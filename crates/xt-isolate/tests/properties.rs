//! Property tests for the isolation algorithms: classifier sanity, the
//! isolator's stored ratios against the integrator both stores share,
//! and robustness of iterative isolation against false positives.

use proptest::prelude::*;

use std::collections::BTreeMap;
use xt_alloc::{Heap, Rng, SiteHash};
use xt_diefast::{DieFastConfig, DieFastHeap};
use xt_image::HeapImage;

use xt_isolate::cumulative::{
    summarize_heap, summarize_run, CumulativeConfig, CumulativeIsolator, RunSummary,
    SiteObservation, Verdict,
};
use xt_isolate::evidence::SiteEvidence;
use xt_isolate::iterative::isolate;
use xt_isolate::theory;

fn observations() -> impl Strategy<Value = Vec<(f64, bool)>> {
    proptest::collection::vec((0.0f64..=1.0, any::<bool>()), 1..40)
}

/// A site's observation lists, as the isolator stores them.
type Lists = BTreeMap<SiteHash, Vec<(f64, bool)>>;

/// `obs` folded, in order, into fresh evidence on a `steps` grid.
fn folded(obs: &[(f64, bool)], steps: usize) -> SiteEvidence {
    let mut e = SiteEvidence::new(steps);
    for &(x, y) in obs {
        e.observe(x, y);
    }
    e
}

/// One verdict with its ratio as bits.
fn bits(v: &Verdict) -> (u32, u64, bool, usize) {
    (v.site.raw(), v.ratio.to_bits(), v.flagged, v.observations)
}

/// The integrator over every list, under site population `n_sites`.
fn batch(lists: &Lists, n_sites: usize, config: &CumulativeConfig) -> Vec<Verdict> {
    lists
        .iter()
        .map(|(&site, obs)| {
            folded(obs, config.integration_steps).verdict(site, n_sites, config.prior_c)
        })
        .collect()
}

/// The isolator's verdicts, bit for bit, are the integrator's over the
/// lists it was fed.
fn assert_matches_batch(
    iso: &CumulativeIsolator,
    overflow: &Lists,
    dangling: &Lists,
    n_sites: usize,
) -> Result<(), TestCaseError> {
    let config = iso.config();
    let stored: Vec<_> = iso.overflow_verdicts().iter().map(bits).collect();
    let want: Vec<_> = batch(overflow, n_sites, config).iter().map(bits).collect();
    prop_assert_eq!(stored, want);
    let stored: Vec<_> = iso.dangling_verdicts().iter().map(bits).collect();
    let want: Vec<_> = batch(dangling, n_sites, config).iter().map(bits).collect();
    prop_assert_eq!(stored, want);
    Ok(())
}

proptest! {
    /// The ratio is never NaN and never below its floor `h/3`: node 0
    /// stays exactly 1 whatever the observations, `X` at the endpoints
    /// included.
    #[test]
    fn ratios_keep_their_floor(obs in observations(), ends in proptest::collection::vec((any::<bool>(), any::<bool>()), 0..4)) {
        let mut obs = obs;
        obs.extend(ends.into_iter().map(|(one, y)| (if one { 1.0 } else { 0.0 }, y)));
        let e = folded(&obs, 256);
        let (_, grid) = e.raw_parts();
        prop_assert_eq!(grid[0], 1.0);
        prop_assert!(grid.iter().all(|g| *g >= 0.0), "negative or NaN node");
        prop_assert!(e.ratio() >= 1.0 / (3.0 * 256.0), "ratio {}", e.ratio());
    }

    /// The ratio integral is insensitive to the integration resolution
    /// (Simpson convergence).
    #[test]
    fn integral_converges(obs in observations()) {
        let coarse = folded(&obs, 128).ratio();
        let fine = folded(&obs, 2048).ratio();
        prop_assert!((coarse - fine).abs() < 1e-6 * fine, "coarse {coarse} fine {fine}");
    }

    /// Chance-consistent sites (Y drawn at rate X) essentially never get
    /// flagged at realistic site counts.
    #[test]
    fn classifier_rejects_chance(seed in 0u64..2000, x in 0.05f64..0.95, n in 5usize..40) {
        let mut rng = Rng::new(seed);
        let obs: Vec<(f64, bool)> = (0..n).map(|_| (x, rng.chance(x))).collect();
        let v = folded(&obs, 512).verdict(SiteHash::from_raw(1), 200, 4.0);
        prop_assert!(!v.flagged, "chance data flagged with ratio {}", v.ratio);
    }

    /// Perfectly correlated evidence is flagged once there is enough of it
    /// (and the ratio grows monotonically with more evidence).
    #[test]
    fn classifier_accepts_causation(x in 0.1f64..0.6) {
        let config = CumulativeConfig::default();
        let mut last_ratio = 0.0;
        let mut flagged_at = None;
        for n in 1..=30usize {
            let obs: Vec<(f64, bool)> = (0..n).map(|_| (x, true)).collect();
            let v = folded(&obs, config.integration_steps).verdict(SiteHash::from_raw(1), 100, config.prior_c);
            prop_assert!(v.ratio + 1e-9 >= last_ratio, "ratio not monotone");
            last_ratio = v.ratio;
            if v.flagged && flagged_at.is_none() {
                flagged_at = Some(n);
            }
        }
        prop_assert!(flagged_at.is_some(), "never flagged at x = {x}");
    }

    /// Theorem formulas: probabilities in range and monotone in k.
    #[test]
    fn theory_bounds_behave(k in 1u32..8, s in 1.0f64..10.0, h in 20.0f64..1000.0, b in 1u32..16) {
        let p1 = theory::p_identical_overflow(k, s, h);
        let p1k = theory::p_identical_overflow(k + 1, s, h);
        prop_assert!((0.0..=1.0).contains(&p1));
        prop_assert!(p1k <= p1, "identical-overflow bound not shrinking in k");
        let p2 = theory::p_missed_overflow(2.0, k, b);
        let p2k = theory::p_missed_overflow(2.0, k + 1, b);
        prop_assert!(p2 > 0.0 && p2 <= 1.0 + 1e-9);
        prop_assert!(p2k <= p2);
        let e = theory::expected_culprits(h, k);
        prop_assert!(e >= 0.0);
    }

    /// Clean scripted runs (no injected errors) isolate nothing, across
    /// arbitrary scripts and image counts — the empirical false-positive
    /// check behind Theorems 1 and 3.
    #[test]
    fn clean_runs_have_no_false_positives(
        script_seed in 0u64..2000,
        k in 2usize..5,
        steps in 20usize..120,
    ) {
        let mut images = Vec::with_capacity(k);
        for i in 0..k {
            let mut heap = DieFastHeap::new(DieFastConfig::with_seed(
                script_seed.wrapping_mul(31).wrapping_add(i as u64),
            ));
            // Identical logical script in every replica.
            let mut script = Rng::new(script_seed);
            let mut live: Vec<xt_arena::Addr> = Vec::new();
            for step in 0..steps {
                if !live.is_empty() && script.chance(0.4) {
                    let victim = live.swap_remove(script.below_usize(live.len()));
                    heap.free(victim, SiteHash::from_raw(0xF));
                } else {
                    let size = 16 + script.below_usize(100);
                    let p = heap.malloc(size, SiteHash::from_raw(step as u32 % 7)).unwrap();
                    heap.arena_mut().write_u64(p, step as u64).unwrap();
                    live.push(p);
                }
            }
            images.push(HeapImage::try_capture(&heap).expect("the allocator mapped every miniheap this heap records"));
        }
        let report = isolate(&images).unwrap();
        prop_assert!(report.is_empty(), "false positive: {report}");
    }

    /// Evaluating only what changed changes nothing: after every
    /// `record_run` of a random summary stream — sites observed in some
    /// runs and not others, repeated within a run, `X` at the extremes,
    /// a growing site population — and after a `to_text`/`from_text`
    /// round trip, every verdict's `ratio` bits equal the integrator's
    /// over the full observation list.
    #[test]
    fn stored_ratios_equal_the_integrator(
        seed in any::<u64>(),
        runs in 1usize..30,
        steps in 2usize..600,
        prior_c in 0.5f64..8.0,
    ) {
        let config = CumulativeConfig { prior_c, integration_steps: steps, fill_probability: 0.5 };
        let mut iso = CumulativeIsolator::new(config);
        let (mut overflow, mut dangling) = (Lists::new(), Lists::new());
        let mut n_sites = 1;
        let mut rng = Rng::new(seed);
        let draw = |rng: &mut Rng| {
            let x = match rng.below(8) {
                0 => 0.0,
                1 => 1.0,
                _ => rng.unit_f64(),
            };
            SiteObservation { site: SiteHash::from_raw(rng.below(6) as u32), x, y: rng.chance(0.5) }
        };
        for _ in 0..runs {
            let mut summary = RunSummary {
                failed: rng.chance(0.5),
                n_sites: rng.below_usize(300),
                ..RunSummary::default()
            };
            for _ in 0..rng.below(4) {
                summary.overflow_obs.push(draw(&mut rng));
            }
            for _ in 0..rng.below(4) {
                summary.dangling_obs.push(draw(&mut rng));
            }
            for o in &summary.overflow_obs {
                overflow.entry(o.site).or_default().push((o.x, o.y));
            }
            for o in &summary.dangling_obs {
                dangling.entry(o.site).or_default().push((o.x, o.y));
            }
            n_sites = n_sites.max(summary.n_sites);
            iso.record_run(&summary);
            assert_matches_batch(&iso, &overflow, &dangling, n_sites)?;
        }
        let restored = CumulativeIsolator::from_text(&iso.to_text()).unwrap();
        assert_matches_batch(&restored, &overflow, &dangling, n_sites)?;
    }

    /// Summarising the standing heap is summarising its image: over
    /// churned history-tracking heaps with seeded bytes overwritten
    /// anywhere in their slots, `summarize_heap` equals `summarize_run` of
    /// the captured image, failed or not.
    #[test]
    fn live_summary_equals_image_summary(
        seed in 0u64..5000,
        steps in 10usize..200,
        writes in 0usize..6,
        failed in any::<bool>(),
    ) {
        let mut heap = DieFastHeap::new(DieFastConfig::cumulative_with_seed(seed));
        let mut rng = Rng::new(seed ^ 0x5A5A);
        let mut live = Vec::new();
        for i in 0..steps {
            if !live.is_empty() && rng.chance(0.4) {
                let victim = live.swap_remove(rng.below_usize(live.len()));
                heap.free(victim, SiteHash::from_raw(0xF0 + i as u32 % 3));
            } else {
                let size = 8 + rng.below_usize(120);
                live.push(heap.malloc(size, SiteHash::from_raw(i as u32 % 11)).unwrap());
            }
        }
        let slots: Vec<_> = {
            let image = HeapImage::try_capture(&heap).unwrap();
            image
                .slots()
                .map(|(r, _)| (image.slot_addr(r), image.miniheap_of(r).object_size))
                .collect()
        };
        for _ in 0..writes {
            let (base, size) = slots[rng.below_usize(slots.len())];
            let at = base + rng.below(u64::from(size));
            heap.arena_mut().write_bytes(at, &[0xEE; 3]).ok();
        }
        let image = HeapImage::try_capture(&heap).unwrap();
        let log = heap.inner().history().unwrap();
        prop_assert_eq!(
            summarize_heap(&heap, log, failed, 0.5).unwrap(),
            summarize_run(&image, log, failed, 0.5)
        );
    }
}
