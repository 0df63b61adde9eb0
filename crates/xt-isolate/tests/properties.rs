//! Property tests for the isolation algorithms: classifier sanity and
//! robustness of iterative isolation against false positives.

use proptest::prelude::*;

use xt_alloc::{Heap, Rng, SiteHash};
use xt_diefast::{DieFastConfig, DieFastHeap};
use xt_image::HeapImage;
use xt_isolate::cumulative::{classify, likelihood_h0, likelihood_h1, CumulativeConfig};
use xt_isolate::iterative::isolate;
use xt_isolate::theory;

fn observations() -> impl Strategy<Value = Vec<(f64, bool)>> {
    proptest::collection::vec((0.0f64..=1.0, any::<bool>()), 1..40)
}

proptest! {
    /// Likelihoods are probabilities.
    #[test]
    fn likelihoods_are_probabilities(obs in observations()) {
        let l0 = likelihood_h0(&obs);
        let l1 = likelihood_h1(&obs, 256);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&l0));
        prop_assert!((0.0..=1.0 + 1e-9).contains(&l1));
    }

    /// The H1 integral is insensitive to the integration resolution
    /// (Simpson convergence).
    #[test]
    fn integral_converges(obs in observations()) {
        let coarse = likelihood_h1(&obs, 128);
        let fine = likelihood_h1(&obs, 2048);
        prop_assert!((coarse - fine).abs() < 1e-6, "coarse {coarse} fine {fine}");
    }

    /// Chance-consistent sites (Y drawn at rate X) essentially never get
    /// flagged at realistic site counts.
    #[test]
    fn classifier_rejects_chance(seed in 0u64..2000, x in 0.05f64..0.95, n in 5usize..40) {
        let mut rng = Rng::new(seed);
        let obs: Vec<(f64, bool)> = (0..n).map(|_| (x, rng.chance(x))).collect();
        let v = classify(SiteHash::from_raw(1), &obs, 200, &CumulativeConfig::default());
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
            let v = classify(SiteHash::from_raw(1), &obs, 100, &config);
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
}
