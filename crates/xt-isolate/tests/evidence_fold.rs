//! The running-product fold, bit for bit.
//!
//! `SiteEvidence::observe` reads each Simpson node's `(1 − θ, θ)` from a
//! table built once per grid instead of dividing `j / n` at every node.
//! These tests hold it to the per-node loop it replaced, kept here as
//! [`reference_observe`]: every `raw_parts` bit after every observation,
//! on grid sizes where `j / n` and `j · (1 / n)` differ, through the
//! subnormal range and on to zero, and through `merge` of split streams.
//! The last test pins a known defect of the running products: they
//! underflow, and a site whose two likelihoods both reach zero is stuck
//! at ratio 1.0.

use proptest::prelude::*;

use xt_alloc::SiteHash;
use xt_isolate::evidence::SiteEvidence;

/// The grid sizes checked: two powers of two and three that are not.
const STEPS: [usize; 5] = [2, 6, 64, 510, 512];

/// The per-node fold `observe` used before the node table, verbatim.
fn reference_observe(l0: &mut f64, grid: &mut [f64], x: f64, y: bool) {
    *l0 *= if y { x } else { 1.0 - x };
    let n = grid.len() - 1;
    for (j, g) in grid.iter_mut().enumerate() {
        let theta = j as f64 / n as f64;
        let q = (1.0 - theta) * x + theta;
        *g *= if y { q } else { 1.0 - q };
    }
}

/// The reference state: `(observations, L0, grid)`, folded by
/// [`reference_observe`] and merged pointwise.
#[derive(Clone)]
struct Reference {
    obs: usize,
    l0: f64,
    grid: Vec<f64>,
}

impl Reference {
    fn new(steps: usize) -> Self {
        Reference {
            obs: 0,
            l0: 1.0,
            grid: vec![1.0; steps + 1],
        }
    }

    fn observe(&mut self, x: f64, y: bool) {
        self.obs += 1;
        reference_observe(&mut self.l0, &mut self.grid, x, y);
    }

    fn merge(&mut self, other: &Reference) {
        self.obs += other.obs;
        self.l0 *= other.l0;
        for (g, o) in self.grid.iter_mut().zip(&other.grid) {
            *g *= o;
        }
    }
}

/// `raw_parts` with every float as its bit pattern.
fn bits(obs: usize, l0: f64, grid: &[f64]) -> (usize, u64, Vec<u64>) {
    (
        obs,
        l0.to_bits(),
        grid.iter().map(|g| g.to_bits()).collect(),
    )
}

fn evidence_bits(e: &SiteEvidence) -> (usize, u64, Vec<u64>) {
    let (obs, l0, grid) = e.raw_parts();
    bits(obs, l0, grid)
}

fn reference_bits(r: &Reference) -> (usize, u64, Vec<u64>) {
    bits(r.obs, r.l0, &r.grid)
}

/// Interior `X` values: uniform draws and the values reports carry
/// (`1 − 2⁻ᵏ` placement odds, `k/32` canary probabilities).
fn interior_x() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0f64..=1.0,
        (1i32..=53).prop_map(|k| 1.0 - 2f64.powi(-k)),
        (1u32..=31).prop_map(|k| f64::from(k) / 32.0),
    ]
}

/// A stream of interior observations long enough that nodes pass through
/// the subnormal range and on to zero, then a tail of the endpoints
/// `X = 0` and `X = 1`, whose factors are exact zeros and ones, folded
/// into a grid that by then holds normal, subnormal and zero nodes.
fn stream() -> impl Strategy<Value = Vec<(f64, bool)>> {
    let body = proptest::collection::vec((interior_x(), any::<bool>()), 1200..2400);
    let tail = proptest::collection::vec((any::<bool>(), any::<bool>()), 0..16);
    (body, tail).prop_map(|(mut body, tail)| {
        body.extend(
            tail.into_iter()
                .map(|(one, y)| (if one { 1.0 } else { 0.0 }, y)),
        );
        body
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// After every observation, the table-driven fold holds exactly the
    /// bits of the per-node division loop, on every grid size; and the
    /// 512-interval grid saw a subnormal interior node and ended with a
    /// zero one, so both regimes were compared.
    #[test]
    fn fold_matches_the_per_node_loop_bit_for_bit(obs in stream()) {
        for steps in STEPS {
            let mut fast = SiteEvidence::new(steps);
            let mut slow = Reference::new(steps);
            let mut saw_subnormal = false;
            for (i, &(x, y)) in obs.iter().enumerate() {
                fast.observe(x, y);
                slow.observe(x, y);
                prop_assert_eq!(
                    evidence_bits(&fast),
                    reference_bits(&slow),
                    "steps {} diverged at observation {} ({}, {})",
                    steps, i, x, y
                );
                saw_subnormal |= slow.grid[1..steps].iter().any(|g| g.is_subnormal());
            }
            if steps == 512 {
                prop_assert!(saw_subnormal, "no interior node went subnormal");
                prop_assert!(
                    slow.grid[1..steps].contains(&0.0),
                    "no interior node reached zero"
                );
            }
        }
    }

    /// `merge` over a stream split two ways equals the reference's
    /// pointwise merge of the same split, bit for bit, both ways round,
    /// every 64 observations — before the grids underflow as well as
    /// after.
    #[test]
    fn merge_of_split_streams_is_unchanged(obs in stream(), cut in 0usize..1200) {
        for steps in STEPS {
            let (mut a, mut b) = (SiteEvidence::new(steps), SiteEvidence::new(steps));
            let (mut ra, mut rb) = (Reference::new(steps), Reference::new(steps));
            for (i, &(x, y)) in obs.iter().enumerate() {
                if i < cut || i % 3 == 0 {
                    a.observe(x, y);
                    ra.observe(x, y);
                } else {
                    b.observe(x, y);
                    rb.observe(x, y);
                }
                if i % 64 == 63 || i + 1 == obs.len() {
                    let (mut ab, mut rab) = (a.clone(), ra.clone());
                    ab.merge(&b);
                    rab.merge(&rb);
                    prop_assert_eq!(evidence_bits(&ab), reference_bits(&rab), "steps {} at {}", steps, i);
                    let (mut ba, mut rba) = (b.clone(), rb.clone());
                    ba.merge(&a);
                    rba.merge(&ra);
                    prop_assert_eq!(evidence_bits(&ba), reference_bits(&rba), "steps {} at {}", steps, i);
                }
            }
        }
    }
}

/// Evidence rebuilt from raw parts builds its own node table and keeps
/// folding with the reference's bits.
#[test]
fn restored_evidence_keeps_folding_bit_for_bit() {
    for steps in STEPS {
        let mut e = SiteEvidence::new(steps);
        let mut r = Reference::new(steps);
        for i in 0..40 {
            let (x, y) = (f64::from(i % 7) / 7.0, i % 3 != 0);
            e.observe(x, y);
            r.observe(x, y);
        }
        let (obs, l0, grid) = e.raw_parts();
        let mut back = SiteEvidence::from_raw_parts(obs, l0, grid.to_vec());
        for i in 0..40 {
            let (x, y) = (1.0 - 2f64.powi(-(i % 9 + 1)), i % 4 == 0);
            back.observe(x, y);
            r.observe(x, y);
        }
        assert_eq!(evidence_bits(&back), reference_bits(&r), "steps {steps}");
    }
}

/// **Known defect, pinned:** the running products underflow. A clean
/// site observed as alternating `(0.5, true)` / `(0.5, false)` at the
/// default 512-interval grid reads `L0 = L1 = 0` after 1075 observations:
/// `L0` has been halved 1075 times, and the nodes still nonzero are
/// subnormals whose Simpson sum rounds to zero. From then on
/// `Verdict::decide` reads 0/0 as ratio 1.0 and no evidence can move it —
/// not even a run of observations that flags a fresh site.
/// The fix (a renormalised grid with a binary exponent per evidence
/// record) changes the snapshot format; when it lands this test flips.
#[test]
fn a_clean_site_stream_underflows_to_zero_over_zero() {
    const SITE: SiteHash = SiteHash::from_raw(0xC1EA);
    let mut e = SiteEvidence::new(512);
    let mut zero_at = None;
    for i in 0..4000 {
        e.observe(0.5, i % 2 == 0);
        if e.l0() == 0.0 && e.l1() == 0.0 {
            zero_at = Some(e.observations());
            break;
        }
    }
    assert_eq!(
        zero_at,
        Some(1075),
        "clean-site stream reached 0/0 elsewhere"
    );
    let (_, _, grid) = e.raw_parts();
    assert!(grid.iter().all(|&g| g == 0.0 || g.is_subnormal()));
    assert!(grid.contains(&0.0));
    let stuck = e.verdict(SITE, 250, 4.0);
    assert_eq!(stuck.ratio, 1.0);
    assert!(!stuck.flagged);

    // Fifty observations that flag a fresh site...
    let mut fresh = SiteEvidence::new(512);
    let mut buggy = e.clone();
    for _ in 0..50 {
        fresh.observe(0.1, true);
        buggy.observe(0.1, true);
    }
    assert!(fresh.verdict(SITE, 250, 4.0).flagged);
    // ...cannot move the underflowed one.
    let still = buggy.verdict(SITE, 250, 4.0);
    assert_eq!(still.ratio, 1.0);
    assert!(!still.flagged);
}
