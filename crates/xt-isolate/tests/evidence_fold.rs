//! The ratio-grid fold, bit for bit.
//!
//! `SiteEvidence::observe` reads each Simpson node's `θ` and `1 − θ` from
//! a table built once per grid instead of dividing `j / n` at every node.
//! These tests hold it to the per-node loop of the same ratio factors,
//! kept here as [`reference_observe`]: every `raw_parts` bit after every
//! observation, on grid sizes where `j / n` and `j · (1 / n)` differ,
//! through the subnormal range, zero and +∞. The last tests pin what the
//! ratio form fixes: a long-observed clean site never reaches 0/0, and a
//! node that overflows never turns into a NaN.

use proptest::prelude::*;

use xt_alloc::SiteHash;
use xt_isolate::evidence::SiteEvidence;

/// The grid sizes checked: two powers of two and three that are not.
const STEPS: [usize; 5] = [2, 6, 64, 510, 512];

/// The per-node fold of the likelihood-ratio factors: node 0 untouched,
/// `1 + r·θ` for a positive (+∞ where `r` is not finite), `1 − θ` for a
/// negative with the `θ = 1` node set to 0, and `θ = j / n` divided at
/// every node.
fn reference_observe(grid: &mut [f64], x: f64, y: bool) {
    let n = grid.len() - 1;
    let r = (1.0 - x) / x;
    for (j, g) in grid.iter_mut().enumerate().skip(1) {
        let theta = j as f64 / n as f64;
        if !y {
            *g = if j == n { 0.0 } else { *g * (1.0 - theta) };
        } else if r.is_finite() {
            *g *= 1.0 + r * theta;
        } else {
            *g = f64::INFINITY;
        }
    }
}

/// The reference state: `(observations, grid)`, folded by
/// [`reference_observe`].
#[derive(Clone)]
struct Reference {
    obs: usize,
    grid: Vec<f64>,
}

impl Reference {
    fn new(steps: usize) -> Self {
        Reference {
            obs: 0,
            grid: vec![1.0; steps + 1],
        }
    }

    fn observe(&mut self, x: f64, y: bool) {
        self.obs += 1;
        reference_observe(&mut self.grid, x, y);
    }
}

/// `raw_parts` with every float as its bit pattern.
fn bits(obs: usize, grid: &[f64]) -> (usize, Vec<u64>) {
    (obs, grid.iter().map(|g| g.to_bits()).collect())
}

fn evidence_bits(e: &SiteEvidence) -> (usize, Vec<u64>) {
    let (obs, grid) = e.raw_parts();
    bits(obs, grid)
}

fn reference_bits(r: &Reference) -> (usize, Vec<u64>) {
    bits(r.obs, &r.grid)
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
/// `X = 0` and `X = 1`, whose positives give an infinite and a zero `r`,
/// folded into a grid that by then holds normal, subnormal and zero
/// nodes.
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
    /// bits of the per-node division loop, on every grid size, with node
    /// 0 at 1 and no NaN; and the 512-interval grid saw a subnormal
    /// interior node and a zero one, so both regimes were compared.
    #[test]
    fn fold_matches_the_per_node_loop_bit_for_bit(obs in stream()) {
        for steps in STEPS {
            let mut fast = SiteEvidence::new(steps);
            let mut slow = Reference::new(steps);
            let (mut saw_subnormal, mut saw_zero) = (false, false);
            for (i, &(x, y)) in obs.iter().enumerate() {
                fast.observe(x, y);
                slow.observe(x, y);
                prop_assert_eq!(
                    evidence_bits(&fast),
                    reference_bits(&slow),
                    "steps {} diverged at observation {} ({}, {})",
                    steps, i, x, y
                );
                let interior = &slow.grid[1..steps];
                saw_subnormal |= interior.iter().any(|g| g.is_subnormal());
                saw_zero |= interior.contains(&0.0);
            }
            prop_assert_eq!(slow.grid[0], 1.0);
            prop_assert!(!fast.ratio().is_nan() && slow.grid.iter().all(|g| !g.is_nan()));
            if steps == 512 {
                prop_assert!(saw_subnormal, "no interior node went subnormal");
                prop_assert!(saw_zero, "no interior node reached zero");
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
        let (obs, grid) = e.raw_parts();
        let mut back = SiteEvidence::from_raw_parts(obs, grid.to_vec());
        for i in 0..40 {
            let (x, y) = (1.0 - 2f64.powi(-(i % 9 + 1)), i % 4 == 0);
            back.observe(x, y);
            r.observe(x, y);
        }
        assert_eq!(evidence_bits(&back), reference_bits(&r), "steps {steps}");
    }
}

/// A clean site observed as alternating `(0.5, true)` / `(0.5, false)`
/// at the default 512-interval grid. When the fold kept `L0` and `L1` as
/// two products, both read 0 after 1075 observations, the verdict read
/// 0/0 as ratio 1.0, and no evidence could move it again. The ratio grid
/// keeps node 0 at 1: after 1075 observations the ratio is small,
/// finite and positive, and the fifty observations that flag a fresh
/// site flag this one too. After 10⁵ observations it is smaller still,
/// unflagged, with no NaN anywhere.
#[test]
fn a_clean_site_stream_never_reaches_zero_over_zero() {
    const SITE: SiteHash = SiteHash::from_raw(0xC1EA);
    let mut e = SiteEvidence::new(512);
    for i in 0..1075 {
        e.observe(0.5, i % 2 == 0);
    }
    let clean = e.verdict(SITE, 250, 4.0);
    assert!(clean.ratio > 0.0 && clean.ratio < 0.1, "{}", clean.ratio);
    assert!(!clean.flagged);
    assert_eq!(e.raw_parts().1[0], 1.0);

    // Fifty observations that flag a fresh site...
    let mut fresh = SiteEvidence::new(512);
    let mut buggy = e.clone();
    for _ in 0..50 {
        fresh.observe(0.1, true);
        buggy.observe(0.1, true);
    }
    assert!(fresh.verdict(SITE, 250, 4.0).flagged);
    // ...flag the long-observed one as well.
    let moved = buggy.verdict(SITE, 250, 4.0);
    assert!(moved.flagged, "ratio {}", moved.ratio);

    for i in 1075..100_000 {
        e.observe(0.5, i % 2 == 0);
    }
    let long = e.verdict(SITE, 250, 4.0);
    assert!(
        long.ratio > 0.0 && long.ratio < clean.ratio,
        "{}",
        long.ratio
    );
    assert!(!long.flagged);
    let (_, grid) = e.raw_parts();
    assert_eq!(grid[0], 1.0);
    assert!(grid.iter().all(|g| !g.is_nan()));
}

/// A node driven to +∞ stays there: negatives folded after it leave no
/// NaN, zero only the `θ = 1` node, and the site stays flagged. Both
/// roads to +∞ are taken: a run of tiny-`X` positives whose products
/// overflow, and one `X = 0` positive.
#[test]
fn an_overflowed_node_keeps_the_site_flagged() {
    const SITE: SiteHash = SiteHash::from_raw(0xB06);
    let overflowed = |e: &SiteEvidence| e.raw_parts().1[1..512].iter().any(|g| g.is_infinite());
    let mut tiny = SiteEvidence::new(512);
    while !overflowed(&tiny) {
        tiny.observe(1e-12, true);
    }
    let mut impossible = SiteEvidence::new(512);
    impossible.observe(0.0, true);
    assert!(overflowed(&impossible));
    for mut e in [tiny, impossible] {
        for i in 0..10_000 {
            e.observe([0.5, 1.0, 0.0][i % 3], false);
        }
        let (_, grid) = e.raw_parts();
        assert_eq!(grid[0], 1.0);
        assert_eq!(grid[512], 0.0);
        assert!(grid.iter().all(|g| !g.is_nan()));
        let v = e.verdict(SITE, 250, 4.0);
        assert_eq!(v.ratio, f64::INFINITY);
        assert!(v.flagged);
    }
}
