//! Incremental cumulative-mode evidence (§5): the likelihood ratio as a
//! running grid.
//!
//! The §5.1 classifier decides on one number, the Bayes factor `L1/L0`
//! between `H1: θ > 0` (uniform prior on `θ`) and `H0: θ = 0`. For one
//! site, the two likelihoods are products over its observations:
//!
//! ```text
//! L0 = Π_i  (X_i if Y_i else 1 − X_i)
//! L1 = ∫₀¹ Π_i (q_i if Y_i else 1 − q_i) dθ,   q_i = (1−θ)·X_i + θ
//! ```
//!
//! `L0` does not depend on `θ`, so dividing each factor of `L1` by the
//! matching factor of `L0` puts the ratio under one integral:
//!
//! ```text
//! L1/L0 = ∫₀¹ Π_{Y=1} (1 + r_i·θ) · Π_{Y=0} (1 − θ) dθ,   r_i = (1 − X_i)/X_i
//! ```
//!
//! A negative observation's `X` cancels. [`SiteEvidence`] keeps that
//! integrand at the fixed Simpson nodes `θ_j = j/steps` as a vector of
//! `steps + 1` running products and folds each new observation in with
//! one multiply per node — O(steps) per observation, O(steps) per
//! verdict, and **no observation list at all**. The verdict is the
//! Simpson sum of the grid against `(c·N − 1).max(1)`.
//!
//! **No 0/0.** At `θ = 0` every factor is exactly 1, so node 0 is 1 for
//! ever and the ratio is at least `h/3 = 1/(3·steps)`: a long-observed
//! clean site's ratio falls towards zero but never reaches it, and later
//! evidence still moves it (`tests/evidence_fold.rs` pins both).
//!
//! **Never a NaN.** The fold never multiplies an infinity by a zero:
//!
//! * node 0 is never touched;
//! * a negative *assigns* 0 to the `θ = 1` node, whose factor `1 − θ` is 0;
//! * a positive whose `r` is not finite (`X = 0`, or an `X` so small that
//!   `(1 − X)/X` overflows) *assigns* +∞ to every node but `θ = 0`, the
//!   limit of `1 + r·θ`. The ratio is then +∞, as an observation that is
//!   impossible under `H0` demands.
//!
//! A node that overflows to +∞ stays there under every later factor,
//! except the `θ = 1` node, which the next negative zeroes. So once an
//! interior node is +∞, the ratio is +∞ and the site stays flagged.
//!
//! **The node table.** The abscissae depend only on the grid size, so
//! they are computed once per grid, not once per observation: an
//! [`EvidenceTable`] builds one table of `θ_j` and `1 − θ_j` from its
//! `integration_steps` and shares it (an `Arc`) with every site it
//! creates; a standalone [`SiteEvidence::new`] or
//! [`SiteEvidence::from_raw_parts`] builds its own. Folding an observation
//! is then one division for `r`, and per node a multiply and an add for
//! the factor `1 + r·θ` (or a lookup of `1 − θ`) and one multiply into the
//! grid, with the `Y` branch taken once per observation rather than once
//! per node. The table holds exactly the values the per-node expressions
//! `j as f64 / n as f64` and `1.0 − θ_j` produce, and the factor is
//! evaluated with no fused multiply-add (Rust never contracts one on its
//! own), so every grid bit — and with it every snapshot, WAL replay and
//! published epoch of `xt-fleet` — is what a per-node division produces.
//!
//! Because every node is a product of per-observation factors, the fold
//! is order-insensitive up to float rounding. An [`EvidenceTable`] holds
//! one [`SiteEvidence`] per site of each error family plus the
//! pad/deferral hints: the whole §5 state of `xt-fleet`'s service, which
//! folds every report into one table.
//!
//! **One integrator over two stores.** The grid costs `steps + 1`
//! doubles per site where an observation list costs a few bytes per
//! observation: after `tests/modes.rs`'s twenty Mozilla runs (145
//! site-families, 398 observations) a table fed the same summaries holds
//! 604,504 bytes against the isolator's list state of about 11 KB, and
//! one user's state file exists to keep §3.4's per-execution budget. So
//! [`CumulativeIsolator`](crate::cumulative::CumulativeIsolator) keeps
//! each site's list, which it persists, and evaluates a site a run
//! touched by folding that list into a [`SiteEvidence`]: both stores
//! decide through the one integrator, and on the same observations in
//! the same order they compute the same bits. The two still keep
//! deferral hints differently. The isolator keeps one `(free site,
//! ticks)` per alloc site, the largest, and patches that pair; the table
//! keys hints by `(alloc, free)` pair and patches every hinted pair of a
//! flagged site, so the same runs can yield more deferrals from the
//! table.

use std::collections::BTreeMap;
use std::sync::Arc;

use xt_alloc::{SiteHash, SitePair};
use xt_patch::PatchTable;

use crate::cumulative::{CumulativeConfig, RunSummary, Verdict};

/// Running-grid evidence for one allocation site: the integrand of the
/// §5 likelihood ratio `L1/L0` at the Simpson nodes.
///
/// # Example
///
/// ```
/// use xt_alloc::SiteHash;
/// use xt_isolate::evidence::SiteEvidence;
///
/// // Fifteen failures, always canaried at p = 1/2 — the espresso
/// // dangling signature (§7.2).
/// let mut e = SiteEvidence::new(512);
/// for _ in 0..15 {
///     e.observe(0.5, true);
/// }
/// let site = SiteHash::from_raw(0xBAD);
/// assert!(e.verdict(site, 250, 4.0).flagged);
/// // A thousand chance-level observations leave a small, positive ratio.
/// let mut clean = SiteEvidence::new(512);
/// for i in 0..1000 {
///     clean.observe(0.5, i % 2 == 0);
/// }
/// assert!(clean.ratio() > 0.0 && !clean.verdict(site, 250, 4.0).flagged);
/// assert_eq!(e.observations(), 15);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SiteEvidence {
    /// Observations folded in so far.
    obs: usize,
    /// Running integrand products of `L1/L0` at the `steps + 1` Simpson
    /// nodes; node 0 is exactly 1.
    grid: Vec<f64>,
    /// The grid's abscissae, shared with every site of one table.
    nodes: Arc<Nodes>,
}

/// The abscissae of one Simpson grid, `θ_j = j / steps` and `1 − θ_j`,
/// computed once so the fold never divides per node. Two arrays rather
/// than one of pairs: each branch of the fold reads only one.
#[derive(Debug, PartialEq)]
struct Nodes {
    /// `1 − θ_j`.
    rest: Box<[f64]>,
    /// `θ_j`.
    theta: Box<[f64]>,
}

impl Nodes {
    /// The table for `steps` intervals (already even, `>= 2`), from the
    /// very expressions a per-node fold evaluates.
    fn for_steps(steps: usize) -> Arc<Nodes> {
        let theta: Box<[f64]> = (0..=steps).map(|j| j as f64 / steps as f64).collect();
        let rest = theta.iter().map(|t| 1.0 - t).collect();
        Arc::new(Nodes { rest, theta })
    }
}

/// `steps` forced even, minimum 2.
fn even_steps(steps: usize) -> usize {
    steps.max(2) & !1
}

impl SiteEvidence {
    /// Creates empty evidence integrating over `steps` Simpson intervals
    /// (forced even, minimum 2).
    #[must_use]
    pub fn new(steps: usize) -> Self {
        SiteEvidence::on(Nodes::for_steps(even_steps(steps)))
    }

    /// Empty evidence over an existing node table.
    fn on(nodes: Arc<Nodes>) -> Self {
        SiteEvidence {
            obs: 0,
            grid: vec![1.0; nodes.theta.len()],
            nodes,
        }
    }

    /// Number of Simpson intervals this evidence integrates over.
    #[must_use]
    pub fn steps(&self) -> usize {
        self.grid.len() - 1
    }

    /// Observations folded in.
    #[must_use]
    pub fn observations(&self) -> usize {
        self.obs
    }

    /// Folds one `(X, Y)` observation in, `X` a probability. A positive
    /// multiplies node `j` by `1 + r·θ_j` with `r = (1 − X)/X` computed
    /// once; a negative multiplies it by `1 − θ_j`. Node 0 is left at 1,
    /// and the two products that would be ∞·0 are assigned instead (see
    /// the module docs).
    pub fn observe(&mut self, x: f64, y: bool) {
        self.obs += 1;
        let grid = &mut self.grid[1..];
        if y {
            let r = (1.0 - x) / x;
            if r.is_finite() {
                for (g, &theta) in grid.iter_mut().zip(&self.nodes.theta[1..]) {
                    *g *= 1.0 + r * theta;
                }
            } else {
                grid.fill(f64::INFINITY);
            }
        } else if let Some((last, interior)) = grid.split_last_mut() {
            for (g, &rest) in interior.iter_mut().zip(&self.nodes.rest[1..]) {
                *g *= rest;
            }
            *last = 0.0;
        }
    }

    /// The likelihood ratio `L1/L0`: the Simpson sum of the grid. At
    /// least `h/3`, since node 0 is 1; +∞ once an interior node is.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        let n = self.grid.len() - 1;
        let h = 1.0 / n as f64;
        let mut sum = self.grid[0] + self.grid[n];
        for (j, &g) in self.grid.iter().enumerate().take(n).skip(1) {
            sum += if j % 2 == 1 { 4.0 * g } else { 2.0 * g };
        }
        sum * h / 3.0
    }

    /// The raw running state: `(observations, grid)`. The floats are the
    /// state — a durability layer that snapshots these exact bit patterns
    /// and restores them with [`SiteEvidence::from_raw_parts`] reproduces
    /// classification byte-identically, with no re-derivation and no
    /// rounding drift.
    #[must_use]
    pub fn raw_parts(&self) -> (usize, &[f64]) {
        (self.obs, &self.grid)
    }

    /// Rebuilds evidence from state captured by
    /// [`SiteEvidence::raw_parts`].
    ///
    /// # Panics
    ///
    /// Panics if `grid` is not a ratio grid: `steps + 1` nodes for an
    /// even `steps >= 2`, the first exactly 1.0. A restored grid whose
    /// `θ = 0` node is not 1 would lose the ratio's floor.
    #[must_use]
    pub fn from_raw_parts(obs: usize, grid: Vec<f64>) -> Self {
        assert!(
            grid.len() >= 3 && grid.len() % 2 == 1,
            "grid of {} nodes is not steps + 1 for an even steps >= 2",
            grid.len()
        );
        assert!(grid[0] == 1.0, "grid node 0 is {}, not 1", grid[0]);
        let nodes = Nodes::for_steps(grid.len() - 1);
        SiteEvidence { obs, grid, nodes }
    }

    /// The §5.1 decision for this site under prior constant `prior_c` and
    /// site population `n_sites`.
    #[must_use]
    pub fn verdict(&self, site: SiteHash, n_sites: usize, prior_c: f64) -> Verdict {
        Verdict::decide(site, self.ratio(), self.obs, n_sites, prior_c)
    }
}

/// An aggregate of cumulative-mode evidence: per-site [`SiteEvidence`]
/// for both error families, pad/deferral hints, and run counters. The
/// grid-store counterpart of
/// [`CumulativeIsolator`](crate::cumulative::CumulativeIsolator), and the
/// state the `xt-fleet` service keeps, whose report and failure counts
/// and prior `N` are this table's run counters.
#[derive(Clone, Debug, PartialEq)]
pub struct EvidenceTable {
    config: CumulativeConfig,
    /// The node table of `config.integration_steps`, shared by every site.
    nodes: Arc<Nodes>,
    overflow: BTreeMap<SiteHash, SiteEvidence>,
    dangling: BTreeMap<SiteHash, SiteEvidence>,
    pad_hints: BTreeMap<SiteHash, u32>,
    defer_hints: BTreeMap<SitePair, u64>,
    runs: usize,
    failures: usize,
    n_sites: usize,
}

impl EvidenceTable {
    /// Creates an empty table under `config`.
    #[must_use]
    pub fn new(config: CumulativeConfig) -> Self {
        EvidenceTable {
            config,
            nodes: Nodes::for_steps(even_steps(config.integration_steps)),
            overflow: BTreeMap::new(),
            dangling: BTreeMap::new(),
            pad_hints: BTreeMap::new(),
            defer_hints: BTreeMap::new(),
            runs: 0,
            failures: 0,
            n_sites: 1,
        }
    }

    /// The table's configuration.
    #[must_use]
    pub fn config(&self) -> &CumulativeConfig {
        &self.config
    }

    /// Total runs folded in.
    #[must_use]
    pub fn runs(&self) -> usize {
        self.runs
    }

    /// Failed runs among them.
    #[must_use]
    pub fn failures(&self) -> usize {
        self.failures
    }

    /// Largest site population seen (`N` of the prior).
    #[must_use]
    pub fn n_sites(&self) -> usize {
        self.n_sites
    }

    /// Sites with evidence in either family: one merge pass over the two
    /// maps' sorted keys, allocating nothing.
    #[must_use]
    pub fn sites_tracked(&self) -> usize {
        let mut overflow = self.overflow.keys().peekable();
        let mut count = 0;
        for site in self.dangling.keys() {
            while overflow.next_if(|&o| o < site).is_some() {
                count += 1;
            }
            overflow.next_if_eq(&site);
            count += 1;
        }
        count + overflow.count()
    }

    /// Sets the run counters to a snapshot's (`n_sites` at least 1, as in
    /// a fresh table).
    pub fn restore_run_counters(&mut self, runs: usize, failures: usize, n_sites: usize) {
        self.runs = runs;
        self.failures = failures;
        self.n_sites = n_sites.max(1);
    }

    /// Folds one overflow-criteria observation in.
    pub fn observe_overflow(&mut self, site: SiteHash, x: f64, y: bool) {
        self.overflow
            .entry(site)
            .or_insert_with(|| SiteEvidence::on(Arc::clone(&self.nodes)))
            .observe(x, y);
    }

    /// Folds one dangling-canary observation in.
    pub fn observe_dangling(&mut self, site: SiteHash, x: f64, y: bool) {
        self.dangling
            .entry(site)
            .or_insert_with(|| SiteEvidence::on(Arc::clone(&self.nodes)))
            .observe(x, y);
    }

    /// Records a pad hint (kept by maximum).
    pub fn hint_pad(&mut self, site: SiteHash, pad: u32) {
        let e = self.pad_hints.entry(site).or_insert(0);
        *e = (*e).max(pad);
    }

    /// Records a deferral hint (kept by per-pair maximum).
    pub fn hint_deferral(&mut self, pair: SitePair, ticks: u64) {
        let e = self.defer_hints.entry(pair).or_insert(0);
        *e = (*e).max(ticks);
    }

    /// Folds one whole [`RunSummary`] in.
    pub fn record_run(&mut self, summary: &RunSummary) {
        self.runs += 1;
        if summary.failed {
            self.failures += 1;
        }
        self.n_sites = self.n_sites.max(summary.n_sites);
        for obs in &summary.overflow_obs {
            self.observe_overflow(obs.site, obs.x, obs.y);
        }
        for obs in &summary.dangling_obs {
            self.observe_dangling(obs.site, obs.x, obs.y);
        }
        for &(site, pad) in &summary.pad_hints {
            self.hint_pad(site, pad);
        }
        for &(alloc, free, ticks) in &summary.defer_hints {
            self.hint_deferral(SitePair::new(alloc, free), ticks);
        }
    }

    /// Per-site overflow evidence in site order (snapshot export).
    pub fn overflow_evidence(&self) -> impl Iterator<Item = (SiteHash, &SiteEvidence)> {
        self.overflow.iter().map(|(&s, e)| (s, e))
    }

    /// Per-site dangling evidence in site order (snapshot export).
    pub fn dangling_evidence(&self) -> impl Iterator<Item = (SiteHash, &SiteEvidence)> {
        self.dangling.iter().map(|(&s, e)| (s, e))
    }

    /// Pad hints in site order (snapshot export).
    pub fn pad_hint_entries(&self) -> impl Iterator<Item = (SiteHash, u32)> + '_ {
        self.pad_hints.iter().map(|(&s, &p)| (s, p))
    }

    /// Deferral hints in pair order (snapshot export).
    pub fn defer_hint_entries(&self) -> impl Iterator<Item = (SitePair, u64)> + '_ {
        self.defer_hints.iter().map(|(&p, &t)| (p, t))
    }

    /// Installs restored overflow evidence for `site`, replacing any the
    /// table holds. The site folds on over this table's shared node
    /// table.
    ///
    /// # Panics
    ///
    /// Panics if `evidence` integrates over a different grid than this
    /// table's configuration.
    pub fn insert_overflow_evidence(&mut self, site: SiteHash, evidence: SiteEvidence) {
        let evidence = self.adopt(evidence);
        self.overflow.insert(site, evidence);
    }

    /// Installs restored dangling evidence for `site` (see
    /// [`EvidenceTable::insert_overflow_evidence`]).
    ///
    /// # Panics
    ///
    /// Panics if `evidence` integrates over a different grid than this
    /// table's configuration.
    pub fn insert_dangling_evidence(&mut self, site: SiteHash, evidence: SiteEvidence) {
        let evidence = self.adopt(evidence);
        self.dangling.insert(site, evidence);
    }

    /// `evidence` over this table's node table.
    fn adopt(&self, evidence: SiteEvidence) -> SiteEvidence {
        assert_eq!(
            evidence.grid.len(),
            self.nodes.theta.len(),
            "restored evidence grid does not match the table configuration"
        );
        SiteEvidence {
            nodes: Arc::clone(&self.nodes),
            ..evidence
        }
    }

    /// Verdicts for all sites with overflow evidence, under this table's
    /// recorded site population.
    #[must_use]
    pub fn overflow_verdicts(&self) -> Vec<Verdict> {
        self.overflow
            .iter()
            .map(|(&site, e)| e.verdict(site, self.n_sites, self.config.prior_c))
            .collect()
    }

    /// Verdicts for all sites with dangling evidence, under this table's
    /// recorded site population.
    #[must_use]
    pub fn dangling_verdicts(&self) -> Vec<Verdict> {
        self.dangling
            .iter()
            .map(|(&site, e)| e.verdict(site, self.n_sites, self.config.prior_c))
            .collect()
    }

    /// Patches for every flagged site with a matching hint, under this
    /// table's recorded site population. Deferral patches are emitted for
    /// every hinted `(alloc, free)` pair of a flagged alloc site.
    #[must_use]
    pub fn generate_patches(&self) -> PatchTable {
        let mut patches = PatchTable::new();
        for v in self.overflow_verdicts() {
            if !v.flagged {
                continue;
            }
            if let Some(&pad) = self.pad_hints.get(&v.site) {
                patches.add_pad(v.site, pad);
            }
        }
        for v in self.dangling_verdicts() {
            if !v.flagged {
                continue;
            }
            for (&pair, &ticks) in &self.defer_hints {
                if pair.alloc == v.site {
                    patches.add_deferral(pair, ticks);
                }
            }
        }
        patches
    }

    /// Resident bytes of the evidence state — per site this is one grid of
    /// one double per Simpson node instead of an unbounded observation
    /// list. The shared node table is configuration, not state, and is
    /// not counted; its length is the grid's.
    #[must_use]
    pub fn state_bytes(&self) -> usize {
        let per_site = std::mem::size_of::<SiteEvidence>()
            + self.nodes.theta.len() * std::mem::size_of::<f64>();
        (self.overflow.len() + self.dangling.len()) * per_site
            + self.pad_hints.len() * 16
            + self.defer_hints.len() * 24
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cumulative::{CumulativeIsolator, SiteObservation};

    const BUGGY: SiteHash = SiteHash::from_raw(0xB06);
    const CLEAN: SiteHash = SiteHash::from_raw(0xC1EA);

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 * a.abs().max(b.abs())
    }

    /// The ratio as its definition reads: per Simpson node, the product
    /// of each observation's `L1` factor over its `L0` factor, `q/X` or
    /// `(1 − q)/(1 − X)`, then the Simpson sum. Interior `X` only.
    fn list_ratio(obs: &[(f64, bool)], steps: usize) -> f64 {
        let f = |theta: f64| -> f64 {
            obs.iter()
                .map(|&(x, y)| {
                    let q = (1.0 - theta) * x + theta;
                    if y {
                        q / x
                    } else {
                        (1.0 - q) / (1.0 - x)
                    }
                })
                .product()
        };
        let h = 1.0 / steps as f64;
        let mut sum = f(0.0) + f(1.0);
        for i in 1..steps {
            let w = if i % 2 == 1 { 4.0 } else { 2.0 };
            sum += w * f(i as f64 * h);
        }
        sum * h / 3.0
    }

    #[test]
    fn grid_matches_the_likelihood_ratio_of_the_list() {
        let obs: Vec<(f64, bool)> = (0..25)
            .map(|i| (0.1 + 0.8 * (i as f64 / 25.0), i % 3 != 0))
            .collect();
        let config = CumulativeConfig::default();
        let mut e = SiteEvidence::new(config.integration_steps);
        for &(x, y) in &obs {
            e.observe(x, y);
        }
        let want = list_ratio(&obs, config.integration_steps);
        let v = e.verdict(BUGGY, 250, config.prior_c);
        assert!(close(v.ratio, want), "{} vs {want}", v.ratio);
        assert_eq!(v.observations, 25);
    }

    #[test]
    fn fold_is_order_insensitive() {
        let obs: Vec<(f64, bool)> = (0..30)
            .map(|i| ([0.3, 0.05, 0.9][i % 3], i % 4 == 0))
            .collect();
        let (mut forward, mut backward) = (SiteEvidence::new(64), SiteEvidence::new(64));
        for &(x, y) in &obs {
            forward.observe(x, y);
        }
        for &(x, y) in obs.iter().rev() {
            backward.observe(x, y);
        }
        assert_eq!(forward.observations(), backward.observations());
        assert!(close(forward.ratio(), backward.ratio()));
    }

    #[test]
    #[should_panic(expected = "does not match the table configuration")]
    fn insert_rejects_mismatched_grids() {
        let mut table = EvidenceTable::new(CumulativeConfig {
            integration_steps: 64,
            ..CumulativeConfig::default()
        });
        table.insert_overflow_evidence(BUGGY, SiteEvidence::new(128));
    }

    #[test]
    fn table_matches_batch_isolator_end_to_end() {
        // Feed identical run streams to the list isolator and the grid
        // table; verdicts and generated patches must agree, and the two
        // stores' ratios are the one integrator's bits.
        let config = CumulativeConfig::default();
        let mut batch = CumulativeIsolator::new(config);
        let mut table = EvidenceTable::new(config);
        for run in 0..20 {
            let mut summary = RunSummary {
                failed: true,
                n_sites: 100,
                ..RunSummary::default()
            };
            summary.overflow_obs.push(SiteObservation {
                site: BUGGY,
                x: 0.3,
                y: true,
            });
            summary.dangling_obs.push(SiteObservation {
                site: CLEAN,
                x: 0.5,
                y: run % 2 == 0,
            });
            summary.pad_hints.push((BUGGY, 24));
            summary
                .defer_hints
                .push((CLEAN, SiteHash::from_raw(0xF), 40));
            batch.record_run(&summary);
            table.record_run(&summary);
        }
        assert_eq!(table.runs(), batch.runs());
        assert_eq!(table.failures(), batch.failures());
        for (bv, tv) in [
            (batch.overflow_verdicts(), table.overflow_verdicts()),
            (batch.dangling_verdicts(), table.dangling_verdicts()),
        ] {
            assert_eq!(bv, tv);
        }
        assert_eq!(table.generate_patches(), batch.generate_patches());
        assert_eq!(table.generate_patches().pad_for(BUGGY), 24);
    }

    /// The durability contract: raw-parts round trips are *bit*-exact, so
    /// a snapshot/restore cycle cannot drift a ratio even in the last ulp.
    #[test]
    fn raw_parts_round_trip_is_bit_exact() {
        let mut e = SiteEvidence::new(64);
        for i in 0..23 {
            e.observe([0.25, 0.5, 0.75][i % 3], i % 4 != 0);
        }
        let (obs, grid) = e.raw_parts();
        let back = SiteEvidence::from_raw_parts(obs, grid.to_vec());
        assert_eq!(back, e);
        assert_eq!(back.ratio().to_bits(), e.ratio().to_bits());

        // Table-level: export every entry, rebuild a fresh table, compare.
        let config = CumulativeConfig {
            integration_steps: 64,
            ..CumulativeConfig::default()
        };
        let mut table = EvidenceTable::new(config);
        for run in 0..40u32 {
            let mut summary = RunSummary {
                failed: run % 2 == 0,
                n_sites: 64,
                ..RunSummary::default()
            };
            summary.overflow_obs.push(SiteObservation {
                site: SiteHash::from_raw(run % 5),
                x: 0.25,
                y: run % 3 == 0,
            });
            summary.dangling_obs.push(SiteObservation {
                site: SiteHash::from_raw(100 + run % 3),
                x: 0.5,
                y: true,
            });
            summary.pad_hints.push((SiteHash::from_raw(run % 5), run));
            summary
                .defer_hints
                .push((SiteHash::from_raw(100 + run % 3), SiteHash::from_raw(7), 9));
            table.record_run(&summary);
        }
        let mut restored = EvidenceTable::new(config);
        for (site, e) in table.overflow_evidence() {
            let (obs, grid) = e.raw_parts();
            restored
                .insert_overflow_evidence(site, SiteEvidence::from_raw_parts(obs, grid.to_vec()));
        }
        for (site, e) in table.dangling_evidence() {
            let (obs, grid) = e.raw_parts();
            restored
                .insert_dangling_evidence(site, SiteEvidence::from_raw_parts(obs, grid.to_vec()));
        }
        for (site, pad) in table.pad_hint_entries() {
            restored.hint_pad(site, pad);
        }
        for (pair, ticks) in table.defer_hint_entries() {
            restored.hint_deferral(pair, ticks);
        }
        restored.restore_run_counters(table.runs(), table.failures(), table.n_sites());
        // Evidence, hints, run counters, and therefore verdicts and
        // patches all match bit-for-bit: the run counters are table
        // state, which the fleet's snapshots carry.
        assert_eq!(restored, table);
        assert_eq!(restored.generate_patches(), table.generate_patches());
        let a = restored.dangling_verdicts();
        let b = table.dangling_verdicts();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.site, y.site);
            assert_eq!(x.ratio.to_bits(), y.ratio.to_bits(), "ratio drifted");
        }
    }

    #[test]
    #[should_panic(expected = "not steps + 1")]
    fn from_raw_parts_rejects_malformed_grids() {
        let _ = SiteEvidence::from_raw_parts(1, vec![1.0; 4]);
    }

    #[test]
    #[should_panic(expected = "not 1")]
    fn from_raw_parts_rejects_a_grid_without_its_floor() {
        let _ = SiteEvidence::from_raw_parts(1, vec![0.5, 1.0, 1.0]);
    }

    #[test]
    fn state_stays_compact() {
        let mut table = EvidenceTable::new(CumulativeConfig {
            integration_steps: 64,
            ..CumulativeConfig::default()
        });
        for run in 0..1000u32 {
            let mut summary = RunSummary {
                failed: true,
                n_sites: 40,
                ..RunSummary::default()
            };
            summary.dangling_obs.push(SiteObservation {
                site: SiteHash::from_raw(run % 8),
                x: 0.5,
                y: true,
            });
            table.record_run(&summary);
        }
        // 1000 runs over 8 sites: batch storage would hold 1000
        // observations; the grid form is bounded by sites × grid.
        assert_eq!(table.runs(), 1000);
        assert!(table.state_bytes() < 8 * (64 + 2) * 8 + 1024);
        assert_eq!(table.sites_tracked(), 8);
    }

    /// The merge count is the size of the union of the two families'
    /// site sets: interleaved, shared, and one-sided keys alike.
    #[test]
    fn sites_tracked_counts_the_union_of_both_families() {
        let mut table = EvidenceTable::new(CumulativeConfig::default());
        let mut union = std::collections::BTreeSet::new();
        assert_eq!(table.sites_tracked(), 0);
        let sites = [5, 1, 1, 9, 3, 2, 20, 20, 40, 3, 41, 50, 60, 61];
        for (i, site) in sites.map(SiteHash::from_raw).into_iter().enumerate() {
            if i % 2 == 0 {
                table.observe_overflow(site, 0.5, true);
            } else {
                table.observe_dangling(site, 0.5, true);
            }
            union.insert(site);
            assert_eq!(table.sites_tracked(), union.len());
        }
        assert_eq!(union.len(), 11);
    }

    /// A site's grid has one double per Simpson node, and an odd step
    /// count is forced even: 63 steps integrate over 62 intervals, 63
    /// nodes.
    #[test]
    fn state_bytes_counts_the_grid_a_site_holds() {
        let mut table = EvidenceTable::new(CumulativeConfig {
            integration_steps: 63,
            ..CumulativeConfig::default()
        });
        table.observe_dangling(BUGGY, 0.5, true);
        assert_eq!(
            table.state_bytes(),
            std::mem::size_of::<SiteEvidence>() + 63 * std::mem::size_of::<f64>()
        );
    }
}
