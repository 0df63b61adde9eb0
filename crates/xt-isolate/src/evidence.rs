//! Incremental, mergeable cumulative-mode evidence (§5, fleet-scale form).
//!
//! [`CumulativeIsolator`](crate::cumulative::CumulativeIsolator) keeps
//! each site's `(X, Y)` observation list and that list's two likelihoods,
//! re-integrating a site only when a run adds to its list. That is the
//! right shape for one user's patch file: the lists are small (§3.4's "a
//! few kilobytes per execution") and they are what gets persisted. Two
//! isolators cannot be combined without replaying raw observations,
//! though, which a service aggregating reports from thousands of clients
//! needs to do constantly.
//!
//! This module keeps the same hypothesis test in *running-product* form.
//! For one site, the two likelihoods of §5 are products over observations:
//!
//! ```text
//! L0 = Π_i  (X_i if Y_i else 1 − X_i)
//! L1 = ∫₀¹ Π_i (q_i if Y_i else 1 − q_i) dθ,   q_i = (1−θ)·X_i + θ
//! ```
//!
//! `L0` is a scalar running product. For `L1`, the integrand evaluated at
//! the fixed Simpson nodes `θ_j = j/steps` is *also* a per-node running
//! product, so [`SiteEvidence`] maintains the integrand as a vector of
//! `steps + 1` partial products and folds each new observation in with one
//! multiply per node — O(steps) per observation, O(steps) per
//! classification, and **no observation list at all**.
//!
//! **The node table.** The abscissae depend only on the grid size, so
//! they are computed once per grid, not once per observation: an
//! [`EvidenceTable`] builds one table of `θ_j` and `1 − θ_j` from its
//! `integration_steps` and shares it (an `Arc`) with every site it
//! creates; a standalone [`SiteEvidence::new`] or
//! [`SiteEvidence::from_raw_parts`] builds its own. Folding an observation
//! is then a multiply and an add for each node's factor and one multiply
//! into the grid — no division — with the `Y` branch taken once per
//! observation rather than once per node. The table holds exactly the
//! values the per-node expressions `j as f64 / n as f64` and `1.0 − θ_j`
//! produce, and each factor is still `(1 − θ)·X + θ` (or `1 −` that),
//! evaluated in the same order with no fused multiply-add (Rust never
//! contracts one on its own), so every grid bit — and with it every
//! snapshot, WAL replay and published epoch of `xt-fleet` — is what the
//! per-node division produced.
//!
//! **Known defect: the products underflow.** Every factor is at most 1,
//! so a long-observed site's `L0` and nodes sink through the subnormal
//! range to exactly zero; once `L0 = L1 = 0`, `Verdict::decide` reads
//! ratio 1.0 and no later evidence moves it
//! (`tests/evidence_fold.rs` pins when a clean stream gets there). The
//! fix, a renormalised grid with a binary exponent per record, changes
//! the snapshot format.
//!
//! Because every stored quantity is a product of per-observation factors,
//! the fold is order-insensitive: the fleet's reports, folded in any
//! order, reach the same state (up to float rounding), and two states
//! over disjoint observation sets combine by pointwise multiplication
//! ([`SiteEvidence::merge`], commutative and associative). An
//! [`EvidenceTable`] holds one [`SiteEvidence`] per site of each error
//! family plus the pad/deferral hints: the whole §5 state of `xt-fleet`'s
//! service, which folds every report into one table. It merges a site
//! only when a restored snapshot names it twice.
//!
//! **Why two classifiers.** The grid is faster per observation but costs
//! `steps + 1` doubles per site where the list costs a few bytes per
//! observation: after `tests/modes.rs`'s twenty Mozilla runs (145
//! site-families, 398 observations) a table fed the same summaries holds
//! 604,504 bytes against the isolator's 11,608, breaking §3.4's
//! per-execution budget that one user's state file exists to keep. The
//! two also keep deferral hints differently. The isolator keeps one
//! `(free site, ticks)` per alloc site, the largest, and patches that
//! pair; the table keys hints by `(alloc, free)` pair and patches every
//! hinted pair of a flagged site, so the same runs can yield more
//! deferrals from the table. So lists stay where state is small and
//! persisted, grids where reports from a fleet fold. Both decide through
//! the one rule, `Verdict::decide`.

use std::collections::BTreeMap;
use std::sync::Arc;

use xt_alloc::{SiteHash, SitePair};
use xt_patch::PatchTable;

use crate::cumulative::{CumulativeConfig, RunSummary, Verdict};

/// Running-product evidence for one allocation site: the §5 hypothesis
/// test in incremental form.
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
/// // The same evidence split across two aggregators and merged.
/// let mut a = SiteEvidence::new(512);
/// let mut b = SiteEvidence::new(512);
/// for i in 0..15 {
///     if i % 2 == 0 { a.observe(0.5, true) } else { b.observe(0.5, true) }
/// }
/// a.merge(&b);
/// let site = SiteHash::from_raw(0xBAD);
/// let (merged, whole) = (a.verdict(site, 250, 4.0), e.verdict(site, 250, 4.0));
/// assert!((merged.ratio - whole.ratio).abs() < 1e-9 * whole.ratio);
/// assert!(merged.flagged && whole.flagged);
/// assert_eq!(a.observations(), 15);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SiteEvidence {
    /// Observations folded in so far.
    obs: usize,
    /// Running `L0` product.
    l0: f64,
    /// Running integrand products at the `steps + 1` Simpson nodes.
    grid: Vec<f64>,
    /// The grid's abscissae, shared with every site of one table.
    nodes: Arc<Nodes>,
}

/// The abscissae of one Simpson grid, `θ_j = j / steps` and `1 − θ_j`,
/// computed once so the fold never divides. Two arrays rather than one of
/// pairs: the fold's loop vectorises better over them.
#[derive(Debug, PartialEq)]
struct Nodes {
    /// `1 − θ_j`.
    rest: Box<[f64]>,
    /// `θ_j`.
    theta: Box<[f64]>,
}

impl Nodes {
    /// The table for `steps` intervals (already even, `>= 2`), from the
    /// very expressions the per-node fold evaluated.
    fn for_steps(steps: usize) -> Arc<Nodes> {
        let theta: Box<[f64]> = (0..=steps).map(|j| j as f64 / steps as f64).collect();
        let rest = theta.iter().map(|t| 1.0 - t).collect();
        Arc::new(Nodes { rest, theta })
    }
}

/// `steps` forced even, minimum 2 — the convention of
/// [`likelihood_h1`](crate::cumulative::likelihood_h1).
fn even_steps(steps: usize) -> usize {
    steps.max(2) & !1
}

impl SiteEvidence {
    /// Creates empty evidence integrating over `steps` Simpson intervals
    /// (forced even, minimum 2 — same convention as
    /// [`likelihood_h1`](crate::cumulative::likelihood_h1)).
    #[must_use]
    pub fn new(steps: usize) -> Self {
        SiteEvidence::on(Nodes::for_steps(even_steps(steps)))
    }

    /// Empty evidence over an existing node table.
    fn on(nodes: Arc<Nodes>) -> Self {
        SiteEvidence {
            obs: 0,
            l0: 1.0,
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

    /// Folds one `(X, Y)` observation in: one multiply for `L0`, then per
    /// Simpson node a multiply and an add for the factor
    /// `q = (1 − θ)·X + θ` (or `1 − q` when `Y` is false) and one multiply
    /// into the grid. `1 − θ` and `θ` come from the shared node table (see
    /// the module docs for why the bits equal the per-node division's).
    pub fn observe(&mut self, x: f64, y: bool) {
        self.obs += 1;
        let nodes = self.nodes.rest.iter().zip(self.nodes.theta.iter());
        let factors = self.grid.iter_mut().zip(nodes);
        if y {
            self.l0 *= x;
            for (g, (&rest, &theta)) in factors {
                *g *= rest * x + theta;
            }
        } else {
            self.l0 *= 1.0 - x;
            for (g, (&rest, &theta)) in factors {
                *g *= 1.0 - (rest * x + theta);
            }
        }
    }

    /// Combines evidence accumulated over a *disjoint* set of observations
    /// (pointwise product). Commutative and associative, so states can be
    /// combined in any order.
    ///
    /// # Panics
    ///
    /// Panics if the two sides integrate over different Simpson grids —
    /// states are only combinable under one configuration.
    pub fn merge(&mut self, other: &SiteEvidence) {
        assert_eq!(
            self.grid.len(),
            other.grid.len(),
            "cannot merge evidence with different integration grids"
        );
        self.obs += other.obs;
        self.l0 *= other.l0;
        for (g, o) in self.grid.iter_mut().zip(&other.grid) {
            *g *= o;
        }
    }

    /// Likelihood of the observations under `H0: θ = 0`.
    #[must_use]
    pub fn l0(&self) -> f64 {
        self.l0
    }

    /// Likelihood under `H1: θ > 0`: Simpson combination of the running
    /// node products.
    #[must_use]
    pub fn l1(&self) -> f64 {
        let n = self.grid.len() - 1;
        let h = 1.0 / n as f64;
        let mut sum = self.grid[0] + self.grid[n];
        for (j, &g) in self.grid.iter().enumerate().take(n).skip(1) {
            sum += if j % 2 == 1 { 4.0 * g } else { 2.0 * g };
        }
        sum * h / 3.0
    }

    /// The raw running-product state: `(observations, L0, grid)`. The
    /// floats are the state — a durability layer that snapshots these
    /// exact bit patterns and restores them with
    /// [`SiteEvidence::from_raw_parts`] reproduces classification
    /// byte-identically, with no re-derivation and no rounding drift.
    #[must_use]
    pub fn raw_parts(&self) -> (usize, f64, &[f64]) {
        (self.obs, self.l0, &self.grid)
    }

    /// Rebuilds evidence from state captured by
    /// [`SiteEvidence::raw_parts`].
    ///
    /// # Panics
    ///
    /// Panics if `grid` is not a valid Simpson node vector (`steps + 1`
    /// entries for an even `steps >= 2`) — restoring a malformed grid
    /// would silently corrupt every later merge.
    #[must_use]
    pub fn from_raw_parts(obs: usize, l0: f64, grid: Vec<f64>) -> Self {
        assert!(
            grid.len() >= 3 && grid.len() % 2 == 1,
            "grid of {} nodes is not steps + 1 for an even steps >= 2",
            grid.len()
        );
        let nodes = Nodes::for_steps(grid.len() - 1);
        SiteEvidence {
            obs,
            l0,
            grid,
            nodes,
        }
    }

    /// The §5.1 decision for this site under prior constant `prior_c` and
    /// site population `n_sites` — the rule
    /// [`classify`](crate::cumulative::classify) applies to a list.
    #[must_use]
    pub fn verdict(&self, site: SiteHash, n_sites: usize, prior_c: f64) -> Verdict {
        Verdict::decide(site, (self.l0(), self.l1()), self.obs, n_sites, prior_c)
    }
}

/// An aggregate of cumulative-mode evidence: per-site [`SiteEvidence`]
/// for both error families, pad/deferral hints, and run counters. The
/// order-insensitive equivalent of
/// [`CumulativeIsolator`](crate::cumulative::CumulativeIsolator), and the
/// state the `xt-fleet` service keeps.
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

    /// Sites with evidence in either family.
    #[must_use]
    pub fn sites_tracked(&self) -> usize {
        let mut sites: std::collections::BTreeSet<SiteHash> =
            self.overflow.keys().copied().collect();
        sites.extend(self.dangling.keys().copied());
        sites.len()
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

    /// Installs restored overflow evidence for `site`, merging if evidence
    /// for the site already exists (so restore-into-fresh is exact and
    /// restore-into-existing keeps CRDT semantics). A newly installed site
    /// folds over this table's shared node table.
    ///
    /// # Panics
    ///
    /// Panics if `evidence` integrates over a different grid than this
    /// table's configuration.
    pub fn insert_overflow_evidence(&mut self, site: SiteHash, evidence: SiteEvidence) {
        assert_eq!(
            evidence.steps(),
            even_steps(self.config.integration_steps),
            "restored evidence grid does not match the table configuration"
        );
        match self.overflow.entry(site) {
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(SiteEvidence {
                    nodes: Arc::clone(&self.nodes),
                    ..evidence
                });
            }
            std::collections::btree_map::Entry::Occupied(mut o) => o.get_mut().merge(&evidence),
        }
    }

    /// Installs restored dangling evidence for `site` (see
    /// [`EvidenceTable::insert_overflow_evidence`]).
    ///
    /// # Panics
    ///
    /// Panics if `evidence` integrates over a different grid than this
    /// table's configuration.
    pub fn insert_dangling_evidence(&mut self, site: SiteHash, evidence: SiteEvidence) {
        assert_eq!(
            evidence.steps(),
            even_steps(self.config.integration_steps),
            "restored evidence grid does not match the table configuration"
        );
        match self.dangling.entry(site) {
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(SiteEvidence {
                    nodes: Arc::clone(&self.nodes),
                    ..evidence
                });
            }
            std::collections::btree_map::Entry::Occupied(mut o) => o.get_mut().merge(&evidence),
        }
    }

    /// Verdicts for all sites with overflow evidence, using `n_sites` as
    /// the population.
    fn overflow_verdicts_with(&self, n_sites: usize) -> Vec<Verdict> {
        self.overflow
            .iter()
            .map(|(&site, e)| e.verdict(site, n_sites, self.config.prior_c))
            .collect()
    }

    /// Verdicts for all sites with dangling evidence.
    fn dangling_verdicts_with(&self, n_sites: usize) -> Vec<Verdict> {
        self.dangling
            .iter()
            .map(|(&site, e)| e.verdict(site, n_sites, self.config.prior_c))
            .collect()
    }

    /// Verdicts under this table's own recorded site population.
    #[must_use]
    pub fn overflow_verdicts(&self) -> Vec<Verdict> {
        self.overflow_verdicts_with(self.n_sites)
    }

    /// Verdicts under this table's own recorded site population.
    #[must_use]
    pub fn dangling_verdicts(&self) -> Vec<Verdict> {
        self.dangling_verdicts_with(self.n_sites)
    }

    /// Patches for every flagged site with a matching hint, under site
    /// population `n_sites`. Deferral patches are emitted for every hinted
    /// `(alloc, free)` pair of a flagged alloc site.
    #[must_use]
    pub fn generate_patches_with(&self, n_sites: usize) -> PatchTable {
        let mut patches = PatchTable::new();
        for v in self.overflow_verdicts_with(n_sites) {
            if !v.flagged {
                continue;
            }
            if let Some(&pad) = self.pad_hints.get(&v.site) {
                patches.add_pad(v.site, pad);
            }
        }
        for v in self.dangling_verdicts_with(n_sites) {
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

    /// Patches under this table's own recorded site population.
    #[must_use]
    pub fn generate_patches(&self) -> PatchTable {
        self.generate_patches_with(self.n_sites)
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
    use crate::cumulative::{classify, CumulativeIsolator, SiteObservation};

    const BUGGY: SiteHash = SiteHash::from_raw(0xB06);
    const CLEAN: SiteHash = SiteHash::from_raw(0xC1EA);

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
    }

    #[test]
    fn incremental_matches_batch_classifier() {
        // The same observation multiset, batch vs running-product.
        let obs: Vec<(f64, bool)> = (0..25)
            .map(|i| (0.1 + 0.8 * (i as f64 / 25.0), i % 3 != 0))
            .collect();
        let config = CumulativeConfig::default();
        let batch = classify(BUGGY, &obs, 250, &config);
        let mut e = SiteEvidence::new(config.integration_steps);
        for &(x, y) in &obs {
            e.observe(x, y);
        }
        let inc = e.verdict(BUGGY, 250, config.prior_c);
        assert!(close(batch.l0, inc.l0), "{} vs {}", batch.l0, inc.l0);
        assert!(close(batch.l1, inc.l1), "{} vs {}", batch.l1, inc.l1);
        assert_eq!(batch.flagged, inc.flagged);
        assert_eq!(batch.observations, inc.observations);
    }

    #[test]
    fn merge_is_commutative_and_order_insensitive() {
        let obs: Vec<(f64, bool)> = (0..30).map(|i| (0.3, i % 4 == 0)).collect();
        let mut whole = SiteEvidence::new(64);
        for &(x, y) in &obs {
            whole.observe(x, y);
        }
        // Split 3 ways, merge in a different order.
        let mut parts = [
            SiteEvidence::new(64),
            SiteEvidence::new(64),
            SiteEvidence::new(64),
        ];
        for (i, &(x, y)) in obs.iter().enumerate() {
            parts[i % 3].observe(x, y);
        }
        let mut ba = parts[2].clone();
        ba.merge(&parts[0]);
        ba.merge(&parts[1]);
        assert_eq!(ba.observations(), whole.observations());
        assert!(close(ba.l0(), whole.l0()));
        assert!(close(ba.l1(), whole.l1()));
    }

    #[test]
    #[should_panic(expected = "different integration grids")]
    fn merge_rejects_mismatched_grids() {
        let mut a = SiteEvidence::new(64);
        a.merge(&SiteEvidence::new(128));
    }

    #[test]
    fn table_matches_batch_isolator_end_to_end() {
        // Feed identical run streams to the batch isolator and the
        // running-product table; verdicts and generated patches must agree.
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
        let bv = batch.overflow_verdicts();
        let tv = table.overflow_verdicts();
        assert_eq!(bv.len(), tv.len());
        for (b, t) in bv.iter().zip(&tv) {
            assert_eq!(b.site, t.site);
            assert_eq!(b.flagged, t.flagged);
            assert!(close(b.ratio, t.ratio), "{} vs {}", b.ratio, t.ratio);
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
        let (obs, l0, grid) = e.raw_parts();
        let back = SiteEvidence::from_raw_parts(obs, l0, grid.to_vec());
        assert_eq!(back, e);
        assert_eq!(back.l0().to_bits(), e.l0().to_bits());
        assert_eq!(back.l1().to_bits(), e.l1().to_bits());

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
            let (obs, l0, grid) = e.raw_parts();
            restored.insert_overflow_evidence(
                site,
                SiteEvidence::from_raw_parts(obs, l0, grid.to_vec()),
            );
        }
        for (site, e) in table.dangling_evidence() {
            let (obs, l0, grid) = e.raw_parts();
            restored.insert_dangling_evidence(
                site,
                SiteEvidence::from_raw_parts(obs, l0, grid.to_vec()),
            );
        }
        for (site, pad) in table.pad_hint_entries() {
            restored.hint_pad(site, pad);
        }
        for (pair, ticks) in table.defer_hint_entries() {
            restored.hint_deferral(pair, ticks);
        }
        // Evidence, hints, and therefore verdicts and patches all match
        // bit-for-bit (run counters are service-level state, not table
        // state, in the fleet's usage).
        assert_eq!(restored.generate_patches(), table.generate_patches());
        let a = restored.dangling_verdicts_with(64);
        let b = table.dangling_verdicts_with(64);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.site, y.site);
            assert_eq!(x.ratio.to_bits(), y.ratio.to_bits(), "ratio drifted");
        }
    }

    #[test]
    #[should_panic(expected = "not steps + 1")]
    fn from_raw_parts_rejects_malformed_grids() {
        let _ = SiteEvidence::from_raw_parts(1, 0.5, vec![1.0; 4]);
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
