//! Cumulative-mode error isolation (paper §5).
//!
//! Cumulative mode drops every assumption the iterative/replicated modes
//! need: runs may be nondeterministic, inputs may differ, and object ids
//! need not match. Instead of heap images, each run is reduced to a
//! [`RunSummary`] of per-allocation-site statistics ("a few kilobytes per
//! execution, compared to tens or hundreds of megabytes for each heap
//! image"), and a Bayesian hypothesis test accumulated over runs flags the
//! sites that behave like error sources.
//!
//! **Overflows** (§5.1). When a run ends with corrupted canaries, every
//! object of the corrupt miniheap's size class gets a probability of
//! satisfying the culprit criteria (same miniheap, lower address):
//!
//! ```text
//! P(C_i) = size'(i, Mc) / Σ_j size'(i, M_j)  ×  k / size(Mc)
//! ```
//!
//! where `size'` zeroes miniheaps that did not exist when object `i` was
//! allocated, and `k` is the corrupted slot index. Per site `A`,
//! `X = P(C_A) = 1 − Π_i (1 − P(C_i))` and `Y = C_A` is whether some object
//! from `A` actually satisfied the criteria.
//!
//! **Dangling pointers** (§5.2). DieFast canaries freed objects with
//! probability `p`, making each run a Bernoulli trial: per site,
//! `X = 1 − (1−p)^frees` and `Y` is whether any freed object from the site
//! was actually canaried in a *failed* run.
//!
//! **The classifier** compares `H0: θ_A = 0` against `H1: θ_A > 0` with a
//! uniform prior on `θ_A` and prior odds `P(H1) = 1/(cN)`; a site is
//! flagged when the likelihood ratio exceeds `cN − 1`. One integrator,
//! [`SiteEvidence`], evaluates that ratio for both stores: this module's
//! per-site observation lists and [`evidence`](crate::evidence)'s grids.

use std::collections::BTreeMap;

use xt_alloc::{AllocTime, Heap as _, SiteHash};
use xt_diefast::DieFastHeap;
use xt_diehard::{MiniHeapId, ObjectLog};
use xt_image::{scan_live_canary_corruptions, CanaryCorruption, CaptureError, HeapImage};
use xt_patch::PatchTable;

use crate::evidence::SiteEvidence;

/// Tuning parameters for cumulative isolation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CumulativeConfig {
    /// The `c` of the prior `P(H1) = 1/(cN)`; the paper uses 4.
    pub prior_c: f64,
    /// Simpson-rule intervals for the `θ` likelihood integral.
    pub integration_steps: usize,
    /// DieFast's canary fill probability `p` (must match the heaps used).
    pub fill_probability: f64,
}

impl CumulativeConfig {
    /// Checks that the classifier can run under a configuration read from
    /// a state file: an integration grid of `2..=65_536` intervals, a
    /// finite positive prior constant, and a fill probability in `(0, 1]`.
    /// Names the first parameter out of range.
    fn validate(&self) -> Result<(), String> {
        if !(2..=65_536).contains(&self.integration_steps) {
            return Err(format!(
                "integration steps {} outside 2..=65536",
                self.integration_steps
            ));
        }
        if !(self.prior_c.is_finite() && self.prior_c > 0.0) {
            return Err(format!(
                "prior constant {} is not finite and positive",
                self.prior_c
            ));
        }
        if !(self.fill_probability > 0.0 && self.fill_probability <= 1.0) {
            return Err(format!(
                "fill probability {} outside (0, 1]",
                self.fill_probability
            ));
        }
        Ok(())
    }
}

impl Default for CumulativeConfig {
    fn default() -> Self {
        CumulativeConfig {
            prior_c: 4.0,
            integration_steps: 512,
            fill_probability: 0.5,
        }
    }
}

/// One (X, Y) observation for one allocation site in one run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SiteObservation {
    /// The allocation site.
    pub site: SiteHash,
    /// `X`: the probability of the observation arising by chance.
    pub x: f64,
    /// `Y`: whether it was observed.
    pub y: bool,
}

/// Everything retained from one execution — the "relevant statistics about
/// each run" of §3.4.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunSummary {
    /// Whether the run failed (crashed, diverged, or raised a signal).
    pub failed: bool,
    /// Final allocation clock (`T`, the failure time).
    pub clock: AllocTime,
    /// Distinct allocation sites observed (`N` for the prior).
    pub n_sites: usize,
    /// Per-site overflow-criteria observations (§5.1); empty when the run
    /// ended without canary corruption.
    pub overflow_obs: Vec<SiteObservation>,
    /// Per-site canary observations (§5.2); empty for successful runs.
    pub dangling_obs: Vec<SiteObservation>,
    /// Per-site pad hints from this run's corruption: the pad that would
    /// have contained the corruption had this site been the culprit.
    pub pad_hints: Vec<(SiteHash, u32)>,
    /// Per-site deferral hints: `(alloc site, free site, 2 × (T − τ_oldest))`.
    pub defer_hints: Vec<(SiteHash, SiteHash, u64)>,
}

/// Builds a [`RunSummary`] from a finished run's final heap image and
/// allocation history.
///
/// `failed` tells the summarizer whether the run counts as a failure
/// (dangling observations are only meaningful for failed runs, §5.2).
///
/// Cumulative mode itself never captures an image: it calls
/// [`summarize_heap`] on the standing heap. This adapter over the same
/// core reads the image's corruptions and geometry instead, for callers
/// that already hold an image (`benchmark/`'s frozen surface, tests).
#[must_use]
pub fn summarize_run(
    image: &HeapImage,
    log: &ObjectLog,
    failed: bool,
    fill_probability: f64,
) -> RunSummary {
    let geometry: Vec<MiniHeapGeometry> = image
        .miniheaps
        .iter()
        .map(|m| MiniHeapGeometry {
            id: m.id,
            base: m.base.get(),
            object_size: u64::from(m.object_size),
            created_at: m.created_at,
            n_slots: m.slots.len(),
        })
        .collect();
    let corruptions = image.scan_canary_corruptions();
    summarize(
        image.clock,
        &corruptions,
        &geometry,
        log,
        failed,
        fill_probability,
    )
}

/// [`summarize_run`] of a heap that is still standing: the same summary
/// the image [`HeapImage::try_capture`] would take of `heap` yields, read
/// without taking it — canary corruptions are scanned in place
/// ([`scan_live_canary_corruptions`]) and `log` is borrowed, not cloned.
///
/// # Errors
///
/// Returns a [`CaptureError`] if the heap's metadata names memory its
/// arena does not back (what capture would have reported).
pub fn summarize_heap(
    heap: &DieFastHeap,
    log: &ObjectLog,
    failed: bool,
    fill_probability: f64,
) -> Result<RunSummary, CaptureError> {
    let corruptions = scan_live_canary_corruptions(heap)?;
    let geometry: Vec<MiniHeapGeometry> = heap
        .inner()
        .miniheaps()
        .map(|m| MiniHeapGeometry {
            id: m.id(),
            base: m.base().get(),
            object_size: m.object_size() as u64,
            created_at: m.created_at(),
            n_slots: m.n_slots(),
        })
        .collect();
    Ok(summarize(
        heap.clock(),
        &corruptions,
        &geometry,
        log,
        failed,
        fill_probability,
    ))
}

/// What §5 reads of one miniheap: its identity, where its slots start,
/// their size and count, and when it was created (`τ(M_j)`).
struct MiniHeapGeometry {
    id: MiniHeapId,
    base: u64,
    object_size: u64,
    created_at: AllocTime,
    n_slots: usize,
}

/// The summary core both entry points share: the run's canary
/// corruptions (their `slot.miniheap` indexing `miniheaps`), the heap's
/// miniheap geometry, and its allocation history.
fn summarize(
    clock: AllocTime,
    corruptions: &[CanaryCorruption],
    miniheaps: &[MiniHeapGeometry],
    log: &ObjectLog,
    failed: bool,
    fill_probability: f64,
) -> RunSummary {
    let mut summary = RunSummary {
        failed,
        clock,
        n_sites: log.distinct_alloc_sites().len(),
        ..RunSummary::default()
    };
    summarize_overflow(corruptions, miniheaps, log, &mut summary);
    if failed {
        summarize_dangling(log, clock, fill_probability, &mut summary);
    }
    summary
}

/// Geometry of the principal corruption: the corrupt miniheap, the slot
/// index of the first corrupted byte, and the corruption's address range.
struct CorruptionGeometry {
    miniheap: MiniHeapId,
    corrupt_slot: usize,
    n_slots: usize,
    corr_start: u64,
    corr_end: u64,
    mh_base: u64,
    object_size: u64,
}

fn principal_corruption(
    corruptions: &[CanaryCorruption],
    miniheaps: &[MiniHeapGeometry],
) -> Option<CorruptionGeometry> {
    // Group by miniheap; take the miniheap with the most corrupt bytes.
    let mut per_mh: BTreeMap<usize, (usize, u64, u64)> = BTreeMap::new();
    for c in corruptions {
        let start = c.addr.get() + c.first_bad as u64;
        let end = c.addr.get() + c.end_bad as u64;
        let entry = per_mh.entry(c.slot.miniheap).or_insert((0, u64::MAX, 0));
        entry.0 += c.n_bad;
        entry.1 = entry.1.min(start);
        entry.2 = entry.2.max(end);
    }
    let (&mh_idx, &(_, corr_start, corr_end)) =
        per_mh.iter().max_by_key(|(_, (bytes, _, _))| *bytes)?;
    let mh = &miniheaps[mh_idx];
    let corrupt_slot = ((corr_start - mh.base) / mh.object_size) as usize;
    Some(CorruptionGeometry {
        miniheap: mh.id,
        corrupt_slot,
        n_slots: mh.n_slots,
        corr_start,
        corr_end,
        mh_base: mh.base,
        object_size: mh.object_size,
    })
}

/// §5.1: per-site culprit-criteria probabilities for the observed
/// corruption.
fn summarize_overflow(
    corruptions: &[CanaryCorruption],
    miniheaps: &[MiniHeapGeometry],
    log: &ObjectLog,
    summary: &mut RunSummary,
) {
    let Some(geo) = principal_corruption(corruptions, miniheaps) else {
        return;
    };
    // Miniheaps of the corrupt size class, with creation times — the
    // denominator of the placement factor.
    let class_heaps: Vec<(MiniHeapId, AllocTime, u64)> = miniheaps
        .iter()
        .filter(|m| m.id.class == geo.miniheap.class)
        .map(|m| (m.id, m.created_at, m.n_slots as u64))
        .collect();
    let mc_size = geo.n_slots as f64;
    let k = geo.corrupt_slot as f64;

    // Probability that at least one object from each site satisfies the
    // criteria, and whether one actually did.
    let mut p_none: BTreeMap<SiteHash, f64> = BTreeMap::new();
    let mut observed: BTreeMap<SiteHash, bool> = BTreeMap::new();
    // Pad hint: nearest object from each site at or below the corruption.
    let mut nearest_below: BTreeMap<SiteHash, (u64, u32)> = BTreeMap::new();

    for rec in log.records() {
        if rec.size_class != geo.miniheap.class {
            continue;
        }
        // Placement factor: Σ size(M_j) over miniheaps existing at τ(i).
        let denom: f64 = class_heaps
            .iter()
            .filter(|(_, created, _)| *created <= rec.alloc_time)
            .map(|(_, _, size)| *size as f64)
            .sum();
        let mc_available = class_heaps
            .iter()
            .any(|(id, created, _)| *id == geo.miniheap && *created <= rec.alloc_time);
        let p_ci = if denom > 0.0 && mc_available {
            (mc_size / denom) * (k / mc_size)
        } else {
            0.0
        };
        let entry = p_none.entry(rec.alloc_site).or_insert(1.0);
        *entry *= 1.0 - p_ci;
        let obs = observed.entry(rec.alloc_site).or_insert(false);
        if rec.miniheap == geo.miniheap {
            let slot_addr = geo.mh_base + u64::from(rec.slot) * geo.object_size;
            if slot_addr < geo.corr_start {
                *obs = true;
                let dist_pad = geo
                    .corr_end
                    .saturating_sub(slot_addr)
                    .saturating_sub(u64::from(rec.requested));
                let hint = u32::try_from(dist_pad).unwrap_or(u32::MAX);
                let e = nearest_below.entry(rec.alloc_site).or_insert((0, 0));
                if slot_addr >= e.0 {
                    *e = (slot_addr, hint);
                }
            }
        }
    }

    for (site, p_no) in p_none {
        summary.overflow_obs.push(SiteObservation {
            site,
            x: 1.0 - p_no,
            y: observed.get(&site).copied().unwrap_or(false),
        });
    }
    summary.pad_hints = nearest_below
        .into_iter()
        .filter(|(_, (_, pad))| *pad > 0)
        .map(|(site, (_, pad))| (site, pad))
        .collect();
}

/// §5.2: per-site canary Bernoulli observations for a failed run.
fn summarize_dangling(log: &ObjectLog, fail_clock: AllocTime, p: f64, summary: &mut RunSummary) {
    struct SiteAcc {
        frees: u32,
        canaried: u32,
        oldest: Option<(AllocTime, SiteHash)>,
    }
    let mut per_site: BTreeMap<SiteHash, SiteAcc> = BTreeMap::new();
    for rec in log.records() {
        let Some(free) = rec.free else { continue };
        let acc = per_site.entry(rec.alloc_site).or_insert(SiteAcc {
            frees: 0,
            canaried: 0,
            oldest: None,
        });
        acc.frees += 1;
        if free.canaried {
            acc.canaried += 1;
            let older = acc.oldest.is_none_or(|(t, _)| free.free_time < t);
            if older {
                acc.oldest = Some((free.free_time, free.free_site));
            }
        }
    }
    for (site, acc) in per_site {
        summary.dangling_obs.push(SiteObservation {
            site,
            x: 1.0 - (1.0 - p).powi(acc.frees as i32),
            y: acc.canaried > 0,
        });
        if let Some((free_time, free_site)) = acc.oldest {
            let deferral = (2 * fail_clock.since(free_time)).max(1);
            summary.defer_hints.push((site, free_site, deferral));
        }
    }
}

/// The outcome of the hypothesis test for one site.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Verdict {
    /// The allocation site under test.
    pub site: SiteHash,
    /// The likelihood ratio `L1/L0` of `H1: θ > 0` (uniform prior,
    /// integrated out) against `H0: θ = 0`; never NaN, at least `h/3`.
    pub ratio: f64,
    /// Whether the ratio exceeds the decision threshold `cN − 1`.
    pub flagged: bool,
    /// Number of observations accumulated.
    pub observations: usize,
}

impl Verdict {
    /// The §5.1 decision rule, once for every store: the likelihood
    /// `ratio` against the threshold `c·N − 1` (at least 1), for a site
    /// with `observations` behind it.
    #[must_use]
    pub(crate) fn decide(
        site: SiteHash,
        ratio: f64,
        observations: usize,
        n_sites: usize,
        prior_c: f64,
    ) -> Self {
        let threshold = (prior_c * n_sites.max(1) as f64 - 1.0).max(1.0);
        Verdict {
            site,
            ratio,
            flagged: ratio > threshold,
            observations,
        }
    }
}

/// One site's evidence in one family: its observation list (the state
/// [`CumulativeIsolator::to_text`] persists) and that list's likelihood
/// ratio, re-evaluated only when the list grows.
#[derive(Clone, Debug, Default)]
struct SiteRecord {
    obs: Vec<(f64, bool)>,
    ratio: f64,
}

impl SiteRecord {
    /// Re-evaluates the ratio by folding the list into a copy of `blank`.
    fn evaluate(&mut self, blank: &SiteEvidence) {
        let mut evidence = blank.clone();
        for &(x, y) in &self.obs {
            evidence.observe(x, y);
        }
        self.ratio = evidence.ratio();
    }
}

/// Per-site records of one error family, in site order.
type Family = BTreeMap<SiteHash, SiteRecord>;

/// Accumulates run summaries and produces verdicts and patches.
///
/// Each site keeps its observation list together with that list's
/// likelihood ratio. [`CumulativeIsolator::record_run`] re-evaluates only
/// the sites the run observed, by folding each one's list into a
/// [`SiteEvidence`], so a verdict query is a threshold decision per site,
/// not an integral, and its ratio is the bits an
/// [`EvidenceTable`](crate::evidence::EvidenceTable) fed the same
/// observations holds.
///
/// # Example
///
/// ```
/// use xt_alloc::SiteHash;
/// use xt_isolate::cumulative::{CumulativeConfig, CumulativeIsolator, RunSummary, SiteObservation};
///
/// let mut iso = CumulativeIsolator::new(CumulativeConfig::default());
/// // Feed synthetic failed runs where the site was always canaried
/// // despite a 50% fill probability — the dangling signature.
/// for _ in 0..20 {
///     let mut run = RunSummary { failed: true, n_sites: 10, ..RunSummary::default() };
///     run.dangling_obs.push(SiteObservation {
///         site: SiteHash::from_raw(0xBAD),
///         x: 0.5,
///         y: true,
///     });
///     run.defer_hints.push((SiteHash::from_raw(0xBAD), SiteHash::from_raw(0xF), 42));
///     iso.record_run(&run);
/// }
/// let flagged = iso.dangling_verdicts();
/// assert!(flagged.iter().any(|v| v.site == SiteHash::from_raw(0xBAD) && v.flagged));
/// ```
#[derive(Clone, Debug)]
pub struct CumulativeIsolator {
    config: CumulativeConfig,
    /// Empty evidence on `config`'s grid: the integrator each touched
    /// site's list is folded into.
    blank: SiteEvidence,
    overflow: Family,
    dangling: Family,
    pad_hints: BTreeMap<SiteHash, u32>,
    defer_hints: BTreeMap<SiteHash, (SiteHash, u64)>,
    n_sites: usize,
    runs: usize,
    failures: usize,
}

impl CumulativeIsolator {
    /// Creates an empty isolator.
    #[must_use]
    pub fn new(config: CumulativeConfig) -> Self {
        CumulativeIsolator {
            config,
            blank: SiteEvidence::new(config.integration_steps),
            overflow: Family::new(),
            dangling: Family::new(),
            pad_hints: BTreeMap::new(),
            defer_hints: BTreeMap::new(),
            n_sites: 1,
            runs: 0,
            failures: 0,
        }
    }

    /// The isolator's configuration.
    #[must_use]
    pub fn config(&self) -> &CumulativeConfig {
        &self.config
    }

    /// Total runs recorded.
    #[must_use]
    pub fn runs(&self) -> usize {
        self.runs
    }

    /// Failed runs recorded.
    #[must_use]
    pub fn failures(&self) -> usize {
        self.failures
    }

    /// Folds one run's summary into the accumulated state, re-evaluating
    /// the ratios of the sites it observed (and no others).
    pub fn record_run(&mut self, summary: &RunSummary) {
        self.runs += 1;
        if summary.failed {
            self.failures += 1;
        }
        self.n_sites = self.n_sites.max(summary.n_sites);
        fold(&mut self.overflow, &summary.overflow_obs, &self.blank);
        fold(&mut self.dangling, &summary.dangling_obs, &self.blank);
        for &(site, pad) in &summary.pad_hints {
            let e = self.pad_hints.entry(site).or_insert(0);
            *e = (*e).max(pad);
        }
        for &(site, free_site, ticks) in &summary.defer_hints {
            let e = self.defer_hints.entry(site).or_insert((free_site, 0));
            if ticks > e.1 {
                *e = (free_site, ticks);
            }
        }
    }

    /// Verdicts for every site of `family` under the current site
    /// population.
    fn verdicts(&self, family: &Family) -> Vec<Verdict> {
        family
            .iter()
            .map(|(&site, record)| {
                Verdict::decide(
                    site,
                    record.ratio,
                    record.obs.len(),
                    self.n_sites,
                    self.config.prior_c,
                )
            })
            .collect()
    }

    /// Hypothesis-test verdicts for all sites with overflow observations.
    #[must_use]
    pub fn overflow_verdicts(&self) -> Vec<Verdict> {
        self.verdicts(&self.overflow)
    }

    /// Hypothesis-test verdicts for all sites with dangling observations.
    #[must_use]
    pub fn dangling_verdicts(&self) -> Vec<Verdict> {
        self.verdicts(&self.dangling)
    }

    /// Generates runtime patches for every flagged site, using the pad and
    /// deferral hints gathered from failing runs.
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
            if let Some(&(free_site, ticks)) = self.defer_hints.get(&v.site) {
                patches.add_deferral(xt_alloc::SitePair::new(v.site, free_site), ticks);
            }
        }
        patches
    }

    /// Serializes the accumulated state to a text format, so it can be
    /// carried between executions alongside the patch file — §3.4:
    /// "Exterminator computes relevant statistics about each run and
    /// stores them in its patch file." The ratios are not written: they
    /// are a function of the lists.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::from("# exterminator cumulative state v1\n");
        out.push_str(&format!(
            "meta {} {} {} {} {} {}\n",
            self.runs,
            self.failures,
            self.n_sites,
            self.config.prior_c,
            self.config.integration_steps,
            self.config.fill_probability,
        ));
        let dump = |out: &mut String, tag: &str, family: &Family| {
            for (site, record) in family {
                for &(x, y) in &record.obs {
                    out.push_str(&format!(
                        "{tag} {:08x} {:016x} {}\n",
                        site.raw(),
                        x.to_bits(),
                        u8::from(y)
                    ));
                }
            }
        };
        dump(&mut out, "oobs", &self.overflow);
        dump(&mut out, "dobs", &self.dangling);
        for (site, pad) in &self.pad_hints {
            out.push_str(&format!("padhint {:08x} {pad}\n", site.raw()));
        }
        for (site, (free_site, ticks)) in &self.defer_hints {
            out.push_str(&format!(
                "deferhint {:08x} {:08x} {ticks}\n",
                site.raw(),
                free_site.raw()
            ));
        }
        out
    }

    /// Restores accumulated state written by [`CumulativeIsolator::to_text`]
    /// and evaluates every site once.
    ///
    /// The text is untrusted (it is a file on disk): an integration grid
    /// outside `2..=65_536` intervals, a prior constant that is not finite
    /// and positive, a fill probability outside `(0, 1]`, or an `X` that
    /// is not a probability is an error like any malformed line — never a
    /// hang in the integral or a patch minted from a meaningless
    /// threshold.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut iso = CumulativeIsolator::new(CumulativeConfig::default());
        for (lineno, raw_line) in text.lines().enumerate() {
            let line = raw_line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let fail = |what: &str| format!("cumulative state line {}: {what}", lineno + 1);
            let site = |s: &str| {
                u32::from_str_radix(s, 16)
                    .map(SiteHash::from_raw)
                    .map_err(|_| fail("bad site hash"))
            };
            match fields.as_slice() {
                ["meta", runs, failures, n_sites, prior_c, steps, p] => {
                    iso.runs = runs.parse().map_err(|_| fail("bad runs"))?;
                    iso.failures = failures.parse().map_err(|_| fail("bad failures"))?;
                    iso.n_sites = n_sites.parse().map_err(|_| fail("bad n_sites"))?;
                    iso.config = CumulativeConfig {
                        prior_c: prior_c.parse().map_err(|_| fail("bad prior"))?,
                        integration_steps: steps.parse().map_err(|_| fail("bad steps"))?,
                        fill_probability: p.parse().map_err(|_| fail("bad p"))?,
                    };
                    iso.config.validate().map_err(|e| fail(&e))?;
                }
                [tag @ ("oobs" | "dobs"), s, xbits, y] => {
                    let x = f64::from_bits(
                        u64::from_str_radix(xbits, 16).map_err(|_| fail("bad x bits"))?,
                    );
                    if !(0.0..=1.0).contains(&x) {
                        return Err(fail("x is not a probability"));
                    }
                    let y = match *y {
                        "0" => false,
                        "1" => true,
                        _ => return Err(fail("bad y")),
                    };
                    let family = if *tag == "oobs" {
                        &mut iso.overflow
                    } else {
                        &mut iso.dangling
                    };
                    family.entry(site(s)?).or_default().obs.push((x, y));
                }
                ["padhint", s, pad] => {
                    let pad: u32 = pad.parse().map_err(|_| fail("bad pad"))?;
                    let e = iso.pad_hints.entry(site(s)?).or_insert(0);
                    *e = (*e).max(pad);
                }
                ["deferhint", s, f, ticks] => {
                    let ticks: u64 = ticks.parse().map_err(|_| fail("bad ticks"))?;
                    iso.defer_hints.insert(site(s)?, (site(f)?, ticks));
                }
                _ => return Err(fail("unrecognized directive")),
            }
        }
        iso.blank = SiteEvidence::new(iso.config.integration_steps);
        for record in iso.overflow.values_mut().chain(iso.dangling.values_mut()) {
            record.evaluate(&iso.blank);
        }
        Ok(iso)
    }

    /// Approximate retained-state size in bytes — the paper stresses this
    /// is "a few kilobytes per execution" instead of a heap image. Per
    /// site and family: a key, the stored ratio, and the observation
    /// list.
    #[must_use]
    pub fn state_bytes(&self) -> usize {
        let per_obs = std::mem::size_of::<(f64, bool)>();
        let per_site = 8 + std::mem::size_of::<f64>();
        (self.overflow.len() + self.dangling.len()) * per_site
            + self
                .overflow
                .values()
                .chain(self.dangling.values())
                .map(|r| r.obs.len() * per_obs)
                .sum::<usize>()
            + (self.pad_hints.len() + self.defer_hints.len()) * 16
    }
}

/// Appends one run's observations to `family`, then re-evaluates each
/// site they touched — once, however many observations it received.
fn fold(family: &mut Family, observations: &[SiteObservation], blank: &SiteEvidence) {
    let mut touched: Vec<SiteHash> = Vec::with_capacity(observations.len());
    for obs in observations {
        family.entry(obs.site).or_default().obs.push((obs.x, obs.y));
        touched.push(obs.site);
    }
    touched.sort_unstable();
    touched.dedup();
    for site in touched {
        if let Some(record) = family.get_mut(&site) {
            record.evaluate(blank);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xt_alloc::Heap;
    use xt_diefast::{DieFastConfig, DieFastHeap};
    use xt_diehard::SlotState;

    /// Capture cannot fail here: the heap was only ever touched through the
    /// allocator, so every miniheap it records is backed by its own arena.
    fn capture(heap: &DieFastHeap) -> HeapImage {
        HeapImage::try_capture(heap).expect("the allocator mapped every miniheap this heap records")
    }

    const BUGGY: SiteHash = SiteHash::from_raw(0xB06);
    const CLEAN: SiteHash = SiteHash::from_raw(0xC1EA);

    /// The §5.1 verdict of one site's observation list, evaluated by the
    /// integrator both stores use.
    fn verdict_of(site: SiteHash, obs: &[(f64, bool)], n_sites: usize) -> Verdict {
        let config = CumulativeConfig::default();
        let mut evidence = SiteEvidence::new(config.integration_steps);
        for &(x, y) in obs {
            evidence.observe(x, y);
        }
        evidence.verdict(site, n_sites, config.prior_c)
    }

    #[test]
    fn ratio_integral_matches_closed_form() {
        // All-heads with constant x: L1/L0 = ∫ (1 + rθ)^m dθ, r = (1−x)/x,
        // has closed form ((1 + r)^{m+1} − 1) / ((m+1)·r).
        let m = 10;
        let x: f64 = 0.5;
        let r = (1.0 - x) / x;
        let obs: Vec<(f64, bool)> = (0..m).map(|_| (x, true)).collect();
        let closed = ((1.0 + r).powi(m + 1) - 1.0) / ((m as f64 + 1.0) * r);
        let simpson = verdict_of(BUGGY, &obs, 250).ratio;
        assert!(
            (simpson - closed).abs() < 1e-9 * closed,
            "simpson {simpson} vs closed {closed}"
        );
    }

    #[test]
    fn classifier_flags_persistent_correlation() {
        // Fifteen failures, always canaried at p = 1/2 — the paper's
        // espresso scenario (§7.2).
        let obs: Vec<(f64, bool)> = (0..15).map(|_| (0.5, true)).collect();
        let v = verdict_of(BUGGY, &obs, 250);
        assert!(
            v.flagged,
            "15 correlated failures must cross the cN−1 = 999 threshold, ratio {}",
            v.ratio
        );
        // But too few observations must not be flagged at that N.
        let few: Vec<(f64, bool)> = (0..5).map(|_| (0.5, true)).collect();
        assert!(!verdict_of(BUGGY, &few, 250).flagged);
    }

    #[test]
    fn classifier_spares_chance_level_sites() {
        // A site canaried about half the time, as chance predicts.
        let obs: Vec<(f64, bool)> = (0..40).map(|i| (0.5, i % 2 == 0)).collect();
        let v = verdict_of(CLEAN, &obs, 250);
        assert!(!v.flagged, "chance-level site flagged, ratio {}", v.ratio);
        assert!(v.ratio < 10.0);
    }

    #[test]
    fn classifier_spares_always_canaried_busy_sites() {
        // A site that frees hundreds of objects: X ≈ 1 and Y = 1 — no
        // information, no flag.
        let obs: Vec<(f64, bool)> = (0..30).map(|_| (0.999, true)).collect();
        let v = verdict_of(CLEAN, &obs, 250);
        assert!(!v.flagged, "uninformative site flagged, ratio {}", v.ratio);
    }

    #[test]
    fn summary_computes_placement_probabilities() {
        // Single miniheap in the class ⇒ placement factor 1, so
        // X(site) = 1 − Π (1 − k/size).
        let mut h = DieFastHeap::new(DieFastConfig::cumulative_with_seed(9));
        let mut ptrs = Vec::new();
        for i in 0..12u64 {
            let site = if i == 5 { BUGGY } else { CLEAN };
            ptrs.push(h.malloc(16, site).unwrap());
        }
        // Free one object and corrupt its canary (if it got one).
        let victim = ptrs[7];
        h.free(victim, SiteHash::from_raw(1));
        let loc = h.inner().location_of(victim).unwrap();
        if h.inner().meta(loc).state != SlotState::Canaried {
            // With p = 1/2 the slot may not be canaried under this seed;
            // the test requires it, so re-run deterministically.
            // (Seed 9 canaries this free; guard anyway.)
            return;
        }
        h.arena_mut().write_u32(victim, 0x0BAD_0B0E).unwrap();
        let image = capture(&h);
        let log = h.inner().history().unwrap();
        let summary = summarize_run(&image, log, true, 0.5);
        assert!(
            !summary.overflow_obs.is_empty(),
            "corruption not summarized"
        );
        let mh = &image.miniheaps[0];
        let k = (victim - mh.base) / u64::from(mh.object_size);
        let n = mh.slots.len() as f64;
        let p_single = k as f64 / n;
        let buggy_obs = summary
            .overflow_obs
            .iter()
            .find(|o| o.site == BUGGY)
            .unwrap();
        assert!(
            (buggy_obs.x - p_single).abs() < 1e-9,
            "one-object site: X = k/size, got {} want {}",
            buggy_obs.x,
            p_single
        );
        let clean_obs = summary
            .overflow_obs
            .iter()
            .find(|o| o.site == CLEAN)
            .unwrap();
        let expect_clean = 1.0 - (1.0 - p_single).powi(11);
        assert!(
            (clean_obs.x - expect_clean).abs() < 1e-9,
            "eleven-object site: X = 1−(1−k/size)^11"
        );
        assert_eq!(summary.n_sites, 2);
    }

    #[test]
    fn dangling_summary_counts_canaries() {
        let mut h = DieFastHeap::new(DieFastConfig::cumulative_with_seed(3));
        let mut frees = 0;
        for i in 0..40u64 {
            let p = h.malloc(16, BUGGY).unwrap();
            if i % 2 == 0 {
                h.free(p, SiteHash::from_raw(0xF));
                frees += 1;
            }
        }
        let image = capture(&h);
        let summary = summarize_run(&image, h.inner().history().unwrap(), true, 0.5);
        let obs = summary
            .dangling_obs
            .iter()
            .find(|o| o.site == BUGGY)
            .unwrap();
        let expected_x = 1.0 - 0.5f64.powi(frees);
        assert!((obs.x - expected_x).abs() < 1e-9);
        assert!(obs.y, "20 frees at p=1/2: some canary is near-certain");
        assert!(!summary.defer_hints.is_empty());
    }

    #[test]
    fn successful_runs_skip_dangling_observations() {
        let mut h = DieFastHeap::new(DieFastConfig::cumulative_with_seed(4));
        let p = h.malloc(16, BUGGY).unwrap();
        h.free(p, SiteHash::from_raw(0xF));
        let image = capture(&h);
        let summary = summarize_run(&image, h.inner().history().unwrap(), false, 0.5);
        assert!(summary.dangling_obs.is_empty());
        assert!(!summary.failed);
    }

    #[test]
    fn isolator_flags_and_patches_dangling_site() {
        let mut iso = CumulativeIsolator::new(CumulativeConfig::default());
        let mut failures_to_flag = None;
        for run in 1..=40 {
            let mut summary = RunSummary {
                failed: true,
                n_sites: 100,
                ..RunSummary::default()
            };
            summary.dangling_obs.push(SiteObservation {
                site: BUGGY,
                x: 0.5,
                y: true,
            });
            summary.dangling_obs.push(SiteObservation {
                site: CLEAN,
                x: 0.5,
                y: run % 2 == 0,
            });
            summary
                .defer_hints
                .push((BUGGY, SiteHash::from_raw(0xF), 30));
            iso.record_run(&summary);
            let flagged = iso
                .dangling_verdicts()
                .iter()
                .any(|v| v.site == BUGGY && v.flagged);
            if flagged && failures_to_flag.is_none() {
                failures_to_flag = Some(run);
            }
        }
        let needed = failures_to_flag.expect("buggy site never flagged");
        assert!(
            (8..=20).contains(&needed),
            "needed {needed} failures at N=100 — paper reports ~15"
        );
        // The clean site is never flagged.
        assert!(
            !iso.dangling_verdicts()
                .iter()
                .any(|v| v.site == CLEAN && v.flagged),
            "false positive on clean site"
        );
        let patches = iso.generate_patches();
        assert_eq!(
            patches.deferral_for(xt_alloc::SitePair::new(BUGGY, SiteHash::from_raw(0xF))),
            30
        );
        assert_eq!(iso.runs(), 40);
        assert_eq!(iso.failures(), 40);
        assert!(iso.state_bytes() < 4096, "state must stay small");
    }

    #[test]
    fn state_round_trips_through_text() {
        let mut iso = CumulativeIsolator::new(CumulativeConfig::default());
        for run in 0..7 {
            let mut summary = RunSummary {
                failed: run % 2 == 0,
                n_sites: 42,
                ..RunSummary::default()
            };
            summary.overflow_obs.push(SiteObservation {
                site: BUGGY,
                x: 0.125 * (run as f64 + 1.0),
                y: run % 2 == 0,
            });
            summary.dangling_obs.push(SiteObservation {
                site: CLEAN,
                x: 0.5,
                y: true,
            });
            summary.pad_hints.push((BUGGY, 20 + run as u32));
            summary
                .defer_hints
                .push((CLEAN, SiteHash::from_raw(0xF), 30 + run as u64));
            iso.record_run(&summary);
        }
        let restored = CumulativeIsolator::from_text(&iso.to_text()).expect("parses");
        assert_eq!(restored.runs(), iso.runs());
        assert_eq!(restored.failures(), iso.failures());
        // Verdicts and patches are identical after the round trip.
        let a: Vec<_> = iso.overflow_verdicts();
        let b: Vec<_> = restored.overflow_verdicts();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.site, y.site);
            assert!((x.ratio - y.ratio).abs() < 1e-12);
            assert_eq!(x.flagged, y.flagged);
        }
        assert_eq!(restored.generate_patches(), iso.generate_patches());
    }

    #[test]
    fn state_parser_rejects_garbage() {
        assert!(CumulativeIsolator::from_text("nonsense line").is_err());
        assert!(CumulativeIsolator::from_text("oobs zz 0 1").is_err());
        assert!(CumulativeIsolator::from_text("meta 1 2").is_err());
        // Comments and blanks are fine.
        assert!(CumulativeIsolator::from_text("# hi\n\n").is_ok());
    }

    #[test]
    fn isolator_flags_overflow_site() {
        let mut iso = CumulativeIsolator::new(CumulativeConfig::default());
        for _ in 0..12 {
            let mut summary = RunSummary {
                failed: true,
                n_sites: 50,
                ..RunSummary::default()
            };
            // The buggy site always satisfies the criteria despite a low
            // chance probability.
            summary.overflow_obs.push(SiteObservation {
                site: BUGGY,
                x: 0.3,
                y: true,
            });
            summary.pad_hints.push((BUGGY, 36));
            iso.record_run(&summary);
        }
        let verdicts = iso.overflow_verdicts();
        let v = verdicts.iter().find(|v| v.site == BUGGY).unwrap();
        assert!(v.flagged, "ratio {} below threshold", v.ratio);
        assert_eq!(iso.generate_patches().pad_for(BUGGY), 36);
    }
}
