//! The paper's claims as one scorecard.
//!
//! Each public function reproduces one claim at fixed seeds — a §7.2 or
//! §7.3 case study, a §6.4 deployment property, a §4 theorem, or an
//! ablation of one of the paper's parameters — and returns a [`Row`]: the
//! paper's number, ours as one canonical string, and whether the paper's
//! relation holds. Our numbers are deterministic, so
//! `tests/paper_claims.rs` pins every `ours` exactly and asserts every
//! status: a fix that moves a row edits the table, and a regression fails.
//! The `paper_report` binary prints it:
//!
//! ```text
//! cargo run -p bench --release --bin paper_report
//! ```
//!
//! Table 1 is not here: `tests/table1_matrix.rs` asserts it directly.

use std::collections::HashSet;
use std::ops::RangeInclusive;

use exterminator::cumulative::{CumulativeMode, CumulativeModeConfig};
use exterminator::iterative::{FailureKind, IterativeConfig, IterativeMode, IterativeOutcome};
use exterminator::runner::{
    execute, find_manifesting_fault, probe_failed, ReusableStack, RunConfig,
};
use xt_alloc::{Addr, Heap, ObjectId, Rng, SiteHash, SitePair};
use xt_baseline::BaselineHeap;
use xt_correct::CorrectingHeap;
use xt_diefast::{DieFastConfig, DieFastHeap};
use xt_diehard::{DieHardConfig, SlotState};
use xt_faults::{FaultKind, FaultSpec, FaultyHeap, INJECTED_FREE_SITE};
use xt_fleet::simulator::{demo_faults, simulate, SimConfig};
use xt_fleet::FleetConfig;
use xt_image::HeapImage;
use xt_isolate::cumulative::CumulativeConfig;
use xt_isolate::theory;
use xt_patch::PatchTable;
use xt_workloads::{
    attack_browsing_session, overflow_requests, EspressoLike, MozillaLike, SquidLike, Workload,
    WorkloadInput,
};

/// Whether our measurement bears out the paper's claim.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// The paper's relation holds as stated, with no slack.
    Holds,
    /// It does not; the text says what we know about why.
    Diverges(&'static str),
}

impl Status {
    fn judge(holds: bool, otherwise: &'static str) -> Status {
        if holds {
            Status::Holds
        } else {
            Status::Diverges(otherwise)
        }
    }
}

/// One line of the scorecard.
#[derive(Clone, Debug)]
pub struct Row {
    /// The paper's section, e.g. `§7.2`.
    pub section: &'static str,
    /// The claim, in a few words.
    pub claim: &'static str,
    /// The paper's number — for the theorems, its bound.
    pub paper: String,
    /// Ours, at fixed seeds.
    pub ours: String,
    /// Whether the paper's relation holds.
    pub status: Status,
}

/// An espresso input of the §7.2 experiments: seed 6 for the overflow
/// ones (the benchmark's `repair` workload too), 21 for the dangling ones
/// and the fleet demonstrations.
fn espresso_input(seed: u64) -> WorkloadInput {
    WorkloadInput::with_seed(seed).intensity(3)
}

const DANGLING: FaultKind = FaultKind::DanglingFree { lag: 12 };

const fn overflow(delta: u32) -> FaultKind {
    FaultKind::BufferOverflow { delta, fill: 0xEE }
}

/// The paper's fault selection (§7.2) over espresso, lazily. For each
/// selector in turn, [`find_manifesting_fault`] draws up to `attempts`
/// triggers among allocations 100..450 and probes each over 4 heaps.
/// Yields each manifesting fault with its selector. Two selectors can draw
/// the same fault, and measuring it twice would count one fault as two, so
/// a fault already drawn is skipped.
fn distinct_faults<'a>(
    input: &'a WorkloadInput,
    kind: impl Fn(u64) -> FaultKind + 'a,
    selectors: impl IntoIterator<Item = u64> + 'a,
    attempts: usize,
) -> impl Iterator<Item = (u64, FaultSpec)> + 'a {
    let mut drawn = Vec::new();
    selectors.into_iter().filter_map(move |sel| {
        let espresso = EspressoLike::new();
        let fault =
            find_manifesting_fault(&espresso, input, kind(sel), 100, 450, attempts, 4, sel)?;
        if drawn.contains(&fault) {
            return None;
        }
        drawn.push(fault);
        Some((sel, fault))
    })
}

/// Verification runs (§6.3): halting runs of `workload` with `base`'s
/// fault, patches and allocator, one per heap seed. Returns how many
/// failed.
fn failing_runs(
    workload: &dyn Workload,
    input: &WorkloadInput,
    base: &RunConfig,
    seeds: impl IntoIterator<Item = u64>,
) -> usize {
    let mut stack = ReusableStack::new();
    let mut failed = |heap_seed| {
        let config = RunConfig {
            heap_seed,
            halt_on_signal: true,
            ..base.clone()
        };
        probe_failed(workload, input, config, &mut stack)
    };
    seeds.into_iter().filter(|&seed| failed(seed)).count()
}

/// A run configuration that injects `fault` (if any) under `patches`.
fn config(fault: Option<FaultSpec>, patches: PatchTable) -> RunConfig {
    RunConfig {
        fault,
        patches,
        ..RunConfig::with_seed(0)
    }
}

/// Iterative repair of `fault` in espresso from `base_seed`.
fn repair(input: &WorkloadInput, fault: FaultSpec, base_seed: u64) -> IterativeOutcome {
    let config = IterativeConfig {
        base_seed,
        ..IterativeConfig::default()
    };
    IterativeMode::new(config).repair(&EspressoLike::new(), input, Some(fault))
}

/// `fault` and the patches that repair it, if iterative repair from
/// `base_seed` fixes it with at least one.
fn patched(
    input: &WorkloadInput,
    fault: FaultSpec,
    base_seed: u64,
) -> Option<(FaultSpec, PatchTable)> {
    let outcome = repair(input, fault, base_seed);
    (outcome.fixed && !outcome.patches.is_empty()).then_some((fault, outcome.patches))
}

/// Formats each item with `cell` and joins the cells with `sep`.
fn join<T>(items: impl IntoIterator<Item = T>, sep: &str, cell: impl FnMut(T) -> String) -> String {
    items.into_iter().map(cell).collect::<Vec<_>>().join(sep)
}

/// §7.2 Squid: iterative mode pads the web cache's 6-byte overflow.
pub fn squid() -> Row {
    let input = WorkloadInput::with_seed(1)
        .payload(overflow_requests(25))
        .intensity(3);
    let mut baseline = BaselineHeap::with_seed(1);
    let completed = SquidLike::new().run(&mut baseline, &input).completed();
    let corrupted = baseline.poisoned();
    let mut mode = IterativeMode::new(IterativeConfig::default());
    let outcome = mode.repair(&SquidLike::new(), &input, None);
    let pads: Vec<u32> = outcome.patches.pads().map(|(_, pad)| pad).collect();
    let patched = config(None, outcome.patches.clone());
    let failures = failing_runs(&SquidLike::new(), &input, &patched, 100..105);
    let (fixed, images) = (outcome.fixed, outcome.images_used);
    Row {
        section: "§7.2",
        claim: "Squid: iterative mode pads the web cache's 6-byte overflow",
        paper: "3 runs, 1 culprit site, a pad of exactly 6 bytes".into(),
        ours: format!(
            "fixed={fixed}, sites {}, pad {}, images {images}, patched failures {failures}/5; \
             baseline completed={completed}, corrupted={corrupted}",
            pads.len(),
            pads.first().copied().unwrap_or(0),
        ),
        status: Status::judge(
            fixed && pads == [6] && images <= 3 && failures == 0 && corrupted,
            "the repair no longer yields one 6-byte pad from 3 images",
        ),
    }
}

/// §7.2 Mozilla: cumulative mode (p = ½) isolates the IDN overflow in both
/// of the paper's scenarios, noisy navigation taking longer.
pub fn mozilla() -> Row {
    let scenarios = [("immediate", 0, 23), ("noisy navigation", 8, 34)].map(
        |(name, benign_pages, paper_runs)| {
            let input = WorkloadInput::with_seed(31).payload(attack_browsing_session(benign_pages));
            let mut mode = CumulativeMode::new(CumulativeModeConfig {
                vary_input_seed: true,
                ..CumulativeModeConfig::default()
            });
            let outcome = mode.run_until_isolated(&MozillaLike::new(), &input, None, 200);
            (name, paper_runs, outcome)
        },
    );
    let ours = join(&scenarios, "; ", |(name, _, o)| {
        let pad = o.patches.pads().map(|(_, pad)| pad).max().unwrap_or(0);
        let flagged = join(&o.flagged, ", ", |v| {
            format!("{} (ratio {:.1}, {} obs)", v.site, v.ratio, v.observations)
        });
        let (isolated, runs, failures) = (o.isolated, o.runs, o.failures);
        format!(
            "{name}: isolated={isolated}, {runs} runs / {failures} failures, pad {pad}, \
             flagged {flagged}"
        )
    });
    let [(_, _, immediate), (_, _, noisy)] = &scenarios;
    Row {
        section: "§7.2",
        claim: "Mozilla: cumulative mode isolates the IDN overflow, noisy navigation taking longer",
        paper: "23 runs (immediate), 34 runs (noisy navigation), no false positives".into(),
        ours,
        status: Status::judge(
            scenarios.iter().all(|(_, paper_runs, o)| {
                o.isolated && o.runs <= *paper_runs && o.flagged.len() == 1
            }) && immediate.flagged[0].site == noisy.flagged[0].site
                && noisy.runs > immediate.runs,
            "the IDN site is no longer the one site flagged within the paper's runs",
        ),
    }
}

/// §7.2 injected overflows: iterative mode repairs 10 distinct 4-, 20- and
/// 36-byte overflows per size from 3 images each.
pub fn injected_overflows() -> Row {
    let input = espresso_input(6);
    let sizes = [4u32, 20, 36].map(|delta| {
        let first = u64::from(delta) * 1000 + 1;
        let faults = distinct_faults(&input, |_| overflow(delta), first..first + 400, 6);
        let repaired: Vec<Option<usize>> = faults
            .take(10)
            .map(|(sel, fault)| {
                let outcome = repair(&input, fault, sel ^ 0xABCD);
                (outcome.fixed && !outcome.rounds.is_empty()).then_some(outcome.images_used)
            })
            .collect();
        let attempted = repaired.len();
        let mut images: Vec<usize> = repaired.into_iter().flatten().collect();
        images.sort_unstable();
        (delta, attempted, images)
    });
    let ours = join(&sizes, "; ", |(delta, attempted, images)| {
        let at = |i: usize| images.get(i).copied().unwrap_or(0);
        let (repaired, last) = (images.len(), images.len().saturating_sub(1));
        format!(
            "{delta} B: {repaired}/{attempted} repaired, median {} images, {}..{}",
            at(repaired / 2),
            at(0),
            at(last),
        )
    });
    Row {
        section: "§7.2",
        claim: "injected overflows: iterative mode repairs 4/20/36-byte overflows from 3 images",
        paper: "30/30 repaired, 3 images in every case".into(),
        ours,
        status: Status::judge(
            sizes.iter().all(|(_, attempted, images)| {
                *attempted == 10 && images.len() == 10 && images.iter().all(|&i| i == 3)
            }),
            "some overflows stay unrepaired and some need up to 11 images; \
             the causes are not yet classified",
        ),
    }
}

/// The 10 distinct dangling faults both dangling rows measure.
fn dangling_faults(input: &WorkloadInput) -> Vec<FaultSpec> {
    let faults = distinct_faults(input, |_| DANGLING, 1..=500, 6);
    faults.take(10).map(|(_, fault)| fault).collect()
}

/// §7.2 injected dangling frees under iterative mode: how many are
/// isolated, how many abort on a canary read, how many cascade.
pub fn injected_dangling_iterative() -> Row {
    let input = espresso_input(21);
    let faults = dangling_faults(&input);
    let (mut isolated, mut read_abort, mut cascade) = (0, 0, 0);
    for (i, &fault) in faults.iter().enumerate() {
        let outcome = repair(&input, fault, 0xDA | (i as u64) << 8);
        let segfaulted = outcome
            .rounds
            .iter()
            .any(|r| r.failure == FailureKind::SegFault);
        if outcome.fixed && outcome.patches.deferrals().count() > 0 {
            isolated += 1;
        } else if segfaulted {
            cascade += 1; // a wild pointer chase through canary values
        } else {
            read_abort += 1; // a canary read → abort: nothing to isolate
        }
    }
    let n = faults.len();
    Row {
        section: "§7.2",
        claim: "injected dangling frees: iterative mode isolates some",
        paper: "isolated 4/10, canary-read aborts 4/10, cascades 2/10".into(),
        ours: format!(
            "isolated {isolated}/{n}, canary-read aborts {read_abort}/{n}, cascades {cascade}/{n}"
        ),
        status: Status::judge(
            isolated >= 4,
            "most faults end in an abort on reading a canary through the stale \
             pointer, which leaves no corruption to isolate",
        ),
    }
}

/// §7.2 injected dangling frees under cumulative mode (p = ½, M = 2, at
/// most 150 runs each).
pub fn injected_dangling_cumulative() -> Row {
    let input = espresso_input(21);
    let faults = dangling_faults(&input);
    let mut runs = Vec::new();
    let per_fault = join(faults.iter().zip(0xCC00..), ", ", |(fault, base_seed)| {
        let mut mode = CumulativeMode::new(CumulativeModeConfig {
            base_seed,
            ..CumulativeModeConfig::default()
        });
        let o = mode.run_until_isolated(&EspressoLike::new(), &input, Some(*fault), 150);
        runs.extend(o.isolated.then_some(o.runs));
        let mark = if o.isolated { '✓' } else { '✗' };
        format!("{} {mark}{}/{}", fault.trigger, o.runs, o.failures)
    });
    runs.sort_unstable();
    let (first, last) = (runs.first().unwrap_or(&0), runs.last().unwrap_or(&0));
    Row {
        section: "§7.2",
        claim: "injected dangling frees: cumulative mode isolates every one",
        paper: "10/10 isolated in 22–34 runs each".into(),
        ours: format!(
            "isolated {}/{} in {first}..{last} runs; runs/failures per trigger: {per_fault}",
            runs.len(),
            faults.len(),
        ),
        status: Status::judge(
            faults.len() == 10 && runs.len() == 10 && runs.iter().all(|&r| r <= 34),
            "on this heap of hundreds of slots a dangled slot is often reused within \
             the run; writes through the stale pointer onto the new occupant are \
             canary-independent, so some faults never develop the canary/failure \
             correlation the classifier tests",
        ),
    }
}

/// §7.3 patch overhead: the space an applied pad or deferral costs, as a
/// share of the heap's footprint.
pub fn patch_overhead() -> Row {
    let input = espresso_input(6);
    let cases = [("36 B pad", overflow(36)), ("deferral", DANGLING)].map(|(label, kind)| {
        let (fault, patches) = distinct_faults(&input, |_| kind, 1..40, 10)
            .find_map(|(sel, fault)| patched(&input, fault, sel ^ 0x0B0E))
            .expect("selectors 1..40 find a repairable fault");
        let diefast = DieFastHeap::new(DieFastConfig::with_seed(99));
        let mut stack = FaultyHeap::new(CorrectingHeap::new(diefast, patches.clone()), Some(fault));
        let completed = EspressoLike::new().run(&mut stack, &input).completed();
        let correcting = stack.into_inner();
        let stats = correcting.stats();
        let footprint = correcting.arena().mapped_bytes();
        let (pad, deferred) = (stats.peak_padded_bytes, stats.peak_deferred_bytes);
        let pct = 100.0 * (pad + deferred) as f64 / footprint as f64;
        let ours = format!(
            "{label}: entries {}, peak pad {pad} B, drag {} B·ticks, peak deferred {deferred} B, \
             footprint {footprint} B ({pct:.3} %)",
            patches.len(),
            stats.total_drag_bytes_ticks,
        );
        (ours, completed && pct < 1.0)
    });
    Row {
        section: "§7.3",
        claim: "patch overhead: a correction costs under 1 % of peak memory",
        paper: "< 1 % of peak memory (36 B pads: 320–2816 B; deferrals: 32–1024 B)".into(),
        ours: join(&cases, "; ", |(ours, _)| ours.clone()),
        status: Status::judge(
            cases.iter().all(|(_, holds)| *holds),
            "a patched run no longer completes within 1 % extra space",
        ),
    }
}

/// §6.4 collaborative correction: 8 users' patch files merge into one
/// small table that corrects every user's bug.
pub fn collaborative() -> Row {
    let input = espresso_input(77);
    let kind = |sel: u64| match sel % 3 {
        0 => DANGLING,
        r => FaultKind::BufferOverflow {
            delta: 4 + r as u32 * 16,
            fill: 0xE0 + sel as u8 % 16,
        },
    };
    let users: Vec<(FaultSpec, PatchTable)> = distinct_faults(&input, kind, 1..=200, 8)
        .filter_map(|(sel, fault)| patched(&input, fault, sel ^ 0xC0DE))
        .take(8)
        .collect();
    let merged = PatchTable::merged(users.iter().map(|(_, p)| p));
    let bytes = merged.to_text().len();
    let contributed = join(&users, ", ", |(fault, p)| {
        let (entries, bytes) = (p.len(), p.to_text().len());
        format!(
            "{:?} @ {} → entries {entries}, {bytes} B",
            fault.kind, fault.trigger
        )
    });
    let failures: Vec<usize> = (0..users.len() as u64)
        .map(|i| {
            let verify = config(Some(users[i as usize].0), merged.clone());
            let seeds = (0..3).map(|s| 0xBEEF + s + i * 101);
            failing_runs(&EspressoLike::new(), &input, &verify, seeds)
        })
        .collect();
    Row {
        section: "§6.4",
        claim: "collaborative correction: merged patch files stay small and correct every user",
        paper: "espresso's patch file is 130K raw / 17K gzipped".into(),
        ours: format!(
            "{} users ({contributed}); merged: entries {}, {bytes} B (pads {}, deferrals {}); \
             failing runs per user under the merged table: {}",
            users.len(),
            merged.len(),
            merged.pads().count(),
            merged.deferrals().count(),
            join(&failures, ", ", |f| format!("{f}/3")),
        ),
        status: Status::judge(
            users.len() == 8 && bytes <= 130_000 && failures.iter().all(|&f| f == 0),
            "the merged table no longer corrects every contributing user",
        ),
    }
}

/// §6.4 at population scale: 600 simulated clients take turns reporting,
/// and the service publishes after every report, until a published epoch
/// corrects both demonstration bugs. The fleet is serial and seeded, so
/// each bug's correcting epoch and reports-to-correct are exact counts;
/// the row holds if both bugs are corrected before any client has had to
/// run twice.
pub fn fleet() -> Row {
    let input = espresso_input(21);
    let workload = EspressoLike::new();
    let (overflow, dangling) =
        demo_faults(&workload, &input).expect("the demonstration faults are found");
    let sim = SimConfig {
        clients: 600,
        max_rounds: 6,
        fleet: FleetConfig {
            publish_every: 1,
            ..FleetConfig::default()
        },
        ..SimConfig::default()
    };
    let outcome = simulate(&workload, &input, &[overflow, dangling], sim);
    Row {
        section: "§6.4",
        claim: "fleet: 600 clients pool evidence until a published epoch corrects both bugs",
        paper: "one user needs 22–34 runs per bug; a community shares them".into(),
        ours: format!(
            "{}; {} runs across {} clients",
            join(&outcome.per_fault, ", ", |f| {
                let (kind, trigger, epoch, reports) =
                    (f.fault.kind, f.fault.trigger, f.epoch, f.reports);
                format!("{kind:?} @ {trigger}: epoch {epoch} after {reports} reports")
            }),
            outcome.total_runs,
            sim.clients,
        ),
        status: Status::judge(
            outcome.converged && outcome.total_runs <= sim.clients as u64,
            "the fleet no longer corrects both bugs within one run per client",
        ),
    }
}

/// Monte-Carlo trials per theorem measurement.
const TRIALS: usize = 300;

/// The one allocation site of the theorems' heaps.
const SITE: SiteHash = SiteHash::from_raw(1);

/// A heavily churned heap of roughly `live_target` live 16-byte objects.
/// Theorem 2's premise is that free space carries canaries with
/// probability p = ½; that holds only once (nearly) every slot has been
/// allocated at least once, so the churn runs long.
fn churned(seed: u64, live_target: usize) -> (DieFastHeap, Vec<Addr>) {
    let mut h = DieFastHeap::new(DieFastConfig::with_seed(seed).fill_probability(0.5));
    let mut rng = Rng::new(seed ^ 0xFEED);
    let mut live = Vec::new();
    for _ in 0..live_target * 12 {
        if live.len() > live_target && rng.chance(0.55) {
            h.free(live.swap_remove(rng.below_usize(live.len())), SITE);
        } else {
            let fresh = h.malloc(16, SITE);
            live.push(fresh.expect("an M = 2 heap has room for ~60 live 16-byte objects"));
        }
    }
    (h, live)
}

fn capture(heap: &DieFastHeap) -> HeapImage {
    HeapImage::try_capture(heap).expect("the allocator mapped every miniheap this heap records")
}

/// The share of [`TRIALS`] trials for which `hit` holds.
fn rate(hit: impl FnMut(&usize) -> bool) -> f64 {
    (0..TRIALS).filter(hit).count() as f64 / TRIALS as f64
}

/// Theorem 2: an 8-byte overflow misses every canary across k
/// independently randomized heaps.
fn missed_overflow(k: u32) -> f64 {
    rate(|&t| {
        (0..k).all(|i| {
            let (mut h, live) = churned(t as u64 * 31 + u64::from(i), 60);
            let culprit = live[t % live.len()];
            let _ = h.arena_mut().write_bytes(culprit + 16, &[0xE7; 8]);
            capture(&h).scan_canary_corruptions().is_empty()
        })
    })
}

/// Theorem 3: the mean number of (culprit, δ) candidates surviving
/// intersection across k heaps. In each heap the victim (the 40th
/// allocation) has every preceding ever-used slot as a candidate at its δ.
fn spurious_culprits(k: u32) -> f64 {
    let (mut total, mut measured) = (0, 0);
    for t in 0..TRIALS {
        let sets = (0..k).map(|i| {
            let image = capture(&churned(t as u64 * 131 + u64::from(i) * 7 + 1, 60).0);
            let victim = image.find_object(ObjectId::from_raw(40))?;
            let (victim_addr, mh) = (image.slot_addr(victim), image.miniheap_of(victim));
            let set = mh.slots.iter().enumerate().filter_map(|(idx, slot)| {
                let addr = mh.slot_addr(idx);
                (addr < victim_addr && slot.meta.state != SlotState::Unused)
                    .then(|| (slot.meta.object_id.raw(), victim_addr - addr))
            });
            Some(set.collect::<HashSet<_>>())
        });
        // A trial counts only if the victim exists in all k heaps.
        if let Some(sets) = sets.collect::<Option<Vec<_>>>() {
            measured += 1;
            total += sets[0]
                .iter()
                .filter(|x| sets.iter().all(|s| s.contains(x)))
                .count();
        }
    }
    total as f64 / f64::from(measured)
}

/// Theorem 1: an overflow from a fixed culprit (the 30th allocation) hits
/// the same live object in all k heaps.
fn identical_overflow(k: u32) -> f64 {
    rate(|&t| {
        let mut victims = (0..k).map(|i| {
            let image = capture(&churned(t as u64 * 17 + u64::from(i) * 3 + 5, 60).0);
            let culprit = image.find_object(ObjectId::from_raw(30))?;
            let hit = image.resolve_addr(image.slot_addr(culprit) + 16)?;
            // No live victim: never identical.
            (hit.state == SlotState::Live).then_some(hit.object_id.raw())
        });
        let first = victims.next().flatten();
        first.is_some() && victims.all(|v| v == first)
    })
}

/// `values` at `decimals` places, joined by ` / `.
fn slashed(values: &[f64], decimals: usize) -> String {
    join(values, " / ", |v| format!("{v:.decimals$}"))
}

/// A theorem's row, k over `ks`: holds if every `measure(k)` is at most
/// `bound(k)`. `decimals` formats the measured and the bound values.
fn theorem(
    claim: &'static str,
    ks: RangeInclusive<u32>,
    measure: fn(u32) -> f64,
    bound: impl Fn(u32) -> f64,
    decimals: [usize; 2],
) -> Row {
    let measured: Vec<f64> = ks.clone().map(measure).collect();
    let bound: Vec<f64> = ks.map(bound).collect();
    let holds = measured.iter().zip(&bound).all(|(m, b)| m <= b);
    Row {
        section: "§4",
        claim,
        paper: format!("≤ {}", slashed(&bound, decimals[1])),
        ours: slashed(&measured, decimals[0]),
        status: Status::judge(holds, "the measured rate exceeds the theorem's bound"),
    }
}

/// §4 Theorem 2: an 8-byte overflow misses every canary in k images (M = 2)
/// at most as often as the bound.
pub fn theorem_2() -> Row {
    theorem(
        "Theorem 2: P(an 8-byte overflow misses every canary in k images), M = 2, k = 1..4",
        1..=4,
        missed_overflow,
        |k| theory::p_missed_overflow(2.0, k, 8),
        [3, 3],
    )
}

/// §4 Theorem 3: spurious (culprit, δ) candidates surviving k images.
pub fn theorem_3() -> Row {
    theorem(
        "Theorem 3: E[spurious culprits] at a fixed δ, H = 120, k = 1..3",
        1..=3,
        spurious_culprits,
        |k| theory::expected_culprits(120.0, k),
        [3, 3],
    )
}

/// §4 Theorem 1: an overflow hits the same victim in all k images. The
/// measurement uses the slot after a fixed culprit, a proxy that
/// upper-bounds the per-pair probability the bound speaks of.
pub fn theorem_1() -> Row {
    theorem(
        "Theorem 1: P(identical victim in all k images), s = 1, H = 120, k = 2..3, per pair",
        2..=3,
        identical_overflow,
        |k| theory::p_identical_overflow(k, 1.0, 120.0),
        [4, 6],
    )
}

/// The 20-byte overflow both parameter sweeps inject.
fn sweep_fault(input: &WorkloadInput) -> FaultSpec {
    let espresso = EspressoLike::new();
    find_manifesting_fault(&espresso, input, overflow(20), 100, 300, 30, 6, 13)
        .expect("selector 13 finds a manifesting overflow")
}

/// Ablation of the heap multiplier `M`, which the paper fixes at 2
/// (§7.1): the detection rate of an injected 20-byte overflow over 24
/// runs each, and a clean run's footprint.
pub fn ablation_m() -> Row {
    let input = espresso_input(6);
    let fault = sweep_fault(&input);
    let ms = [1.5, 2.0, 4.0, 8.0];
    let cells = ms.map(|m| {
        let sized = |seed| {
            DieFastConfig::with_seed(seed).heap(DieHardConfig::with_seed(seed).multiplier(m))
        };
        let base = RunConfig {
            diefast: sized(0),
            ..config(Some(fault), PatchTable::new())
        };
        let detected = failing_runs(&EspressoLike::new(), &input, &base, 7_000..7_024);
        let mut heap = DieFastHeap::new(sized(1));
        EspressoLike::new().run(&mut heap, &input);
        (detected as f64 / 24.0, heap.arena().mapped_bytes() / 1024)
    });
    let detection: Vec<f64> = cells.iter().map(|c| c.0).collect();
    let floors: Vec<f64> = ms.iter().map(|m| (m - 1.0) / (2.0 * m)).collect();
    Row {
        section: "§7.1",
        claim:
            "ablation M: detection of a 20-byte overflow over 24 runs peaks at the paper's M = 2",
        paper: format!(
            "M = 2 throughout; Theorem 2's per-image floor (M−1)/2M = {}",
            slashed(&floors, 2)
        ),
        ours: format!(
            "detection {} at M = 1.5 / 2 / 4 / 8; clean-run footprint {} KiB",
            slashed(&detection, 2),
            join(&cells, " / ", |c| c.1.to_string()),
        ),
        status: Status::judge(
            (0..ms.len()).all(|i| i == 1 || detection[i] < detection[1]),
            "detection no longer peaks at M = 2",
        ),
    }
}

/// Ablation of the canary-fill probability `p` (§5.2): cumulative-mode
/// isolation of an injected 20-byte overflow, 3 trials of at most 160
/// runs per `p`.
pub fn ablation_p() -> Row {
    let input = espresso_input(6);
    let fault = sweep_fault(&input);
    let cells = [0.125, 0.25, 0.5, 0.75, 1.0].map(|p: f64| {
        let (mut isolated, mut runs, mut rate) = (0, 0, 0.0);
        for trial in 0..3u64 {
            let mut mode = CumulativeMode::new(CumulativeModeConfig {
                base_seed: 0xAB1A + (p * 1000.0) as u64 + trial * 7919,
                isolator: CumulativeConfig {
                    fill_probability: p,
                    ..CumulativeConfig::default()
                },
                ..CumulativeModeConfig::default()
            });
            let outcome = mode.run_until_isolated(&EspressoLike::new(), &input, Some(fault), 160);
            if outcome.isolated {
                isolated += 1;
                runs += outcome.runs;
            }
            rate += outcome.failures as f64 / outcome.runs.max(1) as f64;
        }
        (isolated, runs.checked_div(isolated), rate / 3.0)
    });
    Row {
        section: "§5.2",
        claim: "ablation p: the higher p, the more trials isolate, p = 1 fastest",
        paper: "low p increases the runs (though not the failures) needed to isolate an overflow"
            .into(),
        ours: format!(
            "at p = 0.125 / 0.25 / 0.5 / 0.75 / 1: isolated {}; mean runs {}; mean failure rate {}",
            join(&cells, ", ", |c| format!("{}/3", c.0)),
            join(&cells, ", ", |c| c.1.map_or("-".into(), |r| r.to_string())),
            slashed(&cells.map(|c| c.2), 2),
        ),
        status: Status::judge(
            cells.windows(2).all(|w| w[0].0 <= w[1].0)
                && cells[4]
                    .1
                    .is_some_and(|best| cells.iter().filter_map(|c| c.1).all(|r| best <= r)),
            "isolation no longer improves monotonically with p",
        ),
    }
}

/// The (alloc site, injected free site) pair a deferral for `fault` keys
/// on, read from a reference run's allocation history.
fn injected_pair(input: &WorkloadInput, fault: FaultSpec) -> Option<SitePair> {
    let reference = RunConfig {
        heap_seed: 3,
        diefast: DieFastConfig::cumulative_with_seed(3),
        ..config(Some(fault), PatchTable::new())
    };
    let history = execute(&EspressoLike::new(), input, reference).history?;
    let record = history.get(ObjectId::from_raw(fault.trigger.raw()))?;
    Some(SitePair::new(record.alloc_site, INJECTED_FREE_SITE))
}

/// Rounds a naive policy needs: defer `pair` 8 ticks longer each round
/// until 3 verification runs pass (`None` if 40 rounds are not enough).
fn fixed_increment_rounds(input: &WorkloadInput, fault: FaultSpec, pair: SitePair) -> Option<u64> {
    let mut patches = PatchTable::new();
    for round in 1..=40 {
        let seeds = (0..3).map(|s| 0xF1 + s + round * 17);
        let verify = config(Some(fault), patches);
        if failing_runs(&EspressoLike::new(), input, &verify, seeds) == 0 {
            return Some(round);
        }
        patches = PatchTable::new();
        patches.add_deferral(pair, 8 * round);
    }
    None
}

/// Ablation of the deferral policy (§6.2): repair rounds under the
/// paper's 2(T−τ)+1 escalation vs a fixed +8 ticks per round, on 5
/// distinct dangling faults the paper's policy corrects.
pub fn ablation_deferral() -> Row {
    let input = espresso_input(21);
    let faults: Vec<_> = distinct_faults(&input, |_| DANGLING, 1..=120, 6)
        .filter_map(|(sel, fault)| {
            let outcome = repair(&input, fault, sel ^ 0xD1F);
            if !outcome.fixed || outcome.patches.deferrals().count() == 0 {
                return None; // not isolatable: a read-only dangling free
            }
            let fixed = fixed_increment_rounds(&input, fault, injected_pair(&input, fault)?);
            Some((fault, outcome.rounds.len() as u64, fixed))
        })
        .take(5)
        .collect();
    let ours = join(&faults, ", ", |(fault, paper, fixed)| {
        let fixed = fixed.map_or("not converged".into(), |r| r.to_string());
        format!("{} {paper} vs {fixed}", fault.trigger)
    });
    Row {
        section: "§6.2",
        claim: "ablation deferral: the paper's escalation needs fewer rounds than fixed +8",
        paper: "2(T−τ)+1 converges in a logarithmic number of executions".into(),
        ours: format!("rounds, 2(T−τ)+1 vs fixed +8 (cap 40): {ours}"),
        status: Status::judge(
            faults.len() == 5 && faults.iter().all(|(_, p, f)| f.is_none_or(|f| *p < f)),
            "the paper's escalation no longer beats a fixed increment on every fault",
        ),
    }
}
