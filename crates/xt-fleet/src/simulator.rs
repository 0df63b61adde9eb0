//! The fleet simulator: cumulative mode (§5) at population scale.
//!
//! The paper measures cumulative-mode convergence for *one* user
//! accumulating evidence across their own runs (22–34 runs for the
//! injected dangling faults of §7.2). The deployment §6.4 argues for is a
//! *fleet*: every user contributes every run's summary, the service pools
//! them, and the whole population converges as fast as reports arrive —
//! nobody has to crash 30 times themselves.
//!
//! [`simulate`] reproduces that loop on the calling thread, round-robin
//! over its clients: in round `r`, client `c` takes its turn, which
//!
//! 1. reads [`FleetService::latest`] for the current patch epoch (the
//!    same hot-reload a long-lived [`ReplicaPool`] applies via
//!    `load_epoch`),
//! 2. executes the workload under those patches with its injected fault
//!    and the heap seed derived from `(base_seed, c, r)`
//!    ([`exterminator::summarized_run_reusable`], over one
//!    [`ReusableStack`] the whole fleet shares — the core determinism
//!    tests pin that a reset stack behaves like a fresh one),
//! 3. hands the run's [`RunSummary`](xt_isolate::cumulative::RunSummary)
//!    to the service as a [`RunReport`] ([`FleetService::ingest_report`]).
//!
//! [`ReplicaPool`]: exterminator::pool::ReplicaPool
//!
//! When a report publishes a new epoch, that epoch is verified against
//! every still-uncorrected fault (independent verification runs, the §6.3
//! discipline) before the next report folds; once every fault verifies,
//! the fleet stops. The outcome — per-fault correcting epoch and reports
//! ingested, fleet-wide runs, the final epoch — is a function of the
//! workload, input, faults and [`SimConfig`].

use std::sync::Arc;

use exterminator::cumulative::{CumulativeMode, CumulativeModeConfig};
use exterminator::runner::{
    execute, find_manifesting_fault, probe_failed, ReusableStack, RunConfig,
};
use exterminator::summarized_run_reusable;
use xt_alloc::ObjectId;
use xt_diefast::DieFastConfig;
use xt_faults::{FaultKind, FaultSpec};
use xt_patch::{PatchEpoch, PatchTable};
use xt_workloads::{Workload, WorkloadInput};

use crate::service::{FleetConfig, FleetMetrics, FleetService};
use crate::wire::RunReport;

/// Heap multiplier `M` for client runs (the paper's default).
const MULTIPLIER: f64 = 2.0;

/// Independent verification runs per fault per published epoch — the
/// count [`isolatable`] screens with.
const VERIFY_PROBES: usize = 4;

/// Simulator parameters.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Simulated clients, each taking one turn per round.
    pub clients: usize,
    /// Rounds before the fleet gives up.
    pub max_rounds: usize,
    /// Seed from which every client/run heap seed derives.
    pub base_seed: u64,
    /// The aggregation service's configuration.
    pub fleet: FleetConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            clients: 64,
            max_rounds: 8,
            base_seed: 0xF1EE7,
            fleet: FleetConfig::default(),
        }
    }
}

/// When (if ever) one injected fault became corrected by a published epoch.
#[derive(Clone, Copy, Debug)]
pub struct FaultConvergence {
    /// The injected fault.
    pub fault: FaultSpec,
    /// Whether some epoch's patches verifiably correct it.
    pub corrected: bool,
    /// First epoch whose patches verified (0 if never).
    pub epoch: u64,
    /// Reports the service had ingested when that epoch was published:
    /// the fleet's reports-to-correct for this fault.
    pub reports: u64,
}

/// What a fleet run produced.
#[derive(Clone, Debug)]
pub struct FleetOutcome {
    /// All injected faults verified corrected.
    pub converged: bool,
    /// Total workload executions across the fleet (excluding verification
    /// probes).
    pub total_runs: u64,
    /// Final service counters.
    pub metrics: FleetMetrics,
    /// Per-fault convergence points.
    pub per_fault: Vec<FaultConvergence>,
    /// The epoch current when the fleet stopped.
    pub final_epoch: Arc<PatchEpoch>,
}

/// Runs a fleet of `config.clients` simulated clients against one
/// [`FleetService`] until a published epoch verifiably corrects every
/// fault, or `config.max_rounds` rounds run out. Client `i` injects
/// `faults[i % faults.len()]`; an empty fault list simulates a healthy
/// fleet, which runs every round.
#[must_use]
pub fn simulate(
    workload: &dyn Workload,
    input: &WorkloadInput,
    faults: &[FaultSpec],
    config: SimConfig,
) -> FleetOutcome {
    let service = FleetService::new(config.fleet);
    let fill = config.fleet.isolator.fill_probability;
    let mut per_fault: Vec<FaultConvergence> = faults
        .iter()
        .map(|&fault| FaultConvergence {
            fault,
            corrected: false,
            epoch: 0,
            reports: 0,
        })
        .collect();
    // Records convergence points for the faults `epoch` newly corrects;
    // `published_at` is the report count when `epoch` was published.
    let check = |epoch: &PatchEpoch, published_at: u64, per_fault: &mut [FaultConvergence]| {
        for fc in per_fault.iter_mut().filter(|f| !f.corrected) {
            let (patches, seed) = (&epoch.patches, config.base_seed);
            if verified_corrected(workload, input, fc.fault, patches, VERIFY_PROBES, seed) {
                fc.corrected = true;
                fc.epoch = epoch.number;
                fc.reports = published_at;
            }
        }
    };
    let mut stack = ReusableStack::new();
    let mut total_runs = 0u64;
    let mut last_checked = 0u64;
    'fleet: for round in 0..config.max_rounds {
        for client in 0..config.clients {
            let fault = (!faults.is_empty()).then(|| faults[client % faults.len()]);
            let run = summarized_run_reusable(
                workload,
                input,
                fault,
                service.latest().patches.clone(),
                heap_seed(config.base_seed, client, round),
                fill,
                MULTIPLIER,
                &mut stack,
            );
            total_runs += 1;
            service.ingest_report(&RunReport::from_summary(
                client as u64,
                round as u32,
                &run.summary,
            ));
            let (epoch, published_at) = service.latest_with_reports();
            if epoch.number > last_checked && !epoch.patches.is_empty() {
                last_checked = epoch.number;
                check(&epoch, published_at, &mut per_fault);
                if per_fault.iter().all(|f| f.corrected) {
                    break 'fleet;
                }
            }
        }
    }

    // Whatever evidence is still unpublished gets one final epoch, and
    // stragglers one final verification.
    service.publish();
    let (final_epoch, published_at) = service.latest_with_reports();
    if final_epoch.number > last_checked && !final_epoch.patches.is_empty() {
        check(&final_epoch, published_at, &mut per_fault);
    }
    FleetOutcome {
        converged: per_fault.iter().all(|f| f.corrected),
        total_runs,
        metrics: service.metrics(),
        per_fault,
        final_epoch,
    }
}

/// SplitMix-style derivation of one client run's heap seed.
fn heap_seed(base_seed: u64, client: usize, round: usize) -> u64 {
    xt_arena::splitmix_finalize(
        base_seed
            .wrapping_add((client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((round as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)),
    )
}

/// Independent verification runs (§6.3): `patches` corrects `fault` if
/// `probes` fresh-seeded executions of the faulty workload all complete.
/// Only each run's verdict is read, so no heap image is captured.
#[must_use]
pub fn verified_corrected(
    workload: &dyn Workload,
    input: &WorkloadInput,
    fault: FaultSpec,
    patches: &PatchTable,
    probes: usize,
    base_seed: u64,
) -> bool {
    let mut stack = ReusableStack::new();
    (0..probes as u64).all(|probe| {
        let mut config = RunConfig::with_seed(base_seed ^ (0xC0DE + probe * 97));
        config.fault = Some(fault);
        config.patches = patches.clone();
        config.halt_on_signal = true;
        !probe_failed(workload, input, config, &mut stack)
    })
}

/// `true` if single-user cumulative mode can isolate `fault` within
/// `max_runs` runs *and* the generated patches verifiably correct it —
/// the screen [`demo_faults`] applies. Not every manifesting fault
/// qualifies: on this reproduction's small heaps some dangling faults
/// never develop the canary/failure correlation (`bench`'s
/// `injected_dangling_cumulative` row documents the same effect), and their
/// evidence would never
/// converge no matter how many clients report.
#[must_use]
pub fn isolatable(
    workload: &dyn Workload,
    input: &WorkloadInput,
    fault: FaultSpec,
    max_runs: usize,
) -> bool {
    let mut mode = CumulativeMode::new(CumulativeModeConfig::default());
    let outcome = mode.run_until_isolated(workload, input, Some(fault), max_runs);
    outcome.isolated
        && !outcome.patches.is_empty()
        && verified_corrected(workload, input, fault, &outcome.patches, 4, 0xF1EE7)
}

/// Finds the pair of demonstration faults the example and `bench`'s `fleet`
/// row use:
/// a buffer overflow whose culprit object comes from a *cold* allocation
/// site (the Mozilla-IDN shape — hot-site overflows drown their own
/// evidence, exactly as §7.3 observes) and a dangling free. Both are
/// screened with [`isolatable`], so a fleet pooling enough reports is
/// guaranteed to converge on them.
#[must_use]
pub fn demo_faults(
    workload: &dyn Workload,
    input: &WorkloadInput,
) -> Option<(FaultSpec, FaultSpec)> {
    let overflow = find_cold_overflow(workload, input)?;
    let dangling = (1..200)
        .filter_map(|sel| {
            find_manifesting_fault(
                workload,
                input,
                FaultKind::DanglingFree { lag: 12 },
                100,
                450,
                6,
                4,
                sel,
            )
        })
        .find(|&fault| isolatable(workload, input, fault, 100))?;
    Some((overflow, dangling))
}

/// Scans allocation history for rarely-allocating sites and returns the
/// first cold-site overflow that manifests and screens as isolatable.
fn find_cold_overflow(workload: &dyn Workload, input: &WorkloadInput) -> Option<FaultSpec> {
    let reference = {
        let mut config = RunConfig::with_seed(424242);
        config.diefast = DieFastConfig::cumulative_with_seed(424242);
        execute(workload, input, config)
    };
    let history = reference.history?;
    for t in (120..500u64).step_by(7) {
        let Some(rec) = history.get(ObjectId::from_raw(t)) else {
            continue;
        };
        if history.records_from_site(rec.alloc_site).count() > 3 {
            continue; // hot site: weak per-run evidence
        }
        let found = find_manifesting_fault(
            workload,
            input,
            FaultKind::BufferOverflow {
                delta: 20,
                fill: 0xEE,
            },
            t,
            t + 1,
            1,
            6,
            11,
        );
        if let Some(fault) = found {
            if isolatable(workload, input, fault, 100) {
                return Some(fault);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use xt_alloc::AllocTime;
    use xt_workloads::EspressoLike;

    /// The §6.4 input `bench`'s `fleet` row and the benchmark's
    /// `fleet_reports` workload use.
    fn fleet_input() -> WorkloadInput {
        WorkloadInput::with_seed(21).intensity(3)
    }

    /// The dangling half of [`demo_faults`] for [`fleet_input`]: the first
    /// dangling fault that passes the `isolatable` screen (sel = 7 in the
    /// scan) — hardcoded so the tests do not pay the screening search. A
    /// single §5 user needs ~34 runs on it.
    const DANGLING: FaultSpec = FaultSpec {
        kind: FaultKind::DanglingFree { lag: 12 },
        trigger: AllocTime::from_raw(364),
    };

    /// 16 clients x up to 12 rounds: up to 192 pooled runs, comfortably
    /// beyond the 22–34 a single §7.2 user needed.
    fn small_dangling_fleet() -> FleetOutcome {
        let config = SimConfig {
            clients: 16,
            max_rounds: 12,
            fleet: FleetConfig {
                shards: 4,
                publish_every: 16,
                ..FleetConfig::default()
            },
            ..SimConfig::default()
        };
        simulate(&EspressoLike::new(), &fleet_input(), &[DANGLING], config)
    }

    #[test]
    fn healthy_fleet_publishes_no_patches() {
        let config = SimConfig {
            clients: 6,
            max_rounds: 2,
            fleet: FleetConfig {
                shards: 4,
                publish_every: 4,
                ..FleetConfig::default()
            },
            ..SimConfig::default()
        };
        let outcome = simulate(
            &EspressoLike::new(),
            &WorkloadInput::with_seed(4),
            &[],
            config,
        );
        assert!(outcome.converged, "no faults: trivially converged");
        assert!(outcome.final_epoch.patches.is_empty(), "false positives");
        assert_eq!(outcome.final_epoch.number, 0);
        assert_eq!(outcome.metrics.reports, 12, "6 clients x 2 rounds");
        assert_eq!(outcome.total_runs, 12);
        assert_eq!(outcome.metrics.failed_reports, 0);
    }

    #[test]
    fn small_fleet_converges_on_a_dangling_fault() {
        assert!(
            !verified_corrected(
                &EspressoLike::new(),
                &fleet_input(),
                DANGLING,
                &PatchTable::new(),
                4,
                0xF1EE7
            ),
            "fault must manifest under empty patches for the test to mean anything"
        );
        let outcome = small_dangling_fleet();
        assert!(
            outcome.converged,
            "fleet never corrected the dangling fault: {:?} (epoch {:?})",
            outcome.per_fault, outcome.final_epoch.number
        );
        let fc = outcome.per_fault[0];
        // The second 16-report publish is the first epoch, and it corrects:
        // two rounds of the fleet, where one user needs ~34 runs.
        assert_eq!((fc.epoch, fc.reports), (1, 32));
        assert_eq!(outcome.total_runs, 32);
        assert_eq!(outcome.metrics.reports, 32);
        assert!(
            outcome.final_epoch.patches.deferrals().count() > 0,
            "dangling correction must be a deferral"
        );
    }

    #[test]
    fn simulate_twice_is_identical() {
        let (a, b) = (small_dangling_fleet(), small_dangling_fleet());
        let points = |o: &FleetOutcome| -> Vec<(bool, u64, u64)> {
            o.per_fault
                .iter()
                .map(|f| (f.corrected, f.epoch, f.reports))
                .collect()
        };
        assert_eq!(points(&a), points(&b));
        assert_eq!(a.total_runs, b.total_runs);
        assert_eq!(a.metrics.reports, b.metrics.reports);
        assert_eq!(a.final_epoch.to_text(), b.final_epoch.to_text());
    }

    /// The epoch the benchmark's `fleet_reports` workload publishes first
    /// on seeds 7, 2913, 2914 and 2915: an overflow pad and a deferral for
    /// [`DANGLING`].
    const FIRST_FLEET_REPORTS_EPOCH: &str = "pad 512ddc49 20\ndefer 5b25e163 fa17feed 46\n";

    /// Whether one verification-style probe (the body of
    /// [`verified_corrected`]) of `fault` under `patches` fails on `heap_seed`.
    fn probe_fails(
        fault: FaultSpec,
        patches: &PatchTable,
        heap_seed: u64,
        stack: &mut ReusableStack,
    ) -> bool {
        let mut config = RunConfig::with_seed(heap_seed);
        config.fault = Some(fault);
        config.patches = patches.clone();
        config.halt_on_signal = true;
        probe_failed(&EspressoLike::new(), &fleet_input(), config, stack)
    }

    /// `fleet_reports --seed 2914` never corrects, and the cause is an
    /// undersized deferral — not a false positive, a wrong site, or an
    /// unlucky probe on a correct patch. Its first epoch is the same
    /// table neighbouring seeds verify; the dangling fault still fails on
    /// a few heap seeds under it, and probe 0 of seed 2914 is one of them.
    #[test]
    fn seed_2914_fails_verification_on_an_undersized_deferral() {
        let table = PatchTable::from_text(FIRST_FLEET_REPORTS_EPOCH).expect("literal table parses");
        let (workload, input) = (EspressoLike::new(), fleet_input());
        assert!(!verified_corrected(
            &workload, &input, DANGLING, &table, 4, 2914
        ));
        assert!(verified_corrected(
            &workload, &input, DANGLING, &table, 4, 2913
        ));

        // Probe 0's heap seed, as `verified_corrected` derives it.
        let seed = 2914 ^ 0xC0DE;
        assert_eq!(seed, 52156);
        let mut stack = ReusableStack::new();
        assert!(probe_fails(DANGLING, &table, seed, &mut stack));
        let (pair, ticks) = table.deferrals().next().expect("one deferral");
        assert_eq!(ticks, 46);
        let mut doubled = table.clone();
        doubled.add_deferral(pair, 92);
        assert!(!probe_fails(DANGLING, &doubled, seed, &mut stack));

        // The residual: 6 of the first 1 000 heap seeds still fail under
        // the 46-tick deferral.
        let failing: Vec<u64> = (0..1000)
            .filter(|&s| probe_fails(DANGLING, &table, s, &mut stack))
            .collect();
        assert_eq!(failing, [136, 249, 550, 663, 714, 793]);
    }
}
