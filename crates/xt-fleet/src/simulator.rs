//! The fleet simulator: cumulative mode (§5) at population scale.
//!
//! The paper measures cumulative-mode convergence for *one* user
//! accumulating evidence across their own runs (22–34 runs for the
//! injected dangling faults of §7.2). The deployment §6.4 argues for is a
//! *fleet*: every user contributes every run's summary, the service pools
//! them, and the whole population converges in wall-clock terms as fast as
//! reports arrive — nobody has to crash 30 times themselves.
//!
//! [`FleetSimulator`] reproduces that loop. It spawns one scoped thread
//! per simulated client; each client is a *persistent executor* — it owns
//! one [`ReusableStack`] whose
//! simulated address space is reset (not rebuilt) between rounds, exactly
//! like the replica workers of [`exterminator::pool`] — and repeatedly
//!
//! 1. polls [`FleetService::latest`] for the current patch epoch (the
//!    same hot-reload a long-lived [`ReplicaPool`] applies via
//!    `load_epoch`),
//! 2. executes the workload under those patches with its injected fault
//!    and a fresh DieHard heap seed
//!    ([`exterminator::summarized_run_reusable`]),
//! 3. encodes the run's [`RunSummary`](xt_isolate::cumulative::RunSummary)
//!    as a wire [`RunReport`] and submits it.
//!
//! [`ReplicaPool`]: exterminator::pool::ReplicaPool
//!
//! A monitor watches each newly published epoch and probes whether the
//! epoch's patch table actually corrects each injected fault (independent
//! verification runs, the §6.3 discipline); once every fault verifies, the
//! fleet is told to stop and the per-fault convergence points (epoch,
//! reports ingested, fleet-wide runs) are reported in [`FleetOutcome`].
//! Whether the fleet converges is the result; the counts depend on how
//! the client threads were scheduled (see [`FaultConvergence::reports`]).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use exterminator::cumulative::{CumulativeMode, CumulativeModeConfig};
use exterminator::runner::{
    execute, find_manifesting_fault, probe_failed, ReusableStack, RunConfig,
};
use exterminator::summarized_run_reusable;
use xt_alloc::ObjectId;
use xt_diefast::DieFastConfig;
use xt_faults::{FaultKind, FaultSpec};
use xt_obs::RegistrySnapshot;
use xt_patch::{PatchEpoch, PatchTable};
use xt_workloads::{Workload, WorkloadInput};

use crate::service::{FleetConfig, FleetMetrics, FleetService};
use crate::wire::RunReport;

/// Simulator parameters.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Simulated clients (one scoped thread each).
    pub clients: usize,
    /// Runs each client performs before giving up.
    pub max_rounds: usize,
    /// Seed from which every client/run heap seed derives.
    pub base_seed: u64,
    /// Heap multiplier `M` for client runs (paper default 2).
    pub multiplier: f64,
    /// Independent verification runs per fault per epoch check.
    pub verify_probes: usize,
    /// The aggregation service's configuration.
    pub fleet: FleetConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            clients: 64,
            max_rounds: 8,
            base_seed: 0xF1EE7,
            multiplier: 2.0,
            verify_probes: 4,
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
    /// Reports the service had ingested when that epoch was published.
    /// This depends on thread scheduling: which clients' reports land
    /// before the first publish, and how long verification runs while
    /// clients keep reporting. Back-to-back runs of one 600-client
    /// configuration have read anywhere from 64 to 1,703, and the
    /// correcting [`epoch`](Self::epoch) moves with it. It shows *that* the
    /// fleet converged, not how many reports convergence needs; the
    /// deterministic reports-to-correct count is the benchmark's
    /// `cost_ratio` on its `fleet_reports` workload.
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
    /// The service's merged observability snapshot at shutdown: the
    /// `fleet/...` counters plus per-stage latency histograms
    /// (ingest/fold/publish), render with
    /// [`RegistrySnapshot::render_text`].
    pub observability: RegistrySnapshot,
}

/// Drives a population of simulated clients against one [`FleetService`].
pub struct FleetSimulator<'a, W> {
    workload: &'a W,
    input: WorkloadInput,
    faults: Vec<FaultSpec>,
    config: SimConfig,
}

impl<'a, W: Workload + Sync> FleetSimulator<'a, W> {
    /// Creates a simulator. Client `i` injects `faults[i % faults.len()]`;
    /// an empty fault list simulates a healthy fleet.
    #[must_use]
    pub fn new(
        workload: &'a W,
        input: WorkloadInput,
        faults: Vec<FaultSpec>,
        config: SimConfig,
    ) -> Self {
        FleetSimulator {
            workload,
            input,
            faults,
            config,
        }
    }

    /// The fault client `client` injects.
    fn fault_for(&self, client: usize) -> Option<FaultSpec> {
        if self.faults.is_empty() {
            None
        } else {
            Some(self.faults[client % self.faults.len()])
        }
    }

    /// SplitMix-style derivation of one client run's heap seed.
    fn heap_seed(&self, client: usize, round: usize) -> u64 {
        xt_arena::splitmix_finalize(
            self.config
                .base_seed
                .wrapping_add((client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add((round as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)),
        )
    }

    /// Independent verification runs: does `patches` correct `fault`?
    fn fault_corrected(&self, fault: FaultSpec, patches: &PatchTable) -> bool {
        verified_corrected(
            self.workload,
            &self.input,
            fault,
            patches,
            self.config.verify_probes,
            self.config.base_seed,
        )
    }

    /// Runs the fleet to convergence or exhaustion.
    pub fn run(&self) -> FleetOutcome {
        let service = FleetService::new(self.config.fleet);
        let stop = AtomicBool::new(false);
        let total_runs = AtomicU64::new(0);
        let finished = AtomicU64::new(0);
        let fill = self.config.fleet.isolator.fill_probability;
        let mut per_fault: Vec<FaultConvergence> = self
            .faults
            .iter()
            .map(|&fault| FaultConvergence {
                fault,
                corrected: false,
                epoch: 0,
                reports: 0,
            })
            .collect();

        std::thread::scope(|scope| {
            for client in 0..self.config.clients {
                let fault = self.fault_for(client);
                let (service, stop, total_runs, finished) =
                    (&service, &stop, &total_runs, &finished);
                scope.spawn(move || {
                    // One reusable allocator stack for this client's whole
                    // lifetime: rounds reset the address space instead of
                    // rebuilding it (behaviour is identical either way —
                    // the core determinism tests pin that).
                    let mut stack = ReusableStack::new();
                    for round in 0..self.config.max_rounds {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let epoch = service.latest();
                        let run = summarized_run_reusable(
                            self.workload,
                            &self.input,
                            fault,
                            epoch.patches.clone(),
                            self.heap_seed(client, round),
                            fill,
                            self.config.multiplier,
                            &mut stack,
                        );
                        total_runs.fetch_add(1, Ordering::Relaxed);
                        let report =
                            RunReport::from_summary(client as u64, round as u32, &run.summary);
                        service
                            .ingest(&report.encode())
                            .expect("self-encoded report is well-formed");
                    }
                    finished.fetch_add(1, Ordering::Relaxed);
                });
            }

            // Monitor: verify each newly published epoch against the
            // injected faults; stop the fleet once all verify.
            let mut last_checked = 0u64;
            while (finished.load(Ordering::Relaxed) as usize) < self.config.clients {
                let (epoch, published_at) = service.latest_with_reports();
                if epoch.number > last_checked && !epoch.patches.is_empty() {
                    last_checked = epoch.number;
                    self.check_epoch(&epoch, published_at, &mut per_fault);
                    if per_fault.iter().all(|f| f.corrected) {
                        stop.store(true, Ordering::Relaxed);
                        break;
                    }
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            stop.store(true, Ordering::Relaxed);
        });

        // Whatever evidence is still unpublished gets one final epoch, and
        // stragglers one final verification.
        service.publish();
        let (final_epoch, published_at) = service.latest_with_reports();
        if per_fault.iter().any(|f| !f.corrected) && !final_epoch.patches.is_empty() {
            self.check_epoch(&final_epoch, published_at, &mut per_fault);
        }
        let mut observability = service.observability().snapshot();
        observability.merge(service.metrics().counters_snapshot());
        FleetOutcome {
            converged: per_fault.iter().all(|f| f.corrected),
            total_runs: total_runs.load(Ordering::Relaxed),
            metrics: service.metrics(),
            per_fault,
            final_epoch: service.latest(),
            observability,
        }
    }

    /// Records convergence points for faults `epoch` newly corrects.
    /// `published_at` is the report count captured when this epoch was
    /// *published* (read atomically with the snapshot), not when this
    /// (possibly CPU-starved) verification finishes — clients keep
    /// running while probes execute.
    fn check_epoch(
        &self,
        epoch: &PatchEpoch,
        published_at: u64,
        per_fault: &mut [FaultConvergence],
    ) {
        for fc in per_fault.iter_mut().filter(|f| !f.corrected) {
            if self.fault_corrected(fc.fault, &epoch.patches) {
                fc.corrected = true;
                fc.epoch = epoch.number;
                fc.reports = published_at;
            }
        }
    }
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
    use xt_workloads::EspressoLike;

    #[test]
    fn healthy_fleet_publishes_no_patches() {
        let workload = EspressoLike::new();
        let sim = FleetSimulator::new(
            &workload,
            WorkloadInput::with_seed(4),
            Vec::new(),
            SimConfig {
                clients: 6,
                max_rounds: 2,
                fleet: FleetConfig {
                    shards: 4,
                    publish_every: 4,
                    ..FleetConfig::default()
                },
                ..SimConfig::default()
            },
        );
        let outcome = sim.run();
        assert!(outcome.converged, "no faults: trivially converged");
        assert!(outcome.final_epoch.patches.is_empty(), "false positives");
        assert_eq!(outcome.metrics.reports, 12, "6 clients x 2 rounds");
        assert_eq!(outcome.total_runs, 12);
        assert_eq!(outcome.metrics.failed_reports, 0);
    }

    #[test]
    fn small_fleet_converges_on_a_dangling_fault() {
        let input = WorkloadInput::with_seed(21).intensity(3);
        let workload = EspressoLike::new();
        // The first dangling fault that passes the `isolatable` screen for
        // this input (sel = 7 in the `demo_faults` scan) — hardcoded so the
        // test does not pay the screening search. A single §5 user needs
        // ~34 runs on it; the fleet below can pool up to 192.
        let fault = FaultSpec {
            kind: FaultKind::DanglingFree { lag: 12 },
            trigger: xt_alloc::AllocTime::from_raw(364),
        };
        assert!(
            !verified_corrected(&workload, &input, fault, &PatchTable::new(), 4, 0xF1EE7),
            "fault must manifest under empty patches for the test to mean anything"
        );
        // 16 clients x up to 12 rounds ≈ 190 pooled runs — comfortably
        // beyond the 22–34 a single §7.2 user needed.
        let sim = FleetSimulator::new(
            &workload,
            input,
            vec![fault],
            SimConfig {
                clients: 16,
                max_rounds: 12,
                fleet: FleetConfig {
                    shards: 4,
                    publish_every: 16,
                    ..FleetConfig::default()
                },
                ..SimConfig::default()
            },
        );
        let outcome = sim.run();
        assert!(
            outcome.converged,
            "fleet never corrected the dangling fault: {:?} (epoch {:?})",
            outcome.per_fault, outcome.final_epoch.number
        );
        let fc = outcome.per_fault[0];
        assert!(fc.epoch >= 1);
        assert!(fc.reports > 0);
        assert!(
            outcome.final_epoch.patches.deferrals().count() > 0,
            "dangling correction must be a deferral"
        );
    }
}
