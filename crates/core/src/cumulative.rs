//! Cumulative mode (§3.4, §5): correction across many deployed runs.
//!
//! "Exterminator uses its third mode of operation, cumulative mode, which
//! isolates errors without replication or multiple identical executions."
//! Each run is reduced to a [`RunSummary`](xt_isolate::cumulative::RunSummary)
//! — a few hundred bytes of per-site statistics instead of a heap image —
//! and the Bayesian classifier accumulates them until an allocation site
//! crosses the `cN − 1` likelihood threshold, at which point patches are
//! generated and applied to subsequent runs.
//!
//! Neither half does more than that sentence says. A run is summarised
//! from the heap while it still stands, then abandoned: no image is ever
//! captured ([`summarized_run_reusable`]). The classifier keeps each
//! site's likelihood ratio next to its observations and re-evaluates only
//! the sites a run observed, so asking for patches or verdicts between
//! runs costs a threshold test per site, not an integral.

use xt_diefast::DieFastConfig;
use xt_faults::FaultSpec;
use xt_isolate::cumulative::{summarize_heap, CumulativeConfig, CumulativeIsolator, Verdict};
use xt_patch::PatchTable;
use xt_workloads::{Workload, WorkloadInput};

use crate::runner::{ReusableStack, RunConfig};

/// Configuration for the cumulative-mode driver.
#[derive(Clone, Debug)]
pub struct CumulativeModeConfig {
    /// Base seed; every run gets a fresh heap seed derived from it.
    pub base_seed: u64,
    /// Classifier parameters: prior constant `c`, integration steps, and
    /// DieFast's canary fill probability `p` (§5.2 default: 1/2), which
    /// the runs' heaps use too.
    pub isolator: CumulativeConfig,
    /// Give each run a different workload seed, modelling the
    /// nondeterministic inputs of deployed use (the Mozilla scenario).
    pub vary_input_seed: bool,
    /// Heap multiplier `M` for the runs (paper default 2).
    pub multiplier: f64,
}

impl Default for CumulativeModeConfig {
    fn default() -> Self {
        CumulativeModeConfig {
            base_seed: 0xC0_5EED,
            isolator: CumulativeConfig::default(),
            vary_input_seed: false,
            multiplier: 2.0,
        }
    }
}

/// Everything one deployed client execution produces: the failure flag
/// and the compact per-site statistics to report upstream.
#[derive(Clone, Debug)]
pub struct SummarizedRun {
    /// Whether the run failed (signal or crash).
    pub failed: bool,
    /// Final allocation clock.
    pub clock: xt_alloc::AllocTime,
    /// The §5 per-site summary — the payload a fleet client submits.
    pub summary: xt_isolate::cumulative::RunSummary,
}

/// Executes **one** deployed run under `patches` over `stack` and reduces
/// it to a [`RunSummary`](xt_isolate::cumulative::RunSummary) — the one
/// single-run entry point. [`CumulativeMode::run_once`] wraps this for the
/// single-user loop; `xt-fleet` simulator clients and bridge probes call
/// it directly and ship the summary to the aggregation service instead of
/// folding it into local state. A long-lived deployed client keeps one
/// [`ReusableStack`] for its whole lifetime, like a real process keeps its
/// page tables.
///
/// The run is summarised where it stands
/// ([`summarize_heap`]: canary corruptions scanned in place, the
/// allocation history borrowed) and then
/// [`abandon`](crate::runner::ActiveRun::abandon)ed — no heap image is
/// captured and no history is cloned, yet the summary is the one
/// [`summarize_run`](xt_isolate::cumulative::summarize_run) would make of
/// the captured image.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn summarized_run_reusable(
    workload: &dyn Workload,
    input: &WorkloadInput,
    fault: Option<FaultSpec>,
    patches: PatchTable,
    heap_seed: u64,
    fill_probability: f64,
    multiplier: f64,
    stack: &mut ReusableStack,
) -> SummarizedRun {
    let mut diefast = DieFastConfig::cumulative_with_seed(heap_seed);
    diefast.fill_probability = fill_probability;
    diefast.heap.multiplier = multiplier;
    let mut active = stack.start(RunConfig {
        heap_seed,
        diefast,
        patches,
        fault,
        breakpoint: None,
        halt_on_signal: true,
    });
    active.run(workload, input);
    let failed = active.failed();
    let heap = active.heap();
    let history = heap
        .inner()
        .history()
        .expect("cumulative runs require history tracking");
    let summary = summarize_heap(heap, history, failed, fill_probability)
        .expect("the run's own allocator built this heap over an arena it mapped");
    SummarizedRun {
        failed,
        clock: active.abandon().clock,
        summary,
    }
}

/// What one deployed run contributed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunDigest {
    /// 1-based run number.
    pub run: usize,
    /// Whether it failed (signal or crash).
    pub failed: bool,
    /// Whether any site is flagged after folding this run in.
    pub isolated: bool,
}

/// The outcome of driving cumulative mode to isolation (or exhaustion).
#[derive(Clone, Debug)]
pub struct CumulativeOutcome {
    /// Total runs performed.
    pub runs: usize,
    /// Failed runs among them.
    pub failures: usize,
    /// Whether some site was flagged.
    pub isolated: bool,
    /// The generated patches (empty unless isolated).
    pub patches: PatchTable,
    /// Verdicts for flagged sites.
    pub flagged: Vec<Verdict>,
}

/// The cumulative-mode driver: owns the accumulated state across runs,
/// and one [`ReusableStack`] its runs recycle.
#[derive(Debug)]
pub struct CumulativeMode {
    config: CumulativeModeConfig,
    isolator: CumulativeIsolator,
    run_counter: u64,
    stack: ReusableStack,
}

impl CumulativeMode {
    /// Creates a driver with empty accumulated state.
    #[must_use]
    pub fn new(config: CumulativeModeConfig) -> Self {
        CumulativeMode {
            isolator: CumulativeIsolator::new(config.isolator),
            config,
            run_counter: 0,
            stack: ReusableStack::new(),
        }
    }

    /// The accumulated per-site statistics.
    #[must_use]
    pub fn isolator(&self) -> &CumulativeIsolator {
        &self.isolator
    }

    /// Patches for all currently flagged sites.
    #[must_use]
    pub fn patches(&self) -> PatchTable {
        self.isolator.generate_patches()
    }

    /// All flagged verdicts (overflow and dangling families).
    #[must_use]
    pub fn flagged(&self) -> Vec<Verdict> {
        self.isolator
            .overflow_verdicts()
            .into_iter()
            .chain(self.isolator.dangling_verdicts())
            .filter(|v| v.flagged)
            .collect()
    }

    /// Executes one deployed run: fresh heap seed, current patches
    /// applied, summary folded into the accumulated state.
    pub fn run_once(
        &mut self,
        workload: &dyn Workload,
        input: &WorkloadInput,
        fault: Option<FaultSpec>,
    ) -> RunDigest {
        self.run_counter += 1;
        let heap_seed = self
            .config
            .base_seed
            .wrapping_add(self.run_counter.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let mut run_input = input.clone();
        if self.config.vary_input_seed {
            run_input.seed = input.seed.wrapping_add(self.run_counter);
        }
        let run = summarized_run_reusable(
            workload,
            &run_input,
            fault,
            self.patches(),
            heap_seed,
            self.config.isolator.fill_probability,
            self.config.multiplier,
            &mut self.stack,
        );
        self.isolator.record_run(&run.summary);
        RunDigest {
            run: self.run_counter as usize,
            failed: run.failed,
            isolated: !self.flagged().is_empty(),
        }
    }

    /// Persists the accumulated statistics next to the patch file, so a
    /// later process can continue where this one stopped — §3.4:
    /// "Exterminator computes relevant statistics about each run and
    /// stores them in its patch file."
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save_state(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.isolator.to_text())
    }

    /// Restores a driver from state written by [`CumulativeMode::save_state`].
    /// The run counter resumes from the recorded run count.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors. Parse failures, and a file accumulated under
    /// a classifier configuration other than `config`'s (its evidence and
    /// this driver's would silently mix), surface as `InvalidData`.
    pub fn load_state(
        config: CumulativeModeConfig,
        path: impl AsRef<std::path::Path>,
    ) -> std::io::Result<Self> {
        let invalid = |e: String| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
        let text = std::fs::read_to_string(path)?;
        let isolator = CumulativeIsolator::from_text(&text).map_err(invalid)?;
        let expected = config.isolator;
        if *isolator.config() != expected {
            return Err(invalid(format!(
                "cumulative state was accumulated under {:?}, this driver runs {expected:?}",
                isolator.config()
            )));
        }
        let run_counter = isolator.runs() as u64;
        Ok(CumulativeMode {
            config,
            isolator,
            run_counter,
            stack: ReusableStack::new(),
        })
    }

    /// Runs until some site is flagged or `max_runs` is exhausted.
    pub fn run_until_isolated(
        &mut self,
        workload: &dyn Workload,
        input: &WorkloadInput,
        fault: Option<FaultSpec>,
        max_runs: usize,
    ) -> CumulativeOutcome {
        let mut isolated = false;
        for _ in 0..max_runs {
            let digest = self.run_once(workload, input, fault);
            if digest.isolated {
                isolated = true;
                break;
            }
        }
        CumulativeOutcome {
            runs: self.isolator.runs(),
            failures: self.isolator.failures(),
            isolated,
            patches: self.patches(),
            flagged: self.flagged(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xt_faults::FaultKind;
    use xt_workloads::{attack_browsing_session, EspressoLike, MozillaLike};

    #[test]
    fn state_survives_process_restart() {
        // Deployment story: run a few times, "exit", restart from the
        // saved state, and keep accumulating toward isolation.
        let dir = std::env::temp_dir().join("xt_cumulative_state");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.txt");
        let input = WorkloadInput::with_seed(4);
        let mut first = CumulativeMode::new(CumulativeModeConfig::default());
        for _ in 0..5 {
            first.run_once(&EspressoLike::new(), &input, None);
        }
        first.save_state(&path).unwrap();
        let mut resumed =
            CumulativeMode::load_state(CumulativeModeConfig::default(), &path).unwrap();
        assert_eq!(resumed.isolator().runs(), 5);
        let digest = resumed.run_once(&EspressoLike::new(), &input, None);
        assert_eq!(digest.run, 6, "run counter must resume");
        assert_eq!(resumed.isolator().runs(), 6);
        std::fs::remove_file(&path).unwrap();
    }

    /// A state file is trusted no further than its parser checks it: the
    /// two hostile `meta` lines (a 2^62-step grid that used to spin, a NaN
    /// prior that used to flag a single chance observation) and a file
    /// accumulated under another classifier configuration all come back
    /// as `InvalidData`, at once.
    #[test]
    fn load_state_rejects_hostile_and_foreign_files() {
        let dir = std::env::temp_dir().join(format!("xt_cumulative_load_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.txt");
        let load = |config: CumulativeModeConfig| CumulativeMode::load_state(config, &path);
        for hostile in [
            "meta 1 1 10 4 4611686018427387904 0.5\noobs 00000bad 3fe0000000000000 1\n",
            "meta 1 1 10 NaN 512 0.5\noobs 00000bad 3fe0000000000000 1\n",
        ] {
            std::fs::write(&path, hostile).unwrap();
            let start = std::time::Instant::now();
            let err = load(CumulativeModeConfig::default()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{hostile}");
            assert!(start.elapsed() < std::time::Duration::from_secs(1));
        }
        let mut mode = CumulativeMode::new(CumulativeModeConfig::default());
        mode.run_once(&EspressoLike::new(), &WorkloadInput::with_seed(4), None);
        mode.save_state(&path).unwrap();
        assert!(load(CumulativeModeConfig::default()).is_ok());
        let foreign = [
            CumulativeModeConfig {
                isolator: CumulativeConfig {
                    fill_probability: 0.25,
                    ..CumulativeConfig::default()
                },
                ..CumulativeModeConfig::default()
            },
            CumulativeModeConfig {
                isolator: CumulativeConfig {
                    prior_c: 2.0,
                    ..CumulativeConfig::default()
                },
                ..CumulativeModeConfig::default()
            },
            CumulativeModeConfig {
                isolator: CumulativeConfig {
                    integration_steps: 64,
                    ..CumulativeConfig::default()
                },
                ..CumulativeModeConfig::default()
            },
        ];
        for config in foreign {
            let err = load(config.clone()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{config:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The isolator's `p` is the driver's one knob for DieFast's fill
    /// probability: what the caller sets is what the classifier and the
    /// heaps run.
    #[test]
    fn the_isolator_fill_probability_is_the_one_knob() {
        let config = CumulativeModeConfig {
            isolator: CumulativeConfig {
                fill_probability: 0.25,
                ..CumulativeConfig::default()
            },
            ..CumulativeModeConfig::default()
        };
        let mode = CumulativeMode::new(config);
        assert_eq!(mode.isolator().config().fill_probability, 0.25);
    }

    #[test]
    fn clean_runs_never_flag_anything() {
        let mut mode = CumulativeMode::new(CumulativeModeConfig::default());
        for _ in 0..10 {
            let digest = mode.run_once(&EspressoLike::new(), &WorkloadInput::with_seed(4), None);
            assert!(!digest.failed, "clean run failed");
            assert!(!digest.isolated, "false positive");
        }
        assert_eq!(mode.isolator().runs(), 10);
        assert_eq!(mode.isolator().failures(), 0);
        assert!(mode.patches().is_empty());
    }

    #[test]
    fn injected_overflow_is_isolated_across_runs() {
        // Cumulative isolation discriminates by how *unlikely* the culprit
        // site's placement evidence is, so its strength depends on the
        // site's allocation volume — the paper observes exactly this in
        // the second Mozilla study ("the site that produces the overflowed
        // object allocates more correct objects, making it harder to
        // identify it as erroneous"). Select a fault whose culprit comes
        // from a *cold* site, like Mozilla's rarely-executed IDN path.
        let input = WorkloadInput::with_seed(6).intensity(3);
        let reference = {
            let mut config = crate::runner::RunConfig::with_seed(424242);
            config.diefast = DieFastConfig::cumulative_with_seed(424242);
            crate::runner::execute(&EspressoLike::new(), &input, config)
        };
        let history = reference.history.expect("history tracked");
        let mut fault = None;
        for t in (120..500u64).step_by(7) {
            let Some(rec) = history.get(xt_alloc::ObjectId::from_raw(t)) else {
                continue;
            };
            let site_objects = history.records_from_site(rec.alloc_site).count();
            if site_objects > 3 {
                continue; // hot site: weak per-run evidence
            }
            let candidate = crate::runner::find_manifesting_fault(
                &EspressoLike::new(),
                &input,
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
            if candidate.is_some() {
                fault = candidate;
                break;
            }
        }
        let fault = fault.expect("no manifesting cold-site overflow found");
        let mut mode = CumulativeMode::new(CumulativeModeConfig::default());
        let outcome = mode.run_until_isolated(&EspressoLike::new(), &input, Some(fault), 250);
        assert!(outcome.isolated, "never isolated in {} runs", outcome.runs);
        assert!(
            !outcome.patches.is_empty(),
            "flagged but no patch generated"
        );
        assert!(outcome.failures >= 2, "failures: {}", outcome.failures);
    }

    #[test]
    fn mozilla_attack_is_isolated_despite_nondeterminism() {
        let input = WorkloadInput::with_seed(50).payload(attack_browsing_session(4));
        let mut mode = CumulativeMode::new(CumulativeModeConfig {
            vary_input_seed: true,
            ..CumulativeModeConfig::default()
        });
        let outcome = mode.run_until_isolated(&MozillaLike::new(), &input, None, 120);
        assert!(outcome.isolated, "IDN overflow never isolated");
        let pads: Vec<_> = outcome.patches.pads().collect();
        assert!(!pads.is_empty(), "no pad generated: {:?}", outcome.flagged);
        // The pad must cover the 8-byte overflow.
        assert!(
            pads.iter().any(|&(_, p)| p >= 8),
            "pads too small: {pads:?}"
        );
    }
}
