//! Iterative mode (§3.4): replay-based isolation and repair.
//!
//! "To find a single bug, Exterminator is initially invoked via a
//! command-line option that directs it to stop as soon as it detects an
//! error. Exterminator then re-executes the program in 'replay' mode over
//! the same input (but with a new random seed). ... Exterminator reads
//! the allocation time from the initial heap image to abort execution at
//! that point; we call this a *malloc breakpoint*."
//!
//! [`IterativeMode::repair`] drives the full loop: discover → replay to
//! collect `k` independently randomized images at the same logical time →
//! isolate → patch → verify, repeating while errors remain (each round
//! isolates one error) up to a configured bound.
//!
//! **Who dumps a heap image.** The paper dumps on error, and so does this
//! loop, over one [`ReusableStack`] kept for the whole call. A *discovery*
//! run is asked [`ActiveRun::failed`](crate::runner::ActiveRun::failed)
//! first and captured only when it did fail — its image is the round's
//! first piece of evidence and its clock the malloc breakpoint. The clean
//! discovery runs that end a repair (`discovery_attempts` of them, all
//! passing) and the final *verification* run are probes
//! ([`probe_failed`]): only their verdict is read, so no image is taken.
//! *Replays* always capture: a replay exists to produce an image at the
//! breakpoint, its own failed bit is never read ("ignore signals raised
//! before it"), and isolation needs all `k` of them. Seeds are drawn in
//! the same order whichever way a run ends, so outcomes are identical to
//! capturing every run (`tests/repair_golden.rs` pins them).

use xt_alloc::AllocTime;
use xt_diefast::DieFastConfig;
use xt_faults::FaultSpec;
use xt_image::HeapImage;
use xt_isolate::iterative::{isolate_with, IsolateOptions};
use xt_isolate::IsolationReport;
use xt_patch::PatchTable;
use xt_workloads::{CrashKind, RunOutcome, Workload, WorkloadInput};

use crate::runner::{execute_reusable, probe_failed, ReusableStack, RunConfig};

/// Configuration for iterative repair.
#[derive(Clone, Debug)]
pub struct IterativeConfig {
    /// Initial images per round, including the discovery run's (the
    /// paper's espresso experiments needed 3 in every case, §7.2).
    pub images: usize,
    /// Upper bound on images per round: when isolation comes up empty the
    /// round keeps generating replays ("this process can be repeated
    /// multiple times to generate independent heap images", §3.4) until
    /// this many have been collected.
    pub max_images: usize,
    /// Maximum discover–isolate–patch rounds before giving up.
    pub max_rounds: usize,
    /// Base seed; every run derives a fresh heap seed from it.
    pub base_seed: u64,
    /// DieFast configuration (iterative mode always canaries: `p = 1`).
    pub diefast: DieFastConfig,
    /// Isolation tuning.
    pub options: IsolateOptions,
    /// Differently-randomized discovery attempts before concluding that no
    /// error manifests. Detection is probabilistic (Theorem 2), so one
    /// clean run is weak evidence; the paper likewise re-runs its injector
    /// "until it triggers an error or divergent output" (§7.2).
    pub discovery_attempts: usize,
}

impl Default for IterativeConfig {
    fn default() -> Self {
        IterativeConfig {
            images: 3,
            max_images: 12,
            max_rounds: 8,
            base_seed: 0x17E2_A71F,
            diefast: DieFastConfig::with_seed(0),
            options: IsolateOptions::default(),
            discovery_attempts: 6,
        }
    }
}

/// How a failing discovery run manifested.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// DieFast signalled canary corruption.
    Signal,
    /// The program crashed with a simulated segfault.
    SegFault,
    /// The program aborted on its own invariant check (e.g. after reading
    /// a canary through a dangling pointer — §7.2's unisolatable case).
    SelfAbort,
    /// The allocator gave out (treated as failure).
    HeapExhausted,
}

/// One discover–isolate–patch round.
#[derive(Clone, Debug)]
pub struct RoundReport {
    /// The malloc breakpoint (detection time) used for replays.
    pub breakpoint: AllocTime,
    /// How the discovery run failed.
    pub failure: FailureKind,
    /// What isolation concluded.
    pub report: IsolationReport,
    /// Patches added this round.
    pub new_patches: PatchTable,
    /// Images captured this round.
    pub images: usize,
}

/// The outcome of a full repair session.
#[derive(Clone, Debug)]
pub struct IterativeOutcome {
    /// Merged patches from all rounds.
    pub patches: PatchTable,
    /// Per-round detail.
    pub rounds: Vec<RoundReport>,
    /// Whether the final verification run was clean.
    pub fixed: bool,
    /// Total heap images captured across all rounds.
    pub images_used: usize,
}

/// The iterative-mode driver.
#[derive(Clone, Debug)]
pub struct IterativeMode {
    config: IterativeConfig,
    seed_counter: u64,
}

impl IterativeMode {
    /// Creates a driver.
    #[must_use]
    pub fn new(config: IterativeConfig) -> Self {
        IterativeMode {
            config,
            seed_counter: 0,
        }
    }

    fn next_seed(&mut self) -> u64 {
        self.seed_counter += 1;
        self.config
            .base_seed
            .wrapping_add(self.seed_counter.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn run_config(&mut self, patches: PatchTable, fault: Option<FaultSpec>) -> RunConfig {
        RunConfig {
            heap_seed: self.next_seed(),
            diefast: self.config.diefast.clone(),
            patches,
            fault,
            breakpoint: None,
            halt_on_signal: false,
        }
    }

    /// Runs the full discover–isolate–patch–verify loop.
    pub fn repair(
        &mut self,
        workload: &dyn Workload,
        input: &WorkloadInput,
        fault: Option<FaultSpec>,
    ) -> IterativeOutcome {
        let mut stack = ReusableStack::new();
        let mut patches = PatchTable::new();
        let mut rounds = Vec::new();
        let mut images_used = 0;
        let mut empty_rounds_in_a_row = 0;

        for _ in 0..self.config.max_rounds {
            // Discovery: re-run under fresh randomization until an error is
            // detected; several clean attempts mean the program is (now)
            // clean with high probability (Theorem 2). Only a failing run
            // is dumped.
            let mut detected = None;
            for _ in 0..self.config.discovery_attempts.max(1) {
                let mut discover = self.run_config(patches.clone(), fault);
                discover.halt_on_signal = true;
                let mut run = stack.start(discover);
                run.run(workload, input);
                if run.failed() {
                    detected = Some(run.finish());
                    break;
                }
                run.abandon();
            }
            let Some(rec) = detected else {
                // Clean under current patches: repaired.
                return IterativeOutcome {
                    patches,
                    rounds,
                    fixed: true,
                    images_used,
                };
            };
            let failure = match (&rec.result.outcome, rec.signals.is_empty()) {
                (_, false) => FailureKind::Signal,
                (RunOutcome::Crashed(CrashKind::SegFault(_)), _) => FailureKind::SegFault,
                (RunOutcome::Crashed(CrashKind::SelfAbort(_)), _) => FailureKind::SelfAbort,
                _ => FailureKind::HeapExhausted,
            };
            let breakpoint = rec.clock;
            let mut images: Vec<HeapImage> = vec![rec.image];
            images_used += 1;

            // Replays: same input, new seeds, stop at the breakpoint,
            // ignore signals raised before it. If isolation comes up
            // empty, escalate with additional independent images — each
            // extra image cuts the miss probability per Theorem 2.
            let mut target = self.config.images.max(2);
            let (report, new_patches) = loop {
                while images.len() < target {
                    let mut replay = self.run_config(patches.clone(), fault);
                    replay.breakpoint = Some(breakpoint);
                    let rec = execute_reusable(workload, input, replay, &mut stack);
                    images_used += 1;
                    images.push(rec.image);
                }
                let report = isolate_with(&images, self.config.options).unwrap_or_default();
                let new_patches = report.to_patches();
                if !new_patches.is_empty() || target >= self.config.max_images {
                    break (report, new_patches);
                }
                target = (target + 2).min(self.config.max_images);
            };
            let made_progress = !new_patches.is_empty();
            // §6.2 iteration: deferrals compound across rounds (the
            // recorded free time shifts once a deferral is applied), pads
            // merge by max.
            patches.escalate(&new_patches);
            rounds.push(RoundReport {
                breakpoint,
                failure,
                report,
                new_patches,
                images: images.len(),
            });
            if made_progress {
                empty_rounds_in_a_row = 0;
            } else {
                empty_rounds_in_a_row += 1;
                // Two consecutive rounds with nothing isolatable (e.g. a
                // read-only dangling pointer in iterative mode, §7.2):
                // give up rather than loop. A single empty round can just
                // be an unluckily manifesting failure mode.
                if empty_rounds_in_a_row >= 2 {
                    return IterativeOutcome {
                        patches,
                        rounds,
                        fixed: false,
                        images_used,
                    };
                }
            }
        }

        // Final verification: only the verdict is read.
        let verify = self.run_config(patches.clone(), fault);
        IterativeOutcome {
            fixed: !probe_failed(workload, input, verify, &mut stack),
            patches,
            rounds,
            images_used,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xt_alloc::SitePair;
    use xt_faults::{FaultKind, INJECTED_FREE_SITE};
    use xt_workloads::EspressoLike;

    /// Selects an overflow fault that actually manifests on this input —
    /// the paper's own methodology (§7.2): injector seeds whose fault is
    /// absorbed by size-class rounding trigger no error and are discarded.
    fn manifesting_overflow(input: &WorkloadInput, delta: u32, seed: u64) -> FaultSpec {
        crate::runner::find_manifesting_fault(
            &EspressoLike::new(),
            input,
            FaultKind::BufferOverflow { delta, fill: 0xEE },
            100,
            300,
            20,
            4,
            seed,
        )
        .expect("no manifesting overflow found")
    }

    #[test]
    fn clean_program_needs_no_rounds() {
        let mut mode = IterativeMode::new(IterativeConfig::default());
        let outcome = mode.repair(&EspressoLike::new(), &WorkloadInput::with_seed(5), None);
        assert!(outcome.fixed);
        assert!(outcome.rounds.is_empty());
        assert!(outcome.patches.is_empty());
    }

    #[test]
    fn injected_overflow_is_repaired() {
        let input = WorkloadInput::with_seed(9).intensity(3);
        let fault = manifesting_overflow(&input, 20, 1);
        let mut mode = IterativeMode::new(IterativeConfig::default());
        let outcome = mode.repair(&EspressoLike::new(), &input, Some(fault));
        assert!(
            outcome.fixed,
            "not repaired in {} rounds",
            outcome.rounds.len()
        );
        assert!(
            !outcome.rounds.is_empty(),
            "a manifesting fault must require at least one round"
        );
        // The pad must be large enough that requested + pad covers the
        // corruption extent observed by isolation.
        let max_pad = outcome.patches.pads().map(|(_, p)| p).max().unwrap_or(0);
        assert!(max_pad >= 4, "pad {max_pad} too small to contain anything");
    }

    #[test]
    fn patched_rerun_is_clean_with_fresh_seeds() {
        let input = WorkloadInput::with_seed(13).intensity(3);
        let fault = manifesting_overflow(&input, 36, 2);
        let mut mode = IterativeMode::new(IterativeConfig::default());
        let outcome = mode.repair(&EspressoLike::new(), &input, Some(fault));
        assert!(outcome.fixed);
        // Re-verify on 3 fresh seeds with the produced patches only.
        let mut stack = ReusableStack::new();
        for seed in 900..903 {
            let mut config = RunConfig::with_seed(seed);
            config.patches = outcome.patches.clone();
            config.fault = Some(fault);
            assert!(
                !probe_failed(&EspressoLike::new(), &input, config, &mut stack),
                "patched run failed under seed {seed}"
            );
        }
    }

    #[test]
    fn injected_dangling_write_produces_deferral_patch() {
        // A dangling free with a short lag: espresso's unchecked `mark`
        // path overwrites the canary — the §4.2 isolatable case. The paper
        // itself isolated only 4 of 10 injected dangling faults in
        // iterative mode (the rest abort on a canary read or cascade), so
        // scan triggers until one isolates, like the paper scans seeds.
        let input = WorkloadInput::with_seed(21).intensity(3);
        let mut repaired = false;
        for i in 0..25u64 {
            let fault = FaultSpec {
                kind: FaultKind::DanglingFree { lag: 10 },
                trigger: AllocTime::from_raw(120 + i * 15),
            };
            let mut mode = IterativeMode::new(IterativeConfig::default());
            let outcome = mode.repair(&EspressoLike::new(), &input, Some(fault));
            let deferral: Vec<(SitePair, u64)> = outcome.patches.deferrals().collect();
            if outcome.fixed && !deferral.is_empty() {
                assert!(
                    deferral.iter().all(|(p, _)| p.free == INJECTED_FREE_SITE),
                    "deferral keyed to the injected free site"
                );
                repaired = true;
                break;
            }
        }
        assert!(
            repaired,
            "no dangling fault was isolated across 25 triggers"
        );
    }

    #[test]
    fn unisolatable_failure_reports_not_fixed() {
        // Trigger a dangling fault whose only effect is a read-crash in
        // most layouts: if isolation finds nothing, the driver must stop
        // with fixed = false instead of looping. We force the situation by
        // giving the isolator impossible requirements.
        let fault = FaultSpec {
            kind: FaultKind::DanglingFree { lag: 3 },
            trigger: AllocTime::from_raw(100),
        };
        let mut config = IterativeConfig {
            images: 2,
            max_rounds: 2,
            ..IterativeConfig::default()
        };
        config.options.min_confirmations = usize::MAX;
        let mut mode = IterativeMode::new(config);
        let outcome = mode.repair(
            &EspressoLike::new(),
            &WorkloadInput::with_seed(33).intensity(3),
            Some(fault),
        );
        // With min_confirmations impossible, overflow reports vanish; only
        // dangling overwrites could patch. Either way the driver
        // terminates within max_rounds.
        assert!(outcome.rounds.len() <= 2);
    }
}
