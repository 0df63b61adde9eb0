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
//! loop, over [`ReusableStack`]s kept for the whole call. A *discovery*
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
//!
//! **Two lanes.** Each run is a pure function of its [`RunConfig`], so
//! the loop runs its independent runs two at a time: one on the calling
//! thread, one on a scoped helper thread with its own stack, spawned once
//! per [`IterativeMode::repair`] call. Seeds are drawn in the order a
//! single lane would draw them, the first of a pair on the caller.
//! Discovery attempts go in pairs (an odd last attempt alone) and the
//! lowest failing attempt wins: when the caller's failed, the helper's run
//! is discarded and the seed drawn early for it is given back, so the next
//! run draws what the serial loop would have. Replays go in pairs while a
//! round needs two or more images, pushed in seed order, the caller's
//! first; a single missing image runs alone. Isolation, the round logic
//! and the verification probe stay on the calling thread. A panic on
//! either lane propagates out of `repair`: the request sender lives inside
//! the thread scope, so a caller-lane panic drops it and ends the helper,
//! and a helper-lane panic fails the caller's wait for its reply.

use std::sync::mpsc::{self, Receiver, Sender};
use std::thread;

use xt_alloc::AllocTime;
use xt_diefast::DieFastConfig;
use xt_faults::FaultSpec;
use xt_image::HeapImage;
use xt_isolate::iterative::{isolate_with, IsolateOptions};
use xt_isolate::IsolationReport;
use xt_patch::PatchTable;
use xt_workloads::{CrashKind, RunOutcome, Workload, WorkloadInput};

use crate::runner::{probe_failed, ReusableStack, RunConfig, RunRecord};

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
    ///
    /// `workload` is `Sync` because the loop's independent runs go two at
    /// a time, one on the calling thread and one on a scoped helper
    /// thread (see "Two lanes" in the module docs). The outcome is the
    /// one a single lane would produce.
    pub fn repair(
        &mut self,
        workload: &(dyn Workload + Sync),
        input: &WorkloadInput,
        fault: Option<FaultSpec>,
    ) -> IterativeOutcome {
        thread::scope(|scope| {
            // The request sender lives in this body, so a panic on the
            // calling lane drops it and ends the helper's `recv`; held
            // outside, `scope` would wait on the helper forever.
            let (requests, helper_requests) = mpsc::channel();
            let (helper_replies, replies) = mpsc::channel();
            scope.spawn(move || {
                let mut stack = ReusableStack::new();
                for (config, keep) in helper_requests {
                    let record = run_lane(workload, input, config, keep, &mut stack);
                    if helper_replies.send(record).is_err() {
                        break;
                    }
                }
            });
            let mut lanes = Lanes {
                workload,
                input,
                stack: ReusableStack::new(),
                requests,
                replies,
            };
            self.repair_on(&mut lanes, fault)
        })
    }

    fn repair_on(&mut self, lanes: &mut Lanes<'_>, fault: Option<FaultSpec>) -> IterativeOutcome {
        let mut patches = PatchTable::new();
        let mut rounds = Vec::new();
        let mut images_used = 0;
        let mut empty_rounds_in_a_row = 0;

        for _ in 0..self.config.max_rounds {
            // Discovery: re-run under fresh randomization until an error is
            // detected; several clean attempts mean the program is (now)
            // clean with high probability (Theorem 2). Only a failing run
            // is dumped.
            let attempts = self.config.discovery_attempts.max(1);
            let mut detected = None;
            let mut attempt = 0;
            while detected.is_none() && attempt < attempts {
                let first = self.discovery_config(&patches, fault);
                let second =
                    (attempt + 1 < attempts).then(|| self.discovery_config(&patches, fault));
                let paired = second.is_some();
                attempt += 1 + usize::from(paired);
                detected = match lanes.run(first, second, Keep::IfFailed) {
                    (Some(rec), _) => {
                        // The serial loop stops here, before drawing the
                        // second attempt's seed: give it back.
                        self.seed_counter -= u64::from(paired);
                        Some(rec)
                    }
                    (None, second) => second,
                };
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
                    let first = self.replay_config(&patches, fault, breakpoint);
                    let second = (target - images.len() >= 2)
                        .then(|| self.replay_config(&patches, fault, breakpoint));
                    let (first, second) = lanes.run(first, second, Keep::Always);
                    for rec in [first, second].into_iter().flatten() {
                        images_used += 1;
                        images.push(rec.image);
                    }
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
            fixed: !probe_failed(lanes.workload, lanes.input, verify, &mut lanes.stack),
            patches,
            rounds,
            images_used,
        }
    }

    fn discovery_config(&mut self, patches: &PatchTable, fault: Option<FaultSpec>) -> RunConfig {
        RunConfig {
            halt_on_signal: true,
            ..self.run_config(patches.clone(), fault)
        }
    }

    fn replay_config(
        &mut self,
        patches: &PatchTable,
        fault: Option<FaultSpec>,
        breakpoint: AllocTime,
    ) -> RunConfig {
        RunConfig {
            breakpoint: Some(breakpoint),
            ..self.run_config(patches.clone(), fault)
        }
    }
}

/// Which runs a lane dumps a heap image for.
#[derive(Clone, Copy, Debug)]
enum Keep {
    /// A discovery attempt: captured only if it failed.
    IfFailed,
    /// A replay: its image is the point, so it is always captured.
    Always,
}

/// One run on one lane's stack: the record when `keep` asks for it,
/// `None` for a clean discovery attempt (abandoned, never dumped).
fn run_lane(
    workload: &dyn Workload,
    input: &WorkloadInput,
    config: RunConfig,
    keep: Keep,
    stack: &mut ReusableStack,
) -> Option<RunRecord> {
    let mut run = stack.start(config);
    run.run(workload, input);
    if matches!(keep, Keep::Always) || run.failed() {
        Some(run.finish())
    } else {
        run.abandon();
        None
    }
}

/// The calling thread's lane, and the channels to the helper's.
struct Lanes<'a> {
    workload: &'a (dyn Workload + Sync),
    input: &'a WorkloadInput,
    stack: ReusableStack,
    requests: Sender<(RunConfig, Keep)>,
    replies: Receiver<Option<RunRecord>>,
}

impl Lanes<'_> {
    /// Runs `first` here and, when there is one, `second` on the helper
    /// at the same time. Results come back in argument order.
    ///
    /// # Panics
    ///
    /// Panics if the helper lane panicked.
    fn run(
        &mut self,
        first: RunConfig,
        second: Option<RunConfig>,
        keep: Keep,
    ) -> (Option<RunRecord>, Option<RunRecord>) {
        let paired = second.is_some();
        if let Some(second) = second {
            self.requests
                .send((second, keep))
                .expect("the helper lane panicked");
        }
        let first = run_lane(self.workload, self.input, first, keep, &mut self.stack);
        let second = if paired {
            self.replies.recv().expect("the helper lane panicked")
        } else {
            None
        };
        (first, second)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    use xt_alloc::SitePair;
    use xt_faults::{FaultKind, INJECTED_FREE_SITE};
    use xt_workloads::{EspressoLike, RunResult};

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

    /// Name of the thread a panic test calls `repair` on: every run on
    /// it is the calling lane's, every other run the helper's.
    const CALLER_LANE: &str = "caller-lane";

    /// How the two attempts of the pair with the panicking one are
    /// ordered.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Order {
        /// The lanes race.
        Race,
        /// The helper's attempt finishes only after the caller panicked:
        /// the caller dies with a request out.
        HelperLast,
        /// The caller panics only after the helper has finished its
        /// attempt and gone back to wait for the next request.
        HelperFirst,
    }

    /// Espresso, except that discovery attempt `attempt` panics. A clean
    /// repair pairs its six attempts, so attempt *k* is run *k* / 2 of
    /// lane *k* % 2 (even: the calling lane, odd: the helper).
    struct PanicsOnAttempt {
        attempt: usize,
        order: Order,
        runs: [AtomicUsize; 2],
        panicked: AtomicBool,
        helper_done: AtomicBool,
        /// Whether the `order` wait saw what it waited for.
        ordered: AtomicBool,
    }

    impl PanicsOnAttempt {
        fn new(attempt: usize, order: Order) -> Self {
            PanicsOnAttempt {
                attempt,
                order,
                runs: [AtomicUsize::new(0), AtomicUsize::new(0)],
                panicked: AtomicBool::new(false),
                helper_done: AtomicBool::new(false),
                ordered: AtomicBool::new(false),
            }
        }
    }

    /// Waits up to 5 s for `flag`; returns whether it was set.
    fn wait_for(flag: &AtomicBool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !flag.load(Ordering::SeqCst) && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
        flag.load(Ordering::SeqCst)
    }

    impl Workload for PanicsOnAttempt {
        fn name(&self) -> &'static str {
            "panics-on-attempt"
        }

        fn run(&self, heap: &mut dyn xt_alloc::Heap, input: &WorkloadInput) -> RunResult {
            let lane = usize::from(thread::current().name() != Some(CALLER_LANE));
            let run = self.runs[lane].fetch_add(1, Ordering::SeqCst);
            let helper_in_pair = (lane, run) == (1, self.attempt / 2);
            if (lane, run) == (self.attempt % 2, self.attempt / 2) {
                if self.order == Order::HelperFirst {
                    self.ordered
                        .store(wait_for(&self.helper_done), Ordering::SeqCst);
                    // Time for its reply to go out.
                    thread::sleep(Duration::from_millis(20));
                }
                self.panicked.store(true, Ordering::SeqCst);
                panic!("attempt {} panicked", self.attempt);
            }
            if helper_in_pair && self.order == Order::HelperLast {
                self.ordered
                    .store(wait_for(&self.panicked), Ordering::SeqCst);
            }
            let result = EspressoLike::new().run(heap, input);
            if helper_in_pair {
                self.helper_done.store(true, Ordering::SeqCst);
            }
            result
        }
    }

    /// Repairs the clean program with `workload` on a fresh thread and
    /// returns the message `repair` panicked with; fails if it returns
    /// instead, or if nothing comes back within 10 s (a lane waits on one
    /// that is gone).
    fn repair_panic_message(workload: &Arc<PanicsOnAttempt>) -> String {
        let (done, outcome) = mpsc::channel();
        let workload = Arc::clone(workload);
        thread::Builder::new()
            .name(CALLER_LANE.to_string())
            .spawn(move || {
                let repair = panic::catch_unwind(AssertUnwindSafe(|| {
                    IterativeMode::new(IterativeConfig::default()).repair(
                        &*workload,
                        &WorkloadInput::with_seed(5),
                        None,
                    )
                }));
                let message = repair.err().map(|payload| {
                    payload
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| payload.downcast_ref::<&str>().map(ToString::to_string))
                        .unwrap_or_default()
                });
                let _ = done.send(message);
            })
            .expect("spawn the calling lane");
        outcome
            .recv_timeout(Duration::from_secs(10))
            .expect("repair hung after a lane panicked")
            .expect("repair returned although a run panicked")
    }

    /// A panic on either lane comes out of `repair` and never hangs it.
    /// `HelperFirst` leaves the helper waiting for a request when the
    /// caller dies, which hangs unless the caller's unwinding drops the
    /// request sender; `HelperLast` makes the helper's reply fail.
    #[test]
    fn a_panic_on_either_lane_propagates() {
        for (attempt, order) in [
            (0, Order::Race),
            (4, Order::Race),
            (2, Order::HelperLast),
            (2, Order::HelperFirst),
            (1, Order::Race),
            (3, Order::Race),
        ] {
            let workload = Arc::new(PanicsOnAttempt::new(attempt, order));
            let message = repair_panic_message(&workload);
            let want = if attempt % 2 == 0 {
                format!("attempt {attempt} panicked")
            } else {
                "the helper lane panicked".to_string()
            };
            assert!(
                message.starts_with(&want),
                "attempt {attempt} {order:?}: {message}"
            );
            assert!(
                order == Order::Race || workload.ordered.load(Ordering::SeqCst),
                "attempt {attempt} {order:?}: the lanes ran out of order, the case lost its teeth"
            );
        }
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
