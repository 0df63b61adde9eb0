//! Shared run machinery: builds the allocator stack, executes one
//! workload run, and captures what the modes need afterwards — on
//! request.
//!
//! The paper dumps a heap image when it *detects an error* (§3.4), not
//! after every run, so "did this run fail?" and "dump the heap" are two
//! questions with two answers. After [`ActiveRun::run`] the heap is still
//! standing and [`ActiveRun::failed`] already knows the verdict; the
//! caller then either pays for the evidence ([`ActiveRun::finish`]:
//! image, history, injection log → [`RunRecord`]) or walks away with the
//! verdict alone ([`ActiveRun::abandon`] → [`RunVerdict`]: result, signals,
//! clock). [`probe_failed`] is the walk-away path as one call.
//!
//! Who captures: [`execute`] (every caller that reads the record),
//! iterative mode's *failed* discovery runs and all of its replays (on
//! whichever of its two lanes ran them), and the
//! [`pool`](crate::pool)'s detection-aligned replays of a failed job.
//! Who walks away: every other pool run (the vote, the replica
//! summaries and the replay's breakpoint need the verdict, not the heap),
//! iterative mode's clean discovery and verification runs,
//! [`find_manifesting_fault`], the fleet simulator's `verified_corrected`,
//! and every cumulative-mode run — it reads the standing heap for its
//! per-site summary (corruptions scanned in place, history borrowed) and
//! then abandons it
//! ([`summarized_run_reusable`](crate::cumulative::summarized_run_reusable)).

use xt_alloc::{AllocTime, Heap as _};
use xt_correct::CorrectingHeap;
use xt_diefast::{DieFastConfig, DieFastHeap, ErrorSignal};
use xt_diehard::ObjectLog;
use xt_faults::{FaultSpec, FaultyHeap, InjectedEvent};
use xt_image::HeapImage;
use xt_patch::PatchTable;
use xt_workloads::{CrashKind, RunOutcome, RunResult, Workload, WorkloadInput};

/// Configuration for one execution.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Heap randomization seed for this run/replica.
    pub heap_seed: u64,
    /// DieFast configuration (fill probability, zero-fill, history).
    pub diefast: DieFastConfig,
    /// Runtime patches to apply.
    pub patches: PatchTable,
    /// Fault to inject, if any.
    pub fault: Option<FaultSpec>,
    /// Malloc breakpoint: stop when the allocation clock reaches this
    /// value (iterative replays, §3.4).
    pub breakpoint: Option<AllocTime>,
    /// Stop at the first DieFast signal (iterative discovery runs).
    pub halt_on_signal: bool,
}

impl RunConfig {
    /// A plain run: given seed, no patches, no faults, no stops.
    #[must_use]
    pub fn with_seed(heap_seed: u64) -> Self {
        RunConfig {
            heap_seed,
            diefast: DieFastConfig::with_seed(heap_seed),
            patches: PatchTable::new(),
            fault: None,
            breakpoint: None,
            halt_on_signal: false,
        }
    }
}

/// Everything captured from one execution. Two records compare equal when
/// the executions were observationally identical — result, signals, heap
/// image, history, injection log, and clock (the reused-stack determinism
/// tests rely on this).
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// The workload's outcome and output.
    pub result: RunResult,
    /// DieFast error signals raised during the run.
    pub signals: Vec<ErrorSignal>,
    /// Heap image captured at the end (completion, crash, or breakpoint) —
    /// the dump a real Exterminator writes from its signal handler.
    pub image: HeapImage,
    /// Full allocation history, when the configuration tracked it.
    pub history: Option<ObjectLog>,
    /// What the fault injector did.
    pub injected: Vec<InjectedEvent>,
    /// Final allocation clock.
    pub clock: AllocTime,
}

/// The one failure predicate behind [`RunRecord::failed`] and
/// [`RunVerdict::failed`] (signals already drained) and
/// [`ActiveRun::failed`] (signals still pending in the heap).
fn is_failure(signalled: bool, outcome: &RunOutcome) -> bool {
    signalled
        || match outcome {
            RunOutcome::Completed | RunOutcome::Crashed(CrashKind::Breakpoint) => false,
            RunOutcome::Crashed(_) => true,
        }
}

impl RunRecord {
    /// Whether this run counts as a *failure* for the runtime: a DieFast
    /// signal, or any crash other than the malloc breakpoint (which is the
    /// runtime's own stop mechanism).
    #[must_use]
    pub fn failed(&self) -> bool {
        is_failure(!self.signals.is_empty(), &self.result.outcome)
    }

    /// Whether the run was cut short by the malloc breakpoint.
    #[must_use]
    pub fn hit_breakpoint(&self) -> bool {
        matches!(
            self.result.outcome,
            RunOutcome::Crashed(CrashKind::Breakpoint)
        )
    }
}

/// What a run leaves behind when nobody dumps its heap: everything of a
/// [`RunRecord`] that does not need the heap to be read — and, field for
/// field, what the record of the same run would say.
#[derive(Clone, Debug, PartialEq)]
pub struct RunVerdict {
    /// The workload's outcome and output.
    pub result: RunResult,
    /// DieFast error signals raised during the run.
    pub signals: Vec<ErrorSignal>,
    /// Final allocation clock.
    pub clock: AllocTime,
}

impl RunVerdict {
    /// [`RunRecord::failed`], without the record.
    #[must_use]
    pub fn failed(&self) -> bool {
        is_failure(!self.signals.is_empty(), &self.result.outcome)
    }
}

/// A reusable execution engine: holds a recycled [`Arena`](xt_arena::Arena)
/// across runs, so a long-lived worker (a [`pool`](crate::pool) replica, a
/// fleet-simulator client) builds translation structures once and *resets*
/// them between inputs instead of rebuilding them — the paper's replicas
/// are persistent processes, and persistent processes do not pay process
/// startup per request.
///
/// One-shot callers use [`execute`]; repeated callers keep one
/// `ReusableStack` and drive [`ReusableStack::start`], [`ActiveRun::run`]
/// and [`ActiveRun::finish`] themselves, or call [`probe_failed`] when the
/// verdict is all they read (driving the steps also lets a caller observe
/// the run's output — or its [`ActiveRun::failed`] bit — before deciding
/// whether the heap image is worth capturing).
#[derive(Debug, Default)]
pub struct ReusableStack {
    arena: Option<xt_arena::Arena>,
}

impl ReusableStack {
    /// Creates an engine with no recycled arena yet (the first run builds
    /// one).
    #[must_use]
    pub fn new() -> Self {
        ReusableStack::default()
    }

    /// Builds the allocator stack for one run — fault injector → correcting
    /// allocator → DieFast → DieHard → arena — over the recycled address
    /// space, and returns the run ready to execute.
    pub fn start(&mut self, config: RunConfig) -> ActiveRun<'_> {
        let mut diefast_config = config.diefast;
        diefast_config.heap.seed = config.heap_seed;
        let arena = self.arena.take().unwrap_or_default();
        let mut diefast = DieFastHeap::with_arena(diefast_config, arena);
        diefast.set_breakpoint(config.breakpoint);
        diefast.set_halt_on_signal(config.halt_on_signal);
        let correcting = CorrectingHeap::new(diefast, config.patches);
        ActiveRun {
            home: self,
            stack: FaultyHeap::new(correcting, config.fault),
            result: None,
        }
    }
}

/// One run in flight over a [`ReusableStack`]. After [`ActiveRun::run`]
/// the heap is still standing: the error path asks [`ActiveRun::failed`]
/// here, so a clean run is [`abandon`](ActiveRun::abandon)ed without ever
/// being dumped, and a pool replica that is not replaying a failure walks
/// away with its [`RunVerdict`] the same way.
#[derive(Debug)]
pub struct ActiveRun<'a> {
    home: &'a mut ReusableStack,
    stack: FaultyHeap<CorrectingHeap<DieFastHeap>>,
    result: Option<RunResult>,
}

impl ActiveRun<'_> {
    /// Executes the workload to completion (or crash) and returns its
    /// result. The heap stays standing for [`ActiveRun::finish`].
    pub fn run(&mut self, workload: &dyn Workload, input: &WorkloadInput) -> &RunResult {
        let result = workload.run(&mut self.stack, input);
        self.result.insert(result)
    }

    /// Whether the completed run counts as a failure — exactly what
    /// [`RunRecord::failed`] will say of the record [`ActiveRun::finish`]
    /// returns (capture reads the heap, it raises no signal), answered
    /// before any image exists.
    ///
    /// # Panics
    ///
    /// Panics if called before [`ActiveRun::run`].
    #[must_use]
    pub fn failed(&self) -> bool {
        let result = self
            .result
            .as_ref()
            .expect("failed() requires a completed run()");
        is_failure(self.heap().has_signals(), &result.outcome)
    }

    /// The standing DieFast heap (over its DieHard heap and arena), for
    /// readers that need less than an image — cumulative mode summarises
    /// it in place.
    pub(crate) fn heap(&self) -> &DieFastHeap {
        self.stack.inner().inner()
    }

    /// Tears the stack down and recycles the arena back into the owning
    /// [`ReusableStack`] *without* capturing anything: the run's image,
    /// history and injection log are dropped; its result, signals and
    /// clock come back as the [`RunVerdict`].
    ///
    /// # Panics
    ///
    /// Panics if called before [`ActiveRun::run`].
    pub fn abandon(self) -> RunVerdict {
        let result = self.result.expect("abandon() requires a completed run()");
        let mut diefast = self.stack.into_inner().into_inner();
        let signals = diefast.take_signals();
        let clock = diefast.inner().clock();
        self.home.arena = Some(diefast.into_inner().into_arena());
        RunVerdict {
            result,
            signals,
            clock,
        }
    }

    /// Captures the heap image, tears the stack down, and recycles the
    /// arena back into the owning [`ReusableStack`].
    ///
    /// # Panics
    ///
    /// Panics if called before [`ActiveRun::run`].
    #[must_use]
    pub fn finish(self) -> RunRecord {
        let injected = self.stack.events().to_vec();
        let diefast = self.heap();
        let image = HeapImage::try_capture(diefast)
            .expect("the run's own allocator built this heap over an arena it mapped");
        let history = diefast.inner().history().cloned();
        let RunVerdict {
            result,
            signals,
            clock,
        } = self.abandon();
        RunRecord {
            result,
            signals,
            image,
            history,
            injected,
            clock,
        }
    }
}

/// Executes one run of `workload` over a freshly built allocator stack:
/// fault injector → correcting allocator → DieFast → DieHard → arena.
/// A run driven through the same three steps over a recycled
/// [`ReusableStack`] is byte-for-byte identical (the determinism tests pin
/// this); only the allocation cost differs.
#[must_use]
pub fn execute(workload: &dyn Workload, input: &WorkloadInput, config: RunConfig) -> RunRecord {
    let mut stack = ReusableStack::new();
    let mut active = stack.start(config);
    active.run(workload, input);
    active.finish()
}

/// Runs `config` over `stack`'s recycled address space and returns only
/// whether the run failed — [`execute`]`(..).failed()` on a recycled stack,
/// without the heap image, history and injection log nobody was going to
/// read.
/// Detection-only callers (fault screening, verification runs, clean
/// re-discovery) use this; anything that isolates needs the record.
#[must_use]
pub fn probe_failed(
    workload: &dyn Workload,
    input: &WorkloadInput,
    config: RunConfig,
    stack: &mut ReusableStack,
) -> bool {
    let mut active = stack.start(config);
    active.run(workload, input);
    active.abandon().failed()
}

/// Reproduces the paper's fault-selection methodology (§7.2): "we run the
/// injector using a random seed until it triggers an error or divergent
/// output. We next use this seed to deterministically trigger a single
/// error in Exterminator."
///
/// Candidate triggers are sampled from `[trigger_lo, trigger_hi)`; each is
/// probed over `probe_runs` differently-randomized heaps. The first fault
/// that manifests (signal or crash) in some probe run is returned.
/// Injected faults that stay benign — e.g. an overflow absorbed by size-class
/// rounding — are discarded, exactly as the paper discards injector seeds
/// that trigger no error. An empty range (`trigger_hi <= trigger_lo`) has
/// no candidate, so it finds nothing.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn find_manifesting_fault(
    workload: &dyn Workload,
    input: &WorkloadInput,
    kind: xt_faults::FaultKind,
    trigger_lo: u64,
    trigger_hi: u64,
    attempts: usize,
    probe_runs: usize,
    selection_seed: u64,
) -> Option<FaultSpec> {
    if trigger_hi <= trigger_lo {
        return None;
    }
    let mut rng = xt_arena::Rng::new(selection_seed ^ 0xF1AD_5EED);
    let mut stack = ReusableStack::new();
    for attempt in 0..attempts {
        let spec = FaultSpec {
            kind,
            trigger: AllocTime::from_raw(trigger_lo + rng.below(trigger_hi - trigger_lo)),
        };
        for probe in 0..probe_runs {
            let mut config =
                RunConfig::with_seed(selection_seed ^ (attempt as u64 * 131 + probe as u64 + 1));
            config.fault = Some(spec);
            config.halt_on_signal = true;
            if probe_failed(workload, input, config, &mut stack) {
                return Some(spec);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use xt_alloc::AllocTime;
    use xt_faults::FaultKind;
    use xt_workloads::EspressoLike;

    #[test]
    fn clean_run_is_not_a_failure() {
        let rec = execute(
            &EspressoLike::new(),
            &WorkloadInput::with_seed(1),
            RunConfig::with_seed(7),
        );
        assert!(rec.result.completed());
        assert!(!rec.failed());
        assert!(rec.signals.is_empty());
        assert!(rec.clock.raw() > 100);
        assert_eq!(rec.image.clock, rec.clock);
    }

    #[test]
    fn breakpoint_stops_run_without_failing_it() {
        let mut config = RunConfig::with_seed(8);
        config.breakpoint = Some(AllocTime::from_raw(50));
        let rec = execute(&EspressoLike::new(), &WorkloadInput::with_seed(1), config);
        assert!(rec.hit_breakpoint());
        assert!(!rec.failed());
        assert_eq!(rec.clock, AllocTime::from_raw(50));
    }

    #[test]
    fn injected_overflow_eventually_signals() {
        // Select a manifesting fault (overflows absorbed by size-class
        // rounding are benign, §7.2 methodology), then check that a good
        // share of randomized runs observe it.
        let input = WorkloadInput::with_seed(3).intensity(3);
        let fault = find_manifesting_fault(
            &EspressoLike::new(),
            &input,
            FaultKind::BufferOverflow {
                delta: 20,
                fill: 0xEE,
            },
            100,
            300,
            20,
            4,
            99,
        )
        .expect("no manifesting fault");
        let mut failures = 0;
        for seed in 0..8 {
            let mut config = RunConfig::with_seed(1000 + seed);
            config.fault = Some(fault);
            config.halt_on_signal = true;
            let rec = execute(&EspressoLike::new(), &input, config);
            if rec.failed() {
                failures += 1;
                assert!(
                    !rec.signals.is_empty() || !rec.result.completed(),
                    "failure without evidence"
                );
            }
        }
        assert!(failures >= 3, "only {failures}/8 runs observed the fault");
    }

    #[test]
    fn empty_trigger_range_finds_no_fault() {
        let input = WorkloadInput::with_seed(3).intensity(3);
        let kind = FaultKind::BufferOverflow {
            delta: 20,
            fill: 0xEE,
        };
        let find =
            |lo, hi| find_manifesting_fault(&EspressoLike::new(), &input, kind, lo, hi, 20, 4, 99);
        // The one-trigger range next door finds a fault, so only an empty
        // range can make the ones below come back empty.
        assert!(find(204, 205).is_some(), "the control found nothing");
        for (lo, hi) in [(204, 204), (205, 204), (300, 100)] {
            assert_eq!(find(lo, hi), None, "[{lo}, {hi})");
        }
    }

    /// The no-leak pin for pooled reuse: a run over a recycled arena (with
    /// arbitrary prior state) is observationally identical to the same run
    /// over a fresh stack — result, signals, image, history, clock —
    /// whether the prior runs were captured ([`ActiveRun::finish`]) or
    /// walked away from ([`ActiveRun::abandon`], clean and faulty).
    #[test]
    fn reused_stack_runs_are_identical_to_fresh_runs() {
        let input = WorkloadInput::with_seed(11).intensity(2);
        let overflow_at = |trigger| FaultSpec {
            kind: FaultKind::BufferOverflow {
                delta: 20,
                fill: 0xEE,
            },
            trigger: AllocTime::from_raw(trigger),
        };
        let config = || {
            let mut c = RunConfig::with_seed(31337);
            c.diefast = DieFastConfig::cumulative_with_seed(31337);
            c.fault = Some(overflow_at(140));
            c
        };
        let fresh = execute(&EspressoLike::new(), &input, config());
        // An unrelated prior run: different seed and workload input, clean
        // or (odd `prior`) with a fault that leaves signals pending and a
        // corrupted heap behind.
        let prior_config = |prior: u64| {
            let mut c = RunConfig::with_seed(777 + prior);
            c.fault = (prior % 2 == 1).then(|| overflow_at(120 + prior));
            c
        };
        for (captured, abandoned) in [(2, 0), (0, 1), (0, 2), (2, 1), (2, 4), (0, 4)] {
            let mut stack = ReusableStack::new();
            let mut abandoned_failures = 0;
            for prior in 0..captured + abandoned {
                let mut active = stack.start(prior_config(prior));
                active.run(&EspressoLike::new(), &WorkloadInput::with_seed(90 + prior));
                if prior < captured {
                    let _ = active.finish();
                } else {
                    abandoned_failures += usize::from(active.abandon().failed());
                }
                assert!(stack.arena.is_some(), "teardown lost the recycled arena");
            }
            assert!(
                abandoned < 2 || abandoned_failures > 0,
                "no abandoned prior run was faulty: the test lost its teeth"
            );
            let mut active = stack.start(config());
            active.run(&EspressoLike::new(), &input);
            let reused = active.finish();
            assert_eq!(
                fresh, reused,
                "recycled arena leaked state into the run after {captured} captured and \
                 {abandoned} abandoned run(s)"
            );
        }
    }

    /// `ActiveRun::failed` — asked before any image exists — equals
    /// `RunRecord::failed` of the record `finish` then returns, over faults
    /// × `halt_on_signal` × `breakpoint` × seeds; the [`RunVerdict`] the
    /// walk-away path returns for the same run on a fresh stack equals the
    /// record's `result`/`signals`/`clock` field for field, and
    /// [`probe_failed`] agrees with all of them. The grid must reach every way a
    /// verdict is made: signals alone (run completed, or halted at the
    /// runtime's own breakpoint crash), a real crash with no signal, and
    /// clean runs with and without a breakpoint stop.
    #[test]
    fn failed_before_capture_equals_failed_after() {
        let input = WorkloadInput::with_seed(6).intensity(3);
        let overflow = |delta| FaultKind::BufferOverflow { delta, fill: 0xEE };
        let mut faults = vec![None];
        for kind in [
            overflow(4),
            overflow(20),
            overflow(36),
            FaultKind::DanglingFree { lag: 12 },
            FaultKind::DanglingFree { lag: 3 },
        ] {
            for trigger in [102, 124, 185, 205] {
                faults.push(Some(FaultSpec {
                    kind,
                    trigger: AllocTime::from_raw(trigger),
                }));
            }
        }
        let (mut by_signal_only, mut by_crash_only, mut clean, mut stopped_clean) = (0, 0, 0, 0);
        let mut stack = ReusableStack::new();
        for &fault in &faults {
            for halt_on_signal in [false, true] {
                for breakpoint in [None, Some(60), Some(150), Some(400)] {
                    for seed in 0..3 {
                        let config = || {
                            let mut c = RunConfig::with_seed(5000 + seed);
                            c.fault = fault;
                            c.halt_on_signal = halt_on_signal;
                            c.breakpoint = breakpoint.map(AllocTime::from_raw);
                            c
                        };
                        let mut active = stack.start(config());
                        active.run(&EspressoLike::new(), &input);
                        let before = active.failed();
                        let rec = active.finish();
                        let case = format!(
                            "{fault:?} halt={halt_on_signal} breakpoint={breakpoint:?} seed={seed}"
                        );
                        assert_eq!(before, rec.failed(), "verdict moved across capture: {case}");
                        let mut fresh = ReusableStack::new();
                        let mut walked = fresh.start(config());
                        walked.run(&EspressoLike::new(), &input);
                        let verdict = walked.abandon();
                        assert_eq!(
                            (&verdict.result, &verdict.signals, verdict.clock),
                            (&rec.result, &rec.signals, rec.clock),
                            "walking away and capturing disagree: {case}"
                        );
                        assert_eq!(verdict.failed(), rec.failed(), "{case}");
                        assert_eq!(
                            before,
                            probe_failed(&EspressoLike::new(), &input, config(), &mut fresh),
                            "probe disagrees with the captured run: {case}"
                        );
                        let crashed = !rec.result.completed() && !rec.hit_breakpoint();
                        match (rec.signals.is_empty(), crashed) {
                            (false, false) => by_signal_only += 1,
                            (true, true) => by_crash_only += 1,
                            (true, false) if rec.hit_breakpoint() => stopped_clean += 1,
                            (true, false) => clean += 1,
                            (false, true) => {}
                        }
                    }
                }
            }
        }
        assert!(
            by_signal_only > 0 && by_crash_only > 0 && clean > 0 && stopped_clean > 0,
            "grid misses a verdict path: signal-only {by_signal_only}, crash-only \
             {by_crash_only}, clean {clean}, clean at breakpoint {stopped_clean}"
        );
    }

    #[test]
    fn history_is_captured_when_tracked() {
        let mut config = RunConfig::with_seed(9);
        config.diefast = DieFastConfig::cumulative_with_seed(9);
        let rec = execute(&EspressoLike::new(), &WorkloadInput::with_seed(2), config);
        let history = rec.history.expect("history enabled");
        assert_eq!(history.len() as u64, rec.clock.raw());
    }
}
