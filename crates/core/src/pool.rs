//! The persistent replica-pool executor: replicated mode (§3.4, Fig. 5) as
//! a long-lived service instead of a per-input ceremony.
//!
//! The paper's replicas are *processes that keep running*: inputs are
//! broadcast to all of them, outputs are voted on, and a discovered error
//! is patched into the survivors without restarting anything. Tearing the
//! whole replica set down — threads, allocator stacks, page tables — after
//! every single input is a cost real deployments never pay.
//! [`ReplicaPool`] keeps the set alive:
//!
//! * **Persistent workers.** Each replica is one long-lived thread owning a
//!   [`ReusableStack`]: its simulated address space is *reset* between
//!   inputs (leaf tables and slab capacity recycled, see
//!   `xt_arena::Arena::reset`), not rebuilt. A batch of K inputs costs K
//!   executions per worker — not K pool setups.
//! * **Pipelined broadcast.** [`ReplicaPool::submit`] enqueues an input on
//!   every worker's channel and returns immediately; workers drain their
//!   queues back-to-back, so replica 0 can be three inputs ahead of a slow
//!   replica 2. [`ReplicaPool::next_outcome`] completes jobs in submission
//!   order.
//! * **Streaming vote.** Workers publish their output the moment the
//!   workload returns, and the [`StreamingVoter`] folds it into
//!   per-replica digests. A quorum of matching digests yields a verdict
//!   while stragglers are still executing.
//! * **Heaps are dumped on error, not per run.** A replica hands back its
//!   run's verdict — result, signals, clock — and recycles its arena
//!   without capturing anything. Only when a job failed or diverged does
//!   the pool replay it on every worker, halted at the detection clock,
//!   and capture *those* heaps: Fig. 5's "dump all replicas at the
//!   failure point", and the only images isolation reads (§3.4).
//! * **Hot patch reload.** [`ReplicaPool::load_epoch`] joins a fleet
//!   [`PatchEpoch`] into the pool's live table between inputs, and (by
//!   default) patches isolated from the pool's own failures are folded in
//!   the same way — the running workers pick them up on their next input,
//!   no restart.
//!
//! Determinism: a job's outcome depends only on (config seeds, seed
//! index, input, fault, patch table at submit time) — never on thread
//! scheduling. The patch table rides inside each job's broadcast message,
//! the vote partition is computed over the full replica set, and isolation
//! sees the replay's images in replica order. Two pools with identical configs fed
//! identical submissions produce byte-identical outcomes (pinned by the
//! determinism tests); only the [`VoteTiming`] wall-clock observations
//! vary. [`ReplicaPool::submit`] uses the pool-local job index as the seed
//! index; [`ReplicaPool::submit_seeded`] lets a caller that owns a global
//! submission order — the multi-pool [`PoolFrontend`] — pass its own, so a
//! job's outcome is independent of which pool of a sharded front-end it
//! landed on.
//!
//! One pool serves one caller thread. For many concurrent submitters,
//! several pools, and non-blocking completion tickets, see
//! [`PoolFrontend`](crate::frontend::PoolFrontend) — the server front-end
//! layered on this type.
//!
//! [`PoolFrontend`]: crate::frontend::PoolFrontend

use std::collections::VecDeque;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

use xt_diefast::DieFastConfig;
use xt_faults::FaultSpec;
use xt_image::HeapImage;
use xt_isolate::iterative::{isolate_with, IsolateOptions};
use xt_obs::{Histogram, Registry};
use xt_patch::{PatchEpoch, PatchTable};
use xt_workloads::{Workload, WorkloadInput};

use crate::replicated::{ReplicaSummary, ReplicatedOutcome};
use crate::runner::{ReusableStack, RunConfig, RunVerdict};
use crate::voter::{StreamingVoter, VoteResult};

/// Configuration for a [`ReplicaPool`].
#[derive(Clone, Debug)]
pub struct PoolConfig {
    /// Number of persistent replica workers (the paper's experiments
    /// use 3).
    pub replicas: usize,
    /// Base seed; worker `i` running job `j` derives its heap seed from
    /// `(base_seed, i, j)`.
    pub base_seed: u64,
    /// DieFast configuration shared by all replicas (`p = 1`).
    pub diefast: DieFastConfig,
    /// Isolation tuning.
    pub options: IsolateOptions,
    /// Stop a replica at its first DieFast signal, so its heap image is
    /// captured *at detection time* — the paper's signal-handler dump
    /// (§3). Without this, continuing execution can reallocate the
    /// corrupted slot and destroy the canary evidence isolation needs;
    /// with it, a failing replica behaves like a crashing process whose
    /// core is dumped on the spot, while healthy replicas still run to
    /// completion and out-vote it.
    pub halt_on_signal: bool,
    /// Fold patches isolated from this pool's own failures back into the
    /// live table, so later submissions run corrected (§6.1's deployment
    /// loop). Disable for measurement runs that must keep re-observing the
    /// same fault.
    pub auto_patch: bool,
    /// Test instrumentation (the straggler tests and
    /// `examples/replicated_pool.rs` are its only users): delay one
    /// worker before every execution, making it a reproducible straggler
    /// for early-exit vote checks.
    pub straggler: Option<Straggler>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            replicas: 3,
            base_seed: 0x2E11_11CA,
            diefast: DieFastConfig::with_seed(0),
            options: IsolateOptions::default(),
            halt_on_signal: true,
            auto_patch: true,
            straggler: None,
        }
    }
}

/// One deliberately slowed replica (test instrumentation).
#[derive(Clone, Copy, Debug)]
pub struct Straggler {
    /// Worker index to slow down.
    pub replica: usize,
    /// Sleep inserted before each of its executions.
    pub delay: Duration,
}

/// Wall-clock observations of one job's vote (not part of the
/// deterministic outcome — scheduling moves these, never the verdict).
#[derive(Clone, Copy, Debug)]
pub struct VoteTiming {
    /// Replicas that had not yet produced output when the streaming quorum
    /// formed. Nonzero means the vote genuinely exited early.
    pub outstanding_at_verdict: usize,
    /// Submission → quorum verdict.
    pub verdict_latency: Duration,
    /// Submission → all replicas done (job ready to finalize).
    pub full_latency: Duration,
}

/// One finalized job: the classic [`ReplicatedOutcome`] plus pool
/// bookkeeping.
#[derive(Clone, Debug)]
pub struct PoolOutcome {
    /// The job id [`ReplicaPool::submit`] returned.
    pub job: u64,
    /// Vote, patches, isolation report, and per-replica digests.
    pub outcome: ReplicatedOutcome,
    /// Vote timing observations.
    pub timing: VoteTiming,
}

impl PoolOutcome {
    /// Canonical digest of the deterministic surface: the job's global
    /// sequence number folded over
    /// [`ReplicatedOutcome::deterministic_digest`]. Timing is excluded —
    /// wall-clock observations are exactly what determinism pins must
    /// ignore. This is what the network front door ships and compares
    /// instead of whole outcomes.
    #[must_use]
    pub fn deterministic_digest(&self) -> u128 {
        crate::voter::digest_chunk(self.outcome.deterministic_digest(), &self.job.to_le_bytes())
    }
}

/// The streaming voter's early answer for one job, surfaced by
/// [`ReplicaPool::wait_verdict`].
#[derive(Clone, Debug)]
pub struct EarlyVerdict {
    /// The agreed output digest.
    pub digest: u128,
    /// Replicas in the quorum.
    pub agreeing: Vec<usize>,
    /// Replicas still running when the quorum formed.
    pub outstanding: usize,
    /// The agreed output bytes (what the paper's voter would release to
    /// the user at this moment).
    pub output: Vec<u8>,
}

/// What the broadcast channel carries to each worker.
enum WorkerMsg {
    Exec {
        job: u64,
        /// Job index the worker derives its heap seed from. Equal to `job`
        /// for service jobs; an isolation replay reuses the *original*
        /// job's index so every worker re-executes its exact run.
        seed_job: u64,
        /// Shared, not cloned: broadcast cost is N `Arc` bumps, not N
        /// payload copies.
        input: Arc<WorkloadInput>,
        fault: Option<FaultSpec>,
        /// Malloc breakpoint for isolation replays (§3.4): halt at the
        /// detection clock so all images align at one logical time.
        breakpoint: Option<xt_alloc::AllocTime>,
        /// The patch table in effect for this job, captured at submit time
        /// so patch visibility is a function of submission order, not
        /// scheduling.
        patches: Arc<PatchTable>,
    },
}

/// What a worker sends back, once per execution: the stack is torn down
/// and the arena recycled.
struct Done {
    job: u64,
    worker: usize,
    /// The run's verdict; its `result.output` is what the voter folds.
    run: RunVerdict,
    /// The heap at the malloc breakpoint — replays only.
    image: Option<HeapImage>,
}

/// Heap seed for `worker` running `job`.
fn replica_seed(base: u64, worker: usize, job: u64) -> u64 {
    base.wrapping_add((worker as u64 + 1).wrapping_mul(0xA5A5_1234_9E37_79B9))
        .wrapping_add(job.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// One job's in-flight state on the collector side.
struct JobState {
    job: u64,
    /// Seed index the replicas derive their heap seeds from — equal to
    /// `job` for plain [`ReplicaPool::submit`] calls, caller-supplied for
    /// [`ReplicaPool::submit_seeded`].
    seed_job: u64,
    submitted_at: Instant,
    input: Arc<WorkloadInput>,
    fault: Option<FaultSpec>,
    patches: Arc<PatchTable>,
    voter: StreamingVoter,
    /// Per replica, once it reported: its verdict, and (replays only) its
    /// heap image.
    runs: Vec<Option<(RunVerdict, Option<HeapImage>)>>,
    done: usize,
    verdict_at: Option<(Instant, usize)>,
}

impl JobState {
    fn new(
        job: u64,
        seed_job: u64,
        input: Arc<WorkloadInput>,
        fault: Option<FaultSpec>,
        patches: Arc<PatchTable>,
        replicas: usize,
    ) -> Self {
        JobState {
            job,
            seed_job,
            submitted_at: Instant::now(),
            input,
            fault,
            patches,
            voter: StreamingVoter::new(replicas),
            runs: (0..replicas).map(|_| None).collect(),
            done: 0,
            verdict_at: None,
        }
    }

    fn complete(&self) -> bool {
        self.done == self.runs.len()
    }
}

/// The persistent replica-pool executor. Created inside a
/// [`std::thread::scope`] so workers may borrow the workload:
///
/// ```
/// use exterminator::pool::{PoolConfig, ReplicaPool};
/// use xt_patch::PatchTable;
/// use xt_workloads::{EspressoLike, WorkloadInput};
///
/// let workload = EspressoLike::new();
/// std::thread::scope(|scope| {
///     let mut pool =
///         ReplicaPool::scoped(scope, &workload, PoolConfig::default(), PatchTable::new());
///     // One pool, many inputs: no replica is ever respawned.
///     for seed in 0..3 {
///         let out = pool.run_one(&WorkloadInput::with_seed(seed), None);
///         assert!(out.outcome.vote.unanimous());
///     }
///     pool.shutdown();
/// });
/// ```
pub struct ReplicaPool<'scope> {
    txs: Vec<Sender<WorkerMsg>>,
    events: Receiver<Done>,
    handles: Vec<ScopedJoinHandle<'scope, ()>>,
    config: PoolConfig,
    /// Shared with every in-flight job's broadcast message: submitting
    /// bumps the count, and a load copies the table only while a job
    /// still holds the old one.
    patches: Arc<PatchTable>,
    epoch: u64,
    next_job: u64,
    inflight: VecDeque<JobState>,
    obs: Arc<Registry>,
}

impl<'scope> ReplicaPool<'scope> {
    /// Spawns `config.replicas` persistent workers over `workload`, with
    /// `patches` as the initially loaded table. Capture-stage timings land
    /// in a pool-private registry; see [`ReplicaPool::observability`].
    pub fn scoped<'env, W>(
        scope: &'scope Scope<'scope, 'env>,
        workload: &'env W,
        config: PoolConfig,
        patches: PatchTable,
    ) -> ReplicaPool<'scope>
    where
        W: Workload + Sync + ?Sized,
    {
        ReplicaPool::scoped_with_obs(scope, workload, config, patches, Registry::new())
    }

    /// [`ReplicaPool::scoped`] recording into a caller-supplied registry —
    /// how the [`PoolFrontend`](crate::frontend::PoolFrontend) folds every
    /// pool's `pool/capture` histogram into the one fleet-visible metrics
    /// snapshot (registries dedup instruments by name, so all pools share
    /// one aggregate histogram).
    pub fn scoped_with_obs<'env, W>(
        scope: &'scope Scope<'scope, 'env>,
        workload: &'env W,
        config: PoolConfig,
        patches: PatchTable,
        obs: Arc<Registry>,
    ) -> ReplicaPool<'scope>
    where
        W: Workload + Sync + ?Sized,
    {
        let capture_hist = obs.histogram("pool/capture");
        let n = config.replicas.max(1);
        let (event_tx, events) = mpsc::channel();
        let mut txs = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for worker in 0..n {
            let (tx, rx) = mpsc::channel::<WorkerMsg>();
            let event_tx = event_tx.clone();
            let base_seed = config.base_seed;
            let diefast = config.diefast.clone();
            let halt_on_signal = config.halt_on_signal;
            let delay = config
                .straggler
                .filter(|s| s.replica == worker)
                .map(|s| s.delay);
            let capture_hist = Arc::clone(&capture_hist);
            handles.push(scope.spawn(move || {
                worker_loop(
                    workload,
                    worker,
                    base_seed,
                    &diefast,
                    halt_on_signal,
                    delay,
                    &rx,
                    &event_tx,
                    &capture_hist,
                );
            }));
            txs.push(tx);
        }
        ReplicaPool {
            txs,
            events,
            handles,
            config,
            patches: Arc::new(patches),
            epoch: 0,
            next_job: 0,
            inflight: VecDeque::new(),
            obs,
        }
    }

    /// The pool's latency instruments — currently `pool/capture`, one
    /// sample per heap image dumped. Only a failed job's replay dumps any
    /// (one per replica), so on benign traffic its count stays at zero:
    /// the histogram is the observable that says capture is on demand.
    /// Observability only: nothing here feeds outcome bytes or
    /// deterministic digests.
    #[must_use]
    pub fn observability(&self) -> &Arc<Registry> {
        &self.obs
    }

    /// Number of replica workers.
    #[must_use]
    pub fn replicas(&self) -> usize {
        self.txs.len()
    }

    /// The patch table new submissions will run under.
    #[must_use]
    pub fn patches(&self) -> &PatchTable {
        &self.patches
    }

    /// The highest fleet epoch loaded so far.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Joins `table` into the live patch table (lattice merge). Running
    /// workers pick it up with the next submitted input — no restart.
    pub fn load_patches(&mut self, table: &PatchTable) {
        Arc::make_mut(&mut self.patches).merge(table);
    }

    /// Loads a fleet [`PatchEpoch`] if it is newer than the last one
    /// loaded. Returns `true` if the live table advanced.
    pub fn load_epoch(&mut self, epoch: &PatchEpoch) -> bool {
        if epoch.number <= self.epoch {
            return false;
        }
        self.epoch = epoch.number;
        Arc::make_mut(&mut self.patches).merge(&epoch.patches);
        true
    }

    /// Broadcasts one input to every worker and returns its job id without
    /// waiting. Jobs complete in submission order via
    /// [`ReplicaPool::next_outcome`].
    pub fn submit(&mut self, input: &WorkloadInput, fault: Option<FaultSpec>) -> u64 {
        let seed_index = self.next_job;
        self.submit_seeded(input, fault, seed_index)
    }

    /// [`ReplicaPool::submit`] with a caller-chosen seed index: replica `i`
    /// derives its heap seed from `(base_seed, i, seed_index)` instead of
    /// the pool-local job counter. This is the submission half of the
    /// split API the multi-pool [`PoolFrontend`] stands on — a front-end
    /// assigns one global sequence across K pools, so a job's outcome is a
    /// function of `(input, fault, seed_index, patches)` alone, identical
    /// no matter which pool executed it.
    ///
    /// [`PoolFrontend`]: crate::frontend::PoolFrontend
    pub fn submit_seeded(
        &mut self,
        input: &WorkloadInput,
        fault: Option<FaultSpec>,
        seed_index: u64,
    ) -> u64 {
        // One real copy of the input per job; the broadcast itself is N
        // reference bumps.
        self.submit_shared(Arc::new(input.clone()), fault, seed_index)
    }

    /// [`ReplicaPool::submit_seeded`] for a caller that already holds the
    /// input in an `Arc` (the front-end's queue does): no further copy of
    /// the payload is made.
    pub fn submit_shared(
        &mut self,
        input: Arc<WorkloadInput>,
        fault: Option<FaultSpec>,
        seed_index: u64,
    ) -> u64 {
        let job = self.next_job;
        self.next_job += 1;
        let patches = Arc::clone(&self.patches);
        for tx in &self.txs {
            tx.send(WorkerMsg::Exec {
                job,
                seed_job: seed_index,
                input: Arc::clone(&input),
                fault,
                breakpoint: None,
                patches: Arc::clone(&patches),
            })
            .expect("replica worker exited before shutdown");
        }
        self.inflight.push_back(JobState::new(
            job,
            seed_index,
            input,
            fault,
            patches,
            self.txs.len(),
        ));
        job
    }

    /// Non-blocking: the streaming verdict for an in-flight job, if its
    /// quorum has already formed from the events pumped so far. `None`
    /// means "no quorum yet (or no such job)" — use
    /// [`ReplicaPool::wait_verdict`] to distinguish by blocking.
    #[must_use]
    pub fn poll_verdict(&self, job: u64) -> Option<EarlyVerdict> {
        let state = self.inflight.iter().find(|s| s.job == job)?;
        let verdict = state.voter.verdict()?;
        let rep = verdict.agreeing[0];
        Some(EarlyVerdict {
            digest: verdict.digest,
            agreeing: verdict.agreeing.clone(),
            outstanding: verdict.outstanding,
            output: state.runs[rep]
                .as_ref()
                .expect("agreeing replica published its output")
                .0
                .result
                .output
                .clone(),
        })
    }

    /// Blocks until the streaming voter reaches a quorum for `job` (or the
    /// job completes without one — all replicas mutually diverged). This
    /// is the paper's §3.1 moment: the voter releases the agreed output
    /// while stragglers are still executing.
    pub fn wait_verdict(&mut self, job: u64) -> Option<EarlyVerdict> {
        loop {
            let state = self.inflight.iter().find(|s| s.job == job)?;
            if state.voter.verdict().is_some() {
                return self.poll_verdict(job);
            }
            if state.complete() {
                return None;
            }
            self.pump_one();
        }
    }

    /// Blocks until the oldest in-flight job has fully completed on every
    /// replica, finalizes it (vote, isolation, patches), and returns it.
    /// `None` if nothing is in flight.
    pub fn next_outcome(&mut self) -> Option<PoolOutcome> {
        self.inflight.front()?;
        while !self.inflight.front().expect("checked above").complete() {
            self.pump_one();
        }
        let state = self.inflight.pop_front().expect("checked above");
        Some(self.finalize(state))
    }

    /// Submits one input and waits for its outcome. Outcomes of earlier
    /// pipelined submissions are finalized along the way and dropped; use
    /// [`ReplicaPool::next_outcome`] when collecting a batch.
    pub fn run_one(&mut self, input: &WorkloadInput, fault: Option<FaultSpec>) -> PoolOutcome {
        let job = self.submit(input, fault);
        loop {
            let outcome = self.next_outcome().expect("the submitted job is in flight");
            if outcome.job == job {
                return outcome;
            }
        }
    }

    /// Broadcasts a whole batch pipelined, then collects all outcomes in
    /// submission order. This is the pool's throughput shape: K inputs
    /// cost K executions per worker, one pool setup total.
    pub fn run_batch(
        &mut self,
        inputs: &[WorkloadInput],
        fault: Option<FaultSpec>,
    ) -> Vec<PoolOutcome> {
        let jobs: Vec<u64> = inputs.iter().map(|i| self.submit(i, fault)).collect();
        jobs.iter()
            .map(|_| self.next_outcome().expect("batch job in flight"))
            .collect()
    }

    /// Stops the workers (after they drain any queued inputs) and joins
    /// them. Outcomes of jobs still in flight are discarded. Equivalent to
    /// dropping the pool; this form exists so callers can mark the
    /// teardown point explicitly.
    pub fn shutdown(mut self) {
        self.close();
    }

    /// Teardown shared by [`ReplicaPool::shutdown`] and `Drop`: closes the
    /// broadcast channels (workers drain whatever is queued, then exit)
    /// and joins every worker thread. A worker panic is re-raised — unless
    /// this thread is already unwinding, in which case raising again would
    /// abort the process, so the payload is dropped and the original
    /// panic keeps propagating.
    fn close(&mut self) {
        self.txs.clear();
        let mut worker_panic = None;
        for handle in self.handles.drain(..) {
            if let Err(payload) = handle.join() {
                worker_panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = worker_panic {
            if !std::thread::panicking() {
                std::panic::resume_unwind(payload);
            }
        }
    }

    /// Receives and applies one worker event. If a worker thread dies
    /// (panics) with jobs in flight, this panics promptly instead of
    /// blocking forever on an event that will never arrive — the pooled
    /// equivalent of the old per-call `join().expect(...)`.
    fn pump_one(&mut self) {
        let event = loop {
            match self.events.recv_timeout(Duration::from_millis(50)) {
                Ok(event) => break event,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    // Workers only exit before shutdown by panicking.
                    assert!(
                        !self.handles.iter().any(ScopedJoinHandle::is_finished),
                        "replica worker panicked with jobs in flight"
                    );
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    panic!("all replica workers exited with jobs in flight")
                }
            }
        };
        let Done {
            job,
            worker,
            run,
            image,
        } = event;
        let state = self.state_mut(job);
        debug_assert!(state.runs[worker].is_none(), "worker finished twice");
        // The FNV digest is chunk-boundary-invariant, so the whole output
        // folds in one call; a producer that truly streamed would call
        // push_chunk per chunk with the same result.
        state.voter.push_chunk(worker, &run.result.output);
        let newly = state.verdict_at.is_none();
        if state.voter.finish_replica(worker).is_some() && newly {
            let outstanding = state
                .voter
                .verdict()
                .expect("verdict just formed")
                .outstanding;
            // xt-analyze: allow(time-source) -- verdict latency observation; feeds VoteTiming only, never an outcome byte
            state.verdict_at = Some((Instant::now(), outstanding));
        }
        state.runs[worker] = Some((run, image));
        state.done += 1;
    }

    fn state_mut(&mut self, job: u64) -> &mut JobState {
        self.inflight
            .iter_mut()
            .find(|s| s.job == job)
            .expect("event for a job not in flight")
    }

    /// Turns a completed job into its outcome: full-set vote, per-replica
    /// summaries, isolation over a detection-aligned replay's images on
    /// any failure or divergence, and (optionally) auto-reload of the
    /// newly isolated patches.
    fn finalize(&mut self, mut state: JobState) -> PoolOutcome {
        // xt-analyze: allow(time-source) -- full-completion latency observation; feeds VoteTiming only, never an outcome byte
        let full_at = Instant::now();
        let mut runs: Vec<RunVerdict> = state
            .runs
            .drain(..)
            .map(|r| r.expect("job complete").0)
            .collect();
        let replicas: Vec<ReplicaSummary> = runs
            .iter()
            .enumerate()
            .map(|(i, r)| ReplicaSummary {
                seed: replica_seed(self.config.base_seed, i, state.seed_job),
                completed: r.result.completed(),
                failed: r.failed(),
                signals: r.signals.len(),
                output_len: r.result.output.len(),
                output_digest: state.voter.digest_of(i).expect("job complete"),
            })
            .collect();

        let digest_vote = state.voter.final_vote();
        // The summaries above were the output's last reader.
        let winner = std::mem::take(&mut runs[digest_vote.agreeing[0]].result.output);
        let vote = VoteResult {
            winner,
            agreeing: digest_vote.agreeing,
            dissenting: digest_vote.dissenting,
        };

        let any_failure = !vote.unanimous() || replicas.iter().any(|r| r.failed);
        let mut merged = (*state.patches).clone();
        let report = if any_failure {
            // §3.4 alignment: isolation wants every replica's heap at one
            // logical time. Re-execute this job on every worker with its
            // *original* seed, halted at the earliest detection clock —
            // Fig. 5's "dump all replicas at the failure point". End-of-run
            // images would let replicas that kept running recycle the
            // corrupted slots (canary refill on free), erasing — and then
            // actively refuting — the evidence.
            let images = self.aligned_images(&state, &runs, &vote);
            let report = isolate_with(&images, self.config.options).unwrap_or_default();
            let new_patches = report.to_patches();
            // Escalate rather than max: deferrals isolated while patches
            // were loaded are measured from the already-deferred free time
            // (§6.2).
            merged.escalate(&new_patches);
            if self.config.auto_patch {
                Arc::make_mut(&mut self.patches).escalate(&new_patches);
            }
            Some(report)
        } else {
            None
        };

        let (verdict_at, outstanding) = state.verdict_at.unwrap_or((full_at, 0));
        PoolOutcome {
            job: state.job,
            outcome: ReplicatedOutcome {
                vote,
                patches: merged,
                report,
                replicas,
            },
            timing: VoteTiming {
                outstanding_at_verdict: outstanding,
                verdict_latency: verdict_at - state.submitted_at,
                full_latency: full_at - state.submitted_at,
            },
        }
    }

    /// The detection-aligned heap images for a failed job: every worker
    /// replays the job with the same heap seed, stopped at the malloc
    /// breakpoint of the earliest failure (or the earliest dissenting
    /// replica's clock when corruption produced divergence without a
    /// crash). Deterministic: the breakpoint derives from the verdicts and
    /// replays reuse the job's seeds, so the images are a pure function of
    /// the job. These are the only heap images the pool ever captures.
    fn aligned_images(
        &mut self,
        state: &JobState,
        runs: &[RunVerdict],
        vote: &VoteResult,
    ) -> Vec<HeapImage> {
        let breakpoint = runs
            .iter()
            .filter(|r| r.failed())
            .map(|r| r.clock)
            .min()
            .or_else(|| vote.dissenting.iter().map(|&i| runs[i].clock).min())
            .or_else(|| runs.iter().map(|r| r.clock).min())
            .expect("a failed job has at least one replica");
        let replay = self.next_job;
        self.next_job += 1;
        for tx in &self.txs {
            tx.send(WorkerMsg::Exec {
                job: replay,
                seed_job: state.seed_job,
                input: Arc::clone(&state.input),
                fault: state.fault,
                breakpoint: Some(breakpoint),
                patches: Arc::clone(&state.patches),
            })
            .expect("replica worker exited before shutdown");
        }
        self.inflight.push_back(JobState::new(
            replay,
            state.seed_job,
            Arc::clone(&state.input),
            state.fault,
            Arc::clone(&state.patches),
            self.txs.len(),
        ));
        while !self
            .inflight
            .iter()
            .find(|s| s.job == replay)
            .expect("replay job in flight")
            .complete()
        {
            self.pump_one();
        }
        let pos = self
            .inflight
            .iter()
            .position(|s| s.job == replay)
            .expect("replay job in flight");
        let replay_state = self.inflight.remove(pos).expect("position just found");
        replay_state
            .runs
            .into_iter()
            .map(|r| r.and_then(|(_, image)| image).expect("replays capture"))
            .collect()
    }
}

/// Dropping a pool without [`ReplicaPool::shutdown`] must not detach its
/// workers: before this impl existed, the senders died silently, the
/// workers kept executing whatever was queued with nobody joining them
/// until the enclosing scope's implicit join, and a worker panic surfaced
/// (if ever) far from the pool that owned it. Drop now performs the same
/// teardown as `shutdown`: drain the channels, join every worker, and
/// propagate a worker panic — unless this drop is itself part of an
/// unwind, where propagating would abort.
impl Drop for ReplicaPool<'_> {
    fn drop(&mut self) {
        self.close();
    }
}

/// The worker body: a persistent replica executing broadcast inputs over
/// one reusable allocator stack.
#[allow(clippy::too_many_arguments)]
fn worker_loop<W: Workload + Sync + ?Sized>(
    workload: &W,
    worker: usize,
    base_seed: u64,
    diefast: &DieFastConfig,
    halt_on_signal: bool,
    straggle: Option<Duration>,
    rx: &Receiver<WorkerMsg>,
    events: &Sender<Done>,
    capture_hist: &Histogram,
) {
    let mut stack = ReusableStack::new();
    while let Ok(WorkerMsg::Exec {
        job,
        seed_job,
        input,
        fault,
        breakpoint,
        patches,
    }) = rx.recv()
    {
        if let Some(delay) = straggle {
            std::thread::sleep(delay);
        }
        let config = RunConfig {
            heap_seed: replica_seed(base_seed, worker, seed_job),
            diefast: diefast.clone(),
            // The correcting allocator owns its table, so each execution
            // clones from the shared snapshot — in the worker, off the
            // submitter's critical path.
            patches: (*patches).clone(),
            fault,
            breakpoint,
            // Replays stop at the malloc breakpoint instead (§3.4).
            halt_on_signal: halt_on_signal && breakpoint.is_none(),
        };
        let mut active = stack.start(config);
        // `&W` may be unsized; `&&W` is a Sized `Workload` via the blanket
        // reference impl, so it coerces to `&dyn Workload`.
        active.run(&workload, input.as_ref());
        // Dump the heap only where it is read: a replay's whole product is
        // its image at the breakpoint; any other run's is its verdict.
        let (run, image) = if breakpoint.is_some() {
            let capture_start = Instant::now();
            let record = active.finish();
            capture_hist.record_duration(capture_start.elapsed());
            let run = RunVerdict {
                result: record.result,
                signals: record.signals,
                clock: record.clock,
            };
            (run, Some(record.image))
        } else {
            (active.abandon(), None)
        };
        let done = Done {
            job,
            worker,
            run,
            image,
        };
        if events.send(done).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xt_alloc::AllocTime;
    use xt_faults::{FaultKind, FaultSpec};
    use xt_workloads::EspressoLike;

    #[test]
    fn pool_serves_many_inputs_without_respawning() {
        let workload = EspressoLike::new();
        std::thread::scope(|scope| {
            let mut pool =
                ReplicaPool::scoped(scope, &workload, PoolConfig::default(), PatchTable::new());
            for seed in 0..4 {
                let out = pool.run_one(&WorkloadInput::with_seed(seed), None);
                assert!(out.outcome.vote.unanimous(), "clean replicas diverged");
                assert!(!out.outcome.error_observed());
                assert_eq!(out.outcome.replicas.len(), 3);
                assert!(out.outcome.replicas.iter().all(|r| r.completed));
            }
            // Nothing failed, so no replica dumped its heap.
            assert_eq!(captures(&pool), 0);
            pool.shutdown();
        });
    }

    fn captures(pool: &ReplicaPool<'_>) -> u64 {
        let snap = pool.observability().snapshot();
        snap.histogram("pool/capture").unwrap().count()
    }

    /// Capture on demand, the positive half: a failed job dumps exactly one
    /// heap per replica — its detection-aligned replay — and not a second
    /// set for the run that failed.
    #[test]
    fn a_failed_job_captures_only_its_replay() {
        let workload = EspressoLike::new();
        // `mode_equivalence`'s espresso overflow-20 cell.
        let input = WorkloadInput::with_seed(6).intensity(3);
        let fault = FaultSpec {
            kind: FaultKind::BufferOverflow {
                delta: 20,
                fill: 0xEE,
            },
            trigger: AllocTime::from_raw(65),
        };
        std::thread::scope(|scope| {
            let config = PoolConfig {
                auto_patch: false,
                ..PoolConfig::default()
            };
            let mut pool = ReplicaPool::scoped(scope, &workload, config, PatchTable::new());
            let replicas = pool.replicas() as u64;
            // This fault manifests on each of a fresh pool's first jobs
            // (`tests/pool_golden.rs` pins the outcomes).
            for failures in 1..=2 {
                let out = pool.run_one(&input, Some(fault)).outcome;
                assert!(out.error_observed() && out.report.is_some());
                assert_eq!(captures(&pool), failures * replicas);
            }
            assert!(!pool.run_one(&input, None).outcome.error_observed());
            assert_eq!(captures(&pool), 2 * replicas, "a benign job dumped a heap");
            pool.shutdown();
        });
    }

    /// A worker that dies must surface as a prompt panic in the caller,
    /// never as an infinite `next_outcome` hang (the pooled equivalent of
    /// the old per-call `join().expect(...)`).
    #[test]
    fn worker_panic_propagates_instead_of_hanging() {
        struct Panicker;
        impl xt_workloads::Workload for Panicker {
            fn name(&self) -> &'static str {
                "panicker"
            }
            fn run(
                &self,
                _heap: &mut dyn xt_alloc::Heap,
                _input: &WorkloadInput,
            ) -> xt_workloads::RunResult {
                panic!("simulated replica crash outside the heap sandbox")
            }
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            std::thread::scope(|scope| {
                let mut pool =
                    ReplicaPool::scoped(scope, &Panicker, PoolConfig::default(), PatchTable::new());
                let _ = pool.run_one(&WorkloadInput::with_seed(1), None);
                pool.shutdown();
            });
        }));
        assert!(result.is_err(), "dead workers must panic the pool");
    }

    #[test]
    fn pipelined_batch_completes_in_submission_order() {
        let workload = EspressoLike::new();
        let inputs: Vec<WorkloadInput> = (0..6).map(WorkloadInput::with_seed).collect();
        std::thread::scope(|scope| {
            let mut pool =
                ReplicaPool::scoped(scope, &workload, PoolConfig::default(), PatchTable::new());
            let outcomes = pool.run_batch(&inputs, None);
            assert_eq!(outcomes.len(), 6);
            for (i, out) in outcomes.iter().enumerate() {
                assert_eq!(out.job, i as u64, "outcomes out of submission order");
                assert!(out.outcome.vote.unanimous());
            }
            pool.shutdown();
        });
    }

    #[test]
    fn straggler_does_not_block_the_verdict() {
        let workload = EspressoLike::new();
        std::thread::scope(|scope| {
            let mut pool = ReplicaPool::scoped(
                scope,
                &workload,
                PoolConfig {
                    replicas: 3,
                    straggler: Some(Straggler {
                        replica: 2,
                        delay: Duration::from_millis(150),
                    }),
                    ..PoolConfig::default()
                },
                PatchTable::new(),
            );
            let job = pool.submit(&WorkloadInput::with_seed(3), None);
            let verdict = pool.wait_verdict(job).expect("quorum must form");
            assert_eq!(
                verdict.outstanding, 1,
                "verdict should land while the straggler still runs"
            );
            assert_eq!(verdict.agreeing, vec![0, 1]);
            assert!(!verdict.output.is_empty());
            let out = pool.next_outcome().expect("job completes");
            assert!(out.outcome.vote.unanimous(), "straggler agreed in the end");
            assert_eq!(out.timing.outstanding_at_verdict, 1);
            assert!(out.timing.verdict_latency <= out.timing.full_latency);
            pool.shutdown();
        });
    }

    #[test]
    fn pool_isolates_and_self_patches_a_manifesting_fault() {
        // Same §7.2 methodology as the one-shot test: search injector
        // candidates until one both manifests and isolates, then watch the
        // *pool* converge on it via auto-reloaded patches.
        let workload = EspressoLike::new();
        let input = WorkloadInput::with_seed(8).intensity(3);
        let mut corrected = false;
        'candidates: for sel in 0..8u64 {
            let Some(fault) = crate::runner::find_manifesting_fault(
                &workload,
                &input,
                FaultKind::BufferOverflow {
                    delta: 20,
                    fill: 0xEE,
                },
                100,
                300,
                20,
                4,
                5 + sel,
            ) else {
                continue;
            };
            std::thread::scope(|scope| {
                let mut pool = ReplicaPool::scoped(
                    scope,
                    &workload,
                    PoolConfig {
                        replicas: 6,
                        ..PoolConfig::default()
                    },
                    PatchTable::new(),
                );
                // The same input keeps arriving; patches isolated from one
                // failure apply to the next submission without restarting
                // the pool.
                for _ in 0..6 {
                    let out = pool.run_one(&input, Some(fault));
                    if !out.outcome.error_observed() && !pool.patches().is_empty() {
                        corrected = true;
                        break;
                    }
                }
                pool.shutdown();
            });
            if corrected {
                break 'candidates;
            }
        }
        assert!(corrected, "no candidate fault was isolated and repaired");
    }

    /// Dropping a pool without `shutdown` must behave like `shutdown`:
    /// block until every worker has drained its queue and exited. A
    /// deliberately slow workload pins the ordering — if Drop detached the
    /// workers, it would return while executions were still running.
    #[test]
    fn drop_joins_workers_and_leaves_no_live_threads() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        struct Slow {
            in_flight: AtomicUsize,
            started: AtomicUsize,
        }
        impl xt_workloads::Workload for Slow {
            fn name(&self) -> &'static str {
                "slow"
            }
            fn run(
                &self,
                heap: &mut dyn xt_alloc::Heap,
                input: &WorkloadInput,
            ) -> xt_workloads::RunResult {
                self.in_flight.fetch_add(1, Ordering::SeqCst);
                self.started.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(20));
                let result = EspressoLike::new().run(heap, input);
                self.in_flight.fetch_sub(1, Ordering::SeqCst);
                result
            }
        }

        let workload = Slow {
            in_flight: AtomicUsize::new(0),
            started: AtomicUsize::new(0),
        };
        std::thread::scope(|scope| {
            let mut pool =
                ReplicaPool::scoped(scope, &workload, PoolConfig::default(), PatchTable::new());
            pool.submit(&WorkloadInput::with_seed(1), None);
            pool.submit(&WorkloadInput::with_seed(2), None);
            let started = Instant::now();
            drop(pool);
            // Drop returned only after the workers drained both queued
            // jobs (2 jobs x 20 ms per worker; the first may have started
            // before the clock) and exited.
            assert!(
                started.elapsed() >= Duration::from_millis(30),
                "drop returned before the queued work drained"
            );
        });
        assert_eq!(
            workload.in_flight.load(Ordering::SeqCst),
            0,
            "a replica execution outlived the pool"
        );
        assert_eq!(
            workload.started.load(Ordering::SeqCst),
            2 * 3,
            "queued jobs were discarded instead of drained"
        );
    }

    /// A worker that panicked must not die silently when the pool is
    /// dropped without ever collecting an outcome: Drop joins the worker
    /// and re-raises its panic (when not already unwinding).
    #[test]
    fn drop_propagates_a_worker_panic() {
        struct Panicker;
        impl xt_workloads::Workload for Panicker {
            fn name(&self) -> &'static str {
                "panicker"
            }
            fn run(
                &self,
                _heap: &mut dyn xt_alloc::Heap,
                _input: &WorkloadInput,
            ) -> xt_workloads::RunResult {
                panic!("simulated replica crash outside the heap sandbox")
            }
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            std::thread::scope(|scope| {
                let mut pool =
                    ReplicaPool::scoped(scope, &Panicker, PoolConfig::default(), PatchTable::new());
                pool.submit(&WorkloadInput::with_seed(1), None);
                // Dropped with the job still in flight — never pumped.
            });
        }));
        assert!(result.is_err(), "dropping a crashed pool hid the panic");
    }

    #[test]
    fn epoch_reload_applies_between_inputs() {
        let workload = EspressoLike::new();
        // A deterministic data-corrupting fault (same as the divergence
        // test in `replicated`).
        let fault = FaultSpec {
            kind: FaultKind::BufferOverflow {
                delta: 8,
                fill: 0x44,
            },
            trigger: AllocTime::from_raw(90),
        };
        std::thread::scope(|scope| {
            let mut pool = ReplicaPool::scoped(
                scope,
                &workload,
                PoolConfig {
                    replicas: 5,
                    auto_patch: false,
                    ..PoolConfig::default()
                },
                PatchTable::new(),
            );
            let genesis = PatchEpoch::genesis();
            assert!(!pool.load_epoch(&genesis), "genesis is never an advance");
            // A fleet-published epoch carrying a pad for some site.
            let mut table = PatchTable::new();
            table.add_pad(xt_alloc::SiteHash::from_raw(0xFEED), 32);
            let epoch = genesis.succeed(&table);
            assert!(pool.load_epoch(&epoch), "newer epoch must load");
            assert!(!pool.load_epoch(&epoch), "same epoch must not reload");
            assert_eq!(pool.epoch(), 1);
            let out = pool.run_one(&WorkloadInput::with_seed(14), Some(fault));
            // The job ran under the epoch's table: it is the floor of the
            // outcome's merged patches.
            assert!(
                out.outcome
                    .patches
                    .pad_for(xt_alloc::SiteHash::from_raw(0xFEED))
                    >= 32,
                "epoch patches missing from the job's table"
            );
            pool.shutdown();
        });
    }
}
