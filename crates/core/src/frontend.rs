//! The concurrent pool front-end: replicated execution as a *server*.
//!
//! A [`ReplicaPool`] is a single-caller object —
//! every submission is broadcast synchronously from the owning thread, and
//! outcomes are collected by the same thread in submission order. That is
//! the right shape for one driver loop, but the paper deploys Exterminator
//! as an always-on service (§6.4's collaborative loop, Fig. 5's replicated
//! runtime): many clients submit concurrently, and the runtime is expected
//! to stay up for the life of the process. [`PoolFrontend`] is that layer:
//!
//! * **K pools, one front door.** The front-end owns `pools` independent
//!   [`ReplicaPool`]s, each driven by its own thread inside its own worker
//!   scope. Submissions are spread round-robin in global submission
//!   order.
//! * **Bounded queues, real backpressure.** Each pool sits behind a
//!   bounded [`std::sync::mpsc::sync_channel`], the same std channel
//!   mechanism the pool's broadcast ends on. [`PoolFrontend::submit`]
//!   blocks while the target queue is full, so a burst of clients cannot
//!   grow the in-flight set without bound — the service degrades to
//!   waiting, never to OOM. [`PoolFrontend::try_submit`] is the
//!   non-blocking twin for an event loop: on a full queue it hands the
//!   admitted job back ([`Refused::Full`]) with its sequence number, and
//!   [`PoolFrontend::deliver`] does the blocking send on another thread.
//!   Both run one admission step, so a refused job burns no sequence
//!   number.
//! * **Tickets instead of a caller loop.** `submit` returns a
//!   [`JobTicket`]; the submitting thread overlaps its own work with the
//!   replicas' and picks the outcome up via [`JobTicket::try_poll`] /
//!   [`JobTicket::wait`], or grabs the streaming quorum verdict early via
//!   [`JobTicket::wait_verdict`] — the §3.1 moment, surfaced per job to
//!   whichever thread submitted it.
//! * **One posting path.** The driver hands every job's verdict, outcome
//!   and release to the [`JobSink`] the job carries. A ticket's condvar
//!   cell is the in-process sink; `xt-net` passes one that encodes the
//!   reply frames on the driver thread and posts them straight to the
//!   connection.
//! * **One epoch, K pools.** [`PoolFrontend::load_epoch`] advances a
//!   single front-end-wide epoch version; every pool picks the table up
//!   before its next submission, so no job dispatched after `load_epoch`
//!   returns can run under the older table on *any* pool. Patches a pool
//!   isolates from its own failures fan out to the sibling pools the same
//!   way (see [`FrontendConfig::share_isolated`]).
//!
//! Determinism: a job's outcome is a pure function of `(pool config,
//! global sequence number, input, fault, patch table at dispatch)` — the
//! global sequence rides into the pool via
//! [`ReplicaPool::submit_seeded`](crate::pool::ReplicaPool::submit_seeded),
//! so *which* pool executed a job and how submissions interleaved with
//! stragglers cannot change a single outcome byte. Running the same inputs
//! serially through one `ReplicaPool` reproduces a front-end's outcomes
//! exactly (pinned by `tests/frontend.rs`). Only wall-clock
//! [`VoteTiming`](crate::pool::VoteTiming) observations vary — and, when
//! `share_isolated`/`auto_patch` are left on, the moment at which isolated
//! patches become visible to later jobs, exactly as for a single pool.
//!
//! The same pin extends across the wire: `xt-net`'s `NetFrontend` wraps a
//! `PoolFrontend` and admits each remote submission through
//! [`PoolFrontend::try_submit`], so the global sequence number — not the
//! connection, not the read interleaving — decides every outcome byte,
//! and remote results are compared by
//! [`PoolOutcome::deterministic_digest`](crate::pool::PoolOutcome::deterministic_digest)
//! instead of shipping whole outcomes.

use std::collections::VecDeque;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::Instant;

use xt_faults::FaultSpec;
use xt_obs::{Histogram, Registry};
use xt_patch::{PatchEpoch, PatchTable};
use xt_workloads::{Workload, WorkloadInput};

use crate::pool::{EarlyVerdict, PoolConfig, PoolOutcome, ReplicaPool};

/// Configuration for a [`PoolFrontend`].
#[derive(Clone, Debug)]
pub struct FrontendConfig {
    /// Number of independent replica pools (shards) behind the front door.
    pub pools: usize,
    /// Configuration every pool is built with (replica count, seeds,
    /// isolation tuning — see [`PoolConfig`]).
    pub pool: PoolConfig,
    /// Capacity of each pool's job queue. A full queue blocks submitters
    /// (backpressure) instead of growing without bound.
    pub queue_capacity: usize,
    /// How many jobs a driver keeps in flight inside its pool at once —
    /// the pipelining depth downstream of the queue. Deep enough that the
    /// replica workers never starve while the driver finalizes the front
    /// job (a shallow pipeline measurably costs throughput: workers idle
    /// once they drain what was broadcast, and finalizing a failed job
    /// replays and isolates it); shallow enough to bound the work lost on
    /// shutdown.
    pub max_inflight: usize,
    /// Fan patches isolated by one pool's failures out to the sibling
    /// pools (via the shared table every driver syncs before submitting).
    /// Requires `pool.auto_patch`; disable for measurement runs that must
    /// keep pools independent.
    pub share_isolated: bool,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            pools: 2,
            pool: PoolConfig::default(),
            queue_capacity: 64,
            max_inflight: 32,
            share_isolated: true,
        }
    }
}

/// Aggregate front-end counters (all monotone; read via
/// [`PoolFrontend::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrontendStats {
    /// Jobs admitted by `submit` or `try_submit`.
    pub submitted: u64,
    /// Jobs fully finalized (outcome posted to its sink).
    pub completed: u64,
    /// Finalized jobs whose outcome observed an error (failure or
    /// divergence).
    pub failures: u64,
    /// Blocking sends into a full queue (`submit` falling back to one,
    /// or `deliver`).
    pub backpressure_waits: u64,
}

/// Where a driver delivers one job's results. The driver calls
/// `verdict` at most once, then `outcome` at most once, then `release`
/// exactly once, all from the driver thread that owns the job.
pub trait JobSink: Send {
    /// The streaming quorum verdict for global job `job`: `Some` for a
    /// quorum (possibly with stragglers still running), `None` when the
    /// job completed with every replica mutually diverged.
    fn verdict(&mut self, job: u64, verdict: Option<EarlyVerdict>);
    /// The finalized outcome; `outcome.job` is the global sequence number.
    fn outcome(&mut self, outcome: PoolOutcome);
    /// Nothing further will be posted for `job`. Called last, after the
    /// outcome — or without one when the driver died serving the job, or
    /// the job never reached a live driver.
    fn release(&mut self, job: u64);
}

/// One submission, from admission until its driver lets go of it. The
/// input is shared, not copied: admission takes it by value, and the
/// pool broadcast downstream is reference bumps all the way.
struct Job {
    seq: u64,
    input: Arc<WorkloadInput>,
    fault: Option<FaultSpec>,
    sink: Box<dyn JobSink>,
    /// When the job was admitted — start of the queue-wait stage
    /// (observability only; timing never reaches any outcome byte).
    enqueued: Instant,
}

/// Wherever a job is when its driver lets go of it — still queued behind
/// a dropped receiver, in flight in an unwinding driver, or finalized —
/// its sink learns that nothing further will be posted, so a waiter that
/// did not get its result fails fast instead of hanging.
impl Drop for Job {
    fn drop(&mut self) {
        self.sink.release(self.seq);
    }
}

/// A job [`PoolFrontend::try_submit`] admitted, with its sequence number,
/// but could not enqueue because its pool's queue was full. Hand it to
/// [`PoolFrontend::deliver`]; dropping it releases the job's sink
/// without an outcome.
pub struct PendingJob {
    job: Job,
    /// Index of the pool queue admission routed the job to.
    queue: usize,
}

impl PendingJob {
    /// The global sequence number admission assigned.
    #[must_use]
    pub fn job(&self) -> u64 {
        self.job.seq
    }
}

/// Why [`PoolFrontend::try_submit`] did not enqueue a job.
pub enum Refused {
    /// The target pool's queue is full. The job keeps its sequence
    /// number; [`PoolFrontend::deliver`] blocks until the queue takes it.
    Full(PendingJob),
    /// The target pool's driver died. The job was dropped, so its sink's
    /// `release` already ran without an outcome.
    DriverDied,
}

/// What the ticket holder eventually receives.
#[derive(Default)]
struct TicketCell {
    /// `Some(verdict)` once the streaming vote resolved: `Some(Some(_))`
    /// for a quorum, `Some(None)` when the job completed with all replicas
    /// mutually diverged.
    verdict: Option<Option<EarlyVerdict>>,
    outcome: Option<PoolOutcome>,
    /// The driver dropped the job: nothing further will be posted, so a
    /// result still missing means the driver died serving it.
    released: bool,
    /// A thread is blocked on `ready` (set under the lock before every
    /// wait and cleared by the wake, so posts skip the futex wake when
    /// nobody listens — most tickets are collected after completion,
    /// where every wake is pure syscall overhead on the driver's critical
    /// path).
    waiting: bool,
}

struct TicketSlot {
    cell: Mutex<TicketCell>,
    ready: Condvar,
}

impl TicketSlot {
    fn new() -> Self {
        TicketSlot {
            cell: Mutex::new(TicketCell::default()),
            ready: Condvar::new(),
        }
    }

    /// Applies `update` to the cell and wakes the waiters, if any.
    fn post(&self, update: impl FnOnce(&mut TicketCell)) {
        let mut cell = self.cell.lock().unwrap_or_else(PoisonError::into_inner);
        update(&mut cell);
        if std::mem::take(&mut cell.waiting) {
            self.ready.notify_all();
        }
    }
}

/// The in-process sink: the driver's posts land in the ticket's cell.
impl JobSink for Arc<TicketSlot> {
    fn verdict(&mut self, _job: u64, verdict: Option<EarlyVerdict>) {
        self.post(|cell| cell.verdict = Some(verdict));
    }

    fn outcome(&mut self, outcome: PoolOutcome) {
        self.post(|cell| cell.outcome = Some(outcome));
    }

    fn release(&mut self, _job: u64) {
        self.post(|cell| cell.released = true);
    }
}

/// The panic a waiter raises when its job was released without the result
/// it is waiting for.
const DRIVER_DIED: &str = "pool front-end driver died serving this job";

/// A per-job completion handle returned by [`PoolFrontend::submit`]. The
/// submitting thread keeps working while the replicas execute, then polls
/// or blocks at its convenience. Dropping a ticket abandons the outcome
/// (the job still runs to completion — its evidence and patches are not
/// lost, only the caller's copy of the outcome).
///
/// # Panics
///
/// All waiting methods panic if the driver thread serving this job died;
/// the underlying worker panic propagates from
/// [`PoolFrontend::shutdown`] (or the front-end's drop).
pub struct JobTicket {
    job: u64,
    slot: Arc<TicketSlot>,
}

impl JobTicket {
    /// The front-end-wide sequence number assigned to this submission
    /// (also the seed index its replicas derive heap seeds from).
    #[must_use]
    pub fn job(&self) -> u64 {
        self.job
    }

    /// The finalized outcome, if it is already available.
    #[must_use]
    pub fn try_poll(&self) -> Option<PoolOutcome> {
        let cell = self
            .slot
            .cell
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        assert!(cell.outcome.is_some() || !cell.released, "{DRIVER_DIED}");
        cell.outcome.clone()
    }

    /// Blocks until the job has fully completed on every replica and
    /// returns the finalized outcome.
    #[must_use]
    pub fn wait(self) -> PoolOutcome {
        let mut cell = self
            .slot
            .cell
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(outcome) = cell.outcome.take() {
                return outcome;
            }
            assert!(!cell.released, "{DRIVER_DIED}");
            cell.waiting = true;
            cell = self
                .slot
                .ready
                .wait(cell)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Blocks until the streaming voter resolved for this job: the quorum
    /// verdict the paper's voter would release to the user while
    /// stragglers are still executing, or `None` if the job completed with
    /// every replica disagreeing.
    #[must_use]
    pub fn wait_verdict(&self) -> Option<EarlyVerdict> {
        let mut cell = self
            .slot
            .cell
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(verdict) = &cell.verdict {
                return verdict.clone();
            }
            assert!(!cell.released, "{DRIVER_DIED}");
            cell.waiting = true;
            cell = self
                .slot
                .ready
                .wait(cell)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The live patch state shared by every pool.
struct PatchState {
    table: PatchTable,
    /// Highest fleet epoch loaded (the single epoch version of the whole
    /// front-end).
    epoch: u64,
    /// Bumped on every table change; drivers compare against their local
    /// copy before each dispatch.
    version: u64,
}

/// State shared between submitters and drivers.
struct Shared {
    patches: Mutex<PatchState>,
    /// Mirror of `patches.version` readable without the lock: drivers
    /// check it per dispatch and only take the lock on a change.
    patch_version: AtomicU64,
    submitted: AtomicU64,
    completed: AtomicU64,
    failures: AtomicU64,
    backpressure_waits: AtomicU64,
    /// Per-stage latency instruments shared by every driver:
    /// `frontend/queue_wait` (submit → driver dequeue),
    /// `frontend/verdict` (dispatch → streaming quorum posted),
    /// `frontend/exec` (dispatch → outcome finalized on all replicas).
    /// Each driver's [`ReplicaPool`] also records into this registry
    /// (`pool/capture`, one sample per heap image a failed job's replay
    /// dumps), so one snapshot carries the whole service's stage
    /// latencies.
    obs: Arc<Registry>,
    queue_wait_hist: Arc<Histogram>,
    verdict_hist: Arc<Histogram>,
    exec_hist: Arc<Histogram>,
}

impl Shared {
    /// Merges `table` into the shared live table, bumping the version only
    /// if anything actually changed (the patch lattice makes re-merges
    /// no-ops, and `merge` reports change for free — no clone-and-compare
    /// under this contended lock).
    fn fold_patches(&self, table: &PatchTable) {
        let mut st = self.patches.lock().unwrap_or_else(PoisonError::into_inner);
        if st.table.merge(table) {
            st.version += 1;
            self.patch_version.store(st.version, Ordering::Release);
        }
    }
}

/// The concurrent multi-pool executor. Like the pool it wraps, it is
/// created inside a [`std::thread::scope`] so replica workers may borrow
/// the workload; unlike the pool, every method takes `&self` — share one
/// front-end across all submitter threads.
///
/// ```
/// use exterminator::frontend::{FrontendConfig, PoolFrontend};
/// use xt_patch::PatchTable;
/// use xt_workloads::{EspressoLike, WorkloadInput};
///
/// let workload = EspressoLike::new();
/// std::thread::scope(|scope| {
///     let frontend = PoolFrontend::scoped(
///         scope,
///         &workload,
///         FrontendConfig::default(),
///         PatchTable::new(),
///     );
///     // Submit without blocking on the replicas...
///     let tickets: Vec<_> = (0..4)
///         .map(|seed| frontend.submit(&WorkloadInput::with_seed(seed), None))
///         .collect();
///     // ...then collect at leisure.
///     for ticket in tickets {
///         assert!(ticket.wait().outcome.vote.unanimous());
///     }
///     frontend.shutdown();
/// });
/// ```
pub struct PoolFrontend<'scope> {
    shared: Arc<Shared>,
    /// The sending half of each pool's bounded job queue. Owned here, not
    /// in [`Shared`], so teardown closes the queues simply by dropping
    /// them: drivers drain what is buffered, then see the disconnect.
    queues: Vec<SyncSender<Job>>,
    drivers: Vec<ScopedJoinHandle<'scope, ()>>,
    next_seq: AtomicU64,
}

impl<'scope> PoolFrontend<'scope> {
    /// Spawns `config.pools` driver threads, each owning one
    /// [`ReplicaPool`] built from `config.pool`, with `patches` as the
    /// initially shared table.
    pub fn scoped<'env, W>(
        scope: &'scope Scope<'scope, 'env>,
        workload: &'env W,
        config: FrontendConfig,
        patches: PatchTable,
    ) -> PoolFrontend<'scope>
    where
        W: Workload + Sync + ?Sized,
    {
        let pools = config.pools.max(1);
        let obs = Registry::new();
        let (queue_wait_hist, verdict_hist, exec_hist) = (
            obs.histogram("frontend/queue_wait"),
            obs.histogram("frontend/verdict"),
            obs.histogram("frontend/exec"),
        );
        let shared = Arc::new(Shared {
            patches: Mutex::new(PatchState {
                table: patches,
                epoch: 0,
                version: 0,
            }),
            patch_version: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            backpressure_waits: AtomicU64::new(0),
            obs,
            queue_wait_hist,
            verdict_hist,
            exec_hist,
        });
        let share_isolated = config.share_isolated && config.pool.auto_patch;
        let max_inflight = config.max_inflight.max(1);
        let mut queues = Vec::with_capacity(pools);
        let mut drivers = Vec::with_capacity(pools);
        for _ in 0..pools {
            let (tx, rx) = sync_channel(config.queue_capacity.max(1));
            queues.push(tx);
            let shared = Arc::clone(&shared);
            let pool_config = config.pool.clone();
            drivers.push(scope.spawn(move || {
                drive(
                    workload,
                    pool_config,
                    &shared,
                    rx,
                    max_inflight,
                    share_isolated,
                );
            }));
        }
        PoolFrontend {
            shared,
            queues,
            drivers,
            next_seq: AtomicU64::new(0),
        }
    }

    /// Number of pools behind the front door.
    #[must_use]
    pub fn pools(&self) -> usize {
        self.queues.len()
    }

    /// The front-end's latency instruments (`frontend/queue_wait`,
    /// `frontend/verdict`, `frontend/exec`) plus the pools' heap-dump
    /// histogram (`pool/capture`: failed jobs' replays only, so zero
    /// samples on benign traffic). Observability only: none of it feeds
    /// outcome bytes or deterministic digests.
    #[must_use]
    pub fn observability(&self) -> &Arc<Registry> {
        &self.shared.obs
    }

    /// Front-end counters.
    #[must_use]
    pub fn stats(&self) -> FrontendStats {
        FrontendStats {
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
            failures: self.shared.failures.load(Ordering::Relaxed),
            backpressure_waits: self.shared.backpressure_waits.load(Ordering::Relaxed),
        }
    }

    /// The highest fleet epoch loaded so far (one version for all pools).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.shared
            .patches
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .epoch
    }

    /// A snapshot of the shared live patch table (epoch patches plus
    /// whatever the pools isolated and shared).
    #[must_use]
    pub fn patches(&self) -> PatchTable {
        self.shared
            .patches
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .table
            .clone()
    }

    /// Loads a fleet [`PatchEpoch`] if it is newer than the last one
    /// loaded — atomically for the whole front-end: one epoch version
    /// guards all K pools, so no torn state where some pools run epoch
    /// `n + 1` while the front-end still reports `n`. Returns `true` if
    /// the live table advanced.
    pub fn load_epoch(&self, epoch: &PatchEpoch) -> bool {
        let mut st = self
            .shared
            .patches
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if epoch.number <= st.epoch {
            return false;
        }
        st.epoch = epoch.number;
        st.table.merge(&epoch.patches);
        st.version += 1;
        self.shared
            .patch_version
            .store(st.version, Ordering::Release);
        true
    }

    /// Enqueues one input on the next pool in round-robin order, blocking
    /// while that pool's queue is full (backpressure). Returns the job's
    /// ticket; callers overlap their own work with the replicas and
    /// collect via the ticket.
    ///
    /// # Panics
    ///
    /// Panics if the target pool's driver died (its worker panic
    /// propagates from [`PoolFrontend::shutdown`]).
    pub fn submit(&self, input: &WorkloadInput, fault: Option<FaultSpec>) -> JobTicket {
        let slot = Arc::new(TicketSlot::new());
        let delivered = match self.try_submit(input.clone(), fault, Box::new(Arc::clone(&slot))) {
            Ok(seq) => Some(seq),
            Err(Refused::Full(pending)) => {
                let seq = pending.job();
                self.deliver(pending).then_some(seq)
            }
            Err(Refused::DriverDied) => None,
        };
        let seq = delivered.expect("pool front-end driver died; submission rejected");
        JobTicket { job: seq, slot }
    }

    /// Admits one input without blocking: assigns its global sequence
    /// number, routes it round-robin, and enqueues it if the target
    /// pool's queue has room. The driver posts the job's results to
    /// `sink`. Returns the sequence number; on a full queue the admitted
    /// job comes back as [`Refused::Full`], keeping that number.
    ///
    /// # Errors
    ///
    /// [`Refused::Full`] or [`Refused::DriverDied`]; never panics.
    pub fn try_submit(
        &self,
        input: WorkloadInput,
        fault: Option<FaultSpec>,
        sink: Box<dyn JobSink>,
    ) -> Result<u64, Refused> {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let queue = (seq % self.queues.len() as u64) as usize;
        // Counted before the job becomes visible to a driver, so readers
        // of the aggregate stats never observe completed > submitted.
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        let job = Job {
            seq,
            input: Arc::new(input),
            fault,
            sink,
            enqueued: Instant::now(),
        };
        // A dead driver has dropped its receiver, so the send fails fast
        // (dropping the job releases its sink).
        match self.queues[queue].try_send(job) {
            Ok(()) => Ok(seq),
            Err(TrySendError::Full(job)) => Err(Refused::Full(PendingJob { job, queue })),
            Err(TrySendError::Disconnected(_)) => Err(Refused::DriverDied),
        }
    }

    /// Blocks until a job [`PoolFrontend::try_submit`] handed back enters
    /// its pool's queue (backpressure). Returns `false` if that pool's
    /// driver died, in which case the job's sink was released without an
    /// outcome. A later admission may enter the queue first, exactly as
    /// with concurrent submitters: outcome bytes follow the sequence
    /// number, not queue order.
    pub fn deliver(&self, pending: PendingJob) -> bool {
        // Counted once per blocked push, however long it blocks.
        self.shared
            .backpressure_waits
            .fetch_add(1, Ordering::Relaxed);
        self.queues[pending.queue].send(pending.job).is_ok()
    }

    /// Submits a whole batch and blocks for all outcomes, returned in
    /// submission order — the front-end equivalent of
    /// [`ReplicaPool::run_batch`](crate::pool::ReplicaPool::run_batch).
    ///
    /// Collection runs newest-ticket-first: each pool finalizes its jobs
    /// in FIFO order, so once a pool's newest job has completed, the
    /// waits for its older tickets return without ever blocking — the
    /// whole batch costs at most one sleep/wake round trip per pool
    /// instead of one per job.
    pub fn run_all(&self, inputs: &[WorkloadInput], fault: Option<FaultSpec>) -> Vec<PoolOutcome> {
        let tickets: Vec<JobTicket> = inputs.iter().map(|i| self.submit(i, fault)).collect();
        let mut outcomes: Vec<PoolOutcome> =
            tickets.into_iter().rev().map(JobTicket::wait).collect();
        outcomes.reverse();
        outcomes
    }

    /// Closes the queues, lets every driver drain its backlog, shuts the
    /// pools down, and joins the drivers. Equivalent to dropping the
    /// front-end; this form marks the teardown point explicitly.
    pub fn shutdown(mut self) {
        self.close();
    }

    fn close(&mut self) {
        self.queues.clear();
        let mut driver_panic = None;
        for handle in self.drivers.drain(..) {
            if let Err(payload) = handle.join() {
                driver_panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = driver_panic {
            if !std::thread::panicking() {
                resume_unwind(payload);
            }
        }
    }
}

/// Dropping the front-end performs the same teardown as
/// [`PoolFrontend::shutdown`]: queued jobs drain, pools join their
/// workers, and a driver panic propagates (unless already unwinding).
impl Drop for PoolFrontend<'_> {
    fn drop(&mut self) {
        self.close();
    }
}

/// One driver thread: owns one [`ReplicaPool`] and marshals between the
/// front-end's queue/tickets and the pool's synchronous caller API. Jobs
/// are kept pipelined in the pool up to `max_inflight` deep and finalized
/// in FIFO order; the streaming verdict is posted to each job's ticket
/// without waiting for the stragglers.
fn drive<W: Workload + Sync + ?Sized>(
    workload: &W,
    pool_config: PoolConfig,
    shared: &Shared,
    queue: Receiver<Job>,
    max_inflight: usize,
    share_isolated: bool,
) {
    let (mut local_version, initial) = {
        let st = shared
            .patches
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        (st.version, st.table.clone())
    };
    std::thread::scope(|scope| {
        // All drivers share the front-end registry, so every pool's
        // `pool/capture` samples aggregate into one fleet-visible
        // histogram next to the frontend/* stage instruments.
        let mut pool = ReplicaPool::scoped_with_obs(
            scope,
            workload,
            pool_config,
            initial,
            Arc::clone(&shared.obs),
        );
        // Declared after the pool, so a panic below drops them *before*
        // the pool joins its workers: the receiver's drop releases every
        // job still queued and makes later submitters fail fast, and
        // `inflight`'s drop releases every job in the pool — everyone
        // waiting on this driver learns it died, then the panic
        // propagates to the front-end's join. The receiver goes first
        // (locals drop in reverse order), so a waiter that learns its
        // job died can never get a later submission accepted.
        let mut inflight: VecDeque<Inflight> = VecDeque::new();
        let queue = queue;
        loop {
            // Top the pool's pipeline up from the queue, blocking only
            // when the pool has nothing to do at all.
            let room = max_inflight - inflight.len();
            let first = inflight.is_empty().then(|| queue.recv().ok()).flatten();
            for job in first.into_iter().chain(queue.try_iter()).take(room) {
                // Per job, after its dequeue: a job submitted after
                // `load_epoch` returned can never run under the older
                // table.
                sync_patches(shared, &mut pool, &mut local_version);
                let dispatched = Instant::now();
                shared
                    .queue_wait_hist
                    .record_duration(dispatched - job.enqueued);
                let pool_job = pool.submit_shared(Arc::clone(&job.input), job.fault, job.seq);
                inflight.push_back(Inflight {
                    job,
                    pool_job,
                    verdict_posted: false,
                    dispatched,
                });
            }
            // Empty after a blocking top-up means every sender is gone
            // and the queue is drained. The front job stays in `inflight`
            // until its outcome is posted, so a panic while finalizing it
            // still releases its ticket.
            let Some(front) = inflight.front_mut() else {
                break;
            };
            let (pool_job, dispatched) = (front.pool_job, front.dispatched);
            if !front.verdict_posted {
                let verdict = pool.wait_verdict(pool_job);
                front.job.sink.verdict(front.job.seq, verdict);
                shared.verdict_hist.record_duration(dispatched.elapsed());
                front.verdict_posted = true;
            }
            // Quorums for pipelined successors form while the front
            // job's events are pumped; post them now rather than
            // head-of-line blocking each behind its predecessors'
            // full finalization. (A quorum forming *during* the
            // next_outcome below is still posted one finalization
            // late — eliminating that would need a pump hook.)
            post_ready_verdicts(&pool, shared, &mut inflight);
            let mut outcome = pool.next_outcome().expect("front job in flight");
            debug_assert_eq!(outcome.job, pool_job, "pool finalized out of order");
            let mut front = inflight.pop_front().expect("front job in flight");
            // Sinks speak the front-end's global sequence, not the
            // pool-local job counter.
            outcome.job = front.job.seq;
            if outcome.outcome.error_observed() {
                shared.failures.fetch_add(1, Ordering::Relaxed);
            }
            if share_isolated && outcome.outcome.report.is_some() {
                // The pool just escalated its own isolated patches
                // into its live table; fan them out to the siblings.
                shared.fold_patches(pool.patches());
            }
            shared.completed.fetch_add(1, Ordering::Relaxed);
            shared.exec_hist.record_duration(dispatched.elapsed());
            front.job.sink.outcome(outcome);
            post_ready_verdicts(&pool, shared, &mut inflight);
        }
        pool.shutdown();
    });
}

/// One job the driver has submitted into its pool and not yet finalized.
struct Inflight {
    job: Job,
    pool_job: u64,
    verdict_posted: bool,
    /// When the driver dispatched the job into its pool — start of the
    /// verdict and exec latency stages.
    dispatched: Instant,
}

/// Posts the streaming verdict of every in-flight job whose quorum has
/// already formed (non-blocking; at most one `poll_verdict` per unposted
/// job).
fn post_ready_verdicts(pool: &ReplicaPool<'_>, shared: &Shared, inflight: &mut VecDeque<Inflight>) {
    for entry in inflight.iter_mut().filter(|e| !e.verdict_posted) {
        if let Some(verdict) = pool.poll_verdict(entry.pool_job) {
            entry.job.sink.verdict(entry.job.seq, Some(verdict));
            shared
                .verdict_hist
                .record_duration(entry.dispatched.elapsed());
            entry.verdict_posted = true;
        }
    }
}

/// Brings `pool`'s live table up to the shared version, if it moved.
fn sync_patches(shared: &Shared, pool: &mut ReplicaPool<'_>, local_version: &mut u64) {
    if shared.patch_version.load(Ordering::Acquire) == *local_version {
        return;
    }
    let st = shared
        .patches
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    *local_version = st.version;
    pool.load_patches(&st.table);
}

#[cfg(test)]
mod tests {
    use super::*;
    use xt_workloads::EspressoLike;

    #[test]
    fn ticket_slot_recovers_from_poisoned_lock() {
        use crate::pool::VoteTiming;
        use crate::voter::VoteResult;
        use crate::ReplicatedOutcome;

        let slot = Arc::new(TicketSlot::new());
        let poisoner = Arc::clone(&slot);
        let _ = std::thread::spawn(move || {
            let _cell = poisoner.cell.lock().unwrap();
            panic!("poison the ticket lock");
        })
        .join();
        assert!(slot.cell.lock().is_err(), "lock should be poisoned");
        // Posts and polls must still work: the front-end recovers the
        // cell state instead of cascading the panic to submitters.
        let mut sink = Arc::clone(&slot);
        sink.verdict(7, None);
        sink.outcome(PoolOutcome {
            job: 7,
            outcome: ReplicatedOutcome {
                vote: VoteResult {
                    winner: Vec::new(),
                    agreeing: Vec::new(),
                    dissenting: Vec::new(),
                },
                patches: PatchTable::new(),
                report: None,
                replicas: Vec::new(),
            },
            timing: VoteTiming {
                outstanding_at_verdict: 0,
                verdict_latency: std::time::Duration::ZERO,
                full_latency: std::time::Duration::ZERO,
            },
        });
        let ticket = JobTicket {
            job: 7,
            slot: Arc::clone(&slot),
        };
        assert_eq!(ticket.try_poll().expect("outcome posted").job, 7);
        assert_eq!(ticket.wait().job, 7);
    }

    #[test]
    fn patch_state_recovers_from_poisoned_lock() {
        let workload = EspressoLike::new();
        std::thread::scope(|scope| {
            let frontend = PoolFrontend::scoped(
                scope,
                &workload,
                FrontendConfig {
                    pools: 1,
                    ..FrontendConfig::default()
                },
                PatchTable::new(),
            );
            let shared = Arc::clone(&frontend.shared);
            let _ = std::thread::spawn(move || {
                let _st = shared.patches.lock().unwrap();
                panic!("poison the patch lock");
            })
            .join();
            assert!(frontend.shared.patches.lock().is_err());
            // Epoch reads, table snapshots, and epoch loads all recover.
            assert_eq!(frontend.epoch(), 0);
            let _ = frontend.patches();
            assert!(!frontend.load_epoch(&PatchEpoch::default()));
            frontend.shutdown();
        });
    }

    #[test]
    fn frontend_serves_many_submitters() {
        let workload = EspressoLike::new();
        std::thread::scope(|scope| {
            let frontend = PoolFrontend::scoped(
                scope,
                &workload,
                FrontendConfig {
                    pools: 2,
                    queue_capacity: 2,
                    ..FrontendConfig::default()
                },
                PatchTable::new(),
            );
            std::thread::scope(|clients| {
                for t in 0..3u64 {
                    let frontend = &frontend;
                    clients.spawn(move || {
                        for i in 0..4 {
                            let out = frontend
                                .submit(&WorkloadInput::with_seed(t * 100 + i), None)
                                .wait();
                            assert!(out.outcome.vote.unanimous());
                        }
                    });
                }
            });
            let stats = frontend.stats();
            assert_eq!(stats.submitted, 12);
            assert_eq!(stats.completed, 12);
            assert_eq!(stats.failures, 0);
            // Every stage histogram saw every job exactly once.
            let snap = frontend.observability().snapshot();
            assert_eq!(snap.histogram("frontend/queue_wait").unwrap().count(), 12);
            assert_eq!(snap.histogram("frontend/verdict").unwrap().count(), 12);
            assert_eq!(snap.histogram("frontend/exec").unwrap().count(), 12);
            // The pools record into the same registry, and benign jobs
            // dump no heap.
            assert_eq!(snap.histogram("pool/capture").unwrap().count(), 0);
            frontend.shutdown();
        });
    }

    #[test]
    fn ticket_try_poll_and_verdict() {
        let workload = EspressoLike::new();
        std::thread::scope(|scope| {
            let frontend = PoolFrontend::scoped(
                scope,
                &workload,
                FrontendConfig {
                    pools: 1,
                    ..FrontendConfig::default()
                },
                PatchTable::new(),
            );
            let ticket = frontend.submit(&WorkloadInput::with_seed(7), None);
            let verdict = ticket.wait_verdict().expect("clean replicas reach quorum");
            assert!(!verdict.output.is_empty());
            // try_poll eventually observes the outcome without blocking
            // forever; wait() then consumes it.
            let outcome = loop {
                if let Some(out) = ticket.try_poll() {
                    break out;
                }
                std::thread::yield_now();
            };
            assert_eq!(outcome.job, ticket.job());
            assert_eq!(ticket.wait().outcome, outcome.outcome);
            frontend.shutdown();
        });
    }

    /// Driver death must not hang waiting submitters: tickets fail fast.
    #[test]
    fn dead_driver_fails_tickets_fast() {
        struct Panicker;
        impl Workload for Panicker {
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
                let frontend = PoolFrontend::scoped(
                    scope,
                    &Panicker,
                    FrontendConfig {
                        pools: 1,
                        ..FrontendConfig::default()
                    },
                    PatchTable::new(),
                );
                let ticket = frontend.submit(&WorkloadInput::with_seed(1), None);
                let _ = ticket.wait(); // panics: driver died
            });
        }));
        assert!(result.is_err(), "a dead driver left its ticket hanging");
    }

    /// A workload whose replicas rendezvous with the test twice per run:
    /// `arrived` proves the job is in flight, `proceed` lets it finish.
    struct Gated {
        arrived: std::sync::Barrier,
        proceed: std::sync::Barrier,
        crash: bool,
    }

    impl Gated {
        /// Three replicas plus the test thread meet at each barrier.
        fn new(crash: bool) -> Self {
            Gated {
                arrived: std::sync::Barrier::new(4),
                proceed: std::sync::Barrier::new(4),
                crash,
            }
        }
    }

    impl Workload for Gated {
        fn name(&self) -> &'static str {
            "gated"
        }
        fn run(
            &self,
            heap: &mut dyn xt_alloc::Heap,
            input: &WorkloadInput,
        ) -> xt_workloads::RunResult {
            self.arrived.wait();
            self.proceed.wait();
            assert!(!self.crash, "simulated replica crash on cue");
            EspressoLike::new().run(heap, input)
        }
    }

    /// The driver dies with one job in its pool and three still queued:
    /// every one of those tickets fails fast (the queued ones through the
    /// dropped receiver), and so does the next submitter.
    #[test]
    fn dead_driver_releases_queued_and_inflight_tickets() {
        let workload = Gated::new(true);
        let mut observed = None;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            std::thread::scope(|scope| {
                let frontend = PoolFrontend::scoped(
                    scope,
                    &workload,
                    FrontendConfig {
                        pools: 1,
                        max_inflight: 1,
                        queue_capacity: 4,
                        ..FrontendConfig::default()
                    },
                    PatchTable::new(),
                );
                // A pipeline of one: job 0 goes in flight, 1..=3 stay
                // queued behind it however the driver is scheduled.
                let tickets: Vec<JobTicket> = (0..4)
                    .map(|seed| frontend.submit(&WorkloadInput::with_seed(seed), None))
                    .collect();
                workload.arrived.wait();
                workload.proceed.wait();
                let died: Vec<bool> = tickets
                    .into_iter()
                    .map(|t| std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| t.wait())))
                    .map(|waited| waited.is_err())
                    .collect();
                let rejected = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    frontend.submit(&WorkloadInput::with_seed(9), None)
                }))
                .is_err();
                observed = Some((died, rejected));
            });
        }));
        assert!(result.is_err(), "the driver's panic did not propagate");
        let (died, rejected) = observed.expect("the waits themselves hung or escaped");
        assert_eq!(died, [true; 4], "a ticket survived its dead driver");
        assert!(rejected, "a submission to a dead driver was accepted");
    }

    /// `backpressure_waits` counts blocked pushes — once each, however
    /// long the push stays blocked — and nothing else.
    #[test]
    fn backpressure_counts_once_per_blocked_push() {
        let workload = Gated::new(false);
        std::thread::scope(|scope| {
            let frontend = PoolFrontend::scoped(
                scope,
                &workload,
                FrontendConfig {
                    pools: 1,
                    max_inflight: 1,
                    queue_capacity: 1,
                    ..FrontendConfig::default()
                },
                PatchTable::new(),
            );
            let first = frontend.submit(&WorkloadInput::with_seed(0), None);
            workload.arrived.wait(); // job 0 is in flight: the queue is empty
            let second = frontend.submit(&WorkloadInput::with_seed(1), None);
            assert_eq!(frontend.stats().backpressure_waits, 0, "the queue had room");
            std::thread::scope(|submitters| {
                let blocked =
                    submitters.spawn(|| frontend.submit(&WorkloadInput::with_seed(2), None));
                // The count moves before the push blocks on the full queue.
                while frontend.stats().backpressure_waits == 0 {
                    std::thread::yield_now();
                }
                workload.proceed.wait(); // job 0 finishes; the queue moves
                for _ in 1..3 {
                    workload.arrived.wait();
                    workload.proceed.wait();
                }
                let third = blocked.join().expect("blocked submitter");
                for ticket in [first, second, third] {
                    assert!(ticket.wait().outcome.vote.unanimous());
                }
            });
            assert_eq!(frontend.stats().backpressure_waits, 1);
            frontend.shutdown();
        });
    }

    /// The non-blocking admission: a full queue hands the admitted job
    /// back with its sequence number, the blocking send delivers that
    /// same job, and no sequence number is burnt on the way.
    #[test]
    fn full_queue_hands_the_job_back_and_deliver_sends_it() {
        let workload = Gated::new(false);
        std::thread::scope(|scope| {
            let frontend = PoolFrontend::scoped(
                scope,
                &workload,
                FrontendConfig {
                    pools: 1,
                    max_inflight: 1,
                    queue_capacity: 1,
                    ..FrontendConfig::default()
                },
                PatchTable::new(),
            );
            let slot = || Arc::new(TicketSlot::new());
            let ticket = |job, slot| JobTicket { job, slot };
            let first = frontend.submit(&WorkloadInput::with_seed(0), None);
            workload.arrived.wait(); // job 0 is in flight: the queue is empty
            let queued = slot();
            let seq = frontend
                .try_submit(
                    WorkloadInput::with_seed(1),
                    None,
                    Box::new(Arc::clone(&queued)),
                )
                .unwrap_or_else(|_| panic!("the queue had room"));
            assert_eq!(seq, 1);
            let handed_back = slot();
            let Err(Refused::Full(pending)) = frontend.try_submit(
                WorkloadInput::with_seed(2),
                None,
                Box::new(Arc::clone(&handed_back)),
            ) else {
                panic!("a full queue took the job");
            };
            assert_eq!(pending.job(), 2, "the refused job lost its number");
            assert_eq!(frontend.stats().submitted, 3);
            assert_eq!(frontend.stats().backpressure_waits, 0);
            std::thread::scope(|senders| {
                let sender = senders.spawn(|| frontend.deliver(pending));
                workload.proceed.wait(); // job 0 finishes; the queue moves
                for _ in 1..3 {
                    workload.arrived.wait();
                    workload.proceed.wait();
                }
                assert!(sender.join().expect("blocked sender"), "delivery failed");
            });
            assert_eq!(frontend.stats().backpressure_waits, 1);
            let outcomes: Vec<u64> = [first, ticket(1, queued), ticket(2, handed_back)]
                .into_iter()
                .map(|t| {
                    let out = t.wait();
                    assert!(out.outcome.vote.unanimous());
                    out.job
                })
                .collect();
            assert_eq!(outcomes, [0, 1, 2]);
            // The next admission continues the sequence: nothing was burnt.
            let next = frontend.submit(&WorkloadInput::with_seed(3), None);
            assert_eq!(next.job(), 3);
            workload.arrived.wait();
            workload.proceed.wait();
            assert_eq!(next.wait().job, 3);
            frontend.shutdown();
        });
    }
}
