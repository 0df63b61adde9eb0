//! The network front door: a readiness-driven TCP server wrapping a
//! [`PoolFrontend`].
//!
//! One [`NetFrontend`] owns one [`PoolFrontend`] (K replica pools behind
//! bounded queues) plus one [`FleetService`], and serves both over
//! framed TCP connections. Since the event-loop rewrite the server is
//! **not** thread-per-connection: one poller thread owns every socket
//! and multiplexes them through [`xt_poll::Poller`] (epoll on Linux, a
//! portable level-triggered fallback elsewhere), so tens of thousands
//! of mostly-idle connections cost file descriptors and per-connection
//! state — not threads.
//!
//! * **Per-connection state machines.** Every socket is non-blocking.
//!   Incoming bytes accumulate in a per-connection read buffer and are
//!   cut into frames by [`Frame::parse_prefix`] (the incremental
//!   sibling of the blocking codec), one cursor pass per read. Outgoing
//!   frames are appended, back to back, to one per-connection byte
//!   buffer: inline replies, frames posted by drivers and workers, and
//!   epoch pushes alike. Nothing is written while a cycle collects
//!   them; the settle pass at the end of the poll iteration flushes each
//!   touched connection with one write, and a writable event drains a
//!   backlog at once. Partial reads and partial writes are ordinary
//!   states, not errors.
//! * **Bounded everything (backpressure discipline preserved).** The
//!   accept path stops pulling from the kernel backlog at
//!   `max_connections` (the listener is deregistered until a slot
//!   frees — the event-loop analogue of the old blocking accept
//!   budget). Per connection, at most `MAX_CONN_INFLIGHT` admitted
//!   jobs and reports are outstanding and at most `WRITE_QUEUE_SOFT`
//!   reply bytes may sit unwritten before the server simply *stops
//!   reading* that connection — TCP backpressure does the rest,
//!   exactly the burst-degrades-to-waiting discipline of the
//!   front-end's bounded queues. An epoch push to a client more than `WRITE_QUEUE_HARD`
//!   behind is dropped (counted in `net/pushes_dropped`) and *owed*:
//!   once that client's buffer drains it is sent the newest epoch —
//!   one flag, not a backlog, because only the newest epoch matters.
//! * **The poller admits, the pool driver replies.** Frame parsing,
//!   job admission and cheap pulls (health/metrics) run on the poller
//!   thread. A [`Msg::Submit`] is admitted with
//!   [`PoolFrontend::try_submit`], which never blocks, and answered
//!   `Accepted` in the same poll iteration. The job carries a sink that
//!   encodes its `Verdict` and `Outcome` frames on the pool driver's
//!   thread and posts them to the poller's mailbox. The mailbox is
//!   drained only at the top of an iteration, before any reads, so a
//!   job's `Accepted` (appended while this iteration reads) always sits
//!   in the write buffer ahead of its `Verdict` and `Outcome`, and its
//!   frames stay in order. What can block goes to a fixed pool of
//!   `workers` threads: [`Msg::Report`] ingests (WAL appends) and the
//!   send of a job whose pool queue was full ([`PoolFrontend::deliver`]). A job released without an
//!   outcome (its pool's driver died) sends an `Error` frame and closes
//!   its connection: an `Error` names no job, so every waiter on the
//!   connection must fail rather than one of them hang.
//! * **Determinism survives the wire.** Every submission goes through
//!   the front-end's admission step, which assigns the global sequence
//!   number that seeds the replicas — so *which connection* carried an
//!   input, and how readiness events interleaved, decides only arrival
//!   order (nondeterminism a local concurrent submitter has too), never
//!   an outcome byte. `xt-net/tests/net.rs` pins remote outcomes
//!   byte-identical to in-process serial runs.
//! * **Epochs are pushed — the only path, and a complete one.** An
//!   epoch watcher thread parks in [`FleetService::wait_epoch_newer`];
//!   the moment a `PatchEpoch` publishes (or, at start, a durable
//!   server recovers one) it loads the epoch into the server's own
//!   pools and hands the poller a [`Msg::EpochPush`] frame. The poller
//!   keeps the newest push's bytes and delivers them three ways: at
//!   *publish* down every live connection (propagation latency lands
//!   in the `net/epoch_push` histogram), at *connect* to a client that
//!   joins after a publish (nothing is sent while the fleet is still
//!   at epoch 0), and at *drain* to a client whose push was dropped.
//!   Remote reports flow through the fleet service ([`Msg::Report`] →
//!   ingest → receipt); the worker re-syncs the front-end when a
//!   receipt proves the epoch number advanced, and the receipt's
//!   `epoch` tells the reporter which push to wait for.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use exterminator::frontend::{FrontendConfig, JobSink, PendingJob, PoolFrontend, Refused};
use exterminator::pool::{EarlyVerdict, PoolOutcome};
use xt_fleet::frame::Frame;
use xt_fleet::{
    bridge, DurabilityConfig, DurabilityError, DurableFleet, FleetConfig, FleetMetrics,
    FleetService, IngestReceipt, Storage,
};
use xt_obs::{Counter, Gauge, Histogram, Registry, RegistrySnapshot};
use xt_patch::PatchTable;
use xt_poll::{Interest, Poller};
use xt_workloads::Workload;

use crate::proto::{Msg, WireHealth, WireOutcome, WireReceipt, WireVerdict};

/// Upper bound on the poller's sleep: shutdown latency and the epoch
/// watcher's stop-flag recheck cadence are bounded by this.
const POLL_INTERVAL: Duration = Duration::from_millis(200);

/// The poll token reserved for the listener; connections get tokens
/// from a monotone counter starting at 1 (never reused, so a late
/// completion can never reach a *different* connection).
const LISTENER_TOKEN: usize = 0;

/// Admitted jobs and reports outstanding per connection before the
/// poller stops reading it (the event-loop analogue of the old
/// one-reader-thread natural limit; a pipelining client beyond this
/// waits in TCP).
const MAX_CONN_INFLIGHT: usize = 64;

/// Unwritten bytes per connection above which the poller stops
/// reading that connection (replies outstanding ≈ requests admitted).
const WRITE_QUEUE_SOFT: usize = 1 << 20;

/// Unwritten bytes per connection above which unsolicited pushes
/// (epoch broadcasts) are dropped rather than queued — and owed, see
/// [`Conn::push_owed`]. Replies are never dropped — the soft cap stops
/// producing them first.
const WRITE_QUEUE_HARD: usize = 4 << 20;

/// Bytes per non-blocking read pass.
const READ_CHUNK: usize = 16 * 1024;

/// Write-buffer capacity a connection keeps beyond twice its unwritten
/// bytes; a full drain gives back everything above it, so one burst
/// does not pin megabytes on an idle connection.
const WRITE_BUF_KEEP: usize = 16 * 1024;

/// Durable-mode configuration for a [`NetFrontend`]: where the fleet's
/// evidence WAL and snapshots live, and how often they compact.
#[derive(Clone)]
pub struct NetDurability {
    /// The storage the WAL and snapshots are written to (e.g.
    /// [`DirStorage`](xt_fleet::DirStorage) over a data directory).
    /// Binding *recovers* from whatever this storage holds before the
    /// first connection is accepted.
    pub storage: Arc<dyn Storage>,
    /// Snapshot cadence and WAL policy.
    pub config: DurabilityConfig,
}

impl std::fmt::Debug for NetDurability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetDurability")
            .field("storage", &"<dyn Storage>")
            .field("config", &self.config)
            .finish()
    }
}

/// Configuration for a [`NetFrontend`].
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// The wrapped pool front-end (pools, replicas, queues, routing).
    pub frontend: FrontendConfig,
    /// The co-located fleet service reports are ingested into.
    pub fleet: FleetConfig,
    /// Connection budget: sockets served concurrently. Beyond it the
    /// listener is parked (backpressure into the kernel backlog), it
    /// does not spawn or grow anything.
    pub max_connections: usize,
    /// Blocking-work threads: report ingests (WAL appends) and the
    /// send of a job whose pool queue was full run here, so the poller
    /// thread never blocks. Jobs are not carried by a worker: the
    /// poller admits them and the pool drivers post their replies.
    /// Fixed size — the thread count does not scale with connections.
    pub workers: usize,
    /// Initial patch table the pools start from.
    pub patches: PatchTable,
    /// When set, the fleet service is wrapped in a
    /// [`DurableFleet`]: binding recovers the evidence state from
    /// storage, every remote report is WAL-logged before it folds, and a
    /// graceful shutdown writes a final compacted snapshot.
    pub durability: Option<NetDurability>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            frontend: FrontendConfig::default(),
            fleet: FleetConfig::default(),
            max_connections: 32,
            workers: 4,
            patches: PatchTable::new(),
            durability: None,
        }
    }
}

/// The server's fleet: either a bare in-memory service or the durable
/// wrapper. Reads go to the same [`FleetService`] either way; the split
/// exists so the ingest path can route through the WAL.
enum FleetBackend {
    Plain(Arc<FleetService>),
    Durable(DurableFleet<Arc<dyn Storage>>),
}

impl FleetBackend {
    fn service(&self) -> &FleetService {
        match self {
            FleetBackend::Plain(service) => service,
            FleetBackend::Durable(fleet) => fleet.service(),
        }
    }

    fn service_handle(&self) -> Arc<FleetService> {
        match self {
            FleetBackend::Plain(service) => Arc::clone(service),
            FleetBackend::Durable(fleet) => fleet.service_handle(),
        }
    }

    fn ingest(&self, bytes: &[u8]) -> Result<IngestReceipt, DurabilityError> {
        match self {
            FleetBackend::Plain(service) => Ok(service.ingest(bytes)?),
            FleetBackend::Durable(fleet) => fleet.ingest(bytes),
        }
    }

    fn metrics(&self) -> FleetMetrics {
        match self {
            FleetBackend::Plain(service) => service.metrics(),
            FleetBackend::Durable(fleet) => fleet.metrics(),
        }
    }
}

/// Aggregate server counters (monotone; read via [`NetFrontend::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted.
    pub connections: u64,
    /// Jobs submitted over the wire.
    pub jobs: u64,
    /// Run reports accepted into the fleet service.
    pub reports: u64,
    /// Frames or nested reports rejected as malformed or out of
    /// protocol.
    pub rejected: u64,
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    jobs: AtomicU64,
    reports: AtomicU64,
    rejected: AtomicU64,
}

/// The wire layer's own observability: frame traffic, server-side
/// request round-trip latency, live connections, write-queue depth,
/// epoch-push propagation, and the server's start instant (for
/// health-probe uptime). Purely operational — like every other
/// instrument, none of it feeds deterministic digests.
struct NetObs {
    registry: Arc<Registry>,
    /// Server-side request→reply latency (`net/wire_rtt`), recorded
    /// per dispatched request frame when its reply is appended to the
    /// connection's write buffer, not when the end-of-cycle flush writes
    /// it.
    wire_rtt: Arc<Histogram>,
    /// Epoch publication → push frame appended to a connection's write
    /// buffer (`net/epoch_push`), recorded once per live connection per
    /// published epoch.
    epoch_push: Arc<Histogram>,
    /// Frames decoded off connections (`net/frames_in`).
    frames_in: Arc<Counter>,
    /// Frames queued toward connections (`net/frames_out`), replies
    /// and pushes alike.
    frames_out: Arc<Counter>,
    /// `write` calls that moved bytes (`net/writes`); `frames_out ÷
    /// writes` is how many frames one syscall carries.
    writes: Arc<Counter>,
    /// Epoch pushes dropped at a connection over its hard write cap
    /// (`net/pushes_dropped`).
    pushes_dropped: Arc<Counter>,
    /// Live connections (`net/connections`).
    connections: Arc<Gauge>,
    /// Unwritten bytes in per-connection write buffers, summed
    /// (`net/write_queue_bytes`).
    write_queue: Arc<Gauge>,
    /// Jobs and reports admitted and not yet answered in full
    /// (`net/inflight_jobs`).
    inflight: Arc<Gauge>,
    started: Instant,
}

impl NetObs {
    fn new() -> Self {
        let registry = Registry::new();
        NetObs {
            wire_rtt: registry.histogram("net/wire_rtt"),
            epoch_push: registry.histogram("net/epoch_push"),
            frames_in: registry.counter("net/frames_in"),
            frames_out: registry.counter("net/frames_out"),
            writes: registry.counter("net/writes"),
            pushes_dropped: registry.counter("net/pushes_dropped"),
            connections: registry.gauge("net/connections"),
            write_queue: registry.gauge("net/write_queue_bytes"),
            inflight: registry.gauge("net/inflight_jobs"),
            started: Instant::now(),
            registry,
        }
    }
}

/// Blocking work dispatched off the poller thread.
enum Work {
    /// A job admitted while its pool queue was full: its `Accepted` is
    /// already queued; the worker blocks in the queue's send.
    Deliver(PendingJob),
    Report {
        conn: usize,
        bytes: Vec<u8>,
        at: Instant,
    },
}

/// What flows back from pool drivers, workers and the epoch watcher to
/// the poller.
enum Notice {
    /// One encoded frame for one connection. `done` marks the last frame
    /// of one admitted job or report (releases its inflight slot);
    /// `close` flushes the connection and closes it after this frame.
    Frame {
        conn: usize,
        bytes: Vec<u8>,
        done: bool,
        close: bool,
    },
    /// One encoded frame for *every* live connection (epoch push).
    Broadcast { bytes: Vec<u8>, published: Instant },
}

/// The poller's mailbox plus the poller handle that wakes it.
struct Mailbox {
    notices: Mutex<Vec<Notice>>,
    poller: Arc<Poller>,
}

impl Mailbox {
    fn locked(&self) -> MutexGuard<'_, Vec<Notice>> {
        // Poison recovery: a thread panicking mid-push leaves at worst
        // a missing notice (its work item is lost with it); the vec
        // itself is push-only and structurally sound.
        self.notices.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn post(&self, notice: Notice) {
        self.locked().push(notice);
        let _ = self.poller.notify();
    }

    fn post_frame(&self, conn: usize, msg: &Msg, done: bool) {
        self.post(Notice::Frame {
            conn,
            bytes: msg.to_frame().encode(),
            done,
            close: false,
        });
    }
}

/// Where a remote job's results go: its connection. Called on the pool
/// driver's thread, which encodes each frame and posts it to the
/// poller; the outcome is the job's last frame.
struct WireSink {
    conn: usize,
    mailbox: Arc<Mailbox>,
    /// The outcome went out, so release has nothing left to say.
    answered: bool,
}

impl JobSink for WireSink {
    fn verdict(&mut self, job: u64, verdict: Option<EarlyVerdict>) {
        let verdict = verdict.as_ref().map(WireVerdict::from_early);
        self.mailbox
            .post_frame(self.conn, &Msg::Verdict { job, verdict }, false);
    }

    fn outcome(&mut self, outcome: PoolOutcome) {
        self.answered = true;
        self.mailbox.post_frame(
            self.conn,
            &Msg::Outcome(WireOutcome::from_pool(&outcome)),
            true,
        );
    }

    fn release(&mut self, job: u64) {
        if self.answered {
            return;
        }
        // The job's pool driver died. An `Error` frame names no job, so
        // say why and close: every waiter on the connection fails
        // instead of one of them hanging on a frame that never comes.
        let bytes = Msg::Error {
            message: format!("pool front-end driver died serving job {job}"),
        }
        .to_frame()
        .encode();
        self.mailbox.post(Notice::Frame {
            conn: self.conn,
            bytes,
            done: true,
            close: true,
        });
    }
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    /// Accumulated unparsed inbound bytes (at most one partial frame
    /// plus one read chunk, since complete frames are cut out eagerly).
    read_buf: Vec<u8>,
    /// Encoded frames awaiting the socket, back to back; the first
    /// `written` bytes are already gone.
    out: Vec<u8>,
    written: usize,
    /// Worker jobs dispatched for this connection, not yet completed.
    inflight: usize,
    /// The interest set currently registered with the poller.
    interest: Interest,
    /// The newest epoch push has not been queued to this connection: it
    /// joined after the publish, or its buffer was over
    /// [`WRITE_QUEUE_HARD`] at the broadcast. Settled with the newest
    /// bytes as soon as the buffer has room — newest-wins, so one flag
    /// stands in for any number of missed pushes.
    push_owed: bool,
    /// Flush the buffer, then close (protocol-error goodbyes).
    closing: bool,
    /// Close now; reaped at the end of the poll iteration.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream, push_owed: bool) -> Self {
        Conn {
            stream,
            read_buf: Vec::new(),
            out: Vec::new(),
            written: 0,
            inflight: 0,
            interest: Interest::READABLE,
            push_owed,
            closing: false,
            dead: false,
        }
    }

    /// Bytes queued toward the socket and not yet written.
    fn unwritten(&self) -> usize {
        self.out.len() - self.written
    }

    /// The interest this connection's state wants: readable unless it
    /// is saying goodbye or over an inflight/write cap (read-gating is
    /// the backpressure), writable only while bytes are unwritten.
    fn desired_interest(&self) -> Interest {
        Interest {
            readable: !self.closing
                && self.inflight < MAX_CONN_INFLIGHT
                && self.unwritten() < WRITE_QUEUE_SOFT,
            writable: self.unwritten() > 0,
        }
    }
}

/// The running server. Binding spawns a poller thread that owns the
/// listener, every connection, and the worker pool; dropping the handle
/// (or calling [`NetFrontend::shutdown`]) stops the loop, closes every
/// socket, and joins everything.
pub struct NetFrontend {
    addr: SocketAddr,
    service: Arc<FleetService>,
    backend: Arc<FleetBackend>,
    counters: Arc<Counters>,
    obs: Arc<NetObs>,
    stop: Arc<AtomicBool>,
    poller: Arc<Poller>,
    handle: Option<JoinHandle<()>>,
}

impl NetFrontend {
    /// Binds `addr` (use port 0 for an OS-assigned port) and starts
    /// serving `workload` behind a fresh [`PoolFrontend`].
    ///
    /// # Errors
    ///
    /// Propagates listener binding or poller creation failures; in
    /// durable mode, also storage or recovery failures (a corrupt
    /// snapshot, an incompatible grid) — a durable server refuses to
    /// start blind rather than silently forgetting the fleet's
    /// evidence.
    pub fn bind<W>(workload: W, addr: impl ToSocketAddrs, config: NetConfig) -> io::Result<Self>
    where
        W: Workload + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let poller = Arc::new(Poller::new()?);
        let backend = Arc::new(match config.durability.clone() {
            Some(d) => FleetBackend::Durable(
                DurableFleet::open(d.storage, config.fleet, d.config).map_err(io::Error::other)?,
            ),
            None => FleetBackend::Plain(Arc::new(FleetService::new(config.fleet))),
        });
        let service = backend.service_handle();
        let counters = Arc::new(Counters::default());
        let obs = Arc::new(NetObs::new());
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let backend = Arc::clone(&backend);
            let counters = Arc::clone(&counters);
            let obs = Arc::clone(&obs);
            let stop = Arc::clone(&stop);
            let poller = Arc::clone(&poller);
            std::thread::spawn(move || {
                serve(
                    &workload, &listener, &config, &backend, &counters, &obs, &stop, poller,
                );
            })
        };
        Ok(NetFrontend {
            addr,
            service,
            backend,
            counters,
            obs,
            stop,
            poller,
            handle: Some(handle),
        })
    }

    /// The bound address remote clients connect to.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The co-located fleet service (epoch inspection, direct ingest).
    #[must_use]
    pub fn service(&self) -> &Arc<FleetService> {
        &self.service
    }

    /// Fleet-layer metrics. In durable mode the durability counters
    /// (`wal_appends`, `snapshots_written`, `recoveries`,
    /// `torn_tail_truncated`) are live; in plain mode they read 0.
    #[must_use]
    pub fn fleet_metrics(&self) -> FleetMetrics {
        self.backend.metrics()
    }

    /// The wire layer's metrics registry (`net/wire_rtt`,
    /// `net/epoch_push`, `net/frames_in`, `net/frames_out`,
    /// `net/connections`, `net/write_queue_bytes`, `net/inflight_jobs`,
    /// `net/pushes_dropped`). The *merged* cross-layer snapshot — this
    /// plus the front-end's per-job histograms and the fleet's — is
    /// what [`Msg::MetricsPull`] returns over the wire; see
    /// [`NetFrontend::metrics_snapshot`] for the server-side subset.
    #[must_use]
    pub fn observability(&self) -> &Arc<Registry> {
        &self.obs.registry
    }

    /// Fleet + wire layers' merged snapshot, available without a
    /// connection. The front-end's per-job histograms
    /// (`frontend/...`) live inside the server thread's scope and are
    /// only reachable through a wire [`Msg::MetricsPull`].
    #[must_use]
    pub fn metrics_snapshot(&self) -> RegistrySnapshot {
        let mut snap = self.service.observability().snapshot();
        snap.merge(self.backend.metrics().counters_snapshot());
        snap.merge(self.obs.registry.snapshot());
        snap
    }

    /// Aggregate counters.
    #[must_use]
    pub fn stats(&self) -> NetStats {
        NetStats {
            connections: self.counters.connections.load(Ordering::Relaxed),
            jobs: self.counters.jobs.load(Ordering::Relaxed),
            reports: self.counters.reports.load(Ordering::Relaxed),
            rejected: self.counters.rejected.load(Ordering::Relaxed),
        }
    }

    /// Stops the event loop, closes every connection, waits for
    /// in-flight jobs and the pools to shut down, and joins the server
    /// thread. Equivalent to dropping the handle; this form marks the
    /// teardown explicitly.
    ///
    /// # Panics
    ///
    /// Re-raises a server-side panic (e.g. a replica worker crash
    /// propagated through the worker pool).
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::Release);
        // Wake the poller directly; the throwaway connect is a second
        // belt-and-braces wake that also covers a poller wedged before
        // its first wait.
        let _ = self.poller.notify();
        let _ = TcpStream::connect(self.addr);
        if let Err(payload) = handle.join() {
            if !std::thread::panicking() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

impl Drop for NetFrontend {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// The server thread body: owns the front-end for its whole life, runs
/// the poll loop with a worker pool and epoch watcher beside it, and
/// tears the pools down once the loop exits.
#[allow(clippy::too_many_arguments)]
fn serve<W: Workload + Sync>(
    workload: &W,
    listener: &TcpListener,
    config: &NetConfig,
    backend: &FleetBackend,
    counters: &Counters,
    obs: &NetObs,
    stop: &AtomicBool,
    poller: Arc<Poller>,
) {
    // Shared, not borrowed: every admitted job's sink holds a handle,
    // and jobs live on the pool drivers' threads.
    let mailbox = Arc::new(Mailbox {
        notices: Mutex::new(Vec::new()),
        poller,
    });
    // The highest epoch number already loaded into the front-end's
    // pools; lets the report path skip the old per-report epoch poll.
    let synced_epoch = AtomicU64::new(0);
    std::thread::scope(|outer| {
        let frontend = PoolFrontend::scoped(
            outer,
            workload,
            config.frontend.clone(),
            config.patches.clone(),
        );
        let (work_tx, work_rx) = mpsc::channel::<Work>();
        let work_rx = Mutex::new(work_rx);
        std::thread::scope(|inner| {
            for _ in 0..config.workers.max(1) {
                inner.spawn(|| {
                    worker_loop(
                        &work_rx,
                        &frontend,
                        backend,
                        counters,
                        obs,
                        &mailbox,
                        &synced_epoch,
                    );
                });
            }
            inner.spawn(|| {
                epoch_watcher(backend.service(), &frontend, &mailbox, stop, &synced_epoch);
            });
            // Runs on this thread; consumes `work_tx`, so the workers'
            // channel closes (and they drain and exit) when it returns.
            poll_loop(
                listener, config, backend, counters, obs, stop, &mailbox, &frontend, work_tx,
            );
        });
        frontend.shutdown();
    });
    // Graceful exit: compact what the WAL holds so the next start
    // replays nothing. Best-effort — a failure here only costs the next
    // open a longer replay, never correctness.
    if let FleetBackend::Durable(fleet) = backend {
        let _ = fleet.snapshot();
    }
}

/// A worker: pulls blocking work items and runs each, posting report
/// replies back to the poller. It carries no job past its pool queue.
fn worker_loop(
    work_rx: &Mutex<mpsc::Receiver<Work>>,
    frontend: &PoolFrontend<'_>,
    backend: &FleetBackend,
    counters: &Counters,
    obs: &NetObs,
    mailbox: &Mailbox,
    synced_epoch: &AtomicU64,
) {
    loop {
        // Hold the receiver lock only for the dequeue, not the work.
        let work = {
            let rx = work_rx.lock().unwrap_or_else(PoisonError::into_inner);
            rx.recv()
        };
        let Ok(work) = work else {
            return; // channel closed: the poll loop exited
        };
        match work {
            Work::Deliver(pending) => {
                // `false` means the pool's driver died: dropping the job
                // released its sink, which told the connection.
                frontend.deliver(pending);
            }
            Work::Report { conn, bytes, at } => {
                // The durable backend WAL-logs before folding.
                let reply = match backend.ingest(&bytes) {
                    Ok(receipt) => {
                        counters.reports.fetch_add(1, Ordering::Relaxed);
                        // Heal the server's own pools — but only when
                        // the receipt proves the epoch advanced past
                        // what the front-end already runs. The old
                        // unconditional per-report `latest()` poll is
                        // retired; the epoch watcher covers pushes.
                        if receipt.epoch > synced_epoch.load(Ordering::Acquire) {
                            bridge::sync_frontend(backend.service(), frontend);
                            synced_epoch.fetch_max(receipt.epoch, Ordering::AcqRel);
                        }
                        Msg::ReportAck(WireReceipt {
                            duplicate: receipt.duplicate,
                            observations: receipt.observations as u32,
                            epoch: receipt.epoch,
                        })
                    }
                    Err(e) => {
                        // Rate-limited reports land here too: the
                        // admission refusal crosses back as an `Error`
                        // frame without dropping the connection, so a
                        // throttled client can back off and retry.
                        counters.rejected.fetch_add(1, Ordering::Relaxed);
                        Msg::Error {
                            message: e.to_string(),
                        }
                    }
                };
                // Record before posting: once the reply is visible to
                // the poller the client may already be pulling metrics,
                // and the sample must be in the histogram it reads.
                obs.wire_rtt.record_duration(at.elapsed());
                mailbox.post_frame(conn, &reply, true);
            }
        }
    }
}

/// The epoch watcher: parks on the service's epoch signal and, per
/// fresh epoch, syncs the server's own pools and broadcasts the push
/// frame. Starting from epoch 0 means an epoch a durable server
/// recovered at bind counts as fresh: it takes the same path once, which
/// primes the poller's newest-push bytes for every later connection. The
/// park is bounded by [`POLL_INTERVAL`] so the stop flag is honored
/// promptly.
fn epoch_watcher(
    service: &FleetService,
    frontend: &PoolFrontend<'_>,
    mailbox: &Mailbox,
    stop: &AtomicBool,
    synced_epoch: &AtomicU64,
) {
    let mut have = 0;
    while !stop.load(Ordering::Acquire) {
        let Some(epoch) = service.wait_epoch_newer(have, POLL_INTERVAL) else {
            continue;
        };
        have = epoch.number;
        frontend.load_epoch(&epoch);
        synced_epoch.fetch_max(have, Ordering::AcqRel);
        let bytes = Msg::EpochPush {
            epoch: epoch.to_text(),
        }
        .to_frame()
        .encode();
        mailbox.post(Notice::Broadcast {
            bytes,
            published: Instant::now(),
        });
    }
}

/// Everything a poll-loop helper needs a view of.
struct Ctx<'a, 'scope> {
    backend: &'a FleetBackend,
    counters: &'a Counters,
    obs: &'a NetObs,
    frontend: &'a PoolFrontend<'scope>,
    mailbox: &'a Arc<Mailbox>,
    work_tx: &'a mpsc::Sender<Work>,
}

/// The poller thread's main loop: readiness in, frames parsed and
/// dispatched, completions and broadcasts out.
#[allow(clippy::too_many_arguments)]
fn poll_loop(
    listener: &TcpListener,
    config: &NetConfig,
    backend: &FleetBackend,
    counters: &Counters,
    obs: &NetObs,
    stop: &AtomicBool,
    mailbox: &Arc<Mailbox>,
    frontend: &PoolFrontend<'_>,
    work_tx: mpsc::Sender<Work>,
) {
    let poller = &*mailbox.poller;
    if poller
        .register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE)
        .is_err()
    {
        return;
    }
    let max_connections = config.max_connections.max(1);
    let ctx = Ctx {
        backend,
        counters,
        obs,
        frontend,
        mailbox,
        work_tx: &work_tx,
    };
    let mut conns: BTreeMap<usize, Conn> = BTreeMap::new();
    // The encoded frame of the newest epoch broadcast so far: what a
    // late joiner is greeted with and what an owed push is settled with.
    let mut newest_push: Option<Vec<u8>> = None;
    let mut next_token = LISTENER_TOKEN + 1;
    let mut listener_armed = true;
    let mut events = Vec::new();
    // Tokens an event or notice reached this cycle: the only
    // connections whose death or interest can have changed, so the
    // end-of-cycle bookkeeping walks this list, not the population —
    // with 10k mostly-idle connections the difference decides how fast
    // the busy few (and the accept ramp) are served.
    let mut touched: Vec<usize> = Vec::new();
    loop {
        let _ = poller.wait(&mut events, Some(POLL_INTERVAL));
        if stop.load(Ordering::Acquire) {
            break;
        }

        // Posted replies and epoch broadcasts first: they free inflight
        // slots, which can re-open read gates below. Only here, so a
        // reply the poller appends inline while reading below always
        // precedes whatever the drivers post for the same request.
        let notices = std::mem::take(&mut *mailbox.locked());
        for notice in notices {
            match notice {
                Notice::Frame {
                    conn,
                    bytes,
                    done,
                    close,
                } => {
                    if done {
                        obs.inflight.add(-1);
                    }
                    if let Some(c) = conns.get_mut(&conn) {
                        if done {
                            c.inflight = c.inflight.saturating_sub(1);
                        }
                        // The settle pass's flush that empties the
                        // buffer is the one that closes.
                        c.closing |= close;
                        enqueue(c, &bytes, obs);
                        touched.push(conn);
                    }
                }
                Notice::Broadcast { bytes, published } => {
                    broadcast_epoch(&mut conns, &bytes, published, obs, &mut touched);
                    newest_push = Some(bytes);
                }
            }
        }

        // Readiness events.
        for &ev in &events {
            if ev.token == LISTENER_TOKEN {
                let first_new = next_token;
                accept_ready(
                    listener,
                    poller,
                    &mut conns,
                    &mut next_token,
                    max_connections,
                    &mut listener_armed,
                    newest_push.is_some(),
                    counters,
                    obs,
                    stop,
                );
                // Late joiners are owed the newest epoch; the settle
                // pass below greets them.
                touched.extend(first_new..next_token);
            } else if let Some(c) = conns.get_mut(&ev.token) {
                if ev.writable {
                    drain_writes(c, obs);
                }
                if ev.readable && !c.dead {
                    read_ready(c, ev.token, &ctx);
                }
                if ev.error && c.unwritten() == 0 {
                    c.dead = true;
                }
                touched.push(ev.token);
            }
        }

        // Settle owed pushes, flush, reap the dead, update interests,
        // re-arm the listener — over the touched set only. Every path
        // that appends to a connection's buffer, marks it dead, shifts
        // its interest, or makes room in its buffer (accepts, reads,
        // writes, worker completions, broadcasts) runs above and records
        // the token, so nothing outside `touched` can need attention.
        // The flush here is the cycle's one write per connection: every
        // frame the cycle collected for it leaves together.
        touched.sort_unstable();
        touched.dedup();
        for token in touched.drain(..) {
            let Some(c) = conns.get_mut(&token) else {
                continue;
            };
            if c.push_owed && !c.closing && !c.dead {
                if let Some(bytes) = &newest_push {
                    push_epoch(c, bytes, obs);
                }
            }
            // A connection that died reading (EOF, framing garbage)
            // still gets the replies its earlier frames earned.
            drain_writes(c, obs);
            if c.dead {
                let c = conns.remove(&token).expect("present above");
                // The socket closes on drop; inflight work for this
                // token finishes server-side and its notices fall on
                // the floor.
                close_conn(&c, poller, obs);
                continue;
            }
            let desired = c.desired_interest();
            if desired != c.interest
                && poller
                    .reregister(c.stream.as_raw_fd(), token, desired)
                    .is_ok()
            {
                c.interest = desired;
            }
        }
        if !listener_armed && conns.len() < max_connections {
            listener_armed = poller
                .register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE)
                .is_ok();
        }
    }
    // Teardown: every socket closes (clients observe a disconnect);
    // in-flight jobs complete against the still-running pools.
    for c in conns.values() {
        close_conn(c, poller, obs);
    }
    let _ = poller.deregister(listener.as_raw_fd());
}

/// Accepts until the kernel backlog is drained or the connection budget
/// is reached (then the listener is parked — backpressure, not drops).
#[allow(clippy::too_many_arguments)]
fn accept_ready(
    listener: &TcpListener,
    poller: &Poller,
    conns: &mut BTreeMap<usize, Conn>,
    next_token: &mut usize,
    max_connections: usize,
    listener_armed: &mut bool,
    push_owed: bool,
    counters: &Counters,
    obs: &NetObs,
    stop: &AtomicBool,
) {
    loop {
        if conns.len() >= max_connections {
            if *listener_armed && poller.deregister(listener.as_raw_fd()).is_ok() {
                *listener_armed = false;
            }
            return;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        // The shutdown path's wake connect must not count or register.
        if stop.load(Ordering::Acquire) {
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        // Frames are small request/reply and push units; leaving Nagle
        // on serializes every round trip behind delayed ACKs (~100x on
        // localhost). Writes are whole frames, so there is nothing for
        // the kernel to usefully batch.
        let _ = stream.set_nodelay(true);
        let token = *next_token;
        *next_token += 1;
        if poller
            .register(stream.as_raw_fd(), token, Interest::READABLE)
            .is_err()
        {
            continue;
        }
        counters.connections.fetch_add(1, Ordering::Relaxed);
        obs.connections.add(1);
        conns.insert(token, Conn::new(stream, push_owed));
    }
}

/// Drains the socket into the read buffer and cuts/dispatches complete
/// frames. EOF after a frame boundary (or mid-partial-frame) is a quiet
/// close; bytes that fail frame framing close quietly too (matching
/// the blocking server: framing garbage is not a counted rejection).
fn read_ready(c: &mut Conn, token: usize, ctx: &Ctx<'_, '_>) {
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        match c.stream.read(&mut chunk) {
            Ok(0) => {
                c.dead = true;
                return;
            }
            Ok(n) => {
                c.read_buf.extend_from_slice(&chunk[..n]);
                parse_ready(c, token, ctx);
                if c.dead || c.closing {
                    return;
                }
                // Gate: over an inflight or write cap, leave the rest
                // in the kernel buffer (interest update parks reads).
                if c.inflight >= MAX_CONN_INFLIGHT || c.unwritten() >= WRITE_QUEUE_SOFT {
                    return;
                }
                if n < chunk.len() {
                    return; // drained (level-triggered: more re-fires)
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                c.dead = true;
                return;
            }
        }
    }
}

/// Cuts every complete frame out of the read buffer and dispatches it,
/// advancing a cursor and dropping the consumed prefix once per pass (a
/// drain per frame would memmove the rest of the chunk each time).
fn parse_ready(c: &mut Conn, token: usize, ctx: &Ctx<'_, '_>) {
    let mut at = 0;
    while !c.dead && !c.closing {
        match Frame::parse_prefix(&c.read_buf[at..]) {
            Ok(Some((frame, used))) => {
                at += used;
                dispatch_frame(c, token, &frame, ctx);
            }
            Ok(None) => break,
            Err(_) => {
                // Framing garbage (bad magic, oversized claim): the
                // stream is unsynchronizable — close quietly, exactly
                // like the blocking reader's torn-frame path.
                c.dead = true;
                break;
            }
        }
    }
    c.read_buf.drain(..at);
}

/// One decoded frame: jobs admitted and cheap pulls answered inline,
/// blocking work handed to the worker pool, protocol violations answered
/// and flushed before the connection closes.
fn dispatch_frame(c: &mut Conn, token: usize, frame: &Frame, ctx: &Ctx<'_, '_>) {
    ctx.obs.frames_in.incr();
    // Server-side round trip: frame decoded → reply handed off.
    let at = Instant::now();
    match Msg::from_frame(frame) {
        Ok(Msg::Submit(job)) => {
            c.inflight += 1;
            ctx.obs.inflight.add(1);
            let sink = Box::new(WireSink {
                conn: token,
                mailbox: Arc::clone(ctx.mailbox),
                answered: false,
            });
            let seq = match ctx.frontend.try_submit(job.input, job.fault, sink) {
                Ok(seq) => seq,
                Err(Refused::Full(pending)) => {
                    let seq = pending.job();
                    let _ = ctx.work_tx.send(Work::Deliver(pending));
                    seq
                }
                // The dropped job's sink posted the `Error` reply.
                Err(Refused::DriverDied) => return,
            };
            ctx.counters.jobs.fetch_add(1, Ordering::Relaxed);
            // Queued ahead of every frame the driver posts for the job:
            // the poller reads those only at its next mailbox drain.
            reply(c, &Msg::Accepted { job: seq }, ctx.obs);
            ctx.obs.wire_rtt.record_duration(at.elapsed());
        }
        Ok(Msg::Report(bytes)) => {
            c.inflight += 1;
            ctx.obs.inflight.add(1);
            let _ = ctx.work_tx.send(Work::Report {
                conn: token,
                bytes,
                at,
            });
        }
        Ok(Msg::HealthPull) => {
            let m = ctx.backend.metrics();
            reply(
                c,
                &Msg::Health(WireHealth {
                    healthy: true,
                    epoch: m.epoch,
                    uptime_ms: ctx.obs.started.elapsed().as_millis() as u64,
                    recoveries: m.recoveries,
                    durable: matches!(ctx.backend, FleetBackend::Durable(_)),
                    connections: ctx.obs.connections.get().max(0) as u64,
                }),
                ctx.obs,
            );
            ctx.obs.wire_rtt.record_duration(at.elapsed());
        }
        Ok(Msg::MetricsPull) => {
            // Every layer's registry, merged. Names are pre-namespaced
            // (`frontend/`, `fleet/`, `net/`), so a plain merge never
            // collides.
            let mut snap = ctx.frontend.observability().snapshot();
            snap.merge(ctx.backend.service().observability().snapshot());
            snap.merge(ctx.backend.metrics().counters_snapshot());
            snap.merge(ctx.obs.registry.snapshot());
            reply(c, &Msg::Metrics(snap), ctx.obs);
            ctx.obs.wire_rtt.record_duration(at.elapsed());
        }
        Ok(other) => {
            // A server-to-client message arriving at the server is a
            // protocol violation; name it, flush, and close (the flush
            // that empties the buffer is the one that closes).
            ctx.counters.rejected.fetch_add(1, Ordering::Relaxed);
            c.closing = true;
            reply(
                c,
                &Msg::Error {
                    message: format!("unexpected client message: {other:?}"),
                },
                ctx.obs,
            );
        }
        Err(e) => {
            ctx.counters.rejected.fetch_add(1, Ordering::Relaxed);
            c.closing = true;
            reply(
                c,
                &Msg::Error {
                    message: e.to_string(),
                },
                ctx.obs,
            );
        }
    }
}

/// Appends an inline reply; the end-of-cycle flush writes it.
fn reply(c: &mut Conn, msg: &Msg, obs: &NetObs) {
    enqueue(c, &msg.to_frame().encode(), obs);
}

/// Publish-time fan-out of one encoded [`Msg::EpochPush`] frame to every
/// live connection. A connection too far behind is skipped and counted
/// in `net/pushes_dropped` — owed, not lost: the settle pass sends it
/// the newest bytes once its buffer drains.
fn broadcast_epoch(
    conns: &mut BTreeMap<usize, Conn>,
    bytes: &[u8],
    published: Instant,
    obs: &NetObs,
    touched: &mut Vec<usize>,
) {
    for (&token, c) in conns.iter_mut() {
        if c.closing || c.dead {
            continue;
        }
        if push_epoch(c, bytes, obs) {
            obs.epoch_push.record_duration(published.elapsed());
            touched.push(token);
        } else {
            obs.pushes_dropped.incr();
        }
    }
}

/// Queues the newest epoch push unless that would take the connection
/// past [`WRITE_QUEUE_HARD`]; either way `push_owed` records whether the
/// connection still lacks it. Returns whether the push was queued.
fn push_epoch(c: &mut Conn, bytes: &[u8], obs: &NetObs) -> bool {
    c.push_owed = c.unwritten() + bytes.len() > WRITE_QUEUE_HARD;
    if !c.push_owed {
        enqueue(c, bytes, obs);
    }
    !c.push_owed
}

/// Appends one encoded frame to the connection's write buffer.
fn enqueue(c: &mut Conn, bytes: &[u8], obs: &NetObs) {
    obs.frames_out.incr();
    obs.write_queue.add(bytes.len() as i64);
    c.out.extend_from_slice(bytes);
}

/// Writes the buffer until the socket would block or nothing is left; a
/// closing connection whose buffer empties dies here. Memory stays
/// O(unwritten bytes): the written prefix is dropped once it is more
/// than half the buffer, and capacity beyond twice the unwritten bytes
/// plus [`WRITE_BUF_KEEP`] is given back.
fn drain_writes(c: &mut Conn, obs: &NetObs) {
    while c.unwritten() > 0 {
        match c.stream.write(&c.out[c.written..]) {
            Ok(n) => {
                c.written += n;
                obs.writes.incr();
                obs.write_queue.add(-(n as i64));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                c.dead = true;
                break;
            }
        }
    }
    let unwritten = c.unwritten();
    let keep = 2 * unwritten + WRITE_BUF_KEEP;
    if c.written > unwritten || c.out.capacity() > keep {
        c.out.drain(..c.written);
        c.written = 0;
        c.out.shrink_to(keep);
    }
    if c.closing && unwritten == 0 {
        c.dead = true;
    }
}

/// Forgets a closed connection: deregisters its socket and takes it and
/// its unwritten bytes out of the gauges.
fn close_conn(c: &Conn, poller: &Poller, obs: &NetObs) {
    let _ = poller.deregister(c.stream.as_raw_fd());
    obs.connections.add(-1);
    obs.write_queue.add(-(c.unwritten() as i64));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A poisoned mailbox lock (a worker panicking mid-post) must not
    /// wedge the poller or the surviving workers: every lock site
    /// recovers via `PoisonError::into_inner`.
    #[test]
    fn mailbox_recovers_from_poisoned_lock() {
        let mailbox = Arc::new(Mailbox {
            notices: Mutex::new(Vec::new()),
            poller: Arc::new(Poller::new_fallback()),
        });
        let poisoner = Arc::clone(&mailbox);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.notices.lock().unwrap();
            panic!("poison the mailbox lock");
        })
        .join();
        assert!(mailbox.notices.lock().is_err(), "lock should be poisoned");
        mailbox.post_frame(3, &Msg::HealthPull, true);
        let drained = std::mem::take(&mut *mailbox.locked());
        assert_eq!(drained.len(), 1);
        assert!(matches!(
            drained[0],
            Notice::Frame {
                conn: 3,
                done: true,
                close: false,
                ..
            }
        ));
    }

    /// A slow reader past the hard cap misses broadcasts — counted, and
    /// owed — and once it drains it is sent exactly the newest epoch,
    /// not the backlog it missed.
    #[test]
    fn dropped_push_is_settled_with_the_newest_epoch_on_drain() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        let obs = NetObs::new();
        let mut conns = BTreeMap::from([(1, Conn::new(stream, false))]);
        let mut touched = Vec::new();
        let push = |number: u64| {
            Msg::EpochPush {
                epoch: format!("epoch {number}"),
            }
            .to_frame()
            .encode()
        };

        // The peer reads nothing: replies back up until more than the
        // hard cap sits unwritten (the kernel's socket buffers absorb
        // the first few megabytes).
        let filler = Msg::Error {
            message: "x".repeat(512 << 10),
        }
        .to_frame()
        .encode();
        let c = conns.get_mut(&1).unwrap();
        let mut fillers = 0;
        while c.unwritten() <= WRITE_QUEUE_HARD {
            enqueue(c, &filler, &obs);
            drain_writes(c, &obs);
            fillers += 1;
        }

        // Two publishes pass it by.
        for number in [1, 2] {
            broadcast_epoch(
                &mut conns,
                &push(number),
                Instant::now(),
                &obs,
                &mut touched,
            );
        }
        assert_eq!(obs.pushes_dropped.get(), 2);
        assert!(touched.is_empty(), "a dropped push touched the connection");
        let c = conns.get_mut(&1).unwrap();
        assert!(c.push_owed);
        // Still over the cap: the settle attempt changes nothing.
        assert!(!push_epoch(c, &push(2), &obs));

        // The peer starts reading; the buffer drains into the socket,
        // starting with the settle pass's flush.
        let mut received = Vec::new();
        let mut chunk = vec![0u8; 1 << 20];
        let mut drain_to_peer = |c: &mut Conn| {
            drain_writes(c, &obs);
            while c.unwritten() > 0 {
                let n = peer.read(&mut chunk).unwrap();
                received.extend_from_slice(&chunk[..n]);
                drain_writes(c, &obs);
            }
        };
        drain_to_peer(c);
        // The poll loop's settle pass, with the newest bytes it kept.
        assert!(push_epoch(c, &push(2), &obs));
        assert!(!c.push_owed);
        assert_eq!(obs.pushes_dropped.get(), 2, "a settled push was counted");
        drain_to_peer(c);
        drop(conns);
        peer.read_to_end(&mut received).unwrap();

        let mut msgs = Vec::new();
        while let Some((frame, used)) = Frame::parse_prefix(&received).unwrap() {
            msgs.push(Msg::from_frame(&frame).unwrap());
            received.drain(..used);
        }
        assert!(received.is_empty(), "trailing partial frame");
        assert_eq!(msgs.len(), fillers + 1, "the backlog was replayed");
        assert!(msgs[..fillers]
            .iter()
            .all(|m| matches!(m, Msg::Error { .. })));
        assert_eq!(
            msgs[fillers],
            Msg::EpochPush {
                epoch: "epoch 2".into()
            }
        );
    }

    /// The read gate closes (stops reading) under inflight or write
    /// pressure and re-opens when both drain — the backpressure pin.
    #[test]
    fn interest_gates_reads_under_pressure() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut c = Conn::new(stream, false);
        assert!(c.desired_interest().readable);
        assert!(!c.desired_interest().writable);
        c.inflight = MAX_CONN_INFLIGHT;
        assert!(!c.desired_interest().readable, "inflight cap gates reads");
        c.inflight = 0;
        c.out.resize(WRITE_QUEUE_SOFT, 0);
        let want = c.desired_interest();
        assert!(!want.readable, "write backlog gates reads");
        assert!(want.writable, "queued frames want writability");
        c.written = c.out.len();
        assert!(c.desired_interest().readable, "gates re-open when drained");
    }

    /// The write side is one byte stream. A cycle's inline reply, posted
    /// notices and epoch push leave in one write, in order; a backlog
    /// behind a stalled peer arrives intact once it reads again, in a
    /// buffer whose memory follows its unwritten bytes; and the
    /// write-queue gauge returns to zero after a drain and after a
    /// connection dies with bytes still queued.
    #[test]
    fn a_cycle_leaves_in_one_write_and_a_backlog_drains_intact() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        let obs = NetObs::new();
        let mut c = Conn::new(stream, false);

        // One cycle: an inline reply, a driver's and a worker's posted
        // frames (the notice loop appends them as-is), an epoch push,
        // then the settle pass's flush.
        let cycle = [
            Msg::Accepted { job: 7 },
            Msg::Verdict {
                job: 7,
                verdict: None,
            },
            Msg::ReportAck(WireReceipt {
                duplicate: false,
                observations: 2,
                epoch: 3,
            }),
            Msg::EpochPush {
                epoch: "epoch 3".into(),
            },
        ];
        reply(&mut c, &cycle[0], &obs);
        for msg in &cycle[1..3] {
            enqueue(&mut c, &msg.to_frame().encode(), &obs);
        }
        assert!(push_epoch(&mut c, &cycle[3].to_frame().encode(), &obs));
        assert_eq!(obs.writes.get(), 0, "a frame left before the flush");
        drain_writes(&mut c, &obs);
        assert_eq!(obs.frames_out.get(), 4);
        assert_eq!(obs.writes.get(), 1, "one cycle took more than one write");
        assert_eq!(obs.write_queue.get(), 0);
        let sent: Vec<u8> = cycle.iter().flat_map(|m| m.to_frame().encode()).collect();
        let mut received = vec![0u8; sent.len()];
        peer.read_exact(&mut received).unwrap();
        let mut msgs = Vec::new();
        let mut at = 0;
        while let Some((frame, used)) = Frame::parse_prefix(&received[at..]).unwrap() {
            msgs.push(Msg::from_frame(&frame).unwrap());
            at += used;
        }
        assert_eq!(at, received.len(), "trailing partial frame");
        assert_eq!(msgs, cycle);

        // The peer stops reading: frames back up until writes go
        // partial and megabytes sit unwritten.
        let filler = Msg::Error {
            message: "x".repeat(256 << 10),
        }
        .to_frame()
        .encode();
        let memory_follows_unwritten = |c: &Conn| {
            assert!(
                c.out.capacity() <= 2 * c.unwritten() + WRITE_BUF_KEEP,
                "capacity {} for {} unwritten bytes",
                c.out.capacity(),
                c.unwritten()
            );
        };
        let mut sent = Vec::new();
        while c.unwritten() <= WRITE_QUEUE_HARD {
            enqueue(&mut c, &filler, &obs);
            sent.extend_from_slice(&filler);
            drain_writes(&mut c, &obs);
            memory_follows_unwritten(&c);
        }
        let partial_writes = obs.writes.get();
        assert_eq!(obs.write_queue.get(), c.unwritten() as i64);

        // It reads again; every writable moment drains what fits.
        let mut received = Vec::new();
        let mut chunk = vec![0u8; 256 << 10];
        while c.unwritten() > 0 {
            let n = peer.read(&mut chunk).unwrap();
            received.extend_from_slice(&chunk[..n]);
            drain_writes(&mut c, &obs);
            memory_follows_unwritten(&c);
        }
        assert!(obs.writes.get() > partial_writes, "the backlog never moved");
        assert!(
            c.out.capacity() <= WRITE_BUF_KEEP,
            "a drained burst kept its memory"
        );
        assert_eq!(obs.write_queue.get(), 0);
        let rest = sent.len() - received.len();
        let mut tail = vec![0u8; rest];
        peer.read_exact(&mut tail).unwrap();
        received.extend_from_slice(&tail);
        assert!(received == sent, "the backlog arrived altered");

        // Stalled again, then the connection dies with bytes queued.
        while c.unwritten() == 0 {
            enqueue(&mut c, &filler, &obs);
            drain_writes(&mut c, &obs);
        }
        assert!(obs.write_queue.get() > 0);
        close_conn(&c, &Poller::new_fallback(), &obs);
        assert_eq!(
            obs.write_queue.get(),
            0,
            "a dead connection's bytes stayed counted"
        );
    }
}
