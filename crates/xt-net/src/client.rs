//! The remote caller's view: a [`NetClient`] connection with the
//! [`JobTicket`](exterminator::frontend::JobTicket)-shaped API.
//!
//! [`NetClient::submit`] returns a [`NetTicket`]; the remote caller
//! overlaps its own work with the server's replicas and collects via
//! [`NetTicket::wait_verdict`] (the streaming quorum verdict, typically
//! arriving while stragglers still run) and [`NetTicket::wait`] (the
//! finalized [`WireOutcome`]). Because the server pushes verdict and
//! outcome frames per job while the client may be mid-request, the
//! connection state buffers pushed frames by job id: whichever method
//! reads a frame that belongs to another job parks it for that job's
//! ticket.
//!
//! The same connection multiplexes the fleet path:
//! [`NetClient::ingest_report`] ships a compact `XTR1` run report (the §5
//! "few kilobytes per execution" unit), and the fleet's corrections come
//! back *unsolicited* — so a remote client can detect locally, report
//! remotely, and adopt the fleet's corrections, all over one socket.
//!
//! Epochs are only ever pushed: the server sends a [`Msg::EpochPush`]
//! frame down every live connection the moment an epoch publishes, greets
//! a connection accepted after a publish with the newest epoch, and
//! re-sends the newest epoch to a slow reader whose push it had to drop
//! once that reader's queue drains. The connection absorbs pushes into a
//! newest-wins cache of exactly one epoch (O(1) regardless of how many
//! publish, or whether anyone ever looks), readable via
//! [`NetClient::pushed_epoch`] and awaitable via
//! [`NetClient::wait_pushed_epoch`]. A reporter learns it is behind from
//! [`WireReceipt::epoch`] on its own acknowledgment and parks in
//! `wait_pushed_epoch` until the push lands — there is no request to
//! poll with.

use std::collections::{HashMap, HashSet};
use std::io::{self, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use xt_arena::splitmix_finalize;
use xt_faults::FaultSpec;
use xt_fleet::frame::{Frame, FrameError, WireError};
use xt_fleet::RunReport;
use xt_obs::RegistrySnapshot;
use xt_patch::PatchEpoch;
use xt_workloads::WorkloadInput;

use crate::proto::{Msg, SubmitJob, WireHealth, WireOutcome, WireReceipt, WireVerdict};

/// Why a client call failed.
#[derive(Debug)]
pub enum NetError {
    /// The transport failed.
    Io(io::Error),
    /// The server sent bytes that do not decode.
    Malformed(WireError),
    /// The server closed the connection.
    Disconnected,
    /// The server answered a request with [`Msg::Error`].
    Remote(String),
    /// The server sent a well-formed message that violates the
    /// request/reply protocol (e.g. a reply of the wrong kind).
    Protocol(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport error: {e}"),
            NetError::Malformed(e) => write!(f, "malformed server message: {e}"),
            NetError::Disconnected => write!(f, "server closed the connection"),
            NetError::Remote(m) => write!(f, "server rejected the request: {m}"),
            NetError::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Malformed(e)
    }
}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => NetError::Io(e),
            FrameError::Malformed(e) => NetError::Malformed(e),
        }
    }
}

/// Backoff schedule for [`NetClient::connect_with_retry`]: bounded
/// attempts, exponential delay, deterministic jitter.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total connection attempts, including the first (clamped to ≥ 1).
    pub attempts: u32,
    /// Delay before the second attempt; doubles after each failure.
    pub base: Duration,
    /// Ceiling the exponential delay saturates at.
    pub cap: Duration,
    /// Seed for the jitter. Jitter keeps a fleet of clients from
    /// reconnecting in lockstep after the same server restart; seeding
    /// it keeps any single client's schedule reproducible.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 8,
            base: Duration::from_millis(25),
            cap: Duration::from_secs(2),
            jitter_seed: 0x0BAD_5EED,
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry `n` (0-based): `full = min(cap, base·2ⁿ)`,
    /// jittered into `[full/2, full]` by a SplitMix64 draw on
    /// `(jitter_seed, n)`.
    fn delay(&self, retry: u32) -> Duration {
        let full = self
            .base
            .saturating_mul(1u32 << retry.min(31))
            .min(self.cap);
        let half = full / 2;
        let span = (full - half).as_nanos() as u64;
        if span == 0 {
            return full;
        }
        let z = splitmix_finalize(
            self.jitter_seed.wrapping_add(
                u64::from(retry)
                    .wrapping_add(1)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
        );
        half + Duration::from_nanos(z % (span + 1))
    }
}

/// Is this connect failure worth retrying? Transient conditions only —
/// a refused or reset connection (the server is not up *yet*), an
/// interrupted or timed-out attempt. Anything else (unreachable host,
/// permission denied, bad address) fails fast.
fn transient(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::Interrupted
            | io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
    )
}

/// Locks the connection, recovering from poison. Every critical section
/// leaves `ClientConn` structurally consistent (frames are written and
/// parsed whole, buffers mutated entry-at-a-time), so a panic on one
/// thread holding the lock must not permanently brick every clone of the
/// client. The worst a recovered connection can carry is a transport
/// left mid-conversation, and the next read surfaces that as an ordinary
/// decode or protocol error — recoverable by reconnecting, where a
/// propagated poison panic is not.
fn lock_conn(conn: &Mutex<ClientConn>) -> MutexGuard<'_, ClientConn> {
    conn.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Both halves of the connection viewing one socket — and one file
/// descriptor. All reads and writes are serialized by the connection
/// lock, so nothing is gained by `try_clone`-duplicating the
/// descriptor, and a process holding thousands of idle connections
/// (the soak harness) pays one fd per connection instead of two.
struct Shared(Arc<TcpStream>);

impl io::Read for Shared {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        (&*self.0).read(buf)
    }
}

impl Write for Shared {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        (&*self.0).write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        (&*self.0).flush()
    }
}

/// Connection state: the socket plus push buffers. All client and ticket
/// methods serialize on one lock, so exactly one thread reads the socket
/// at a time and every pushed frame ends up in the right buffer.
struct ClientConn {
    writer: Shared,
    reader: BufReader<Shared>,
    /// Verdicts pushed for jobs nobody has waited on yet.
    verdicts: HashMap<u64, Option<WireVerdict>>,
    /// Outcomes pushed for jobs nobody has waited on yet.
    outcomes: HashMap<u64, WireOutcome>,
    /// Jobs whose ticket was dropped before collecting the outcome:
    /// their remaining pushed frames are discarded on arrival instead of
    /// parked, so abandoning tickets on a long-lived connection cannot
    /// grow the buffers without bound. An entry lives until the job's
    /// outcome (its final frame) arrives.
    abandoned: HashSet<u64>,
    /// Newest server-pushed epoch, already parsed. Newer pushes replace
    /// older ones in place, so a client that never looks still holds at
    /// most one epoch no matter how many the server publishes.
    pushed: Option<PatchEpoch>,
}

impl ClientConn {
    fn send(&mut self, msg: &Msg) -> Result<(), NetError> {
        msg.to_frame().write_to(&mut self.writer)?;
        self.writer.flush()?;
        Ok(())
    }

    fn read_msg(&mut self) -> Result<Msg, NetError> {
        match Frame::read_from(&mut self.reader) {
            Ok(Some(frame)) => Ok(Msg::from_frame(&frame)?),
            Ok(None) => Err(NetError::Disconnected),
            Err(e) => Err(e.into()),
        }
    }

    /// Parks a pushed frame in its job buffer (or discards it for an
    /// abandoned job); returns non-push messages.
    fn buffer_or_return(&mut self, msg: Msg) -> Option<Msg> {
        match msg {
            Msg::Verdict { job, verdict } => {
                if !self.abandoned.contains(&job) {
                    self.verdicts.insert(job, verdict);
                }
                None
            }
            Msg::Outcome(outcome) => {
                // The outcome is a job's final frame: an abandoned
                // job's bookkeeping ends here.
                if !self.abandoned.remove(&outcome.job) {
                    self.outcomes.insert(outcome.job, outcome);
                }
                None
            }
            Msg::EpochPush { epoch } => {
                // A push that fails to parse is dropped: the next
                // publish supersedes it anyway. Epoch numbers are
                // monotone server-side, but absorb defensively: newest
                // wins, ties and regressions lose.
                if let Ok(epoch) = PatchEpoch::from_text(&epoch) {
                    if self.pushed.as_ref().is_none_or(|p| epoch.number > p.number) {
                        self.pushed = Some(epoch);
                    }
                }
                None
            }
            other => Some(other),
        }
    }

    /// Reads until a request reply arrives, parking pushed frames.
    fn read_reply(&mut self) -> Result<Msg, NetError> {
        loop {
            let msg = self.read_msg()?;
            if let Some(reply) = self.buffer_or_return(msg) {
                return Ok(reply);
            }
        }
    }
}

/// A connection to a [`NetFrontend`](crate::server::NetFrontend).
/// Cheap to clone (both halves share the connection); methods take
/// `&self` and serialize internally, so one client may be shared across
/// threads — though separate clients get separate connections and more
/// parallelism.
#[derive(Clone)]
pub struct NetClient {
    conn: Arc<Mutex<ClientConn>>,
}

impl NetClient {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = Arc::new(TcpStream::connect(addr)?);
        // Whole frames are written and flushed as units; Nagle would
        // only add delayed-ACK stalls to every request round trip.
        stream.set_nodelay(true)?;
        let reader = BufReader::new(Shared(Arc::clone(&stream)));
        Ok(NetClient {
            conn: Arc::new(Mutex::new(ClientConn {
                writer: Shared(stream),
                reader,
                verdicts: HashMap::new(),
                outcomes: HashMap::new(),
                abandoned: HashSet::new(),
                pushed: None,
            })),
        })
    }

    /// Connects to a server that may not be up yet: retries transient
    /// connect failures (refused, reset, interrupted, timed out) with
    /// bounded exponential backoff per `policy`. A server restarting —
    /// or starting *after* its clients, as in orchestrated deployments —
    /// is reached as soon as it binds; a genuinely wrong address still
    /// fails fast, because non-transient errors are not retried.
    ///
    /// # Errors
    ///
    /// The last transient error once attempts are exhausted, or the
    /// first non-transient error immediately.
    pub fn connect_with_retry(addr: impl ToSocketAddrs, policy: &RetryPolicy) -> io::Result<Self> {
        let attempts = policy.attempts.max(1);
        let mut last = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(policy.delay(attempt - 1));
            }
            match Self::connect(&addr) {
                Ok(client) => return Ok(client),
                Err(e) if transient(e.kind()) => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last.expect("attempts >= 1, so at least one connect ran"))
    }

    /// Frames and abandonment records currently parked in this
    /// connection's push buffers (diagnostic; a long-lived client that
    /// collects or drops every ticket should see this return to 0
    /// between batches). The pushed-epoch cache is *not* counted: it is
    /// one slot by construction, not a buffer that can grow.
    #[must_use]
    pub fn buffered(&self) -> usize {
        let conn = self.lock();
        conn.verdicts.len() + conn.outcomes.len() + conn.abandoned.len()
    }

    /// The newest epoch the server has pushed down this connection, if
    /// any. Purely a cache read — never touches the socket, so it only
    /// observes pushes some *other* read (a request round trip, a
    /// ticket wait, or [`NetClient::wait_pushed_epoch`]) already pulled
    /// off the wire.
    #[must_use]
    pub fn pushed_epoch(&self) -> Option<PatchEpoch> {
        self.lock().pushed.clone()
    }

    /// Blocks until the server pushes an epoch numbered above
    /// `newer_than` (returning it), or `timeout` elapses (returning
    /// `None`). The client parks on the socket and the server's push
    /// wakes it; an epoch already absorbed (e.g. the greeting a late
    /// joiner gets on accept) returns without touching the socket.
    ///
    /// Holds the connection lock for the whole wait — clones of this
    /// client sharing the connection will block behind it, so dedicate
    /// a connection to epoch watching if requests must overlap.
    ///
    /// # Errors
    ///
    /// Transport or decode failure, or a request reply arriving with no
    /// request outstanding.
    pub fn wait_pushed_epoch(
        &self,
        newer_than: u64,
        timeout: Duration,
    ) -> Result<Option<PatchEpoch>, NetError> {
        let deadline = std::time::Instant::now() + timeout;
        let mut conn = self.lock();
        let out = Self::wait_pushed_locked(&mut conn, newer_than, deadline);
        // Always restore blocking mode, error or not: request/reply
        // methods on this connection assume reads never time out.
        let _ = conn.reader.get_ref().0.set_read_timeout(None);
        out
    }

    fn wait_pushed_locked(
        conn: &mut ClientConn,
        newer_than: u64,
        deadline: std::time::Instant,
    ) -> Result<Option<PatchEpoch>, NetError> {
        loop {
            if let Some(epoch) = conn.pushed.as_ref() {
                if epoch.number > newer_than {
                    return Ok(Some(epoch.clone()));
                }
            }
            let now = std::time::Instant::now();
            let Some(left) = deadline
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())
            else {
                return Ok(None);
            };
            conn.reader.get_ref().0.set_read_timeout(Some(left))?;
            match conn.read_msg() {
                Ok(msg) => {
                    if let Some(reply) = conn.buffer_or_return(msg) {
                        return Err(NetError::Protocol(format!(
                            "unsolicited request reply while waiting for a push: {reply:?}"
                        )));
                    }
                }
                // The timeout elapsing mid-wait surfaces as WouldBlock
                // or TimedOut depending on platform; both just mean "no
                // frame yet" — loop to the deadline check.
                Err(NetError::Io(e))
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn lock(&self) -> MutexGuard<'_, ClientConn> {
        lock_conn(&self.conn)
    }

    /// Submits one job and returns its ticket. The server replies with
    /// the front-end's global sequence number, which fully determines
    /// the outcome (see the determinism pin in `tests/net.rs`).
    ///
    /// # Errors
    ///
    /// Transport, decode, or server-side rejection.
    pub fn submit(
        &self,
        input: &WorkloadInput,
        fault: Option<FaultSpec>,
    ) -> Result<NetTicket, NetError> {
        let mut conn = self.lock();
        conn.send(&Msg::Submit(SubmitJob {
            input: input.clone(),
            fault,
        }))?;
        match conn.read_reply()? {
            Msg::Accepted { job } => Ok(NetTicket {
                job,
                conn: Some(Arc::clone(&self.conn)),
            }),
            Msg::Error { message } => Err(NetError::Remote(message)),
            other => Err(NetError::Protocol(format!(
                "expected Accepted, got {other:?}"
            ))),
        }
    }

    /// Ships one run report into the server's fleet service.
    ///
    /// # Errors
    ///
    /// Transport, decode, or server-side rejection (e.g. the report
    /// failed the server's wire validation).
    pub fn ingest_report(&self, report: &RunReport) -> Result<WireReceipt, NetError> {
        let mut conn = self.lock();
        conn.send(&Msg::Report(report.encode()))?;
        match conn.read_reply()? {
            Msg::ReportAck(receipt) => Ok(receipt),
            Msg::Error { message } => Err(NetError::Remote(message)),
            other => Err(NetError::Protocol(format!(
                "expected ReportAck, got {other:?}"
            ))),
        }
    }

    /// Probes the server's liveness. A reply in hand *is* the liveness
    /// signal; the payload carries the server's newest epoch, uptime,
    /// durability mode, and recovery count.
    ///
    /// # Errors
    ///
    /// Transport, decode, or server-side rejection.
    pub fn pull_health(&self) -> Result<WireHealth, NetError> {
        let mut conn = self.lock();
        conn.send(&Msg::HealthPull)?;
        match conn.read_reply()? {
            Msg::Health(health) => Ok(health),
            Msg::Error { message } => Err(NetError::Remote(message)),
            other => Err(NetError::Protocol(format!(
                "expected Health, got {other:?}"
            ))),
        }
    }

    /// Pulls the server's merged metrics snapshot: wire-layer counters
    /// (`net/...`), fleet service counters and per-stage latency
    /// histograms (`fleet/...`), and the pool front-end's per-job
    /// histograms (`frontend/...`), name-sorted.
    ///
    /// # Errors
    ///
    /// Transport, decode, or server-side rejection.
    pub fn pull_metrics(&self) -> Result<RegistrySnapshot, NetError> {
        let mut conn = self.lock();
        conn.send(&Msg::MetricsPull)?;
        match conn.read_reply()? {
            Msg::Metrics(snap) => Ok(snap),
            Msg::Error { message } => Err(NetError::Remote(message)),
            other => Err(NetError::Protocol(format!(
                "expected Metrics, got {other:?}"
            ))),
        }
    }
}

/// A per-job completion handle for a remote submission — the wire
/// counterpart of [`JobTicket`](exterminator::frontend::JobTicket).
/// Dropping a ticket abandons the outcome: the job still runs to
/// completion server-side, and the connection discards its remaining
/// pushed frames on arrival instead of buffering them, so dropped
/// tickets cost no memory on a long-lived connection.
pub struct NetTicket {
    job: u64,
    /// `Some` while the outcome is still collectible; taken by
    /// [`NetTicket::wait`] so the drop glue knows consumed tickets from
    /// abandoned ones.
    conn: Option<Arc<Mutex<ClientConn>>>,
}

impl NetTicket {
    /// The front-end's global sequence number for this submission (also
    /// the seed index its replicas derive heap seeds from).
    #[must_use]
    pub fn job(&self) -> u64 {
        self.job
    }

    fn conn(&self) -> &Arc<Mutex<ClientConn>> {
        self.conn.as_ref().expect("ticket not yet consumed")
    }

    /// Blocks until this job's streaming quorum verdict arrives: the
    /// output the paper's voter would release while stragglers are still
    /// executing, or `None` if the job completed with every replica
    /// disagreeing.
    ///
    /// # Errors
    ///
    /// Transport or decode failure, an out-of-protocol frame, or the
    /// server's `Error` (a job on this connection died with its pool's
    /// driver; the server closes the connection after it).
    pub fn wait_verdict(&self) -> Result<Option<WireVerdict>, NetError> {
        let mut conn = lock_conn(self.conn());
        loop {
            if let Some(verdict) = conn.verdicts.get(&self.job) {
                return Ok(verdict.clone());
            }
            let msg = conn.read_msg()?;
            if let Some(reply) = conn.buffer_or_return(msg) {
                return Err(unexpected(reply, "a verdict"));
            }
        }
    }

    /// Blocks until this job's finalized outcome arrives.
    ///
    /// # Errors
    ///
    /// As for [`NetTicket::wait_verdict`].
    pub fn wait(mut self) -> Result<WireOutcome, NetError> {
        let arc = self.conn.take().expect("ticket not yet consumed");
        let mut conn = lock_conn(&arc);
        loop {
            if let Some(outcome) = conn.outcomes.remove(&self.job) {
                // The verdict buffer entry (if any) is dead weight once
                // the outcome is consumed.
                conn.verdicts.remove(&self.job);
                return Ok(outcome);
            }
            let msg = conn.read_msg()?;
            if let Some(reply) = conn.buffer_or_return(msg) {
                return Err(unexpected(reply, "an outcome"));
            }
        }
    }
}

/// A request reply read by a ticket wait: the server's `Error` is remote
/// failure, anything else a protocol violation.
fn unexpected(reply: Msg, waiting_for: &str) -> NetError {
    match reply {
        Msg::Error { message } => NetError::Remote(message),
        other => NetError::Protocol(format!(
            "unexpected reply while waiting for {waiting_for}: {other:?}"
        )),
    }
}

impl Drop for NetTicket {
    fn drop(&mut self) {
        // Only an unconsumed ticket (wait() never called) marks its job
        // abandoned; wait() takes the connection out first.
        let Some(arc) = self.conn.take() else {
            return;
        };
        // `lock_conn` never panics on poison (it recovers), so the drop
        // glue cannot double-panic while unwinding — and abandonment
        // bookkeeping keeps working on a connection other clones of the
        // client recovered.
        let mut conn = lock_conn(&arc);
        conn.verdicts.remove(&self.job);
        if conn.outcomes.remove(&self.job).is_none() {
            // Outcome not yet arrived: remember to discard it (and any
            // verdict) when it does.
            conn.abandoned.insert(self.job);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A poisoned connection lock (a panic on one thread holding it)
    /// must not brick every other clone of the client: lock sites
    /// recover via `PoisonError::into_inner` instead of propagating.
    #[test]
    fn poisoned_connection_lock_recovers() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // A minimal server: answer one HealthPull.
        let health = WireHealth {
            healthy: true,
            epoch: 0,
            uptime_ms: 1,
            recoveries: 0,
            durable: false,
            connections: 1,
        };
        let responder = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let frame = Frame::read_from(&mut reader).unwrap().unwrap();
            assert_eq!(Msg::from_frame(&frame).unwrap(), Msg::HealthPull);
            Msg::Health(health)
                .to_frame()
                .write_to(&mut writer)
                .unwrap();
            writer.flush().unwrap();
        });
        let client = NetClient::connect(addr).unwrap();
        let conn = Arc::clone(&client.conn);
        let panicked = std::thread::spawn(move || {
            let _guard = conn.lock().unwrap();
            panic!("poison the client connection lock");
        })
        .join();
        assert!(panicked.is_err());
        assert!(client.conn.is_poisoned(), "the lock should be poisoned");
        // Every lock site still works: a pure-buffer read and a full
        // request/reply round trip over the recovered connection.
        assert_eq!(client.buffered(), 0);
        assert_eq!(client.pull_health().unwrap(), health);
        responder.join().unwrap();
    }

    /// The backoff schedule is deterministic for a given seed and stays
    /// inside the documented `[full/2, full]` envelope under the cap.
    #[test]
    fn retry_delays_are_bounded_and_deterministic() {
        let policy = RetryPolicy {
            attempts: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(80),
            jitter_seed: 42,
        };
        let first: Vec<Duration> = (0..7).map(|n| policy.delay(n)).collect();
        let again: Vec<Duration> = (0..7).map(|n| policy.delay(n)).collect();
        assert_eq!(
            first, again,
            "jitter must be a pure function of (seed, retry)"
        );
        // Pinned: the schedule a deployed fleet reconnects on.
        assert_eq!(first[0], Duration::from_nanos(9_316_041));
        assert_eq!(first[6], Duration::from_nanos(56_009_624));
        for (n, d) in first.iter().enumerate() {
            let full = (policy.base * 2u32.pow(n as u32)).min(policy.cap);
            assert!(
                *d >= full / 2 && *d <= full,
                "retry {n}: {d:?} outside [{:?}, {full:?}]",
                full / 2
            );
        }
        // Different seeds decorrelate.
        let other = RetryPolicy {
            jitter_seed: 43,
            ..policy
        };
        assert_ne!(
            (0..7).map(|n| policy.delay(n)).collect::<Vec<_>>(),
            (0..7).map(|n| other.delay(n)).collect::<Vec<_>>(),
        );
    }

    /// Non-transient connect errors must fail fast, not burn the whole
    /// backoff schedule. `AddrNotAvailable`-class failures (here: an
    /// unroutable-port connect on a bound-then-dropped listener is
    /// *refused*, i.e. transient — so use an empty address list, which
    /// yields `InvalidInput`).
    #[test]
    fn connect_with_retry_fails_fast_on_non_transient_errors() {
        let start = std::time::Instant::now();
        let Err(err) = NetClient::connect_with_retry(
            &[][..] as &[std::net::SocketAddr],
            &RetryPolicy {
                attempts: 100,
                base: Duration::from_secs(10),
                ..RetryPolicy::default()
            },
        ) else {
            panic!("an empty address list connected");
        };
        assert!(
            !transient(err.kind()),
            "expected a non-transient error, got {err}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "a non-transient error slept through the backoff schedule"
        );
    }

    /// Exhausting the schedule surfaces the last transient error.
    #[test]
    fn connect_with_retry_reports_the_last_refusal() {
        // Bind then drop: the port is (very likely) refusing connects.
        let addr = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let Err(err) = NetClient::connect_with_retry(
            addr,
            &RetryPolicy {
                attempts: 3,
                base: Duration::from_millis(1),
                cap: Duration::from_millis(4),
                jitter_seed: 7,
            },
        ) else {
            panic!("a dropped listener's port accepted a connection");
        };
        assert!(
            transient(err.kind()),
            "expected a transient refusal, got {err}"
        );
    }
}
