//! End-to-end pins for the network front door.
//!
//! The load-bearing claims, each tested over real localhost sockets:
//!
//! 1. **Determinism survives the wire.** The same input batch submitted
//!    (a) in-process through a serial [`ReplicaPool`] and (b) by several
//!    concurrent [`NetClient`]s yields byte-identical outcome digests
//!    once sorted by the front-end's global sequence — the socket layer,
//!    like the queue layer before it, decides only *arrival order*.
//! 2. **Streaming results stream.** A remote client receives the quorum
//!    verdict while a deliberately slowed replica is still executing.
//! 3. **The fleet loop closes over the socket.** A remote client's
//!    failure evidence (compact `XTR1` reports over the same connection)
//!    mints epochs that heal the server's own pools, and the client
//!    pulls those epochs back.
//! 4. **Hostile bytes are contained.** Malformed frames and hostile
//!    nested reports are rejected with offset-bearing errors, counted,
//!    and never take the server down.
//! 5. **The server is observable over its own wire.** A client pulls a
//!    health frame and the merged metrics snapshot — per-stage latency
//!    histograms with nonzero counts from every layer — and a flooding
//!    client is rate-limited at ingest admission while a well-behaved
//!    client on the same server is unaffected.
//! 6. **Two threads, one frame order.** The poller acknowledges each
//!    submission and the pool driver posts its verdict and outcome, yet
//!    every job's frames arrive in order, full pool queues keep the
//!    serial digests, and a dead pool driver fails its clients instead
//!    of hanging them.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use exterminator::pool::{PoolConfig, ReplicaPool, Straggler};
use exterminator::runner::ReusableStack;
use exterminator::summarized_run_reusable;
use xt_alloc::AllocTime;
use xt_faults::{FaultKind, FaultSpec};
use xt_fleet::frame::{Frame, FRAME_MAGIC};
use xt_fleet::{wal, DurabilityConfig, FleetConfig, MemStorage, RunReport};
use xt_net::proto::kind;
use xt_net::{
    Msg, NetClient, NetConfig, NetDurability, NetError, NetFrontend, RetryPolicy, SubmitJob,
};
use xt_obs::TokenBucketConfig;
use xt_patch::PatchTable;
use xt_workloads::{multi_client_sessions, EspressoLike, SquidLike, Workload, WorkloadInput};

/// Pool shape shared by servers and serial references: determinism pins
/// must exclude auto-patching (patch visibility is completion-order
/// dependent for a single pool too — same exclusion as
/// `crates/core/tests/frontend.rs`).
fn pool_config() -> PoolConfig {
    PoolConfig {
        replicas: 3,
        auto_patch: false,
        ..PoolConfig::default()
    }
}

/// Pool queues deep enough never to fill in these tests, so each pool
/// takes jobs in sequence order and one pool finalizes a connection's
/// jobs in the order it submitted them. Full queues have their own test
/// (`full_pool_queues_keep_remote_digests_serial`).
fn net_config(pools: usize) -> NetConfig {
    NetConfig {
        frontend: exterminator::frontend::FrontendConfig {
            pools,
            pool: pool_config(),
            share_isolated: false,
            ..exterminator::frontend::FrontendConfig::default()
        },
        ..NetConfig::default()
    }
}

/// In-process serial reference: one pool, seed index = submission index —
/// exactly what the front-end's global sequence reproduces, local or
/// remote.
fn serial_digests(
    workload: &(dyn Workload + Sync),
    inputs: &[WorkloadInput],
    fault: Option<FaultSpec>,
) -> Vec<u128> {
    std::thread::scope(|scope| {
        let mut pool = ReplicaPool::scoped(scope, workload, pool_config(), PatchTable::new());
        let outcomes = pool.run_batch(inputs, fault);
        pool.shutdown();
        outcomes
            .iter()
            .map(exterminator::pool::PoolOutcome::deterministic_digest)
            .collect()
    })
}

/// The acceptance pin: 3 concurrent remote clients over real sockets,
/// byte-identical to the serial in-process run of the same inputs in
/// arrival order.
#[test]
fn concurrent_net_clients_match_in_process_serial_digests() {
    let workload = SquidLike::new();
    let sessions = multi_client_sessions(3, 4, 4, None);
    let server =
        NetFrontend::bind(SquidLike::new(), "127.0.0.1:0", net_config(2)).expect("bind localhost");
    let addr = server.local_addr();

    let collected: Mutex<Vec<(u64, WorkloadInput, u128)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for session in &sessions {
            let collected = &collected;
            scope.spawn(move || {
                let client = NetClient::connect(addr).expect("connect");
                for input in session {
                    let ticket = client.submit(input, None).expect("submit");
                    let seq = ticket.job();
                    let outcome = ticket.wait().expect("outcome");
                    assert_eq!(outcome.job, seq, "ticket/outcome sequence mismatch");
                    assert!(outcome.unanimous, "benign traffic diverged");
                    collected.lock().expect("collection lock").push((
                        seq,
                        input.clone(),
                        outcome.digest,
                    ));
                }
            });
        }
    });

    let stats = server.stats();
    assert_eq!(stats.connections, 3);
    assert_eq!(stats.jobs, 12);
    assert_eq!(stats.rejected, 0);
    server.shutdown();

    let mut collected = collected.into_inner().expect("collection lock");
    collected.sort_by_key(|(seq, _, _)| *seq);
    // Global sequence numbers are exactly 0..N: nothing lost, nothing
    // invented, whichever connection carried each input.
    for (i, (seq, _, _)) in collected.iter().enumerate() {
        assert_eq!(*seq, i as u64, "sequence numbers have gaps");
    }
    let arrival_inputs: Vec<WorkloadInput> = collected
        .iter()
        .map(|(_, input, _)| input.clone())
        .collect();
    let reference = serial_digests(&workload, &arrival_inputs, None);
    for ((seq, _, digest), expected) in collected.iter().zip(&reference) {
        assert_eq!(
            digest, expected,
            "job {seq} diverged from its in-process serial replay"
        );
    }
}

/// Backpressure through the poller's admission: with one-slot pool
/// queues and a pipeline of one, two pipelining connections overrun the
/// queue, so admissions come back full and workers finish the sends.
/// Every job keeps the sequence number it was admitted (and acknowledged)
/// with, and the digests still pin to the serial replay.
#[test]
fn full_pool_queues_keep_remote_digests_serial() {
    let workload = SquidLike::new();
    let sessions = multi_client_sessions(2, 8, 4, None);
    let mut config = net_config(1);
    config.frontend.queue_capacity = 1;
    config.frontend.max_inflight = 1;
    let server =
        NetFrontend::bind(SquidLike::new(), "127.0.0.1:0", config).expect("bind localhost");
    let addr = server.local_addr();

    let collected: Mutex<Vec<(u64, WorkloadInput, u128)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for session in &sessions {
            let collected = &collected;
            scope.spawn(move || {
                let client = NetClient::connect(addr).expect("connect");
                let tickets: Vec<_> = session
                    .iter()
                    .map(|input| (client.submit(input, None).expect("submit"), input))
                    .collect();
                for (ticket, input) in tickets {
                    let seq = ticket.job();
                    let outcome = ticket.wait().expect("outcome");
                    assert_eq!(outcome.job, seq, "ticket/outcome sequence mismatch");
                    let entry = (seq, input.clone(), outcome.digest);
                    collected.lock().expect("collection lock").push(entry);
                }
            });
        }
    });
    assert_eq!(server.stats().jobs, 16);
    server.shutdown();

    let mut collected = collected.into_inner().expect("collection lock");
    collected.sort_by_key(|(seq, _, _)| *seq);
    let seqs: Vec<u64> = collected.iter().map(|(seq, _, _)| *seq).collect();
    assert_eq!(
        seqs,
        (0..16).collect::<Vec<_>>(),
        "a sequence number was burnt"
    );
    let inputs: Vec<WorkloadInput> = collected.iter().map(|(_, i, _)| i.clone()).collect();
    let reference = serial_digests(&workload, &inputs, None);
    for ((seq, _, digest), expected) in collected.iter().zip(&reference) {
        assert_eq!(
            digest, expected,
            "job {seq} diverged from its serial replay"
        );
    }
}

/// Per-job frame order on the wire, read raw: the poller queues each
/// `Accepted` and the pool driver posts `Verdict` and `Outcome`, yet
/// every job's frames arrive in that order, and one pool's outcomes
/// arrive in sequence order.
#[test]
fn frames_per_job_arrive_in_order_on_the_wire() {
    const JOBS: u64 = 32;
    let server = NetFrontend::bind(EspressoLike::new(), "127.0.0.1:0", net_config(1))
        .expect("bind localhost");
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect raw");
    let mut pipelined = Vec::new();
    for seed in 0..JOBS {
        let submit = Msg::Submit(SubmitJob {
            input: WorkloadInput::with_seed(seed),
            fault: None,
        });
        pipelined.extend(submit.to_frame().encode());
    }
    raw.write_all(&pipelined).expect("write the pipeline");

    let mut reader = std::io::BufReader::new(raw.try_clone().expect("clone"));
    // (kind, job) per frame, in arrival order.
    let mut arrivals: Vec<(u8, u64)> = Vec::new();
    while arrivals.iter().filter(|(k, _)| *k == kind::OUTCOME).count() < JOBS as usize {
        let frame = Frame::read_from(&mut reader)
            .expect("read a frame")
            .expect("the server closed early");
        let job = match Msg::from_frame(&frame).expect("decode") {
            Msg::Accepted { job } | Msg::Verdict { job, .. } => job,
            Msg::Outcome(outcome) => outcome.job,
            other => panic!("unexpected frame {other:?}"),
        };
        arrivals.push((frame.kind, job));
    }
    assert_eq!(arrivals.len(), 3 * JOBS as usize, "frames per job");
    let position = |kind: u8, job: u64| {
        arrivals
            .iter()
            .position(|&a| a == (kind, job))
            .unwrap_or_else(|| panic!("job {job} never got frame kind {kind}"))
    };
    for job in 0..JOBS {
        let accepted = position(kind::ACCEPTED, job);
        let verdict = position(kind::VERDICT, job);
        let outcome = position(kind::OUTCOME, job);
        assert!(
            accepted < verdict && verdict < outcome,
            "job {job}: Accepted at {accepted}, Verdict at {verdict}, Outcome at {outcome}"
        );
    }
    let in_arrival_order = |kind: u8| -> Vec<u64> {
        arrivals
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, job)| *job)
            .collect()
    };
    let sequence: Vec<u64> = (0..JOBS).collect();
    assert_eq!(in_arrival_order(kind::ACCEPTED), sequence);
    assert_eq!(
        in_arrival_order(kind::OUTCOME),
        sequence,
        "one pool finalized out of order"
    );
    drop(reader);
    drop(raw);
    server.shutdown();
}

/// A dead pool driver fails its remote clients fast. The replicas panic
/// on the first job, the driver dies serving it, and its release reaches
/// the connection: the ticket's wait returns the server's error, that
/// connection closes, and a submission on a fresh connection gets an
/// `Error` reply. The driver's panic surfaces at shutdown.
#[test]
fn dead_pool_driver_fails_remote_clients_instead_of_hanging() {
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
    let server = NetFrontend::bind(Panicker, "127.0.0.1:0", net_config(1)).expect("bind localhost");
    let addr = server.local_addr();
    let (done, results) = std::sync::mpsc::channel();
    // On its own thread, so a hang fails the test instead of wedging it.
    std::thread::spawn(move || {
        let client = NetClient::connect(addr).expect("connect");
        let ticket = client
            .submit(&WorkloadInput::with_seed(1), None)
            .expect("admitted while the pool was alive");
        let waited = ticket.wait().map(|outcome| outcome.job);
        let resubmitted = client
            .submit(&WorkloadInput::with_seed(2), None)
            .map(|t| t.job());
        let fresh = NetClient::connect(addr)
            .expect("connect a fresh client")
            .submit(&WorkloadInput::with_seed(3), None)
            .map(|t| t.job());
        let _ = done.send((waited, resubmitted, fresh));
    });
    let (waited, resubmitted, fresh) = results
        .recv_timeout(Duration::from_secs(10))
        .expect("a remote client hung on the dead pool driver");
    assert!(
        matches!(&waited, Err(NetError::Remote(m)) if m.contains("driver died")),
        "wait on the dead job: {waited:?}"
    );
    assert!(resubmitted.is_err(), "the closed connection admitted a job");
    assert!(
        matches!(&fresh, Err(NetError::Remote(m)) if m.contains("driver died")),
        "submit to the dead pool: {fresh:?}"
    );
    let shutdown = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| server.shutdown()));
    assert!(shutdown.is_err(), "the driver's panic was swallowed");
}

/// Fault-bearing traffic through the wire: voting, isolation, and patch
/// generation all happen server-side, and the digests still pin to the
/// serial reference (the wire outcome also carries the patch text, which
/// must parse back into a table containing the overflow's pad).
#[test]
fn remote_attack_batch_matches_serial_reference_and_carries_patches() {
    let workload = EspressoLike::new();
    let inputs: Vec<WorkloadInput> = (0..6).map(WorkloadInput::with_seed).collect();
    let fault = FaultSpec {
        kind: FaultKind::BufferOverflow {
            delta: 8,
            fill: 0x44,
        },
        trigger: AllocTime::from_raw(90),
    };
    let reference = serial_digests(&workload, &inputs, Some(fault));

    let server = NetFrontend::bind(EspressoLike::new(), "127.0.0.1:0", net_config(2))
        .expect("bind localhost");
    let client = NetClient::connect(server.local_addr()).expect("connect");
    // Pipelined: all tickets first, then collect (frames demultiplex by
    // job id).
    let tickets: Vec<_> = inputs
        .iter()
        .map(|input| client.submit(input, Some(fault)).expect("submit"))
        .collect();
    let mut saw_error = false;
    for (ticket, expected) in tickets.into_iter().zip(&reference) {
        let outcome = ticket.wait().expect("outcome");
        assert_eq!(&outcome.digest, expected, "job {} diverged", outcome.job);
        if outcome.error_observed {
            saw_error = true;
            assert!(outcome.isolated, "an observed error should isolate");
            let patches = PatchTable::from_text(&outcome.patches).expect("patch text parses");
            assert!(
                patches.pads().any(|(_, pad)| pad >= 8),
                "no pad covering the 8-byte overflow in {:?}",
                outcome.patches
            );
        }
    }
    assert!(saw_error, "the injected overflow never manifested");
    drop(client);
    server.shutdown();
}

/// The streaming claim: with one replica deliberately slowed, the remote
/// verdict arrives while that straggler is still executing (`outstanding
/// > 0`), and the finalized outcome follows.
#[test]
fn remote_verdict_streams_before_stragglers_finish() {
    let mut config = net_config(1);
    config.frontend.pool.straggler = Some(Straggler {
        replica: 2,
        delay: std::time::Duration::from_millis(40),
    });
    let server =
        NetFrontend::bind(EspressoLike::new(), "127.0.0.1:0", config).expect("bind localhost");
    let client = NetClient::connect(server.local_addr()).expect("connect");

    let ticket = client
        .submit(&WorkloadInput::with_seed(5), None)
        .expect("submit");
    let verdict = ticket
        .wait_verdict()
        .expect("verdict frame")
        .expect("clean replicas reach quorum");
    assert!(
        verdict.outstanding >= 1,
        "verdict arrived only after every replica finished"
    );
    assert!(!verdict.output.is_empty());
    let outcome = ticket.wait().expect("outcome");
    assert!(outcome.unanimous, "straggler diverged");
    drop(client);
    server.shutdown();
}

/// Shutdown liveness: a client that stays connected but idle must not
/// wedge `NetFrontend::shutdown` — the connection handler's read loop
/// wakes on its poll interval, notices the stop flag, and exits.
#[test]
fn shutdown_returns_while_a_client_stays_connected() {
    let server = NetFrontend::bind(EspressoLike::new(), "127.0.0.1:0", net_config(1))
        .expect("bind localhost");
    let client = NetClient::connect(server.local_addr()).expect("connect");
    // Prove the connection is live, then go idle without closing it.
    let outcome = client
        .submit(&WorkloadInput::with_seed(3), None)
        .expect("submit")
        .wait()
        .expect("outcome");
    assert!(outcome.unanimous);

    let start = std::time::Instant::now();
    server.shutdown();
    assert!(
        start.elapsed() < std::time::Duration::from_secs(10),
        "shutdown hung on an idle connection for {:?}",
        start.elapsed()
    );
    drop(client);
}

/// Buffer hygiene on a long-lived connection: dropped tickets' pushed
/// frames are discarded on arrival, never parked forever, so abandoning
/// outcomes cannot grow client memory without bound. One pool finalizes
/// the connection's jobs in FIFO order into one mailbox, so every
/// abandoned job's frames have arrived by the time a later job's
/// outcome does.
#[test]
fn dropped_tickets_do_not_leak_push_buffers() {
    let server = NetFrontend::bind(EspressoLike::new(), "127.0.0.1:0", net_config(1))
        .expect("bind localhost");
    let client = NetClient::connect(server.local_addr()).expect("connect");

    // Abandon a handful of jobs outright (fire-and-forget traffic).
    for seed in 0..4 {
        let ticket = client
            .submit(&WorkloadInput::with_seed(seed), None)
            .expect("submit");
        drop(ticket);
    }
    // A collected job after them: its wait() reads past (and discards)
    // every abandoned job's verdict and outcome frames, which the
    // server pushes in submission order on this connection.
    let outcome = client
        .submit(&WorkloadInput::with_seed(99), None)
        .expect("submit")
        .wait()
        .expect("outcome");
    assert!(outcome.unanimous);
    assert_eq!(
        client.buffered(),
        0,
        "abandoned jobs left state parked in the client connection"
    );
    drop(client);
    server.shutdown();
}

/// Evidence aimed at a caller-chosen site: 16 of these (identical
/// dangling observations plus a deferral hint) reliably flag the site,
/// so each fresh site is worth exactly one new epoch at the next
/// publish boundary.
fn site_report(client: u64, seq: u32, site: u32) -> RunReport {
    RunReport {
        client,
        seq,
        failed: true,
        clock: 50 + u64::from(seq),
        n_sites: 100,
        dangling_obs: vec![(site, 0.5, true)],
        overflow_obs: Vec::new(),
        pad_hints: Vec::new(),
        defer_hints: vec![(site, 0xF, 30)],
    }
}

/// The push pin (§6.4 without polling): a client connected *before* any
/// epoch exists observes server-pushed epochs without ever sending a
/// frame — the server fans each published epoch down every live
/// connection, and the client parks on its socket until one lands.
#[test]
fn connected_client_observes_pushed_epochs_without_polling() {
    let mut config = net_config(1);
    config.fleet = FleetConfig {
        publish_every: 8,
        ..FleetConfig::default()
    };
    let server =
        NetFrontend::bind(EspressoLike::new(), "127.0.0.1:0", config).expect("bind localhost");
    // Connected before the first publish; no epoch has been pushed yet.
    let observer = NetClient::connect(server.local_addr()).expect("connect observer");
    assert!(observer.pushed_epoch().is_none(), "phantom epoch in cache");

    // A second connection supplies the evidence that mints epochs.
    let producer = NetClient::connect(server.local_addr()).expect("connect producer");
    for seq in 0..16 {
        producer
            .ingest_report(&site_report(3, seq, 0xD00D))
            .expect("report ack");
    }

    // The observer never pulls: the epoch arrives because the server
    // pushed it down this otherwise-idle connection.
    let epoch = observer
        .wait_pushed_epoch(0, Duration::from_secs(10))
        .expect("wait for push")
        .expect("no epoch pushed within 10s");
    assert!(epoch.number >= 1, "pushed epoch 0");
    assert_eq!(
        observer.pushed_epoch().expect("cache filled").number,
        epoch.number,
        "cache read disagrees with the wait that filled it"
    );

    // Evidence for a *fresh* site mints a successor epoch, which reaches
    // the same connection; the cache is newest-wins, so waiting above
    // the first number yields the next.
    for seq in 16..32 {
        producer
            .ingest_report(&site_report(3, seq, 0xBEEF))
            .expect("report ack");
    }
    let newer = observer
        .wait_pushed_epoch(epoch.number, Duration::from_secs(10))
        .expect("wait for second push")
        .expect("second epoch never pushed");
    assert!(newer.number > epoch.number, "push went backwards");
    assert_eq!(observer.buffered(), 0, "pushes parked frames in buffers");
    drop(observer);
    drop(producer);
    server.shutdown();
}

/// Push completeness at connect: a client that joins *after* a publish
/// is greeted with the newest epoch on accept. It never sends a frame —
/// there is no epoch request to send — and a joiner at epoch 0 is sent
/// nothing at all.
#[test]
fn late_joiner_is_pushed_the_newest_epoch_on_accept() {
    let mut config = net_config(1);
    config.fleet = FleetConfig {
        publish_every: 8,
        ..FleetConfig::default()
    };
    let server =
        NetFrontend::bind(EspressoLike::new(), "127.0.0.1:0", config).expect("bind localhost");
    let frames_out = || {
        server
            .metrics_snapshot()
            .counter("net/frames_out")
            .expect("net/frames_out")
    };

    // At epoch 0 a joiner gets no greeting: one health round trip is the
    // only frame the server sends it.
    let producer = NetClient::connect(server.local_addr()).expect("connect producer");
    assert_eq!(producer.pull_health().expect("health").epoch, 0);
    assert_eq!(frames_out(), 1, "a frame was pushed at epoch 0");
    assert!(producer.pushed_epoch().is_none(), "phantom epoch in cache");

    let mut published = 0;
    for seq in 0..16 {
        let receipt = producer
            .ingest_report(&site_report(3, seq, 0xD00D))
            .expect("report ack");
        published = receipt.epoch;
    }
    assert!(published >= 1, "publish cadence minted no epoch");

    // Connected after the publish; the wait sends nothing, so the epoch
    // can only have arrived as the accept-time push.
    let frames_in = server.metrics_snapshot().counter("net/frames_in");
    let joiner = NetClient::connect(server.local_addr()).expect("connect joiner");
    let epoch = joiner
        .wait_pushed_epoch(0, Duration::from_secs(10))
        .expect("wait for greeting")
        .expect("late joiner was never pushed the epoch");
    assert_eq!(epoch.number, published, "greeted with a stale epoch");
    assert_eq!(epoch, *server.service().latest());
    assert_eq!(
        server.metrics_snapshot().counter("net/frames_in"),
        frames_in,
        "the late joiner sent a frame"
    );
    assert_eq!(joiner.buffered(), 0);
    drop(joiner);
    drop(producer);
    server.shutdown();
}

/// Buffer hygiene under pushes: many published epochs plus abandoned
/// tickets on one connection leave *nothing* parked — pushed epochs
/// collapse into the one-slot newest-wins cache (never counted by
/// `buffered`), and dropped tickets' frames are discarded on arrival.
/// This extends the `buffered == 0` pin to the push-epoch path.
#[test]
fn epoch_pushes_and_dropped_tickets_leave_no_buffered_state() {
    let mut config = net_config(1);
    config.fleet = FleetConfig {
        publish_every: 8,
        ..FleetConfig::default()
    };
    let server =
        NetFrontend::bind(EspressoLike::new(), "127.0.0.1:0", config).expect("bind localhost");
    let client = NetClient::connect(server.local_addr()).expect("connect");

    // Abandon jobs outright, then mint a stream of epochs on the same
    // connection: evidence for each fresh site flags at a publish
    // boundary, and every publish is pushed down this wire.
    for seed in 0..4 {
        drop(
            client
                .submit(&WorkloadInput::with_seed(seed), None)
                .expect("submit"),
        );
    }
    for (round, site) in [0xD00D, 0xBEEF].into_iter().enumerate() {
        for step in 0..16 {
            let receipt = client
                .ingest_report(&site_report(5, (round * 16 + step) as u32, site))
                .expect("report ack");
            assert!(!receipt.duplicate);
        }
    }
    let latest = server.service().latest().number;
    assert!(latest >= 2, "publish cadence minted too few epochs");

    // A collected job reads past (and discards) the abandoned jobs'
    // frames and absorbs any interleaved pushes.
    let outcome = client
        .submit(&WorkloadInput::with_seed(99), None)
        .expect("submit")
        .wait()
        .expect("outcome");
    assert!(outcome.unanimous);
    assert_eq!(client.buffered(), 0, "abandoned jobs left state parked");

    // Park until the *newest* epoch lands: every pushed epoch for this
    // connection has then traversed the client and collapsed into the
    // single cache slot.
    let newest = client
        .wait_pushed_epoch(latest - 1, Duration::from_secs(10))
        .expect("wait for newest push")
        .expect("newest epoch never arrived");
    assert!(newest.number >= latest);
    assert_eq!(client.buffered(), 0, "pushed epochs left state parked");
    drop(client);
    server.shutdown();
}

/// §6.4 over a real socket: the server's front-end (self-patching
/// disabled) is healed purely by epochs minted from evidence a *remote*
/// client shipped over the same connection it submits jobs on.
#[test]
fn remote_reports_heal_the_server() {
    let workload = EspressoLike::new();
    let input = WorkloadInput::with_seed(21).intensity(3);
    // The screened cold-site overflow (see xt-fleet/tests/frontend_loop.rs
    // for why a deterministic-healing overflow, not a dangling fault, is
    // the right loop-closure demo).
    let fault = FaultSpec {
        kind: FaultKind::BufferOverflow {
            delta: 20,
            fill: 0xEE,
        },
        trigger: AllocTime::from_raw(239),
    };
    let mut config = net_config(2);
    config.fleet = FleetConfig {
        publish_every: 8,
        ..FleetConfig::default()
    };
    let fill = config.fleet.isolator.fill_probability;
    let server =
        NetFrontend::bind(EspressoLike::new(), "127.0.0.1:0", config).expect("bind localhost");
    let client = NetClient::connect(server.local_addr()).expect("connect");

    let mut epoch = 0u64;
    // How far the fleet has published, per the newest report ack.
    let mut acked_epoch = 0u64;
    let mut patches = PatchTable::new();
    let mut next_seq = 0u32;
    let mut failures_reported = 0u32;
    let mut healed = false;
    let mut stack = ReusableStack::new();
    for _round in 0..40 {
        // Adopt the newest epoch before serving, like a deployed client:
        // an ack said the fleet is ahead, so park until that push lands.
        if acked_epoch > epoch {
            let newer = client
                .wait_pushed_epoch(epoch, Duration::from_secs(10))
                .expect("wait for push")
                .expect("an acked epoch was never pushed");
            epoch = newer.number;
            patches.merge(&newer.patches);
        }
        let outcome = client
            .submit(&input, Some(fault))
            .expect("submit")
            .wait()
            .expect("outcome");
        if outcome.error_observed {
            // Local cumulative probes, shipped as ordinary wire reports —
            // the §5 "few kilobytes per execution" path, remote edition.
            for _probe in 0..8 {
                let run = summarized_run_reusable(
                    &workload,
                    &input,
                    Some(fault),
                    patches.clone(),
                    0xF1EE7 ^ (u64::from(next_seq) << 8),
                    fill,
                    2.0,
                    &mut stack,
                );
                let report = RunReport::from_summary(77, next_seq, &run.summary);
                next_seq += 1;
                let receipt = client.ingest_report(&report).expect("report ack");
                assert!(!receipt.duplicate, "fresh probe deduplicated");
                acked_epoch = acked_epoch.max(receipt.epoch);
            }
            failures_reported += 1;
        } else if !patches.is_empty() {
            // Served cleanly under fleet-fed patches: healed.
            healed = true;
            break;
        }
    }
    assert!(failures_reported >= 1, "the fault never manifested");
    assert!(
        healed,
        "remote evidence never healed the server (epoch {epoch}, reports {})",
        server.stats().reports
    );
    assert!(epoch >= 1, "no epoch was ever adopted");
    assert!(
        patches.pads().any(|(_, pad)| pad >= 20),
        "correction must pad the 20-byte delta"
    );
    let stats = server.stats();
    assert!(stats.reports >= 8, "reports were not counted");
    drop(client);
    server.shutdown();
}

/// `connect_with_retry` rides out a server that starts *after* its
/// clients (orchestrated deployments bring processes up in arbitrary
/// order): the port refuses connections for a while, the backoff
/// schedule absorbs the refusals, and the first post-bind attempt lands.
#[test]
fn connect_with_retry_reaches_a_late_starting_server() {
    // Reserve a port, then free it: until the server binds it again,
    // connects are refused — the transient failure under test.
    let addr = TcpListener::bind("127.0.0.1:0")
        .expect("reserve port")
        .local_addr()
        .expect("local addr");
    let server_thread = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(200));
        NetFrontend::bind(EspressoLike::new(), addr, net_config(1)).expect("late bind")
    });
    let client = NetClient::connect_with_retry(
        addr,
        &RetryPolicy {
            attempts: 50,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(100),
            jitter_seed: 0xD1A1,
        },
    )
    .expect("retry never reached the late server");
    let server = server_thread.join().expect("server thread");
    let outcome = client
        .submit(&WorkloadInput::with_seed(11), None)
        .expect("submit")
        .wait()
        .expect("outcome");
    assert!(outcome.unanimous, "retried connection served garbage");
    drop(client);
    server.shutdown();
}

/// The durable front door: remote evidence ingested into a
/// `NetDurability`-configured server survives a full server restart —
/// same storage, new process state — including the epoch, the evidence
/// digest, and the replay windows that make redelivery a duplicate.
#[test]
fn durable_server_state_survives_restart() {
    let report = |seq: u32| RunReport {
        client: 7,
        seq,
        failed: true,
        clock: 50 + u64::from(seq),
        n_sites: 100,
        dangling_obs: vec![(0xD00D, 0.5, true)],
        overflow_obs: Vec::new(),
        pad_hints: Vec::new(),
        defer_hints: vec![(0xD00D, 0xF, 30)],
    };
    let disk = MemStorage::new();
    let mut config = net_config(1);
    config.fleet = FleetConfig {
        publish_every: 8,
        ..FleetConfig::default()
    };
    // snapshot_every 0: only the graceful-shutdown snapshot compacts, so
    // this test also proves the final snapshot actually happens.
    config.durability = Some(NetDurability {
        storage: Arc::new(disk.clone()),
        config: DurabilityConfig { snapshot_every: 0 },
    });

    let server = NetFrontend::bind(EspressoLike::new(), "127.0.0.1:0", config.clone())
        .expect("bind durable server");
    let client = NetClient::connect(server.local_addr()).expect("connect");
    for seq in 0..20 {
        let receipt = client.ingest_report(&report(seq)).expect("report ack");
        assert!(!receipt.duplicate);
    }
    let epoch_before = server.service().latest().number;
    assert!(epoch_before >= 1, "publish cadence never fired");
    let digest_before = server.service().state_digest();
    let m = server.fleet_metrics();
    assert_eq!(m.wal_appends, 20);
    assert_eq!(m.recoveries, 0);
    drop(client);
    server.shutdown();
    assert!(
        disk.object_len(wal::SNAPSHOT_OBJECT) > 8,
        "graceful shutdown wrote no snapshot"
    );
    assert_eq!(
        disk.object_len(wal::WAL_OBJECT),
        0,
        "graceful shutdown left an uncompacted WAL"
    );

    // "Restart": a new server over the same storage.
    let server = NetFrontend::bind(EspressoLike::new(), "127.0.0.1:0", config)
        .expect("rebind durable server");
    let m = server.fleet_metrics();
    assert_eq!(m.recoveries, 1, "rebind did not recover");
    assert_eq!(m.reports, 20, "recovered report count diverged");
    assert_eq!(server.service().latest().number, epoch_before);
    assert_eq!(
        server.service().state_digest(),
        digest_before,
        "recovered evidence state diverged"
    );
    // The recovered epoch is pushed like a published one: a client of
    // the restarted server is greeted with it, no publish needed.
    let client = NetClient::connect(server.local_addr()).expect("reconnect");
    let greeted = client
        .wait_pushed_epoch(0, Duration::from_secs(10))
        .expect("wait for recovered epoch")
        .expect("the recovered epoch was never pushed");
    assert_eq!(greeted.number, epoch_before);
    // Replay windows recovered too: redelivering over the wire is a
    // duplicate, not fresh evidence.
    assert!(
        client.ingest_report(&report(0)).expect("ack").duplicate,
        "recovery forgot the delivery window"
    );
    drop(client);
    server.shutdown();
}

/// Hostile-bytes containment at the two trust boundaries: a malformed
/// frame kills only its own connection (with an offset-bearing error
/// frame first), and a well-framed but hostile nested report is rejected,
/// counted, and leaves the connection usable — the server survives both.
#[test]
fn malformed_frames_and_hostile_reports_are_contained() {
    let server = NetFrontend::bind(EspressoLike::new(), "127.0.0.1:0", net_config(1))
        .expect("bind localhost");
    let addr = server.local_addr();

    // Raw garbage: bad magic.
    let mut raw = TcpStream::connect(addr).expect("connect raw");
    raw.write_all(b"GET / HTTP/1.1\r\n\r\n").expect("write");
    let mut buf = Vec::new();
    let _ = raw.read_to_end(&mut buf); // server closes on us
    drop(raw);

    // A frame with an unknown kind: the server answers with an Error
    // frame naming the kind byte, then closes.
    let mut raw = TcpStream::connect(addr).expect("connect raw");
    Frame::new(0xEE, vec![1, 2, 3])
        .write_to(&mut raw)
        .expect("write");
    raw.flush().expect("flush");
    let reply = Frame::read_from(&mut std::io::BufReader::new(
        raw.try_clone().expect("clone"),
    ))
    .expect("read reply")
    .expect("error frame before close");
    assert_eq!(reply.kind, xt_net::proto::kind::ERROR);
    drop(raw);

    // A truncated frame header (magic only), then close: dropped quietly.
    let mut raw = TcpStream::connect(addr).expect("connect raw");
    raw.write_all(&FRAME_MAGIC).expect("write");
    drop(raw);

    // A hostile nested report over the real client: rejected remotely
    // with the wire validator's message, counted, connection intact.
    let client = NetClient::connect(addr).expect("connect");
    let hostile = RunReport {
        client: 666,
        seq: 0,
        failed: true,
        clock: 1,
        n_sites: u32::MAX,
        overflow_obs: Vec::new(),
        dangling_obs: vec![(0xBAD, 0.5, true)],
        pad_hints: Vec::new(),
        defer_hints: Vec::new(),
    };
    let err = client
        .ingest_report(&hostile)
        .expect_err("hostile report accepted");
    match err {
        NetError::Remote(message) => {
            assert!(
                message.contains("site population"),
                "rejection lost the validator's diagnosis: {message}"
            );
        }
        other => panic!("expected a remote rejection, got {other:?}"),
    }
    assert_eq!(server.service().metrics().rejected_reports, 1);

    // The same connection — and the server as a whole — still serves.
    let outcome = client
        .submit(&WorkloadInput::with_seed(1), None)
        .expect("submit after rejection")
        .wait()
        .expect("outcome after rejection");
    assert!(outcome.unanimous);
    let stats = server.stats();
    assert!(
        stats.rejected >= 2,
        "rejections were not counted: {stats:?}"
    );
    drop(client);
    server.shutdown();
}

/// A well-formed report for the observability tests: minimal, but it
/// passes the wire validator and folds real evidence.
fn evidence_report(client: u64, seq: u32) -> RunReport {
    RunReport {
        client,
        seq,
        failed: true,
        clock: 50 + u64::from(seq),
        n_sites: 100,
        dangling_obs: vec![(0xD00D, 0.5, true)],
        overflow_obs: Vec::new(),
        pad_hints: Vec::new(),
        defer_hints: vec![(0xD00D, 0xF, 30)],
    }
}

/// The acceptance pin for the wire observability surface: after real
/// traffic (jobs and reports over TCP), a client pulls a health frame
/// and the full merged metrics snapshot, and every layer's per-stage
/// histograms carry nonzero counts.
#[test]
fn health_and_metrics_pull_over_live_tcp() {
    let server = NetFrontend::bind(EspressoLike::new(), "127.0.0.1:0", net_config(1))
        .expect("bind localhost");
    let client = NetClient::connect(server.local_addr()).expect("connect");

    for seed in 0..3 {
        let outcome = client
            .submit(&WorkloadInput::with_seed(seed), None)
            .expect("submit")
            .wait()
            .expect("outcome");
        assert!(outcome.unanimous);
    }
    for seq in 0..5 {
        let receipt = client
            .ingest_report(&evidence_report(7, seq))
            .expect("report ack");
        assert!(!receipt.duplicate);
    }

    let health = client.pull_health().expect("health frame");
    assert!(health.healthy);
    assert!(!health.durable, "plain backend reported durable");
    assert_eq!(health.recoveries, 0);
    assert!(
        health.connections >= 1,
        "the probing connection itself should be counted"
    );

    let snap = client.pull_metrics().expect("metrics frame");
    // Per-stage latency histograms from all three layers, each with the
    // counts the traffic above implies.
    for (name, expect) in [
        ("frontend/queue_wait", 3),
        ("frontend/exec", 3),
        ("frontend/verdict", 3),
        ("fleet/ingest", 5),
        ("fleet/fold", 5),
    ] {
        let hist = snap
            .histogram(name)
            .unwrap_or_else(|| panic!("{name} missing from pulled snapshot"));
        assert_eq!(hist.count(), expect, "{name} count");
        assert!(hist.p50() <= hist.p99(), "{name} quantiles disordered");
    }
    let rtt = snap.histogram("net/wire_rtt").expect("net/wire_rtt");
    // 3 Accepted + 5 ReportAcks + the health reply; the metrics reply
    // itself records only after the snapshot was taken.
    assert!(rtt.count() >= 9, "wire RTT count {}", rtt.count());
    assert_eq!(snap.counter("fleet/reports"), Some(5));
    assert!(snap.counter("net/frames_in").unwrap_or(0) >= 9);
    assert!(snap.counter("net/frames_out").unwrap_or(0) >= 9);

    // The server-side (connection-free) subset agrees on fleet counters.
    let local = server.metrics_snapshot();
    assert_eq!(local.counter("fleet/reports"), Some(5));
    assert!(local.histogram("fleet/ingest").is_some());

    drop(client);
    server.shutdown();
}

/// A pipelining client's frames are cut from one read and answered in
/// order: 1000 `HealthPull`s sent in a single write get exactly 1000
/// `Health` replies, then the reply to the next request. The server's
/// `net/writes` counter saw at least one write and no more writes than
/// frames.
#[test]
fn a_thousand_pipelined_pulls_get_a_thousand_replies_in_order() {
    const PULLS: usize = 1000;
    let server = NetFrontend::bind(EspressoLike::new(), "127.0.0.1:0", net_config(1))
        .expect("bind localhost");
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect raw");
    raw.write_all(&Msg::HealthPull.to_frame().encode().repeat(PULLS))
        .expect("write the pipeline");

    let mut reader = std::io::BufReader::new(raw.try_clone().expect("clone"));
    let mut read_msg = || {
        let frame = Frame::read_from(&mut reader)
            .expect("read a frame")
            .expect("the server closed early");
        Msg::from_frame(&frame).expect("decode")
    };
    let mut uptime = 0;
    for i in 0..PULLS {
        match read_msg() {
            Msg::Health(health) => {
                assert!(health.uptime_ms >= uptime, "reply {i} went back in time");
                uptime = health.uptime_ms;
            }
            other => panic!("reply {i}: unexpected {other:?}"),
        }
    }
    Msg::MetricsPull
        .to_frame()
        .write_to(&mut raw)
        .expect("pull metrics");
    let Msg::Metrics(snap) = read_msg() else {
        panic!("the metrics reply did not follow the health replies");
    };
    assert_eq!(snap.counter("net/frames_in"), Some(PULLS as u64 + 1));
    let frames_out = snap.counter("net/frames_out").expect("net/frames_out");
    let writes = snap.counter("net/writes").expect("net/writes");
    assert_eq!(frames_out, PULLS as u64);
    assert!(
        0 < writes && writes <= frames_out,
        "{writes} writes for {frames_out} frames"
    );
    drop(reader);
    drop(raw);
    server.shutdown();
}

/// Health over a durable backend: after a restart-with-recovery the
/// probe reports durable mode and the recovery count.
#[test]
fn health_probe_reports_durability_and_recovery() {
    let mut config = net_config(1);
    // `config.clone()` shares this Arc, so the rebind below recovers
    // from the same storage.
    config.durability = Some(NetDurability {
        storage: Arc::new(MemStorage::new()),
        config: DurabilityConfig { snapshot_every: 0 },
    });

    let server = NetFrontend::bind(EspressoLike::new(), "127.0.0.1:0", config.clone())
        .expect("bind durable server");
    let client = NetClient::connect(server.local_addr()).expect("connect");
    client
        .ingest_report(&evidence_report(9, 0))
        .expect("report ack");
    let health = client.pull_health().expect("health frame");
    assert!(health.durable, "durable backend reported plain");
    assert_eq!(health.recoveries, 0, "fresh storage recovered something");
    drop(client);
    server.shutdown();

    let server = NetFrontend::bind(EspressoLike::new(), "127.0.0.1:0", config)
        .expect("rebind durable server");
    let client = NetClient::connect(server.local_addr()).expect("reconnect");
    let health = client.pull_health().expect("health frame");
    assert!(health.durable);
    assert_eq!(health.recoveries, 1, "restart did not surface the recovery");
    let snap = client.pull_metrics().expect("metrics frame");
    assert_eq!(snap.counter("fleet/recoveries"), Some(1));
    drop(client);
    server.shutdown();
}

/// The admission-control pin: with per-client token buckets armed, a
/// flooding client's reports are refused with a named rate-limit error
/// — visible in the pulled metrics — while a well-behaved client on the
/// same server ingests untouched.
#[test]
fn flooding_client_is_rate_limited_while_quiet_client_is_not() {
    let mut config = net_config(1);
    config.fleet.rate_limit = Some(TokenBucketConfig {
        burst: 4,
        refill_num: 1,
        refill_den: 8,
    });
    let server =
        NetFrontend::bind(EspressoLike::new(), "127.0.0.1:0", config).expect("bind localhost");

    // The flood: one client hammers 64 reports without backing off.
    let flooder = NetClient::connect(server.local_addr()).expect("connect flooder");
    let mut refused = 0u64;
    for seq in 0..64 {
        match flooder.ingest_report(&evidence_report(1, seq)) {
            Ok(receipt) => assert!(!receipt.duplicate),
            Err(NetError::Remote(message)) => {
                assert!(
                    message.contains("rate-limited"),
                    "refusal lost its diagnosis: {message}"
                );
                refused += 1;
            }
            Err(other) => panic!("rate limiting broke the connection: {other:?}"),
        }
    }
    assert!(
        refused >= 40,
        "sustained flood mostly admitted ({refused}/64 refused)"
    );

    // The same server still admits a well-behaved client's burst whole.
    let quiet = NetClient::connect(server.local_addr()).expect("connect quiet");
    for seq in 0..4 {
        quiet
            .ingest_report(&evidence_report(2, seq))
            .expect("well-behaved client was throttled");
    }

    // The refusals are observable over the wire, attributed to the
    // fleet's admission counter, not the decode-rejection counter.
    let snap = quiet.pull_metrics().expect("metrics frame");
    assert_eq!(snap.counter("fleet/rate_limited"), Some(refused));
    assert_eq!(snap.counter("fleet/rejected_reports"), Some(0));
    assert_eq!(snap.counter("fleet/reports"), Some((64 - refused) + 4));
    drop(flooder);
    drop(quiet);
    server.shutdown();
}
