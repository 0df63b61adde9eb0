//! Connection soak: hold a thousand mostly-idle connections on one
//! event-loop [`NetFrontend`] and push an epoch to all of them.
//!
//! ```text
//! cargo test --release -p xt-net --test soak
//! ```
//!
//! The thread-per-connection server this design retired would need one
//! OS thread (8 MiB of stack address space and a scheduler entry) per
//! held connection; the readiness-driven loop holds them all on one
//! poller thread plus a fixed worker pool. This test *asserts* that
//! shape rather than trusting it:
//!
//! 1. **Fixed-size thread pool.** The process thread count after
//!    accepting every connection equals the count once the first job
//!    has completed (every pool thread exists by then) — zero threads
//!    per connection.
//! 2. **Bounded memory.** Resident-set growth divided by the connection
//!    count stays under a per-connection budget (buffered reader/writer
//!    pairs on the client side dominate; the server's per-connection
//!    state is a token, empty buffers, and an epoll registration).
//! 3. **Determinism at full occupancy.** With every connection held
//!    open, concurrently submitted jobs still produce digests
//!    byte-identical to the in-process serial replay in arrival order.
//! 4. **Observability at full occupancy.** A live metrics pull answers
//!    while every slot is occupied, and the `net/epoch_push` histogram
//!    carries one propagation sample per pushed connection.
//!
//! Pins 1–2 read process-wide `Threads`/`VmRSS` from `/proc/self/status`,
//! which is why this file holds exactly one `#[test]` (a sibling test's
//! threads would be counted too) and why they are skipped where `/proc`
//! does not exist; pins 3–4 run everywhere.
//!
//! The population bows to the process fd budget: both socket ends live
//! in this one process (2 fds per connection), so the target is clamped
//! to fit `RLIMIT_NOFILE`.

use std::sync::Mutex;
use std::time::Duration;

use exterminator::frontend::FrontendConfig;
use exterminator::pool::PoolConfig;
use xt_fleet::{FleetConfig, RunReport};
use xt_net::{NetClient, NetConfig, NetFrontend};
use xt_patch::PatchTable;
use xt_workloads::{SquidLike, WorkloadInput};

/// Pool shape for the soak server and the serial reference. Determinism
/// pins must exclude auto-patching (patch visibility is
/// completion-order dependent; same exclusion as `tests/net.rs`).
fn pool_config() -> PoolConfig {
    PoolConfig {
        replicas: 3,
        auto_patch: false,
        ..PoolConfig::default()
    }
}

fn net_config(max_connections: usize) -> NetConfig {
    NetConfig {
        frontend: FrontendConfig {
            pools: 1,
            pool: pool_config(),
            queue_capacity: 3,
            share_isolated: false,
            ..FrontendConfig::default()
        },
        // publish_every 0: the test publishes explicitly, once every
        // connection is held.
        fleet: FleetConfig {
            publish_every: 0,
            ..FleetConfig::default()
        },
        max_connections,
        ..NetConfig::default()
    }
}

/// Evidence aimed at one site — 16 of these flag it, so the explicit
/// publish below mints a non-genesis epoch (same recipe as the net
/// integration pins).
fn site_report(seq: u32) -> RunReport {
    RunReport {
        client: 11,
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

/// Process-wide thread count and resident set (KiB) from one read of
/// `/proc/self/status`; `None` where there is no `/proc`.
fn threads_and_rss() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let field = |name: &str| -> Option<u64> {
        let line = text.lines().find(|l| l.starts_with(name))?;
        line.split_whitespace().nth(1)?.parse().ok()
    };
    field("Threads").zip(field("VmRSS"))
}

/// The soft open-file limit, from `/proc/self/limits`.
fn fd_soft_limit() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = text.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

/// In-process serial reference digests for `inputs` in order.
fn serial_digests(inputs: &[WorkloadInput]) -> Vec<u128> {
    let workload = SquidLike::new();
    std::thread::scope(|scope| {
        let mut pool = exterminator::pool::ReplicaPool::scoped(
            scope,
            &workload,
            pool_config(),
            PatchTable::new(),
        );
        let outcomes = pool.run_batch(inputs, None);
        pool.shutdown();
        outcomes
            .iter()
            .map(exterminator::pool::PoolOutcome::deterministic_digest)
            .collect()
    })
}

/// Connections the test tries to hold.
const TARGET_CONNECTIONS: usize = 1_000;

/// Per-connection RSS growth budget: a held-open idle connection costs
/// two buffered stream wrappers client-side plus a few hundred bytes of
/// server state — 128 KiB is an order of magnitude of headroom, while a
/// thread-per-connection server would blow it on stack pages alone.
const RSS_PER_CONN_BUDGET: u64 = 128 * 1024;

#[test]
fn a_thousand_held_connections_cost_no_threads_and_change_no_digest() {
    // Both socket ends are this process: 2 fds per connection, plus
    // slack for the listener, the poller, and everything else open.
    let budget = fd_soft_limit().map_or(TARGET_CONNECTIONS, |limit| {
        (limit.saturating_sub(256) / 2) as usize
    });
    let conns = TARGET_CONNECTIONS.min(budget);

    let server = NetFrontend::bind(SquidLike::new(), "127.0.0.1:0", net_config(conns + 8))
        .expect("bind localhost");
    let addr = server.local_addr();
    // A health round trip proves the loop, workers, and watcher are up,
    // but not the replicas: the front-end's pool driver spawns them on
    // its own thread, after `bind` has returned. One *completed job*
    // does — every replica ran it — so the thread count is the
    // fixed-pool baseline only from here on. (Reading it earlier raced
    // the driver and failed pin 1 by exactly the replica count.)
    let probe = NetClient::connect(addr).expect("connect probe");
    assert!(probe.pull_health().expect("health pull").healthy);
    let warmup_input = WorkloadInput::with_seed(u64::MAX);
    let warmup = probe.submit(&warmup_input, None).expect("submit warm-up");
    let warmup_seq = warmup.job();
    let warmup_digest = warmup.wait().expect("warm-up outcome").digest;
    let baseline = threads_and_rss();

    let clients: Vec<NetClient> = (0..conns)
        .map(|i| {
            // A tight connect loop can outrun the accept loop on few
            // cores and overflow the listen backlog — at which point
            // the kernel drops SYNs and every stalled connect eats a
            // ~1s retransmission timeout. Yielding once per backlog's
            // worth keeps the poller draining instead.
            if i % 64 == 63 {
                std::thread::yield_now();
            }
            NetClient::connect(addr).unwrap_or_else(|e| panic!("connect #{i}: {e:?}"))
        })
        .collect();

    match baseline.zip(threads_and_rss()) {
        Some(((threads_baseline, rss_baseline), (threads_full, rss_full))) => {
            // Pin 1: fixed-size thread pool — no thread came with any
            // connection.
            assert_eq!(
                threads_full, threads_baseline,
                "holding {conns} connections changed the thread count"
            );
            // Pin 2: bounded memory. (Client-side stream buffers
            // dominate; the budget still catches anything
            // per-connection that grows.)
            let rss_per_conn = rss_full.saturating_sub(rss_baseline) * 1024 / conns as u64;
            println!(
                "{conns} connections: rss {rss_baseline} KiB -> {rss_full} KiB \
                 ({rss_per_conn} bytes/conn), threads: {threads_full}"
            );
            assert!(
                rss_per_conn < RSS_PER_CONN_BUDGET,
                "{rss_per_conn} bytes/conn busts the {RSS_PER_CONN_BUDGET}-byte budget"
            );
        }
        None => println!(
            "note: no /proc/self/status here; thread-count and RSS pins skipped \
             ({conns} connections held)"
        ),
    }

    // Pin 3: determinism at full occupancy — concurrent submissions over
    // 3 of the held connections, against the serial in-process replay
    // (which starts, like the server's sequence, at the warm-up job).
    let collected: Mutex<Vec<(u64, WorkloadInput, u128)>> =
        Mutex::new(vec![(warmup_seq, warmup_input, warmup_digest)]);
    std::thread::scope(|scope| {
        for (c, client) in clients.iter().take(3).enumerate() {
            let collected = &collected;
            scope.spawn(move || {
                for j in 0..4 {
                    let input = WorkloadInput::with_seed((c * 4 + j) as u64);
                    let ticket = client.submit(&input, None).expect("submit");
                    let seq = ticket.job();
                    let outcome = ticket.wait().expect("outcome");
                    assert!(outcome.unanimous, "soak traffic diverged");
                    collected
                        .lock()
                        .expect("collection lock")
                        .push((seq, input, outcome.digest));
                }
            });
        }
    });
    let mut collected = collected.into_inner().expect("collection lock");
    collected.sort_by_key(|(seq, _, _)| *seq);
    for (i, (seq, _, _)) in collected.iter().enumerate() {
        assert_eq!(*seq, i as u64, "sequence numbers have gaps at occupancy");
    }
    let arrival: Vec<WorkloadInput> = collected.iter().map(|(_, i, _)| i.clone()).collect();
    for ((seq, _, digest), expected) in collected.iter().zip(&serial_digests(&arrival)) {
        assert_eq!(
            digest, expected,
            "job {seq} diverged from the serial reference at full occupancy"
        );
    }

    // Publish → every client observes. Evidence first (no cadence),
    // then the explicit publish.
    for seq in 0..16 {
        probe.ingest_report(&site_report(seq)).expect("report ack");
    }
    let epoch = server.service().publish();
    assert!(epoch.number >= 1, "evidence never minted an epoch");
    for (i, client) in clients.iter().enumerate() {
        client
            .wait_pushed_epoch(0, Duration::from_secs(60))
            .expect("wait for push")
            .unwrap_or_else(|| panic!("connection #{i} never observed the pushed epoch"));
    }

    // Pin 4: a live metrics pull at full occupancy, carrying one
    // propagation sample per pushed connection.
    let snapshot = probe.pull_metrics().expect("metrics pull at occupancy");
    let push_hist = snapshot
        .histogram("net/epoch_push")
        .expect("net/epoch_push");
    assert!(
        push_hist.count() >= conns as u64,
        "epoch_push carried {} samples for {conns} connections",
        push_hist.count()
    );
    assert_eq!(
        snapshot.counter("net/pushes_dropped"),
        Some(0),
        "idle connections hit the write-queue hard cap"
    );
    let health = probe.pull_health().expect("health pull at occupancy");
    assert!(health.connections as usize > conns, "population miscounted");

    drop(clients);
    drop(probe);
    server.shutdown();
}
