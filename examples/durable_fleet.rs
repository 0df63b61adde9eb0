//! A fleet server that forgets nothing: evidence WAL + snapshots on
//! disk, a late-starting server, and a restart that recovers everything.
//!
//! ```text
//! cargo run --release --example durable_fleet
//! ```
//!
//! The paper's aggregator is only useful if it *accumulates*: §5's
//! probabilities sharpen over millions of runs, and an aggregator that
//! loses its evidence on every restart never gets there. This demo runs
//! the whole durability story end to end on a real temp directory:
//!
//! 1. **The client comes up first.** Orchestrated deployments make no
//!    ordering promises, so the client uses
//!    [`NetClient::connect_with_retry`] — bounded exponential backoff
//!    with deterministic jitter — against a port the server has not
//!    bound yet.
//! 2. **The server binds late, durable.** Its [`NetConfig`] carries a
//!    [`NetDurability`] over [`DirStorage`]: every remote `XTR1` report
//!    is WAL-appended *before* it folds into the evidence table, and
//!    snapshots compact the log on a cadence.
//! 3. **Evidence accumulates to an epoch**, then the server shuts down
//!    gracefully (final compacted snapshot, empty WAL).
//! 4. **A "new process" reopens the same directory.** Recovery loads the
//!    snapshot, replays the (empty) WAL tail, and the epoch, the report
//!    count, the canonical state digest, and the per-client replay
//!    windows are all back — a redelivered report is a *duplicate*, not
//!    fresh evidence, with zero new reports ingested.

use std::sync::Arc;
use std::time::Duration;

use xt_fleet::{DirStorage, DurabilityConfig, FleetConfig, RunReport};
use xt_net::{NetClient, NetConfig, NetDurability, NetFrontend, RetryPolicy};
use xt_workloads::EspressoLike;

/// A deterministic dangling-pointer report: one hot site, the shape a
/// cumulative-mode client ships after a premature free.
fn report(seq: u32) -> RunReport {
    RunReport {
        client: 42,
        seq,
        failed: true,
        clock: 300 + u64::from(seq),
        n_sites: 120,
        overflow_obs: Vec::new(),
        dangling_obs: vec![(0xDEAD, 0.5, true)],
        pad_hints: Vec::new(),
        defer_hints: vec![(0xDEAD, 0x1F, 40)],
    }
}

fn durable_config(dir: &std::path::Path) -> NetConfig {
    NetConfig {
        fleet: FleetConfig {
            publish_every: 8,
            ..FleetConfig::default()
        },
        durability: Some(NetDurability {
            storage: Arc::new(DirStorage::open(dir).expect("open storage dir")),
            config: DurabilityConfig { snapshot_every: 16 },
        }),
        ..NetConfig::default()
    }
}

fn main() {
    let dir = std::env::temp_dir().join(format!("xt-durable-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    println!("# durable fleet storage: {}\n", dir.display());

    // Reserve a port, then free it: the client will be retrying against
    // it before the server exists.
    let addr = std::net::TcpListener::bind("127.0.0.1:0")
        .expect("reserve port")
        .local_addr()
        .expect("local addr");

    let server_dir = dir.clone();
    let server_thread = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        NetFrontend::bind(EspressoLike::new(), addr, durable_config(&server_dir))
            .expect("bind durable server")
    });

    println!("client up first: retrying {addr} with exponential backoff...");
    let client = NetClient::connect_with_retry(
        addr,
        &RetryPolicy {
            attempts: 60,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(100),
            jitter_seed: 0xD00D,
        },
    )
    .expect("the late server never came up");
    let server = server_thread.join().expect("server thread");
    println!("connected — the server bound ~150ms after the client started\n");

    // Ship evidence until the fleet publishes a corrective epoch.
    let mut seq = 0u32;
    let mut epoch = 0u64;
    while epoch == 0 && seq < 64 {
        let receipt = client.ingest_report(&report(seq)).expect("report ack");
        assert!(!receipt.duplicate, "fresh report deduplicated");
        epoch = receipt.epoch;
        seq += 1;
    }
    assert!(epoch >= 1, "evidence never crossed the publish threshold");
    let reports_before = u64::from(seq);
    let digest_before = server.service().state_digest();
    let before = server.service().metrics();
    println!(
        "shipped {seq} reports -> epoch {epoch}; WAL appends {}, snapshots {}",
        before.wal_appends, before.snapshots_written
    );
    assert_eq!(before.wal_appends, reports_before);
    assert_eq!(before.recoveries, 0, "a fresh directory is not a recovery");

    drop(client);
    println!("graceful shutdown (final compacted snapshot)...");
    server.shutdown();

    // "Restart": a brand-new server process over the same directory.
    let server = NetFrontend::bind(EspressoLike::new(), "127.0.0.1:0", durable_config(&dir))
        .expect("rebind durable server");
    let after = server.service().metrics();
    println!(
        "\nreopened: recoveries {}, reports {}, epoch {}, torn tails {}",
        after.recoveries, after.reports, after.epoch, after.torn_tail_truncated
    );
    assert!(after.recoveries >= 1, "reopen did not count a recovery");
    assert_eq!(after.reports, reports_before, "report count diverged");
    assert_eq!(after.epoch, epoch, "the epoch did not survive the restart");
    assert_eq!(
        server.service().state_digest(),
        digest_before,
        "recovered evidence state diverged"
    );
    assert_eq!(after.wal_appends, 0, "recovery is replay, not re-append");

    // The replay windows survived too: redelivering an old report over
    // the wire is recognized, not double-counted.
    let client = NetClient::connect(server.local_addr()).expect("reconnect");
    let redelivery = client.ingest_report(&report(0)).expect("ack");
    assert!(redelivery.duplicate, "recovery forgot the delivery window");
    println!("redelivered report 0 -> duplicate (replay window recovered)");

    // The health probe tells the restart story in one frame, and the
    // merged metrics snapshot shows the recovered counters next to the
    // wire/WAL latency histograms.
    let health = client.pull_health().expect("health pull");
    println!(
        "\nhealth: durable={}, recoveries={}, epoch {}, {}ms up",
        health.durable, health.recoveries, health.epoch, health.uptime_ms
    );
    assert!(health.durable);
    let snapshot = client.pull_metrics().expect("metrics pull");
    println!("\nmetrics at shutdown:\n{}", snapshot.render_text());

    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "\n=> a restart costs the fleet nothing: evidence, epoch, and dedup state all recover"
    );
}
