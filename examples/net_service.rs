//! A self-healing server with *remote* clients: the §6.4 loop over a
//! real localhost socket.
//!
//! ```text
//! cargo run --release --example net_service
//! ```
//!
//! An espresso-like workload runs behind a [`NetFrontend`] — two replica
//! pools with self-patching disabled, a co-located fleet service, one TCP
//! front door. A remote [`NetClient`] (separate connection, nothing
//! shared in-process) submits a request stream in which every submission
//! carries a crafted overflow. The loop that follows is exactly the
//! paper's collaborative correction, with only compact wire messages
//! crossing the socket:
//!
//! 1. the client submits; the server's replicas vote and *detect*;
//! 2. the client re-runs the failing input under cumulative
//!    instrumentation locally and ships each run's `XTR1` report
//!    (a few hundred bytes) over the same connection;
//! 3. the server's fleet service crosses the §5 threshold, publishes an
//!    epoch, and — because report ingest fans epochs straight into the
//!    server's own pools — the front-end is patched without ever having
//!    isolated anything itself;
//! 4. the server pushes the epoch down the client's connection (the
//!    report acks told the client one was coming), and its next attack
//!    submissions are served cleanly by every pool.
//!
//! Because self-patching is off, any healing observed can only have come
//! through the wire.

use std::time::Duration;

use exterminator::frontend::FrontendConfig;
use exterminator::pool::PoolConfig;
use exterminator::runner::ReusableStack;
use exterminator::summarized_run_reusable;
use xt_alloc::AllocTime;
use xt_faults::{FaultKind, FaultSpec};
use xt_fleet::{FleetConfig, RunReport};
use xt_net::{NetClient, NetConfig, NetFrontend};
use xt_patch::PatchTable;
use xt_workloads::{EspressoLike, WorkloadInput};

fn main() {
    let input = WorkloadInput::with_seed(21).intensity(3);
    // The screened cold-site overflow (pads heal it deterministically —
    // see the ROADMAP's fleet notes for why that makes the clean
    // loop-closure demo).
    let fault = FaultSpec {
        kind: FaultKind::BufferOverflow {
            delta: 20,
            fill: 0xEE,
        },
        trigger: AllocTime::from_raw(239),
    };
    let config = NetConfig {
        frontend: FrontendConfig {
            pools: 2,
            pool: PoolConfig {
                replicas: 3,
                auto_patch: false,
                ..PoolConfig::default()
            },
            share_isolated: false,
            ..FrontendConfig::default()
        },
        fleet: FleetConfig {
            publish_every: 8,
            ..FleetConfig::default()
        },
        ..NetConfig::default()
    };
    let fill = config.fleet.isolator.fill_probability;

    let server =
        NetFrontend::bind(EspressoLike::new(), "127.0.0.1:0", config).expect("bind localhost");
    println!(
        "# self-healing server on {} (2 pools x 3 replicas, self-patching OFF)\n",
        server.local_addr()
    );

    // The remote side: its own workload instance, its own connection —
    // everything it learns travels over the socket.
    let workload = EspressoLike::new();
    let client = NetClient::connect(server.local_addr()).expect("connect");

    let mut epoch = 0u64;
    // How far the fleet has published, per the newest report ack.
    let mut acked_epoch = 0u64;
    let mut patches = PatchTable::new();
    let mut next_seq = 0u32;
    let mut healed = false;
    // One allocator stack for every local probe, reset between runs.
    let mut stack = ReusableStack::new();
    for round in 0..40 {
        // An ack said the fleet is ahead: park until that push lands.
        if acked_epoch > epoch {
            let newer = client
                .wait_pushed_epoch(epoch, Duration::from_secs(10))
                .expect("wait for push")
                .expect("an acked epoch was never pushed");
            println!(
                "round {round}: pushed epoch {} ({} patch entries)",
                newer.number,
                newer.patches.len()
            );
            epoch = newer.number;
            patches.merge(&newer.patches);
        }
        let ticket = client.submit(&input, Some(fault)).expect("submit");
        let verdict = ticket.wait_verdict().expect("verdict");
        let outcome = ticket.wait().expect("outcome");
        if outcome.error_observed {
            println!(
                "round {round}: ATTACK detected by the vote (quorum {}, {} dissenting) — \
                 probing locally, reporting over the wire",
                verdict.map_or(0, |v| v.agreeing.len()),
                outcome.dissenting.len()
            );
            for _ in 0..8 {
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
                let report = RunReport::from_summary(1, next_seq, &run.summary);
                next_seq += 1;
                let receipt = client.ingest_report(&report).expect("report ack");
                acked_epoch = acked_epoch.max(receipt.epoch);
            }
        } else if !patches.is_empty() {
            println!(
                "round {round}: attack served CLEANLY under fleet epoch {epoch} — \
                 the server was healed by patches it never isolated"
            );
            healed = true;
            break;
        } else {
            println!("round {round}: served cleanly (fault did not manifest)");
        }
    }

    let stats = server.stats();
    let metrics = server.service().metrics();
    println!(
        "\nserver: {} jobs, {} wire reports, epoch {}; client pads: {:?}",
        stats.jobs,
        stats.reports,
        metrics.epoch,
        patches.pads().collect::<Vec<_>>()
    );
    // The operator's view, pulled over the same socket the jobs rode:
    // health, then every layer's counters and latency histograms.
    let health = client.pull_health().expect("health pull");
    println!(
        "\nhealth: epoch {} after {}ms up, {} connections, durable={}",
        health.epoch, health.uptime_ms, health.connections, health.durable
    );
    let snapshot = client.pull_metrics().expect("metrics pull");
    println!("\nmetrics at shutdown:\n{}", snapshot.render_text());
    drop(client);
    server.shutdown();
    assert!(healed, "the fleet loop never healed the server");
    assert!(
        patches.pads().any(|(_, pad)| pad >= 20),
        "correction must pad the 20-byte delta"
    );
    println!("=> remote evidence corrected the server for every future client");
}
