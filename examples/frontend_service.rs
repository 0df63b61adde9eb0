//! The pool front-end serving a multi-client population (§6.4 inside one
//! process).
//!
//! ```text
//! cargo run --release --example frontend_service
//! ```
//!
//! A squid-like cache runs behind a [`PoolFrontend`]: two replica pools
//! share one front door, three client threads submit their own request
//! streams concurrently through the bounded queues, and per-job tickets
//! let each client overlap its next submission with the replicas' work.
//! A malformed request arrives in one client's traffic; whichever pool
//! serves it votes, isolates the overflow, and the patch fans out to the
//! sibling pool — after which *every* client's attack batches are served
//! cleanly, by pools that never saw the failure themselves.

use std::sync::atomic::{AtomicU64, Ordering};

use exterminator::frontend::{FrontendConfig, PoolFrontend};
use exterminator::pool::PoolConfig;
use xt_patch::PatchTable;
use xt_workloads::{multi_client_sessions, SquidLike};

fn main() {
    let workload = SquidLike::new();
    // 3 clients x 9 batches of 12 requests; every 3rd batch of every
    // client carries the crafted escaped URL.
    let sessions = multi_client_sessions(3, 9, 12, Some(3));
    println!(
        "# squid cache behind a 2-pool front-end: {} clients x {} batches\n",
        sessions.len(),
        sessions[0].len()
    );

    let errors = AtomicU64::new(0);
    let healed = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let frontend = PoolFrontend::scoped(
            scope,
            &workload,
            FrontendConfig {
                pools: 2,
                pool: PoolConfig {
                    replicas: 6,
                    ..PoolConfig::default()
                },
                queue_capacity: 4,
                share_isolated: true,
                ..FrontendConfig::default()
            },
            PatchTable::new(),
        );
        std::thread::scope(|clients| {
            for (id, session) in sessions.iter().enumerate() {
                let frontend = &frontend;
                let (errors, healed) = (&errors, &healed);
                clients.spawn(move || {
                    for (i, input) in session.iter().enumerate() {
                        let out = frontend.submit(input, None).wait();
                        let attack = i % 3 == 2;
                        if out.outcome.error_observed() {
                            errors.fetch_add(1, Ordering::Relaxed);
                            println!(
                                "client {id} batch {i}: ATTACK observed — isolation found {} culprit(s)",
                                out.outcome.report.as_ref().map_or(0, |r| r.overflows.len()),
                            );
                        } else if attack && !frontend.patches().is_empty() {
                            healed.fetch_add(1, Ordering::Relaxed);
                            println!("client {id} batch {i}: attack served cleanly under fanned-out patches");
                        }
                    }
                });
            }
        });
        let stats = frontend.stats();
        println!(
            "\nfront-end stats: {} submitted, {} completed, {} failures, {} backpressure waits",
            stats.submitted, stats.completed, stats.failures, stats.backpressure_waits,
        );
        let pads: Vec<_> = frontend.patches().pads().collect();
        println!("shared live patch table: {pads:?}");
        frontend.shutdown();
    });
    assert!(
        errors.load(Ordering::Relaxed) >= 1,
        "the attack never manifested"
    );
    assert!(
        healed.load(Ordering::Relaxed) >= 1,
        "no attack batch was served cleanly after fan-out"
    );
    println!(
        "\n=> {} failure(s) taught the whole front-end: {} attack batch(es) served cleanly",
        errors.load(Ordering::Relaxed),
        healed.load(Ordering::Relaxed),
    );
}
