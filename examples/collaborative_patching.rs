//! Collaborative correction (§6.4) as a service: the fleet loop.
//!
//! ```text
//! cargo run --release --example collaborative_patching
//! ```
//!
//! "Each individual user of an application is likely to experience
//! different errors. To allow an entire user community to automatically
//! improve software reliability, Exterminator provides a simple utility
//! that supports collaborative correction ... computing the maximum buffer
//! pad required for any allocation site, and the maximal deferral amount."
//!
//! The original version of this example hand-merged two patch files. This
//! one runs the real loop the paper sketches (and `xt-fleet` implements):
//! a community of users, half hitting a cold-site buffer overflow and half
//! a dangling free, each **submits** its runs' compact summaries to the
//! sharded aggregation service, the service **aggregates** evidence and
//! publishes versioned patch epochs, and every user **pulls** the latest
//! epoch before its next run. Nobody computes a patch locally — isolation
//! emerges from the pooled evidence, and one published epoch corrects both
//! bugs for everyone.

use exterminator::runner::ReusableStack;
use exterminator::summarized_run_reusable;
use xt_fleet::simulator::{demo_faults, verified_corrected};
use xt_fleet::{FleetConfig, FleetService, RunReport};
use xt_workloads::{EspressoLike, WorkloadInput};

/// Community size. Even users inject the overflow, odd users the dangling
/// free — two disjoint sub-populations, as in the paper's deployment story.
const USERS: u64 = 20;

/// Runs each user contributes at most.
const ROUNDS: u32 = 12;

fn main() {
    let input = WorkloadInput::with_seed(21).intensity(3);
    let workload = EspressoLike::new();

    // Two community bugs, screened to be §5-isolatable (not every
    // manifesting fault develops the canary/failure correlation the
    // Bayesian test needs — see `bench`'s `injected_dangling_cumulative`).
    let (overflow, dangling) =
        demo_faults(&workload, &input).expect("no isolatable demonstration faults found");
    println!("bug A (overflow): {overflow:?}");
    println!("bug B (dangling): {dangling:?}");

    // The aggregation service: 8 evidence shards, a fresh epoch every 16
    // reports.
    let service = FleetService::new(FleetConfig {
        shards: 8,
        publish_every: 16,
        ..FleetConfig::default()
    });

    let mut runs = 0u64;
    let mut last_verified = 0u64;
    // The simulation's one allocator stack: every user's run resets it
    // rather than building a fresh address space.
    let mut stack = ReusableStack::new();
    'fleet: for round in 0..ROUNDS {
        for user in 0..USERS {
            // Pull: adopt the newest published epoch before running.
            let epoch = service.latest();
            let fault = if user % 2 == 0 { overflow } else { dangling };
            let run = summarized_run_reusable(
                &workload,
                &input,
                Some(fault),
                epoch.patches.clone(),
                0x5EED ^ (user * 7919 + u64::from(round) * 104_729),
                service.config().isolator.fill_probability,
                2.0,
                &mut stack,
            );
            runs += 1;
            // Submit: a few hundred bytes over the wire, not a heap image.
            let report = RunReport::from_summary(user, round, &run.summary);
            let receipt = service
                .ingest(&report.encode())
                .expect("well-formed report");
            assert!(!receipt.duplicate);

            // Aggregate: epochs appear on the publish cadence; verify
            // only when a new one is minted (probes are whole workload
            // executions) and stop once one corrects both bugs.
            let epoch = service.latest();
            if epoch.number > last_verified && !epoch.patches.is_empty() {
                last_verified = epoch.number;
                if verified_corrected(&workload, &input, overflow, &epoch.patches, 4, 0xA5)
                    && verified_corrected(&workload, &input, dangling, &epoch.patches, 4, 0xB6)
                {
                    break 'fleet;
                }
            }
        }
    }

    let epoch = service.publish();
    let m = service.metrics();
    println!(
        "\nfleet: {} reports ({} failed) from {USERS} users in {runs} runs; \
         {} sites tracked across {} shards; epoch {} published",
        m.reports, m.failed_reports, m.sites_tracked, m.shards, epoch.number
    );
    println!(
        "published patch file ({} entries, {} bytes):\n{}",
        epoch.patches.len(),
        epoch.to_text().len(),
        epoch.to_text()
    );

    // Every user's bug is corrected by the published epoch.
    for (label, fault) in [("A (overflow)", overflow), ("B (dangling)", dangling)] {
        let corrected = verified_corrected(&workload, &input, fault, &epoch.patches, 4, 0xC0DE);
        println!(
            "epoch {} vs bug {label}: corrected={corrected}",
            epoch.number
        );
        assert!(
            corrected,
            "bug {label} not corrected by the published epoch"
        );
    }
    println!("=> one published epoch corrects every user's error");
}
