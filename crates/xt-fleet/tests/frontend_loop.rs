//! The runtime↔fleet loop closed inside one process (§6.4 end to end):
//! a replicated front-end *detects*, the bridge turns each detection into
//! cumulative-mode evidence over the ordinary wire path, the service
//! *classifies and publishes*, and epochs fan back out to every pool of
//! the front-end — which is thereby healed by patches it never isolated
//! itself.

use exterminator::frontend::{FrontendConfig, PoolFrontend};
use exterminator::pool::PoolConfig;
use xt_alloc::AllocTime;
use xt_faults::{FaultKind, FaultSpec};
use xt_fleet::simulator::verified_corrected;
use xt_fleet::{bridge, FleetConfig, FleetService};
use xt_patch::PatchTable;
use xt_workloads::{EspressoLike, WorkloadInput};

#[test]
fn frontend_failures_become_epochs_that_heal_the_frontend() {
    let workload = EspressoLike::new();
    let input = WorkloadInput::with_seed(21).intensity(3);
    // The cold-site overflow `demo_faults` finds for this input (hardcoded
    // so the test does not pay the screening search). A pad ≥ the delta
    // corrects an overflow *deterministically* — outputs go back to the
    // reference stream, so the replicated vote turns unanimous again. (A
    // dangling fault is the wrong demo here: the fleet's deferral stops
    // the crashes, but completion-based §6.3 evidence cannot grow a
    // deferral past the point where the voter still sees silent
    // divergence — exactly the error class §3.1 says only voting
    // catches.)
    let fault = FaultSpec {
        kind: FaultKind::BufferOverflow {
            delta: 20,
            fill: 0xEE,
        },
        trigger: AllocTime::from_raw(239),
    };
    let service = FleetService::new(FleetConfig {
        publish_every: 8,
        ..FleetConfig::default()
    });

    std::thread::scope(|scope| {
        // Self-patching off: if this front-end gets healed, the patches
        // can only have come back from the fleet.
        let frontend = PoolFrontend::scoped(
            scope,
            &workload,
            FrontendConfig {
                pools: 2,
                pool: PoolConfig {
                    replicas: 3,
                    auto_patch: false,
                    ..PoolConfig::default()
                },
                share_isolated: false,
                ..FrontendConfig::default()
            },
            PatchTable::new(),
        );

        let mut next_seq = 0u32;
        let mut failures_bridged = 0u32;
        let mut healed = false;
        for _round in 0..40 {
            // Fan the newest epoch out, then serve the faulty input under
            // exactly the table the sync installed.
            bridge::sync_frontend(&service, &frontend);
            let served_under = frontend.patches();
            let out = frontend.submit(&input, Some(fault)).wait();
            if out.outcome.error_observed() {
                // The runtime detected; feed the fleet through the same
                // summarized-run wire path deployed clients use.
                bridge::report_failure(
                    &service,
                    1,
                    next_seq,
                    &workload,
                    &input,
                    Some(fault),
                    &served_under,
                    8,
                    0xF1EE7,
                );
                next_seq += 8;
                failures_bridged += 1;
            } else if !served_under.is_empty()
                && verified_corrected(&workload, &input, fault, &served_under, 4, 0xF1EE7)
            {
                // This round ran cleanly under a fleet-fed table that
                // independent probes verify corrects the fault (§6.3):
                // the front-end was healed by patches it never isolated.
                healed = true;
                break;
            }
        }
        assert!(
            failures_bridged >= 1,
            "the fault never manifested in the front-end"
        );
        assert!(
            healed,
            "fleet epochs never healed the front-end (reports: {}, epoch: {}, bridged: {failures_bridged})",
            service.metrics().reports,
            service.latest().number
        );
        assert!(frontend.epoch() >= 1, "epoch never fanned out");
        assert!(
            frontend.patches().pads().any(|(_, pad)| pad >= 20),
            "overflow correction must be a pad covering the 20-byte delta"
        );
        frontend.shutdown();
    });
}
