//! Integration tests for the replicated and cumulative modes of operation
//! (§3.4), spanning the full crate stack.

use exterminator::cumulative::{CumulativeMode, CumulativeModeConfig};
use exterminator::pool::{PoolConfig, ReplicaPool};
use exterminator::replicated::ReplicatedOutcome;
use exterminator::runner::find_manifesting_fault;
use exterminator::voter::vote;
use xt_faults::{FaultKind, FaultSpec};
use xt_patch::PatchTable;
use xt_workloads::{
    attack_browsing_session, benign_browsing_session, CfracLike, EspressoLike, MozillaLike,
    ProfileWorkload, Workload, WorkloadInput,
};

/// One input through a fresh pool (job 0).
fn run_once(
    workload: &(dyn Workload + Sync),
    input: &WorkloadInput,
    fault: Option<FaultSpec>,
    config: PoolConfig,
) -> ReplicatedOutcome {
    std::thread::scope(|scope| {
        let mut pool = ReplicaPool::scoped(scope, workload, config, PatchTable::new());
        let outcome = pool.run_one(input, fault).outcome;
        pool.shutdown();
        outcome
    })
}

#[test]
fn replicas_vote_unanimously_on_clean_workloads() {
    // Every workload in the suite is deterministic modulo heap layout, so
    // differently-seeded replicas must agree byte-for-byte.
    let workloads: Vec<Box<dyn Workload + Sync>> = vec![
        Box::new(EspressoLike::new()),
        Box::new(CfracLike::new()),
        Box::new(ProfileWorkload::parser_like()),
    ];
    for w in &workloads {
        let outcome = run_once(
            w.as_ref(),
            &WorkloadInput::with_seed(5),
            None,
            PoolConfig::default(),
        );
        assert!(
            outcome.vote.unanimous(),
            "{} replicas diverged on clean input",
            w.name()
        );
        assert!(!outcome.error_observed());
    }
}

#[test]
fn replicated_mode_observes_and_isolates_faults() {
    let input = WorkloadInput::with_seed(12).intensity(3);
    let fault = find_manifesting_fault(
        &EspressoLike::new(),
        &input,
        FaultKind::BufferOverflow {
            delta: 36,
            fill: 0x77,
        },
        100,
        300,
        20,
        4,
        51,
    )
    .expect("no manifesting fault");
    let outcome = run_once(
        &EspressoLike::new(),
        &input,
        Some(fault),
        PoolConfig {
            replicas: 6,
            ..PoolConfig::default()
        },
    );
    assert!(outcome.error_observed(), "six replicas all blind to fault");
    assert!(outcome.report.is_some(), "no isolation attempted");
}

#[test]
fn voter_matches_manual_plurality() {
    let outputs = vec![
        b"alpha".to_vec(),
        b"beta".to_vec(),
        b"alpha".to_vec(),
        b"alpha".to_vec(),
        b"gamma".to_vec(),
    ];
    let v = vote(&outputs);
    assert_eq!(v.winner, b"alpha");
    assert_eq!(v.agreeing, vec![0, 2, 3]);
    assert_eq!(v.dissenting, vec![1, 4]);
    assert!(v.majority());
}

#[test]
fn cumulative_mode_isolates_mozilla_idn_overflow() {
    let input = WorkloadInput::with_seed(77).payload(attack_browsing_session(2));
    let mut mode = CumulativeMode::new(CumulativeModeConfig {
        vary_input_seed: true,
        ..CumulativeModeConfig::default()
    });
    let outcome = mode.run_until_isolated(&MozillaLike::new(), &input, None, 150);
    assert!(
        outcome.isolated,
        "not isolated after {} runs / {} failures",
        outcome.runs, outcome.failures
    );
    let max_pad = outcome.patches.pads().map(|(_, p)| p).max().unwrap_or(0);
    assert!(max_pad >= 8, "pad {max_pad} below the 8-byte overflow");
    // Patched browsing stops failing: run a few more times with patches.
    let patches = outcome.patches.clone();
    let mut post_failures = 0;
    for seed in 0..6 {
        let mut config = exterminator::runner::RunConfig::with_seed(0xACE + seed);
        config.patches = patches.clone();
        config.halt_on_signal = true;
        let mut run_input = input.clone();
        run_input.seed = 9000 + seed;
        if exterminator::runner::execute(&MozillaLike::new(), &run_input, config).failed() {
            post_failures += 1;
        }
    }
    assert_eq!(post_failures, 0, "patched browser still failing");
}

#[test]
fn cumulative_mode_has_no_false_positives_on_benign_browsing() {
    let input = WorkloadInput::with_seed(88).payload(benign_browsing_session(10));
    let mut mode = CumulativeMode::new(CumulativeModeConfig {
        vary_input_seed: true,
        ..CumulativeModeConfig::default()
    });
    for _ in 0..30 {
        let digest = mode.run_once(&MozillaLike::new(), &input, None);
        assert!(!digest.failed, "benign browsing failed");
        assert!(!digest.isolated, "false positive on benign browsing");
    }
}

#[test]
fn cumulative_state_stays_small() {
    // §3.4: "The retained data is on the order of a few kilobytes per
    // execution, compared to tens or hundreds of megabytes for each heap
    // image."
    let input = WorkloadInput::with_seed(91).payload(attack_browsing_session(2));
    let mut mode = CumulativeMode::new(CumulativeModeConfig {
        vary_input_seed: true,
        ..CumulativeModeConfig::default()
    });
    for _ in 0..20 {
        mode.run_once(&MozillaLike::new(), &input, None);
    }
    let state = mode.isolator().state_bytes();
    assert!(
        state < 256 * 1024,
        "cumulative state too big: {state} bytes"
    );
    // Compare against one heap image of the same workload.
    let rec = exterminator::runner::execute(
        &MozillaLike::new(),
        &input,
        exterminator::runner::RunConfig::with_seed(1),
    );
    let image_bytes = rec.image.to_bytes().len();
    assert!(
        state < image_bytes / 4,
        "state {state} not much smaller than an image ({image_bytes})"
    );
}
