//! Determinism pins for the persistent replica pool: identical
//! seeds/config ⇒ byte-identical outcomes, so pooled arena reuse can never
//! leak state between inputs and thread scheduling can never change a
//! verdict. These are the properties every other pool consumer (the
//! differential mode tests, the fleet simulator, the benches) stands on.

use std::time::Duration;

use exterminator::pool::{PoolConfig, ReplicaPool, Straggler};
use exterminator::replicated::ReplicatedOutcome;
use exterminator::voter::output_digest;
use xt_alloc::AllocTime;
use xt_faults::{FaultKind, FaultSpec};
use xt_patch::PatchTable;
use xt_workloads::{EspressoLike, Workload, WorkloadInput};

/// A batch mixing clean inputs with a data-corrupting overflow, so the
/// determinism claim covers voting, isolation, and patch escalation — not
/// just the happy path.
fn mixed_batch() -> (Vec<WorkloadInput>, Option<FaultSpec>) {
    let inputs = (0..8).map(WorkloadInput::with_seed).collect();
    let fault = FaultSpec {
        kind: FaultKind::BufferOverflow {
            delta: 8,
            fill: 0x44,
        },
        trigger: AllocTime::from_raw(90),
    };
    (inputs, Some(fault))
}

fn run_pool_batch(
    workload: &(dyn Workload + Sync),
    config: &PoolConfig,
    inputs: &[WorkloadInput],
    fault: Option<FaultSpec>,
) -> Vec<ReplicatedOutcome> {
    std::thread::scope(|scope| {
        let mut pool = ReplicaPool::scoped(scope, workload, config.clone(), PatchTable::new());
        let outcomes = pool.run_batch(inputs, fault);
        pool.shutdown();
        outcomes.into_iter().map(|o| o.outcome).collect()
    })
}

#[test]
fn identical_pools_produce_byte_identical_outcomes() {
    let workload = EspressoLike::new();
    let (inputs, fault) = mixed_batch();
    let config = PoolConfig {
        replicas: 5,
        ..PoolConfig::default()
    };
    let first = run_pool_batch(&workload, &config, &inputs, fault);
    let second = run_pool_batch(&workload, &config, &inputs, fault);
    assert_eq!(first.len(), second.len());
    for (job, (a, b)) in first.iter().zip(&second).enumerate() {
        // Replica digests are the strongest pin: byte-identical output per
        // replica, not merely an equal vote.
        assert_eq!(
            a.replicas, b.replicas,
            "replica summaries diverged at job {job}"
        );
        assert_eq!(a.vote, b.vote, "vote diverged at job {job}");
        assert_eq!(a.patches, b.patches, "patches diverged at job {job}");
        assert_eq!(a, b, "outcome diverged at job {job}");
        // And the summaries' digests really are digests of the outputs the
        // voter saw.
        for r in &a.replicas {
            if r.output_digest == output_digest(&a.vote.winner) {
                assert_eq!(r.output_len, a.vote.winner.len());
            }
        }
    }
}

/// Scheduling noise — here an injected straggler on one replica — may move
/// wall-clock timings but must not change any outcome bit.
#[test]
fn straggler_scheduling_does_not_change_outcomes() {
    let workload = EspressoLike::new();
    let (inputs, fault) = mixed_batch();
    let smooth = PoolConfig {
        replicas: 3,
        ..PoolConfig::default()
    };
    let staggered = PoolConfig {
        replicas: 3,
        straggler: Some(Straggler {
            replica: 1,
            delay: Duration::from_millis(5),
        }),
        ..PoolConfig::default()
    };
    let a = run_pool_batch(&workload, &smooth, &inputs, fault);
    let b = run_pool_batch(&workload, &staggered, &inputs, fault);
    assert_eq!(a, b, "a slow replica changed a deterministic outcome");
}

/// Pooled reuse must not leak: an input's outcome is independent of what
/// the pool executed before it. Job seeds depend on the job index, so the
/// comparison pins the *same* job index reached via different histories —
/// a pool that ran 3 earlier inputs vs. a pool that ran 3 different
/// earlier inputs.
#[test]
fn prior_inputs_do_not_leak_into_later_outcomes() {
    let workload = EspressoLike::new();
    let probe = WorkloadInput::with_seed(99).intensity(2);
    let history_a: Vec<WorkloadInput> = (0..3).map(WorkloadInput::with_seed).collect();
    let history_b: Vec<WorkloadInput> = (10..13).map(WorkloadInput::with_seed).collect();
    let config = PoolConfig {
        replicas: 3,
        auto_patch: false, // histories must not differ in loaded patches
        ..PoolConfig::default()
    };
    let outcome_after = |history: &[WorkloadInput]| {
        std::thread::scope(|scope| {
            let mut pool = ReplicaPool::scoped(scope, &workload, config.clone(), PatchTable::new());
            for input in history {
                let _ = pool.run_one(input, None);
            }
            let out = pool.run_one(&probe, None).outcome;
            pool.shutdown();
            out
        })
    };
    assert_eq!(
        outcome_after(&history_a),
        outcome_after(&history_b),
        "earlier inputs leaked into a later job's outcome"
    );
}
