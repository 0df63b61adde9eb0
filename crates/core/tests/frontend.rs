//! Determinism and concurrency pins for the pool front-end: a sharded,
//! concurrently-fed [`PoolFrontend`] is observably the *same computation*
//! as one [`ReplicaPool`] fed the same inputs serially — the queue layer,
//! the sharding, and submitter interleaving can move wall-clock time,
//! never an outcome byte.

use std::sync::Mutex;

use exterminator::frontend::{FrontendConfig, PoolFrontend};
use exterminator::pool::{PoolConfig, ReplicaPool};
use exterminator::replicated::ReplicatedOutcome;
use xt_alloc::AllocTime;
use xt_faults::{FaultKind, FaultSpec};
use xt_patch::PatchTable;
use xt_workloads::{multi_client_sessions, EspressoLike, SquidLike, Workload, WorkloadInput};

/// A batch mixing clean inputs with a data-corrupting overflow, so the
/// pin covers voting, isolation, and patch generation — not just the
/// happy path. `auto_patch` stays off in these tests: with it on, patch
/// visibility is a function of completion order (true for a single pool
/// too), which is exactly the degree of freedom a byte-identity pin must
/// exclude.
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

fn pool_config() -> PoolConfig {
    PoolConfig {
        replicas: 3,
        auto_patch: false,
        ..PoolConfig::default()
    }
}

/// The single-pool reference: the same inputs, serially, seed index =
/// submission index — exactly what the front-end's global sequence
/// reproduces.
fn serial_reference(
    workload: &(dyn Workload + Sync),
    inputs: &[WorkloadInput],
    fault: Option<FaultSpec>,
) -> Vec<ReplicatedOutcome> {
    std::thread::scope(|scope| {
        let mut pool = ReplicaPool::scoped(scope, workload, pool_config(), PatchTable::new());
        let outcomes = pool.run_batch(inputs, fault);
        pool.shutdown();
        outcomes.into_iter().map(|o| o.outcome).collect()
    })
}

/// Determinism pin: K pools, bounded queues —
/// byte-identical to the serial single-pool run of the same inputs.
#[test]
fn frontend_outcomes_match_a_single_pool_byte_for_byte() {
    let workload = EspressoLike::new();
    let (inputs, fault) = mixed_batch();
    let reference = serial_reference(&workload, &inputs, fault);
    let outcomes: Vec<ReplicatedOutcome> = std::thread::scope(|scope| {
        let frontend = PoolFrontend::scoped(
            scope,
            &workload,
            FrontendConfig {
                pools: 3,
                pool: pool_config(),
                // Deliberately tiny: the pin must hold through
                // backpressure stalls.
                queue_capacity: 2,
                share_isolated: false,
                ..FrontendConfig::default()
            },
            PatchTable::new(),
        );
        let outcomes = frontend
            .run_all(&inputs, fault)
            .into_iter()
            .map(|o| o.outcome)
            .collect();
        frontend.shutdown();
        outcomes
    });
    assert_eq!(outcomes.len(), reference.len());
    for (job, (a, b)) in outcomes.iter().zip(&reference).enumerate() {
        assert_eq!(
            a.replicas, b.replicas,
            "replica summaries diverged at job {job}"
        );
        assert_eq!(a, b, "outcome diverged at job {job}");
    }
}

/// The acceptance stress: N concurrent submitter threads over K pools.
/// Every outcome must be byte-identical to what one pool produces when
/// fed the same inputs serially in the front-end's arrival order — i.e.
/// concurrency decided only *arrival order*, which is real nondeterminism
/// a serial caller has too, and nothing else.
#[test]
fn concurrent_submitters_match_serial_replay_in_arrival_order() {
    let workload = SquidLike::new();
    let sessions = multi_client_sessions(4, 6, 4, None);
    let collected: Mutex<Vec<(u64, WorkloadInput, ReplicatedOutcome)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        let frontend = PoolFrontend::scoped(
            scope,
            &workload,
            FrontendConfig {
                pools: 2,
                pool: pool_config(),
                queue_capacity: 3,
                max_inflight: 2,
                share_isolated: false,
            },
            PatchTable::new(),
        );
        std::thread::scope(|clients| {
            for session in &sessions {
                let frontend = &frontend;
                let collected = &collected;
                clients.spawn(move || {
                    for input in session {
                        let ticket = frontend.submit(input, None);
                        let seq = ticket.job();
                        let outcome = ticket.wait();
                        assert_eq!(outcome.job, seq, "ticket/outcome sequence mismatch");
                        collected.lock().expect("collection lock").push((
                            seq,
                            input.clone(),
                            outcome.outcome,
                        ));
                    }
                });
            }
        });
        let stats = frontend.stats();
        assert_eq!(stats.submitted, 24);
        assert_eq!(stats.completed, 24);
        assert_eq!(stats.failures, 0, "benign traffic produced failures");
        frontend.shutdown();
    });

    let mut collected = collected.into_inner().expect("collection lock");
    collected.sort_by_key(|(seq, _, _)| *seq);
    // Sequence numbers are exactly 0..N: nothing lost, nothing invented.
    for (i, (seq, _, _)) in collected.iter().enumerate() {
        assert_eq!(*seq, i as u64, "sequence numbers have gaps");
    }
    let arrival_inputs: Vec<WorkloadInput> = collected
        .iter()
        .map(|(_, input, _)| input.clone())
        .collect();
    let reference = serial_reference(&workload, &arrival_inputs, None);
    for ((seq, _, outcome), expected) in collected.iter().zip(&reference) {
        assert_eq!(
            outcome, expected,
            "job {seq} diverged from its serial replay"
        );
    }
}

/// Epoch fan-out is front-end-atomic: after `load_epoch` returns, a job
/// submitted to *any* pool runs under the epoch's table, and the epoch
/// version is a single number.
#[test]
fn epoch_fanout_reaches_every_pool() {
    let workload = EspressoLike::new();
    std::thread::scope(|scope| {
        let frontend = PoolFrontend::scoped(
            scope,
            &workload,
            FrontendConfig {
                pools: 3,
                pool: pool_config(),
                ..FrontendConfig::default()
            },
            PatchTable::new(),
        );
        let genesis = xt_patch::PatchEpoch::genesis();
        assert!(
            !frontend.load_epoch(&genesis),
            "genesis is never an advance"
        );
        let mut table = PatchTable::new();
        table.add_pad(xt_alloc::SiteHash::from_raw(0xFEED), 32);
        let epoch = genesis.succeed(&table);
        assert!(frontend.load_epoch(&epoch));
        assert!(!frontend.load_epoch(&epoch), "same epoch must not reload");
        assert_eq!(frontend.epoch(), 1);
        // Round-robin walks all 3 pools: every job's patch floor includes
        // the epoch pad, whichever pool served it.
        for seed in 0..6 {
            let out = frontend
                .submit(&WorkloadInput::with_seed(seed), None)
                .wait();
            assert!(
                out.outcome
                    .patches
                    .pad_for(xt_alloc::SiteHash::from_raw(0xFEED))
                    >= 32,
                "epoch patches missing from job {seed}'s table"
            );
        }
        frontend.shutdown();
    });
}

/// A front-end serving attack traffic heals *all* pools: patches isolated
/// by whichever pool saw the failure fan out to the siblings, so the same
/// attack is later served cleanly everywhere (`share_isolated`).
#[test]
fn isolated_patches_fan_out_to_sibling_pools() {
    let workload = SquidLike::new();
    // Client sessions with the crafted URL in every 3rd batch.
    let sessions = multi_client_sessions(3, 9, 12, Some(3));
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
                share_isolated: true,
                ..FrontendConfig::default()
            },
            PatchTable::new(),
        );
        // Interleave the clients' batches round-robin (batch-major), as a
        // server would see them.
        let mut healed_attacks = 0;
        let mut errors = 0;
        for batch in 0..sessions[0].len() {
            let outcomes: Vec<_> = sessions
                .iter()
                .map(|session| frontend.submit(&session[batch], None))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|t| t.wait())
                .collect();
            for out in outcomes {
                if out.outcome.error_observed() {
                    errors += 1;
                } else if batch % 3 == 2 && !frontend.patches().is_empty() {
                    healed_attacks += 1;
                }
            }
        }
        assert!(errors >= 1, "the seeded overflow never manifested");
        assert!(
            healed_attacks >= 1,
            "no attack batch was served cleanly after patching"
        );
        assert!(
            frontend.patches().pads().any(|(_, pad)| pad >= 6),
            "no pad large enough for the 6-byte trailer"
        );
        assert_eq!(frontend.stats().failures, errors);
        frontend.shutdown();
    });
}
