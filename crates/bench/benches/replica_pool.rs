//! Persistent replica-pool benchmarks.
//!
//! ```text
//! cargo bench -p bench --bench replica_pool
//! ```
//!
//! Two claims measured, both written to `BENCH_pool.json`:
//!
//! 1. **Batched pool vs. spawn-per-call.** A 32-input batch through one
//!    long-lived [`ReplicaPool`] (threads and arenas reused, inputs
//!    pipelined) against 32 one-shot pools (each spawning and tearing
//!    down the whole replica set). The pool's win is pure overhead
//!    removal — both run identical replica executions.
//! 2. **Early-exit streaming vote vs. full barrier.** With one replica
//!    made a deterministic straggler, the time to the streaming quorum
//!    verdict vs. the time to full completion of all replicas. The
//!    paper's voter releases output at quorum (§3.1); this measures what
//!    that buys when a replica is slow.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use bench::{bench_artifact_path, write_bench_json, BenchRecord};
use exterminator::pool::{PoolConfig, ReplicaPool, Straggler};
use xt_patch::PatchTable;
use xt_workloads::{server_session, SquidLike, WorkloadInput};

/// Inputs per batch (the acceptance case).
const BATCH: usize = 32;

/// Replicas (the paper's deployment count).
const REPLICAS: usize = 3;

/// Requests per batch input — a light per-input load, as a request-serving
/// deployment would see, so the fixed per-input costs the pool removes are
/// visible rather than drowned.
const REQUESTS: usize = 6;

/// The straggler's injected delay.
const STRAGGLE: Duration = Duration::from_millis(25);

fn session() -> Vec<WorkloadInput> {
    server_session(BATCH, REQUESTS, None)
}

fn batch_throughput(c: &mut Criterion) {
    let workload = SquidLike::new();
    let inputs = session();
    let mut group = c.benchmark_group("pool");
    group.sample_size(10);

    // Spawn-per-call baseline: a fresh replica set (threads + allocator
    // stacks + page tables) per input.
    let config = PoolConfig {
        replicas: REPLICAS,
        ..PoolConfig::default()
    };
    let spawn_per_call = |input: &WorkloadInput| {
        std::thread::scope(|scope| {
            let mut pool = ReplicaPool::scoped(scope, &workload, config.clone(), PatchTable::new());
            let out = pool.run_one(input, None).outcome;
            pool.shutdown();
            out
        })
    };
    group.bench_function("batch32_spawn_per_call", |b| {
        b.iter(|| {
            for input in &inputs {
                let out = spawn_per_call(input);
                assert!(out.vote.unanimous(), "bench inputs are clean");
            }
        });
    });

    // Persistent pool: same executions, one setup, pipelined broadcast.
    std::thread::scope(|scope| {
        let mut pool = ReplicaPool::scoped(scope, &workload, config.clone(), PatchTable::new());
        group.bench_function("batch32_pool", |b| {
            b.iter(|| {
                let outcomes = pool.run_batch(&inputs, None);
                assert!(outcomes.iter().all(|o| o.outcome.vote.unanimous()));
            });
        });
        pool.shutdown();
    });
    group.finish();
}

/// Early-exit vote: measured directly from [`VoteTiming`] (criterion
/// cannot see inside one submission), median over a handful of
/// submissions on a persistent pool with an injected straggler.
fn straggler_vote_latency() -> (f64, f64, f64) {
    let workload = SquidLike::new();
    let input = &session()[0];
    let samples = if criterion::quick_mode() { 3 } else { 9 };
    let mut verdicts = Vec::new();
    let mut fulls = Vec::new();
    let mut outstanding = Vec::new();
    std::thread::scope(|scope| {
        let mut pool = ReplicaPool::scoped(
            scope,
            &workload,
            PoolConfig {
                replicas: REPLICAS,
                straggler: Some(Straggler {
                    replica: REPLICAS - 1,
                    delay: STRAGGLE,
                }),
                ..PoolConfig::default()
            },
            PatchTable::new(),
        );
        for _ in 0..samples {
            let out = pool.run_one(input, None);
            assert!(out.outcome.vote.unanimous());
            verdicts.push(out.timing.verdict_latency.as_nanos() as f64);
            fulls.push(out.timing.full_latency.as_nanos() as f64);
            outstanding.push(out.timing.outstanding_at_verdict as f64);
        }
        pool.shutdown();
    });
    let median = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        v[v.len() / 2]
    };
    (
        median(&mut verdicts),
        median(&mut fulls),
        median(&mut outstanding),
    )
}

fn emit_json(c: &mut Criterion) {
    let find = |id: &str| c.results().iter().find(|r| r.id == id).map(|r| r.min_ns);
    let mut records = Vec::new();

    let spawn = find("pool/batch32_spawn_per_call");
    let pooled = find("pool/batch32_pool");
    if let (Some(spawn), Some(pooled)) = (spawn, pooled) {
        let spawn_per_input = spawn / BATCH as f64;
        let pooled_per_input = pooled / BATCH as f64;
        let speedup = spawn_per_input / pooled_per_input;
        println!(
            "batch of {BATCH}: spawn-per-call {:.0} µs/input, pool {:.0} µs/input, speedup {speedup:.2}x",
            spawn_per_input / 1e3,
            pooled_per_input / 1e3,
        );
        records.push(BenchRecord::from_ns(
            "batch32/spawn_per_call",
            spawn_per_input,
        ));
        records.push(BenchRecord::from_ns("batch32/pool", pooled_per_input));
        // Schema-uniform speedup record: the ratio rides in ns_per_op.
        records.push(BenchRecord {
            name: "batch32/speedup_pool_vs_spawn".into(),
            ns_per_op: speedup,
            ops_per_sec: 0.0,
        });
    }

    let (verdict_ns, full_ns, outstanding) = straggler_vote_latency();
    println!(
        "straggler case: verdict after {:.2} ms, all replicas after {:.2} ms ({} outstanding at verdict)",
        verdict_ns / 1e6,
        full_ns / 1e6,
        outstanding,
    );
    records.push(BenchRecord::from_ns(
        "straggler/verdict_latency",
        verdict_ns,
    ));
    records.push(BenchRecord::from_ns("straggler/full_latency", full_ns));
    records.push(BenchRecord {
        name: "straggler/outstanding_at_verdict".into(),
        ns_per_op: outstanding,
        ops_per_sec: 0.0,
    });
    records.push(BenchRecord {
        name: "straggler/verdict_before_completion".into(),
        ns_per_op: f64::from(u8::from(verdict_ns < full_ns && outstanding >= 1.0)),
        ops_per_sec: 0.0,
    });

    let path = bench_artifact_path("BENCH_pool.json");
    write_bench_json(&path, "replica_pool", &records).expect("write BENCH_pool.json");
    println!("wrote {}", path.display());
}

criterion_group!(benches, batch_throughput, emit_json);
criterion_main!(benches);
