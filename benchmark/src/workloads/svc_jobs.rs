//! `svc_jobs`: benign jobs through the wire front door, one pool of
//! three replicas. Windows alternate depth-1 (latency) and depth-8
//! (saturation) on the same two connections.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use exterminator::frontend::FrontendConfig;
use exterminator::pool::{PoolConfig, ReplicaPool};
use xt_net::{NetClient, NetConfig, NetFrontend, NetTicket};
use xt_patch::PatchTable;
use xt_workloads::{benign_request_window, SquidLike, WorkloadInput};

use super::{base_slice, Bench, Scale, Spec, Verdict};
use crate::spans::{SpanId, Tracer};
use crate::stats::{latency_summary, some_median, SeedRng, Window};

pub const CONNECTIONS: usize = 2;
const SATURATION_DEPTH: usize = 8;

pub fn spec() -> Spec {
    Spec {
        name: "svc_jobs",
        unit_op: "one benign SquidLike job of 6 requests, submit -> finalized outcome over the wire (1 pool x 3 replicas)",
        base_op: "a job of the same shape run bare on BaselineHeap, in process, in slices between \
                  the generators' slices",
        cost_ratio: "wire frames the server decoded and queued / jobs completed (a count)",
        tail_pct: 99.0,
        load: "closed loop, 2 generator threads, 2 connections over host loopback; windows \
               alternate depth 1 (one job in flight per connection) and depth 8 (eight pipelined)",
        programs: || vec![Box::new(SquidLike::new())],
        program_input: job_input,
        setup: |seed, scale| Box::new(SvcJobs::setup(seed, scale)),
    }
}

/// The pool shape for the server and for the serial replay. Determinism
/// pins exclude auto-patching: patch visibility depends on completion
/// order (the same exclusion `crates/bench/benches/load.rs` makes).
pub fn pool_config(replicas: usize) -> PoolConfig {
    PoolConfig {
        replicas,
        auto_patch: false,
        ..PoolConfig::default()
    }
}

pub fn frontend_config() -> FrontendConfig {
    FrontendConfig {
        pools: 1,
        pool: pool_config(3),
        share_isolated: false,
        ..FrontendConfig::default()
    }
}

/// Requests per job, as in the repository's own service benches
/// (`net_throughput`, `frontend_throughput`).
const REQUESTS_PER_JOB: usize = 6;

/// One benign job: six consecutive requests from a seed-chosen place in
/// the deterministic benign request stream. `WorkloadInput::with_seed`
/// alone carries no requests — `SquidLike` then allocates nothing and
/// returns in 0.3 µs — so a job with no payload would measure a service
/// that serves nothing.
pub fn job_input(inputs: &mut SeedRng) -> WorkloadInput {
    let seed = inputs.next_u64();
    WorkloadInput::with_seed(seed).payload(benign_request_window(
        (seed % 100_000) as usize,
        REQUESTS_PER_JOB,
    ))
}

/// A window alternates slices of load with slices of the reference
/// operation, a sixth as long, while the generators rest: fine enough
/// that both see the same machine, long enough that filling and
/// draining the depth-8 pipeline (~2 ms) stays a fixed ~1 % of a slice.
const WORK_SLICE: Duration = Duration::from_millis(200);

/// Global sequence numbers replayed serially after the timed windows.
const REPLAY_JOBS: u64 = 2048;

/// One job whose outcome the replay check will compare: global
/// sequence number, the input, the digest the server returned.
type Replayed = (u64, WorkloadInput, u128);

/// How long one generator thread keeps submitting.
#[derive(Clone, Copy)]
enum Limit {
    Until(Instant),
    Jobs(usize),
}

/// What one generator thread did.
#[derive(Default)]
struct Generated {
    latencies_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    replayed: Vec<Replayed>,
}

struct InFlight {
    ticket: NetTicket,
    /// The input, kept only for jobs the replay check will re-run.
    replay_input: Option<WorkloadInput>,
    submitted: Instant,
    accepted: Instant,
}

/// One connection's closed loop: keep `depth` jobs in flight, wait for
/// the oldest, submit the next.
fn generate(
    client: &NetClient,
    inputs: &mut SeedRng,
    depth: usize,
    limit: Limit,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
) -> Generated {
    let mut out = Generated::default();
    let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(depth);
    let mut submitted = 0usize;
    loop {
        while inflight.len() < depth {
            let more = match limit {
                Limit::Until(deadline) => Instant::now() < deadline,
                Limit::Jobs(jobs) => submitted < jobs,
            };
            if !more {
                break;
            }
            let input = job_input(inputs);
            let start = Instant::now();
            out.attempted += 1;
            submitted += 1;
            match client.submit(&input, None) {
                Ok(ticket) => {
                    let accepted = Instant::now();
                    inflight.push_back(InFlight {
                        replay_input: (ticket.job() < REPLAY_JOBS).then_some(input),
                        ticket,
                        submitted: start,
                        accepted,
                    });
                }
                Err(_) => out.failed += 1,
            }
        }
        let Some(job) = inflight.pop_front() else {
            break;
        };
        let seq = job.ticket.job();
        let wait_start = Instant::now();
        match job.ticket.wait() {
            Ok(outcome) => {
                let done = Instant::now();
                let span = tracer.record("svc.job", parent, seq, job.submitted, done);
                tracer.record("net.submit", Some(span), seq, job.submitted, job.accepted);
                tracer.record("net.wait", Some(span), seq, wait_start, done);
                if !outcome.unanimous {
                    out.failed += 1;
                    continue;
                }
                out.latencies_us
                    .push((done - job.submitted).as_secs_f64() * 1e6);
                if let Some(input) = job.replay_input {
                    out.replayed.push((seq, input, outcome.digest));
                }
            }
            Err(_) => out.failed += 1,
        }
    }
    out
}

struct SvcJobs {
    server: Option<NetFrontend>,
    clients: Vec<NetClient>,
    inputs: Vec<SeedRng>,
    /// Job inputs and heap seeds of the reference slices.
    base_seeds: SeedRng,
    /// The server's frame counters as of the last window's end.
    frames_seen: u64,
    scale: Scale,
    replayed: Vec<Replayed>,
    verdict: Verdict,
}

impl SvcJobs {
    fn setup(seed: u64, scale: Scale) -> Self {
        let server = NetFrontend::bind(
            SquidLike::new(),
            "127.0.0.1:0",
            NetConfig {
                frontend: frontend_config(),
                ..NetConfig::default()
            },
        )
        .expect("bind a loopback port");
        let clients = (0..CONNECTIONS)
            .map(|_| NetClient::connect(server.local_addr()).expect("connect over loopback"))
            .collect();
        let mut bench = SvcJobs {
            server: Some(server),
            clients,
            inputs: (0..CONNECTIONS)
                .map(|c| SeedRng::new(seed, 0x10B5 + c as u64))
                .collect(),
            base_seeds: SeedRng::new(seed, 0xBA5E),
            frames_seen: 0,
            scale,
            replayed: Vec::new(),
            verdict: Verdict::default(),
        };
        // Fixed warm-up in both shapes: caches fill, worker threads and
        // arenas reach steady state, and `setup_s` times work, not a timer.
        let mut off = Tracer::new(false);
        let jobs = scale.pick(1000, 16);
        bench.drive(SATURATION_DEPTH, Limit::Jobs(jobs), &mut off, None);
        bench.drive(1, Limit::Jobs(jobs / 4), &mut off, None);
        bench.wire_frames_since_last();
        bench
    }

    /// Runs both generator threads to their limit; returns their pooled
    /// latencies and the wall time from first submit to last outcome.
    fn drive(
        &mut self,
        depth: usize,
        limit: Limit,
        tracer: &mut Tracer,
        parent: Option<SpanId>,
    ) -> (Vec<f64>, f64) {
        let start = Instant::now();
        let mut forks: Vec<Tracer> = self.clients.iter().map(|_| tracer.fork()).collect();
        let generated: Vec<Generated> = std::thread::scope(|scope| {
            let threads: Vec<_> = self
                .clients
                .iter()
                .zip(self.inputs.iter_mut())
                .zip(forks.iter_mut())
                .map(|((client, inputs), fork)| {
                    scope.spawn(move || generate(client, inputs, depth, limit, fork, parent))
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("generator thread panicked"))
                .collect()
        });
        let elapsed = start.elapsed().as_secs_f64();
        for fork in forks {
            tracer.absorb(fork);
        }
        let mut latencies = Vec::new();
        for g in generated {
            self.verdict.attempted += g.attempted;
            self.verdict.failed += g.failed;
            self.replayed.extend(g.replayed);
            latencies.extend(g.latencies_us);
        }
        (latencies, elapsed)
    }

    /// Frames the server has decoded and queued since the last call,
    /// from its own `net/frames_in` + `net/frames_out` counters.
    fn wire_frames_since_last(&mut self) -> Option<u64> {
        self.verdict.attempted += 1;
        let Ok(snapshot) = self.clients[0].pull_metrics() else {
            self.verdict.failed += 1;
            return None;
        };
        let total = snapshot.counter("net/frames_in")? + snapshot.counter("net/frames_out")?;
        let since = total - self.frames_seen;
        self.frames_seen = total;
        Some(since)
    }
}

impl Bench for SvcJobs {
    fn window(&mut self, index: usize, len: Duration, tracer: &mut Tracer) -> Window {
        let depth = if index.is_multiple_of(2) {
            1
        } else {
            SATURATION_DEPTH
        };
        let span = tracer.open(
            if depth == 1 {
                "svc.window_depth1"
            } else {
                "svc.window_depth8"
            },
            None,
            index as u64,
        );
        let deadline = Instant::now() + len;
        let work = WORK_SLICE.min(len);
        let (mut latencies, mut work_s, mut base_us) = (Vec::new(), 0.0, Vec::new());
        let program = SquidLike::new();
        loop {
            let (slice, elapsed) = self.drive(
                depth,
                Limit::Until(Instant::now() + work),
                tracer,
                Some(span),
            );
            latencies.extend(slice);
            work_s += elapsed;
            let start = Instant::now();
            base_slice(
                &program,
                job_input,
                &mut self.base_seeds,
                work / 6,
                &mut base_us,
                &mut self.verdict,
            );
            let end = Instant::now();
            tracer.record("base.slice", Some(span), index as u64, start, end);
            if end >= deadline {
                break;
            }
        }
        // One liveness probe per connection per window: wire + poller +
        // worker with no pool behind it, so the trace carries the
        // shared-layer reading this workload has in common with
        // `fleet_reports`.
        for client in &self.clients {
            let start = Instant::now();
            self.verdict.attempted += 1;
            if client.pull_health().is_err() {
                self.verdict.failed += 1;
            }
            tracer.record(
                "net.health",
                Some(span),
                index as u64,
                start,
                Instant::now(),
            );
        }
        tracer.close(span);

        let completed = latencies.len();
        // A count, not a timing: it repeats to the fourth digit (the
        // window's own probes add a handful of frames to ~10^4 jobs).
        let cost_ratio = self
            .wire_frames_since_last()
            .filter(|_| completed > 0)
            .map(|frames| frames as f64 / completed as f64);
        if depth == 1 {
            let (p50, tail) = latency_summary(&mut latencies, 99.0, self.scale.min_beyond());
            Window {
                p50_us: p50,
                tail_us: tail,
                cost_ratio,
                samples: completed,
                ..Window::default()
            }
        } else {
            Window {
                ops_per_s: Some(completed as f64 / work_s),
                cost_ratio,
                ..Window::default()
            }
        }
        .against_base(some_median(&base_us))
    }

    fn finish(mut self: Box<Self>) -> Verdict {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let mut verdict = std::mem::take(&mut self.verdict);
        verdict.checks.push(format!(
            "every outcome unanimous, no NetError: {} of {} operations",
            verdict.attempted - verdict.failed,
            verdict.attempted
        ));

        // The determinism pin, bounded: the first sequence numbers,
        // replayed through a serial in-process pool, must give the
        // digests the server returned — the wire decides arrival order
        // and nothing else.
        self.replayed.sort_unstable_by_key(|&(seq, _, _)| seq);
        let contiguous = self
            .replayed
            .iter()
            .zip(0u64..)
            .take_while(|((seq, _, _), expect)| seq == expect)
            .count();
        let workload = SquidLike::new();
        let mismatches = std::thread::scope(|scope| {
            let mut pool = ReplicaPool::scoped(scope, &workload, pool_config(3), PatchTable::new());
            let mismatches = self.replayed[..contiguous]
                .iter()
                .filter(|(_, input, digest)| {
                    pool.run_one(input, None).deterministic_digest() != *digest
                })
                .count();
            pool.shutdown();
            mismatches
        });
        // A job missing from the first sequence numbers already counted
        // as a failed operation; it also ends the replayable prefix.
        let missing = self.replayed.len() - contiguous;
        verdict.attempted += contiguous as u64;
        verdict.failed += (mismatches + missing) as u64;
        verdict.checks.push(format!(
            "serial replay of sequence numbers 0..{contiguous}: {mismatches} digest mismatches, \
             {missing} outside the contiguous prefix"
        ));
        verdict
    }
}
