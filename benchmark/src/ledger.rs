//! The per-layer ledger: every layer measured from outside, by timing
//! calls into its public functions, plus the ladder that drives the
//! same inputs up the stack one layer at a time. Nothing here feeds an
//! end-to-end metric; it runs only in the traced pass.
//!
//! `README.md` lists, for each line, the end-to-end metric and workload
//! it should move.

use std::sync::Arc;
use std::time::Instant;

use exterminator::frontend::PoolFrontend;
use exterminator::pool::ReplicaPool;
use exterminator::runner::{ReusableStack, RunConfig};
use exterminator::voter::{output_digest, StreamingVoter};
use xt_alloc::{AllocTime, Arena, Heap, SiteHash, PAGE_SIZE};
use xt_baseline::BaselineHeap;
use xt_correct::CorrectingHeap;
use xt_diefast::{DieFastConfig, DieFastHeap};
use xt_diehard::{DieHardConfig, DieHardHeap};
use xt_fleet::{
    DurabilityConfig, DurableFleet, FleetConfig, FleetService, Frame, MemStorage, RunReport,
};
use xt_image::HeapImage;
use xt_isolate::cumulative::{summarize_run, CumulativeConfig};
use xt_isolate::iterative::isolate;
use xt_isolate::EvidenceTable;
use xt_net::NetClient;
use xt_obs::Registry;
use xt_patch::{PatchEpoch, PatchTable};
use xt_workloads::{EspressoLike, SquidLike, Workload, WorkloadInput};

use crate::heaps::{
    exterminator_stack, script_patch_table, AllocScript, HeapCounts, MeteredHeap, ScriptCost,
};
use crate::report::Metric;
use crate::spans::{SpanId, Tracer};
use crate::stats::{latency_summary, median, SeedRng};
use crate::workloads::fleet_reports::{self, bind_durable};
use crate::workloads::svc_jobs::{frontend_config, job_input, pool_config};
use crate::workloads::{repair, Scale};

/// Every per-layer metric: name, unit, and which way is better — the
/// `per_layer` list of `BENCHMARK.json`, in order.
pub const PER_LAYER: [(&str, &str, &str); 77] = [
    ("trace_overhead_pct", "%", "lower"),
    ("proc.peak_rss_mb", "MB", "lower"),
    ("work.ops_per_s", "1/s", "higher"),
    ("work.op_p50_us", "us", "lower"),
    ("work.base_us", "us", "lower"),
    ("arena.rw_hit_ns", "ns", "lower"),
    ("arena.rw_miss_ns", "ns", "lower"),
    ("arena.fill_ns_per_kb", "ns", "lower"),
    ("arena.compare_ns_per_kb", "ns", "lower"),
    ("arena.reset_us", "us", "lower"),
    ("baseline.malloc_ns", "ns", "lower"),
    ("baseline.free_ns", "ns", "lower"),
    ("diehard.malloc_ns", "ns", "lower"),
    ("diehard.free_ns", "ns", "lower"),
    ("diefast.malloc_ns", "ns", "lower"),
    ("diefast.free_ns", "ns", "lower"),
    ("correct.malloc_ns", "ns", "lower"),
    ("correct.free_ns", "ns", "lower"),
    ("correct.patched_malloc_ns", "ns", "lower"),
    ("workloads.mallocs_per_run", "count", "lower"),
    ("workloads.frees_per_run", "count", "lower"),
    ("workloads.bytes_per_run", "count", "lower"),
    ("workloads.alloc_time_share", "ratio", "lower"),
    ("ladder.baseline_us", "us", "lower"),
    ("ladder.diehard_us", "us", "lower"),
    ("ladder.diefast_us", "us", "lower"),
    ("ladder.correct_us", "us", "lower"),
    ("runner.run_us", "us", "lower"),
    ("runner.finish_us", "us", "lower"),
    ("pool.r1_job_us", "us", "lower"),
    ("pool.r3_job_us", "us", "lower"),
    ("pool.batch_jobs_per_s", "1/s", "higher"),
    ("frontend.job_us", "us", "lower"),
    ("frontend.hop_us", "us", "lower"),
    ("frontend.queue_wait_p95_us", "us", "lower"),
    ("frontend.exec_p95_us", "us", "lower"),
    ("net.job_us", "us", "lower"),
    ("net.job_p99_us", "us", "lower"),
    ("net.hop_us", "us", "lower"),
    ("net.submit_ack_us", "us", "lower"),
    ("net.outcome_wait_us", "us", "lower"),
    ("net.health_rtt_us", "us", "lower"),
    ("net.connect_us", "us", "lower"),
    ("net.metrics_pull_us", "us", "lower"),
    ("net.pushes_dropped", "count", "lower"),
    ("ladder.sum_gap_pct", "%", "lower"),
    ("frame.encode_ns", "ns", "lower"),
    ("frame.parse_ns", "ns", "lower"),
    ("image.capture_full_us", "us", "lower"),
    ("image.capture_incr_us", "us", "lower"),
    ("image.encode_us", "us", "lower"),
    ("image.bytes", "count", "lower"),
    ("voter.digest_ns_per_kb", "ns", "lower"),
    ("voter.stream_vote_ns", "ns", "lower"),
    ("fleet.report_encode_ns", "ns", "lower"),
    ("fleet.ingest_ns", "ns", "lower"),
    ("fleet.wal_ingest_ns", "ns", "lower"),
    ("fleet.wal_batch32_ns", "ns", "lower"),
    ("fleet.publish_us", "us", "lower"),
    ("fleet.snapshot_us", "us", "lower"),
    ("fleet.recover_ms", "ms", "lower"),
    ("fleet.wire_ingest_us", "us", "lower"),
    ("fleet.wire_ingest_p99_us", "us", "lower"),
    ("fleet.rejected_reports", "count", "lower"),
    ("fleet.duplicates", "count", "lower"),
    ("isolate.iterative_k3_us", "us", "lower"),
    ("isolate.summarize_us", "us", "lower"),
    ("isolate.patchgen_us", "us", "lower"),
    ("cumulative.summarized_run_us", "us", "lower"),
    ("iterative.repair_p50_ms", "ms", "lower"),
    ("iterative.repair_p95_ms", "ms", "lower"),
    ("iterative.rounds_per_fix", "count", "lower"),
    ("iterative.images_per_fix", "count", "lower"),
    ("iterative.fix_rate_pct", "%", "higher"),
    ("patch.epoch_codec_us", "us", "lower"),
    ("obs.record_ns", "ns", "lower"),
    ("obs.snapshot_us", "us", "lower"),
];

/// The unit `PER_LAYER` gives `name`.
fn unit_of(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, unit, _)| *unit)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
}

/// The rungs of the ladder, bottom to top. Each is the same inputs
/// driven through one more layer than the rung below it.
pub const RUNGS: [&str; 9] = [
    "ladder.baseline",
    "ladder.diehard",
    "ladder.diefast",
    "ladder.correct",
    "ladder.runner",
    "ladder.pool_r1",
    "ladder.pool_r3",
    "ladder.frontend",
    "ladder.net",
];

/// Self time of each rung from per-input times, bottom rung first: the
/// median over inputs of (this rung − the rung below) for the same
/// input; the bottom rung's self time is its own median. Pairing by
/// input cancels what the input itself costs, so the self times are
/// not forced to add up — `gap_pct` says how far their sum lands from
/// the top rung's median.
#[must_use]
pub fn ladder_self_times(rungs: &[Vec<f64>]) -> (Vec<f64>, f64) {
    let selfs: Vec<f64> = rungs
        .iter()
        .enumerate()
        .map(|(k, times)| {
            if k == 0 {
                median(times)
            } else {
                let paired: Vec<f64> = times
                    .iter()
                    .zip(&rungs[k - 1])
                    .map(|(upper, lower)| upper - lower)
                    .collect();
                median(&paired)
            }
        })
        .collect();
    let top = rungs.last().map_or(f64::NAN, |times| median(times));
    let gap_pct = (selfs.iter().sum::<f64>() - top) / top * 100.0;
    (selfs, gap_pct)
}

/// The ledger pass.
pub struct Ledger<'a> {
    seed: u64,
    scale: Scale,
    tracer: &'a mut Tracer,
    root: SpanId,
    metrics: Vec<Metric>,
    /// Human-readable lines (the ladder table).
    pub notes: Vec<String>,
}

impl<'a> Ledger<'a> {
    pub fn new(seed: u64, scale: Scale, tracer: &'a mut Tracer) -> Self {
        let root = tracer.open("ledger", None, 0);
        Ledger {
            seed,
            scale,
            tracer,
            root,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push(Metric::new(name, value, unit_of(name)));
    }

    /// Times `f` once under a span; returns its result and nanoseconds.
    fn timed<R>(&mut self, span: &'static str, request: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.tracer
            .record(span, Some(self.root), request, start, end);
        (out, (end - start).as_nanos() as f64)
    }

    /// Median over `reps` of (time for one call of `f`) ÷ `per_call`.
    fn per_op(
        &mut self,
        span: &'static str,
        reps: usize,
        per_call: usize,
        mut f: impl FnMut(),
    ) -> f64 {
        let samples: Vec<f64> = (0..reps)
            .map(|rep| self.timed(span, rep as u64, &mut f).1 / per_call as f64)
            .collect();
        median(&samples)
    }

    fn rng(&self, stream: u64) -> SeedRng {
        SeedRng::new(self.seed, stream)
    }

    /// Runs every probe, then the ladder. `programs` are the programs
    /// of the workload being traced, for the `workloads.*` lines;
    /// `harness` are the readings the caller took from the traced
    /// workload itself, before any probe ran.
    pub fn run(
        mut self,
        programs: &[Box<dyn Workload>],
        make_input: fn(&mut SeedRng) -> WorkloadInput,
        harness: &[(&'static str, f64)],
    ) -> (Vec<Metric>, Vec<String>) {
        for &(name, value) in harness {
            self.put(name, value);
        }
        self.arena();
        self.allocators();
        self.workload_profile(programs, make_input);
        let corpus = self.fleet();
        self.ladder_and_wire(&corpus);
        self.frames();
        self.image();
        self.voter();
        self.isolation(&corpus);
        self.repairs();
        self.obs();
        self.tracer.close(self.root);
        // Report in `PER_LAYER` order, whatever order the probes ran in.
        let mut metrics = std::mem::take(&mut self.metrics);
        metrics.sort_by_key(|m| PER_LAYER.iter().position(|(n, _, _)| *n == m.name));
        (metrics, self.notes)
    }

    fn arena(&mut self) {
        const PAGES: usize = 2048;
        const BLOCK: usize = 64 * 1024;
        let mut rng = xt_alloc::Rng::new(self.seed);
        let mut arena = Arena::new();
        let base = arena.map(PAGES * PAGE_SIZE, &mut rng);
        let n = self.scale.pick(100_000, 1_000);

        // One page: every access after the first is a TLB hit.
        let hit = self.per_op("arena.rw_hit", 5, 2 * n, || {
            for i in 0..n {
                let addr = base + ((i * 4) % PAGE_SIZE) as u64;
                arena.write_u32(addr, i as u32).expect("mapped");
                std::hint::black_box(arena.read_u32(addr).expect("mapped"));
            }
        });
        self.put("arena.rw_hit_ns", hit);

        // A 257-page stride through 2048 pages: eight pages rotate
        // through each slot of the 256-entry direct-mapped TLB, so
        // every access walks the page table.
        let miss = self.per_op("arena.rw_miss", 5, 2 * n, || {
            for i in 0..n {
                let addr = base + (((i * 257) % PAGES) * PAGE_SIZE) as u64;
                arena.write_u32(addr, i as u32).expect("mapped");
                std::hint::black_box(arena.read_u32(addr).expect("mapped"));
            }
        });
        self.put("arena.rw_miss_ns", miss);

        let blocks = self.scale.pick(200, 4);
        let fill = self.per_op("arena.fill", 5, blocks * BLOCK / 1024, || {
            for _ in 0..blocks {
                arena
                    .fill_pattern_u32(base, BLOCK, 0xCAFE_F00D)
                    .expect("mapped");
            }
        });
        self.put("arena.fill_ns_per_kb", fill);
        let compare = self.per_op("arena.compare", 5, blocks * BLOCK / 1024, || {
            for _ in 0..blocks {
                std::hint::black_box(
                    arena
                        .compare_pattern(base, BLOCK, 0xCAFE_F00D)
                        .expect("mapped"),
                );
            }
        });
        self.put("arena.compare_ns_per_kb", compare);

        // Reset of an arena shaped like a small heap: 32 regions, each
        // touched.
        let resets: Vec<f64> = (0..9)
            .map(|rep| {
                let mut arena = Arena::new();
                for _ in 0..32 {
                    let region = arena.map(BLOCK, &mut rng);
                    arena.write_u32(region, 1).expect("mapped");
                }
                self.timed("arena.reset", rep, || arena.reset()).1 / 1e3
            })
            .collect();
        self.put("arena.reset_us", median(&resets));
    }

    fn allocators(&mut self) {
        let script = AllocScript::generate(self.seed, self.scale.pick(100_000, 2_000));
        let mut seeds = self.rng(0xA110);
        let mut play =
            |ledger: &mut Self, span: &'static str, make: &dyn Fn(u64) -> Box<dyn Heap>| {
                let costs: Vec<ScriptCost> = (0..3)
                    .map(|rep| {
                        let mut heap = make(seeds.next_u64());
                        ledger.timed(span, rep, || script.play(heap.as_mut())).0
                    })
                    .collect();
                (
                    median(&costs.iter().map(|c| c.malloc_ns).collect::<Vec<f64>>()),
                    median(&costs.iter().map(|c| c.free_ns).collect::<Vec<f64>>()),
                )
            };
        let (malloc, free) = play(self, "baseline.script", &|s| {
            Box::new(BaselineHeap::with_seed(s))
        });
        self.put("baseline.malloc_ns", malloc);
        self.put("baseline.free_ns", free);
        let (malloc, free) = play(self, "diehard.script", &|s| {
            Box::new(DieHardHeap::new(DieHardConfig::with_seed(s)))
        });
        self.put("diehard.malloc_ns", malloc);
        self.put("diehard.free_ns", free);
        let (malloc, free) = play(self, "diefast.script", &|s| {
            Box::new(DieFastHeap::new(DieFastConfig::with_seed(s)))
        });
        self.put("diefast.malloc_ns", malloc);
        self.put("diefast.free_ns", free);
        let (malloc, free) = play(self, "correct.script", &|s| Box::new(exterminator_stack(s)));
        self.put("correct.malloc_ns", malloc);
        self.put("correct.free_ns", free);
        let (malloc, _) = play(self, "correct.patched_script", &|s| {
            Box::new(CorrectingHeap::new(
                DieFastHeap::new(DieFastConfig::with_seed(s)),
                script_patch_table(),
            ))
        });
        self.put("correct.patched_malloc_ns", malloc);
    }

    /// What the traced workload's own programs ask of the allocator:
    /// exact counts from a counting wrapper, and the share of run time
    /// spent inside `malloc`/`free` from a timing wrapper. A high share
    /// means allocator cost × count bounds what an allocator change can
    /// win on this workload; a low share predicts no change.
    fn workload_profile(
        &mut self,
        programs: &[Box<dyn Workload>],
        make_input: fn(&mut SeedRng) -> WorkloadInput,
    ) {
        let mut seeds = self.rng(0x9A0F);
        let input = make_input(&mut seeds);
        let mut counts = HeapCounts::default();
        let (mut alloc_ns, mut run_ns) = (0.0, 0.0);
        for program in programs {
            let mut counting = MeteredHeap::counting(exterminator_stack(seeds.next_u64()));
            program.run(&mut counting, &input);
            let c = counting.counts();
            counts.mallocs += c.mallocs;
            counts.frees += c.frees;
            counts.bytes += c.bytes;
            let shares: Vec<(f64, f64)> = (0..3)
                .map(|rep| {
                    let mut timing = MeteredHeap::timing(exterminator_stack(seeds.next_u64()));
                    let (_, ns) = self.timed("workloads.timed_run", rep, || {
                        program.run(&mut timing, &input)
                    });
                    (timing.counts().alloc_ns as f64, ns)
                })
                .collect();
            alloc_ns += median(&shares.iter().map(|s| s.0).collect::<Vec<f64>>());
            run_ns += median(&shares.iter().map(|s| s.1).collect::<Vec<f64>>());
        }
        let runs = programs.len() as f64;
        self.put("workloads.mallocs_per_run", counts.mallocs as f64 / runs);
        self.put("workloads.frees_per_run", counts.frees as f64 / runs);
        self.put("workloads.bytes_per_run", counts.bytes as f64 / runs);
        self.put("workloads.alloc_time_share", alloc_ns / run_ns);
    }

    /// The fleet layer in process, on a real corpus; returns the corpus
    /// for the wire and isolation probes.
    fn fleet(&mut self) -> Vec<RunReport> {
        let input = fleet_reports::program_input();
        let overflow = repair::manifesting_faults(&input, repair::KINDS[1], self.seed, 1)[0];
        let dangling = repair::manifesting_faults(&input, repair::KINDS[3], self.seed, 1)[0];
        let (corpus, run_us) =
            fleet_reports::build_corpus([overflow, dangling], self.seed, self.scale.pick(512, 64));
        self.put("cumulative.summarized_run_us", run_us);
        let n = corpus.len();

        let encoded: Vec<Vec<u8>> = corpus.iter().map(RunReport::encode).collect();
        let encode = self.per_op("fleet.report_encode", 5, n, || {
            for report in &corpus {
                std::hint::black_box(report.encode());
            }
        });
        self.put("fleet.report_encode_ns", encode);

        // Publishing is measured on its own, so the ingest lines fold
        // evidence and nothing else.
        let config = FleetConfig {
            publish_every: 0,
            ..FleetConfig::default()
        };
        let no_snapshots = DurabilityConfig { snapshot_every: 0 };
        let mut ingest = Vec::new();
        let mut publish = Vec::new();
        for rep in 0..5 {
            let service = FleetService::new(config);
            let (_, ns) = self.timed("fleet.ingest", rep, || {
                for bytes in &encoded {
                    service.ingest(bytes).expect("self-encoded report");
                }
            });
            ingest.push(ns / n as f64);
            publish.push(self.timed("fleet.publish", rep, || service.publish()).1 / 1e3);
        }
        self.put("fleet.ingest_ns", median(&ingest));
        self.put("fleet.publish_us", median(&publish));

        let mut wal = Vec::new();
        let mut batched = Vec::new();
        let mut snapshot = Vec::new();
        for rep in 0..5 {
            let durable = DurableFleet::open(MemStorage::new(), config, no_snapshots)
                .expect("empty storage opens");
            let (_, ns) = self.timed("fleet.wal_ingest", rep, || {
                for bytes in &encoded {
                    durable.ingest(bytes).expect("memory WAL");
                }
            });
            wal.push(ns / n as f64);
            snapshot.push(
                self.timed("fleet.snapshot", rep, || {
                    durable.snapshot().expect("memory snapshot");
                })
                .1 / 1e3,
            );
            let durable = DurableFleet::open(MemStorage::new(), config, no_snapshots)
                .expect("empty storage opens");
            let (_, ns) = self.timed("fleet.wal_batch32", rep, || {
                for batch in corpus.chunks(32) {
                    durable.ingest_batch(batch).expect("memory WAL");
                }
            });
            batched.push(ns / n as f64);
        }
        self.put("fleet.wal_ingest_ns", median(&wal));
        self.put("fleet.wal_batch32_ns", median(&batched));
        self.put("fleet.snapshot_us", median(&snapshot));

        // Recovery from a WAL of 2048 records and no snapshot.
        let records = self.scale.pick(2048, 128);
        let recover: Vec<f64> = (0..3)
            .map(|rep| {
                let storage = Arc::new(MemStorage::new());
                let durable = DurableFleet::open(Arc::clone(&storage), config, no_snapshots)
                    .expect("empty storage opens");
                for (id, report) in (1_000_000u64..).zip(corpus.iter().cycle().take(records)) {
                    let mut report = report.clone();
                    report.client = id;
                    durable.ingest_report(&report).expect("memory WAL");
                }
                drop(durable);
                self.timed("fleet.recover", rep, || {
                    DurableFleet::open(Arc::clone(&storage), config, no_snapshots)
                        .expect("recovers its own WAL")
                })
                .1 / 1e6
            })
            .collect();
        self.put("fleet.recover_ms", median(&recover));
        corpus
    }

    /// The ladder (the same inputs up the stack, one layer at a time)
    /// and, on the top rung's server, the wire probes.
    fn ladder_and_wire(&mut self, corpus: &[RunReport]) {
        let n = self.scale.pick(2048, 48);
        let mut input_seeds = self.rng(0x1ADD);
        let inputs: Vec<WorkloadInput> = (0..n).map(|_| job_input(&mut input_seeds)).collect();
        let workload = SquidLike::new();
        let mut rungs: Vec<Vec<f64>> = Vec::new();

        // Rungs 1–4: the program on each allocator, bare.
        let bare = |ledger: &mut Self, span: &'static str, make: &dyn Fn(u64) -> Box<dyn Heap>| {
            let times: Vec<f64> = inputs
                .iter()
                .enumerate()
                .map(|(i, input)| {
                    ledger
                        .timed(span, i as u64, || {
                            let mut heap = make(input.seed);
                            std::hint::black_box(workload.run(heap.as_mut(), input));
                        })
                        .1
                        / 1e3
                })
                .collect();
            times
        };
        rungs.push(bare(self, RUNGS[0], &|s| {
            Box::new(BaselineHeap::with_seed(s))
        }));
        rungs.push(bare(self, RUNGS[1], &|s| {
            Box::new(DieHardHeap::new(DieHardConfig::with_seed(s)))
        }));
        rungs.push(bare(self, RUNGS[2], &|s| {
            Box::new(DieFastHeap::new(DieFastConfig::with_seed(s)))
        }));
        rungs.push(bare(self, RUNGS[3], &|s| Box::new(exterminator_stack(s))));
        for (name, times) in [
            "ladder.baseline_us",
            "ladder.diehard_us",
            "ladder.diefast_us",
            "ladder.correct_us",
        ]
        .into_iter()
        .zip(&rungs)
        {
            self.put(name, median(times));
        }

        // Rung 5: the reusable stack — recycled arena, fault-injector
        // wrapper, and the incremental image capture every pooled run pays.
        let mut stack = ReusableStack::new();
        let (mut run_us, mut finish_us) = (Vec::new(), Vec::new());
        let times: Vec<f64> = inputs
            .iter()
            .enumerate()
            .map(|(i, input)| {
                let start = Instant::now();
                let mut active = stack.start(RunConfig::with_seed(input.seed));
                active.run(&workload, input);
                let ran = Instant::now();
                std::hint::black_box(active.finish());
                let end = Instant::now();
                let span = self
                    .tracer
                    .record(RUNGS[4], Some(self.root), i as u64, start, end);
                self.tracer
                    .record("runner.run", Some(span), i as u64, start, ran);
                self.tracer
                    .record("runner.finish", Some(span), i as u64, ran, end);
                run_us.push((ran - start).as_secs_f64() * 1e6);
                finish_us.push((end - ran).as_secs_f64() * 1e6);
                (end - start).as_secs_f64() * 1e6
            })
            .collect();
        rungs.push(times);
        self.put("runner.run_us", median(&run_us));
        self.put("runner.finish_us", median(&finish_us));

        // Rungs 6–8: the pool with one and three replicas, then the
        // front-end's queue hop, all in process.
        std::thread::scope(|scope| {
            for (rung, replicas) in [(RUNGS[5], 1), (RUNGS[6], 3)] {
                let mut pool =
                    ReplicaPool::scoped(scope, &workload, pool_config(replicas), PatchTable::new());
                let times: Vec<f64> = inputs
                    .iter()
                    .enumerate()
                    .map(|(i, input)| {
                        self.timed(rung, i as u64, || {
                            std::hint::black_box(pool.run_one(input, None));
                        })
                        .1 / 1e3
                    })
                    .collect();
                rungs.push(times);
                if replicas == 3 {
                    let batch: Vec<WorkloadInput> =
                        inputs.iter().cycle().take(2 * n).cloned().collect();
                    let (_, ns) = self.timed("pool.run_batch", 0, || {
                        std::hint::black_box(pool.run_batch(&batch, None));
                    });
                    self.put("pool.batch_jobs_per_s", batch.len() as f64 / (ns / 1e9));
                }
                pool.shutdown();
            }
            let frontend =
                PoolFrontend::scoped(scope, &workload, frontend_config(), PatchTable::new());
            let times: Vec<f64> = inputs
                .iter()
                .enumerate()
                .map(|(i, input)| {
                    self.timed(RUNGS[7], i as u64, || {
                        std::hint::black_box(frontend.submit(input, None).wait());
                    })
                    .1 / 1e3
                })
                .collect();
            rungs.push(times);
            frontend.shutdown();
        });
        self.put("pool.r1_job_us", median(&rungs[5]));
        self.put("pool.r3_job_us", median(&rungs[6]));
        self.put("frontend.job_us", median(&rungs[7]));

        // Rung 9: the same jobs over the wire, one at a time. The server
        // has the `svc_jobs` front-end shape and the durable fleet
        // `fleet_reports` uses, so it also answers the wire-ingest probe.
        let server = bind_durable(SquidLike::new());
        let connects: Vec<f64> = (0..self.scale.pick(30, 3))
            .map(|rep| {
                self.timed("net.connect", rep as u64, || {
                    NetClient::connect(server.local_addr()).expect("connect over loopback")
                })
                .1 / 1e3
            })
            .collect();
        self.put("net.connect_us", median(&connects));
        let client = NetClient::connect(server.local_addr()).expect("connect over loopback");
        let (mut ack_us, mut wait_us) = (Vec::new(), Vec::new());
        let times: Vec<f64> = inputs
            .iter()
            .enumerate()
            .map(|(i, input)| {
                let start = Instant::now();
                let ticket = client.submit(input, None).expect("submit");
                let accepted = Instant::now();
                std::hint::black_box(ticket.wait().expect("outcome"));
                let end = Instant::now();
                let span = self
                    .tracer
                    .record(RUNGS[8], Some(self.root), i as u64, start, end);
                self.tracer
                    .record("net.submit", Some(span), i as u64, start, accepted);
                self.tracer
                    .record("net.wait", Some(span), i as u64, accepted, end);
                ack_us.push((accepted - start).as_secs_f64() * 1e6);
                wait_us.push((end - accepted).as_secs_f64() * 1e6);
                (end - start).as_secs_f64() * 1e6
            })
            .collect();
        rungs.push(times);
        self.put("net.submit_ack_us", median(&ack_us));
        self.put("net.outcome_wait_us", median(&wait_us));
        let mut net_sorted = rungs[8].clone();
        let (p50, p99) = latency_summary(&mut net_sorted, 99.0, self.scale.min_beyond());
        self.put("net.job_us", p50.unwrap_or(f64::NAN));
        self.put("net.job_p99_us", p99.unwrap_or(f64::NAN));

        let (selfs, gap_pct) = ladder_self_times(&rungs);
        self.put("frontend.hop_us", selfs[7]);
        self.put("net.hop_us", selfs[8]);
        self.put("ladder.sum_gap_pct", gap_pct);
        self.notes.push(format!(
            "ladder: {n} SquidLike inputs, serial; self = median over inputs of (rung - rung below)"
        ));
        for ((name, times), self_us) in RUNGS.iter().zip(&rungs).zip(&selfs) {
            self.notes.push(format!(
                "ladder {name:<16} median {:>9.2} us   self {:>9.2} us",
                median(times),
                self_us
            ));
        }
        self.notes.push(format!(
            "ladder self times sum to {:.2} us against a net job median of {:.2} us: gap {gap_pct:+.1}%{}",
            selfs.iter().sum::<f64>(),
            median(&rungs[8]),
            if gap_pct.abs() > 10.0 {
                " (OUTSIDE 10%: rungs were not measured under like conditions; re-run on a quiet box)"
            } else {
                ""
            }
        ));

        // A saturating burst, so the server's own stage histograms see
        // queueing, then the metrics pull that reads them.
        let burst: Vec<_> = inputs
            .iter()
            .cycle()
            .take(self.scale.pick(1024, 32))
            .collect();
        for chunk in burst.chunks(8) {
            let tickets: Vec<_> = chunk
                .iter()
                .map(|input| client.submit(input, None).expect("submit"))
                .collect();
            for ticket in tickets {
                ticket.wait().expect("outcome");
            }
        }
        let pulls: Vec<f64> = (0..self.scale.pick(30, 3))
            .map(|rep| {
                self.timed("net.metrics_pull", rep as u64, || {
                    client.pull_metrics().expect("metrics")
                })
                .1 / 1e3
            })
            .collect();
        self.put("net.metrics_pull_us", median(&pulls));
        let snapshot = client.pull_metrics().expect("metrics");
        let p95_us = |name: &str| {
            snapshot
                .histogram(name)
                .map_or(f64::NAN, |h| h.p95() as f64 / 1e3)
        };
        self.put("frontend.queue_wait_p95_us", p95_us("frontend/queue_wait"));
        self.put("frontend.exec_p95_us", p95_us("frontend/exec"));
        self.put(
            "net.pushes_dropped",
            snapshot.counter("net/pushes_dropped").unwrap_or(0) as f64,
        );

        let health: Vec<f64> = (0..self.scale.pick(1000, 20))
            .map(|rep| {
                self.timed("net.health", rep as u64, || {
                    client.pull_health().expect("health")
                })
                .1 / 1e3
            })
            .collect();
        self.put("net.health_rtt_us", median(&health));

        // Two passes over the corpus under distinct client ids: 1024
        // round trips, enough to leave ten beyond the p99.
        let mut wire: Vec<f64> = (0..2u64)
            .flat_map(|pass| corpus.iter().map(move |report| (pass, report)))
            .map(|(pass, report)| {
                let mut report = report.clone();
                report.client += pass << 40;
                self.timed("fleet.wire_ingest", report.client, || {
                    client.ingest_report(&report).expect("receipt")
                })
                .1 / 1e3
            })
            .collect();
        let (p50, p99) = latency_summary(&mut wire, 99.0, self.scale.min_beyond());
        self.put("fleet.wire_ingest_us", p50.unwrap_or(f64::NAN));
        self.put("fleet.wire_ingest_p99_us", p99.unwrap_or(f64::NAN));
        let fleet = server.service().metrics();
        self.put("fleet.rejected_reports", fleet.rejected_reports as f64);
        self.put("fleet.duplicates", fleet.duplicates as f64);
        drop(client);
        server.shutdown();
    }

    fn frames(&mut self) {
        let frame = Frame::new(1, vec![7u8; 150]);
        let bytes = frame.encode();
        let n = self.scale.pick(100_000, 1_000);
        let encode = self.per_op("frame.encode", 5, n, || {
            for _ in 0..n {
                std::hint::black_box(std::hint::black_box(&frame).encode());
            }
        });
        self.put("frame.encode_ns", encode);
        let parse = self.per_op("frame.parse", 5, n, || {
            for _ in 0..n {
                std::hint::black_box(
                    Frame::parse_prefix(std::hint::black_box(&bytes)).expect("own frame"),
                );
            }
        });
        self.put("frame.parse_ns", parse);
    }

    fn image(&mut self) {
        let mut heap = DieFastHeap::new(DieFastConfig::with_seed(self.seed));
        EspressoLike::new().run(&mut heap, &WorkloadInput::with_seed(self.seed).intensity(3));
        let reps = self.scale.pick(20, 3);
        let full: Vec<f64> = (0..reps)
            .map(|rep| {
                self.timed("image.capture_full", rep as u64, || {
                    HeapImage::try_capture(&heap).expect("heap is capturable")
                })
                .1 / 1e3
            })
            .collect();
        self.put("image.capture_full_us", median(&full));

        // Each incremental capture becomes the next one's base, as in the
        // reusable stack; between captures the program touches a little.
        let mut base = HeapImage::try_capture(&heap).expect("heap is capturable");
        let site = SiteHash::from_raw(0x1A6E);
        let incremental: Vec<f64> = (0..reps)
            .map(|rep| {
                for _ in 0..4 {
                    if let Ok(addr) = heap.malloc(48, site) {
                        heap.arena_mut().write_u32(addr, rep as u32).expect("live");
                    }
                }
                let (image, ns) = self.timed("image.capture_incr", rep as u64, || {
                    HeapImage::try_capture_incremental(&base, &heap).expect("heap is capturable")
                });
                base = image;
                ns / 1e3
            })
            .collect();
        self.put("image.capture_incr_us", median(&incremental));

        let encode: Vec<f64> = (0..reps)
            .map(|rep| self.timed("image.encode", rep as u64, || base.to_bytes()).1 / 1e3)
            .collect();
        self.put("image.encode_us", median(&encode));
        self.put("image.bytes", base.to_bytes().len() as f64);
    }

    fn voter(&mut self) {
        let buffer = vec![0xA5u8; 64 * 1024];
        let reps = self.scale.pick(200, 4);
        let digest = self.per_op("voter.digest", 5, reps * 64, || {
            for _ in 0..reps {
                std::hint::black_box(output_digest(std::hint::black_box(&buffer)));
            }
        });
        self.put("voter.digest_ns_per_kb", digest);

        let output = vec![0x5Au8; 256];
        let votes = self.scale.pick(20_000, 200);
        let vote = self.per_op("voter.stream_vote", 5, votes, || {
            for _ in 0..votes {
                let mut voter = StreamingVoter::new(3);
                for replica in 0..3 {
                    voter.push_chunk(replica, &output);
                    voter.finish_replica(replica);
                }
                std::hint::black_box(voter.final_vote());
            }
        });
        self.put("voter.stream_vote_ns", vote);
    }

    fn isolation(&mut self, corpus: &[RunReport]) {
        let workload = EspressoLike::new();
        let input = repair::program_input();
        let fault = repair::manifesting_faults(&input, repair::KINDS[1], self.seed, 1)[0];
        let mut seeds = self.rng(0x150A);
        let reps = self.scale.pick(20, 3);

        // Three images of the faulty program, differently randomized,
        // stopped at the same allocation time — what one iterative round
        // hands the isolator.
        let breakpoint = AllocTime::from_raw(fault.trigger.raw() + 40);
        let images: Vec<HeapImage> = (0..3)
            .map(|_| {
                let mut config = RunConfig::with_seed(seeds.next_u64());
                config.fault = Some(fault);
                config.breakpoint = Some(breakpoint);
                let mut stack = ReusableStack::new();
                let mut active = stack.start(config);
                active.run(&workload, &input);
                active.finish().image
            })
            .collect();
        let k3: Vec<f64> = (0..reps)
            .map(|rep| {
                self.timed("isolate.iterative_k3", rep as u64, || {
                    // Either answer costs the same scan; the probe times
                    // the scan, not the verdict.
                    std::hint::black_box(isolate(&images).is_ok())
                })
                .1 / 1e3
            })
            .collect();
        self.put("isolate.iterative_k3_us", median(&k3));

        // One cumulative-mode run, reduced to its per-site summary.
        let heap_seed = seeds.next_u64();
        let fill = FleetConfig::default().isolator.fill_probability;
        let mut diefast = DieFastConfig::cumulative_with_seed(heap_seed);
        diefast.fill_probability = fill;
        let mut stack = ReusableStack::new();
        let mut active = stack.start(RunConfig {
            heap_seed,
            diefast,
            patches: PatchTable::new(),
            fault: Some(fault),
            breakpoint: None,
            halt_on_signal: true,
        });
        active.run(&workload, &input);
        let record = active.finish();
        let history = record
            .history
            .as_ref()
            .expect("cumulative configuration tracks history");
        let summarize: Vec<f64> = (0..reps)
            .map(|rep| {
                self.timed("isolate.summarize", rep as u64, || {
                    summarize_run(&record.image, history, record.failed(), fill)
                })
                .1 / 1e3
            })
            .collect();
        self.put("isolate.summarize_us", median(&summarize));

        let mut evidence = EvidenceTable::new(CumulativeConfig::default());
        for report in corpus {
            evidence.record_run(&report.to_summary());
        }
        let patchgen: Vec<f64> = (0..reps)
            .map(|rep| {
                self.timed("isolate.patchgen", rep as u64, || {
                    evidence.generate_patches()
                })
                .1 / 1e3
            })
            .collect();
        self.put("isolate.patchgen_us", median(&patchgen));

        let epoch = PatchEpoch::genesis().succeed(&script_patch_table());
        let codec: Vec<f64> = (0..reps)
            .map(|rep| {
                self.timed("patch.epoch_codec", rep as u64, || {
                    PatchEpoch::from_text(&epoch.to_text()).expect("own epoch text")
                })
                .1 / 1e3
            })
            .collect();
        self.put("patch.epoch_codec_us", median(&codec));
    }

    /// Unscreened repairs: unlike the `repair` workload, which keeps
    /// only pairs that repaired during set-up, this sample shows the
    /// share of manifesting faults iterative mode fixes at all.
    fn repairs(&mut self) {
        let input = repair::program_input();
        let faults: Vec<_> = repair::KINDS
            .iter()
            .flat_map(|&kind| {
                repair::manifesting_faults(&input, kind, self.seed ^ 0xFEED, self.scale.pick(6, 1))
            })
            .collect();
        let mut base_seeds = self.rng(0x4E9A);
        let n = self.scale.pick(200, 4);
        let (mut fixes, mut images, mut rounds) = (0usize, 0usize, 0usize);
        let mut times_ms: Vec<f64> = (0..n)
            .map(|i| {
                let fault = faults[i % faults.len()];
                let (outcome, ns) = self.timed("iterative.repair", i as u64, || {
                    repair::repair_once(fault, base_seeds.next_u64())
                });
                if repair::fixed(&outcome) {
                    fixes += 1;
                    images += outcome.images_used;
                    rounds += outcome.rounds.len();
                }
                ns / 1e6
            })
            .collect();
        let (p50, p95) = latency_summary(&mut times_ms, 95.0, self.scale.min_beyond());
        self.put("iterative.repair_p50_ms", p50.unwrap_or(f64::NAN));
        self.put("iterative.repair_p95_ms", p95.unwrap_or(f64::NAN));
        self.put(
            "iterative.rounds_per_fix",
            rounds as f64 / fixes.max(1) as f64,
        );
        self.put(
            "iterative.images_per_fix",
            images as f64 / fixes.max(1) as f64,
        );
        self.put("iterative.fix_rate_pct", fixes as f64 / n as f64 * 100.0);
    }

    fn obs(&mut self) {
        let registry = Registry::new();
        let histogram = registry.histogram("probe/latency");
        let n = self.scale.pick(1_000_000, 10_000);
        let record = self.per_op("obs.record", 5, n, || {
            for i in 0..n {
                histogram.record(std::hint::black_box(i as u64 * 37));
            }
        });
        self.put("obs.record_ns", record);
        for i in 0..8 {
            registry.counter(&format!("probe/counter{i}")).add(i);
            registry.histogram(&format!("probe/stage{i}")).record(i);
        }
        let snapshots = self.scale.pick(1_000, 20);
        let snapshot = self.per_op("obs.snapshot", 5, snapshots, || {
            for _ in 0..snapshots {
                std::hint::black_box(registry.snapshot());
            }
        });
        self.put("obs.snapshot_us", snapshot / 1e3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_self_times_are_paired_differences() {
        // Three inputs; each rung adds a constant on top of an
        // input-dependent base, so paired differences recover the
        // constants exactly even though the bases differ threefold.
        let base = vec![10.0, 20.0, 30.0];
        let rung2: Vec<f64> = base.iter().map(|b| b + 5.0).collect();
        let rung3: Vec<f64> = rung2.iter().map(|b| b + 100.0).collect();
        let (selfs, gap) = ladder_self_times(&[base, rung2, rung3]);
        assert_eq!(selfs, vec![20.0, 5.0, 100.0]);
        assert!(gap.abs() < 1e-9, "gap {gap}");
    }

    #[test]
    fn a_rung_faster_than_the_one_below_has_negative_self_time() {
        // Reuse can make an upper rung cheaper (the recycled arena);
        // the ledger reports that, it does not clamp it.
        let (selfs, _) = ladder_self_times(&[vec![10.0, 12.0], vec![8.0, 9.0]]);
        assert_eq!(selfs, vec![11.0, -2.5]);
    }

    #[test]
    fn the_gap_reports_self_times_that_do_not_add_up() {
        // Rung 2's overhead lands on different inputs than the top
        // rung's median: medians of differences need not telescope.
        let (selfs, gap) = ladder_self_times(&[vec![10.0, 10.0, 10.0], vec![10.0, 10.0, 40.0]]);
        assert_eq!(selfs, vec![10.0, 0.0]);
        assert!(gap.abs() < 1e-9);
        let (_, gap) = ladder_self_times(&[vec![1.0, 2.0, 9.0], vec![9.0, 3.0, 10.0]]);
        assert!(gap.abs() > 1.0);
    }

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _, _)| *n).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        for (name, unit, better) in PER_LAYER {
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(better == "lower" || better == "higher");
        }
    }
}
