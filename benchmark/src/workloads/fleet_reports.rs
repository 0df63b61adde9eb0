//! `fleet_reports`: the wire in the other direction. Two reporter
//! connections stream real cumulative-mode run reports into a durable
//! fleet service and watch for the pushed epoch that corrects both
//! injected bugs; the replica pool behind the same server stays idle.

use std::sync::Arc;
use std::time::{Duration, Instant};

use exterminator::cumulative::summarized_run_reusable;
use exterminator::runner::ReusableStack;
use xt_faults::FaultSpec;
use xt_fleet::simulator::{demo_faults, verified_corrected};
use xt_fleet::{DurabilityConfig, FleetConfig, FleetService, MemStorage, RunReport};
use xt_net::{NetClient, NetConfig, NetDurability, NetFrontend};
use xt_patch::{PatchEpoch, PatchTable};
use xt_workloads::{EspressoLike, Workload, WorkloadInput};

use super::svc_jobs::{frontend_config, CONNECTIONS};
use super::{base_slice, Bench, Scale, Spec, Verdict};
use crate::spans::{SpanId, Tracer};
use crate::stats::{latency_summary, median, some_median, SeedRng, Window};

/// The service's default publish cadence; `cost_ratio` counts
/// reports-to-correct in these steps.
pub const PUBLISH_EVERY: u64 = 256;

pub fn spec() -> Spec {
    Spec {
        name: "fleet_reports",
        unit_op:
            "one RunReport ingested and acknowledged over the wire (WAL + group commit + fold)",
        base_op: "the reporting program (EspressoLike, the §6.4 input, no fault) run bare on \
                  BaselineHeap, a slice after each cycle's server has shut down",
        cost_ratio:
            "reports ingested when the correcting epoch published / publish step (256) — §6.4",
        tail_pct: 99.0,
        load: "closed loop, 2 reporter threads, 2 connections over host loopback, one report in \
               flight per connection; each cycle binds a fresh durable (MemStorage) server",
        programs: || vec![Box::new(EspressoLike::new())],
        program_input: |_| program_input(),
        setup: |seed, scale| Box::new(FleetReports::setup(seed, scale)),
    }
}

/// The §6.4 experiment's program input (`exp_fleet` uses the same).
/// It is fixed, not seed-derived: which faults `demo_faults` screens as
/// isolatable, and how long that screening takes (0.2–3 s), depends on
/// it. The seed drives every heap randomization, hence every report.
pub fn program_input() -> WorkloadInput {
    WorkloadInput::with_seed(21).intensity(3)
}

/// Builds `count` real reports: cumulative-mode runs of the faulty
/// program under an empty patch table, alternating the two faults,
/// each on its own seed-derived heap. Returns the reports and the
/// median microseconds one summarized run took.
pub fn build_corpus(faults: [FaultSpec; 2], seed: u64, count: usize) -> (Vec<RunReport>, f64) {
    let workload = EspressoLike::new();
    let input = program_input();
    let fill = FleetConfig::default().isolator.fill_probability;
    let mut heap_seeds = SeedRng::new(seed, 0xC0A9);
    let mut stack = ReusableStack::new();
    let mut run_us = Vec::with_capacity(count);
    let reports = (0..count)
        .map(|i| {
            let start = Instant::now();
            let run = summarized_run_reusable(
                &workload,
                &input,
                Some(faults[i % 2]),
                PatchTable::new(),
                heap_seeds.next_u64(),
                fill,
                2.0,
                &mut stack,
            );
            run_us.push(start.elapsed().as_secs_f64() * 1e6);
            RunReport::from_summary(i as u64, 0, &run.summary)
        })
        .collect();
    (reports, median(&run_us))
}

/// A fresh durable server: WAL, group commit and snapshots on the
/// ingest path, over memory so no disk noise reaches the numbers.
pub fn bind_durable<W>(workload: W) -> NetFrontend
where
    W: Workload + Send + Sync + 'static,
{
    NetFrontend::bind(
        workload,
        "127.0.0.1:0",
        NetConfig {
            frontend: frontend_config(),
            fleet: FleetConfig {
                publish_every: PUBLISH_EVERY,
                ..FleetConfig::default()
            },
            durability: Some(NetDurability {
                storage: Arc::new(MemStorage::new()),
                config: DurabilityConfig::default(),
            }),
            ..NetConfig::default()
        },
    )
    .expect("bind a loopback port")
}

/// Whether `epoch` patches every site `expected` patches.
fn covers_sites(epoch: &PatchEpoch, expected: &PatchTable) -> bool {
    expected
        .pads()
        .all(|(site, _)| epoch.patches.pad_for(site) > 0)
        && expected
            .deferrals()
            .all(|(pair, _)| epoch.patches.deferral_for(pair) > 0)
}

/// A pushed epoch as one reporter first saw it.
struct Sighting {
    /// Milliseconds since the cycle's first report was sent.
    at_ms: f64,
    epoch: PatchEpoch,
    /// Reports the service had ingested when this epoch published, if
    /// it was still the newest epoch when the reporter looked.
    reports: Option<u64>,
}

/// What one reporter — or, merged, one whole cycle — streamed.
#[derive(Default)]
struct Streamed {
    latencies_us: Vec<f64>,
    acked: u64,
    failed: u64,
    sightings: Vec<Sighting>,
}

/// One reporter: streams its share of the corpus, checking the pushed
/// epoch after every receipt.
fn stream<'a>(
    client: &NetClient,
    service: &FleetService,
    reports: impl Iterator<Item = &'a RunReport>,
    cycle_start: Instant,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
) -> Streamed {
    let mut out = Streamed::default();
    let mut newest = 0u64;
    for report in reports {
        let start = Instant::now();
        let receipt = client.ingest_report(report);
        let done = Instant::now();
        tracer.record("fleet.wire_ingest", parent, report.client, start, done);
        match receipt {
            Ok(receipt) if !receipt.duplicate => {
                out.acked += 1;
                out.latencies_us.push((done - start).as_secs_f64() * 1e6);
            }
            _ => out.failed += 1,
        }
        if let Some(epoch) = client.pushed_epoch().filter(|e| e.number > newest) {
            newest = epoch.number;
            let (latest, reports) = service.latest_with_reports();
            out.sightings.push(Sighting {
                at_ms: (done - cycle_start).as_secs_f64() * 1e3,
                reports: (latest.number == epoch.number).then_some(reports),
                epoch,
            });
        }
    }
    out
}

struct FleetReports {
    corpus: Vec<RunReport>,
    client_ids: SeedRng,
    base_seeds: SeedRng,
    /// The patch sites the verified correcting epoch covers.
    expected: Option<PatchTable>,
    scale: Scale,
    time_to_correct_ms: Vec<f64>,
    reports_to_correct: Vec<f64>,
    verdict: Verdict,
}

impl FleetReports {
    fn setup(seed: u64, scale: Scale) -> Self {
        let workload = EspressoLike::new();
        let input = program_input();
        let (overflow, dangling) = demo_faults(&workload, &input)
            .expect("the §6.4 input has an isolatable overflow and dangling fault");
        let (corpus, _) = build_corpus([overflow, dangling], seed, scale.pick(2048, 320));
        let mut bench = FleetReports {
            corpus,
            client_ids: SeedRng::new(seed, 0xC11E),
            base_seeds: SeedRng::new(seed, 0xBA5E),
            expected: None,
            scale,
            time_to_correct_ms: Vec::new(),
            reports_to_correct: Vec::new(),
            verdict: Verdict::default(),
        };
        // Warm-up cycle, and the once-per-process correctness check: the
        // first pushed epoch that verifiably corrects both faults
        // (fresh-seeded probe runs all complete) defines the patch sites
        // every measured cycle waits for.
        let (cycle, _, _) = bench.cycle(&mut Tracer::new(false), None);
        bench.expected = cycle
            .sightings
            .into_iter()
            .find(|s| {
                [overflow, dangling].iter().all(|&fault| {
                    verified_corrected(&workload, &input, fault, &s.epoch.patches, 4, seed)
                })
            })
            .map(|s| s.epoch.patches);
        bench.verdict = Verdict::default();
        bench
    }

    /// One cycle: both reporters' results merged (sightings earliest
    /// first), the seconds the streaming took, and the median reference
    /// operation after it.
    fn cycle(
        &mut self,
        tracer: &mut Tracer,
        parent: Option<SpanId>,
    ) -> (Streamed, f64, Option<f64>) {
        // Fresh client ids every cycle, so the per-client dedup windows
        // are exercised the way a growing fleet exercises them.
        let base = self.client_ids.next_u64() >> 16;
        for (i, report) in self.corpus.iter_mut().enumerate() {
            report.client = base + i as u64;
        }
        let server = bind_durable(EspressoLike::new());
        let service = Arc::clone(server.service());
        let clients: Vec<NetClient> = (0..CONNECTIONS)
            .map(|_| NetClient::connect(server.local_addr()).expect("connect over loopback"))
            .collect();
        let mut forks: Vec<Tracer> = clients.iter().map(|_| tracer.fork()).collect();
        let corpus = &self.corpus;
        let start = Instant::now();
        let streamed: Vec<Streamed> = std::thread::scope(|scope| {
            let threads: Vec<_> = clients
                .iter()
                .zip(forks.iter_mut())
                .enumerate()
                .map(|(c, (client, fork))| {
                    let service = &service;
                    let share = corpus.iter().skip(c).step_by(CONNECTIONS);
                    scope.spawn(move || stream(client, service, share, start, fork, parent))
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("reporter thread panicked"))
                .collect()
        });
        let stream_s = start.elapsed().as_secs_f64();
        for fork in forks {
            tracer.absorb(fork);
        }
        // The shared-layer reading `svc_jobs` also takes: wire + poller +
        // worker, nothing behind them.
        for client in &clients {
            let probe = Instant::now();
            self.verdict.attempted += 1;
            if client.pull_health().is_err() {
                self.verdict.failed += 1;
            }
            tracer.record("net.health", parent, base, probe, Instant::now());
        }
        drop(clients);
        server.shutdown();
        // The reference slice runs once the server's threads are gone: a
        // freshly bound server is still building its replicas' heaps on
        // the same two cores.
        let mut base_us = Vec::new();
        let slice_start = Instant::now();
        base_slice(
            &EspressoLike::new(),
            |_| program_input(),
            &mut self.base_seeds,
            Duration::from_millis(self.scale.pick(40, 2) as u64),
            &mut base_us,
            &mut self.verdict,
        );
        tracer.record("base.slice", parent, base, slice_start, Instant::now());

        let mut cycle = Streamed::default();
        for s in streamed {
            cycle.failed += s.failed;
            cycle.acked += s.acked;
            cycle.latencies_us.extend(s.latencies_us);
            cycle.sightings.extend(s.sightings);
        }
        cycle.sightings.sort_by(|a, b| a.at_ms.total_cmp(&b.at_ms));
        self.verdict.attempted += self.corpus.len() as u64;
        self.verdict.failed += cycle.failed;
        (cycle, stream_s, some_median(&base_us))
    }
}

impl Bench for FleetReports {
    fn window(&mut self, index: usize, _len: Duration, tracer: &mut Tracer) -> Window {
        let span = tracer.open("fleet.cycle", None, index as u64);
        let (mut cycle, stream_s, base_us) = self.cycle(tracer, Some(span));
        tracer.close(span);

        // The cycle's correction: the earliest sighting of an epoch that
        // covers the verified sites.
        self.verdict.attempted += 1;
        let corrected = self.expected.as_ref().and_then(|expected| {
            cycle
                .sightings
                .iter()
                .find(|s| covers_sites(&s.epoch, expected))
        });
        let cost_ratio = match corrected {
            Some(sighting) => {
                self.time_to_correct_ms.push(sighting.at_ms);
                sighting.reports.map(|reports| {
                    self.reports_to_correct.push(reports as f64);
                    reports as f64 / PUBLISH_EVERY as f64
                })
            }
            None => {
                self.verdict.failed += 1;
                None
            }
        };
        let samples = cycle.latencies_us.len();
        let (p50, tail) = latency_summary(&mut cycle.latencies_us, 99.0, self.scale.min_beyond());
        Window {
            ops_per_s: Some(cycle.acked as f64 / stream_s),
            p50_us: p50,
            tail_us: tail,
            cost_ratio,
            samples,
            ..Window::default()
        }
        .against_base(base_us)
    }

    fn finish(self: Box<Self>) -> Verdict {
        let mut verdict = self.verdict;
        verdict.attempted += 1;
        if self.expected.is_none() {
            verdict.failed += 1;
        }
        verdict.checks.push(format!(
            "correcting epoch verified against both injected faults (4 probe runs each): {}",
            self.expected.is_some()
        ));
        verdict.checks.push(format!(
            "receipts acknowledged, none duplicate or rejected, every cycle corrected: {} of {} \
             operations",
            verdict.attempted - verdict.failed,
            verdict.attempted
        ));
        verdict.details = vec![
            ("time_to_correct_ms", median(&self.time_to_correct_ms), "ms"),
            (
                "reports_to_correct",
                median(&self.reports_to_correct),
                "count",
            ),
        ];
        verdict
    }
}
