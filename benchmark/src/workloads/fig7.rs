//! `fig7_alloc` and `fig7_spec`: Fig. 7's paired comparison of the
//! Exterminator stack against the Lea-style baseline, over the
//! allocation-intensive suite and the SPECint-like suite.

use std::time::{Duration, Instant};

use xt_baseline::BaselineHeap;
use xt_workloads::{alloc_intensive_suite, spec_suite, Workload, WorkloadInput};

use super::{Bench, Scale, Spec, Verdict};
use crate::heaps::exterminator_stack;
use crate::spans::Tracer;
use crate::stats::{geomean, latency_summary, median, SeedRng, Window};

const LOAD: &str = "closed loop, 1 thread, in-process; every program runs back to back on both \
                    stacks each round, heap seeds rotating";

const BASE_OP: &str = "the same program and input on BaselineHeap, back to back with each run";

pub fn alloc_spec() -> Spec {
    Spec {
        name: "fig7_alloc",
        unit_op: "one program run on the Exterminator stack (alloc-intensive suite, intensity 8)",
        base_op: BASE_OP,
        cost_ratio: "geomean over programs of median paired (Exterminator s / baseline s) — Fig. 7",
        tail_pct: 95.0,
        load: LOAD,
        programs: alloc_intensive_suite,
        program_input,
        setup: |seed, scale| Box::new(Fig7::setup(alloc_intensive_suite(), 95.0, seed, scale)),
    }
}

pub fn spec_spec() -> Spec {
    Spec {
        name: "fig7_spec",
        unit_op: "one program run on the Exterminator stack (SPECint-like suite, intensity 8)",
        base_op: BASE_OP,
        cost_ratio: "geomean over programs of median paired (Exterminator s / baseline s) — Fig. 7",
        tail_pct: 90.0,
        load: LOAD,
        programs: spec_suite,
        program_input,
        setup: |seed, scale| Box::new(Fig7::setup(spec_suite(), 90.0, seed, scale)),
    }
}

/// Fig. 7's input scale (`fig7_table` uses the same intensity), with a
/// seed-derived program seed.
fn program_input(inputs: &mut SeedRng) -> WorkloadInput {
    WorkloadInput::with_seed(inputs.next_u64()).intensity(8)
}

/// Fixed warm-up, in paired runs, so `setup_s` measures work rather
/// than a timer — and enough of it (a few tenths of a second) that one
/// scheduling hiccup does not move the median set-up by a quarter.
const WARMUP_RUNS: usize = 60;

struct Fig7 {
    suite: Vec<Box<dyn Workload>>,
    input: WorkloadInput,
    heap_seeds: SeedRng,
    tail_pct: f64,
    scale: Scale,
    round: u64,
    verdict: Verdict,
}

/// One program's samples within a window.
#[derive(Default)]
struct ProgramSamples {
    ratios: Vec<f64>,
    xt_us: Vec<f64>,
    base_us: Vec<f64>,
}

impl Fig7 {
    fn setup(suite: Vec<Box<dyn Workload>>, tail_pct: f64, seed: u64, scale: Scale) -> Self {
        let input = program_input(&mut SeedRng::new(seed, 0xF167));
        let mut bench = Fig7 {
            suite,
            input: if scale.quick {
                input.intensity(1)
            } else {
                input
            },
            heap_seeds: SeedRng::new(seed, 0x4EA9),
            tail_pct,
            scale,
            round: 0,
            verdict: Verdict::default(),
        };
        let mut off = Tracer::new(false);
        let mut sink: Vec<ProgramSamples> = Vec::new();
        for _ in 0..scale.pick(WARMUP_RUNS.div_ceil(bench.suite.len()), 1) {
            bench.round(&mut off, None, &mut sink);
        }
        bench.verdict = Verdict::default();
        bench
    }

    /// Runs every program once on each stack and checks the two outputs
    /// against each other.
    fn round(
        &mut self,
        tracer: &mut Tracer,
        parent: Option<crate::spans::SpanId>,
        samples: &mut Vec<ProgramSamples>,
    ) {
        samples.resize_with(self.suite.len(), ProgramSamples::default);
        for (program, slot) in self.suite.iter().zip(samples.iter_mut()) {
            let request = self.round;
            let (base_seed, xt_seed) = (self.heap_seeds.next_u64(), self.heap_seeds.next_u64());

            let start = Instant::now();
            let mut baseline = BaselineHeap::with_seed(base_seed);
            let expected = program.run(&mut baseline, &self.input);
            let mid = Instant::now();
            tracer.record("fig7.baseline_run", parent, request, start, mid);

            let xt_start = Instant::now();
            let mut stack = exterminator_stack(xt_seed);
            let got = program.run(&mut stack, &self.input);
            let end = Instant::now();
            tracer.record("fig7.xt_run", parent, request, xt_start, end);

            self.verdict.attempted += 1;
            if !expected.completed() || !got.completed() || expected.output != got.output {
                self.verdict.failed += 1;
                continue;
            }
            let base_s = (mid - start).as_secs_f64();
            let xt_s = (end - xt_start).as_secs_f64();
            slot.ratios.push(xt_s / base_s);
            slot.xt_us.push(xt_s * 1e6);
            slot.base_us.push(base_s * 1e6);
        }
        self.round += 1;
    }
}

impl Bench for Fig7 {
    fn window(&mut self, index: usize, len: Duration, tracer: &mut Tracer) -> Window {
        let span = tracer.open("fig7.window", None, index as u64);
        let deadline = Instant::now() + len;
        let mut samples: Vec<ProgramSamples> = Vec::new();
        loop {
            self.round(tracer, Some(span), &mut samples);
            if Instant::now() >= deadline {
                break;
            }
        }
        tracer.close(span);

        let measured: Vec<&ProgramSamples> =
            samples.iter().filter(|s| !s.xt_us.is_empty()).collect();
        if measured.is_empty() {
            return Window::default();
        }
        let runs: usize = measured.iter().map(|s| s.xt_us.len()).sum();
        let seconds = |times: fn(&ProgramSamples) -> &Vec<f64>| {
            measured.iter().flat_map(|s| times(s)).sum::<f64>() / 1e6
        };
        let (xt_seconds, base_seconds) = (seconds(|s| &s.xt_us), seconds(|s| &s.base_us));
        let medians: Vec<f64> = measured.iter().map(|s| median(&s.xt_us)).collect();
        let p50_us = geomean(&medians);
        let base_us = geomean(
            &measured
                .iter()
                .map(|s| median(&s.base_us))
                .collect::<Vec<f64>>(),
        );
        // Programs differ several-fold in run time, so the tail is taken
        // over each run's time relative to its own program's median and
        // scaled back to microseconds by the suite's typical run.
        let mut relative: Vec<f64> = measured
            .iter()
            .zip(&medians)
            .flat_map(|(s, m)| s.xt_us.iter().map(move |us| us / m))
            .collect();
        let (_, tail) = latency_summary(&mut relative, self.tail_pct, self.scale.min_beyond());
        // Three aggregates of one pairing: time-weighted (long programs
        // count for more), per-program medians, and per-pair ratios.
        Window {
            ops_vs_base: Some(base_seconds / xt_seconds),
            p50_vs_base: Some(p50_us / base_us),
            cost_ratio: Some(geomean(
                &measured
                    .iter()
                    .map(|s| median(&s.ratios))
                    .collect::<Vec<f64>>(),
            )),
            ops_per_s: Some(runs as f64 / xt_seconds),
            p50_us: Some(p50_us),
            tail_us: tail.map(|t| t * p50_us),
            base_us: Some(base_us),
            samples: runs,
        }
    }

    fn finish(self: Box<Self>) -> Verdict {
        let mut verdict = self.verdict;
        verdict.checks.push(format!(
            "both stacks' outputs byte-equal for {} of {} paired runs",
            verdict.attempted - verdict.failed,
            verdict.attempted
        ));
        verdict
    }
}
