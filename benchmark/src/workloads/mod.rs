//! The five workloads. Each one is set up from `--seed`, measured in
//! windows, and checks its own outputs; `README.md` records why each was
//! chosen and which layers it exercises or bypasses.

use std::time::{Duration, Instant};

use xt_baseline::BaselineHeap;
use xt_workloads::{Workload, WorkloadInput};

use crate::spans::Tracer;
use crate::stats::{SeedRng, Window};

pub mod fig7;
pub mod fleet_reports;
pub mod repair;
pub mod svc_jobs;

/// Operations attempted and failed, plus what the output checks saw.
#[derive(Clone, Debug, Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    /// One line per output check, for the human-readable report.
    pub checks: Vec<String>,
    /// Workload-specific readings that are not contract metrics
    /// (printed as `detail` lines, never in the result object).
    pub details: Vec<(&'static str, f64, &'static str)>,
}

/// How much work set-up and checks do. `quick` exists so the self-tests
/// can drive every workload end to end in about a second; its numbers
/// mean nothing.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub quick: bool,
}

impl Scale {
    /// `full` normally, `quick` under `--quick`.
    #[must_use]
    pub fn pick(self, full: usize, quick: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Samples a window must leave beyond its tail percentile.
    #[must_use]
    pub fn min_beyond(self) -> usize {
        self.pick(crate::stats::MIN_BEYOND, 0)
    }
}

/// One slice of the reference operation: `program` run bare on a fresh
/// Lea-style `BaselineHeap`, again and again until `len` has passed (at
/// least once), each run's microseconds appended to `times_us`. The
/// workloads interleave these slices with their work, so that work and
/// reference see the same machine; an incomplete run is a failed
/// operation and contributes no time. Inputs and heap seeds both come
/// from `seeds`.
///
/// The slice runs inline on the calling thread while the workload's own
/// load rests (generators joined, or the cycle's server shut down), so
/// it is one serial operation on an otherwise idle process.
pub fn base_slice(
    program: &dyn Workload,
    input: fn(&mut SeedRng) -> WorkloadInput,
    seeds: &mut SeedRng,
    len: Duration,
    times_us: &mut Vec<f64>,
    verdict: &mut Verdict,
) {
    let deadline = Instant::now() + len;
    loop {
        let input = input(seeds);
        let start = Instant::now();
        let mut heap = BaselineHeap::with_seed(seeds.next_u64());
        let result = std::hint::black_box(program.run(&mut heap, &input));
        let end = Instant::now();
        verdict.attempted += 1;
        if result.completed() {
            times_us.push((end - start).as_secs_f64() * 1e6);
        } else {
            verdict.failed += 1;
        }
        if end >= deadline {
            break;
        }
    }
}

/// A workload after set-up: ready for its first measured window.
pub trait Bench {
    /// Runs one measured window of about `len` (cycle-based workloads
    /// run one cycle instead) and reports what it measured.
    fn window(&mut self, index: usize, len: Duration, tracer: &mut Tracer) -> Window;

    /// Runs the output checks that sit outside every window, tears the
    /// workload down, and reports the operation counts.
    fn finish(self: Box<Self>) -> Verdict;
}

/// Static description of one workload.
pub struct Spec {
    pub name: &'static str,
    /// The unit operation `ops_vs_base` and `p50_vs_base` count and time.
    pub unit_op: &'static str,
    /// The reference operation they are divided by.
    pub base_op: &'static str,
    /// What `cost_ratio` divides by what.
    pub cost_ratio: &'static str,
    /// Tail percentile printed as the `op_tail_us` detail, fixed per
    /// workload from its per-window sample count so the percentile
    /// never flips between runs.
    pub tail_pct: f64,
    /// Load shape, printed with every result.
    pub load: &'static str,
    /// The programs this workload runs, and a generator of the inputs
    /// it gives them — for the traced pass's `workloads.*` allocation
    /// profile.
    pub programs: fn() -> Vec<Box<dyn Workload>>,
    pub program_input: fn(&mut SeedRng) -> WorkloadInput,
    /// Builds the workload from the seed: inputs, fault discovery,
    /// corpus, bind and warm-up — everything `setup_s` times.
    pub setup: fn(seed: u64, scale: Scale) -> Box<dyn Bench>,
}

/// The workloads, in `BENCHMARK.json` order.
#[must_use]
pub fn specs() -> Vec<Spec> {
    vec![
        fig7::alloc_spec(),
        fig7::spec_spec(),
        svc_jobs::spec(),
        fleet_reports::spec(),
        repair::spec(),
    ]
}

#[must_use]
pub fn find(name: &str) -> Option<Spec> {
    specs().into_iter().find(|s| s.name == name)
}
