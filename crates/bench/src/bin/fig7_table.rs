//! Figure 7: runtime overhead of Exterminator, normalized to the
//! GNU-libc-style baseline allocator — and where that overhead sits.
//!
//! ```text
//! cargo run -p bench --release --bin fig7_table
//! ```
//!
//! Paper result: overhead from ~0% (186.crafty) to 132% (cfrac), geometric
//! mean 25.1%; allocation-intensive suite geomean 81.2%, SPECint2000
//! geomean 7.2%. The absolute numbers here come from a simulated address
//! space, but the *shape* — who pays, by roughly what factor — is the
//! reproduction target.
//!
//! The second table decomposes the same runs by mechanism: each column adds
//! one thing to the stack on its left (randomized placement → DieFast's
//! bookkeeping → zero-fill → canaries → the correcting wrapper), so the
//! difference between neighbouring columns is what that mechanism costs.

use std::time::Instant;

use xt_alloc::Heap;
use xt_baseline::BaselineHeap;
use xt_correct::CorrectingHeap;
use xt_diefast::{DieFastConfig, DieFastHeap};
use xt_diehard::{DieHardConfig, DieHardHeap};
use xt_patch::PatchTable;
use xt_workloads::{alloc_intensive_suite, spec_suite, RunResult, Workload, WorkloadInput};

/// Geometric mean of positive values.
fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Runs `workload` once over `heap`; a run that does not complete is a
/// harness bug, not a measurement.
fn run_on(workload: &dyn Workload, input: &WorkloadInput, mut heap: impl Heap) -> RunResult {
    let result = workload.run(&mut heap, input);
    assert!(
        result.completed(),
        "{} crashed: {:?}",
        workload.name(),
        result.outcome
    );
    result
}

/// Runs `workload` once over the Fig. 7 *baseline*: the Lea-style libc
/// stand-in.
fn run_on_baseline(workload: &dyn Workload, input: &WorkloadInput, seed: u64) -> RunResult {
    run_on(workload, input, BaselineHeap::with_seed(seed))
}

/// Runs `workload` once over the Fig. 7 *Exterminator* stack: DieFast plus
/// the correcting allocator, in the non-replicated configuration the paper
/// measures ("DieFast plus the correcting allocator", §7.1).
fn run_on_exterminator(workload: &dyn Workload, input: &WorkloadInput, seed: u64) -> RunResult {
    let diefast = DieFastHeap::new(DieFastConfig::with_seed(seed));
    run_on(
        workload,
        input,
        CorrectingHeap::new(diefast, PatchTable::new()),
    )
}

/// Prints a Markdown-ish table row.
fn row(cols: &[String]) {
    println!("| {} |", cols.join(" | "));
}

/// Formats a ratio like Fig. 7's normalized execution time.
fn fmt_ratio(r: f64) -> String {
    format!("{r:.2}x")
}

/// The ladder of stacks between the baseline and the full Exterminator
/// configuration, in the order the decomposition table prints them. The
/// last rung is [`run_on_exterminator`]'s stack.
const STACKS: [&str; 5] = [
    "DieHard",
    "DieFast p=0",
    "+ zero-fill",
    "p=1 canaries",
    "Correcting",
];

fn secs<R>(f: impl FnOnce() -> R) -> f64 {
    let t = Instant::now();
    let result = f();
    let elapsed = t.elapsed().as_secs_f64();
    drop(result);
    elapsed
}

/// One paired sample: the baseline and every stack back to back, so
/// machine-wide noise (frequency scaling, background work) hits all
/// sides equally and cancels in the ratios. Returns baseline seconds and
/// each stack's seconds in [`STACKS`] order.
fn paired_sample(w: &dyn Workload, input: &WorkloadInput, round: u64) -> (f64, [f64; 5]) {
    let seed = 2 + round;
    let diefast = |p: f64, zero: bool| {
        DieFastHeap::new(
            DieFastConfig::with_seed(seed)
                .fill_probability(p)
                .zero_fill(zero),
        )
    };
    let base = secs(|| run_on_baseline(w, input, 1 + round));
    let stacks = [
        secs(|| run_on(w, input, DieHardHeap::new(DieHardConfig::with_seed(seed)))),
        secs(|| run_on(w, input, diefast(0.0, false))),
        secs(|| run_on(w, input, diefast(0.0, true))),
        secs(|| run_on(w, input, diefast(1.0, true))),
        secs(|| run_on_exterminator(w, input, seed)),
    ];
    (base, stacks)
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    values[values.len() / 2]
}

/// One program's row: median baseline and Exterminator seconds, and per
/// stack the median of the per-pair (stack s ÷ baseline s).
struct ProgramRow {
    suite: &'static str,
    name: &'static str,
    base_s: f64,
    ext_s: f64,
    ratios: [f64; 5],
}

fn measure(suite: &'static str, w: &dyn Workload, input: &WorkloadInput, runs: u64) -> ProgramRow {
    let samples: Vec<(f64, [f64; 5])> = (0..runs)
        .map(|round| paired_sample(w, input, round))
        .collect();
    ProgramRow {
        suite,
        name: w.name(),
        base_s: median(samples.iter().map(|s| s.0).collect()),
        ext_s: median(samples.iter().map(|s| s.1[4]).collect()),
        ratios: std::array::from_fn(|i| median(samples.iter().map(|s| s.1[i] / s.0).collect())),
    }
}

fn main() {
    let runs = 31;
    let input = WorkloadInput::with_seed(4).intensity(8);
    let suites = [
        ("alloc-intensive", alloc_intensive_suite(), "1.81x"),
        ("SPECint2000-like", spec_suite(), "1.07x"),
    ];
    let rows: Vec<ProgramRow> = suites
        .iter()
        .flat_map(|(suite, programs, _)| {
            programs
                .iter()
                .map(|w| measure(suite, w.as_ref(), &input, runs))
        })
        .collect();

    println!("# Fig. 7 — normalized execution time (baseline = 1.00x)\n");
    row(&[
        "suite".into(),
        "benchmark".into(),
        "baseline s".into(),
        "exterminator s".into(),
        "normalized".into(),
    ]);
    row(&vec!["---".to_string(); 5]);
    for r in &rows {
        row(&[
            r.suite.into(),
            r.name.into(),
            format!("{:.4}", r.base_s),
            format!("{:.4}", r.ext_s),
            fmt_ratio(r.ratios[4]),
        ]);
    }
    println!();
    let suite_geomean = |suite: &str, stack: usize| {
        let ratios: Vec<f64> = rows
            .iter()
            .filter(|r| r.suite == suite)
            .map(|r| r.ratios[stack])
            .collect();
        geomean(&ratios)
    };
    for (suite, _, paper) in &suites {
        println!(
            "geomean {suite}: {} (paper: {paper})",
            fmt_ratio(suite_geomean(suite, 4))
        );
    }
    let all: Vec<f64> = rows.iter().map(|r| r.ratios[4]).collect();
    println!(
        "geomean overall: {} (paper: 1.25x)",
        fmt_ratio(geomean(&all))
    );

    println!("\n# Where the overhead sits — each stack ÷ baseline, same runs\n");
    let header = ["suite", "benchmark"].into_iter().chain(STACKS);
    row(&header.map(String::from).collect::<Vec<_>>());
    row(&vec!["---".to_string(); 7]);
    for r in &rows {
        let cells = [r.suite.to_string(), r.name.to_string()]
            .into_iter()
            .chain(r.ratios.iter().map(|&x| fmt_ratio(x)));
        row(&cells.collect::<Vec<_>>());
    }
    for (suite, _, _) in &suites {
        let cells = [suite.to_string(), "geomean".to_string()]
            .into_iter()
            .chain((0..STACKS.len()).map(|i| fmt_ratio(suite_geomean(suite, i))));
        row(&cells.collect::<Vec<_>>());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_matches_hand_computation() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    /// Fig. 7's ratios compare equal work only if every program computes
    /// the same output on both stacks.
    #[test]
    fn both_stacks_run_the_suite() {
        let input = WorkloadInput::with_seed(5);
        let programs: Vec<_> = alloc_intensive_suite()
            .into_iter()
            .chain(spec_suite())
            .collect();
        assert_eq!(programs.len(), 16);
        for w in &programs {
            let a = run_on_baseline(w.as_ref(), &input, 1);
            let b = run_on_exterminator(w.as_ref(), &input, 2);
            assert_eq!(
                a.output,
                b.output,
                "{}: stacks disagree on output",
                w.name()
            );
        }
    }
}
