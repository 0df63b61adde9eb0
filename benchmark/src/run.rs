//! One workload, one process: the untraced run that reports the
//! end-to-end metrics, and the traced run that reports the per-layer
//! ones.

use std::time::{Duration, Instant};

use crate::json;
use crate::ledger::Ledger;
use crate::report::{env_line, metric_line, peak_rss_mb, result_line, Metric, END_TO_END};
use crate::spans::{trace_json, Tracer};
use crate::stats::{median, summarize, Window};
use crate::workloads::{Bench, Scale, Spec};

/// What the command line asked for.
#[derive(Clone, Debug)]
pub struct Options {
    pub seed: u64,
    /// Measured budget, seconds.
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

/// Time-based workloads measure this many windows per run, whatever
/// `--seconds` is; cycle-based ones run as many cycles as fit.
pub const WINDOWS: usize = 12;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Share of `--seconds` the traced run spends on the workload itself;
/// the ledger's probes are fixed work on top.
const TRACED_SHARE: f64 = 0.4;

fn header(spec: &Spec, opts: &Options) {
    println!(
        "# xt-benchmark workload={} seed={} seconds={} trace={}{}",
        spec.name,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        if opts.quick {
            " QUICK (numbers are meaningless)"
        } else {
            ""
        }
    );
    println!("{}", env_line(opts.seed));
    println!("load: {}", spec.load);
    println!("unit op: {}", spec.unit_op);
    println!("base op: {}", spec.base_op);
    println!("cost_ratio: {}", spec.cost_ratio);
}

/// Runs windows until `budget` is spent (at least `min_windows`).
fn measure(
    bench: &mut dyn Bench,
    budget: Duration,
    window: Duration,
    min_windows: usize,
    tracer: &mut Tracer,
    mut traced: impl FnMut(usize) -> bool,
) -> Vec<(bool, Window)> {
    let start = Instant::now();
    let mut windows = Vec::new();
    while windows.len() < min_windows || start.elapsed() < budget {
        let index = windows.len();
        let on = traced(index);
        tracer.set_enabled(on);
        windows.push((on, bench.window(index, window, tracer)));
    }
    windows
}

fn finish_report(spec: &Spec, verdict: &crate::workloads::Verdict) {
    for check in &verdict.checks {
        println!("check: {check}");
    }
    for (name, value, unit) in &verdict.details {
        println!("detail {name} = {} {unit}", json::number(*value));
    }
    println!(
        "ops: workload={} attempted={} failed={}",
        spec.name, verdict.attempted, verdict.failed
    );
}

/// Prints the metrics and the result line. A run whose numbers could
/// not be measured still prints its result (with `correct: false`) so
/// nothing it did measure is lost.
fn conclude(verdict: &crate::workloads::Verdict, metrics: &[Metric]) {
    for metric in metrics {
        println!("{}", metric_line(metric));
    }
    let measured = metrics.iter().all(|m| m.value.is_finite());
    if !measured {
        println!("error: a metric could not be measured (printed as null)");
    }
    let correct = verdict.failed == 0 && measured;
    println!(
        "{}",
        result_line(correct, verdict.attempted, verdict.failed, metrics)
    );
}

/// The untraced run: set-up (several times, for a steady `setup_s`),
/// the measured windows, the output checks, and the end-to-end metrics.
pub fn untraced(spec: &Spec, opts: &Options) {
    header(spec, opts);
    let scale = Scale { quick: opts.quick };
    let timed_setup = || {
        let start = Instant::now();
        let bench = (spec.setup)(opts.seed, scale);
        (bench, start.elapsed().as_secs_f64())
    };
    let (mut bench, first_setup_s) = timed_setup();
    let mut setup_s = vec![first_setup_s];

    let budget = Duration::from_secs_f64(opts.seconds);
    let windows = measure(
        bench.as_mut(),
        budget,
        budget / WINDOWS as u32,
        2,
        &mut Tracer::new(false),
        |_| false,
    );
    let verdict = bench.finish();
    // Read here: one set-up, the measured windows, the checks. The
    // extra set-ups below exist only to steady `setup_s`.
    let peak_rss = peak_rss_mb();
    for _ in 1..scale.pick(SETUP_REPS, 1) {
        let (extra, seconds) = timed_setup();
        setup_s.push(seconds);
        drop(extra);
    }
    let windows: Vec<Window> = windows.into_iter().map(|(_, w)| w).collect();
    let run = summarize(&windows);
    println!(
        "windows: {} (each metric is the median across the windows that measured it), \
         ~{} latency samples per window, tail = p{} with >= {} samples beyond it per window",
        run.windows,
        run.samples_per_window,
        spec.tail_pct,
        scale.min_beyond()
    );
    let per_window = |label: &str, pick: fn(&Window) -> Option<f64>| {
        let values: Vec<String> = windows
            .iter()
            .filter_map(pick)
            .map(|v| format!("{v:.4}"))
            .collect();
        println!("per window {label}: {}", values.join(" "));
    };
    per_window("ops_vs_base", |w| w.ops_vs_base);
    per_window("p50_vs_base", |w| w.p50_vs_base);
    per_window("cost_ratio", |w| w.cost_ratio);
    per_window("ops_per_s", |w| w.ops_per_s);
    per_window("op_p50_us", |w| w.p50_us);
    per_window("base_us", |w| w.base_us);
    println!(
        "setup: {} set-ups, {:?} s",
        setup_s.len(),
        setup_s
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<f64>>()
    );
    finish_report(spec, &verdict);
    println!("detail peak_rss_mb = {} MB", json::number(peak_rss));
    // The raw clock readings behind the two ratios: this host's, this
    // quarter of an hour's. Compare them only between runs made back to
    // back.
    println!("detail ops_per_s = {} 1/s", json::number(run.ops_per_s));
    println!("detail op_p50_us = {} us", json::number(run.p50_us));
    println!(
        "detail op_tail_us = {} us (p{})",
        json::number(run.tail_us),
        spec.tail_pct
    );
    println!("detail base_us = {} us", json::number(run.base_us));

    let values = [
        median(&setup_s),
        run.ops_vs_base,
        run.p50_vs_base,
        run.cost_ratio,
    ];
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric::new(name, value, unit))
        .collect();
    conclude(&verdict, &metrics);
}

/// Where trace files go: `out/` beside this package's manifest.
#[must_use]
pub fn trace_path(workload: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}.json"))
}

/// The traced run: a shorter pass over the workload with the harness
/// recording spans (alternating with unrecorded windows, which prices
/// the recording), then the ledger. Reports the per-layer metrics.
pub fn traced(spec: &Spec, opts: &Options) {
    header(spec, opts);
    let scale = Scale { quick: opts.quick };
    let mut bench = (spec.setup)(opts.seed, scale);
    let mut tracer = Tracer::new(true);

    // Windows come in pairs (svc_jobs alternates its two shapes by
    // index), so tracing alternates by pair: each shape is measured
    // both ways.
    let budget = Duration::from_secs_f64(opts.seconds * TRACED_SHARE);
    let windows = measure(
        bench.as_mut(),
        budget,
        budget / 16,
        scale.pick(16, 4),
        &mut tracer,
        |index| (index / 2) % 2 == 0,
    );
    tracer.set_enabled(true);
    let verdict = bench.finish();
    let peak_rss = peak_rss_mb();
    let ops = |on: bool| {
        median(
            &windows
                .iter()
                .filter(|(traced, _)| *traced == on)
                .filter_map(|(_, w)| w.ops_per_s)
                .collect::<Vec<f64>>(),
        )
    };
    let (with, without) = (ops(true), ops(false));
    // The demoted clock readings, from the windows nothing recorded.
    let raw = |pick: fn(&Window) -> Option<f64>| {
        median(
            &windows
                .iter()
                .filter(|(traced, _)| !*traced)
                .filter_map(|(_, w)| pick(w))
                .collect::<Vec<f64>>(),
        )
    };
    let (raw_p50_us, raw_base_us) = (raw(|w| w.p50_us), raw(|w| w.base_us));
    let overhead_pct = (without - with) / without * 100.0;
    println!(
        "trace: {} windows; ops_per_s {:.1} recorded vs {:.1} unrecorded",
        windows.len(),
        with,
        without
    );
    finish_report(spec, &verdict);

    let programs = (spec.programs)();
    let (metrics, notes) = Ledger::new(opts.seed, scale, &mut tracer).run(
        &programs,
        spec.program_input,
        &[
            ("trace_overhead_pct", overhead_pct),
            ("proc.peak_rss_mb", peak_rss),
            ("work.ops_per_s", without),
            ("work.op_p50_us", raw_p50_us),
            ("work.base_us", raw_base_us),
        ],
    );
    for note in &notes {
        println!("{note}");
    }

    let path = trace_path(spec.name);
    let document = trace_json(
        &[
            ("workload", json::quote(spec.name)),
            ("seed", opts.seed.to_string()),
            ("env", json::quote(&env_line(opts.seed))),
        ],
        tracer.spans(),
    );
    match std::fs::create_dir_all(path.parent().expect("trace path has a parent"))
        .and_then(|()| std::fs::write(&path, document))
    {
        Ok(()) => println!(
            "trace: {} spans -> {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => println!("error: could not write {}: {e}", path.display()),
    }
    conclude(&verdict, &metrics);
}
