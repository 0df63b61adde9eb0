//! Shared support for the experiment harnesses and benchmarks that
//! regenerate every table and figure of the paper's evaluation (§7).
//!
//! Each experiment is a binary (`cargo run -p bench --release --bin
//! exp_*`) that prints the same rows/series the paper reports;
//! `EXPERIMENTS.md` records paper-vs-measured for each. The Criterion
//! benches (`cargo bench -p bench`) cover the timing measurements.

use std::time::Instant;

use xt_alloc::Heap;
use xt_baseline::BaselineHeap;
use xt_correct::CorrectingHeap;
use xt_diefast::{DieFastConfig, DieFastHeap};
use xt_patch::PatchTable;
use xt_workloads::{RunResult, Workload, WorkloadInput};

/// Median wall-clock seconds of `runs` executions of `f`.
pub fn median_secs(runs: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..runs.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    samples[samples.len() / 2]
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Runs `workload` once over `heap`; a run that does not complete is a
/// harness bug, not a measurement.
pub fn run_on(workload: &dyn Workload, input: &WorkloadInput, mut heap: impl Heap) -> RunResult {
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
pub fn run_on_baseline(workload: &dyn Workload, input: &WorkloadInput, seed: u64) -> RunResult {
    run_on(workload, input, BaselineHeap::with_seed(seed))
}

/// Runs `workload` once over the Fig. 7 *Exterminator* stack: DieFast plus
/// the correcting allocator, in the non-replicated configuration the paper
/// measures ("DieFast plus the correcting allocator", §7.1).
pub fn run_on_exterminator(workload: &dyn Workload, input: &WorkloadInput, seed: u64) -> RunResult {
    let diefast = DieFastHeap::new(DieFastConfig::with_seed(seed));
    run_on(
        workload,
        input,
        CorrectingHeap::new(diefast, PatchTable::new()),
    )
}

/// Prints a Markdown-ish table row.
pub fn row(cols: &[String]) {
    println!("| {} |", cols.join(" | "));
}

/// One benchmark measurement destined for a `BENCH_*.json` trajectory file.
#[derive(Clone, Debug)]
pub struct BenchRecord {
    /// Benchmark case name, e.g. `many_region_mixed/page_table`.
    pub name: String,
    /// Nanoseconds per operation (median).
    pub ns_per_op: f64,
    /// Operations per second implied by `ns_per_op`.
    pub ops_per_sec: f64,
}

impl BenchRecord {
    /// Builds a record from a median per-op time in nanoseconds.
    #[must_use]
    pub fn from_ns(name: impl Into<String>, ns_per_op: f64) -> Self {
        BenchRecord {
            name: name.into(),
            ns_per_op,
            ops_per_sec: if ns_per_op > 0.0 {
                1e9 / ns_per_op
            } else {
                0.0
            },
        }
    }
}

/// A JSON number: finite values as-is, NaN/infinities as 0 (JSON has no
/// representation for them and a `inf` token would poison the file).
fn json_num(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes benchmark records to a stable, dependency-free JSON file so
/// future PRs have a perf trajectory to compare against. Ratios of
/// interest (e.g. speedup over a baseline) can be included as extra
/// records.
///
/// # Errors
///
/// Propagates I/O errors from writing `path`.
pub fn write_bench_json(
    path: impl AsRef<std::path::Path>,
    suite: &str,
    records: &[BenchRecord],
) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"suite\": \"{}\",\n", json_str(suite)));
    out.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"ns_per_op\": {:.2}, \"ops_per_sec\": {:.0}}}{}\n",
            json_str(&r.name),
            json_num(r.ns_per_op),
            json_num(r.ops_per_sec),
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out)
}

/// Parses a trajectory file previously written by [`write_bench_json`]
/// back into its suite name and records. Returns `None` when the file
/// is missing or not in the writer's exact line shape — a hand-edited
/// file is not worth chasing; the caller starts fresh.
#[must_use]
pub fn read_bench_json(path: impl AsRef<std::path::Path>) -> Option<(String, Vec<BenchRecord>)> {
    let text = std::fs::read_to_string(path).ok()?;
    let suite = text
        .lines()
        .find_map(|l| l.trim().strip_prefix("\"suite\": \""))?
        .strip_suffix("\",")?
        .to_string();
    let mut records = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.trim().strip_prefix("{\"name\": \"") else {
            continue;
        };
        let (name, rest) = rest.split_once("\", \"ns_per_op\": ")?;
        let (ns, rest) = rest.split_once(", \"ops_per_sec\": ")?;
        let ops = rest.trim_end_matches(',').strip_suffix('}')?;
        records.push(BenchRecord {
            name: name.to_string(),
            ns_per_op: ns.parse().ok()?,
            ops_per_sec: ops.parse().ok()?,
        });
    }
    Some((suite, records))
}

/// Merges `records` into the trajectory file at `path`: existing records
/// not named by the update are preserved (and keep their order), updated
/// names are replaced in place, and new names are appended. The existing
/// suite name wins over `suite_if_new`, so two benches can share one
/// trajectory file without clobbering each other's series.
///
/// # Errors
///
/// Propagates I/O errors from writing `path`.
pub fn merge_bench_json(
    path: impl AsRef<std::path::Path>,
    suite_if_new: &str,
    records: &[BenchRecord],
) -> std::io::Result<()> {
    let path = path.as_ref();
    let (suite, mut merged) =
        read_bench_json(path).unwrap_or_else(|| (suite_if_new.to_string(), Vec::new()));
    for record in records {
        match merged.iter_mut().find(|r| r.name == record.name) {
            Some(existing) => *existing = record.clone(),
            None => merged.push(record.clone()),
        }
    }
    write_bench_json(path, &suite, &merged)
}

/// The workspace root (two levels up from this crate's manifest), where
/// `BENCH_*.json` trajectory files live.
#[must_use]
pub fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels below the workspace root")
        .to_path_buf()
}

/// Where a bench should write its `BENCH_*.json` trajectory file.
///
/// In normal runs this is the committed artifact at the workspace root.
/// Under `XT_BENCH_QUICK` (the CI smoke mode, where every measurement is
/// one iteration × two samples) the numbers are meaningless, so the write
/// is redirected to a git-ignored `BENCH_*.quick.json` sibling — the
/// smoke test still proves the bench runs end to end and produces
/// parseable output, but a quick run can never silently overwrite the
/// committed trajectory a later PR would compare against.
///
/// # Panics
///
/// Panics if `file_name` does not end in `.json` — every trajectory file
/// does, and a silent fallthrough would defeat the redirect.
#[must_use]
pub fn bench_artifact_path(file_name: &str) -> std::path::PathBuf {
    let name = if criterion::quick_mode() {
        let stem = file_name
            .strip_suffix(".json")
            .expect("bench artifacts are named BENCH_*.json");
        format!("{stem}.quick.json")
    } else {
        file_name.to_string()
    };
    workspace_root().join(name)
}

/// Formats a ratio like Fig. 7's normalized execution time.
pub fn fmt_ratio(r: f64) -> String {
    format!("{r:.2}x")
}

/// Where a throughput ramp stops scaling, and how it stopped.
///
/// The index is into the ramp handed to [`knee`]; the variant records
/// *why* scaling ended there, because a load harness that prints
/// "plateau" for an actual throughput regression hides the exact signal
/// a saturation run exists to surface.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Knee {
    /// Throughput still grew at this stage, but by under the marginal-gain
    /// threshold — the classic saturation knee.
    Plateau(usize),
    /// Throughput *fell* at this stage: past the knee and degrading
    /// (lock convoys, queue collapse), not merely flat.
    Regression(usize),
    /// The ramp never stopped scaling; the index is the throughput argmax
    /// (the last stage, unless noise reordered the tail).
    Peak(usize),
}

impl Knee {
    /// The stage index, whichever way scaling ended.
    #[must_use]
    pub fn index(&self) -> usize {
        match *self {
            Knee::Plateau(i) | Knee::Regression(i) | Knee::Peak(i) => i,
        }
    }

    /// Short label for ramp printouts.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Knee::Plateau(_) => "plateau",
            Knee::Regression(_) => "regression",
            Knee::Peak(_) => "peak",
        }
    }
}

/// Finds the knee of a throughput ramp: the first stage whose marginal
/// gain over its predecessor is under 15%, distinguishing a flat step
/// ([`Knee::Plateau`]) from an outright drop ([`Knee::Regression`]).
/// A ramp that never stops scaling reports [`Knee::Peak`] at the argmax.
///
/// Total over hostile input: non-finite throughputs (a zero-duration
/// stage divides to infinity or NaN) never participate in a comparison —
/// the marginal-gain test skips pairs with a non-finite side, and the
/// argmax ranks by [`f64::total_cmp`] over finite stages only, falling
/// back to index 0 when nothing is finite. An empty ramp is `Peak(0)`.
#[must_use]
pub fn knee(throughputs: &[f64]) -> Knee {
    for i in 1..throughputs.len() {
        let (prev, cur) = (throughputs[i - 1], throughputs[i]);
        if !prev.is_finite() || !cur.is_finite() {
            continue;
        }
        if cur < prev {
            return Knee::Regression(i);
        }
        if cur < prev * 1.15 {
            return Knee::Plateau(i);
        }
    }
    let peak = throughputs
        .iter()
        .enumerate()
        .filter(|(_, t)| t.is_finite())
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(i, _)| i);
    Knee::Peak(peak)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xt_workloads::EspressoLike;

    #[test]
    fn geomean_matches_hand_computation() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn both_stacks_run_the_suite() {
        let input = WorkloadInput::with_seed(5);
        let a = run_on_baseline(&EspressoLike::new(), &input, 1);
        let b = run_on_exterminator(&EspressoLike::new(), &input, 2);
        assert_eq!(a.output, b.output, "stacks disagree on output");
    }

    #[test]
    fn knee_of_monotone_ramp_is_the_peak() {
        // Every step gains >15%: the ramp never saturates.
        assert_eq!(knee(&[100.0, 200.0, 400.0, 800.0]), Knee::Peak(3));
        assert_eq!(knee(&[]), Knee::Peak(0));
        assert_eq!(knee(&[42.0]), Knee::Peak(0));
    }

    #[test]
    fn knee_of_plateau_ramp_is_the_flat_step() {
        // 400 → 420 is +5%: flat, not falling.
        assert_eq!(knee(&[100.0, 200.0, 400.0, 420.0]), Knee::Plateau(3));
    }

    #[test]
    fn knee_of_regression_ramp_is_labelled_regression() {
        // A throughput *drop* must not be mislabelled a plateau.
        assert_eq!(knee(&[100.0, 200.0, 150.0, 140.0]), Knee::Regression(2));
    }

    #[test]
    fn knee_survives_non_finite_throughputs() {
        // NaN stages neither panic (the old argmax unwrapped a
        // partial_cmp) nor win the argmax; comparisons skip them.
        assert_eq!(knee(&[f64::NAN, 100.0, 120.0]), Knee::Peak(2));
        assert_eq!(knee(&[100.0, f64::NAN, 200.0, 190.0]), Knee::Regression(3));
        assert_eq!(knee(&[f64::NAN, f64::INFINITY]), Knee::Peak(0));
        assert_eq!(knee(&[100.0, f64::INFINITY, 90.0]), Knee::Peak(0));
    }

    #[test]
    fn bench_json_is_parseable_even_with_hostile_values() {
        // Scratch space under target/, NOT std::env::temp_dir(): that
        // reads TMPDIR via getenv, and this binary's quick-mode test
        // mutates the environment — concurrent getenv/setenv is UB on
        // glibc, so no other test here may read it.
        let dir = workspace_root().join("target/xt_bench_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let records = [
            BenchRecord::from_ns("zero/ns\"quoted\\", 0.0),
            BenchRecord {
                name: "nan".into(),
                ns_per_op: f64::NAN,
                ops_per_sec: f64::INFINITY,
            },
        ];
        write_bench_json(&path, "suite", &records).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\\\"quoted\\\\"), "name not escaped: {text}");
        assert!(
            !text.contains("inf") && !text.contains("NaN"),
            "non-finite leaked: {text}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    /// The quick-mode clobber regression: `XT_BENCH_QUICK=1 cargo bench`
    /// used to overwrite the committed `BENCH_*.json` trajectories with
    /// meaningless 2-sample numbers. Quick runs must write to the
    /// git-ignored `*.quick.json` sibling and never touch the real
    /// artifact path.
    #[test]
    fn quick_mode_never_writes_the_committed_artifact_path() {
        // This is the only test in this binary that touches the
        // environment (concurrent getenv/setenv is UB on glibc).
        std::env::set_var("XT_BENCH_QUICK", "1");
        let quick = bench_artifact_path("BENCH_selftest.json");
        std::env::remove_var("XT_BENCH_QUICK");
        let real = bench_artifact_path("BENCH_selftest.json");

        assert_eq!(real, workspace_root().join("BENCH_selftest.json"));
        assert_eq!(quick, workspace_root().join("BENCH_selftest.quick.json"));
        assert_ne!(quick, real, "quick mode redirected nowhere");

        // Drive the actual write path a quick bench run takes and verify
        // the committed location stays untouched.
        assert!(!real.exists(), "stale selftest artifact at {real:?}");
        write_bench_json(&quick, "selftest", &[BenchRecord::from_ns("noop", 1.0)]).unwrap();
        assert!(
            !real.exists(),
            "a quick-mode write reached the committed artifact path"
        );
        assert!(quick.exists());
        std::fs::remove_file(&quick).unwrap();
    }

    #[test]
    fn median_is_robust_to_one_outlier() {
        let mut calls = 0;
        let m = median_secs(5, || {
            calls += 1;
            if calls == 1 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        });
        assert!(m < 0.005, "median polluted by outlier: {m}");
    }
}
