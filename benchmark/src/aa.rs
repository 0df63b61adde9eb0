//! The A/A tool: the whole suite, several times, on one build. It
//! prints every run's value for each (metric, workload) pair, the
//! spread within each set of runs and the drift between sets, and holds
//! both against the pair's bound from `BENCHMARK.json` — the evidence
//! that two sets of runs of the same code agree, and the tool for
//! setting a bound or demoting a metric.

use std::collections::BTreeMap;
use std::process::Command;

use crate::json::{self, Value};
use crate::stats::{median, relative_spread};

/// `BENCHMARK.json`, as far as the benchmark itself needs it.
pub struct Contract {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    /// name, unit, better, bound
    pub end_to_end: Vec<(String, String, String, f64)>,
    /// name, unit, better
    pub per_layer: Vec<(String, String, String)>,
}

/// Where `BENCHMARK.json` lives: the repository root, one level above
/// this package.
#[must_use]
pub fn contract_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("BENCHMARK.json")
}

/// Reads `BENCHMARK.json`.
///
/// # Errors
///
/// A message when the file is missing, is not JSON, or lacks a field.
pub fn read_contract() -> Result<Contract, String> {
    let path = contract_path();
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text)?;
    let text_of = |v: &Value, key: &str| {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json: missing \"{key}\""))
    };
    let list = |key: &str| {
        doc.get(key)
            .map(Value::items)
            .ok_or_else(|| format!("BENCHMARK.json: missing \"{key}\""))
    };
    Ok(Contract {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or("BENCHMARK.json: missing \"run_seconds\"")?,
        workloads: list("workloads")?
            .iter()
            .map(|w| text_of(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: list("end_to_end")?
            .iter()
            .map(|m| {
                Ok((
                    text_of(m, "name")?,
                    text_of(m, "unit")?,
                    text_of(m, "better")?,
                    m.get("bound")
                        .and_then(Value::as_f64)
                        .ok_or("BENCHMARK.json: metric without \"bound\"")?,
                ))
            })
            .collect::<Result<_, String>>()?,
        per_layer: list("per_layer")?
            .iter()
            .map(|m| {
                Ok((
                    text_of(m, "name")?,
                    text_of(m, "unit")?,
                    text_of(m, "better")?,
                ))
            })
            .collect::<Result<_, String>>()?,
    })
}

/// One child run, parsed.
pub struct ChildRun {
    pub nproc: String,
    pub correct: bool,
    pub failed: f64,
    pub metrics: BTreeMap<String, f64>,
}

/// Runs this executable once, untraced, for `workload` and parses what
/// it printed.
///
/// # Errors
///
/// A message when the child cannot start, exits non-zero, or prints no
/// result line.
fn run_child(workload: &str, seed: u64, seconds: f64) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed}: exit {:?}\n{}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    parse_child(&stdout).map_err(|e| format!("{workload} seed {seed}: {e}"))
}

/// Parses a child's standard output: the `env.nproc` it recorded and
/// the result object on its last line.
///
/// # Errors
///
/// A message when the last line is not a result object.
pub fn parse_child(stdout: &str) -> Result<ChildRun, String> {
    let nproc = stdout
        .lines()
        .find_map(|l| l.strip_prefix("env.nproc="))
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or("?")
        .to_string();
    let last = stdout.lines().last().ok_or("no output")?;
    let doc = json::parse(last)?;
    let metrics = doc
        .get("metrics")
        .ok_or("result without \"metrics\"")?
        .members()
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN),
            )
        })
        .collect();
    Ok(ChildRun {
        nproc,
        correct: doc.get("correct").and_then(Value::as_bool).unwrap_or(false),
        failed: doc
            .get("failed")
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN),
        metrics,
    })
}

/// How much worse `later` is than `earlier`, as a share of `earlier`
/// (negative when it is better).
#[must_use]
pub fn worsening(earlier: f64, later: f64, better: &str) -> f64 {
    if better == "higher" {
        (earlier - later) / earlier.abs()
    } else {
        (later - earlier) / earlier.abs()
    }
}

/// Runs `sets` sets of `runs` runs (seeds `seed`, `seed + 1`, … within
/// each set) of every workload and prints the comparison. Returns the
/// exit code: 0 only when every pair's spread and drift stay within its
/// bound and every run was correct.
pub fn run(sets: usize, runs: usize, seed: u64, seconds: Option<f64>) -> i32 {
    let contract = match read_contract() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let seconds = seconds.unwrap_or(contract.run_seconds);
    println!(
        "# A/A: {sets} sets x {runs} runs x {} workloads, {seconds} s each, seeds {seed}..{}",
        contract.workloads.len(),
        seed + runs as u64 - 1
    );
    // values[(workload, metric)][set] = one value per run
    let mut values: BTreeMap<(String, String), Vec<Vec<f64>>> = BTreeMap::new();
    let mut nprocs: Vec<String> = Vec::new();
    let mut all_correct = true;
    for set in 0..sets {
        for run in 0..runs {
            for workload in &contract.workloads {
                let child = match run_child(workload, seed + run as u64, seconds) {
                    Ok(child) => child,
                    Err(e) => {
                        eprintln!("error: {e}");
                        return 2;
                    }
                };
                if !child.correct {
                    println!(
                        "set {set} run {run} {workload}: NOT CORRECT ({} failed operations)",
                        child.failed
                    );
                    all_correct = false;
                }
                nprocs.push(child.nproc);
                for (name, _, _, _) in &contract.end_to_end {
                    let per_set = values
                        .entry((workload.clone(), name.clone()))
                        .or_insert_with(|| vec![Vec::new(); sets]);
                    per_set[set].push(child.metrics.get(name).copied().unwrap_or(f64::NAN));
                }
            }
            println!("set {} run {} done", set + 1, run + 1);
        }
    }
    nprocs.dedup();
    if nprocs.len() != 1 {
        eprintln!(
            "error: runs recorded differing env.nproc {nprocs:?}; numbers from differing core \
             counts are not comparable and no comparison is printed"
        );
        return 2;
    }

    let mut within = all_correct;
    println!("\n| workload | metric | per-set medians | spread per set | drift | bound | ok |");
    println!("| --- | --- | --- | --- | --- | --- | --- |");
    for workload in &contract.workloads {
        for (name, unit, better, bound) in &contract.end_to_end {
            let per_set = &values[&(workload.clone(), name.clone())];
            let medians: Vec<f64> = per_set.iter().map(|v| median(v)).collect();
            // With one run per set, the sets themselves are the sample.
            let spreads: Vec<f64> = if runs >= 2 {
                per_set.iter().map(|v| relative_spread(v)).collect()
            } else {
                vec![relative_spread(&medians)]
            };
            let drift = medians
                .windows(2)
                .map(|pair| worsening(pair[0], pair[1], better))
                .fold(f64::NEG_INFINITY, f64::max);
            // Set-up time's own spread is not held to its bound (it is
            // dominated by seed-dependent discovery work); its drift is.
            let spread_ok = name == "setup_s" || spreads.iter().all(|s| *s <= *bound);
            let ok = spread_ok && drift <= *bound && medians.iter().all(|m| m.is_finite());
            within &= ok;
            println!(
                "| {workload} | {name} ({unit}) | {} | {} | {:+.1}% | {:.0}% | {} |",
                medians
                    .iter()
                    .map(|m| format!("{m:.4}"))
                    .collect::<Vec<_>>()
                    .join(", "),
                spreads
                    .iter()
                    .map(|s| format!("{:.1}%", s * 100.0))
                    .collect::<Vec<_>>()
                    .join(", "),
                drift * 100.0,
                bound * 100.0,
                if ok { "yes" } else { "NO" }
            );
            if runs >= 2 {
                for (set, v) in per_set.iter().enumerate() {
                    println!(
                        "|  |  set {} values | {} |  |  |  |  |",
                        set + 1,
                        v.iter()
                            .map(|x| format!("{x:.4}"))
                            .collect::<Vec<_>>()
                            .join(" ")
                    );
                }
            }
        }
    }
    println!(
        "\nA/A verdict: {}",
        if within {
            "every spread and drift within its bound"
        } else {
            "OUTSIDE a bound (or a run was not correct)"
        }
    );
    i32::from(!within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(100.0, 90.0, "higher") - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, "lower") + 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, "lower") - 0.1).abs() < 1e-12);
    }

    #[test]
    fn a_child_report_parses_from_its_last_line() {
        let out = "# header\nenv.nproc=2 env.commit=abc env.profile=release\nmetric x = 1 us\n\
                   {\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": \
                   {\"p50_vs_base\": {\"value\": 12.5, \"unit\": \"ratio\"}}}\n";
        let child = parse_child(out).unwrap();
        assert_eq!(child.nproc, "2");
        assert!(child.correct);
        assert_eq!(child.metrics["p50_vs_base"], 12.5);
        assert!(parse_child("no json here").is_err());
    }
}
