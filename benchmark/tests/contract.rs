//! The benchmark against its own contract: `BENCHMARK.json` names
//! exactly what the code reports, and every workload runs end to end —
//! untraced and traced — printing each listed metric exactly once and
//! nothing unlisted.

use std::collections::BTreeSet;
use std::process::Command;

use xt_benchmark::aa::{contract_path, parse_child, read_contract};
use xt_benchmark::json::{self, Value};
use xt_benchmark::ledger::PER_LAYER;
use xt_benchmark::report::END_TO_END;
use xt_benchmark::run::trace_path;
use xt_benchmark::workloads;

fn well_formed_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_lists_exactly_what_the_code_reports() {
    let contract = read_contract().expect("BENCHMARK.json at the repository root");

    let workloads: Vec<&str> = workloads::specs().iter().map(|s| s.name).collect();
    assert_eq!(contract.workloads, workloads);

    let listed: Vec<(&str, &str)> = contract
        .end_to_end
        .iter()
        .map(|(n, u, _, _)| (n.as_str(), u.as_str()))
        .collect();
    assert_eq!(listed, END_TO_END);
    for (name, _, better, bound) in &contract.end_to_end {
        assert!(well_formed_name(name), "{name}");
        assert!(better == "lower" || better == "higher", "{name}");
        assert!(*bound > 0.0 && *bound <= 0.25, "{name}: bound {bound}");
    }
    let setup = &contract.end_to_end[0];
    assert_eq!(
        (setup.0.as_str(), setup.1.as_str(), setup.2.as_str()),
        ("setup_s", "s", "lower")
    );

    let listed: Vec<(&str, &str, &str)> = contract
        .per_layer
        .iter()
        .map(|(n, u, b)| (n.as_str(), u.as_str(), b.as_str()))
        .collect();
    assert_eq!(listed, PER_LAYER);
    assert!(listed.len() <= 128);
    assert!(listed
        .iter()
        .all(|(n, u, _)| well_formed_name(n) && u.len() <= 16));

    // No name is used twice across the whole file.
    let mut names = BTreeSet::new();
    for name in contract
        .workloads
        .iter()
        .chain(contract.end_to_end.iter().map(|m| &m.0))
        .chain(contract.per_layer.iter().map(|m| &m.0))
    {
        assert!(names.insert(name.clone()), "{name} is used twice");
    }
}

#[test]
fn benchmark_json_has_exactly_the_contract_keys_and_stays_inside_its_paths() {
    let text = std::fs::read_to_string(contract_path()).unwrap();
    assert!(text.len() <= 64 * 1024);
    let doc = json::parse(&text).unwrap();
    let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let paths: Vec<&str> = doc
        .get("paths")
        .unwrap()
        .items()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<&str> = doc
        .get("command")
        .unwrap()
        .items()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert!(command.len() <= 32);
    for arg in &command {
        assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
        // The only file of the repository the command names is inside `paths`.
        assert!(!arg.contains('/') || arg.starts_with("benchmark/"), "{arg}");
    }
    let seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
    for workload in doc.get("workloads").unwrap().items() {
        let keys: Vec<&str> = workload.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["name", "why"]);
        let why = workload.get("why").and_then(Value::as_str).unwrap();
        assert!(why.len() <= 200 && !why.contains('\n'));
    }
}

/// Runs the benchmark binary; returns (exit code, standard output).
fn run(args: &[&str]) -> (Option<i32>, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_xt-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    )
}

/// The names on `metric` lines, in print order.
fn printed_metrics(stdout: &str) -> Vec<String> {
    stdout
        .lines()
        .filter_map(|l| l.strip_prefix("metric "))
        .filter_map(|l| l.split_whitespace().next())
        .map(str::to_string)
        .collect()
}

/// `--quick` drives all five workloads and the traced pass end to end;
/// one test, run serially, because the workloads bind sockets and want
/// the two cores to themselves.
#[test]
fn quick_runs_print_every_listed_metric_exactly_once_and_nothing_else() {
    let end_to_end: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    let per_layer: Vec<String> = PER_LAYER.iter().map(|(n, _, _)| n.to_string()).collect();
    for spec in workloads::specs() {
        for (trace, expected) in [("0", &end_to_end), ("1", &per_layer)] {
            let (code, stdout) = run(&[
                "--workload",
                spec.name,
                "--seed",
                "5",
                "--quick",
                "--trace",
                trace,
            ]);
            assert_eq!(code, Some(0), "{} trace={trace}:\n{stdout}", spec.name);
            assert!(stdout.contains("QUICK (numbers are meaningless)"));
            assert!(stdout.contains("env.transport=loopback"));

            // Printed exactly once each, in order, nothing unlisted.
            assert_eq!(&printed_metrics(&stdout), expected, "{}", spec.name);

            // The result object carries the same names and the operation counts.
            let child = parse_child(&stdout).expect("a result line");
            let in_result: Vec<String> = child.metrics.keys().cloned().collect();
            let mut sorted = expected.clone();
            sorted.sort();
            assert_eq!(in_result, sorted, "{}", spec.name);
            assert!(child.correct, "{} trace={trace}:\n{stdout}", spec.name);
            assert_eq!(child.failed, 0.0);
            let last = json::parse(stdout.lines().last().unwrap()).unwrap();
            let keys: Vec<&str> = last.members().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert!(last.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
        }

        // The traced pass left its spans behind, with self times.
        let trace = std::fs::read_to_string(trace_path(spec.name)).expect("trace file written");
        let doc = json::parse(&trace).expect("trace file is JSON");
        assert_eq!(doc.get("workload").and_then(Value::as_str), Some(spec.name));
        assert!(!doc.get("spans").unwrap().items().is_empty());
        let names: BTreeSet<&str> = doc
            .get("by_name")
            .unwrap()
            .items()
            .iter()
            .filter_map(|s| s.get("name").and_then(Value::as_str))
            .collect();
        // The shared wire layers show up in every trace through the
        // ledger; the two wire workloads also record them themselves.
        for shared in ["net.health", "frame.encode", "frame.parse", "ladder.net"] {
            assert!(names.contains(shared), "{}: no {shared} spans", spec.name);
        }
    }
}

#[test]
fn an_unknown_workload_exits_non_zero_without_a_result() {
    let (code, stdout) = run(&["--workload", "no_such_workload"]);
    assert_eq!(code, Some(2));
    assert!(stdout.is_empty());
    let (code, _) = run(&["--seconds", "0"]);
    assert_eq!(code, Some(2));
}
