//! Metric names, the result line, and the environment record.

use std::fmt::Write as _;

use crate::json;

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    #[must_use]
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order. Every workload
/// reports every one of them; `README.md` says what each means per
/// workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_vs_base", "ratio"),
    ("p50_vs_base", "ratio"),
    ("cost_ratio", "ratio"),
];

/// The process's peak resident set (`VmHWM`), in MB; NaN where
/// `/proc` does not say.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The commit the checkout is at, read from `.git` without running
/// git; `unknown` outside a repository (the acceptance checkout is not
/// one).
#[must_use]
pub fn commit() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let head = std::fs::read_to_string(root.join(".git/HEAD")).unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(root.join(".git").join(reference))
            .unwrap_or_default()
            .trim()
            .to_string(),
        None => head.to_string(),
    };
    if hash.is_empty() {
        "unknown".into()
    } else {
        hash.chars().take(12).collect()
    }
}

#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// The `env.*` line printed with every result. A comparison is only
/// meaningful between runs whose `env.nproc` agree; `--aa` refuses to
/// print one otherwise.
#[must_use]
pub fn env_line(seed: u64) -> String {
    format!(
        "env.nproc={} env.commit={} env.profile={} env.seed={seed} env.transport=loopback",
        nproc(),
        commit(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    )
}

/// One `metric` line of the human-readable report.
#[must_use]
pub fn metric_line(metric: &Metric) -> String {
    format!(
        "metric {} = {} {}",
        metric.name,
        json::number(metric.value),
        metric.unit
    )
}

/// The result object, printed as the last line of standard output.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, m) in metrics.iter().enumerate() {
        let _ = write!(
            out,
            "{}{}: {{\"value\": {}, \"unit\": {}}}",
            if i == 0 { "" } else { ", " },
            json::quote(m.name),
            json::number(m.value),
            json::quote(m.unit)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            1000,
            0,
            &[
                Metric::new("net.job_us", 1.2034, "us"),
                Metric::new("setup_s", 0.8127, "s"),
            ],
        );
        assert!(!line.contains('\n'));
        let doc = json::parse(&line).unwrap();
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metric = doc.get("metrics").unwrap().get("net.job_us").unwrap();
        assert_eq!(
            metric.get("value").and_then(json::Value::as_f64),
            Some(1.2034)
        );
        assert_eq!(metric.get("unit").and_then(json::Value::as_str), Some("us"));
    }

    #[test]
    fn attempted_is_at_least_one_and_non_finite_values_are_null() {
        let line = result_line(false, 0, 0, &[Metric::new("x", f64::NAN, "us")]);
        let doc = json::parse(&line).unwrap();
        assert_eq!(
            doc.get("attempted").and_then(json::Value::as_f64),
            Some(1.0)
        );
        assert_eq!(
            doc.get("metrics").unwrap().get("x").unwrap().get("value"),
            Some(&json::Value::Null)
        );
    }

    #[test]
    fn peak_rss_reads_a_positive_number_here() {
        assert!(peak_rss_mb() > 0.0);
    }
}
