//! Order statistics, the window rule, and the spread the acceptance
//! check uses.

/// Samples a percentile must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for even counts); NaN
/// for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Median of `values`, or `None` for an empty slice.
#[must_use]
pub fn some_median(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| median(values))
}

/// Nearest-rank percentile of an ascending slice; NaN when empty.
#[must_use]
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many of `n` samples lie strictly beyond the `pct` percentile.
#[must_use]
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    n - ((pct / 100.0 * n as f64).ceil() as usize).min(n)
}

/// Geometric mean of positive values; NaN when empty.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the acceptance
/// check computes. Needs at least two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread the acceptance check holds against a metric's bound. With
/// fewer than four values it falls back to (max − min) ÷ median.
#[must_use]
pub fn relative_spread(values: &[f64]) -> f64 {
    let mid = median(values);
    if values.len() >= 4 {
        let (q1, q3) = quartiles(values).expect("four values have quartiles");
        (q3 - q1) / mid.abs()
    } else {
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (hi - lo) / mid.abs()
    }
}

/// What one measured window (or cycle) contributes to the end-to-end
/// metrics. A workload whose windows alternate between a latency shape
/// and a saturation shape fills only the fields that shape measures.
///
/// The two timing metrics are ratios to the workload's *reference
/// operation* — its own program input run bare on the Lea-style
/// baseline heap, in slices interleaved with the window's work — because
/// on a shared host the wall clock of one run says as much about the
/// neighbours as about the code: the same build reads 25–35 % apart from
/// one quarter of an hour to the next, while work and reference slow
/// down together. The raw readings ride along for the `detail` lines
/// and the per-layer `work.*` metrics.
#[derive(Clone, Copy, Debug, Default)]
pub struct Window {
    /// Unit operations per second ÷ reference operations per second.
    pub ops_vs_base: Option<f64>,
    /// Median unit-operation latency ÷ median reference-operation time.
    pub p50_vs_base: Option<f64>,
    /// The workload's cost ratio over this window.
    pub cost_ratio: Option<f64>,
    /// Raw: unit operations completed per second of work.
    pub ops_per_s: Option<f64>,
    /// Raw: median unit-operation latency in microseconds.
    pub p50_us: Option<f64>,
    /// Raw: tail unit-operation latency in microseconds (the workload's
    /// fixed tail percentile).
    pub tail_us: Option<f64>,
    /// Raw: median reference-operation time in microseconds.
    pub base_us: Option<f64>,
    /// Latency samples behind `p50_us`/`tail_us`.
    pub samples: usize,
}

impl Window {
    /// Fills the two ratios from the raw readings and `base_us`: the
    /// rule for every workload whose reference is one serial operation
    /// (`fig7_*` pair per program and set the ratios themselves).
    #[must_use]
    pub fn against_base(mut self, base_us: Option<f64>) -> Self {
        self.base_us = base_us;
        self.ops_vs_base = self.ops_per_s.zip(base_us).map(|(ops, us)| ops * us / 1e6);
        self.p50_vs_base = self.p50_us.zip(base_us).map(|(p50, us)| p50 / us);
        self
    }
}

/// Per-window values reduced to the reported numbers: each metric is
/// the median across the windows that measured it.
#[derive(Clone, Copy, Debug)]
pub struct RunSummary {
    pub ops_vs_base: f64,
    pub p50_vs_base: f64,
    pub cost_ratio: f64,
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub tail_us: f64,
    pub base_us: f64,
    pub windows: usize,
    /// Median latency-sample count per window that took samples.
    pub samples_per_window: usize,
}

#[must_use]
pub fn summarize(windows: &[Window]) -> RunSummary {
    let pick =
        |f: fn(&Window) -> Option<f64>| median(&windows.iter().filter_map(f).collect::<Vec<f64>>());
    let samples: Vec<f64> = windows
        .iter()
        .filter(|w| w.samples > 0)
        .map(|w| w.samples as f64)
        .collect();
    RunSummary {
        ops_vs_base: pick(|w| w.ops_vs_base),
        p50_vs_base: pick(|w| w.p50_vs_base),
        cost_ratio: pick(|w| w.cost_ratio),
        ops_per_s: pick(|w| w.ops_per_s),
        p50_us: pick(|w| w.p50_us),
        tail_us: pick(|w| w.tail_us),
        base_us: pick(|w| w.base_us),
        windows: windows.len(),
        samples_per_window: if samples.is_empty() {
            0
        } else {
            median(&samples) as usize
        },
    }
}

/// Median and tail of one window's latency samples, in the samples'
/// own unit. The tail is reported only when the window leaves
/// `min_beyond` samples beyond `tail_pct` ([`MIN_BEYOND`] in every
/// measured run; `--quick` passes 0 because its numbers mean nothing).
#[must_use]
pub fn latency_summary(
    samples: &mut [f64],
    tail_pct: f64,
    min_beyond: usize,
) -> (Option<f64>, Option<f64>) {
    if samples.is_empty() {
        return (None, None);
    }
    samples.sort_by(f64::total_cmp);
    let p50 = percentile_sorted(samples, 50.0);
    let tail = (samples_beyond(samples.len(), tail_pct) >= min_beyond)
        .then(|| percentile_sorted(samples, tail_pct));
    (Some(p50), tail)
}

/// The benchmark's own generator (splitmix64): inputs, fault selectors
/// and corpora all derive from `--seed` through it, so the program
/// under test receives nothing but generated inputs.
#[derive(Clone, Debug)]
pub struct SeedRng(u64);

impl SeedRng {
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = SeedRng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound` > 0; the modulo bias is far below
    /// anything a benchmark input can notice).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(some_median(&[]), None);
        assert_eq!(some_median(&[1.0, 3.0]), Some(2.0));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 leaves exactly 10 beyond; of 999 only 9.
        assert_eq!(samples_beyond(1000, 99.0), MIN_BEYOND);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(samples_beyond(100, 90.0), MIN_BEYOND);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(samples_beyond(0, 50.0), 0);
    }

    #[test]
    fn latency_summary_withholds_an_unsupported_tail() {
        let mut few: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(
            latency_summary(&mut few, 99.0, MIN_BEYOND),
            (Some(25.0), None)
        );
        let mut many: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(
            latency_summary(&mut many, 99.0, MIN_BEYOND),
            (Some(1000.0), Some(1980.0))
        );
        assert_eq!(latency_summary(&mut few, 99.0, 0), (Some(25.0), Some(50.0)));
        assert_eq!(latency_summary(&mut [], 99.0, 0), (None, None));
    }

    #[test]
    fn window_medians_ignore_windows_that_did_not_measure_the_metric() {
        let latency = |p50| {
            Window {
                p50_us: Some(p50),
                tail_us: Some(p50 * 2.0),
                samples: 100,
                ..Window::default()
            }
            .against_base(Some(5.0))
        };
        let saturation = |ops| {
            Window {
                ops_per_s: Some(ops),
                ..Window::default()
            }
            .against_base(Some(5.0))
        };
        let run = summarize(&[
            latency(10.0),
            saturation(500.0),
            latency(30.0),
            saturation(700.0),
            latency(20.0),
            saturation(9000.0), // one wild window does not move the median
        ]);
        assert_eq!(run.p50_us, 20.0);
        assert_eq!(run.tail_us, 40.0);
        assert_eq!(run.ops_per_s, 700.0);
        assert_eq!(run.p50_vs_base, 4.0);
        assert_eq!(run.ops_vs_base, 700.0 * 5.0 / 1e6);
        assert_eq!(run.base_us, 5.0);
        assert!(run.cost_ratio.is_nan());
        assert_eq!((run.windows, run.samples_per_window), (6, 100));
    }

    #[test]
    fn a_window_without_a_reference_reports_no_ratio() {
        let window = Window {
            ops_per_s: Some(100.0),
            p50_us: Some(10.0),
            ..Window::default()
        }
        .against_base(None);
        assert_eq!((window.ops_vs_base, window.p50_vs_base), (None, None));
        // Work and reference slowing down together leave the ratios alone.
        let at = |slowdown: f64| {
            Window {
                ops_per_s: Some(100.0 / slowdown),
                p50_us: Some(10.0 * slowdown),
                ..Window::default()
            }
            .against_base(Some(2.0 * slowdown))
        };
        let (quiet, noisy) = (at(1.0), at(1.6));
        assert!((quiet.p50_vs_base.unwrap() - noisy.p50_vs_base.unwrap()).abs() < 1e-12);
        assert!((quiet.ops_vs_base.unwrap() - noisy.ops_vs_base.unwrap()).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[8.0, 1.0, 4.0, 2.0]), Some((1.25, 7.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((relative_spread(&[10.0, 11.0]) - 1.0 / 10.5).abs() < 1e-12);
    }

    #[test]
    fn geomean_matches_hand_computation() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn seed_rng_repeats_per_seed_and_differs_across_streams() {
        let a: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(SeedRng::new(7, 1), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(SeedRng::new(7, 1), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(SeedRng::new(7, 2), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(SeedRng::new(1, 1).below(10) < 10);
    }
}
