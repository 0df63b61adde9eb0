//! Lock-cheap service observability.
//!
//! Every long-lived service in this reproduction (the pool front-end,
//! the fleet aggregation service, the network front door) needs the
//! same three instruments:
//!
//! - **monotonic [`Counter`]s** and **[`Gauge`]s** — single atomics,
//!   wait-free on the hot path;
//! - **[`Histogram`]s** — fixed power-of-two latency buckets with
//!   atomic per-bucket counts, an exact atomic max, and lock-free
//!   recording. Two histograms over the same scheme **merge** by
//!   bucket-wise addition, so per-shard or per-connection histograms
//!   fold into one fleet-wide distribution without coordination;
//! - a **[`Registry`]** of named instruments whose [`RegistrySnapshot`]
//!   renders deterministically (name-sorted, fixed formatting), so two
//!   snapshots of identical state produce identical text.
//!
//! Timing data is *observability only*: it must never feed the
//! deterministic outcome digests the rest of the workspace pins —
//! nothing in this crate is consumed by any digest path.
//!
//! The crate also hosts [`TokenBucket`], the deterministic admission
//! controller the fleet service uses for per-client rate limiting.
//! Refill is driven by *attempts* (logical ticks), not wall-clock
//! time, with a seeded initial phase — so identical request sequences
//! produce identical admit/reject decisions on every run, which is
//! what lets rate-limit behaviour be tested exactly and keeps the
//! house determinism invariant intact.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use xt_arena::splitmix_finalize;

/// Number of power-of-two histogram buckets. Bucket `i` holds values
/// whose bit length is `i` (bucket 0: the value 0; bucket `i`:
/// `[2^(i-1), 2^i)`); the last bucket absorbs everything larger.
/// 40 buckets cover nanosecond latencies up to `2^39` ns ≈ 550 s.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// The bucket a value lands in: its bit length, clamped to the last
/// bucket.
#[inline]
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    ((u64::BITS - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i`, used as the percentile
/// estimate for samples that landed there.
#[inline]
#[must_use]
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index >= 63 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

/// A monotonic counter. Wait-free increment; never decrements.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (queue depths, live
/// connections).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket latency histogram over power-of-two nanosecond
/// buckets. Recording is lock-free: one relaxed bucket increment plus
/// an atomic `fetch_max` for the exact maximum.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one sample (typically a latency in nanoseconds).
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records an elapsed [`std::time::Duration`] in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// A consistent-enough point-in-time snapshot. Concurrent
    /// recorders may land between bucket reads; counts are monotone so
    /// the snapshot is always a valid (possibly slightly stale)
    /// distribution.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable histogram snapshot: mergeable, and the thing
/// percentiles are computed from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_index`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Exact maximum recorded sample (0 when empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Merges another snapshot into this one: bucket-wise addition
    /// plus max-of-maxes. Associative, commutative, count-preserving —
    /// the property tests pin all three.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.max = self.max.max(other.max);
    }

    /// The estimated value at quantile `q` in `[0, 1]`: the upper
    /// bound of the bucket where the cumulative count crosses
    /// `ceil(q * count)`, clamped to the exact max. Returns 0 for an
    /// empty histogram. Monotone in `q` by construction, and never
    /// exceeds [`max`](Self::max) — so `p50 <= p95 <= p99 <= max`
    /// always holds.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // ceil(q * count) without float rounding surprises at q = 1.
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    #[must_use]
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// A named collection of instruments. Instrument creation takes a
/// lock (cold path, once per instrument per component); recording
/// through the returned `Arc` handles touches only atomics.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

impl Registry {
    /// A fresh, empty registry.
    #[must_use]
    pub fn new() -> Arc<Registry> {
        Arc::new(Registry::default())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The counter named `name`, created on first use.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Arc::clone(self.lock().counters.entry(name.to_string()).or_default())
    }

    /// The gauge named `name`, created on first use.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Arc::clone(self.lock().gauges.entry(name.to_string()).or_default())
    }

    /// The histogram named `name`, created on first use.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        Arc::clone(self.lock().histograms.entry(name.to_string()).or_default())
    }

    /// A point-in-time snapshot of every instrument, name-sorted.
    #[must_use]
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = self.lock();
        RegistrySnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time, name-sorted snapshot of a whole registry.
///
/// Deterministic by construction: rendering the same snapshot twice
/// gives identical text, and two snapshots of identical instrument
/// states are equal. The network layer ships this type over the wire
/// (the encoding lives with the other wire codecs in `xt-net`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RegistrySnapshot {
    /// `(name, value)` pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` pairs, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` pairs, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl RegistrySnapshot {
    /// True if no instrument was ever registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Prefixes every instrument name with `prefix` — how a server
    /// namespaces the registries of its layered components before
    /// merging them into one wire snapshot.
    #[must_use]
    pub fn prefixed(mut self, prefix: &str) -> Self {
        for (name, _) in &mut self.counters {
            *name = format!("{prefix}{name}");
        }
        for (name, _) in &mut self.gauges {
            *name = format!("{prefix}{name}");
        }
        for (name, _) in &mut self.histograms {
            *name = format!("{prefix}{name}");
        }
        self
    }

    /// Merges `other` into this snapshot. Same-named counters and
    /// histograms aggregate (sum / bucket-wise merge); same-named
    /// gauges keep the later value. The result stays name-sorted.
    pub fn merge(&mut self, other: RegistrySnapshot) {
        fn merge_sorted<V>(
            dst: &mut Vec<(String, V)>,
            src: Vec<(String, V)>,
            fold: impl Fn(&mut V, V),
        ) {
            for (name, value) in src {
                match dst.binary_search_by(|(n, _)| n.as_str().cmp(&name)) {
                    Ok(i) => fold(&mut dst[i].1, value),
                    Err(i) => dst.insert(i, (name, value)),
                }
            }
        }
        merge_sorted(&mut self.counters, other.counters, |a, b| *a += b);
        merge_sorted(&mut self.gauges, other.gauges, |a, b| *a = b);
        merge_sorted(&mut self.histograms, other.histograms, |a, b| a.merge(&b));
    }

    /// The histogram named `name`, if present.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// The counter named `name`, if present.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Deterministic text rendering: one line per instrument, sorted
    /// by kind then name, fixed formatting. Histogram lines report
    /// count, p50/p95/p99 and max in microseconds (latencies are
    /// recorded in nanoseconds).
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let _ = writeln!(out, "counter   {name} = {value}");
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "gauge     {name} = {value}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "histogram {name} count={} p50={}us p95={}us p99={}us max={}us",
                h.count(),
                h.p50() / 1_000,
                h.p95() / 1_000,
                h.p99() / 1_000,
                h.max / 1_000,
            );
        }
        out
    }
}

/// Configuration for a deterministic [`TokenBucket`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TokenBucketConfig {
    /// Bucket capacity: how many requests a quiet client may burst.
    pub burst: u32,
    /// Refill rate numerator: `refill_num / refill_den` tokens are
    /// earned per *attempt* (the logical tick), so a client's
    /// steady-state admitted fraction converges to this ratio.
    pub refill_num: u32,
    /// Refill rate denominator (must be nonzero).
    pub refill_den: u32,
}

impl Default for TokenBucketConfig {
    fn default() -> Self {
        // Burst 32, then 1 admit per 8 attempts in steady state.
        TokenBucketConfig {
            burst: 32,
            refill_num: 1,
            refill_den: 8,
        }
    }
}

/// A deterministic token bucket.
///
/// Unlike wall-clock buckets, refill here is driven by **attempts**:
/// every call to [`try_admit`](Self::try_admit) advances an integer
/// accumulator by `refill_num`; each time it crosses `refill_den` a
/// token is minted (capped at `burst`). The `seed` only sets the
/// accumulator's initial phase, de-synchronising many clients' mint
/// points without introducing nondeterminism: the same seed and the
/// same attempt sequence always yield the same admit/reject sequence.
#[derive(Clone, Debug)]
pub struct TokenBucket {
    config: TokenBucketConfig,
    tokens: u32,
    acc: u64,
    admitted: u64,
    rejected: u64,
}

impl TokenBucket {
    /// A full bucket whose refill phase is derived from `seed`.
    #[must_use]
    pub fn new(config: TokenBucketConfig, seed: u64) -> Self {
        let den = u64::from(config.refill_den.max(1));
        TokenBucket {
            config,
            tokens: config.burst,
            acc: splitmix_finalize(seed.wrapping_add(0x9E37_79B9_7F4A_7C15)) % den,
            admitted: 0,
            rejected: 0,
        }
    }

    /// One admission attempt: refills by the per-attempt rate, then
    /// spends a token if one is available.
    pub fn try_admit(&mut self) -> bool {
        let den = u64::from(self.config.refill_den.max(1));
        self.acc += u64::from(self.config.refill_num);
        if self.acc >= den {
            let minted = u32::try_from(self.acc / den).unwrap_or(u32::MAX);
            self.acc %= den;
            self.tokens = self.tokens.saturating_add(minted).min(self.config.burst);
        }
        if self.tokens > 0 {
            self.tokens -= 1;
            self.admitted += 1;
            true
        } else {
            self.rejected += 1;
            false
        }
    }

    /// Tokens currently available.
    #[must_use]
    pub fn tokens(&self) -> u32 {
        self.tokens
    }

    /// Attempts admitted over this bucket's lifetime.
    #[must_use]
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Attempts rejected over this bucket's lifetime.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_read_back() {
        let reg = Registry::new();
        let c = reg.counter("jobs");
        c.add(3);
        c.incr();
        let g = reg.gauge("depth");
        g.set(5);
        g.add(-2);
        assert_eq!(c.get(), 4);
        assert_eq!(g.get(), 3);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("jobs"), Some(4));
        assert_eq!(snap.gauges, vec![("depth".to_string(), 3)]);
    }

    #[test]
    fn same_name_returns_the_same_instrument() {
        let reg = Registry::new();
        reg.counter("a").incr();
        reg.counter("a").incr();
        assert_eq!(reg.counter("a").get(), 2);
    }

    #[test]
    fn bucket_index_is_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn quantiles_bracket_recorded_values() {
        let h = Histogram::default();
        for v in [100u64, 200, 300, 400, 10_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 5);
        assert_eq!(s.max, 10_000);
        assert!(s.p50() >= 100, "p50 {} below every sample", s.p50());
        assert!(s.p99() <= s.max);
        assert!(s.p50() <= s.p95() && s.p95() <= s.p99());
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let s = Histogram::default().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!((s.p50(), s.p95(), s.p99(), s.max), (0, 0, 0, 0));
    }

    #[test]
    fn render_text_is_deterministic_and_sorted() {
        let reg = Registry::new();
        reg.counter("z/last").add(1);
        reg.counter("a/first").add(2);
        reg.histogram("m/mid").record(1_500);
        let a = reg.snapshot();
        let b = reg.snapshot();
        assert_eq!(a, b);
        assert_eq!(a.render_text(), b.render_text());
        let text = a.render_text();
        assert!(text.find("a/first").unwrap() < text.find("z/last").unwrap());
        assert!(text.contains("histogram m/mid count=1"));
    }

    #[test]
    fn prefixed_merge_namespaces_components() {
        let fleet = Registry::new();
        fleet.counter("reports").add(7);
        let net = Registry::new();
        net.counter("frames_in").add(2);
        let mut merged = fleet.snapshot().prefixed("fleet/");
        merged.merge(net.snapshot().prefixed("net/"));
        assert_eq!(merged.counter("fleet/reports"), Some(7));
        assert_eq!(merged.counter("net/frames_in"), Some(2));
    }

    #[test]
    fn merge_aggregates_same_named_instruments() {
        let a = Registry::new();
        a.counter("n").add(1);
        a.histogram("h").record(10);
        let b = Registry::new();
        b.counter("n").add(2);
        b.histogram("h").record(1_000_000);
        let mut m = a.snapshot();
        m.merge(b.snapshot());
        assert_eq!(m.counter("n"), Some(3));
        let h = m.histogram("h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max, 1_000_000);
    }

    #[test]
    fn token_bucket_burst_then_steady_state() {
        let config = TokenBucketConfig {
            burst: 4,
            refill_num: 1,
            refill_den: 4,
        };
        let mut bucket = TokenBucket::new(config, 0);
        // The burst is admitted (refill may stretch it by the odd
        // minted token, never shrink it).
        let first: Vec<bool> = (0..4).map(|_| bucket.try_admit()).collect();
        assert!(first.iter().all(|&ok| ok), "burst must admit: {first:?}");
        // Long steady state converges to the refill ratio.
        let admitted = (0..4000).filter(|_| bucket.try_admit()).count();
        let ratio = admitted as f64 / 4000.0;
        assert!(
            (ratio - 0.25).abs() < 0.01,
            "steady-state admit ratio {ratio} far from 1/4"
        );
        assert_eq!(bucket.admitted() + bucket.rejected(), 4004);
    }

    #[test]
    fn token_bucket_is_deterministic_per_seed() {
        let config = TokenBucketConfig::default();
        let run = |seed: u64| -> Vec<bool> {
            let mut b = TokenBucket::new(config, seed);
            (0..200).map(|_| b.try_admit()).collect()
        };
        assert_eq!(run(7), run(7), "same seed, same decisions");
        // Pinned mint phases (SplitMix64's output for the seed, mod the
        // denominator): admission decisions are part of what a fleet
        // replay must reproduce.
        let phase = |seed: u64| {
            let config = TokenBucketConfig {
                refill_den: 1 << 16,
                ..config
            };
            TokenBucket::new(config, seed).acc
        };
        assert_eq!((phase(0), phase(42)), (0xcdaf, 0x6e95));
        // Different seeds shift the mint phase but not the rate.
        let a = run(1).iter().filter(|&&x| x).count();
        let b = run(2).iter().filter(|&&x| x).count();
        assert!((a as i64 - b as i64).abs() <= 1);
    }
}
