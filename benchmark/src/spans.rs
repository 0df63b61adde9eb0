//! In-memory spans recorded by the harness around its own calls into a
//! layer. Nothing inside the program under test is instrumented: a span
//! is what the benchmark saw from outside. Spans are kept in memory and
//! written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::json;
use crate::stats::median;

/// Handle to a recorded span. Spans recorded on a forked tracer carry a
/// tag so the parent can re-index them when it absorbs the fork.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(u32);

const LOCAL_TAG: u32 = 1 << 31;
const NONE: u32 = u32::MAX;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Identifier shared by every span of one request (job sequence
    /// number, report index, round).
    pub request: u64,
}

/// Span recorder. A disabled tracer takes no timestamps and records
/// nothing, so untraced runs pay one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    on: bool,
    forked: bool,
    spans: Vec<Span>,
}

impl Tracer {
    #[must_use]
    pub fn new(on: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            on,
            forked: false,
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off (the traced run alternates, to measure
    /// what recording costs).
    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    /// A tracer for one generator thread: same clock, own buffer.
    /// Spans it records may name spans of `self` as their parent.
    #[must_use]
    pub fn fork(&self) -> Tracer {
        Tracer {
            epoch: self.epoch,
            on: self.on,
            forked: true,
            spans: Vec::new(),
        }
    }

    /// Moves a fork's spans into this tracer, re-indexing their
    /// fork-local parents.
    pub fn absorb(&mut self, fork: Tracer) {
        let offset = self.spans.len() as u32;
        self.spans.extend(fork.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| {
                if p & LOCAL_TAG != 0 {
                    offset + (p & !LOCAL_TAG)
                } else {
                    p
                }
            });
            s
        }));
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&mut self, span: Span) -> SpanId {
        let index = self.spans.len() as u32;
        self.spans.push(span);
        SpanId(if self.forked {
            index | LOCAL_TAG
        } else {
            index
        })
    }

    fn parent_index(parent: Option<SpanId>) -> Option<u32> {
        parent.map(|p| p.0).filter(|&p| p != NONE)
    }

    /// Opens a span now; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        if !self.on {
            return SpanId(NONE);
        }
        let now = self.ns(Instant::now());
        self.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: Self::parent_index(parent),
            request,
        })
    }

    /// Ends a span opened on this tracer.
    pub fn close(&mut self, id: SpanId) {
        if id.0 == NONE {
            return;
        }
        let now = self.ns(Instant::now());
        if let Some(span) = self.spans.get_mut((id.0 & !LOCAL_TAG) as usize) {
            span.end_ns = now;
        }
    }

    /// Records an interval the caller already timed (the workloads time
    /// every operation for their own latency samples; a traced run hands
    /// the same two instants here instead of reading the clock again).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.on {
            return SpanId(NONE);
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: Self::parent_index(parent),
            request,
        };
        self.push(span)
    }

    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Children may overlap one another
/// (pipelined requests), so coverage is the union of their intervals,
/// clipped to the parent.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent.and_then(|p| spans.get(p as usize)) {
            let start = span.start_ns.max(parent.start_ns);
            let end = span.end_ns.min(parent.end_ns);
            if end > start {
                children[span.parent.expect("checked above") as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Spans of one name, reduced.
#[derive(Clone, Debug, PartialEq)]
pub struct NameSummary {
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
    pub p50_ns: f64,
}

/// Per-name totals, name-sorted.
#[must_use]
pub fn summarize_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameSummary> {
    let selfs = self_times(spans);
    let mut durations: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut out: BTreeMap<&'static str, NameSummary> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        let duration = span.end_ns - span.start_ns;
        durations
            .entry(span.name)
            .or_default()
            .push(duration as f64);
        let entry = out.entry(span.name).or_insert(NameSummary {
            count: 0,
            total_ns: 0,
            self_ns: 0,
            p50_ns: 0.0,
        });
        entry.count += 1;
        entry.total_ns += duration;
        entry.self_ns += self_ns;
    }
    for (name, summary) in &mut out {
        summary.p50_ns = median(&durations[name]);
    }
    out
}

/// Raw spans written per trace file; the per-name summary always covers
/// every span recorded.
pub const MAX_SPANS_WRITTEN: usize = 50_000;

/// The trace document: header fields, per-name self times, then the
/// first [`MAX_SPANS_WRITTEN`] raw spans.
#[must_use]
pub fn trace_json(header: &[(&str, String)], spans: &[Span]) -> String {
    let mut out = String::from("{\n");
    for (key, value) in header {
        let _ = writeln!(out, "  {}: {},", json::quote(key), value);
    }
    let _ = writeln!(out, "  \"spans_recorded\": {},", spans.len());
    let _ = writeln!(
        out,
        "  \"spans_written\": {},",
        spans.len().min(MAX_SPANS_WRITTEN)
    );
    out.push_str("  \"by_name\": [\n");
    let by_name = summarize_by_name(spans);
    for (i, (name, s)) in by_name.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"count\": {}, \"total_ns\": {}, \"self_ns\": {}, \"p50_ns\": {}}}{}",
            json::quote(name),
            s.count,
            s.total_ns,
            s.self_ns,
            json::number(s.p50_ns),
            if i + 1 < by_name.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"spans\": [\n");
    let written = &spans[..spans.len().min(MAX_SPANS_WRITTEN)];
    for (i, s) in written.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "    {{\"id\": {i}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}{}",
            json::quote(s.name),
            s.start_ns,
            s.end_ns,
            s.request,
            if i + 1 < written.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span("job", 0, 100, None),
            span("submit", 10, 30, Some(0)),
            span("wait", 40, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 50]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two pipelined children overlap on [30, 50); a third is nested
        // inside the first. Coverage of the parent is [10, 70) = 60.
        let spans = [
            span("window", 0, 100, None),
            span("job", 10, 50, Some(0)),
            span("job", 30, 70, Some(0)),
            span("job", 15, 20, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        // A child that outlives its parent only covers the shared part.
        let spans = [span("parent", 10, 50, None), span("child", 40, 90, Some(0))];
        assert_eq!(self_times(&spans), vec![30, 50]);
        // A child entirely outside covers nothing.
        let spans = [span("parent", 10, 50, None), span("child", 60, 90, Some(0))];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn grandchildren_reduce_only_their_own_parent() {
        let spans = [
            span("a", 0, 100, None),
            span("b", 0, 60, Some(0)),
            span("c", 10, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![40, 40, 20]);
        let by_name = summarize_by_name(&spans);
        assert_eq!(by_name["b"].total_ns, 60);
        assert_eq!(by_name["b"].self_ns, 40);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let w = t.open("window", None, 0);
        let now = Instant::now();
        t.record("op", Some(w), 1, now, now);
        t.close(w);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorbed_forks_keep_their_parents() {
        let mut t = Tracer::new(true);
        let window = t.open("window", None, 0);
        let now = Instant::now();
        let mut forks: Vec<Tracer> = (0..2).map(|_| t.fork()).collect();
        for (i, fork) in forks.iter_mut().enumerate() {
            let job = fork.record("job", Some(window), i as u64, now, now);
            fork.record("submit", Some(job), i as u64, now, now);
        }
        t.close(window);
        for fork in forks {
            t.absorb(fork);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 5);
        // window=0, fork0: job=1 submit=2, fork1: job=3 submit=4
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        assert_eq!(spans[4].parent, Some(3));
        assert_eq!(spans[4].request, 1);
    }

    #[test]
    fn the_trace_document_is_json() {
        let spans = [span("job", 0, 100, None), span("submit", 10, 30, Some(0))];
        let doc = json::parse(&trace_json(
            &[("workload", json::quote("svc_jobs")), ("seed", "7".into())],
            &spans,
        ))
        .unwrap();
        assert_eq!(doc.get("spans").unwrap().items().len(), 2);
        assert_eq!(
            doc.get("by_name").unwrap().items()[0]
                .get("self_ns")
                .and_then(json::Value::as_f64),
            Some(80.0)
        );
    }
}
