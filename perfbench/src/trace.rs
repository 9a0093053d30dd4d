//! In-memory span recording around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer's
//! origin), the span that caused it and the request it belongs to.  Spans
//! are kept in memory while the workload runs and written out once at the
//! end.  The self time of a span is its duration minus the part of its
//! interval that its child spans cover.

use crate::stats::Samples;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn record(&self, span: Span) {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(span);
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .clone()
    }
}

/// Runs `f` inside a span named `name` when `tracer` is present; `f`
/// receives the new span's id so it can parent spans of its own.  Without
/// a tracer, `f` runs with no clock reads at all.
pub fn traced<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<u64>,
    request: u64,
    f: impl FnOnce(Option<u64>) -> R,
) -> R {
    let Some(tracer) = tracer else {
        return f(None);
    };
    let id = tracer.next_id.fetch_add(1, Ordering::Relaxed);
    let start_ns = tracer.now_ns();
    let result = f(Some(id));
    let end_ns = tracer.now_ns();
    tracer.record(Span {
        id,
        parent,
        request,
        name,
        start_ns,
        end_ns,
    });
    result
}

/// Self time of every span, keyed by span id: its duration minus the
/// union of its children's intervals (clipped to its own interval).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let covered = children
                .get_mut(&span.id)
                .map(|intervals| covered_ns(intervals, span.start_ns, span.end_ns))
                .unwrap_or(0);
            (span.id, span.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals` within `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Default)]
pub struct SpanStats {
    pub durations_ns: Samples,
    pub self_ns: u64,
}

impl SpanStats {
    pub fn count(&self) -> usize {
        self.durations_ns.len()
    }

    pub fn total_ns(&self) -> f64 {
        self.durations_ns.sum()
    }
}

/// Groups spans by name, with durations and summed self time.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, SpanStats> {
    let self_time = self_times(spans);
    let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
    for span in spans {
        let entry = out.entry(span.name).or_default();
        entry.durations_ns.push(span.duration_ns() as f64);
        entry.self_ns += self_time.get(&span.id).copied().unwrap_or(0);
    }
    out
}

/// The spans as a JSON array (one object per span).
pub fn to_json(spans: &[Span]) -> String {
    let self_time = self_times(spans);
    let mut out = String::from("[\n");
    for (i, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}{}",
            span.id,
            parent,
            span.request,
            span.name,
            span.start_ns,
            span.end_ns,
            self_time.get(&span.id).copied().unwrap_or(0),
            if i + 1 == spans.len() { "" } else { "," }
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, 0, 100),
            // Overlapping children cover 10..50 once, not twice.
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 50),
            // A child running past its parent is clipped to the parent.
            span(4, Some(1), 90, 120),
            // A grandchild counts against its own parent only.
            span(5, Some(2), 15, 25),
        ];
        let self_time = self_times(&spans);
        assert_eq!(self_time[&1], 100 - 40 - 10);
        assert_eq!(self_time[&2], 30 - 10);
        assert_eq!(self_time[&3], 20);
        assert_eq!(self_time[&4], 30);
        assert_eq!(self_time[&5], 10);
    }

    #[test]
    fn a_span_without_children_is_all_self_time() {
        let spans = vec![span(7, None, 5, 8)];
        assert_eq!(self_times(&spans)[&7], 3);
    }

    #[test]
    fn traced_records_nesting_and_requests() {
        let tracer = Tracer::new();
        let value = traced(Some(&tracer), "outer", None, 42, |outer| {
            traced(Some(&tracer), "inner", outer, 42, |_| 7)
        });
        assert_eq!(value, 7);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let inner = &spans[0];
        let outer = &spans[1];
        assert_eq!((inner.name, outer.name), ("inner", "outer"));
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert!(spans.iter().all(|s| s.request == 42));
        let stats = by_name(&spans);
        assert_eq!(stats["outer"].count(), 1);
        assert_eq!(
            stats["outer"].self_ns,
            outer.duration_ns() - inner.duration_ns()
        );
        assert!(to_json(&spans).contains("\"name\":\"inner\""));
    }

    #[test]
    fn untraced_calls_record_nothing() {
        assert_eq!(traced(None, "x", None, 0, |id| id), None);
    }
}
