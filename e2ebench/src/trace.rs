//! The benchmark's own tracer: spans around each public call it times.
//!
//! Spans live in memory until the run ends and are then written out as
//! JSON lines. The program's internal obs spans are separate; these mark
//! only the layer boundaries the benchmark crosses from outside.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique id (from 1).
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// Layer boundary name, e.g. `http.request`.
    pub name: &'static str,
    /// Request id shared by every span of one request; 0 outside requests.
    pub rid: u64,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store shared by every thread of the run.
pub struct Tracer {
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer { t0: Instant::now(), next: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    /// A fresh span id, for a parent that is recorded after its children.
    pub fn reserve(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Records a finished span under a reserved `id`.
    pub fn record_as(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        rid: u64,
        start: Instant,
        end: Instant,
    ) {
        let span = Span { id, parent, name, rid, start_ns: self.ns(start), end_ns: self.ns(end) };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        rid: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, name, parent, rid, start, end);
        id
    }

    /// Every span recorded so far, with request spans linked (see
    /// [`link_requests`]).
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span store poisoned").clone();
        link_requests(&mut spans);
        spans
    }
}

/// A server-side span only knows its request id; parent it under the
/// client's `http.request` span with the same id.
fn link_requests(spans: &mut [Span]) {
    let client: HashMap<u64, u64> =
        spans.iter().filter(|s| s.name == "http.request").map(|s| (s.rid, s.id)).collect();
    for s in spans.iter_mut().filter(|s| s.parent == 0 && s.rid != 0 && s.name != "http.request") {
        if let Some(&p) = client.get(&s.rid) {
            s.parent = p;
        }
    }
}

/// Length of the union of `intervals`, each clipped to `within`.
fn covered_ns(within: (u64, u64), intervals: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(within.0), b.min(within.1)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (a, b) in iv {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + current.map_or(0, |(a, b)| b - a)
}

/// Per-name totals: `(name, count, total_ns, self_ns)` in first-seen
/// order. A span's self time is its duration minus the part of its
/// interval that its children cover (concurrent children count once).
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    let mut order: Vec<&'static str> = Vec::new();
    let mut acc: HashMap<&'static str, (u64, u64, u64)> = HashMap::new();
    for s in spans {
        let e = acc.entry(s.name).or_insert_with(|| {
            order.push(s.name);
            (0, 0, 0)
        });
        let covered = children.get(&s.id).map_or(0, |c| covered_ns((s.start_ns, s.end_ns), c));
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += s.dur_ns() - covered;
    }
    order.into_iter().map(|n| (n, acc[n].0, acc[n].1, acc[n].2)).collect()
}

/// Writes spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            r#"{{"id":{},"parent":{},"name":"{}","rid":{},"start_ns":{},"end_ns":{}}}"#,
            s.id, s.parent, s.name, s.rid, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, rid: u64, start: u64, end: u64) -> Span {
        Span { id, parent, name, rid, start_ns: start, end_ns: end }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(1, 0, "fit", 0, 0, 100),
            span(2, 1, "block", 0, 0, 30),
            span(3, 1, "block", 0, 30, 90),
        ];
        let t = self_times(&spans);
        assert_eq!(t[0], ("fit", 1, 100, 10));
        assert_eq!(t[1], ("block", 2, 90, 90));
    }

    #[test]
    fn concurrent_children_are_covered_once() {
        // Two overlapping requests inside a window: self = 100 − |[10, 80)|.
        let spans = vec![
            span(1, 0, "window", 0, 0, 100),
            span(2, 1, "http.request", 1, 10, 60),
            span(3, 1, "http.request", 2, 30, 80),
        ];
        assert_eq!(self_times(&spans)[0], ("window", 1, 100, 30));
        assert_eq!(covered_ns((0, 100), &[(90, 120), (5, 10), (0, 6)]), 20);
        assert_eq!(covered_ns((0, 100), &[]), 0);
    }

    #[test]
    fn handler_spans_link_to_their_request() {
        let mut spans = vec![
            span(1, 0, "window", 0, 0, 1000),
            span(2, 1, "http.request", 7, 10, 110),
            span(3, 0, "router.handler", 7, 40, 90),
            span(4, 0, "router.handler", 9, 40, 90),
        ];
        link_requests(&mut spans);
        assert_eq!(spans[2].parent, 2);
        // No client span with rid 9: stays a root.
        assert_eq!(spans[3].parent, 0);
        let t = self_times(&spans);
        // Transport self time = request − handler.
        assert_eq!(t[1], ("http.request", 1, 100, 50));
    }

    #[test]
    fn recorded_spans_round_trip_through_the_store() {
        let tr = Tracer::new();
        let a = Instant::now();
        let root = tr.reserve();
        let child = tr.record("child", root, 0, a, a);
        tr.record_as(root, "root", 0, 0, a, Instant::now());
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].id, child);
        assert_eq!(spans[0].parent, root);
        assert!(spans[1].end_ns >= spans[1].start_ns);
    }
}
