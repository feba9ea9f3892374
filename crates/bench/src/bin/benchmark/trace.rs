//! The benchmark's own spans: recorded around the calls it makes into each
//! layer's public functions, kept in memory, written out at exit. Nothing
//! here reaches into the shipped crates.

use crate::stats::median;
use spade_core::json::JsonWriter;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call. `parent_id` 0 means "top of its op"; span ids start at 1.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub op_id: u32,
    pub span_id: u32,
    pub parent_id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans of the traced pass. One tracer per workload run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Ids of the currently open spans, innermost last.
    open: Vec<u32>,
    op_id: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), op_id: 0 }
    }

    /// Starts the next op: spans recorded from here on share its id.
    pub fn begin_op(&mut self) {
        assert!(self.open.is_empty(), "begin_op inside an open span");
        self.op_id += 1;
    }

    /// Runs `f` inside a span named `name`, nested under whatever span is
    /// open on this tracer.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let span_id = self.spans.len() as u32 + 1;
        let parent_id = self.open.last().copied().unwrap_or(0);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            op_id: self.op_id,
            span_id,
            parent_id,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(span_id);
        let out = f(self);
        self.open.pop();
        self.spans[span_id as usize - 1].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn ops(&self) -> u32 {
        self.op_id
    }

    /// Per op (index 0 is op 1): summed self time (ms) of the spans named
    /// `name`; 0 for an op without one.
    pub fn self_ms_per_op(&self, name: &str) -> Vec<f64> {
        let per_op = self_time_per_op(&self.spans, name);
        (1..=self.op_id).map(|op| per_op.get(&op).copied().unwrap_or(0) as f64 / 1e6).collect()
    }

    /// Per op: summed **whole** duration (ms) of the spans named `name` —
    /// for spans whose children are attributed separately.
    pub fn total_ms_per_op(&self, name: &str) -> Vec<f64> {
        let mut per_op = vec![0u64; self.op_id as usize];
        for s in self.spans.iter().filter(|s| s.name == name) {
            per_op[s.op_id as usize - 1] += s.end_ns - s.start_ns;
        }
        per_op.into_iter().map(|ns| ns as f64 / 1e6).collect()
    }

    /// Median over ops of [`Tracer::self_ms_per_op`]; 0 for a name never
    /// recorded.
    pub fn layer_ms(&self, name: &str) -> f64 {
        median_or_zero(&self.self_ms_per_op(name))
    }

    /// Median over ops of [`Tracer::total_ms_per_op`].
    pub fn total_ms(&self, name: &str) -> f64 {
        median_or_zero(&self.total_ms_per_op(name))
    }

    /// The whole span list as a JSON array (`trace-<workload>.json`).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::compact();
        w.begin_array();
        for s in &self.spans {
            w.begin_object();
            w.key("op_id").uint(u64::from(s.op_id));
            w.key("span_id").uint(u64::from(s.span_id));
            w.key("parent_id").uint(u64::from(s.parent_id));
            w.key("name").string(s.name);
            w.key("start_ns").uint(s.start_ns);
            w.key("end_ns").uint(s.end_ns);
            w.end_object();
        }
        w.end_array();
        w.finish()
    }
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// Self time of one span: its duration minus the part of its interval that
/// the union of its children covers (children may overlap each other when a
/// layer fans out, and are clipped to the parent).
pub fn self_time_ns(span: &Span, spans: &[Span]) -> u64 {
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|c| c.parent_id == span.span_id)
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(start, end)| end > start)
        .collect();
    children.sort_unstable();
    let mut covered = 0u64;
    let mut reach = span.start_ns;
    for (start, end) in children {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    (span.end_ns - span.start_ns) - covered
}

/// Per op: summed self time of the spans named `name`.
fn self_time_per_op(spans: &[Span], name: &str) -> BTreeMap<u32, u64> {
    // Spans are recorded in start order, so a span's descendants are the
    // run right after it that starts before it ends; scanning only that run
    // keeps the pass linear over tens of thousands of lattice spans.
    let mut out: BTreeMap<u32, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.name == name) {
        let after = &spans[i + 1..];
        let len = after.iter().position(|c| c.start_ns > s.end_ns).unwrap_or(after.len());
        *out.entry(s.op_id).or_default() += self_time_ns(s, &after[..len]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(span_id: u32, parent_id: u32, start_ns: u64, end_ns: u64) -> Span {
        Span { op_id: 1, span_id, parent_id, name: "s", start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 60), // overlaps span 2: union is 10..60
            span(4, 1, 70, 80),
            span(5, 2, 15, 20),  // grandchild: not subtracted from span 1
            span(6, 1, 90, 130), // runs past the parent: clipped to 90..100
        ];
        assert_eq!(self_time_ns(&spans[0], &spans), 100 - 50 - 10 - 10);
        assert_eq!(self_time_ns(&spans[1], &spans), 30 - 5);
        assert_eq!(self_time_ns(&spans[2], &spans), 30);
        // A child nested inside another child's interval adds nothing.
        let nested = vec![span(1, 0, 0, 100), span(2, 1, 10, 90), span(3, 1, 20, 30)];
        assert_eq!(self_time_ns(&nested[0], &nested), 20);
    }

    #[test]
    fn tracer_nests_spans_and_groups_them_by_op() {
        let mut t = Tracer::new();
        for _ in 0..3 {
            t.begin_op();
            t.span("outer", |t| {
                t.span("inner", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
                t.span("inner", |_| ());
            });
        }
        assert_eq!(t.ops(), 3);
        assert_eq!(t.spans().len(), 9);
        let outer = &t.spans()[3];
        let inner = &t.spans()[4];
        assert_eq!((outer.op_id, outer.parent_id), (2, 0));
        assert_eq!((inner.op_id, inner.parent_id), (2, outer.span_id));
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
        assert!(t.layer_ms("inner") >= 2.0);
        assert!(t.layer_ms("outer") < t.total_ms("outer"));
        assert_eq!(t.layer_ms("absent"), 0.0);
        let parsed = spade_core::json::parse(&t.to_json()).expect("trace is valid JSON");
        assert_eq!(parsed.as_array().map(<[_]>::len), Some(9));
    }
}
