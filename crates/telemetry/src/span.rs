//! Hierarchical per-request tracing spans.
//!
//! A [`Trace`] collects [`Span`] records for one request. Code under
//! measurement receives a [`SpanCtx`] (threaded alongside the request
//! budget) and opens child spans:
//!
//! ```
//! use spade_telemetry::Trace;
//!
//! let trace = Trace::new();
//! let ctx = trace.root();
//! {
//!     let stage = ctx.span("cfs_selection");
//!     stage.attr("candidates", 4);
//!     // ... work ...
//! } // recorded on drop
//! ```
//!
//! **Determinism.** Serially created spans get an automatic per-parent
//! order key. Parallel fan-outs (one span per shard / lattice / CFS) must
//! use [`SpanCtx::span_at`] with the item's input index so sibling order is
//! scheduler-independent; the resulting tree **shape** ([`Trace::shape`]:
//! names + nesting + sibling order) is then identical at any thread count,
//! with only timings and volatile attrs (`thread`) differing.
//!
//! A disabled context ([`SpanCtx::disabled`]) turns every operation into a
//! branch-and-return; [`Span::finish`] still returns the measured elapsed
//! time so callers can keep using spans as their single timing source.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[derive(Clone)]
enum AttrValue {
    U64(u64),
    Str(String),
}

#[derive(Clone)]
struct Rec {
    name: &'static str,
    /// 0 = root; otherwise the 1-based id of the parent span.
    parent: u32,
    /// Sibling order key; unique per parent by construction.
    order: u64,
    start_us: u64,
    dur_us: u64,
    attrs: Vec<(&'static str, AttrValue)>,
}

struct State {
    records: Vec<Rec>,
    /// Next automatic order key per parent id.
    next_order: HashMap<u32, u64>,
}

struct Inner {
    start: Instant,
    state: Mutex<State>,
}

/// A per-request span collector.
#[derive(Clone)]
pub struct Trace {
    inner: Arc<Inner>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            inner: Arc::new(Inner {
                start: Instant::now(),
                state: Mutex::new(State { records: Vec::new(), next_order: HashMap::new() }),
            }),
        }
    }

    /// The root context; spans opened on it become top-level spans.
    pub fn root(&self) -> SpanCtx {
        SpanCtx { inner: Some(self.inner.clone()), parent: 0 }
    }

    /// Number of recorded spans.
    pub fn span_count(&self) -> usize {
        self.inner.state.lock().unwrap().records.len()
    }

    /// Top-level spans as `(name, duration)` in sibling order — the
    /// stage-level view used to feed per-stage histograms and step timings.
    pub fn stage_durations(&self) -> Vec<(&'static str, Duration)> {
        let state = self.inner.state.lock().unwrap();
        let mut top: Vec<&Rec> = state.records.iter().filter(|r| r.parent == 0).collect();
        top.sort_by_key(|r| (r.order, r.name));
        top.iter().map(|r| (r.name, Duration::from_micros(r.dur_us))).collect()
    }

    /// The tree shape: names + nesting + sibling order, no timings or
    /// attrs. Identical across thread counts for well-formed span usage.
    pub fn shape(&self) -> String {
        let state = self.inner.state.lock().unwrap();
        let children = child_index(&state.records);
        let mut out = String::new();
        for &i in children.get(&0).map(Vec::as_slice).unwrap_or(&[]) {
            shape_rec(&state.records, &children, i, &mut out);
        }
        out
    }

    /// The span tree as a JSON array (deterministic key order; `dur_us`
    /// and the volatile `thread` attr vary run to run).
    pub fn spans_json(&self) -> String {
        let state = self.inner.state.lock().unwrap();
        let children = child_index(&state.records);
        let mut out = String::from("[");
        let mut first = true;
        for &i in children.get(&0).map(Vec::as_slice).unwrap_or(&[]) {
            if !first {
                out.push(',');
            }
            first = false;
            json_rec(&state.records, &children, i, &mut out);
        }
        out.push(']');
        out
    }

    /// Microseconds elapsed since the trace was created.
    pub fn elapsed_us(&self) -> u64 {
        self.inner.start.elapsed().as_micros() as u64
    }

    /// Sums the numeric attribute `key` over every span named exactly
    /// `span_name`. Used to aggregate per-shard work counters (cells, facts)
    /// into request totals; filtering by span name matters because other
    /// spans (`emit`, `translate`) reuse attr keys with different meanings.
    pub fn sum_attr(&self, span_name: &str, key: &str) -> u64 {
        let state = self.inner.state.lock().unwrap();
        let mut total = 0u64;
        for rec in state.records.iter().filter(|r| r.name == span_name) {
            for (k, v) in &rec.attrs {
                if *k == key {
                    if let AttrValue::U64(n) = v {
                        total += *n;
                    }
                }
            }
        }
        total
    }
}

/// Maps parent id -> child record indexes in sibling order.
fn child_index(records: &[Rec]) -> HashMap<u32, Vec<usize>> {
    let mut children: HashMap<u32, Vec<usize>> = HashMap::new();
    for (i, r) in records.iter().enumerate() {
        children.entry(r.parent).or_default().push(i);
    }
    for list in children.values_mut() {
        list.sort_by_key(|&i| (records[i].order, records[i].name));
    }
    children
}

fn shape_rec(records: &[Rec], children: &HashMap<u32, Vec<usize>>, i: usize, out: &mut String) {
    out.push_str(records[i].name);
    let id = (i + 1) as u32;
    if let Some(kids) = children.get(&id) {
        out.push('(');
        for &k in kids {
            shape_rec(records, children, k, out);
        }
        out.push(')');
    }
    out.push(';');
}

fn json_rec(records: &[Rec], children: &HashMap<u32, Vec<usize>>, i: usize, out: &mut String) {
    use std::fmt::Write;
    let r = &records[i];
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"start_us\":{},\"dur_us\":{}",
        r.name, r.start_us, r.dur_us
    );
    if !r.attrs.is_empty() {
        out.push_str(",\"attrs\":{");
        for (j, (k, v)) in r.attrs.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            match v {
                AttrValue::U64(n) => {
                    let _ = write!(out, "\"{k}\":{n}");
                }
                AttrValue::Str(s) => {
                    let _ = write!(out, "\"{k}\":\"{}\"", escape(s));
                }
            }
        }
        out.push('}');
    }
    let id = (i + 1) as u32;
    if let Some(kids) = children.get(&id) {
        out.push_str(",\"children\":[");
        for (j, &k) in kids.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            json_rec(records, children, k, out);
        }
        out.push(']');
    }
    out.push('}');
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A handle to one position in the span tree; opening spans on it creates
/// children of that position. Cheap to clone; `disabled()` contexts never
/// allocate or lock.
#[derive(Clone)]
pub struct SpanCtx {
    inner: Option<Arc<Inner>>,
    parent: u32,
}

impl SpanCtx {
    /// A context on which every operation is a no-op (spans still measure
    /// wall time for [`Span::finish`]).
    pub fn disabled() -> Self {
        SpanCtx { inner: None, parent: 0 }
    }

    /// Whether spans opened here are recorded anywhere.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a child span with an automatic per-parent order key. Use only
    /// where one thread at a time creates children of this parent; for
    /// parallel fan-outs use [`SpanCtx::span_at`].
    pub fn span(&self, name: &'static str) -> Span {
        self.open(name, None)
    }

    /// Opens a child span with an explicit sibling order key (the item's
    /// input index), making sibling order scheduler-independent.
    pub fn span_at(&self, name: &'static str, index: u64) -> Span {
        self.open(name, Some(index))
    }

    fn open(&self, name: &'static str, index: Option<u64>) -> Span {
        let start = Instant::now();
        let Some(inner) = &self.inner else {
            return Span { inner: None, id: 0, start, done: false };
        };
        let start_us = start.duration_since(inner.start).as_micros() as u64;
        let mut state = inner.state.lock().unwrap();
        let slot = state.next_order.entry(self.parent).or_insert(0);
        let order = match index {
            Some(i) => {
                *slot = (*slot).max(i + 1);
                i
            }
            None => {
                let o = *slot;
                *slot += 1;
                o
            }
        };
        state.records.push(Rec {
            name,
            parent: self.parent,
            order,
            start_us,
            dur_us: 0,
            attrs: Vec::new(),
        });
        let id = state.records.len() as u32;
        drop(state);
        Span { inner: Some(inner.clone()), id, start, done: false }
    }
}

/// An open span; records its duration when dropped or [`finish`]ed.
///
/// [`finish`]: Span::finish
pub struct Span {
    inner: Option<Arc<Inner>>,
    id: u32,
    start: Instant,
    done: bool,
}

impl Span {
    /// A context whose spans become children of this span.
    pub fn ctx(&self) -> SpanCtx {
        SpanCtx { inner: self.inner.clone(), parent: self.id }
    }

    /// Whether this span is recorded anywhere (false for spans opened on a
    /// disabled context). Lets callers skip computing expensive attrs.
    pub fn recorded(&self) -> bool {
        self.inner.is_some()
    }

    /// Attaches a numeric attribute.
    pub fn attr(&self, key: &'static str, value: u64) {
        self.push_attr(key, AttrValue::U64(value));
    }

    /// Attaches the executing thread's id as a volatile `thread` attr
    /// (excluded from [`Trace::shape`], varies run to run).
    pub fn record_thread(&self) {
        if self.inner.is_some() {
            let id = format!("{:?}", std::thread::current().id());
            self.push_attr("thread", AttrValue::Str(id));
        }
    }

    fn push_attr(&self, key: &'static str, value: AttrValue) {
        if let Some(inner) = &self.inner {
            let mut state = inner.state.lock().unwrap();
            let rec = &mut state.records[self.id as usize - 1];
            rec.attrs.push((key, value));
        }
    }

    /// Closes the span and returns its measured duration. Works (and
    /// measures) even on disabled spans, so callers can use the span as
    /// their only timer.
    pub fn finish(mut self) -> Duration {
        let elapsed = self.start.elapsed();
        self.close(elapsed);
        self.done = true;
        elapsed
    }

    fn close(&self, elapsed: Duration) {
        if let Some(inner) = &self.inner {
            let mut state = inner.state.lock().unwrap();
            let rec = &mut state.records[self.id as usize - 1];
            rec.dur_us = elapsed.as_micros() as u64;
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.done {
            self.close(self.start.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_spans_keep_creation_order() {
        let trace = Trace::new();
        let ctx = trace.root();
        ctx.span("a").finish();
        ctx.span("b").finish();
        ctx.span("c").finish();
        assert_eq!(trace.shape(), "a;b;c;");
    }

    #[test]
    fn span_at_orders_by_index_not_creation() {
        let trace = Trace::new();
        let ctx = trace.root();
        let parent = ctx.span("stage");
        let pctx = parent.ctx();
        // Simulate scheduler-dependent completion order.
        pctx.span_at("shard", 2).finish();
        pctx.span_at("shard", 0).finish();
        pctx.span_at("shard", 1).finish();
        // A serial span created after the fan-out sorts after all of it.
        pctx.span("merge").finish();
        parent.finish();
        assert_eq!(trace.shape(), "stage(shard;shard;shard;merge;);");
    }

    #[test]
    fn shape_is_identical_regardless_of_interleaving() {
        let build = |order: &[u64]| {
            let trace = Trace::new();
            let ctx = trace.root();
            for &i in order {
                let s = ctx.span_at("lattice", i);
                s.ctx().span("translate").finish();
                s.ctx().span("cube").finish();
                s.finish();
            }
            trace.shape()
        };
        assert_eq!(build(&[0, 1, 2]), build(&[2, 0, 1]));
    }

    #[test]
    fn disabled_ctx_records_nothing_but_finish_measures() {
        let ctx = SpanCtx::disabled();
        assert!(!ctx.enabled());
        let span = ctx.span("x");
        span.attr("k", 1);
        let d = span.finish();
        assert!(d >= Duration::ZERO);
    }

    #[test]
    fn sum_attr_filters_by_span_name() {
        let trace = Trace::new();
        let ctx = trace.root();
        for (i, cells) in [(0u64, 10u64), (1, 20), (2, 12)] {
            let s = ctx.span_at("shard", i);
            s.attr("cells", cells);
            s.attr("facts", cells * 2);
            s.finish();
        }
        // An `emit` span reusing the `cells` key must not leak into the sum.
        let e = ctx.span("emit");
        e.attr("cells", 999);
        e.finish();
        assert_eq!(trace.sum_attr("shard", "cells"), 42);
        assert_eq!(trace.sum_attr("shard", "facts"), 84);
        assert_eq!(trace.sum_attr("shard", "missing"), 0);
        assert_eq!(trace.sum_attr("nope", "cells"), 0);
    }

    #[test]
    fn stage_durations_and_json_expose_top_level_spans() {
        let trace = Trace::new();
        let ctx = trace.root();
        let a = ctx.span("cfs_selection");
        a.attr("candidates", 4);
        a.finish();
        ctx.span("evaluation").finish();
        let stages: Vec<&str> = trace.stage_durations().iter().map(|(n, _)| *n).collect();
        assert_eq!(stages, ["cfs_selection", "evaluation"]);
        let json = trace.spans_json();
        assert!(json.starts_with("[{\"name\":\"cfs_selection\""), "{json}");
        assert!(json.contains("\"attrs\":{\"candidates\":4}"), "{json}");
    }
}
