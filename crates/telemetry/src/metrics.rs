//! Metrics registry: counters, gauges, fixed-boundary histograms, and a
//! deterministic Prometheus text renderer.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc` clones;
//! the registry keeps a second reference for rendering. Record paths touch
//! only relaxed atomics. Families render in registration order, series
//! within a family in registration order, so two scrapes of the same
//! registry state are byte-identical.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Standard latency bucket boundaries in seconds: 500µs .. 10s.
pub const DURATION_BOUNDS_SECONDS: [f64; 14] =
    [0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0];

/// Fine-grained latency bucket boundaries in seconds: 10µs .. 1s. For
/// sub-millisecond phenomena (queue wait on a warm path, cancel latency)
/// where [`DURATION_BOUNDS_SECONDS`]'s 500µs first bucket swallows the
/// whole distribution.
pub const FINE_DURATION_BOUNDS_SECONDS: [f64; 14] = [
    0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.05, 0.1,
    0.5, 1.0,
];

/// A monotonically increasing counter.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not attached to any registry (all updates are kept but
    /// never rendered). Useful for disabled-telemetry configurations.
    pub fn detached() -> Self {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `v`.
    #[inline]
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    /// Overwrites the value. Only for mirroring an *externally maintained*
    /// monotone count (e.g. cache statistics owned by another subsystem)
    /// into the exposition at scrape time.
    #[inline]
    pub fn mirror(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A gauge not attached to any registry.
    pub fn detached() -> Self {
        Gauge(Arc::new(AtomicU64::new(0)))
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `v`.
    #[inline]
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    /// Subtracts `v` (wrapping, like the underlying atomic; callers keep
    /// inc/dec balanced).
    #[inline]
    pub fn sub(&self, v: u64) {
        self.0.fetch_sub(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct HistogramInner {
    /// Sorted finite upper bounds; bucket `i` counts observations with
    /// `v <= bounds[i]` (non-cumulative storage, rendered cumulative).
    bounds: Box<[f64]>,
    /// `bounds.len() + 1` slots; the last is the `+Inf` overflow bucket.
    buckets: Box<[AtomicU64]>,
    /// Sum of observations as `f64` bits, updated via CAS.
    sum_bits: AtomicU64,
}

/// A fixed-boundary histogram with a lock-free record path.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    fn with_bounds(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let buckets = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistogramInner {
            bounds: bounds.into(),
            buckets,
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }))
    }

    /// A histogram not attached to any registry.
    pub fn detached(bounds: &[f64]) -> Self {
        Self::with_bounds(bounds)
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: f64) {
        let idx = self.0.bounds.partition_point(|b| *b < v);
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        let mut cur = self.0.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.0.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Records a duration in seconds.
    #[inline]
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.0.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

enum SeriesValue {
    Scalar(Arc<AtomicU64>),
    Histogram(Arc<HistogramInner>),
}

struct Series {
    labels: Vec<(&'static str, String)>,
    value: SeriesValue,
}

struct Family {
    name: &'static str,
    help: &'static str,
    kind: Kind,
    series: Vec<Series>,
}

/// A registry of metric families rendered as Prometheus text exposition.
#[derive(Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    fn register(
        &self,
        name: &'static str,
        help: &'static str,
        kind: Kind,
        labels: &[(&'static str, &str)],
        value: SeriesValue,
    ) {
        let labels: Vec<(&'static str, String)> =
            labels.iter().map(|(k, v)| (*k, (*v).to_owned())).collect();
        let mut families = self.families.lock().unwrap();
        if let Some(family) = families.iter_mut().find(|f| f.name == name) {
            assert!(family.kind == kind, "metric {name} registered with two kinds");
            assert!(
                family.series.iter().all(|s| s.labels != labels),
                "metric {name} registered twice with the same labels"
            );
            family.series.push(Series { labels, value });
        } else {
            families.push(Family { name, help, kind, series: vec![Series { labels, value }] });
        }
    }

    /// Registers an unlabeled counter.
    pub fn counter(&self, name: &'static str, help: &'static str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Registers a counter series under `name` with the given labels.
    pub fn counter_with(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Counter {
        let c = Counter::detached();
        self.register(name, help, Kind::Counter, labels, SeriesValue::Scalar(c.0.clone()));
        c
    }

    /// Registers an unlabeled gauge.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Registers a gauge series under `name` with the given labels.
    pub fn gauge_with(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Gauge {
        let g = Gauge::detached();
        self.register(name, help, Kind::Gauge, labels, SeriesValue::Scalar(g.0.clone()));
        g
    }

    /// Registers an unlabeled histogram with the given finite upper bounds.
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        bounds: &[f64],
    ) -> Histogram {
        self.histogram_with(name, help, &[], bounds)
    }

    /// Registers a histogram series under `name` with the given labels.
    pub fn histogram_with(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
        bounds: &[f64],
    ) -> Histogram {
        let h = Histogram::with_bounds(bounds);
        self.register(name, help, Kind::Histogram, labels, SeriesValue::Histogram(h.0.clone()));
        h
    }

    /// Renders the Prometheus text exposition. Deterministic: families in
    /// registration order, series in registration order within a family.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(4096);
        let families = self.families.lock().unwrap();
        for family in families.iter() {
            out.push_str("# HELP ");
            out.push_str(family.name);
            out.push(' ');
            out.push_str(family.help);
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(family.name);
            out.push(' ');
            out.push_str(family.kind.as_str());
            out.push('\n');
            for series in &family.series {
                match &series.value {
                    SeriesValue::Scalar(v) => {
                        out.push_str(family.name);
                        push_labels(&mut out, &series.labels, None);
                        let _ = writeln_u64(&mut out, v.load(Ordering::Relaxed));
                    }
                    SeriesValue::Histogram(h) => {
                        render_histogram(&mut out, family.name, series, h)
                    }
                }
            }
        }
        out
    }
}

fn render_histogram(out: &mut String, name: &str, series: &Series, h: &HistogramInner) {
    let mut cumulative = 0u64;
    for (i, bucket) in h.buckets.iter().enumerate() {
        cumulative += bucket.load(Ordering::Relaxed);
        let le = if i < h.bounds.len() { fmt_f64(h.bounds[i]) } else { "+Inf".to_owned() };
        out.push_str(name);
        out.push_str("_bucket");
        push_labels(out, &series.labels, Some(&le));
        let _ = writeln_u64(out, cumulative);
    }
    out.push_str(name);
    out.push_str("_sum");
    push_labels(out, &series.labels, None);
    out.push_str(&fmt_f64(f64::from_bits(h.sum_bits.load(Ordering::Relaxed))));
    out.push('\n');
    out.push_str(name);
    out.push_str("_count");
    push_labels(out, &series.labels, None);
    let _ = writeln_u64(out, cumulative);
}

fn push_labels(out: &mut String, labels: &[(&'static str, String)], le: Option<&str>) {
    if labels.is_empty() && le.is_none() {
        out.push(' ');
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(v);
        out.push('"');
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str("le=\"");
        out.push_str(le);
        out.push('"');
    }
    out.push_str("} ");
}

fn writeln_u64(out: &mut String, v: u64) -> std::fmt::Result {
    use std::fmt::Write;
    writeln!(out, "{v}")
}

/// Deterministic float formatting: Rust's shortest-roundtrip `Display`
/// (`0.0005`, `1`, `2.5`), which Prometheus parsers accept.
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlabeled_counter_renders_bare_name_value_line() {
        let r = Registry::new();
        let c = r.counter("spade_serve_explore_total", "explore requests");
        c.add(16);
        let text = r.render();
        assert!(text.contains("spade_serve_explore_total 16\n"), "{text}");
        assert!(text.contains("# TYPE spade_serve_explore_total counter\n"));
    }

    #[test]
    fn labeled_series_share_one_family_block() {
        let r = Registry::new();
        let a = r.counter_with("reqs", "h", &[("route", "a")]);
        let b = r.counter_with("reqs", "h", &[("route", "b")]);
        a.inc();
        b.add(2);
        let text = r.render();
        assert_eq!(text.matches("# TYPE reqs counter").count(), 1);
        assert!(text.contains("reqs{route=\"a\"} 1\n"));
        assert!(text.contains("reqs{route=\"b\"} 2\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_inf_equals_count() {
        let r = Registry::new();
        let h = r.histogram("lat", "latency", &[0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(0.5);
        h.observe(5.0);
        let text = r.render();
        assert!(text.contains("lat_bucket{le=\"0.1\"} 1\n"), "{text}");
        assert!(text.contains("lat_bucket{le=\"1\"} 3\n"), "{text}");
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 4\n"), "{text}");
        assert!(text.contains("lat_count 4\n"), "{text}");
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 6.05).abs() < 1e-9);
    }

    #[test]
    fn boundary_observation_lands_in_le_bucket() {
        let h = Histogram::detached(&[1.0]);
        h.observe(1.0);
        assert_eq!(h.0.buckets[0].load(Ordering::Relaxed), 1);
    }

    #[test]
    fn render_is_deterministic() {
        let build = || {
            let r = Registry::new();
            r.counter("a_total", "a");
            r.gauge("b", "b");
            r.histogram("c_seconds", "c", &DURATION_BOUNDS_SECONDS);
            r.render()
        };
        assert_eq!(build(), build());
    }
}
