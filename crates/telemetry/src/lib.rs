//! Dependency-free observability substrate for the spade stack.
//!
//! Three layers, all std-only and cheap enough to stay on in production:
//!
//! - [`metrics`] — a registry of named counters, gauges, and fixed-boundary
//!   histograms. Record paths are lock-free (relaxed atomics; the histogram
//!   sum is a CAS loop over `f64` bits); rendering produces deterministic
//!   Prometheus text exposition. Unlabeled single-series metrics render as
//!   bare `name value` lines, labeled series group under one
//!   `# HELP`/`# TYPE` family in registration order.
//! - [`span`] — hierarchical per-request traces. A [`span::SpanCtx`] is
//!   threaded alongside a request budget through pipeline stages; parallel
//!   fan-outs create children with explicit order keys
//!   ([`span::SpanCtx::span_at`]) so serial and parallel runs produce the
//!   same span **tree shape** (names + nesting + sibling order) modulo
//!   timing. A disabled context ([`span::SpanCtx::disabled`]) makes every
//!   operation a branch-and-return.
//! - [`slowlog`] — a bounded in-memory log keeping the N slowest request
//!   traces over a threshold, for `GET /debug/slow`-style surfacing.
//! - [`ledger`] — a request analytics ledger: one compact record per
//!   completed request in a lock-light bounded ring, plus streaming
//!   per-graph cost profiles (EWMA + P² quantile sketches, no sample
//!   retention) and an estimate-vs-actual q-error scorecard, for
//!   `GET /debug/queries`-style surfacing and adaptive admission.
//!
//! [`conformance`] parses Prometheus text back and validates it (HELP/TYPE
//! present, histogram buckets monotone, `+Inf` bucket equals `_count`); it
//! backs the unit tests, the serve loopback tests, and the `promcheck`
//! binary CI pipes a live `/metrics` scrape through.

pub mod conformance;
pub mod ledger;
pub mod metrics;
pub mod slowlog;
pub mod span;

pub use conformance::{check, ExpositionSummary};
pub use ledger::{
    CacheOutcome, Ledger, LedgerRecord, ProfileSnapshot, ResponseClass, ScorecardSnapshot,
};
pub use metrics::{
    Counter, Gauge, Histogram, Registry, DURATION_BOUNDS_SECONDS, FINE_DURATION_BOUNDS_SECONDS,
};
pub use slowlog::{SlowEntry, SlowLog};
pub use span::{Span, SpanCtx, Trace};
