//! What the daemon reports about itself: the metric registry, the status
//! views and the structured request log. `/metrics` and `/stats` read each
//! value owned outside the registry once per scrape, in [`mirror`], into
//! its handle and render from the handles; the scrape lock keeps
//! concurrent scrapes from interleaving those stores, so one body never
//! mixes two reads. `/graphs` and `/debug/queries` read only what they
//! print.

use super::{Response, ServingState, Shared};
use crate::catalog::GraphEntry;
use crate::http::Request;
use spade_core::json::JsonWriter;
use spade_core::Trace;
use spade_telemetry::ledger::{Ledger, ProfileSnapshot};
use spade_telemetry::{
    Counter, Gauge, Histogram, Registry, DURATION_BOUNDS_SECONDS, FINE_DURATION_BOUNDS_SECONDS,
};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// The online pipeline stages recorded as top-level spans by
/// [`spade_core::Spade::run_on_in`] under [`spade_core::ExecCtx::traced`]
/// — one `stage_seconds` histogram series per name.
const STAGES: [&str; 6] = [
    "offline_analysis",
    "cfs_selection",
    "attribute_analysis",
    "enumeration",
    "evaluation",
    "topk",
];

/// Every server metric, registered on one [`Registry`] and rendered at
/// `GET /metrics`. Handles the rest of the server updates at the event site
/// are `pub(super)`; the private ones are written only in this module.
pub(super) struct Metrics {
    registry: Registry,
    /// Held from one scrape's [`mirror`] until its view has rendered.
    scrape: Mutex<()>,
    pub(super) requests_total: Counter,
    pub(super) explore_total: Counter,
    pub(super) explore_cached_total: Counter,
    pub(super) reload_total: Counter,
    pub(super) http_errors_total: Counter,
    pub(super) responses_4xx: Counter,
    pub(super) responses_5xx: Counter,
    pub(super) connections_total: Counter,
    pub(super) rejected_busy_total: Counter,
    pub(super) shed_total: Counter,
    pub(super) timeouts_total: Counter,
    pub(super) panics_total: Counter,
    /// Catalog counters: snapshot (re)opens and budget evictions.
    graph_loads_total: Counter,
    graph_evictions_total: Counter,
    cache_hits_total: Counter,
    cache_misses_total: Counter,
    cache_evictions_total: Counter,
    pub(super) in_flight: Gauge,
    pub(super) queue_depth: Gauge,
    admission_capacity: Gauge,
    admission_inflight_cost: Gauge,
    cache_bytes: Gauge,
    snapshot_generation: Gauge,
    snapshot_triples: Gauge,
    /// Catalog gauges: how many of the registered graphs hold a loaded
    /// state, the resident-estimate sum, and the configured budget.
    graphs_loaded: Gauge,
    graph_resident_bytes_total: Gauge,
    graph_memory_budget_bytes: Gauge,
    uptime_seconds: Gauge,
    /// `request_seconds{route=...}`: explore_cold (full evaluation),
    /// explore_warm (cache hit), reload.
    pub(super) request_seconds_explore_cold: Histogram,
    pub(super) request_seconds_explore_warm: Histogram,
    pub(super) request_seconds_reload: Histogram,
    /// `stage_seconds{stage=...}`, fed from every cold explore's trace —
    /// parallel to [`STAGES`].
    stage_seconds: Vec<Histogram>,
    /// Time connections spent queued between accept and worker pickup.
    pub(super) queue_wait_seconds: Histogram,
    /// How far past its deadline a cancelled request ran before the
    /// cooperative unwind surfaced (replaces `cancel_latency_ms_total`).
    pub(super) cancel_latency_seconds: Histogram,
}

impl Metrics {
    pub(super) fn new() -> Metrics {
        let r = Registry::new();
        let b = &DURATION_BOUNDS_SECONDS;
        let request_seconds = |route: &str| {
            r.histogram_with(
                "spade_serve_request_seconds",
                "Request handling latency by route",
                &[("route", route)],
                b,
            )
        };
        Metrics {
            requests_total: r.counter("spade_serve_requests_total", "Requests routed"),
            explore_total: r.counter("spade_serve_explore_total", "Explore requests"),
            explore_cached_total: r.counter(
                "spade_serve_explore_cached_total",
                "Explore requests answered from cache",
            ),
            reload_total: r.counter("spade_serve_reload_total", "Successful reloads"),
            http_errors_total: r
                .counter("spade_serve_http_errors_total", "Malformed or over-limit requests"),
            responses_4xx: r
                .counter("spade_serve_responses_4xx_total", "Responses with a 4xx status"),
            responses_5xx: r
                .counter("spade_serve_responses_5xx_total", "Responses with a 5xx status"),
            connections_total: r
                .counter("spade_serve_connections_total", "Accepted connections"),
            rejected_busy_total: r.counter(
                "spade_serve_rejected_busy_total",
                "Connections answered 503 at the accept queue",
            ),
            shed_total: r.counter(
                "spade_serve_shed_total",
                "Explore requests shed by admission control",
            ),
            timeouts_total: r.counter(
                "spade_serve_timeouts_total",
                "Explore requests cancelled at their deadline",
            ),
            panics_total: r.counter(
                "spade_serve_panics_total",
                "Requests answered 500 after a caught panic",
            ),
            graph_loads_total: r.counter(
                "spade_serve_graph_loads_total",
                "Snapshot (re)opens performed by the graph catalog",
            ),
            graph_evictions_total: r.counter(
                "spade_serve_graph_evictions_total",
                "Graph states evicted by the graph memory budget",
            ),
            cache_hits_total: r.counter("spade_serve_cache_hits_total", "Result-cache hits"),
            cache_misses_total: r
                .counter("spade_serve_cache_misses_total", "Result-cache misses"),
            cache_evictions_total: r
                .counter("spade_serve_cache_evictions_total", "Result-cache evictions"),
            in_flight: r.gauge("spade_serve_in_flight", "Requests currently executing"),
            queue_depth: r.gauge(
                "spade_serve_queue_depth",
                "Connections accepted but not yet picked up by a worker",
            ),
            admission_capacity: r.gauge(
                "spade_serve_admission_capacity",
                "Admission-control capacity in work units (0 = unlimited)",
            ),
            admission_inflight_cost: r.gauge(
                "spade_serve_admission_inflight_cost",
                "Estimated work units currently admitted",
            ),
            cache_bytes: r.gauge("spade_serve_cache_bytes", "Result-cache bytes in use"),
            snapshot_generation: r
                .gauge("spade_serve_snapshot_generation", "Current snapshot generation"),
            snapshot_triples: r.gauge("spade_serve_snapshot_triples", "Triples served"),
            graphs_loaded: r.gauge(
                "spade_serve_graphs_loaded",
                "Registered graphs currently holding a loaded state",
            ),
            graph_resident_bytes_total: r.gauge(
                "spade_serve_graph_resident_bytes_total",
                "Sum of loaded graph states' resident-byte estimates",
            ),
            graph_memory_budget_bytes: r.gauge(
                "spade_serve_graph_memory_budget_bytes",
                "Configured graph memory budget in bytes (0 = unlimited)",
            ),
            uptime_seconds: r
                .gauge("spade_serve_uptime_seconds", "Whole seconds since the server started"),
            request_seconds_explore_cold: request_seconds("explore_cold"),
            request_seconds_explore_warm: request_seconds("explore_warm"),
            request_seconds_reload: request_seconds("reload"),
            stage_seconds: STAGES
                .iter()
                .map(|stage| {
                    r.histogram_with(
                        "spade_serve_stage_seconds",
                        "Per-pipeline-stage duration across cold explores",
                        &[("stage", stage)],
                        b,
                    )
                })
                .collect(),
            // Queue wait and cancel latency are sub-millisecond phenomena
            // on a healthy server; the fine bounds (10µs first bucket)
            // resolve them where the shared bounds' 500µs bucket cannot.
            queue_wait_seconds: r.histogram(
                "spade_serve_queue_wait_seconds",
                "Time connections waited between accept and worker pickup",
                &FINE_DURATION_BOUNDS_SECONDS,
            ),
            cancel_latency_seconds: r.histogram(
                "spade_serve_cancel_latency_seconds",
                "Time past the deadline before cooperative cancellation unwound",
                &FINE_DURATION_BOUNDS_SECONDS,
            ),
            registry: r,
            scrape: Mutex::new(()),
        }
    }

    /// Feeds one cold explore's trace into the per-stage histograms.
    pub(super) fn observe_stages(&self, trace: &Trace) {
        for (name, duration) in trace.stage_durations() {
            if let Some(i) = STAGES.iter().position(|s| *s == name) {
                self.stage_seconds[i].observe_duration(duration);
            }
        }
    }

    /// Registers the per-graph metric series for one catalog entry. Called
    /// exactly once per graph at startup (the registry treats a duplicate
    /// (name, labels) registration as a bug). Catalog entries are sorted by
    /// name and the quantile labels ascend, so every per-graph family's
    /// series render label-sorted (the `promcheck --require` invariant).
    pub(super) fn for_graph(&self, name: &str) -> GraphMetrics {
        let labels: &[(&'static str, &str)] = &[("graph", name)];
        let quantile_gauges = |family: &'static str, help: &'static str| -> Vec<Gauge> {
            PROFILE_QUANTILES
                .iter()
                .map(|&q| {
                    self.registry.gauge_with(family, help, &[("graph", name), ("quantile", q)])
                })
                .collect()
        };
        let counter = |family, help| self.registry.counter_with(family, help, labels);
        let gauge = |family, help| self.registry.gauge_with(family, help, labels);
        GraphMetrics {
            explore_total: counter(
                "spade_serve_graph_explore_total",
                "Explore requests routed to this graph",
            ),
            slo_breach_total: counter(
                "spade_serve_slo_breach_total",
                "Cold explores that exceeded the latency SLO",
            ),
            generation: gauge(
                "spade_serve_graph_generation",
                "Last published generation of this graph (0 = never loaded)",
            ),
            resident_bytes: gauge(
                "spade_serve_graph_resident_bytes",
                "Resident-byte estimate of this graph's loaded state (0 = cold)",
            ),
            loaded: gauge(
                "spade_serve_graph_loaded",
                "Whether this graph currently holds a loaded state",
            ),
            cost_quantiles: quantile_gauges(
                "spade_serve_graph_cost_units",
                "Measured per-request cost (cells + facts) quantile sketch",
            ),
            latency_quantiles: quantile_gauges(
                "spade_serve_graph_latency_us",
                "Cold-explore latency quantile sketch in microseconds",
            ),
            cost_ewma: gauge(
                "spade_serve_graph_cost_ewma",
                "EWMA of measured per-request cost (cells + facts)",
            ),
            latency_ewma_us: gauge(
                "spade_serve_graph_latency_ewma_us",
                "EWMA of cold-explore latency in microseconds",
            ),
        }
    }
}

/// Quantile labels of the per-graph profile gauges, in ascending (and
/// lexicographically sorted) order, parallel to the ledger's sketch order.
const PROFILE_QUANTILES: [&str; 3] = ["0.5", "0.95", "0.99"];

/// Per-graph metric series (`{graph="…"}` labels), parallel to the
/// catalog's entry order. The cost-profile gauges mirror the request
/// ledger's streaming sketches at scrape time.
pub(super) struct GraphMetrics {
    pub(super) explore_total: Counter,
    pub(super) slo_breach_total: Counter,
    generation: Gauge,
    resident_bytes: Gauge,
    loaded: Gauge,
    /// p50/p95/p99 of measured cost, parallel to [`PROFILE_QUANTILES`].
    cost_quantiles: Vec<Gauge>,
    /// p50/p95/p99 of cold-explore latency (µs).
    latency_quantiles: Vec<Gauge>,
    cost_ewma: Gauge,
    latency_ewma_us: Gauge,
}

/// What one [`mirror`] read that the registry does not hold, and the
/// scrape lock, held while the view renders.
struct Scrape<'a> {
    _serial: MutexGuard<'a, ()>,
    /// The default graph's state, when loaded.
    default_state: Option<Arc<ServingState>>,
    cache_entries: usize,
    uptime: Duration,
    profiles: Vec<ProfileSnapshot>,
}

/// The one place a scrape reads values owned outside the registry: cache
/// statistics, catalog counters, per-graph state, admission, the ledger's
/// cost profiles and uptime, each read once and written into its handle.
fn mirror(shared: &Shared) -> Scrape<'_> {
    let m = &shared.metrics;
    let serial = m.scrape.lock().unwrap_or_else(PoisonError::into_inner);
    let cache = shared.cache.lock().unwrap_or_else(PoisonError::into_inner).stats();
    m.cache_hits_total.mirror(cache.hits);
    m.cache_misses_total.mirror(cache.misses);
    m.cache_evictions_total.mirror(cache.evictions);
    m.cache_bytes.set(cache.bytes as u64);
    m.graph_loads_total.mirror(shared.catalog.loads_total());
    m.graph_evictions_total.mirror(shared.catalog.evictions_total());
    m.graph_memory_budget_bytes.set(shared.catalog.budget_bytes());
    // One read per graph; the catalog totals and the default graph's
    // unlabeled snapshot gauges derive from the same reads.
    let (mut loaded, mut resident, mut default_state) = (0, 0, None);
    for (i, (entry, gm)) in
        shared.catalog.entries().iter().zip(&shared.graph_metrics).enumerate()
    {
        let state = entry.peek();
        let bytes = entry.resident_bytes();
        gm.generation.set(entry.generation());
        gm.resident_bytes.set(bytes);
        gm.loaded.set(u64::from(state.is_some()));
        loaded += u64::from(state.is_some());
        resident += bytes;
        if i == shared.default_index {
            // The unlabeled snapshot gauges describe the default graph, so
            // one-graph dashboards read unchanged; a cold slot serves no
            // triples.
            m.snapshot_generation.set(gm.generation.get());
            m.snapshot_triples.set(state.as_ref().map_or(0, |s| s.offline.graph.len() as u64));
            default_state = state;
        }
    }
    m.graphs_loaded.set(loaded);
    m.graph_resident_bytes_total.set(resident);
    m.admission_capacity.set(shared.admission.capacity());
    m.admission_inflight_cost.set(shared.admission.inflight());
    // `profile_snapshots()` and `graph_metrics` are both ordered by sorted
    // graph name, so the zip pairs each profile with its gauges.
    let profiles = shared.ledger.profile_snapshots();
    for (profile, gm) in profiles.iter().zip(&shared.graph_metrics) {
        gm.cost_ewma.set(profile.cost_ewma.round() as u64);
        gm.latency_ewma_us.set(profile.latency_ewma_us.round() as u64);
        let cost = [profile.cost_p50, profile.cost_p95, profile.cost_p99];
        let latency = [profile.latency_p50_us, profile.latency_p95_us, profile.latency_p99_us];
        for (gauge, value) in gm.cost_quantiles.iter().zip(cost) {
            gauge.set(value.round() as u64);
        }
        for (gauge, value) in gm.latency_quantiles.iter().zip(latency) {
            gauge.set(value.round() as u64);
        }
    }
    let uptime = shared.started.elapsed();
    m.uptime_seconds.set(uptime.as_secs());
    Scrape { _serial: serial, default_state, cache_entries: cache.entries, uptime, profiles }
}

/// The per-graph entries of `/graphs` and `/stats`: one `(loaded,
/// generation, resident_bytes)` per catalog entry, in entry order;
/// `/graphs` adds each snapshot path.
fn write_graphs(
    w: &mut JsonWriter,
    shared: &Shared,
    values: impl Iterator<Item = (bool, u64, u64)>,
    with_path: bool,
) {
    w.key("graphs").begin_array();
    for (entry, (loaded, generation, resident)) in shared.catalog.entries().iter().zip(values) {
        w.begin_object();
        w.key("name").string(entry.name());
        w.key("loaded").bool(loaded);
        w.key("generation").uint(generation);
        w.key("resident_bytes").uint(resident);
        if with_path {
            w.key("path").string(&entry.path().display().to_string());
        }
        w.end_object();
    }
    w.end_array();
}

/// The observed per-graph cost/latency profiles (`/stats`, `/debug/queries`).
fn write_cost_profiles(w: &mut JsonWriter, profiles: &[ProfileSnapshot]) {
    w.key("cost_profiles").begin_array();
    for profile in profiles {
        w.raw(&profile.to_json());
    }
    w.end_array();
}

/// The estimate-vs-actual scorecard (`/stats`, `/debug/queries`).
fn write_scorecard(w: &mut JsonWriter, ledger: &Ledger) {
    w.key("scorecard").raw(&ledger.scorecard_snapshot().to_json());
}

/// The catalog entry the legacy single-graph routes resolve to.
fn default_entry(shared: &Shared) -> &Arc<GraphEntry> {
    &shared.catalog.entries()[shared.default_index]
}

pub(super) fn healthz(shared: &Shared) -> Response {
    let entry = default_entry(shared);
    let mut w = JsonWriter::compact();
    w.begin_object();
    w.key("status").string("ok");
    w.key("generation").uint(entry.generation());
    w.key("graph").string(entry.name());
    w.key("graphs").usize(shared.catalog.entries().len());
    w.end_object();
    Response::json(200, w.finish())
}

/// `GET /graphs`: the registered catalog, one object per graph.
pub(super) fn graphs_index(shared: &Shared) -> Response {
    let entries = shared.catalog.entries().iter();
    let values = entries.map(|e| (e.is_loaded(), e.generation(), e.resident_bytes()));
    let mut w = JsonWriter::compact();
    w.begin_object();
    w.key("default").string(default_entry(shared).name());
    write_graphs(&mut w, shared, values, true);
    w.end_object();
    Response::json(200, w.finish())
}

/// `GET /debug/queries`: the analytics ledger — newest-first record tail,
/// per-graph cost profiles, and the estimate-vs-actual scorecard grading
/// [`crate::admission::estimate_cost`] against measured work.
pub(super) fn debug_queries(shared: &Shared) -> Response {
    let mut w = JsonWriter::compact();
    w.begin_object();
    w.key("capacity").usize(shared.ledger.capacity());
    w.key("recorded_total").uint(shared.ledger.recorded_total());
    w.key("admission_capacity").uint(shared.admission.capacity());
    write_scorecard(&mut w, &shared.ledger);
    w.key("overall").raw(&shared.ledger.overall_snapshot().to_json());
    write_cost_profiles(&mut w, &shared.ledger.profile_snapshots());
    w.key("entries").begin_array();
    for record in shared.ledger.tail(shared.ledger.capacity()) {
        w.raw(&record.to_json());
    }
    w.end_array();
    w.end_object();
    Response::json(200, w.finish())
}

pub(super) fn stats(shared: &Shared) -> Response {
    let scrape = mirror(shared);
    let m = &shared.metrics;
    let mut w = JsonWriter::compact();
    w.begin_object();
    // The default graph's snapshot section keeps the one-graph shape; the
    // budget may have evicted even the default, so a cold slot reports its
    // last generation and no triple facts.
    w.key("snapshot").begin_object();
    w.key("graph").string(default_entry(shared).name());
    w.key("generation").uint(m.snapshot_generation.get());
    match &scrape.default_state {
        Some(state) => {
            w.key("source").string(&state.source.display().to_string());
            w.key("triples").uint(m.snapshot_triples.get());
            w.key("terms").usize(state.offline.graph.dict.len());
            w.key("properties").usize(state.offline.stats.property_count());
            w.key("load_ms").f64(state.offline.load_time.as_secs_f64() * 1e3);
        }
        None => {
            w.key("loaded").bool(false);
        }
    }
    w.end_object();
    w.key("catalog").begin_object();
    w.key("graphs").usize(shared.catalog.entries().len());
    w.key("loaded").uint(m.graphs_loaded.get());
    w.key("resident_bytes").uint(m.graph_resident_bytes_total.get());
    w.key("budget_bytes").uint(m.graph_memory_budget_bytes.get());
    w.key("loads_total").uint(m.graph_loads_total.get());
    w.key("evictions_total").uint(m.graph_evictions_total.get());
    w.end_object();
    let values = shared.graph_metrics.iter();
    let values =
        values.map(|g| (g.loaded.get() != 0, g.generation.get(), g.resident_bytes.get()));
    write_graphs(&mut w, shared, values, false);
    w.key("cache").begin_object();
    w.key("hits").uint(m.cache_hits_total.get());
    w.key("misses").uint(m.cache_misses_total.get());
    w.key("evictions").uint(m.cache_evictions_total.get());
    w.key("entries").usize(scrape.cache_entries);
    w.key("bytes").uint(m.cache_bytes.get());
    w.end_object();
    w.key("server").begin_object();
    w.key("workers").usize(shared.config.workers);
    w.key("request_threads").usize(shared.request_threads);
    w.key("uptime_secs").f64(scrape.uptime.as_secs_f64());
    w.key("requests_total").uint(m.requests_total.get());
    w.key("explore_total").uint(m.explore_total.get());
    w.key("explore_cached_total").uint(m.explore_cached_total.get());
    w.key("reload_total").uint(m.reload_total.get());
    w.key("connections_total").uint(m.connections_total.get());
    w.key("rejected_busy_total").uint(m.rejected_busy_total.get());
    w.key("shed_total").uint(m.shed_total.get());
    w.key("timeouts_total").uint(m.timeouts_total.get());
    w.key("panics_total").uint(m.panics_total.get());
    w.key("graph_loads_total").uint(m.graph_loads_total.get());
    w.key("graph_evictions_total").uint(m.graph_evictions_total.get());
    w.key("http_errors_total").uint(m.http_errors_total.get());
    w.key("responses_4xx").uint(m.responses_4xx.get());
    w.key("responses_5xx").uint(m.responses_5xx.get());
    w.key("in_flight").uint(m.in_flight.get());
    w.key("queue_depth").uint(m.queue_depth.get());
    w.key("admission_capacity").uint(m.admission_capacity.get());
    w.key("admission_inflight_cost").uint(m.admission_inflight_cost.get());
    w.key("slow_log").begin_object();
    w.key("threshold_ms").uint(shared.slow.threshold_ms());
    w.key("capacity").usize(shared.slow.capacity());
    w.end_object();
    w.end_object();
    // Analytics ledger: per-graph observed cost/latency profiles and the
    // estimate-vs-actual scorecard (see `GET /debug/queries` for the tail).
    write_cost_profiles(&mut w, &scrape.profiles);
    write_scorecard(&mut w, &shared.ledger);
    w.end_object();
    Response::json(200, w.finish())
}

pub(super) fn metrics(shared: &Shared) -> Response {
    let _scrape = mirror(shared);
    let body = shared.metrics.registry.render();
    Response { content_type: "text/plain; version=0.0.4", ..Response::json(200, body) }
}

/// One structured JSON log line per request on stderr (`--log-json`).
/// Fields: unix_ms, id, method, route (path without query), status,
/// generation, duration_ms, and a `cause` for failure statuses
/// (panic / timeout / shed).
pub(super) fn log_request(
    shared: &Shared,
    request: &Request,
    id: u64,
    response: &Response,
    panicked: bool,
    elapsed: Duration,
) {
    let route = request.path.split('?').next().unwrap_or(&request.path);
    // Graph-scoped routes name their graph; the legacy unprefixed explore
    // and reload routes resolve to the default graph. Catalog-wide routes
    // (`/stats`, `/metrics`, …) carry no graph field.
    let graph = if let Some(rest) = route.strip_prefix("/graphs/") {
        rest.split('/').next().filter(|name| !name.is_empty())
    } else if matches!(route, "/explore" | "/reload") {
        Some(default_entry(shared).name())
    } else {
        None
    };
    let cause = match response.status {
        _ if panicked => Some("panic"),
        504 => Some("timeout"),
        503 => Some("shed"),
        _ => None,
    };
    let mut w = JsonWriter::compact();
    w.begin_object();
    w.key("unix_ms").uint(unix_ms());
    w.key("id").uint(id);
    w.key("method").string(&request.method);
    w.key("route").string(route);
    if let Some(graph) = graph {
        w.key("graph").string(graph);
    }
    w.key("status").uint(u64::from(response.status));
    w.key("generation")
        .uint(response.generation.unwrap_or_else(|| default_entry(shared).generation()));
    w.key("duration_ms").f64(elapsed.as_secs_f64() * 1e3);
    if let Some(cause) = cause {
        w.key("cause").string(cause);
    }
    w.end_object();
    eprintln!("{}", w.finish());
}

pub(super) fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}
