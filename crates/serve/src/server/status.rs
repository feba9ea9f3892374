//! What the daemon reports about itself: the metric families, the status
//! views and the structured request log.
//!
//! Each metric family is declared once, as a row of a `families!` table
//! below; the row builds its handle, its registration and its `/stats`
//! keys, and the family table on the crate page is rendered from the same
//! rows. `/metrics` and `/stats` read each value owned outside the
//! registry once per scrape, in [`mirror`], into its handle and render
//! from the handles; the scrape lock keeps concurrent scrapes from
//! interleaving those stores, so one body never mixes two reads.
//! `/graphs` and `/debug/queries` read only what they print.

#[macro_use]
mod families;

use self::families::{Family, Handle, Section, Stat};
use super::{Response, ServingState, Shared};
use crate::catalog::GraphEntry;
use crate::http::Request;
use spade_core::json::JsonWriter;
use spade_core::Trace;
use spade_telemetry::ledger::{Ledger, ProfileSnapshot};
use spade_telemetry::{
    Counter, Gauge, Histogram, Registry, DURATION_BOUNDS_SECONDS, FINE_DURATION_BOUNDS_SECONDS,
};
use std::sync::{Arc, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

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

/// `route` labels of `request_seconds`, in handle order: explore_cold
/// (full evaluation), explore_warm (cache hit), reload.
const ROUTES: [&str; 3] = ["explore_cold", "explore_warm", "reload"];
pub(super) const EXPLORE_COLD: usize = 0;
pub(super) const EXPLORE_WARM: usize = 1;
pub(super) const RELOAD: usize = 2;

/// Quantile labels of the per-graph profile gauges, in ascending (and
/// lexicographically sorted) order, parallel to the ledger's sketch order.
const PROFILE_QUANTILES: [&str; 3] = ["0.5", "0.95", "0.99"];

families! {
    /// Every daemon-wide metric family, in registration order (which is the
    /// `/metrics` family order). Event sites update the handles directly;
    /// [`mirror`] writes the ones that copy values owned elsewhere.
    struct Metrics [] {
        requests_total: Counter = "spade_serve_requests_total", "Requests routed"
            => "server.requests_total" 3;
        explore_total: Counter = "spade_serve_explore_total", "Explore requests"
            => "server.explore_total" 4;
        explore_cached_total: Counter = "spade_serve_explore_cached_total",
            "Explore requests answered from cache" => "server.explore_cached_total" 5;
        reload_total: Counter = "spade_serve_reload_total", "Successful reloads"
            => "server.reload_total" 6;
        http_errors_total: Counter = "spade_serve_http_errors_total",
            "Malformed or over-limit requests" => "server.http_errors_total" 14;
        responses_4xx: Counter = "spade_serve_responses_4xx_total",
            "Responses with a 4xx status" => "server.responses_4xx" 15;
        responses_5xx: Counter = "spade_serve_responses_5xx_total",
            "Responses with a 5xx status" => "server.responses_5xx" 16;
        connections_total: Counter = "spade_serve_connections_total", "Accepted connections"
            => "server.connections_total" 7;
        rejected_busy_total: Counter = "spade_serve_rejected_busy_total",
            "Connections answered 503 at the accept queue" => "server.rejected_busy_total" 8;
        shed_total: Counter = "spade_serve_shed_total",
            "Explore requests shed by admission control" => "server.shed_total" 9;
        timeouts_total: Counter = "spade_serve_timeouts_total",
            "Explore requests cancelled at their deadline" => "server.timeouts_total" 10;
        panics_total: Counter = "spade_serve_panics_total",
            "Requests answered 500 after a caught panic" => "server.panics_total" 11;
        // Catalog counters: snapshot (re)opens and budget evictions.
        graph_loads_total: Counter = "spade_serve_graph_loads_total",
            "Snapshot (re)opens performed by the graph catalog" => "catalog.loads_total" 4
            => "server.graph_loads_total" 12;
        graph_evictions_total: Counter = "spade_serve_graph_evictions_total",
            "Graph states evicted by the graph memory budget" => "catalog.evictions_total" 5
            => "server.graph_evictions_total" 13;
        cache_hits_total: Counter = "spade_serve_cache_hits_total", "Result-cache hits"
            => "cache.hits" 0;
        cache_misses_total: Counter = "spade_serve_cache_misses_total", "Result-cache misses"
            => "cache.misses" 1;
        cache_evictions_total: Counter = "spade_serve_cache_evictions_total",
            "Result-cache evictions" => "cache.evictions" 2;
        in_flight: Gauge = "spade_serve_in_flight", "Requests currently executing"
            => "server.in_flight" 17;
        queue_depth: Gauge = "spade_serve_queue_depth",
            "Connections accepted but not yet picked up by a worker" => "server.queue_depth" 18;
        admission_capacity: Gauge = "spade_serve_admission_capacity",
            "Admission-control capacity in work units (0 = unlimited)"
            => "server.admission_capacity" 19;
        admission_inflight_cost: Gauge = "spade_serve_admission_inflight_cost",
            "Estimated work units currently admitted" => "server.admission_inflight_cost" 20;
        cache_bytes: Gauge = "spade_serve_cache_bytes", "Result-cache bytes in use"
            => "cache.bytes" 4;
        // The unlabeled snapshot gauges describe the default graph.
        snapshot_generation: Gauge = "spade_serve_snapshot_generation",
            "Current snapshot generation" => "snapshot.generation" 1;
        snapshot_triples: Gauge = "spade_serve_snapshot_triples", "Triples served"
            => "snapshot.triples" 3;
        graphs_loaded: Gauge = "spade_serve_graphs_loaded",
            "Registered graphs currently holding a loaded state" => "catalog.loaded" 1;
        graph_resident_bytes_total: Gauge = "spade_serve_graph_resident_bytes_total",
            "Sum of loaded graph states' resident-byte estimates" => "catalog.resident_bytes" 2;
        graph_memory_budget_bytes: Gauge = "spade_serve_graph_memory_budget_bytes",
            "Configured graph memory budget in bytes (0 = unlimited)"
            => "catalog.budget_bytes" 3;
        uptime_seconds: Gauge = "spade_serve_uptime_seconds",
            "Whole seconds since the server started";
        request_seconds: Vec<Histogram> = "spade_serve_request_seconds",
            "Request handling latency by route" ["route" in ROUTES], DURATION_BOUNDS_SECONDS;
        // Fed from every cold explore's trace by `observe_stages`.
        stage_seconds: Vec<Histogram> = "spade_serve_stage_seconds",
            "Per-pipeline-stage duration across cold explores" ["stage" in STAGES],
            DURATION_BOUNDS_SECONDS;
        // Queue wait and cancel latency are sub-millisecond phenomena on a
        // healthy server; the fine bounds (10µs first bucket) resolve them
        // where the shared bounds' 500µs bucket cannot.
        queue_wait_seconds: Histogram = "spade_serve_queue_wait_seconds",
            "Time connections waited between accept and worker pickup",
            FINE_DURATION_BOUNDS_SECONDS;
        cancel_latency_seconds: Histogram = "spade_serve_cancel_latency_seconds",
            "Time past the deadline before cooperative cancellation unwound",
            FINE_DURATION_BOUNDS_SECONDS;
    }
}

families! {
    /// Per-graph metric series (`{graph="…"}` labels), registered once per
    /// catalog entry in entry (sorted-name) order, so every per-graph
    /// family's series render label-sorted (the `promcheck --require`
    /// invariant). The cost-profile gauges mirror the request ledger's
    /// streaming sketches at scrape time.
    struct GraphMetrics ["graph"] {
        explore_total: Counter = "spade_serve_graph_explore_total",
            "Explore requests routed to this graph";
        slo_breach_total: Counter = "spade_serve_slo_breach_total",
            "Cold explores that exceeded the latency SLO";
        generation: Gauge = "spade_serve_graph_generation",
            "Last published generation of this graph (0 = never loaded)"
            => "graphs[].generation" 2;
        resident_bytes: Gauge = "spade_serve_graph_resident_bytes",
            "Resident-byte estimate of this graph's loaded state (0 = cold)"
            => "graphs[].resident_bytes" 3;
        loaded: Gauge = "spade_serve_graph_loaded",
            "Whether this graph currently holds a loaded state" => "graphs[].loaded" 1 bool;
        cost_quantiles: Vec<Gauge> = "spade_serve_graph_cost_units",
            "Measured per-request cost (cells + facts) quantile sketch"
            ["quantile" in PROFILE_QUANTILES];
        latency_quantiles: Vec<Gauge> = "spade_serve_graph_latency_us",
            "Cold-explore latency quantile sketch in microseconds"
            ["quantile" in PROFILE_QUANTILES];
        cost_ewma: Gauge = "spade_serve_graph_cost_ewma",
            "EWMA of measured per-request cost (cells + facts)";
        latency_ewma_us: Gauge = "spade_serve_graph_latency_ewma_us",
            "EWMA of cold-explore latency in microseconds";
    }
}

impl Metrics {
    /// Feeds one cold explore's trace into the per-stage histograms.
    pub(super) fn observe_stages(&self, trace: &Trace) {
        for (name, duration) in trace.stage_durations() {
            if let Some(i) = STAGES.iter().position(|s| *s == name) {
                self.stage_seconds[i].observe_duration(duration);
            }
        }
    }
}

/// What one [`mirror`] read that the registry does not hold, and the
/// registry itself, locked while the view renders.
struct Scrape<'a> {
    registry: MutexGuard<'a, Registry>,
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
    let registry = shared.registry.lock().unwrap_or_else(PoisonError::into_inner);
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
            // A cold default slot serves no triples.
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
    Scrape { registry, default_state, cache_entries: cache.entries, uptime, profiles }
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
    let mut w = JsonWriter::compact();
    w.begin_object();
    w.key("default").string(default_entry(shared).name());
    w.key("graphs").begin_array();
    for entry in shared.catalog.entries() {
        w.begin_object();
        w.key("name").string(entry.name());
        w.key("loaded").bool(entry.is_loaded());
        w.key("generation").uint(entry.generation());
        w.key("resident_bytes").uint(entry.resident_bytes());
        w.key("path").string(&entry.path().display().to_string());
        w.end_object();
    }
    w.end_array();
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

/// `GET /stats`: the row-backed keys of the family tables, with the
/// hand-written values that have no family in the positions between.
pub(super) fn stats(shared: &Shared) -> Response {
    let scrape = mirror(shared);
    let stats = shared.metrics.stats();
    let mut w = JsonWriter::compact();
    w.begin_object();
    // The default graph's snapshot section keeps the one-graph shape.
    let mut s = Section::begin(w.key("snapshot"), &stats, "snapshot");
    s.key("graph").string(default_entry(shared).name());
    match &scrape.default_state {
        Some(state) => {
            s.key("source").string(&state.source.display().to_string());
            s.key("terms").usize(state.offline.graph.dict.len());
            s.key("properties").usize(state.offline.stats.property_count());
            s.key("load_ms").f64(state.offline.load_time.as_secs_f64() * 1e3);
        }
        // The budget may have evicted even the default: a cold slot
        // reports its last generation and no triple facts.
        None => {
            s.key("loaded").bool(false);
            s.rows.clear();
        }
    }
    s.end();
    let mut s = Section::begin(w.key("catalog"), &stats, "catalog");
    s.key("graphs").usize(shared.catalog.entries().len());
    s.end();
    w.key("graphs").begin_array();
    for (entry, gm) in shared.catalog.entries().iter().zip(&shared.graph_metrics) {
        let mut s = Section::begin(&mut w, &gm.stats(), "graphs[]");
        s.key("name").string(entry.name());
        s.end();
    }
    w.end_array();
    let mut s = Section::begin(w.key("cache"), &stats, "cache");
    s.key("entries").usize(scrape.cache_entries);
    s.end();
    let mut s = Section::begin(w.key("server"), &stats, "server");
    s.key("workers").usize(shared.config.workers);
    s.key("request_threads").usize(shared.request_threads);
    s.key("uptime_secs").f64(scrape.uptime.as_secs_f64());
    let slow_log = s.key("slow_log").begin_object();
    slow_log.key("threshold_ms").uint(shared.slow.threshold_ms());
    slow_log.key("capacity").usize(shared.slow.capacity()).end_object();
    s.end();
    // Analytics ledger: per-graph observed cost/latency profiles and the
    // estimate-vs-actual scorecard (see `GET /debug/queries` for the tail).
    write_cost_profiles(&mut w, &scrape.profiles);
    write_scorecard(&mut w, &shared.ledger);
    w.end_object();
    Response::json(200, w.finish())
}

pub(super) fn metrics(shared: &Shared) -> Response {
    let body = mirror(shared).registry.render();
    Response { content_type: "text/plain; version=0.0.4", ..Response::json(200, body) }
}

/// One structured JSON log line (`--log-json`). Fields: unix_ms, id,
/// method, route (path without query), graph, status, generation,
/// duration_ms, and a `cause` for failure statuses (panic / timeout /
/// shed). Graph-scoped routes name their graph, and the legacy unprefixed
/// explore and reload routes the default; a name outside the catalog and
/// the catalog-wide routes (`/stats`, `/metrics`, …) carry no graph
/// field. The generation is the response's, else the named graph's, else
/// the default graph's.
pub(super) fn log_line(
    shared: &Shared,
    request: &Request,
    id: u64,
    response: &Response,
    panicked: bool,
    started: Instant,
) -> String {
    let route = request.path.split('?').next().unwrap_or(&request.path);
    let entries = shared.catalog.entries();
    let graph = match route.strip_prefix("/graphs/") {
        Some(rest) => rest.split('/').next().and_then(|name| shared.catalog.position(name)),
        None if matches!(route, "/explore" | "/reload") => Some(shared.default_index),
        None => None,
    };
    let generation = response
        .generation
        .unwrap_or_else(|| entries[graph.unwrap_or(shared.default_index)].generation());
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
    if let Some(i) = graph {
        w.key("graph").string(entries[i].name());
    }
    w.key("status").uint(u64::from(response.status));
    w.key("generation").uint(generation);
    w.key("duration_ms").f64(started.elapsed().as_secs_f64() * 1e3);
    if let Some(cause) = cause {
        w.key("cause").string(cause);
    }
    w.end_object();
    w.finish()
}

pub(super) fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ServeConfig, Server};
    use spade_core::json::Json;
    use spade_core::{Spade, SpadeConfig};

    /// The Prometheus type of a handle a row can declare.
    pub(super) trait Kind {
        const KIND: &'static str;
    }

    impl Kind for Counter {
        const KIND: &'static str = "counter";
    }

    impl Kind for Gauge {
        const KIND: &'static str = "gauge";
    }

    impl Kind for Histogram {
        const KIND: &'static str = "histogram";
    }

    impl<H: Kind> Kind for Vec<H> {
        const KIND: &'static str = H::KIND;
    }

    /// The crate page's family table, rendered from the rows.
    fn family_table() -> String {
        let mut table = String::from(
            "//! | family | type | labels | help | `/stats` |\n//! |---|---|---|---|---|\n",
        );
        for row in Metrics::reference().into_iter().chain(GraphMetrics::reference()) {
            table.push_str(&format!("//! | {} |\n", row.join(" | ")));
        }
        table
    }

    #[test]
    fn crate_page_lists_every_family() {
        let table = family_table();
        assert!(
            include_str!("../lib.rs").contains(&table),
            "the family table in lib.rs is stale; expected:\n{table}"
        );
    }

    /// A two-graph server over one snapshot with `alpha` (the default) at
    /// generation 1 and `beta` at generation 2.
    fn two_generations() -> Server {
        let dir = std::env::temp_dir().join(format!("spade_log_line_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let g = spade_datagen::realistic::ceos(&spade_datagen::RealisticConfig {
            scale: 20,
            seed: 3,
        });
        let path = dir.join("g.spade");
        Spade::new(SpadeConfig::default())
            .snapshot_ntriples(&spade_rdf::write_ntriples(&g), &path)
            .expect("snapshot written");
        let server = Server::start_catalog(
            ServeConfig { addr: "127.0.0.1:0".to_owned(), workers: 1, ..Default::default() },
            SpadeConfig::default(),
            vec![("alpha".to_owned(), path.clone()), ("beta".to_owned(), path)],
            "alpha",
        )
        .expect("server starts");
        let catalog = &server.shared.catalog;
        let beta = &catalog.entries()[1];
        catalog.acquire(beta).expect("beta opens");
        catalog.reload(beta, None).expect("beta reloads");
        std::fs::remove_dir_all(&dir).ok();
        server
    }

    /// `(graph, generation)` of the log line for `method path` answered
    /// with a generation-less `status`.
    fn logged(server: &Server, method: &str, path: &str, status: u16) -> (Option<String>, u64) {
        let request = Request {
            method: method.to_owned(),
            path: path.to_owned(),
            body: Vec::new(),
            keep_alive: false,
        };
        let response = Response::error(status, "x");
        let line = log_line(&server.shared, &request, 1, &response, false, Instant::now());
        let doc = spade_core::json::parse(&line).expect("a JSON line");
        let graph = doc.get("graph").and_then(Json::as_str).map(str::to_owned);
        (graph, doc.get("generation").and_then(Json::as_usize).expect("generation") as u64)
    }

    #[test]
    fn log_lines_carry_the_named_graphs_generation() {
        let server = two_generations();
        assert_eq!(
            logged(&server, "POST", "/graphs/beta/explore", 400),
            (Some("beta".to_owned()), 2)
        );
        assert_eq!(logged(&server, "POST", "/graphs/nope/explore", 404), (None, 1));
        assert_eq!(
            logged(&server, "POST", "/explore?profile=1", 400),
            (Some("alpha".to_owned()), 1)
        );
        assert_eq!(logged(&server, "GET", "/stats", 405), (None, 1));
        assert!(server.shutdown(Duration::from_secs(5)));
    }
}
