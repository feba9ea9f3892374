//! The daemon: accept loop, bounded worker pool, routing, hot reload,
//! graceful drain. See the crate root for the wire-protocol spec.

use crate::admission::AdmissionController;
use crate::cache::{CacheStats, ResultCache};
use crate::catalog::{Acquired, GraphCatalog, GraphEntry};
use crate::http::{self, Conn, HttpError, Limits, Request};
use spade_core::json::{self, Json, JsonWriter};
use spade_core::{Budget, ExecCtx, OfflineState, RequestConfig, Spade, SpadeConfig, Trace};
use spade_telemetry::ledger::{key_hash, CacheOutcome, Ledger, LedgerRecord, ResponseClass};
use spade_telemetry::{
    Counter, Gauge, Histogram, Registry, SlowEntry, SlowLog, DURATION_BOUNDS_SECONDS,
    FINE_DURATION_BOUNDS_SECONDS,
};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs (the base pipeline config lives in [`Spade`]).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads handling connections (`0` = one per available core).
    /// Each in-flight request gets `threads / workers` evaluation workers
    /// (at least 1) via [`spade_parallel::split_budget`], so the pool as a
    /// whole never oversubscribes the `threads` budget.
    pub workers: usize,
    /// Total evaluation-thread budget shared by concurrent requests
    /// (`0` = all available cores).
    pub threads: usize,
    /// Result-cache byte budget (`0` disables the cache).
    pub cache_bytes: usize,
    /// Connections queued behind busy workers before the server answers
    /// 503 instead of queueing further.
    pub queue_depth: usize,
    /// HTTP framing limits.
    pub limits: Limits,
    /// How long a graceful shutdown waits for in-flight work to drain.
    pub drain_deadline: Duration,
    /// A keep-alive connection that completes no request within this long
    /// is closed, so idle clients cannot pin worker threads indefinitely.
    pub idle_timeout: Duration,
    /// Per-request evaluation deadline. An `/explore` still running when it
    /// expires is cooperatively cancelled (the [`Budget`] in the request's
    /// [`ExecCtx`] unwinds the engine at the next check point) and answered
    /// 504; the worker is recycled. `None` = no deadline.
    pub request_timeout: Option<Duration>,
    /// Admission-control capacity in estimated work units (see
    /// [`crate::admission::estimate_cost`]). An `/explore` whose estimate
    /// would push the in-flight sum past this is shed with 503 +
    /// `Retry-After` before any evaluation starts. `0` = always admit.
    /// Ignored when `admission_auto` is set.
    pub admission_capacity: u64,
    /// `--admission-capacity auto`: size the capacity from the observed
    /// cost profile instead of a static flag. Seeded from the default
    /// graph's default-request cost estimate at startup, then retargeted
    /// after each profiled cold explore to
    /// `workers × EWMA(estimated cost) × clamp(SLO / EWMA(latency), 1, 128)`
    /// — see the crate docs ("Adaptive admission & SLOs").
    pub admission_auto: bool,
    /// Latency SLO driving the `auto` capacity loop, the
    /// `spade_serve_slo_breach_total{graph=…}` burn-rate counters, and the
    /// early-stop budget (an SLO under 2 s tightens early-stop to a single
    /// batch). `None` = no SLO: `auto` assumes 1 s, nothing counts as a
    /// breach, early-stop stays as configured.
    pub latency_slo: Option<Duration>,
    /// How many completed-request records the analytics ledger ring
    /// retains for `GET /debug/queries` (profiles and the scorecard are
    /// streaming and unaffected by this bound).
    pub ledger_capacity: usize,
    /// Slow-request log threshold in milliseconds: an `/explore` must run
    /// at least this long to enter the bounded worst-N log served at
    /// `GET /debug/slow`. `0` (the default) logs the worst N regardless of
    /// absolute duration.
    pub slow_ms: u64,
    /// How many slow-request traces the log retains (the N worst).
    pub slow_capacity: usize,
    /// Emit one structured JSON log line per request to stderr (request
    /// id, method, route, status, generation, duration, failure cause).
    pub log_json: bool,
    /// Byte budget over the sum of loaded graph states' resident
    /// estimates (`--graph-memory-budget`). When a lazy open pushes the
    /// sum past it, the least-recently-used cold graphs are evicted —
    /// their mmap and heap state dropped, their cache partition retired —
    /// and transparently reopened on the next request. `0` = unlimited.
    pub graph_memory_budget: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".to_owned(),
            workers: 0,
            threads: 0,
            cache_bytes: 64 * 1024 * 1024,
            queue_depth: 128,
            limits: Limits::default(),
            drain_deadline: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(30),
            request_timeout: None,
            admission_capacity: 0,
            admission_auto: false,
            latency_slo: None,
            ledger_capacity: 256,
            slow_ms: 0,
            slow_capacity: 32,
            log_json: false,
            graph_memory_budget: 0,
        }
    }
}

/// Everything that can fail starting the server.
#[derive(Debug)]
pub enum ServeError {
    /// The initial snapshot did not load.
    Snapshot(spade_core::SnapshotPipelineError),
    /// The graph catalog configuration is invalid (no graphs, a bad or
    /// duplicate name, an unknown default graph).
    Catalog(String),
    /// The listener could not bind.
    Bind(io::Error),
    /// A worker or acceptor thread could not be spawned.
    Spawn(io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Snapshot(e) => write!(f, "snapshot load failed: {e}"),
            ServeError::Catalog(m) => write!(f, "bad graph catalog: {m}"),
            ServeError::Bind(e) => write!(f, "bind failed: {e}"),
            ServeError::Spawn(e) => write!(f, "thread spawn failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One immutable generation of servable state. Requests clone the `Arc`
/// and keep using their generation even while a reload swaps in the next —
/// that is the whole hot-reload story: zero locks held during evaluation,
/// zero dropped in-flight requests.
pub struct ServingState {
    /// The loaded offline state (graph + statistics).
    pub offline: OfflineState,
    /// Monotonic reload counter, part of every cache key.
    pub generation: u64,
    /// Where this generation was loaded from.
    pub source: PathBuf,
}

/// The online pipeline stages recorded as top-level spans by
/// [`spade_core::Spade::run_on_in`] under [`ExecCtx::traced`] — one
/// `stage_seconds` histogram series per name.
const STAGES: [&str; 6] = [
    "offline_analysis",
    "cfs_selection",
    "attribute_analysis",
    "enumeration",
    "evaluation",
    "topk",
];

/// Every server metric, registered on one [`Registry`] and rendered at
/// `GET /metrics`. Counters and gauges the server owns are updated at the
/// event site; values owned elsewhere (cache statistics, snapshot facts,
/// uptime) are mirrored into their handles at scrape time, so the rendered
/// exposition is always one consistent pass over the registry.
struct Metrics {
    registry: Registry,
    requests_total: Counter,
    explore_total: Counter,
    explore_cached_total: Counter,
    reload_total: Counter,
    http_errors_total: Counter,
    responses_4xx: Counter,
    responses_5xx: Counter,
    connections_total: Counter,
    rejected_busy_total: Counter,
    shed_total: Counter,
    timeouts_total: Counter,
    panics_total: Counter,
    /// Catalog counters: snapshot (re)opens and budget evictions, mirrored
    /// from the [`GraphCatalog`] at scrape time.
    graph_loads_total: Counter,
    graph_evictions_total: Counter,
    cache_hits_total: Counter,
    cache_misses_total: Counter,
    cache_evictions_total: Counter,
    in_flight: Gauge,
    queue_depth: Gauge,
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
    request_seconds_explore_cold: Histogram,
    request_seconds_explore_warm: Histogram,
    request_seconds_reload: Histogram,
    /// `stage_seconds{stage=...}`, fed from every cold explore's trace —
    /// parallel to [`STAGES`].
    stage_seconds: Vec<Histogram>,
    /// Time connections spent queued between accept and worker pickup.
    queue_wait_seconds: Histogram,
    /// How far past its deadline a cancelled request ran before the
    /// cooperative unwind surfaced (replaces `cancel_latency_ms_total`).
    cancel_latency_seconds: Histogram,
}

impl Metrics {
    fn new() -> Metrics {
        let r = Registry::new();
        let b = &DURATION_BOUNDS_SECONDS;
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
            request_seconds_explore_cold: r.histogram_with(
                "spade_serve_request_seconds",
                "Request handling latency by route",
                &[("route", "explore_cold")],
                b,
            ),
            request_seconds_explore_warm: r.histogram_with(
                "spade_serve_request_seconds",
                "Request handling latency by route",
                &[("route", "explore_warm")],
                b,
            ),
            request_seconds_reload: r.histogram_with(
                "spade_serve_request_seconds",
                "Request handling latency by route",
                &[("route", "reload")],
                b,
            ),
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
        }
    }

    /// Feeds one cold explore's trace into the per-stage histograms.
    fn observe_stages(&self, trace: &Trace) {
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
    fn for_graph(&self, name: &str) -> GraphMetrics {
        let labels: &[(&'static str, &str)] = &[("graph", name)];
        let quantile_gauges = |family: &'static str, help: &'static str| -> Vec<Gauge> {
            PROFILE_QUANTILES
                .iter()
                .map(|&q| {
                    self.registry.gauge_with(family, help, &[("graph", name), ("quantile", q)])
                })
                .collect()
        };
        GraphMetrics {
            explore_total: self.registry.counter_with(
                "spade_serve_graph_explore_total",
                "Explore requests routed to this graph",
                labels,
            ),
            slo_breach_total: self.registry.counter_with(
                "spade_serve_slo_breach_total",
                "Cold explores that exceeded the latency SLO",
                labels,
            ),
            generation: self.registry.gauge_with(
                "spade_serve_graph_generation",
                "Last published generation of this graph (0 = never loaded)",
                labels,
            ),
            resident_bytes: self.registry.gauge_with(
                "spade_serve_graph_resident_bytes",
                "Resident-byte estimate of this graph's loaded state (0 = cold)",
                labels,
            ),
            loaded: self.registry.gauge_with(
                "spade_serve_graph_loaded",
                "Whether this graph currently holds a loaded state",
                labels,
            ),
            cost_quantiles: quantile_gauges(
                "spade_serve_graph_cost_units",
                "Measured per-request cost (cells + facts) quantile sketch",
            ),
            latency_quantiles: quantile_gauges(
                "spade_serve_graph_latency_us",
                "Cold-explore latency quantile sketch in microseconds",
            ),
            cost_ewma: self.registry.gauge_with(
                "spade_serve_graph_cost_ewma",
                "EWMA of measured per-request cost (cells + facts)",
                labels,
            ),
            latency_ewma_us: self.registry.gauge_with(
                "spade_serve_graph_latency_ewma_us",
                "EWMA of cold-explore latency in microseconds",
                labels,
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
struct GraphMetrics {
    explore_total: Counter,
    slo_breach_total: Counter,
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

struct Shared {
    engine: Spade,
    /// The base pipeline config, kept for admission-cost estimation.
    base: SpadeConfig,
    /// Graph name → lazily-opened serving state (per-graph generations,
    /// LRU eviction under `graph_memory_budget`). Legacy single-graph
    /// routes target `entries()[default_index]`.
    catalog: GraphCatalog,
    default_index: usize,
    /// Per-graph metric handles, parallel to `catalog.entries()`.
    graph_metrics: Vec<GraphMetrics>,
    cache: Mutex<ResultCache>,
    metrics: Metrics,
    /// Request analytics ledger: record ring + per-graph cost profiles +
    /// estimate-vs-actual scorecard (`GET /debug/queries`).
    ledger: Ledger,
    /// Bounded worst-N log of slow `/explore` traces (`GET /debug/slow`).
    slow: SlowLog,
    /// One structured JSON log line per request on stderr when set.
    log_json: bool,
    /// Monotone request-id source for logs and the slow log.
    request_ids: AtomicU64,
    shutdown: AtomicBool,
    limits: Limits,
    idle_timeout: Duration,
    request_timeout: Option<Duration>,
    admission: AdmissionController,
    /// Whether the `auto` loop retargets admission capacity from the
    /// ledger's overall cost profile after each profiled cold explore.
    admission_auto: bool,
    /// Latency SLO: breach counting, and the `auto` capacity target.
    latency_slo: Option<Duration>,
    /// Per-request evaluation-thread share (`threads / workers`, ≥ 1).
    request_threads: usize,
    workers: usize,
    started: Instant,
}

/// Profiled cold completions required before the `auto` loop trusts the
/// observed profile enough to retarget capacity; until then the seed
/// estimate (one default exploration of the default graph) holds.
const AUTO_MIN_SAMPLES: u64 = 4;

/// Retargets admission capacity from the ledger's overall cost profile:
/// `workers × EWMA(estimated cost) × headroom`, where `headroom =
/// clamp(SLO / EWMA(latency), 1, 128)`. Capacity is denominated in
/// *estimate* units — the same units [`crate::admission::estimate_cost`]
/// charges at admission time — so the estimate EWMA (not the measured
/// cells+facts EWMA) is the per-request unit. The latency ratio scales how
/// many such requests may run concurrently while each stays within the
/// SLO; the clamp keeps one fast profile from opening the gate to
/// effectively unlimited work.
fn retarget_capacity(shared: &Shared) {
    if !shared.admission_auto {
        return;
    }
    let profile = shared.ledger.overall_snapshot();
    if profile.requests < AUTO_MIN_SAMPLES {
        return;
    }
    let slo_us =
        shared.latency_slo.unwrap_or_else(|| Duration::from_secs(1)).as_micros() as f64;
    let headroom = (slo_us / profile.latency_ewma_us.max(1.0)).clamp(1.0, 128.0);
    let capacity = shared.workers as f64 * profile.est_cost_ewma.max(1.0) * headroom;
    shared.admission.set_capacity((capacity as u64).max(1));
}

/// A running server. Dropping the handle does **not** stop the daemon; call
/// [`Server::shutdown`] (or let the process exit).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Loads the snapshot at `snapshot` **once** and starts serving it as
    /// a one-graph catalog (named after the file stem). Returns once the
    /// listener is bound and the workers are running.
    pub fn start(
        config: ServeConfig,
        base: SpadeConfig,
        snapshot: impl AsRef<Path>,
    ) -> Result<Server, ServeError> {
        let snapshot = snapshot.as_ref().to_path_buf();
        let name = default_graph_name(&snapshot);
        Self::start_catalog(config, base, vec![(name.clone(), snapshot)], &name)
    }

    /// Starts a multi-graph server over `graphs` (name → snapshot path;
    /// `--snapshot-dir` resolves to this via
    /// [`crate::catalog::scan_snapshot_dir`]). The `default_graph` answers
    /// the legacy single-graph routes and is loaded **eagerly** — a broken
    /// default snapshot still fails startup, as the one-graph server did —
    /// while every other graph opens lazily on first touch.
    pub fn start_catalog(
        config: ServeConfig,
        mut base: SpadeConfig,
        graphs: Vec<(String, PathBuf)>,
        default_graph: &str,
    ) -> Result<Server, ServeError> {
        // A latency SLO derives the early-stop budget: pruning is the one
        // knob that trades answer-set completeness for bounded evaluation
        // time, and a tight SLO (< 2 s) consumes the pruning sample in a
        // single batch so the decision lands as early as possible. Applied
        // once at startup — per-request toggling would fork the byte-exact
        // determinism contract that the result cache relies on.
        if config.latency_slo.is_some() && base.early_stop.is_none() {
            base = base.with_early_stop();
            if config.latency_slo < Some(Duration::from_secs(2)) {
                if let Some(es) = base.early_stop.as_mut() {
                    es.batches = 1;
                }
            }
        }
        let engine = Spade::new(base.clone());
        let threads = spade_parallel::resolve_threads(config.threads);
        let catalog = GraphCatalog::new(graphs, config.graph_memory_budget, threads)
            .map_err(ServeError::Catalog)?;
        let default_index = catalog.position(default_graph).ok_or_else(|| {
            ServeError::Catalog(format!(
                "default graph {default_graph:?} is not in the catalog"
            ))
        })?;
        let eager =
            catalog.acquire(&catalog.entries()[default_index]).map_err(ServeError::Snapshot)?;
        // `auto` seeds capacity with one default exploration of the default
        // graph — enough to admit real work immediately — and retargets
        // from the observed profile once AUTO_MIN_SAMPLES completions land.
        let admission_capacity = if config.admission_auto {
            crate::admission::estimate_cost(
                &eager.state.offline,
                &base,
                &RequestConfig::default(),
            )
        } else {
            config.admission_capacity
        };
        drop(eager);
        let metrics = Metrics::new();
        let graph_metrics: Vec<GraphMetrics> =
            catalog.entries().iter().map(|e| metrics.for_graph(e.name())).collect();
        let listener = TcpListener::bind(&config.addr).map_err(ServeError::Bind)?;
        let addr = listener.local_addr().map_err(ServeError::Bind)?;
        listener.set_nonblocking(true).map_err(ServeError::Bind)?;

        let workers = spade_parallel::resolve_threads(config.workers);
        // Split the evaluation budget across the pool: `workers` requests in
        // flight, each with `threads / workers` (≥ 1) evaluation workers.
        let (_, request_threads) = spade_parallel::split_budget(threads, workers);
        let catalog_names = catalog.names();
        let shared = Arc::new(Shared {
            engine,
            base,
            catalog,
            default_index,
            graph_metrics,
            cache: Mutex::new(ResultCache::new(config.cache_bytes)),
            metrics,
            ledger: Ledger::new(config.ledger_capacity, &catalog_names),
            slow: SlowLog::new(config.slow_ms, config.slow_capacity),
            log_json: config.log_json,
            request_ids: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            limits: config.limits,
            idle_timeout: config.idle_timeout,
            request_timeout: config.request_timeout,
            admission: AdmissionController::new(admission_capacity),
            admission_auto: config.admission_auto,
            latency_slo: config.latency_slo,
            request_threads,
            workers,
            started: Instant::now(),
        });

        // Each queued connection carries its enqueue instant so the worker
        // that picks it up can record the observed queue wait.
        let (tx, rx) =
            std::sync::mpsc::sync_channel::<(TcpStream, Instant)>(config.queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let mut worker_handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            let rx = Arc::clone(&rx);
            let handle = std::thread::Builder::new()
                .name(format!("spade-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared, &rx))
                .map_err(ServeError::Spawn)?;
            worker_handles.push(handle);
        }
        let accept_shared = Arc::clone(&shared);
        let accept_handle = std::thread::Builder::new()
            .name("spade-serve-accept".to_owned())
            .spawn(move || accept_loop(&accept_shared, &listener, &tx))
            .map_err(ServeError::Spawn)?;

        Ok(Server { addr, shared, accept_handle: Some(accept_handle), worker_handles })
    }

    /// The bound address (the actual port when `:0` was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the server to stop: the acceptor closes, queued connections are
    /// drained, in-flight requests finish. Blocks up to `deadline`; returns
    /// `true` when everything drained in time (workers that exceed the
    /// deadline are abandoned, not killed — the process exit reaps them).
    pub fn shutdown(mut self, deadline: Duration) -> bool {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let end = Instant::now() + deadline;
        let mut drained = true;
        if let Some(handle) = self.accept_handle.take() {
            // The acceptor wakes at least every poll tick.
            let _ = handle.join();
        }
        for handle in self.worker_handles.drain(..) {
            while !handle.is_finished() && Instant::now() < end {
                std::thread::sleep(Duration::from_millis(5));
            }
            if handle.is_finished() {
                let _ = handle.join();
            } else {
                drained = false;
            }
        }
        drained
    }

    /// Whether shutdown has been requested (exposed for signal wiring).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }
}

fn accept_loop(shared: &Shared, listener: &TcpListener, tx: &SyncSender<(TcpStream, Instant)>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return; // drops tx; workers drain the queue then stop
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.metrics.connections_total.inc();
                let _ = stream.set_nodelay(true);
                // The read timeout is the worker's poll tick: each tick it
                // re-checks the shutdown flag and the connection's idle
                // deadline (`ServeConfig::idle_timeout`).
                let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
                // Gauge up *before* the send: once the stream is in the
                // channel a worker may pop (and decrement) immediately, and
                // incrementing after the fact would transiently underflow.
                shared.metrics.queue_depth.add(1);
                match tx.try_send((stream, Instant::now())) {
                    Ok(()) => {}
                    Err(TrySendError::Full((mut stream, _))) => {
                        shared.metrics.queue_depth.sub(1);
                        shared.metrics.rejected_busy_total.inc();
                        let body = error_body("server busy, retry later");
                        let _ = http::write_response(
                            &mut stream,
                            503,
                            "application/json",
                            &[("Retry-After", "1")],
                            body.as_bytes(),
                            false,
                        );
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        shared.metrics.queue_depth.sub(1);
                        return;
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn worker_loop(shared: &Shared, rx: &Mutex<Receiver<(TcpStream, Instant)>>) {
    loop {
        // Hold the receiver lock only while popping — never while serving.
        let next = {
            let rx = rx.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            rx.recv_timeout(Duration::from_millis(100))
        };
        match next {
            Ok((stream, enqueued)) => {
                shared.metrics.queue_depth.sub(1);
                shared.metrics.queue_wait_seconds.observe_duration(enqueued.elapsed());
                handle_connection(shared, stream);
            }
            // On shutdown the acceptor drops the sender; `recv` still hands
            // out everything already queued and only then disconnects, so
            // keeping to the recv path (instead of a one-shot `try_recv`
            // drain) cannot strand a connection the acceptor enqueued
            // moments after the flag flipped.
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    let mut conn = Conn::new(stream);
    let mut last_request = Instant::now();
    loop {
        let request = match conn.read_request(&shared.limits) {
            Ok(request) => request,
            Err(HttpError::Closed) => return,
            Err(HttpError::Io(e))
                if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
            {
                // Idle keep-alive poll tick (the 500 ms read timeout):
                // close when draining, and close connections that have not
                // completed a request within the idle deadline — otherwise
                // `workers` idle (or byte-trickling) clients would pin the
                // whole pool forever.
                if shared.shutdown.load(Ordering::SeqCst)
                    || last_request.elapsed() > shared.idle_timeout
                {
                    return;
                }
                continue;
            }
            Err(HttpError::Io(_)) => return,
            Err(e) => {
                shared.metrics.http_errors_total.inc();
                let status = match e {
                    HttpError::BodyTooLarge => 413,
                    HttpError::HeadTooLarge => 431,
                    HttpError::ReadTimeout => 408,
                    _ => 400,
                };
                let body = error_body(&e.to_string());
                let _ = http::write_response(
                    conn.stream(),
                    status,
                    "application/json",
                    &[],
                    body.as_bytes(),
                    false,
                );
                // Consume what the peer already sent before closing:
                // closing with unread input triggers a TCP RST that can
                // destroy the error response before the peer reads it.
                drain_input(conn.stream());
                return; // framing is unreliable after a malformed request
            }
        };

        last_request = Instant::now();
        let request_id = shared.request_ids.fetch_add(1, Ordering::Relaxed) + 1;
        shared.metrics.requests_total.inc();
        shared.metrics.in_flight.add(1);
        let started = Instant::now();
        // Panic isolation: a panic anywhere in routing (a bug, or the
        // fault-injection hook in chaos tests) must cost one response, not
        // the daemon. `spade_parallel` propagates worker panics through its
        // scoped-thread joins, so catching here covers the whole engine.
        // State touched by the panicking request stays safe to reuse: the
        // poisoned-lock accessors use `PoisonError::into_inner`, and the
        // admission permit's RAII drop runs during the unwind.
        let (response, panicked) =
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                route(shared, &request, request_id)
            })) {
                Ok(response) => (response, false),
                Err(_) => {
                    shared.metrics.panics_total.inc();
                    (Response::error(500, "internal error").closing(), true)
                }
            };
        shared.metrics.in_flight.sub(1);
        match response.status {
            400..=499 => shared.metrics.responses_4xx.inc(),
            500..=599 => shared.metrics.responses_5xx.inc(),
            _ => {}
        }
        if shared.log_json {
            log_request(shared, &request, request_id, &response, panicked, started.elapsed());
        }

        // Finish the in-flight response, but do not start another request
        // on this connection once draining, and recycle the connection after
        // a response that marked itself terminal (504/500).
        let keep_alive =
            request.keep_alive && !response.close && !shared.shutdown.load(Ordering::SeqCst);
        let extra: Vec<(&str, &str)> =
            response.headers.iter().map(|(k, v)| (*k, v.as_str())).collect();
        if http::write_response(
            conn.stream(),
            response.status,
            response.content_type,
            &extra,
            &response.body,
            keep_alive,
        )
        .is_err()
            || !keep_alive
        {
            return;
        }
    }
}

/// Reads and discards whatever the peer has already sent (bounded in bytes
/// and time) so the subsequent close sends FIN, not RST.
fn drain_input(stream: &mut TcpStream) {
    use io::Read as _;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut chunk = [0u8; 4096];
    let mut total = 0usize;
    while total < 256 * 1024 {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => total += n,
        }
    }
}

struct Response {
    status: u16,
    content_type: &'static str,
    headers: Vec<(&'static str, String)>,
    body: Arc<[u8]>,
    /// Close the connection after writing this response (used after a
    /// timeout or caught panic, where the worker should shed per-connection
    /// state rather than trust the peer's framing to stay aligned).
    close: bool,
    /// The graph generation this response was computed against, when the
    /// route pinned one (explore/reload); the structured log falls back to
    /// the default graph's generation otherwise.
    generation: Option<u64>,
}

impl Response {
    fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into_bytes().into(),
            close: false,
            generation: None,
        }
    }

    fn error(status: u16, message: &str) -> Response {
        Response::json(status, error_body(message))
    }

    fn closing(mut self) -> Response {
        self.close = true;
        self
    }

    fn with_generation(mut self, generation: u64) -> Response {
        self.generation = Some(generation);
        self
    }
}

fn error_body(message: &str) -> String {
    let mut w = JsonWriter::compact();
    w.begin_object();
    w.key("error").string(message);
    w.end_object();
    w.finish()
}

/// One structured JSON log line per request on stderr (`--log-json`).
/// Fields: unix_ms, id, method, route (path without query), status,
/// generation, duration_ms, and a `cause` for failure statuses
/// (panic / timeout / shed).
fn log_request(
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
    let cause = if panicked {
        Some("panic")
    } else {
        match response.status {
            504 => Some("timeout"),
            503 => Some("shed"),
            _ => None,
        }
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

fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

fn route(shared: &Shared, request: &Request, request_id: u64) -> Response {
    // The request target may carry a query string (`/explore?profile=1`);
    // routing matches on the path alone.
    let (path, query) = match request.path.split_once('?') {
        Some((path, query)) => (path, query),
        None => (request.path.as_str(), ""),
    };
    // Graph-scoped routes: `/graphs/{name}/explore` and
    // `/graphs/{name}/reload`. The legacy unprefixed routes below are the
    // same handlers bound to the default graph.
    if let Some(rest) = path.strip_prefix("/graphs/") {
        let Some((name, action)) = rest.split_once('/') else {
            return Response::error(404, "no such route");
        };
        let Some(index) = shared.catalog.position(name) else {
            return Response::error(404, &format!("no such graph {name:?}"));
        };
        return match (request.method.as_str(), action) {
            ("POST", "explore") => explore(shared, index, query, &request.body, request_id),
            ("POST", "reload") => reload(shared, index, &request.body),
            (_, "explore" | "reload") => Response::error(405, "use POST for this route"),
            _ => Response::error(404, "no such route"),
        };
    }
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => healthz(shared),
        ("GET", "/stats") => stats(shared),
        ("GET", "/metrics") => metrics(shared),
        ("GET", "/graphs") => graphs_index(shared),
        ("GET", "/debug/slow") => Response::json(200, shared.slow.to_json()),
        ("GET", "/debug/queries") => debug_queries(shared),
        ("POST", "/explore") => {
            explore(shared, shared.default_index, query, &request.body, request_id)
        }
        ("POST", "/reload") => reload(shared, shared.default_index, &request.body),
        (
            _,
            "/healthz" | "/stats" | "/metrics" | "/graphs" | "/debug/slow" | "/debug/queries",
        ) => Response::error(405, "use GET for this route"),
        (_, "/explore" | "/reload") => Response::error(405, "use POST for this route"),
        _ => Response::error(404, "no such route"),
    }
}

/// `true` when `name` appears in the query string as a truthy flag
/// (`name`, `name=1`, or `name=true`).
fn query_flag(query: &str, name: &str) -> bool {
    query.split('&').any(|pair| {
        let (key, value) = match pair.split_once('=') {
            Some((k, v)) => (k, v),
            None => (pair, "1"),
        };
        key == name && (value == "1" || value == "true")
    })
}

/// The graph name the legacy single-snapshot entry point registers: the
/// file stem when it is a valid routing name, else `"default"`.
fn default_graph_name(path: &Path) -> String {
    match path.file_stem().and_then(|s| s.to_str()) {
        Some(stem) if crate::catalog::valid_graph_name(stem) => stem.to_owned(),
        _ => "default".to_owned(),
    }
}

/// The catalog entry the legacy single-graph routes resolve to.
fn default_entry(shared: &Shared) -> &Arc<GraphEntry> {
    &shared.catalog.entries()[shared.default_index]
}

/// Retires the result-cache partitions of graphs the budget just evicted,
/// so their bytes stop occupying the shared cache immediately.
fn retire_cache_partitions(shared: &Shared, names: &[String]) {
    if names.is_empty() {
        return;
    }
    let mut cache = shared.cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    for name in names {
        cache.retire_prefix(&format!("{name}@"));
    }
}

fn healthz(shared: &Shared) -> Response {
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
fn graphs_index(shared: &Shared) -> Response {
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
fn debug_queries(shared: &Shared) -> Response {
    let mut w = JsonWriter::compact();
    w.begin_object();
    w.key("capacity").usize(shared.ledger.capacity());
    w.key("recorded_total").uint(shared.ledger.recorded_total());
    w.key("admission_capacity").uint(shared.admission.capacity());
    w.key("scorecard").raw(&shared.ledger.scorecard_snapshot().to_json());
    w.key("overall").raw(&shared.ledger.overall_snapshot().to_json());
    w.key("cost_profiles").begin_array();
    for profile in shared.ledger.profile_snapshots() {
        w.raw(&profile.to_json());
    }
    w.end_array();
    w.key("entries").begin_array();
    for record in shared.ledger.tail(shared.ledger.capacity()) {
        w.raw(&record.to_json());
    }
    w.end_array();
    w.end_object();
    Response::json(200, w.finish())
}

fn stats(shared: &Shared) -> Response {
    let entry = default_entry(shared);
    let cache: CacheStats =
        shared.cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner).stats();
    let m = &shared.metrics;
    let mut w = JsonWriter::compact();
    w.begin_object();
    // The default graph's snapshot section keeps the one-graph shape; the
    // budget may have evicted even the default, so a cold slot reports its
    // last generation and no triple facts.
    w.key("snapshot").begin_object();
    w.key("graph").string(entry.name());
    match entry.peek() {
        Some(state) => {
            w.key("generation").uint(state.generation);
            w.key("source").string(&state.source.display().to_string());
            w.key("triples").usize(state.offline.graph.len());
            w.key("terms").usize(state.offline.graph.dict.len());
            w.key("properties").usize(state.offline.stats.property_count());
            w.key("load_ms").f64(state.offline.load_time.as_secs_f64() * 1e3);
        }
        None => {
            w.key("generation").uint(entry.generation());
            w.key("loaded").bool(false);
        }
    }
    w.end_object();
    w.key("catalog").begin_object();
    w.key("graphs").usize(shared.catalog.entries().len());
    w.key("loaded").usize(shared.catalog.loaded_count());
    w.key("resident_bytes").uint(shared.catalog.resident_bytes());
    w.key("budget_bytes").uint(shared.catalog.budget_bytes());
    w.key("loads_total").uint(shared.catalog.loads_total());
    w.key("evictions_total").uint(shared.catalog.evictions_total());
    w.end_object();
    w.key("graphs").begin_array();
    for entry in shared.catalog.entries() {
        w.begin_object();
        w.key("name").string(entry.name());
        w.key("loaded").bool(entry.is_loaded());
        w.key("generation").uint(entry.generation());
        w.key("resident_bytes").uint(entry.resident_bytes());
        w.end_object();
    }
    w.end_array();
    w.key("cache").begin_object();
    w.key("hits").uint(cache.hits);
    w.key("misses").uint(cache.misses);
    w.key("evictions").uint(cache.evictions);
    w.key("entries").usize(cache.entries);
    w.key("bytes").usize(cache.bytes);
    w.end_object();
    w.key("server").begin_object();
    w.key("workers").usize(shared.workers);
    w.key("request_threads").usize(shared.request_threads);
    w.key("uptime_secs").f64(shared.started.elapsed().as_secs_f64());
    w.key("requests_total").uint(m.requests_total.get());
    w.key("explore_total").uint(m.explore_total.get());
    w.key("explore_cached_total").uint(m.explore_cached_total.get());
    w.key("reload_total").uint(m.reload_total.get());
    w.key("connections_total").uint(m.connections_total.get());
    w.key("rejected_busy_total").uint(m.rejected_busy_total.get());
    w.key("shed_total").uint(m.shed_total.get());
    w.key("timeouts_total").uint(m.timeouts_total.get());
    w.key("panics_total").uint(m.panics_total.get());
    w.key("graph_loads_total").uint(shared.catalog.loads_total());
    w.key("graph_evictions_total").uint(shared.catalog.evictions_total());
    w.key("http_errors_total").uint(m.http_errors_total.get());
    w.key("responses_4xx").uint(m.responses_4xx.get());
    w.key("responses_5xx").uint(m.responses_5xx.get());
    w.key("in_flight").uint(m.in_flight.get());
    w.key("queue_depth").uint(m.queue_depth.get());
    w.key("admission_capacity").uint(shared.admission.capacity());
    w.key("admission_inflight_cost").uint(shared.admission.inflight());
    w.key("slow_log").begin_object();
    w.key("threshold_ms").uint(shared.slow.threshold_ms());
    w.key("capacity").usize(shared.slow.capacity());
    w.end_object();
    w.end_object();
    // Analytics ledger: per-graph observed cost/latency profiles and the
    // estimate-vs-actual scorecard (see `GET /debug/queries` for the tail).
    w.key("cost_profiles").begin_array();
    for profile in shared.ledger.profile_snapshots() {
        w.raw(&profile.to_json());
    }
    w.end_array();
    w.key("scorecard").raw(&shared.ledger.scorecard_snapshot().to_json());
    w.end_object();
    Response::json(200, w.finish())
}

fn metrics(shared: &Shared) -> Response {
    let cache = shared.cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner).stats();
    let m = &shared.metrics;
    // Mirror values owned outside the registry (cache statistics, catalog
    // state, admission state, uptime) into their handles, then render one
    // consistent exposition.
    m.cache_hits_total.mirror(cache.hits);
    m.cache_misses_total.mirror(cache.misses);
    m.cache_evictions_total.mirror(cache.evictions);
    m.cache_bytes.set(cache.bytes as u64);
    // The unlabeled snapshot gauges keep describing the default graph, so
    // one-graph dashboards read unchanged; per-graph series carry the rest.
    let entry = default_entry(shared);
    m.snapshot_generation.set(entry.generation());
    if let Some(state) = entry.peek() {
        m.snapshot_triples.set(state.offline.graph.len() as u64);
    }
    m.graph_loads_total.mirror(shared.catalog.loads_total());
    m.graph_evictions_total.mirror(shared.catalog.evictions_total());
    m.graphs_loaded.set(shared.catalog.loaded_count() as u64);
    m.graph_resident_bytes_total.set(shared.catalog.resident_bytes());
    m.graph_memory_budget_bytes.set(shared.catalog.budget_bytes());
    for (entry, gm) in shared.catalog.entries().iter().zip(&shared.graph_metrics) {
        gm.generation.set(entry.generation());
        gm.resident_bytes.set(entry.resident_bytes());
        gm.loaded.set(u64::from(entry.is_loaded()));
    }
    m.admission_capacity.set(shared.admission.capacity());
    m.admission_inflight_cost.set(shared.admission.inflight());
    // Ledger cost profiles → per-graph gauge series. `profile_snapshots()`
    // and `graph_metrics` are both ordered by sorted graph name, so the zip
    // pairs each profile with its gauges.
    for (profile, gm) in shared.ledger.profile_snapshots().iter().zip(&shared.graph_metrics) {
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
    m.uptime_seconds.set(shared.started.elapsed().as_secs());
    Response {
        status: 200,
        content_type: "text/plain; version=0.0.4",
        headers: Vec::new(),
        body: m.registry.render().into_bytes().into(),
        close: false,
        generation: None,
    }
}

/// Decodes an `/explore` body into a [`RequestConfig`]. Unknown keys are
/// rejected — silent typos (`"top_k"`) would otherwise degrade into default
/// answers.
fn parse_explore(body: &[u8]) -> Result<RequestConfig, String> {
    if body.is_empty() {
        return Ok(RequestConfig::default());
    }
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let entries = doc.as_object().ok_or("body must be a JSON object")?;
    let mut request = RequestConfig::default();
    let str_list = |v: &Json, what: &str| -> Result<Vec<String>, String> {
        v.as_array()
            .ok_or(format!("{what} must be an array of strings"))?
            .iter()
            .map(|s| {
                s.as_str().map(str::to_owned).ok_or(format!("{what} must contain only strings"))
            })
            .collect()
    };
    for (key, value) in entries {
        match key.as_str() {
            "k" => {
                request.k = Some(value.as_usize().ok_or("k must be a non-negative integer")?);
            }
            "interestingness" => {
                let name = value.as_str().ok_or("interestingness must be a string")?;
                request.interestingness =
                    Some(RequestConfig::interestingness_from_name(name).ok_or(
                        "interestingness must be variance, skewness, or kurtosis".to_owned(),
                    )?);
            }
            "min_support" => {
                let v = value.as_f64().ok_or("min_support must be a number")?;
                if !(0.0..=1.0).contains(&v) {
                    return Err("min_support must be within [0, 1]".to_owned());
                }
                request.min_support = Some(v);
            }
            "cfs_filter" => request.cfs_filter = str_list(value, "cfs_filter")?,
            "measure_filter" => request.measure_filter = str_list(value, "measure_filter")?,
            "threads" => {
                request.threads =
                    Some(value.as_usize().ok_or("threads must be a non-negative integer")?);
            }
            other => return Err(format!("unknown field {other:?}")),
        }
    }
    Ok(request)
}

/// Records an `/explore` outcome into the slow-request log, attaching the
/// request's rendered span tree.
#[allow(clippy::too_many_arguments)]
fn record_slow(
    shared: &Shared,
    request_id: u64,
    graph: &str,
    status: u16,
    generation: u64,
    elapsed: Duration,
    trace: &Trace,
) {
    shared.slow.record(SlowEntry {
        id: request_id,
        route: "explore",
        graph: graph.to_owned(),
        status,
        generation,
        duration_ms: elapsed.as_millis() as u64,
        unix_ms: unix_ms(),
        trace_json: format!(
            "{{\"total_us\":{},\"spans\":{}}}",
            elapsed.as_micros(),
            trace.spans_json()
        ),
    });
}

/// Writes one completed `/explore` into the analytics ledger, counts an SLO
/// breach when one is configured and exceeded, and (for profiled cold
/// completions under `--admission-capacity auto`) retargets the admission
/// capacity from the refreshed cost profile.
#[allow(clippy::too_many_arguments)]
fn record_request(
    shared: &Shared,
    index: usize,
    request_id: u64,
    generation: u64,
    canonical_key: &str,
    estimated_cost: u64,
    trace: Option<&Trace>,
    cache: CacheOutcome,
    class: ResponseClass,
    elapsed: Duration,
) {
    let (cells, facts) = trace.map(spade_core::work_counters).unwrap_or((0, 0));
    // A breach is a request that actually ran (hits answer from memory,
    // sheds never start) and finished — or was cancelled — over the SLO.
    let slo_breach = cache != CacheOutcome::Hit
        && matches!(class, ResponseClass::Ok | ResponseClass::Timeout)
        && shared.latency_slo.is_some_and(|slo| elapsed > slo);
    if slo_breach {
        shared.graph_metrics[index].slo_breach_total.inc();
    }
    shared.ledger.record(LedgerRecord {
        id: request_id,
        graph: shared.catalog.entries()[index].name().to_owned(),
        generation,
        route: "explore",
        key_hash: key_hash(canonical_key),
        estimated_cost,
        actual_cost: cells + facts,
        cells,
        facts,
        cache,
        class,
        total_us: elapsed.as_micros() as u64,
        stages: trace
            .map(|t| {
                t.stage_durations()
                    .into_iter()
                    .map(|(name, d)| (name, d.as_micros() as u64))
                    .collect()
            })
            .unwrap_or_default(),
        slo_breach,
        unix_ms: unix_ms(),
    });
    if class == ResponseClass::Ok && cache != CacheOutcome::Hit {
        retarget_capacity(shared);
    }
}

fn explore(
    shared: &Shared,
    index: usize,
    query: &str,
    body: &[u8],
    request_id: u64,
) -> Response {
    let started = Instant::now();
    shared.metrics.explore_total.inc();
    shared.graph_metrics[index].explore_total.inc();
    let entry = &shared.catalog.entries()[index];
    // `?profile=1` attaches the span tree to the response; `?timings=1`
    // appends the (nondeterministic) step timings. Either one makes the
    // body request-specific, so both bypass the byte-exact result cache.
    let profile = query_flag(query, "profile");
    let with_timings = query_flag(query, "timings");
    let bypass_cache = profile || with_timings;
    let mut request = match parse_explore(body) {
        Ok(request) => request,
        Err(message) => return Response::error(400, &message),
    };
    // Cap the per-request budget at this worker's share so N concurrent
    // requests use at most the server's total thread budget.
    request.threads = Some(match request.threads {
        Some(t) if t != 0 => t.min(shared.request_threads),
        _ => shared.request_threads,
    });

    // Pin this graph's state, (re)opening the snapshot if the slot is cold
    // (lazy first touch, or a budget eviction). A failed open is 503 — the
    // graph is registered but its snapshot is currently unreadable — and
    // leaves every other graph serving.
    let Acquired { state, evicted, .. } = match shared.catalog.acquire(entry) {
        Ok(acquired) => acquired,
        Err(e) => return Response::error(503, &format!("graph {:?}: {e}", entry.name())),
    };
    retire_cache_partitions(shared, &evicted);
    // The admission estimate is computed up front (pure arithmetic on the
    // offline stats) so every ledger record — hits and sheds included —
    // carries the estimate the scorecard grades.
    let cost = crate::admission::estimate_cost(&state.offline, &shared.base, &request);
    let canonical = request.canonical_key();
    // Keys are partitioned by graph and generation: `{graph}@g{gen}:{…}`,
    // so a reload or eviction strands (and `retire_prefix` reclaims) stale
    // bodies instead of ever serving them.
    let key = format!("{}@g{}:{}", entry.name(), state.generation, canonical);
    let cache_outcome = if bypass_cache { CacheOutcome::Bypass } else { CacheOutcome::Miss };
    if !bypass_cache {
        if let Some(hit) =
            shared.cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner).get(&key)
        {
            shared.metrics.explore_cached_total.inc();
            let elapsed = started.elapsed();
            shared.metrics.request_seconds_explore_warm.observe_duration(elapsed);
            record_request(
                shared,
                index,
                request_id,
                state.generation,
                &canonical,
                cost,
                None,
                CacheOutcome::Hit,
                ResponseClass::Ok,
                elapsed,
            );
            return Response {
                status: 200,
                content_type: "application/json",
                headers: vec![("X-Cache", "hit".to_owned())],
                body: hit,
                close: false,
                generation: Some(state.generation),
            };
        }
    }

    // Fault-injection site for chaos tests (no-op unless `SPADE_FAULT`
    // names it): fires after parsing and the cache, i.e. exactly where a
    // real evaluation bug would strike.
    spade_parallel::fault::fire("serve.explore");

    // Admission control: shed instead of queueing when the in-flight
    // estimate sum would exceed capacity. Cache hits above never reach
    // this point — answering from memory is always admissible.
    let Some(_permit) = shared.admission.try_admit(cost) else {
        shared.metrics.shed_total.inc();
        record_request(
            shared,
            index,
            request_id,
            state.generation,
            &canonical,
            cost,
            None,
            cache_outcome,
            ResponseClass::Shed,
            started.elapsed(),
        );
        let mut response =
            Response::error(503, "estimated cost exceeds admission capacity, retry later");
        response.headers.push(("Retry-After", "1".to_owned()));
        return response;
    };

    // The evaluation runs outside every lock, against this request's
    // pinned generation, under the per-request deadline (if configured).
    // Every cold explore is traced: the trace feeds the per-stage
    // histograms and the slow log, and is attached to the body on
    // `?profile=1`. Tracing is observation only — bodies stay bit-identical.
    let budget = match shared.request_timeout {
        Some(timeout) => Budget::with_deadline(timeout),
        None => Budget::unlimited(),
    };
    let trace = Trace::new();
    let cx = ExecCtx::traced(&budget, &trace, shared.engine.config().threads);
    let report = match shared.engine.run_on_in(&state.offline, &request, &cx) {
        Ok(report) => report,
        Err(cancelled) => {
            shared.metrics.timeouts_total.inc();
            if let Some(deadline) = budget.deadline() {
                // How far past the deadline the cooperative unwind
                // surfaced — the observable cancellation latency.
                let over = Instant::now().saturating_duration_since(deadline);
                shared.metrics.cancel_latency_seconds.observe_duration(over);
            }
            let elapsed = started.elapsed();
            record_slow(
                shared,
                request_id,
                entry.name(),
                504,
                state.generation,
                elapsed,
                &trace,
            );
            record_request(
                shared,
                index,
                request_id,
                state.generation,
                &canonical,
                cost,
                Some(&trace),
                cache_outcome,
                ResponseClass::Timeout,
                elapsed,
            );
            return Response::error(504, &format!("request deadline exceeded ({cancelled})"))
                .closing()
                .with_generation(state.generation);
        }
    };
    shared.metrics.observe_stages(&trace);
    let mut text = report.to_json(with_timings);
    if profile {
        // Splice the span tree into the report object under `"trace"`.
        text.truncate(text.len() - 1);
        text.push_str(&format!(
            ",\"trace\":{{\"total_us\":{},\"spans\":{}}}}}",
            trace.elapsed_us(),
            trace.spans_json()
        ));
    }
    let body: Arc<[u8]> = text.into_bytes().into();
    // Skip the insert when the body is request-specific (profile/timings)
    // or when a reload or eviction bumped this graph's generation
    // mid-evaluation: the old-generation key could never be looked up
    // again, so storing it would only waste cache budget (and could evict
    // live entries).
    if !bypass_cache && entry.generation() == state.generation {
        shared
            .cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(key, Arc::clone(&body));
    }
    let elapsed = started.elapsed();
    shared.metrics.request_seconds_explore_cold.observe_duration(elapsed);
    record_slow(shared, request_id, entry.name(), 200, state.generation, elapsed, &trace);
    record_request(
        shared,
        index,
        request_id,
        state.generation,
        &canonical,
        cost,
        Some(&trace),
        cache_outcome,
        ResponseClass::Ok,
        elapsed,
    );
    Response {
        status: 200,
        content_type: "application/json",
        headers: vec![("X-Cache", "miss".to_owned())],
        body,
        close: false,
        generation: Some(state.generation),
    }
}

fn reload(shared: &Shared, index: usize, body: &[u8]) -> Response {
    let started = Instant::now();
    let entry = &shared.catalog.entries()[index];
    // `None` reloads the graph's current path; the per-slot mutex inside
    // the catalog serializes reloads of the same graph while `/explore`
    // traffic (and reloads of *other* graphs) proceed untouched.
    let path = if body.is_empty() {
        None
    } else {
        let text = match std::str::from_utf8(body) {
            Ok(text) => text,
            Err(_) => return Response::error(400, "body is not UTF-8"),
        };
        match json::parse(text) {
            Ok(doc) => match doc.get("path") {
                Some(p) => match p.as_str() {
                    Some(p) => Some(PathBuf::from(p)),
                    None => return Response::error(400, "path must be a string"),
                },
                None => None,
            },
            Err(e) => return Response::error(400, &e.to_string()),
        }
    };

    // Fault-injection site for chaos tests: a simulated I/O failure takes
    // the same keep-the-old-generation path as a genuinely unreadable file.
    if let Some(e) = spade_parallel::fault::io_error("serve.reload") {
        return Response::error(409, &format!("reload failed, keeping generation: {e}"));
    }
    match shared.catalog.reload(entry, path) {
        Ok(Acquired { state, evicted, .. }) => {
            // Old-generation entries of this graph can never be requested
            // again (keys embed the generation); retire its whole cache
            // partition now instead of letting it age out of the byte
            // budget — plus the partitions of anything the budget evicted.
            {
                let mut cache =
                    shared.cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                cache.retire_prefix(&format!("{}@", entry.name()));
                for name in &evicted {
                    cache.retire_prefix(&format!("{name}@"));
                }
            }
            shared.metrics.reload_total.inc();
            shared.metrics.request_seconds_reload.observe_duration(started.elapsed());
            let mut w = JsonWriter::compact();
            w.begin_object();
            w.key("status").string("reloaded");
            w.key("graph").string(entry.name());
            w.key("generation").uint(state.generation);
            w.key("load_ms").f64(state.offline.load_time.as_secs_f64() * 1e3);
            w.end_object();
            Response::json(200, w.finish()).with_generation(state.generation)
        }
        // The old state keeps serving untouched; 409 tells the operator the
        // swap did not happen.
        Err(e) => Response::error(409, &format!("reload failed, keeping generation: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_explore_accepts_full_document() {
        let body = br#"{"k": 4, "interestingness": "skewness", "min_support": 0.25,
                        "cfs_filter": ["type:CEO"], "measure_filter": ["netWorth"],
                        "threads": 2}"#;
        let r = parse_explore(body).unwrap();
        assert_eq!(r.k, Some(4));
        assert_eq!(r.interestingness.map(|h| h.label()), Some("skewness"));
        assert_eq!(r.min_support, Some(0.25));
        assert_eq!(r.cfs_filter, vec!["type:CEO".to_owned()]);
        assert_eq!(r.measure_filter, vec!["netWorth".to_owned()]);
        assert_eq!(r.threads, Some(2));
        assert_eq!(parse_explore(b"").unwrap(), RequestConfig::default());
        assert_eq!(parse_explore(b"{}").unwrap(), RequestConfig::default());
    }

    #[test]
    fn parse_explore_rejects_bad_documents() {
        for bad in [
            br#"{"k": -1}"#.as_slice(),
            br#"{"k": "three"}"#,
            br#"{"interestingness": "magic"}"#,
            br#"{"min_support": 1.5}"#,
            br#"{"cfs_filter": "not-a-list"}"#,
            br#"{"cfs_filter": [1]}"#,
            br#"{"top_k": 3}"#,
            br#"[1,2,3]"#,
            br#"{"k": 3"#,
            &[0xff, 0xfe],
        ] {
            assert!(parse_explore(bad).is_err(), "{:?}", String::from_utf8_lossy(bad));
        }
    }
}
