//! The daemon: configuration, the accept loop and bounded worker pool,
//! connection handling, routing, and graceful drain. The explore path
//! lives in `server/explore.rs`, the metric registry and status views in
//! `server/status.rs`. See the crate root for the wire-protocol spec.

mod explore;
mod status;

use self::status::{log_line, GraphMetrics, Metrics};
use crate::admission::AdmissionController;
use crate::cache::ResultCache;
use crate::catalog::{graph_name_of, GraphCatalog};
use crate::http::{self, Conn, HttpError, Limits, Request};
use spade_core::json::JsonWriter;
use spade_core::{OfflineState, RequestConfig, Spade, SpadeConfig};
use spade_telemetry::{Ledger, Registry, SlowLog};
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
    /// expires is cooperatively cancelled (the [`spade_core::Budget`] in
    /// the request's [`spade_core::ExecCtx`] unwinds the engine at the next
    /// check point) and answered 504; the worker is recycled. `None` = no
    /// deadline.
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
    /// Latency SLO driving the `auto` capacity loop and the
    /// `spade_serve_slo_breach_total{graph=…}` burn-rate counters. Any SLO
    /// also turns early-stop on ([`SpadeConfig::with_early_stop`]) when the
    /// base config has it off: each explore prunes for its own request's
    /// `k` and `h`, in one batch when the SLO is under 2 s, so answers are
    /// approximate under the Section 5 guarantee. `None` = no SLO: `auto`
    /// assumes 1 s, nothing counts as a breach, early-stop stays as
    /// configured.
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
pub(crate) struct ServingState {
    /// The loaded offline state (graph + statistics).
    pub offline: OfflineState,
    /// Monotonic reload counter, part of every cache key.
    pub generation: u64,
    /// Where this generation was loaded from.
    pub source: PathBuf,
}

struct Shared {
    /// The configuration as started, `workers` resolved to the pool size.
    config: ServeConfig,
    /// The pipeline; its config is the base requests override and admission
    /// estimates read.
    engine: Spade,
    /// Graph name → lazily-opened serving state (per-graph generations,
    /// LRU eviction under `graph_memory_budget`). Legacy single-graph
    /// routes target `entries()[default_index]`.
    catalog: GraphCatalog,
    default_index: usize,
    /// Every metric family, behind the scrape lock: one scrape holds it
    /// from its `mirror` until its view has rendered.
    registry: Mutex<Registry>,
    metrics: Metrics,
    /// Per-graph metric handles, parallel to `catalog.entries()`.
    graph_metrics: Vec<GraphMetrics>,
    cache: Mutex<ResultCache>,
    /// Request analytics ledger: record ring + per-graph cost profiles +
    /// estimate-vs-actual scorecard (`GET /debug/queries`).
    ledger: Ledger,
    /// Bounded worst-N log of slow `/explore` traces (`GET /debug/slow`).
    slow: SlowLog,
    /// Monotone request-id source for logs and the slow log.
    request_ids: AtomicU64,
    shutdown: AtomicBool,
    admission: AdmissionController,
    /// Per-request evaluation-thread share (`threads / workers`, ≥ 1).
    request_threads: usize,
    started: Instant,
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
        let name = graph_name_of(&snapshot);
        Self::start_catalog(config, base, vec![(name.clone(), snapshot)], &name)
    }

    /// Starts a multi-graph server over `graphs` (name → snapshot path;
    /// `--snapshot-dir` resolves to this via
    /// [`crate::catalog::scan_snapshot_dir`]). The `default_graph` answers
    /// the legacy single-graph routes and is loaded **eagerly** — a broken
    /// default snapshot still fails startup, as the one-graph server did —
    /// while every other graph opens lazily on first touch.
    pub fn start_catalog(
        mut config: ServeConfig,
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
        if let (Some(slo), None) = (config.latency_slo, base.early_stop) {
            base = base.with_early_stop();
            if slo < Duration::from_secs(2) {
                base.early_stop = Some(1);
            }
        }
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
        let registry = Registry::new();
        let metrics = Metrics::register(&registry, &[]);
        let for_graph = |name: &str| GraphMetrics::register(&registry, &[name]);
        let graph_metrics: Vec<_> =
            catalog.entries().iter().map(|e| for_graph(e.name())).collect();
        let listener = TcpListener::bind(&config.addr).map_err(ServeError::Bind)?;
        let addr = listener.local_addr().map_err(ServeError::Bind)?;
        listener.set_nonblocking(true).map_err(ServeError::Bind)?;

        config.workers = spade_parallel::resolve_threads(config.workers);
        // Split the evaluation budget across the pool: `workers` requests in
        // flight, each with `threads / workers` (≥ 1) evaluation workers.
        let (_, request_threads) = spade_parallel::split_budget(threads, config.workers);
        let catalog_names = catalog.names();
        let shared = Arc::new(Shared {
            engine: Spade::new(base),
            catalog,
            default_index,
            registry: Mutex::new(registry),
            metrics,
            graph_metrics,
            cache: Mutex::new(ResultCache::new(config.cache_bytes)),
            ledger: Ledger::new(config.ledger_capacity, &catalog_names),
            slow: SlowLog::new(config.slow_ms, config.slow_capacity),
            request_ids: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            admission: AdmissionController::new(admission_capacity),
            request_threads,
            started: Instant::now(),
            config,
        });

        // Each queued connection carries its enqueue instant so the worker
        // that picks it up can record the observed queue wait.
        let (tx, rx) = std::sync::mpsc::sync_channel::<(TcpStream, Instant)>(
            shared.config.queue_depth.max(1),
        );
        let rx = Arc::new(Mutex::new(rx));
        let workers = shared.config.workers;
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
                        let busy =
                            Response::error(503, "server busy, retry later").retry_after();
                        let _ = busy.write(&mut stream, false);
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        shared.metrics.queue_depth.sub(1);
                        return;
                    }
                }
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
        let request = match conn.read_request(&shared.config.limits) {
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
                    || last_request.elapsed() > shared.config.idle_timeout
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
                let _ = Response::error(status, &e.to_string()).write(conn.stream(), false);
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
        if shared.config.log_json {
            let line = log_line(shared, &request, request_id, &response, panicked, started);
            eprintln!("{line}");
        }

        // Finish the in-flight response, but do not start another request
        // on this connection once draining, and recycle the connection after
        // a response that marked itself terminal (504/500).
        let keep_alive =
            request.keep_alive && !response.close && !shared.shutdown.load(Ordering::SeqCst);
        if response.write(conn.stream(), keep_alive).is_err() || !keep_alive {
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
    headers: &'static [(&'static str, &'static str)],
    body: Arc<[u8]>,
    /// Close the connection after writing this response (used after a
    /// timeout or caught panic, where the worker should shed per-connection
    /// state rather than trust the peer's framing to stay aligned).
    close: bool,
    /// The graph generation this response was computed against, when the
    /// route pinned one (explore/reload); the structured log falls back to
    /// the generation of the graph the route names otherwise.
    generation: Option<u64>,
}

impl Response {
    fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            headers: &[],
            body: body.into_bytes().into(),
            close: false,
            generation: None,
        }
    }

    /// `{"error": message}` — every failure status answers with this shape.
    fn error(status: u16, message: &str) -> Response {
        let mut w = JsonWriter::compact();
        w.begin_object();
        w.key("error").string(message);
        w.end_object();
        Response::json(status, w.finish())
    }

    fn closing(mut self) -> Response {
        self.close = true;
        self
    }

    fn with_generation(mut self, generation: u64) -> Response {
        self.generation = Some(generation);
        self
    }

    /// Marks a `503` as safe to repeat after one second.
    fn retry_after(mut self) -> Response {
        self.headers = &[("Retry-After", "1")];
        self
    }

    fn write(&self, stream: &mut TcpStream, keep_alive: bool) -> io::Result<()> {
        let Response { status, content_type, headers, .. } = *self;
        http::write_response(stream, status, content_type, headers, &self.body, keep_alive)
    }
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
            ("POST", "explore") => {
                explore::explore(shared, index, query, &request.body, request_id)
            }
            ("POST", "reload") => explore::reload(shared, index, &request.body),
            (_, "explore" | "reload") => Response::error(405, "use POST for this route"),
            _ => Response::error(404, "no such route"),
        };
    }
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => status::healthz(shared),
        ("GET", "/stats") => status::stats(shared),
        ("GET", "/metrics") => status::metrics(shared),
        ("GET", "/graphs") => status::graphs_index(shared),
        ("GET", "/debug/slow") => Response::json(200, shared.slow.to_json()),
        ("GET", "/debug/queries") => status::debug_queries(shared),
        ("POST", "/explore") => {
            explore::explore(shared, shared.default_index, query, &request.body, request_id)
        }
        ("POST", "/reload") => explore::reload(shared, shared.default_index, &request.body),
        (
            _,
            "/healthz" | "/stats" | "/metrics" | "/graphs" | "/debug/slow" | "/debug/queries",
        ) => Response::error(405, "use GET for this route"),
        (_, "/explore" | "/reload") => Response::error(405, "use POST for this route"),
        _ => Response::error(404, "no such route"),
    }
}
