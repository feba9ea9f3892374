//! `spade-serve` — a snapshot-backed concurrent exploration server:
//! **load once, serve many**.
//!
//! The offline phase (ingestion, RDFS saturation, offline attribute
//! analysis) runs once and lands in a `spade-store` snapshot file; this
//! crate is the long-running daemon that loads that file **once** into an
//! immutable [`spade_core::OfflineState`] and answers any number of
//! concurrent exploration requests against it through the cheap
//! per-request pipeline ([`spade_core::Spade::run_on`]). Everything is
//! `std`-only — a hand-rolled HTTP/1.1 layer ([`http`]) over
//! `std::net::TcpListener`, a bounded worker pool, and
//! [`spade_parallel`] for the evaluation fan-out — because the build
//! environment vendors no external crates.
//!
//! # Architecture
//!
//! * one **acceptor** thread (non-blocking accept + poll tick) feeds a
//!   bounded queue; when the queue is full the connection is answered
//!   `503` immediately instead of piling up,
//! * `workers` **worker** threads each own one connection at a time
//!   (keep-alive supported) and run requests to completion,
//! * the **thread budget** is coordinated: each request evaluates with
//!   `threads / workers` (≥ 1) workers via
//!   [`spade_parallel::split_budget`], so `N` concurrent requests never
//!   oversubscribe the configured core budget,
//! * results are **bit-identical** across thread budgets and concurrency
//!   (the pipeline's determinism guarantee), which makes the byte-budgeted
//!   LRU **result cache** ([`cache`]) exact: a hit returns the very bytes
//!   a fresh evaluation would produce,
//! * one daemon serves a whole **graph catalog** ([`catalog`]): each
//!   registered snapshot opens lazily (memory-mapped) on first touch, and
//!   an optional byte budget evicts the least-recently-used cold graphs so
//!   N snapshots on disk cost far less than N resident states,
//! * **hot reload** swaps an `Arc<ServingState>` atomically per graph:
//!   in-flight requests finish on the generation they started with;
//!   nothing is dropped,
//! * **graceful shutdown**: SIGTERM/SIGINT ([`signal`]) stops the
//!   acceptor, drains queued connections, finishes in-flight requests, and
//!   exits within a bounded deadline,
//! * **request lifecycle hardening**: per-request deadlines cancel
//!   overrunning evaluations cooperatively (a [`spade_core::Budget`]
//!   carried to every pipeline stage by the request's
//!   [`spade_core::ExecCtx`]), panics are isolated per
//!   request, and [`admission`] control sheds over-budget work before it
//!   starts — see *Failure modes and SLOs* below.
//!
//! Module map: `server.rs` owns configuration, the accept and worker loops
//! and routing; `server/explore.rs` the explore path (parse, cache,
//! admission, evaluation, and the one place a request is recorded);
//! `server/status.rs` the metric registry and every status view.
//!
//! # Wire protocol
//!
//! All request and response bodies are JSON (`application/json`) except
//! `/metrics`. Errors are always `{"error": "<message>"}` with the status
//! codes below. `Connection: keep-alive` is honored (HTTP/1.1 default);
//! `Content-Length` framing only (no `Transfer-Encoding`).
//!
//! ## Multi-graph routing
//!
//! The daemon serves a **catalog** of named graphs. Started with
//! `--snapshot-dir DIR`, every `DIR/*.spade` file registers a graph named
//! after its file stem (names are one URL-safe token: `[A-Za-z0-9_.-]`,
//! at most 128 chars; oddly-named files are skipped). Started with
//! `--snapshot FILE`, the catalog holds that one graph. Each graph is
//! addressed as a path segment:
//!
//! * `POST /graphs/{name}/explore` — explore against that graph;
//! * `POST /graphs/{name}/reload` — reload that graph only;
//! * `GET /graphs` — the catalog: `{"default": "…", "graphs": [{"name":
//!   …, "loaded": …, "generation": …, "resident_bytes": …, "path": …}]}`.
//!
//! An unknown `{name}` is `404`. The legacy unprefixed routes (`/explore`,
//! `/reload`) and the unlabeled snapshot gauges keep working — they are
//! bound to the **default graph** (`--default-graph`, else the
//! `--snapshot` stem, else the first name in sorted order), so one-graph
//! deployments upgrade without touching clients or dashboards.
//!
//! The default graph is loaded **eagerly** at startup (a broken default
//! snapshot still fails startup, exactly like the one-graph server);
//! every other graph opens **lazily** on its first request — and because
//! snapshot opens are memory-mapped (see `spade-store`), the open itself
//! is near-free and the materialized per-graph state is the only real
//! resident cost. `--graph-memory-budget BYTES` caps the sum of loaded
//! states' resident estimates: crossing it evicts the least-recently-used
//! cold graphs (their mmap and heap state are dropped, their result-cache
//! partition retired, `503`-free: the next request transparently reopens
//! them at a bumped generation). A graph whose snapshot has become
//! unreadable answers `503` on the lazy open while every other graph
//! keeps serving. Result-cache keys are partitioned per graph
//! (`{graph}@g{generation}:{request}`), so graphs share the byte budget
//! but can never alias each other's bodies.
//!
//! ## `POST /explore`
//!
//! Runs the five online steps against the loaded snapshot. The body is an
//! object of **optional** per-request overrides (an empty or absent body
//! runs the server's base configuration):
//!
//! ```json
//! {
//!   "k": 10,
//!   "interestingness": "variance",
//!   "min_support": 0.3,
//!   "cfs_filter": ["type:CEO"],
//!   "measure_filter": ["netWorth"],
//!   "threads": 4
//! }
//! ```
//!
//! * `k` — how many aggregates to return;
//! * `interestingness` — `"variance"`, `"skewness"`, or `"kurtosis"`;
//! * `min_support` — the Step-2/3 frequency threshold, in `[0, 1]`;
//! * `cfs_filter` — keep only CFSs whose name contains one of these
//!   substrings (applied before the `max_cfs` cap);
//! * `measure_filter` — keep only measures whose attribute name contains
//!   one of these substrings (`count(*)` always stays);
//! * `threads` — per-request evaluation budget, silently capped at the
//!   server's per-request share (results do not depend on it).
//!
//! Unknown fields are rejected with `400` (silent typos would degrade into
//! default answers). The `200` response body is
//! [`spade_core::SpadeReport::to_json`] without timings — fully
//! deterministic, so identical requests at any concurrency return
//! byte-identical bodies:
//!
//! ```json
//! {
//!   "profile": {"triples": 0, "cfs_count": 0, "direct_properties": 0,
//!                "derivations": {"kw": 0, "lang": 0, "count": 0, "path": 0},
//!                "aggregates": 0},
//!   "evaluated_aggregates": 0,
//!   "pruned_by_es": 0,
//!   "top": [
//!     {"cfs": "type:CEO", "dims": ["nationality"], "mda": "sum(netWorth)",
//!      "score": 1.0, "groups": 4, "description": "sum(netWorth) of type:CEO by nationality",
//!      "sample_groups": [{"group": "Angola", "value": 1.0}]}
//!   ]
//! }
//! ```
//!
//! The `X-Cache: hit|miss` response header reports whether the result came
//! from the cache (bodies are identical either way).
//!
//! Two query parameters change the body (and therefore bypass the result
//! cache in both directions — no lookup, no insert):
//!
//! * `?timings=1` — append the wall-clock `timings` object
//!   ([`spade_core::SpadeReport::to_json`] with timings);
//! * `?profile=1` — attach this request's span tree under a `"trace"` key:
//!
//! ```json
//! {"trace": {"total_us": 1234,
//!            "spans": [{"name": "evaluation", "start_us": 300, "dur_us": 900,
//!                       "attrs": {"cfs": 3}, "children": ["..."]}]}}
//! ```
//!
//! ## `POST /reload`
//!
//! Atomically replaces one graph's served snapshot (the default graph on
//! the legacy route, `{name}` on `/graphs/{name}/reload`). Body: `{}` or
//! absent to reload the graph's current file (picks up an in-place
//! rewrite), or `{"path": "/new/file.spade"}` to switch files. On
//! success: `200` with `{"status": "reloaded", "graph": "…",
//! "generation": N, "load_ms": …}`; that graph's result-cache partition
//! is retired (keys embed the graph and generation — other graphs' entries
//! stay warm). On failure: `409` and the previous state keeps serving
//! untouched. In-flight requests always finish on the generation they
//! started with.
//!
//! ## `GET /healthz`
//!
//! `200` with `{"status": "ok", "generation": N, "graph": "…",
//! "graphs": N}` once serving (`generation` and `graph` describe the
//! default graph).
//!
//! ## `GET /stats`
//!
//! `200` with a nested object: `snapshot` (the default graph: generation,
//! source path, triples, terms, properties, load_ms — or `"loaded":
//! false` if the budget evicted it), `catalog` (graphs, loaded,
//! resident_bytes, budget_bytes, loads_total, evictions_total), `graphs`
//! (one `{name, loaded, generation, resident_bytes}` per registered
//! graph), `cache` (hits, misses, evictions, entries, bytes), `server`
//! (workers, request_threads, uptime_secs, request counters, and a
//! `slow_log` sub-object with its threshold and capacity),
//! `cost_profiles` (one observed per-graph cost/latency profile per
//! registered graph — see `GET /debug/queries`), and `scorecard` (the
//! estimate-vs-actual q-error summary).
//!
//! ## `GET /metrics`
//!
//! Prometheus text exposition (`text/plain; version=0.0.4`) rendered from
//! the [`spade_telemetry::Registry`]. Counters:
//! `spade_serve_requests_total`, `spade_serve_explore_total`,
//! `spade_serve_explore_cached_total`, `spade_serve_reload_total`,
//! `spade_serve_connections_total`, `spade_serve_rejected_busy_total`,
//! `spade_serve_http_errors_total`, `spade_serve_responses_4xx_total`,
//! `spade_serve_responses_5xx_total`, `spade_serve_shed_total`,
//! `spade_serve_timeouts_total`, `spade_serve_panics_total`,
//! `spade_serve_graph_loads_total`, `spade_serve_graph_evictions_total`,
//! `spade_serve_cache_{hits,misses,evictions}_total`, and the per-graph
//! `spade_serve_graph_explore_total{graph="…"}` and
//! `spade_serve_slo_breach_total{graph="…"}` (requests that actually ran —
//! not cache hits or sheds — and finished over `--latency-slo-ms`; a
//! burn-rate numerator). (The
//! `spade_serve_cancel_latency_ms_total` counter was **removed** — the
//! `cancel_latency_seconds` histogram's `_sum`/`_count` carry strictly
//! more information; dashboards should divide those instead.)
//! Gauges: `spade_serve_in_flight`, `spade_serve_queue_depth`,
//! `spade_serve_admission_capacity`, `spade_serve_admission_inflight_cost`,
//! `spade_serve_cache_bytes`, `spade_serve_snapshot_generation`,
//! `spade_serve_snapshot_triples` (both describing the default graph),
//! `spade_serve_graphs_loaded`, `spade_serve_graph_resident_bytes_total`,
//! `spade_serve_graph_memory_budget_bytes`,
//! `spade_serve_uptime_seconds`, and per graph
//! `spade_serve_graph_generation{graph="…"}`,
//! `spade_serve_graph_resident_bytes{graph="…"}`,
//! `spade_serve_graph_loaded{graph="…"}`, plus the ledger-fed cost
//! profile series `spade_serve_graph_cost_ewma{graph="…"}`,
//! `spade_serve_graph_latency_ewma_us{graph="…"}`,
//! `spade_serve_graph_cost_units{graph="…",quantile="0.5"|"0.95"|"0.99"}`,
//! and
//! `spade_serve_graph_latency_us{graph="…",quantile="0.5"|"0.95"|"0.99"}`
//! (observed actual cost in work units and wall latency in microseconds,
//! from the streaming per-graph quantile sketches — label sets are
//! registered in sorted graph order with ascending quantiles, so the
//! exposition is deterministic).
//! Histograms (cumulative `_bucket{le=…}` / `_sum` / `_count` series):
//! `spade_serve_request_seconds{route="explore_cold"|"explore_warm"|"reload"}`,
//! `spade_serve_stage_seconds{stage=…}` (one series per online pipeline
//! stage), `spade_serve_queue_wait_seconds`, and
//! `spade_serve_cancel_latency_seconds` (the latter two on the
//! sub-millisecond [`spade_telemetry::FINE_DURATION_BOUNDS_SECONDS`]
//! bounds, 10 µs – 1 s: queue waits and cancellation latencies on a
//! healthy server sit far below the request-latency bucket floor).
//!
//! ## `GET /debug/slow`
//!
//! The in-memory slow-request log: the worst-`capacity` requests at or
//! above `--slow-ms`, each with its route, graph, status, generation,
//! duration, and full span tree. `{"threshold_ms": …, "capacity": …,
//! "entries": [{"id": …, "route": "explore", "graph": "…", "status": 200,
//! "generation": 1, "duration_ms": …, "unix_ms": …, "trace": {…}}]}`.
//! With `--slow-ms 0` (default) every traced request qualifies and the
//! log keeps the worst 32.
//!
//! ## `GET /debug/queries`
//!
//! The request analytics ledger ([`spade_telemetry::Ledger`]): one compact
//! record per completed `/explore` (hits, sheds, timeouts, and cold
//! completions alike) in a bounded ring, plus the aggregates derived from
//! it. The response shape:
//!
//! ```json
//! {
//!   "capacity": 256,
//!   "recorded_total": 1234,
//!   "admission_capacity": 40000,
//!   "scorecard": {"count": 87, "q_error_geo_mean": 1.9,
//!                  "q_error_p50": 1.6, "q_error_p95": 4.2,
//!                  "q_error_p99": 7.9, "q_error_max": 11.0},
//!   "overall": {"graph": "_overall", "requests": 87, "...": "..."},
//!   "cost_profiles": [
//!     {"graph": "dblp", "requests": 87,
//!      "cost_ewma": 5321.0, "est_cost_ewma": 9800.0,
//!      "cost_p50": 5100.0, "cost_p95": 9400.0, "cost_p99": 12000.0,
//!      "latency_ewma_us": 1800.0, "latency_p50_us": 1700.0,
//!      "latency_p95_us": 3900.0, "latency_p99_us": 5200.0,
//!      "slo_breaches": 2}
//!   ],
//!   "entries": [
//!     {"id": 41, "graph": "dblp", "generation": 1, "route": "explore",
//!      "key_hash": "9c1185a5c5e9fc54", "estimated_cost": 9800,
//!      "actual_cost": 5321, "cells": 4900, "facts": 421,
//!      "cache": "miss", "class": "ok", "total_us": 1765,
//!      "stages": {"cfs_selection": 12, "evaluation": 1430},
//!      "slo_breach": false, "unix_ms": 0}
//!   ]
//! }
//! ```
//!
//! `entries` is the ring tail, newest first, at most `--ledger-capacity`
//! (default 256) records. `key_hash` is the FNV-1a hash of the request's
//! canonical key — requests with equal hashes asked for the same
//! exploration. `cache` is `hit` / `miss` / `bypass` (profile or timings
//! bypassed the cache); `class` is `ok` / `timeout` / `shed` / `error`.
//! `actual_cost = cells + facts`, summed from the cube-engine shard spans
//! of the request's trace — a deterministic work measure (plan- and
//! thread-invariant), which is what makes the **scorecard** meaningful:
//! each cold completion grades [`admission::estimate_cost`] with the
//! q-error `max(est/act, act/est)` (both clamped ≥ 1), and the scorecard
//! reports the geometric mean, streaming p50/p95/p99, and max. A geo-mean
//! near 1 means the admission estimates track real work; a drifting one
//! means the estimator needs recalibrating. Cost profiles and the
//! scorecard fold in **cold successful** requests only (hits answer from
//! memory, sheds never run, timeouts measure the deadline — none of them
//! observe the true cost); every request still lands in the ring.
//!
//! ## Status codes
//!
//! | code | meaning |
//! |------|---------|
//! | 200  | success |
//! | 400  | malformed HTTP framing, malformed JSON, unknown/invalid field |
//! | 404  | unknown route |
//! | 405  | wrong method for a known route |
//! | 408  | one request took longer than the read deadline to arrive |
//! | 409  | reload failed; previous snapshot still serving |
//! | 413  | body above `--max-body-bytes` |
//! | 431  | request head above the head limit |
//! | 500  | a panic was caught serving this request; connection closed |
//! | 503  | accept queue full, admission shed (`Retry-After: 1`), or draining |
//! | 504  | evaluation cancelled at the per-request deadline; connection closed |
//!
//! # Failure modes and SLOs
//!
//! Every failure mode is bounded by a knob, observable in `/metrics`, and
//! never takes the daemon down:
//!
//! * **Slow client (slow-loris)** — a request whose bytes take longer than
//!   [`Limits::read_deadline`] (default 10 s) to arrive is answered `408`
//!   and the connection closed, so a trickling peer can pin a worker for at
//!   most the deadline. Idle keep-alive gaps *between* requests are bounded
//!   separately by `ServeConfig::idle_timeout`. Counted in
//!   `http_errors_total`.
//! * **Overrunning evaluation** — with `--request-timeout` set, every
//!   `/explore` runs [`spade_core::Spade::run_on_in`] under a deadline
//!   (without it, under an unlimited budget). The budget is checked between
//!   parallel batches and region flushes (never mid-batch, so outputs stay
//!   bit-identical when no cancellation fires); an expired request unwinds
//!   with a typed cancellation, answers `504`, and the worker is recycled.
//!   `timeouts_total` counts them; the `cancel_latency_seconds` histogram
//!   is the observed cancellation latency distribution (the check
//!   granularity — expect milliseconds, bounded by one region flush).
//! * **Overload** — two independent valves. The accept queue
//!   (`ServeConfig::queue_depth`) bounds *connections*: overflow is `503`
//!   at accept time, counted in `rejected_busy_total`, visible as the
//!   `queue_depth` gauge. Admission control (`--admission-capacity`)
//!   bounds *estimated work*: an `/explore` whose cost estimate
//!   ([`admission::estimate_cost`]) would overflow the in-flight sum is
//!   shed with `503` + `Retry-After: 1` before evaluation starts, counted
//!   in `shed_total`, visible as `admission_inflight_cost`. Cache hits are
//!   always admitted. [`client::RetryPolicy`] is the client-side half:
//!   jittered exponential backoff honoring `Retry-After` under a retry
//!   budget.
//! * **Bug (panic) in one request** — caught at the route boundary
//!   (`catch_unwind`): the request answers `500`, the connection closes,
//!   `panics_total` increments, and the daemon keeps serving. Locks stay
//!   usable (poison is stripped) and admission permits are released by
//!   RAII during the unwind.
//! * **Bad reload** — `409`; the previous generation keeps serving
//!   untouched.
//!
//! SLO guidance: alert on `panics_total > 0`, on `shed_total` rising while
//! `in_flight` is low (capacity set too tight), and on the upper buckets
//! of `cancel_latency_seconds` approaching the request timeout itself
//! (checks too coarse for the configured deadline).
//!
//! # Adaptive admission & SLOs
//!
//! A fixed `--admission-capacity N` forces the operator to guess, in
//! abstract work units, how much concurrent work the machine sustains —
//! and the right answer changes with the snapshot, the request mix, and
//! the hardware. The analytics ledger closes the loop:
//!
//! * **`--latency-slo-ms N`** declares the latency objective. Every
//!   request that actually ran (not a cache hit, not a shed) and finished
//!   — or timed out — above the SLO increments
//!   `spade_serve_slo_breach_total{graph="…"}` and is flagged
//!   `"slo_breach": true` in its ledger record; the counter is the
//!   numerator for burn-rate alerts (denominator:
//!   `spade_serve_explore_total`). When no `--request-timeout` is given,
//!   the SLO also derives the evaluation's early-stop budget at startup:
//!   pruning gets more aggressive (single-batch confirmation) below a 2 s
//!   SLO, standard two-batch confirmation above. The derivation is
//!   **static** — per-request adaptation would break the byte-identical
//!   response guarantee.
//! * **`--admission-capacity auto`** sizes capacity from observation
//!   instead of a guess. The capacity is seeded at startup with the
//!   static estimate of one default request, then after each profiled
//!   cold completion (once ≥ 4 are recorded) retargeted to
//!
//!   ```text
//!   capacity = workers × EWMA(estimated_cost) × headroom
//!   headroom = clamp(SLO / EWMA(latency), 1, 128)
//!   ```
//!
//!   in **estimate units** — the same units `try_admit` compares — so
//!   roughly `workers × headroom` average-estimate requests fit in
//!   flight. When observed latency sits well under the SLO the headroom
//!   factor admits deeper queues; as latency approaches the SLO the
//!   headroom collapses toward `workers` requests' worth of estimated
//!   work, shedding the excess instead of queueing it past the
//!   objective. The loop uses EWMAs (α = 0.1), so it converges within a
//!   few tens of requests and tracks drift; `set_capacity` is atomic and
//!   never disturbs in-flight permits. Without `--latency-slo-ms` the
//!   loop assumes a 1 s objective.
//!
//! # Observability
//!
//! Every layer of the daemon reports through one dependency-free
//! substrate, [`spade_telemetry`]:
//!
//! * **Metrics** — all counters, gauges, and histograms live in a single
//!   [`spade_telemetry::Registry`] and render deterministically (sorted
//!   family order, fixed bucket bounds) at `GET /metrics`. Values owned
//!   elsewhere (cache, catalog, admission, ledger profiles, uptime) are
//!   read once per scrape into the registry, and `/stats` renders from the
//!   same handles; scrapes are serialized, so one body never mixes two
//!   reads. Latency histograms share the
//!   [`spade_telemetry::DURATION_BOUNDS_SECONDS`] bounds (0.5 ms – 10 s),
//!   so `histogram_quantile` works uniformly across routes and stages.
//! * **Traces** — every cold `/explore` records a hierarchical span tree
//!   ([`spade_core::Trace`], entered through
//!   [`spade_core::ExecCtx::traced`]) through the whole pipeline: the six
//!   online stages at the top level, then per-CFS, per-lattice, translate,
//!   early-stop, and cube-engine shard/merge spans below. Span-tree
//!   *shape* is deterministic at any thread count (parallel fan-outs
//!   record index-ordered siblings); only timings vary. The top-level
//!   stage spans are the same measurement as the report's `timings`
//!   object — there is one timing source. Per-stage durations also feed
//!   the `spade_serve_stage_seconds` histogram, so stage-level latency
//!   is graphable without tracing every request.
//! * **Profiles** — `POST /explore?profile=1` attaches the span tree to
//!   the response (see the wire protocol above); `GET /debug/slow`
//!   retains the worst-N span trees at or above `--slow-ms`.
//! * **Logs** — `--log-json` writes one structured JSON line per request
//!   to stderr: `{"unix_ms": …, "id": …, "method": …, "route": …,
//!   "graph": …, "status": …, "generation": …, "duration_ms": …}` plus a
//!   `"cause"` key (`panic`, `timeout`, `shed`) on 500/503/504 responses.
//!   The `"graph"` key appears on graph-scoped requests (`/graphs/{name}/…`
//!   and the legacy `/explore` + `/reload`, which resolve to the default
//!   graph); catalog-wide routes omit it.
//! * **Ledger** — every completed `/explore` appends one compact record
//!   (estimate, measured cost, cache outcome, per-stage micros) to the
//!   [`spade_telemetry::Ledger`] ring; `GET /debug/queries` serves the
//!   tail, per-graph cost profiles, and the estimate-vs-actual scorecard
//!   (see above).
//!
//! Tracing is observation-only: response bodies stay bit-identical with
//! and without it, and the substrate's cost on the warm path is part of
//! the pinned benchmark's `serve.wire_overhead_ms` layer.
//!
//! # Running
//!
//! ```text
//! spade-serve --snapshot data.spade --addr 127.0.0.1:7878
//! spade-serve --snapshot-dir /var/spade/snapshots \
//!             --graph-memory-budget 2147483648 --addr 127.0.0.1:7878
//! ```
//!
//! See [`server::ServeConfig`] for every knob. The daemon exits `0` after
//! a clean drain on SIGTERM/SIGINT.

pub mod admission;
pub mod cache;
pub mod catalog;
pub mod client;
pub mod http;
pub mod server;
pub mod signal;

pub use admission::{AdmissionController, AdmissionPermit};
pub use cache::{CacheStats, ResultCache};
pub use catalog::{scan_snapshot_dir, GraphCatalog, GraphEntry};
pub use client::{Client, Response as ClientResponse, RetryPolicy};
pub use http::Limits;
pub use server::{ServeConfig, ServeError, Server, ServingState};
