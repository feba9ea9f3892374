//! Multi-graph catalog loopback suite: one daemon serving N snapshots
//! must answer each graph **byte-identically** to a dedicated one-graph
//! server over the same file (the catalog adds routing and memory
//! management, never changes answers), and a tiny `--graph-memory-budget`
//! must actually evict cold graphs — and transparently reopen them at a
//! bumped generation on the next request.

use spade_core::json::Json;
use spade_core::{Spade, SpadeConfig};
use spade_serve::client::{self, Client};
use spade_serve::server::{ServeConfig, ServeError, Server};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn base_config() -> SpadeConfig {
    SpadeConfig { k: 5, min_support: 0.3, min_cfs_size: 20, max_cfs: 6, ..Default::default() }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("spade_catalog_{}_{}", name, std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn write_snapshot(dir: &Path, file: &str, scale: usize, seed: u64) -> PathBuf {
    let g = spade_datagen::realistic::ceos(&spade_datagen::RealisticConfig { scale, seed });
    let nt = spade_rdf::write_ntriples(&g);
    let path = dir.join(file);
    Spade::new(base_config()).snapshot_ntriples(&nt, &path).expect("snapshot written");
    path
}

fn serve_config(cache_bytes: usize, graph_memory_budget: u64) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 4,
        threads: 4,
        cache_bytes,
        graph_memory_budget,
        ..Default::default()
    }
}

fn metric_value(exposition: &str, name: &str) -> Option<u64> {
    exposition.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        rest.strip_prefix(' ')?.trim().parse().ok()
    })
}

/// Two graphs behind one daemon answer exactly what two dedicated
/// one-graph servers would, under concurrent cross-graph traffic; legacy
/// routes hit the default graph.
#[test]
fn two_graphs_match_their_single_graph_oracles() {
    let dir = temp_dir("oracles");
    // Different seeds: the two corpora (and their reports) genuinely differ.
    let alpha = write_snapshot(&dir, "alpha.spade", 100, 11);
    let beta = write_snapshot(&dir, "beta.spade", 90, 23);

    let oracle_alpha =
        Spade::new(base_config()).run_snapshot(&alpha).expect("alpha oracle").to_json(false);
    let oracle_beta =
        Spade::new(base_config()).run_snapshot(&beta).expect("beta oracle").to_json(false);
    assert_ne!(oracle_alpha, oracle_beta, "the two corpora must differ for a real test");

    // Cache disabled: every request evaluates for real.
    let server = Server::start_catalog(
        serve_config(0, 0),
        base_config(),
        vec![("alpha".to_owned(), alpha.clone()), ("beta".to_owned(), beta.clone())],
        "alpha",
    )
    .expect("catalog server starts");
    let addr = server.local_addr();

    let bodies: Vec<(String, u16, Vec<u8>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                scope.spawn(move || {
                    let mut client = Client::new(addr);
                    // Interleave graphs within each connection.
                    let route = if i % 2 == 0 {
                        ["/graphs/alpha/explore", "/graphs/beta/explore"]
                    } else {
                        ["/graphs/beta/explore", "/graphs/alpha/explore"]
                    };
                    let mut out = Vec::new();
                    for r in route {
                        let resp = client.post(r, b"").expect("explore");
                        out.push((r.to_owned(), resp.status, resp.body));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    assert_eq!(bodies.len(), 8);
    for (route, status, body) in &bodies {
        assert_eq!(*status, 200, "{route}");
        let expected = if route.contains("alpha") { &oracle_alpha } else { &oracle_beta };
        assert_eq!(
            std::str::from_utf8(body).expect("UTF-8 body"),
            expected,
            "{route}: catalog body equals the one-graph oracle, byte for byte"
        );
    }

    // Legacy unprefixed routes are bound to the default graph (alpha).
    let legacy = client::post(addr, "/explore", b"").expect("legacy explore");
    assert_eq!(legacy.status, 200);
    assert_eq!(legacy.text(), oracle_alpha);

    // /graphs lists both, with the default marked.
    let index = client::get(addr, "/graphs").expect("graphs index");
    let doc = spade_core::json::parse(&index.text()).expect("graphs is JSON");
    assert_eq!(doc.get("default").and_then(|d| d.as_str()), Some("alpha"));
    let listed = doc.get("graphs").and_then(|g| g.as_array()).expect("graphs array");
    assert_eq!(listed.len(), 2);

    // Unknown graphs and wrong methods are typed errors, not fallthrough.
    let missing = client::post(addr, "/graphs/nope/explore", b"").expect("missing graph");
    assert_eq!(missing.status, 404);
    let wrong = client::get(addr, "/graphs/alpha/explore").expect("wrong method");
    assert_eq!(wrong.status, 405);

    // Per-graph series appear in /metrics with graph labels.
    let m = client::get(addr, "/metrics").expect("metrics").text();
    assert!(m.contains("spade_serve_graph_explore_total{graph=\"alpha\"}"), "{m}");
    assert!(m.contains("spade_serve_graph_explore_total{graph=\"beta\"}"), "{m}");
    assert!(m.contains("spade_serve_graph_generation{graph=\"beta\"} 1"), "{m}");
    assert_eq!(metric_value(&m, "spade_serve_graphs_loaded"), Some(2), "{m}");

    assert!(server.shutdown(Duration::from_secs(10)), "drained in time");
    std::fs::remove_dir_all(&dir).ok();
}

/// A byte budget far below one graph's resident estimate forces the
/// catalog to evict whichever graph is not being served; the evicted
/// graph transparently reopens (bumped generation, same bytes) on its
/// next request.
#[test]
fn tiny_budget_evicts_and_transparently_reopens() {
    let dir = temp_dir("budget");
    let alpha = write_snapshot(&dir, "alpha.spade", 100, 11);
    let beta = write_snapshot(&dir, "beta.spade", 90, 23);
    let oracle_beta =
        Spade::new(base_config()).run_snapshot(&beta).expect("beta oracle").to_json(false);

    // Budget of one byte: any two loaded graphs are over it, so touching
    // one always evicts the other. The cache is enabled to prove that a
    // reopened graph (bumped generation) still answers identical bytes.
    let server = Server::start_catalog(
        serve_config(1 << 20, 1),
        base_config(),
        vec![("alpha".to_owned(), alpha.clone()), ("beta".to_owned(), beta.clone())],
        "alpha",
    )
    .expect("catalog server starts");
    let addr = server.local_addr();
    let mut client = Client::new(addr);

    // The unlabeled snapshot gauges describe the default graph (alpha,
    // loaded eagerly).
    let m = client.get("/metrics").expect("metrics").text();
    assert!(metric_value(&m, "spade_serve_snapshot_triples").is_some_and(|t| t > 0), "{m}");

    // Touch beta: loads it (gen 1) and evicts alpha (loaded eagerly).
    let first = client.post("/graphs/beta/explore", b"").expect("beta explore");
    assert_eq!(first.status, 200);
    assert_eq!(first.text(), oracle_beta);

    // A cold default graph serves no triples: every view agrees it is
    // unloaded, and no gauge keeps its last loaded value.
    let m = client.get("/metrics").expect("metrics").text();
    assert_eq!(metric_value(&m, "spade_serve_snapshot_triples"), Some(0), "{m}");
    assert!(m.contains("spade_serve_graph_loaded{graph=\"alpha\"} 0"), "{m}");
    assert!(m.contains("spade_serve_graph_resident_bytes{graph=\"alpha\"} 0"), "{m}");
    let stats = client.get("/stats").expect("stats").text();
    assert!(stats.contains("\"snapshot\":{\"graph\":\"alpha\""), "{stats}");
    assert!(stats.contains("\"loaded\":false}"), "{stats}");

    // Touch alpha: transparently reopens it at gen 2 and evicts beta.
    let back = client.post("/graphs/alpha/explore", b"").expect("alpha explore");
    assert_eq!(back.status, 200);

    // And beta again: reopened at gen 2, byte-identical to its oracle
    // (the generation is in the cache key, so this cannot be a stale hit).
    let again = client.post("/graphs/beta/explore", b"").expect("beta explore again");
    assert_eq!(again.status, 200);
    assert_eq!(again.text(), oracle_beta, "reopened graph serves identical bytes");

    let stats = client::get(addr, "/stats").expect("stats");
    let doc = spade_core::json::parse(&stats.text()).expect("stats is JSON");
    let catalog = doc.get("catalog").expect("catalog object");
    let evictions =
        catalog.get("evictions_total").and_then(|v| v.as_usize()).expect("evictions_total");
    assert!(evictions >= 2, "each cross-graph touch evicts: {evictions}");
    assert_eq!(catalog.get("loaded").and_then(|v| v.as_usize()), Some(1), "budget holds one");

    // Reopens bump generations monotonically; /metrics agrees.
    let m = client::get(addr, "/metrics").expect("metrics").text();
    assert!(m.contains("spade_serve_graph_generation{graph=\"beta\"} 2"), "{m}");
    assert_eq!(metric_value(&m, "spade_serve_graphs_loaded"), Some(1), "{m}");
    assert_eq!(metric_value(&m, "spade_serve_graph_memory_budget_bytes"), Some(1), "{m}");

    assert!(server.shutdown(Duration::from_secs(10)), "drained in time");
    std::fs::remove_dir_all(&dir).ok();
}

/// Per-graph reload: reloading one graph bumps only its generation and
/// retires only its cache partition; the other graph's cached entries
/// keep hitting.
#[test]
fn reload_is_per_graph() {
    let dir = temp_dir("reload");
    let alpha = write_snapshot(&dir, "alpha.spade", 100, 11);
    let beta = write_snapshot(&dir, "beta.spade", 90, 23);

    let server = Server::start_catalog(
        serve_config(1 << 20, 0),
        base_config(),
        vec![("alpha".to_owned(), alpha.clone()), ("beta".to_owned(), beta.clone())],
        "alpha",
    )
    .expect("catalog server starts");
    let addr = server.local_addr();
    let mut client = Client::new(addr);

    // Warm both graphs' caches.
    let a1 = client.post("/graphs/alpha/explore", b"").expect("alpha");
    let b1 = client.post("/graphs/beta/explore", b"").expect("beta");
    assert_eq!((a1.status, b1.status), (200, 200));

    // Reload beta only.
    let r = client.post("/graphs/beta/reload", b"").expect("beta reload");
    assert_eq!(r.status, 200, "{}", r.text());
    let doc = spade_core::json::parse(&r.text()).expect("reload is JSON");
    assert_eq!(doc.get("graph").and_then(|g| g.as_str()), Some("beta"));
    assert_eq!(doc.get("generation").and_then(|g| g.as_usize()), Some(2));

    // Alpha's cache partition survived the beta reload; beta's was retired.
    let a2 = client.post("/graphs/alpha/explore", b"").expect("alpha again");
    assert_eq!(a2.header("x-cache").map(str::to_owned), Some("hit".to_owned()));
    assert_eq!(a2.body, a1.body);
    let b2 = client.post("/graphs/beta/explore", b"").expect("beta again");
    assert_eq!(b2.header("x-cache").map(str::to_owned), Some("miss".to_owned()));
    assert_eq!(b2.body, b1.body, "new generation, identical bytes");

    // Healthz still reports the default graph at generation 1.
    let health = client::get(addr, "/healthz").expect("healthz");
    assert!(health.text().contains("\"generation\":1"), "{}", health.text());
    assert!(health.text().contains("\"graph\":\"alpha\""), "{}", health.text());

    assert!(server.shutdown(Duration::from_secs(10)), "drained in time");
    std::fs::remove_dir_all(&dir).ok();
}

/// Catalog misconfigurations fail startup with the typed error, and a
/// broken default snapshot still refuses to start (the one-graph
/// contract), while a broken *non-default* graph starts fine and answers
/// 503 on first touch without disturbing the healthy graph.
#[test]
fn startup_and_lazy_open_failure_modes() {
    let dir = temp_dir("failures");
    let good = write_snapshot(&dir, "good.spade", 80, 7);
    let broken = dir.join("broken.spade");
    std::fs::write(&broken, b"not a snapshot").expect("write broken file");

    // Unknown default graph.
    let err = match Server::start_catalog(
        serve_config(0, 0),
        base_config(),
        vec![("good".to_owned(), good.clone())],
        "nope",
    ) {
        Err(err) => err,
        Ok(_) => panic!("unknown default must fail"),
    };
    assert!(matches!(err, ServeError::Catalog(_)), "{err}");

    // A broken default fails startup eagerly.
    let err = match Server::start_catalog(
        serve_config(0, 0),
        base_config(),
        vec![("broken".to_owned(), broken.clone())],
        "broken",
    ) {
        Err(err) => err,
        Ok(_) => panic!("broken default must fail startup"),
    };
    assert!(matches!(err, ServeError::Snapshot(_)), "{err}");

    // A broken non-default graph: startup succeeds, the healthy graph
    // serves, and touching the broken one is a 503 (not a panic, not a
    // daemon exit).
    let server = Server::start_catalog(
        serve_config(0, 0),
        base_config(),
        vec![("good".to_owned(), good.clone()), ("broken".to_owned(), broken.clone())],
        "good",
    )
    .expect("healthy default starts");
    let addr = server.local_addr();
    let ok = client::post(addr, "/graphs/good/explore", b"").expect("good explore");
    assert_eq!(ok.status, 200);
    let bad = client::post(addr, "/graphs/broken/explore", b"").expect("broken explore");
    assert_eq!(bad.status, 503, "{}", bad.text());
    let ok2 = client::post(addr, "/graphs/good/explore", b"").expect("good still serves");
    assert_eq!(ok2.status, 200);

    assert!(server.shutdown(Duration::from_secs(10)), "drained in time");
    std::fs::remove_dir_all(&dir).ok();
}

/// Every key path of a JSON document: `a.b` for nested objects, `a[].b`
/// for the keys of any element of array `a`.
fn key_paths(doc: &Json, prefix: &str, out: &mut BTreeSet<String>) {
    match doc {
        Json::Object(entries) => {
            for (key, value) in entries {
                let path =
                    if prefix.is_empty() { key.clone() } else { format!("{prefix}.{key}") };
                key_paths(value, &path, out);
                out.insert(path);
            }
        }
        Json::Array(items) => {
            for item in items {
                key_paths(item, &format!("{prefix}[]"), out);
            }
        }
        _ => {}
    }
}

fn all_keys(text: &str) -> Vec<String> {
    let mut out = BTreeSet::new();
    key_paths(&spade_core::json::parse(text).expect("JSON body"), "", &mut out);
    out.into_iter().collect()
}

fn top_keys(doc: &Json) -> Vec<String> {
    let mut keys: Vec<String> =
        doc.as_object().expect("JSON object").iter().map(|(k, _)| k.clone()).collect();
    keys.sort();
    keys
}

/// Every family of a Prometheus exposition as `name TYPE label,keys`
/// (label keys sorted and unioned over the family's series; a histogram's
/// `le` is its bucket bound, not a label of the family).
fn metric_families(exposition: &str) -> Vec<String> {
    let mut families: BTreeMap<String, (String, BTreeSet<String>)> = BTreeMap::new();
    for line in exposition.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE line");
            families.insert(name.to_owned(), (kind.to_owned(), BTreeSet::new()));
            continue;
        }
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let series = line.rsplit_once(' ').expect("sample line").0;
        let (sample, labels) = match series.split_once('{') {
            Some((sample, labels)) => (sample, labels.trim_end_matches('}')),
            None => (series, ""),
        };
        let family = if families.contains_key(sample) {
            sample
        } else {
            ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suffix| sample.strip_suffix(suffix))
                .filter(|name| families.contains_key(*name))
                .unwrap_or_else(|| panic!("sample {sample:?} has no TYPE line"))
        };
        let keys = &mut families.get_mut(family).expect("family").1;
        for pair in labels.split(',').filter(|p| !p.is_empty()) {
            let key = pair.split_once('=').expect("label pair").0;
            if key != "le" {
                keys.insert(key.to_owned());
            }
        }
    }
    families
        .into_iter()
        .map(|(name, (kind, keys))| {
            let keys = keys.into_iter().collect::<Vec<_>>().join(",");
            format!("{name} {kind} {keys}").trim_end().to_owned()
        })
        .collect()
}

fn assert_surface(what: &str, actual: &[String], expected: &[&str]) {
    assert_eq!(actual, expected, "{what} surface changed; actual:\n{actual:#?}");
}

/// The status surface — every key of `/healthz`, `/graphs` and `/stats`,
/// the top-level keys of `/debug/queries` and of a ledger entry, and every
/// `/metrics` family's name, type and label keys — pinned after one cold
/// explore, one cache hit and one reload on a two-graph catalog. Names,
/// types, labels and keys are the wire contract dashboards and scripts
/// read; this test fails on any addition, removal or rename.
#[test]
fn status_surface_is_pinned() {
    let dir = temp_dir("surface");
    let alpha = write_snapshot(&dir, "alpha.spade", 100, 11);
    let beta = write_snapshot(&dir, "beta.spade", 90, 23);
    let server = Server::start_catalog(
        serve_config(1 << 20, 0),
        base_config(),
        vec![("alpha".to_owned(), alpha), ("beta".to_owned(), beta)],
        "alpha",
    )
    .expect("catalog server starts");
    let addr = server.local_addr();
    let mut client = Client::new(addr);
    assert_eq!(client.post("/explore", b"").expect("cold").header("x-cache"), Some("miss"));
    assert_eq!(client.post("/explore", b"").expect("hit").header("x-cache"), Some("hit"));
    assert_eq!(client.post("/reload", b"").expect("reload").status, 200);

    let text = |route: &str| {
        let response = client::get(addr, route).expect(route);
        assert_eq!(response.status, 200, "{route}");
        response.text()
    };
    assert_surface(
        "/healthz",
        &all_keys(&text("/healthz")),
        &["generation", "graph", "graphs", "status"],
    );
    assert_surface(
        "/graphs",
        &all_keys(&text("/graphs")),
        &[
            "default",
            "graphs",
            "graphs[].generation",
            "graphs[].loaded",
            "graphs[].name",
            "graphs[].path",
            "graphs[].resident_bytes",
        ],
    );
    assert_surface(
        "/stats",
        &all_keys(&text("/stats")),
        &[
            "cache",
            "cache.bytes",
            "cache.entries",
            "cache.evictions",
            "cache.hits",
            "cache.misses",
            "catalog",
            "catalog.budget_bytes",
            "catalog.evictions_total",
            "catalog.graphs",
            "catalog.loaded",
            "catalog.loads_total",
            "catalog.resident_bytes",
            "cost_profiles",
            "cost_profiles[].cost_ewma",
            "cost_profiles[].cost_p50",
            "cost_profiles[].cost_p95",
            "cost_profiles[].cost_p99",
            "cost_profiles[].est_cost_ewma",
            "cost_profiles[].graph",
            "cost_profiles[].latency_ewma_us",
            "cost_profiles[].latency_p50_us",
            "cost_profiles[].latency_p95_us",
            "cost_profiles[].latency_p99_us",
            "cost_profiles[].requests",
            "cost_profiles[].slo_breaches",
            "graphs",
            "graphs[].generation",
            "graphs[].loaded",
            "graphs[].name",
            "graphs[].resident_bytes",
            "scorecard",
            "scorecard.count",
            "scorecard.q_error_geo_mean",
            "scorecard.q_error_max",
            "scorecard.q_error_p50",
            "scorecard.q_error_p95",
            "scorecard.q_error_p99",
            "server",
            "server.admission_capacity",
            "server.admission_inflight_cost",
            "server.connections_total",
            "server.explore_cached_total",
            "server.explore_total",
            "server.graph_evictions_total",
            "server.graph_loads_total",
            "server.http_errors_total",
            "server.in_flight",
            "server.panics_total",
            "server.queue_depth",
            "server.rejected_busy_total",
            "server.reload_total",
            "server.request_threads",
            "server.requests_total",
            "server.responses_4xx",
            "server.responses_5xx",
            "server.shed_total",
            "server.slow_log",
            "server.slow_log.capacity",
            "server.slow_log.threshold_ms",
            "server.timeouts_total",
            "server.uptime_secs",
            "server.workers",
            "snapshot",
            "snapshot.generation",
            "snapshot.graph",
            "snapshot.load_ms",
            "snapshot.properties",
            "snapshot.source",
            "snapshot.terms",
            "snapshot.triples",
        ],
    );

    let queries = spade_core::json::parse(&text("/debug/queries")).expect("queries JSON");
    assert_surface(
        "/debug/queries",
        &top_keys(&queries),
        &[
            "admission_capacity",
            "capacity",
            "cost_profiles",
            "entries",
            "overall",
            "recorded_total",
            "scorecard",
        ],
    );
    let entries = queries.get("entries").and_then(|e| e.as_array()).expect("entries");
    assert_surface(
        "ledger entry",
        &top_keys(&entries[0]),
        &[
            "actual_cost",
            "cache",
            "cells",
            "class",
            "estimated_cost",
            "facts",
            "generation",
            "graph",
            "id",
            "key_hash",
            "route",
            "slo_breach",
            "stages",
            "total_us",
            "unix_ms",
        ],
    );

    assert_surface(
        "/metrics",
        &metric_families(&text("/metrics")),
        &[
            "spade_serve_admission_capacity gauge",
            "spade_serve_admission_inflight_cost gauge",
            "spade_serve_cache_bytes gauge",
            "spade_serve_cache_evictions_total counter",
            "spade_serve_cache_hits_total counter",
            "spade_serve_cache_misses_total counter",
            "spade_serve_cancel_latency_seconds histogram",
            "spade_serve_connections_total counter",
            "spade_serve_explore_cached_total counter",
            "spade_serve_explore_total counter",
            "spade_serve_graph_cost_ewma gauge graph",
            "spade_serve_graph_cost_units gauge graph,quantile",
            "spade_serve_graph_evictions_total counter",
            "spade_serve_graph_explore_total counter graph",
            "spade_serve_graph_generation gauge graph",
            "spade_serve_graph_latency_ewma_us gauge graph",
            "spade_serve_graph_latency_us gauge graph,quantile",
            "spade_serve_graph_loaded gauge graph",
            "spade_serve_graph_loads_total counter",
            "spade_serve_graph_memory_budget_bytes gauge",
            "spade_serve_graph_resident_bytes gauge graph",
            "spade_serve_graph_resident_bytes_total gauge",
            "spade_serve_graphs_loaded gauge",
            "spade_serve_http_errors_total counter",
            "spade_serve_in_flight gauge",
            "spade_serve_panics_total counter",
            "spade_serve_queue_depth gauge",
            "spade_serve_queue_wait_seconds histogram",
            "spade_serve_rejected_busy_total counter",
            "spade_serve_reload_total counter",
            "spade_serve_request_seconds histogram route",
            "spade_serve_requests_total counter",
            "spade_serve_responses_4xx_total counter",
            "spade_serve_responses_5xx_total counter",
            "spade_serve_shed_total counter",
            "spade_serve_slo_breach_total counter graph",
            "spade_serve_snapshot_generation gauge",
            "spade_serve_snapshot_triples gauge",
            "spade_serve_stage_seconds histogram stage",
            "spade_serve_timeouts_total counter",
            "spade_serve_uptime_seconds gauge",
        ],
    );

    assert!(server.shutdown(Duration::from_secs(10)), "drained in time");
    std::fs::remove_dir_all(&dir).ok();
}
