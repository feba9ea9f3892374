//! Loopback integration suite: the serve layer extension of the
//! determinism story, plus every error path the wire spec promises.
//!
//! The heart is `concurrent_explore_is_deterministic_and_matches_serial`:
//! N identical concurrent requests (cache disabled, so every one actually
//! evaluates) must return **byte-identical** bodies, equal to what the
//! serial in-process path (`OfflineState::open`, then `Spade::run_on`)
//! computes for the same snapshot — the server adds concurrency, never
//! changes answers.

use spade_core::{OfflineState, RequestConfig, Spade, SpadeConfig};
use spade_serve::client::{self, Client};
use spade_serve::http::Limits;
use spade_serve::server::{ServeConfig, ServeError, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn base_config() -> SpadeConfig {
    SpadeConfig { k: 5, min_support: 0.3, min_cfs_size: 20, max_cfs: 6, ..Default::default() }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spade_serve_{}_{}", name, std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Writes a snapshot of a small simulated corpus and returns its path.
fn write_snapshot(dir: &Path, file: &str, scale: usize, seed: u64) -> PathBuf {
    let g = spade_datagen::realistic::ceos(&spade_datagen::RealisticConfig { scale, seed });
    let nt = spade_rdf::write_ntriples(&g);
    let path = dir.join(file);
    Spade::new(base_config()).snapshot_ntriples(&nt, &path).expect("snapshot written");
    path
}

/// What the in-process pipeline answers over the snapshot at `path` for
/// the default request: open the state, then `run_on`.
fn oracle(path: &Path) -> String {
    let state = OfflineState::open(path, 0).expect("snapshot opens");
    Spade::new(base_config()).run_on(&state, &RequestConfig::default()).to_json(false)
}

fn serve_config(cache_bytes: usize) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 4,
        threads: 4,
        cache_bytes,
        ..Default::default()
    }
}

#[test]
fn concurrent_explore_is_deterministic_and_matches_serial() {
    let dir = temp_dir("determinism");
    let path = write_snapshot(&dir, "corpus.spade", 100, 11);

    // The serial oracle: the in-process path over the same file.
    let expected = oracle(&path);

    // Cache disabled: every request must evaluate for real.
    let server = Server::start(serve_config(0), base_config(), &path).expect("server starts");
    let addr = server.local_addr();

    let bodies: Vec<(u16, Vec<u8>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::new(addr);
                    let mut out = Vec::new();
                    for _ in 0..2 {
                        let r = client.post("/explore", b"").expect("explore");
                        out.push((r.status, r.body));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    assert_eq!(bodies.len(), 16);
    for (status, body) in &bodies {
        assert_eq!(*status, 200);
        assert_eq!(
            std::str::from_utf8(body).expect("UTF-8 body"),
            expected,
            "every concurrent body equals the serial oracle, byte for byte"
        );
    }
    // The oracle has real content (not a vacuous equality).
    assert!(expected.contains("\"top\":[{"), "oracle has top aggregates: {expected}");

    // The auxiliary routes answer while traffic flows.
    let health = client::get(addr, "/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    assert!(health.text().contains("\"status\":\"ok\""));
    let stats = client::get(addr, "/stats").expect("stats");
    assert_eq!(stats.status, 200);
    let stats_doc = spade_core::json::parse(&stats.text()).expect("stats is JSON");
    assert_eq!(
        stats_doc.get("server").and_then(|s| s.get("workers")).and_then(|v| v.as_usize()),
        Some(4)
    );
    let metrics = client::get(addr, "/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    assert!(metrics.text().contains("spade_serve_explore_total 16"));

    assert!(server.shutdown(Duration::from_secs(10)), "drained in time");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn request_overrides_and_cache_hits_are_exact() {
    let dir = temp_dir("cache");
    let path = write_snapshot(&dir, "corpus.spade", 100, 11);
    let server =
        Server::start(serve_config(1 << 20), base_config(), &path).expect("server starts");
    let addr = server.local_addr();
    let mut client = Client::new(addr);

    let first = client.post("/explore", br#"{"k": 2}"#).expect("first");
    assert_eq!(first.status, 200);
    assert_eq!(first.header("x-cache"), Some("miss"));
    let second = client.post("/explore", br#"{"k": 2}"#).expect("second");
    assert_eq!(second.header("x-cache"), Some("hit"));
    assert_eq!(first.body, second.body, "cache hits are exact bytes");

    // Thread overrides share the cache entry (results are thread-invariant).
    let threaded = client.post("/explore", br#"{"k": 2, "threads": 3}"#).expect("threaded");
    assert_eq!(threaded.header("x-cache"), Some("hit"));
    assert_eq!(threaded.body, first.body);

    // A different request misses and differs.
    let other = client.post("/explore", br#"{"k": 1}"#).expect("other");
    assert_eq!(other.header("x-cache"), Some("miss"));
    assert_ne!(other.body, first.body);

    // Filters actually filter.
    let filtered = client
        .post("/explore", br#"{"measure_filter": ["netWorth"], "cfs_filter": ["type:CEO"]}"#)
        .expect("filtered");
    assert_eq!(filtered.status, 200);
    let doc = spade_core::json::parse(&filtered.text()).expect("filtered JSON");
    let top = doc.get("top").and_then(|t| t.as_array()).expect("top array");
    assert!(!top.is_empty());
    for entry in top {
        let cfs = entry.get("cfs").and_then(|v| v.as_str()).expect("cfs");
        assert!(cfs.contains("type:CEO"), "cfs filter honored: {cfs}");
        let mda = entry.get("mda").and_then(|v| v.as_str()).expect("mda");
        assert!(mda.contains("netWorth") || mda == "count(*)", "measure filter honored: {mda}");
    }

    let stats = client.get("/stats").expect("stats");
    let doc = spade_core::json::parse(&stats.text()).expect("stats JSON");
    let hits = doc.get("cache").and_then(|c| c.get("hits")).and_then(|v| v.as_usize());
    assert!(hits >= Some(2), "stats counted the hits: {hits:?}");

    assert!(server.shutdown(Duration::from_secs(10)));
    std::fs::remove_dir_all(&dir).ok();
}

/// `k` is any non-negative integer on the wire. One far above the number
/// of aggregates answers every positive-score aggregate, with the bytes
/// `run_on` gives for that `k`: nothing in the pipeline is sized by `k`.
#[test]
fn huge_k_answers_every_aggregate() {
    let dir = temp_dir("huge_k");
    let path = write_snapshot(&dir, "corpus.spade", 100, 11);
    let state = OfflineState::open(&path, 0).expect("snapshot opens");
    let spade = Spade::new(base_config());
    let run = |k| spade.run_on(&state, &RequestConfig { k: Some(k), ..Default::default() });
    let expected = run(1_000_000_000_000);
    assert_eq!(expected.to_json(false), run(usize::MAX).to_json(false), "every aggregate");
    assert!(expected.top.len() > base_config().k);

    let server = Server::start(serve_config(0), base_config(), &path).expect("server starts");
    let r = client::post(server.local_addr(), "/explore", br#"{"k": 1000000000000}"#)
        .expect("huge k");
    assert_eq!(r.status, 200);
    assert_eq!(r.text(), expected.to_json(false));

    assert!(server.shutdown(Duration::from_secs(10)));
    std::fs::remove_dir_all(&dir).ok();
}

/// A latency objective turns early-stop on at startup; it must still
/// prune for each request's own `k` and `h`, so a served answer equals
/// early-stop built in process for that request.
#[test]
fn latency_slo_early_stop_answers_the_request() {
    let dir = temp_dir("slo_early_stop");
    let path = write_snapshot(&dir, "corpus.spade", 100, 11);
    let request = RequestConfig {
        k: Some(20),
        interestingness: RequestConfig::interestingness_from_name("skewness"),
        ..Default::default()
    };
    let state = OfflineState::open(&path, 1).expect("snapshot opens");
    let expected = Spade::new(request.apply(&base_config()).with_early_stop())
        .run_on(&state, &RequestConfig::default())
        .to_json(false);

    let config = ServeConfig { latency_slo: Some(Duration::from_secs(5)), ..serve_config(0) };
    let server = Server::start(config, base_config(), &path).expect("server starts");
    let response = client::post(
        server.local_addr(),
        "/explore",
        br#"{"k": 20, "interestingness": "skewness"}"#,
    )
    .expect("explore");
    assert_eq!(response.status, 200);
    assert_eq!(response.text(), expected, "served bytes equal the in-process oracle");
    assert!(expected.contains("\"top\":[{"), "oracle has top aggregates: {expected}");

    assert!(server.shutdown(Duration::from_secs(10)));
    std::fs::remove_dir_all(&dir).ok();
}

/// A latency objective under 2 s makes early-stop consume its sample in
/// one batch: the served answer equals the one-batch in-process oracle,
/// and the request is one whose pruning tells one batch from two.
#[test]
fn tight_latency_slo_prunes_in_one_batch() {
    let dir = temp_dir("slo_one_batch");
    let path = write_snapshot(&dir, "corpus.spade", 100, 11);
    let request = RequestConfig {
        k: Some(3),
        interestingness: RequestConfig::interestingness_from_name("skewness"),
        ..Default::default()
    };
    let state = OfflineState::open(&path, 1).expect("snapshot opens");
    let two = request.apply(&base_config()).with_early_stop();
    let one = SpadeConfig { early_stop: Some(1), ..two.clone() };
    let [one, two] =
        [one, two].map(|config| Spade::new(config).run_on(&state, &RequestConfig::default()));
    assert_ne!(
        (one.evaluated_aggregates, one.pruned_by_es),
        (two.evaluated_aggregates, two.pruned_by_es),
        "the request must prune differently in one batch and in two"
    );

    let config = ServeConfig { latency_slo: Some(Duration::from_secs(1)), ..serve_config(0) };
    let server = Server::start(config, base_config(), &path).expect("server starts");
    let response = client::post(
        server.local_addr(),
        "/explore",
        br#"{"k": 3, "interestingness": "skewness"}"#,
    )
    .expect("explore");
    assert_eq!(response.status, 200);
    assert_eq!(response.text(), one.to_json(false), "served bytes equal the one-batch oracle");

    assert!(server.shutdown(Duration::from_secs(10)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reload_under_load_never_drops_requests() {
    let dir = temp_dir("reload");
    let path_a = write_snapshot(&dir, "a.spade", 100, 11);
    let path_b = write_snapshot(&dir, "b.spade", 120, 23);
    let expected_a = oracle(&path_a);
    let expected_b = oracle(&path_b);
    assert_ne!(expected_a, expected_b, "the two corpora must differ");

    // Cache disabled so requests in flight during the swap really evaluate.
    let server = Server::start(serve_config(0), base_config(), &path_a).expect("server starts");
    let addr = server.local_addr();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let outcome: (Vec<String>, u16) = std::thread::scope(|scope| {
        let loaders: Vec<_> = (0..3)
            .map(|_| {
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut client = Client::new(addr);
                    let mut bodies = Vec::new();
                    while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                        let r = client.post("/explore", b"").expect("explore under reload");
                        assert_eq!(r.status, 200, "no request fails during reload");
                        bodies.push(r.text());
                    }
                    bodies
                })
            })
            .collect();
        // Let traffic build up, swap snapshots mid-flight, let it settle.
        std::thread::sleep(Duration::from_millis(300));
        let body = format!(
            "{{\"path\": {}}}",
            spade_core::json::quote(path_b.to_str().expect("utf-8 path"),)
        );
        let reload = client::post(addr, "/reload", body.as_bytes()).expect("reload");
        std::thread::sleep(Duration::from_millis(300));
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        let bodies = loaders.into_iter().flat_map(|h| h.join().expect("loader")).collect();
        (bodies, reload.status)
    });
    let (bodies, reload_status) = outcome;
    assert_eq!(reload_status, 200);
    assert!(!bodies.is_empty());
    // Every overlapping body belongs to exactly one generation — nothing
    // fails, nothing is a torn mix. (How many land on each side of the
    // swap is timing; the post-reload checks below pin the new state.)
    for body in &bodies {
        assert!(
            *body == expected_a || *body == expected_b,
            "a body matched neither generation: {body}"
        );
    }

    // The generation advanced and new requests serve B.
    let health = client::get(addr, "/healthz").expect("healthz");
    assert!(health.text().contains("\"generation\":2"), "{}", health.text());
    let after = client::post(addr, "/explore", b"").expect("post-reload explore");
    assert_eq!(after.text(), expected_b);

    // A failed reload keeps the current generation serving.
    let bogus = dir.join("missing.spade");
    let body =
        format!("{{\"path\": {}}}", spade_core::json::quote(bogus.to_str().expect("utf-8")));
    let failed = client::post(addr, "/reload", body.as_bytes()).expect("failed reload");
    assert_eq!(failed.status, 409);
    assert!(failed.text().contains("keeping generation"));
    let still = client::post(addr, "/explore", b"").expect("explore after failed reload");
    assert_eq!(still.text(), expected_b);
    let health = client::get(addr, "/healthz").expect("healthz after failed reload");
    assert!(health.text().contains("\"generation\":2"));

    assert!(server.shutdown(Duration::from_secs(10)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn error_paths_match_the_wire_spec() {
    let dir = temp_dir("errors");
    let path = write_snapshot(&dir, "corpus.spade", 100, 11);

    // A bad snapshot path fails startup with a typed error.
    match Server::start(serve_config(0), base_config(), dir.join("nope.spade")) {
        Err(ServeError::Snapshot(_)) => {}
        other => panic!("expected Snapshot error, got {other:?}", other = other.err()),
    }

    let config = ServeConfig {
        limits: Limits { max_head_bytes: 2048, max_body_bytes: 256, ..Limits::default() },
        ..serve_config(0)
    };
    let server = Server::start(config, base_config(), &path).expect("server starts");
    let addr = server.local_addr();

    // Malformed HTTP framing → 400 over the raw socket.
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.write_all(b"definitely not http\r\n\r\n").expect("write garbage");
    let mut response = String::new();
    raw.read_to_string(&mut response).expect("read 400");
    assert!(response.starts_with("HTTP/1.1 400 "), "{response}");

    // Oversized body → 413.
    let big = vec![b' '; 1024];
    let r = client::post(addr, "/explore", &big).expect("oversized");
    assert_eq!(r.status, 413);

    // Oversized head → 431.
    let mut raw = TcpStream::connect(addr).expect("connect");
    let long = format!("GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "x".repeat(4096));
    raw.write_all(long.as_bytes()).expect("write long head");
    let mut response = String::new();
    raw.read_to_string(&mut response).expect("read 431");
    assert!(response.starts_with("HTTP/1.1 431 "), "{response}");

    // Unknown route → 404; wrong method → 405.
    assert_eq!(client::get(addr, "/nope").expect("404").status, 404);
    assert_eq!(client::get(addr, "/explore").expect("405").status, 405);
    assert_eq!(client::post(addr, "/healthz", b"").expect("405").status, 405);

    // Malformed and invalid JSON bodies → 400 with an error message.
    for bad in [br#"{"k": "#.as_slice(), br#"{"top_k": 3}"#, br#"{"interestingness": "magic"}"#]
    {
        let r = client::post(addr, "/explore", bad).expect("bad body");
        assert_eq!(r.status, 400, "{}", String::from_utf8_lossy(bad));
        assert!(r.text().contains("\"error\":"));
    }

    // The server still answers normally after all that abuse.
    let ok = client::post(addr, "/explore", br#"{"k": 1}"#).expect("healthy again");
    assert_eq!(ok.status, 200);

    assert!(server.shutdown(Duration::from_secs(10)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_exposition_is_prometheus_conformant() {
    let dir = temp_dir("conformance");
    let path = write_snapshot(&dir, "corpus.spade", 100, 11);
    let server =
        Server::start(serve_config(1 << 20), base_config(), &path).expect("server starts");
    let addr = server.local_addr();
    let mut client = Client::new(addr);

    // Exercise every histogram family: a cold explore (request + stage
    // seconds), a warm repeat (the warm route series), and a reload.
    assert_eq!(client.post("/explore", b"").expect("cold").status, 200);
    assert_eq!(client.post("/explore", b"").expect("warm").status, 200);
    assert_eq!(client.post("/reload", b"").expect("reload").status, 200);

    let metrics = client.get("/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    let text = metrics.text();
    // The full parse-back: HELP/TYPE structure, monotone cumulative
    // buckets, +Inf == _count, finite sums — on the live exposition.
    let summary = spade_telemetry::conformance::check(&text)
        .unwrap_or_else(|e| panic!("non-conformant exposition: {e}\n{text}"));
    assert!(summary.histograms >= 3, "expected ≥3 histogram families: {summary:?}");
    assert!(text.contains("spade_serve_request_seconds_bucket{route=\"explore_cold\""));
    assert!(text.contains("spade_serve_request_seconds_bucket{route=\"explore_warm\""));
    assert!(text.contains("spade_serve_request_seconds_bucket{route=\"reload\""));
    assert!(text.contains("spade_serve_stage_seconds_bucket{stage=\"evaluation\""));
    // The deprecated `cancel_latency_ms_total` counter is gone; its
    // replacement histogram's `_sum`/`_count` carry the same information.
    assert!(!text.contains("spade_serve_cancel_latency_ms_total"));
    assert!(text.contains("# TYPE spade_serve_cancel_latency_seconds histogram"));
    // Queue waits sit far below a millisecond, so the fine bounds must
    // expose sub-ms buckets (the coarse floor of 0.5 ms would flatline).
    assert!(text.contains("spade_serve_queue_wait_seconds_bucket{le=\"0.00001\""));
    assert!(text.contains("spade_serve_cancel_latency_seconds_bucket{le=\"0.00001\""));
    // The ledger-fed per-graph cost-profile series: present, labeled by
    // graph and quantile, and label-sorted within each family.
    let (_, details) = spade_telemetry::conformance::check_detailed(&text)
        .unwrap_or_else(|e| panic!("non-conformant exposition: {e}\n{text}"));
    for family in [
        "spade_serve_graph_cost_units",
        "spade_serve_graph_latency_us",
        "spade_serve_graph_cost_ewma",
        "spade_serve_graph_latency_ewma_us",
        "spade_serve_slo_breach_total",
    ] {
        let detail = details
            .iter()
            .find(|d| d.name == family)
            .unwrap_or_else(|| panic!("family {family} missing from exposition"));
        assert!(!detail.series.is_empty(), "{family} has no series");
        assert!(
            detail.series.windows(2).all(|w| w[0] < w[1]),
            "{family} series not label-sorted: {:?}",
            detail.series
        );
    }
    assert!(text.contains("spade_serve_graph_cost_units{graph=\"corpus\",quantile=\"0.5\"}"));
    assert!(text.contains("spade_serve_graph_latency_us{graph=\"corpus\",quantile=\"0.99\"}"));

    assert!(server.shutdown(Duration::from_secs(10)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn debug_queries_serves_ledger_and_scorecard() {
    let dir = temp_dir("ledger_route");
    let path = write_snapshot(&dir, "corpus.spade", 100, 11);
    let server =
        Server::start(serve_config(1 << 20), base_config(), &path).expect("server starts");
    let addr = server.local_addr();
    let mut client = Client::new(addr);

    // One cold evaluation (profiled into the scorecard) and one cache hit
    // (ring-only): both must land in the ledger tail.
    assert_eq!(client.post("/explore", b"").expect("cold").status, 200);
    assert_eq!(client.post("/explore", b"").expect("warm").status, 200);

    let queries = client.get("/debug/queries").expect("debug/queries");
    assert_eq!(queries.status, 200);
    let doc = spade_core::json::parse(&queries.text()).expect("ledger JSON");
    assert_eq!(doc.get("recorded_total").and_then(|v| v.as_usize()), Some(2));
    assert!(doc.get("capacity").and_then(|v| v.as_usize()).is_some_and(|c| c >= 2));

    // Tail is newest first: the warm hit, then the cold miss. Both carry
    // the same key hash (identical canonical request).
    let entries = doc.get("entries").and_then(|e| e.as_array()).expect("entries");
    assert_eq!(entries.len(), 2);
    assert_eq!(entries[0].get("cache").and_then(|v| v.as_str()), Some("hit"));
    assert_eq!(entries[1].get("cache").and_then(|v| v.as_str()), Some("miss"));
    assert_eq!(
        entries[0].get("key_hash").and_then(|v| v.as_str()),
        entries[1].get("key_hash").and_then(|v| v.as_str()),
        "identical requests share a canonical key hash"
    );
    for entry in entries {
        assert_eq!(entry.get("graph").and_then(|v| v.as_str()), Some("corpus"));
        assert_eq!(entry.get("class").and_then(|v| v.as_str()), Some("ok"));
        assert_eq!(entry.get("route").and_then(|v| v.as_str()), Some("explore"));
        assert!(entry.get("estimated_cost").and_then(|v| v.as_usize()).is_some_and(|c| c > 0));
    }
    // The cold run measured real work; the hit answered from memory.
    assert!(entries[1].get("actual_cost").and_then(|v| v.as_usize()).is_some_and(|c| c > 0));
    assert_eq!(entries[0].get("actual_cost").and_then(|v| v.as_usize()), Some(0));

    // Exactly the cold completion graded the estimator.
    let scorecard = doc.get("scorecard").expect("scorecard");
    assert_eq!(scorecard.get("count").and_then(|v| v.as_usize()), Some(1));
    let geo = scorecard.get("q_error_geo_mean").and_then(|v| v.as_f64()).expect("geo mean");
    assert!(geo.is_finite() && geo >= 1.0, "q-error geo-mean is finite and ≥1: {geo}");

    // The per-graph profile folded the same single cold request.
    let profiles = doc.get("cost_profiles").and_then(|p| p.as_array()).expect("profiles");
    assert_eq!(profiles.len(), 1);
    assert_eq!(profiles[0].get("graph").and_then(|v| v.as_str()), Some("corpus"));
    assert_eq!(profiles[0].get("requests").and_then(|v| v.as_usize()), Some(1));
    assert!(profiles[0]
        .get("cost_p50")
        .and_then(|v| v.as_f64())
        .is_some_and(|c| c.is_finite() && c > 0.0));

    // `/stats` mirrors the same profile and scorecard sections.
    let stats = client.get("/stats").expect("stats");
    let stats_doc = spade_core::json::parse(&stats.text()).expect("stats JSON");
    let stats_profiles =
        stats_doc.get("cost_profiles").and_then(|p| p.as_array()).expect("stats profiles");
    assert_eq!(stats_profiles.len(), 1);
    assert_eq!(
        stats_doc.get("scorecard").and_then(|s| s.get("count")).and_then(|v| v.as_usize()),
        Some(1)
    );

    assert!(server.shutdown(Duration::from_secs(10)));
    std::fs::remove_dir_all(&dir).ok();
}

/// Reduces a `?profile=1` span tree to names + nesting + sibling order.
fn shape_of(spans: &[spade_core::json::Json], out: &mut String) {
    for span in spans {
        out.push_str(span.get("name").and_then(|n| n.as_str()).expect("span name"));
        if let Some(children) = span.get("children").and_then(|c| c.as_array()) {
            out.push('(');
            shape_of(children, out);
            out.push(')');
        }
        out.push(';');
    }
}

#[test]
fn profile_span_tree_shape_is_thread_invariant() {
    let dir = temp_dir("profile");
    let path = write_snapshot(&dir, "corpus.spade", 100, 11);
    let server =
        Server::start(serve_config(1 << 20), base_config(), &path).expect("server starts");
    let addr = server.local_addr();
    let mut client = Client::new(addr);

    let baseline = client.post("/explore", b"").expect("baseline").text();
    let mut shapes: Vec<(usize, String)> = Vec::new();
    for threads in [1usize, 2, 8] {
        let body = format!("{{\"threads\": {threads}}}");
        let r = client.post("/explore?profile=1", body.as_bytes()).expect("profiled");
        assert_eq!(r.status, 200);
        // Profiled responses bypass the cache in both directions.
        assert_eq!(r.header("x-cache"), Some("miss"));
        let text = r.text();
        assert!(text.contains("\"trace\":{"), "profile attaches the trace: {text}");
        let doc = spade_core::json::parse(&text).expect("profiled JSON");
        let trace = doc.get("trace").expect("trace key");
        assert!(trace.get("total_us").and_then(|v| v.as_usize()).is_some());
        let spans = trace.get("spans").and_then(|s| s.as_array()).expect("spans");
        let mut shape = String::new();
        shape_of(spans, &mut shape);
        shapes.push((threads, shape));
        // Minus the trace, the profiled body is the plain deterministic one.
        let report_only = &text[..text.rfind(",\"trace\":{").expect("trace suffix")];
        assert_eq!(format!("{report_only}}}"), baseline);
    }
    for w in shapes.windows(2) {
        assert_eq!(
            w[0].1, w[1].1,
            "span-tree shape differs between threads={} and threads={}",
            w[0].0, w[1].0
        );
    }
    // The tree really descends through the pipeline into the engine.
    let shape = &shapes[0].1;
    for stage in ["offline_analysis;", "cfs_selection(", "evaluation(", "lattice(", "topk;"] {
        assert!(shape.contains(stage), "missing {stage} in {shape}");
    }

    assert!(server.shutdown(Duration::from_secs(10)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn slow_log_retains_traced_requests() {
    let dir = temp_dir("slowlog");
    let path = write_snapshot(&dir, "corpus.spade", 100, 11);
    // Threshold 0: every cold explore qualifies for the slow log.
    let config = ServeConfig { slow_ms: 0, slow_capacity: 4, ..serve_config(0) };
    let server = Server::start(config, base_config(), &path).expect("server starts");
    let addr = server.local_addr();
    let mut client = Client::new(addr);

    for _ in 0..3 {
        assert_eq!(client.post("/explore", b"").expect("explore").status, 200);
    }
    let slow = client.get("/debug/slow").expect("debug/slow");
    assert_eq!(slow.status, 200);
    let doc = spade_core::json::parse(&slow.text()).expect("slow log JSON");
    assert_eq!(doc.get("threshold_ms").and_then(|v| v.as_usize()), Some(0));
    assert_eq!(doc.get("capacity").and_then(|v| v.as_usize()), Some(4));
    let entries = doc.get("entries").and_then(|e| e.as_array()).expect("entries");
    assert_eq!(entries.len(), 3);
    for entry in entries {
        assert_eq!(entry.get("route").and_then(|v| v.as_str()), Some("explore"));
        // Entries are tagged with the graph they ran against (the legacy
        // route resolves to the default graph, named after the file stem).
        assert_eq!(entry.get("graph").and_then(|v| v.as_str()), Some("corpus"));
        assert_eq!(entry.get("status").and_then(|v| v.as_usize()), Some(200));
        assert_eq!(entry.get("generation").and_then(|v| v.as_usize()), Some(1));
        let trace = entry.get("trace").expect("trace");
        assert!(trace.get("spans").and_then(|s| s.as_array()).is_some_and(|s| !s.is_empty()));
    }
    // Stats exposes the slow-log configuration.
    let stats = client.get("/stats").expect("stats");
    let stats_doc = spade_core::json::parse(&stats.text()).expect("stats JSON");
    let slow_log = stats_doc.get("server").and_then(|s| s.get("slow_log")).expect("slow_log");
    assert_eq!(slow_log.get("capacity").and_then(|v| v.as_usize()), Some(4));

    assert!(server.shutdown(Duration::from_secs(10)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_drains_and_closes_the_listener() {
    let dir = temp_dir("shutdown");
    let path = write_snapshot(&dir, "corpus.spade", 100, 11);
    let server =
        Server::start(serve_config(1 << 20), base_config(), &path).expect("server starts");
    let addr = server.local_addr();

    // A keep-alive client parked idle must not block the drain.
    let mut idle = Client::new(addr);
    assert_eq!(idle.get("/healthz").expect("idle healthz").status, 200);

    assert_eq!(client::post(addr, "/explore", b"").expect("warm").status, 200);
    assert!(server.shutdown(Duration::from_secs(10)), "drained with an idle keep-alive");

    // The listener is gone: fresh connections are refused (or time out).
    let refused = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
    assert!(refused.is_err(), "post-shutdown connections must fail");
    std::fs::remove_dir_all(&dir).ok();
}
