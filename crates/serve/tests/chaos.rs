//! Chaos suite: the failure-mode half of the wire spec, driven through the
//! `spade_parallel::fault` injection hooks.
//!
//! Asserted here, end to end:
//!
//! * an injected **panic** costs one 500 and the daemon keeps answering;
//! * an evaluation **stalled past its deadline** is cancelled cooperatively
//!   and answered 504 within 2× the timeout;
//! * under saturation, **admission control sheds** with 503 + `Retry-After`
//!   and zero connection resets, and the retrying client recovers;
//! * (that cancellation leaves **plan invariance** intact — budgeted and
//!   unbudgeted runs byte-identical, before and after a cancellation — is
//!   pinned per stage in `crates/core/tests/stage_cancellation.rs`);
//! * a **slow-loris** peer is cut off by the read deadline (408), not by
//!   the much larger idle timeout.
//!
//! The fault spec is process-global, so every test that arms it (or runs
//! the engine while another test might) serializes on one mutex and clears
//! the spec through a drop guard — a failing assertion cannot leak faults
//! into the next test.

use spade_core::{OfflineState, RequestConfig, Spade, SpadeConfig};
use spade_serve::client::{Client, RetryPolicy};
use spade_serve::http::Limits;
use spade_serve::server::{ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

fn base_config() -> SpadeConfig {
    SpadeConfig { k: 5, min_support: 0.3, min_cfs_size: 20, max_cfs: 6, ..Default::default() }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spade_chaos_{}_{}", name, std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn write_snapshot(dir: &Path, scale: usize, seed: u64) -> PathBuf {
    let g = spade_datagen::realistic::ceos(&spade_datagen::RealisticConfig { scale, seed });
    let nt = spade_rdf::write_ntriples(&g);
    let path = dir.join("corpus.spade");
    Spade::new(base_config()).snapshot_ntriples(&nt, &path).expect("snapshot written");
    path
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 4,
        threads: 4,
        cache_bytes: 0, // every explore must actually evaluate
        ..Default::default()
    }
}

/// Clears the process-global fault spec even when the test panics.
struct FaultGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for FaultGuard {
    fn drop(&mut self) {
        spade_parallel::fault::set_spec(None);
    }
}

/// Serializes fault-sensitive tests and arms `spec` (or just the lock when
/// `None` — for tests that must not observe someone else's faults).
fn arm(spec: Option<&str>) -> FaultGuard {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    spade_parallel::fault::set_spec(spec);
    FaultGuard(guard)
}

fn metric_value(metrics_body: &str, name: &str) -> Option<u64> {
    metrics_body
        .lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l[name.len() + 1..].trim().parse().ok())
}

#[test]
fn injected_panic_costs_one_500_and_the_daemon_keeps_serving() {
    let _fault = arm(Some("serve.explore=panic"));
    let dir = temp_dir("panic");
    let path = write_snapshot(&dir, 60, 3);
    let server = Server::start(serve_config(), base_config(), &path).expect("server starts");
    let addr = server.local_addr();

    let r = spade_serve::client::post(addr, "/explore", b"").expect("explore answered");
    assert_eq!(r.status, 500, "injected panic must surface as 500: {}", r.text());
    assert!(
        r.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close")),
        "a post-panic connection must not be reused"
    );

    // The daemon is still alive and healthy on a fresh connection.
    let h = spade_serve::client::get(addr, "/healthz").expect("healthz answered");
    assert_eq!(h.status, 200);

    let m = spade_serve::client::get(addr, "/metrics").expect("metrics answered").text();
    assert_eq!(metric_value(&m, "spade_serve_panics_total"), Some(1), "metrics:\n{m}");

    // Disarm: the very same request now succeeds.
    spade_parallel::fault::set_spec(None);
    let ok = spade_serve::client::post(addr, "/explore", b"").expect("explore answered");
    assert_eq!(ok.status, 200, "{}", ok.text());

    assert!(server.shutdown(Duration::from_secs(10)), "clean drain after a panic");
}

#[test]
fn deadline_exceeded_returns_504_within_twice_the_timeout() {
    let _fault = arm(Some("cfs=stall:10000"));
    let dir = temp_dir("deadline");
    let path = write_snapshot(&dir, 60, 4);
    let timeout = Duration::from_millis(500);
    let config = ServeConfig { request_timeout: Some(timeout), ..serve_config() };
    let server = Server::start(config, base_config(), &path).expect("server starts");
    let addr = server.local_addr();

    let started = Instant::now();
    let r = spade_serve::client::post(addr, "/explore", b"").expect("explore answered");
    let elapsed = started.elapsed();
    assert_eq!(r.status, 504, "stalled evaluation must time out: {}", r.text());
    assert!(
        elapsed < 2 * timeout,
        "cancellation must unwind within 2x the timeout, took {elapsed:?}"
    );

    let m = spade_serve::client::get(addr, "/metrics").expect("metrics answered").text();
    assert_eq!(metric_value(&m, "spade_serve_timeouts_total"), Some(1), "metrics:\n{m}");
    assert!(
        metric_value(&m, "spade_serve_cancel_latency_seconds_count").is_some(),
        "cancellation latency must be exported:\n{m}"
    );

    // Disarm: the same request with the same deadline now succeeds.
    spade_parallel::fault::set_spec(None);
    let ok = spade_serve::client::post(addr, "/explore", b"").expect("explore answered");
    assert_eq!(ok.status, 200, "{}", ok.text());

    assert!(server.shutdown(Duration::from_secs(10)), "clean drain after timeouts");
}

#[test]
fn stalled_translation_is_cancelled_within_twice_the_timeout() {
    // Same deadline contract as the cfs stall, but the fault fires inside
    // the parallel data-translation stage — the budget threaded through
    // `translate_in` must unwind it cooperatively.
    let _fault = arm(Some("translate=stall:10000"));
    let dir = temp_dir("translate_deadline");
    let path = write_snapshot(&dir, 60, 9);
    let timeout = Duration::from_millis(500);
    let config = ServeConfig { request_timeout: Some(timeout), ..serve_config() };
    let server = Server::start(config, base_config(), &path).expect("server starts");
    let addr = server.local_addr();

    let started = Instant::now();
    let r = spade_serve::client::post(addr, "/explore", b"").expect("explore answered");
    let elapsed = started.elapsed();
    assert_eq!(r.status, 504, "stalled translation must time out: {}", r.text());
    assert!(
        elapsed < 2 * timeout,
        "cancellation during translate must unwind within 2x the timeout, took {elapsed:?}"
    );

    let m = spade_serve::client::get(addr, "/metrics").expect("metrics answered").text();
    assert_eq!(metric_value(&m, "spade_serve_timeouts_total"), Some(1), "metrics:\n{m}");

    // No partial state: disarmed, the identical request evaluates cleanly
    // on the same serving state and the daemon stays healthy.
    spade_parallel::fault::set_spec(None);
    let ok = spade_serve::client::post(addr, "/explore", b"").expect("explore answered");
    assert_eq!(ok.status, 200, "{}", ok.text());
    let h = spade_serve::client::get(addr, "/healthz").expect("healthz answered");
    assert_eq!(h.status, 200);

    assert!(server.shutdown(Duration::from_secs(10)), "clean drain after translate stall");
}

#[test]
fn saturation_sheds_with_503_and_zero_connection_resets() {
    // Stall each admitted evaluation long enough that concurrent requests
    // overlap; capacity admits exactly one request's estimated cost.
    let _fault = arm(Some("cfs=stall:400"));
    let dir = temp_dir("shed");
    let path = write_snapshot(&dir, 60, 5);
    let state = OfflineState::open(&path, 2).expect("snapshot opens");
    let one_request = spade_serve::admission::estimate_cost(
        &state,
        &base_config(),
        &RequestConfig::default(),
    );
    drop(state);

    let config = ServeConfig { admission_capacity: one_request, ..serve_config() };
    let server = Server::start(config, base_config(), &path).expect("server starts");
    let addr = server.local_addr();

    // A few rounds in case scheduling serializes the first volley entirely.
    let mut statuses: Vec<u16> = Vec::new();
    let mut saw_retry_after = false;
    for _round in 0..3 {
        let round: Vec<(u16, Option<String>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(move || {
                        let mut client = Client::new(addr).no_retry();
                        // Every send must complete cleanly: sheds are
                        // responses, never connection resets.
                        let r = client.post("/explore", b"").expect("no reset under shed");
                        (r.status, r.header("retry-after").map(str::to_owned))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        for (status, retry_after) in round {
            if status == 503 {
                assert_eq!(retry_after.as_deref(), Some("1"), "503 must carry Retry-After");
                saw_retry_after = true;
            }
            statuses.push(status);
        }
        if saw_retry_after {
            break;
        }
    }
    assert!(statuses.iter().all(|s| *s == 200 || *s == 503), "only 200/503: {statuses:?}");
    assert!(statuses.contains(&200), "at least one request admitted: {statuses:?}");
    assert!(saw_retry_after, "concurrent over-capacity load must shed: {statuses:?}");

    let m = spade_serve::client::get(addr, "/metrics").expect("metrics answered").text();
    assert!(
        metric_value(&m, "spade_serve_shed_total").is_some_and(|v| v >= 1),
        "sheds must be counted:\n{m}"
    );

    // The retrying client backs off past the stall window and recovers.
    let policy = RetryPolicy {
        max_retries: 4,
        base_delay: Duration::from_millis(100),
        max_total_delay: Duration::from_secs(8),
    };
    let recovered = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let policy = policy.clone();
                scope.spawn(move || {
                    let mut client = Client::new(addr).with_retry(policy);
                    client.post("/explore", b"").expect("retrying client completes").status
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect::<Vec<u16>>()
    });
    assert!(
        recovered.iter().all(|s| *s == 200),
        "backoff must outlast the stall window: {recovered:?}"
    );

    assert!(server.shutdown(Duration::from_secs(10)), "clean drain after shedding");
}

#[test]
fn auto_capacity_converges_and_shed_rate_drops() {
    // Every evaluation stalls 150 ms so concurrent volleys overlap. With
    // `--admission-capacity auto` the capacity is seeded at one request's
    // static estimate — so the first phase sheds like the fixed-capacity
    // test above — and then retargets from the observed profile; the
    // latency (~150 ms) sits far under the 5 s SLO, so the headroom factor
    // opens the valve and later phases shed less.
    let _fault = arm(Some("cfs=stall:150"));
    let dir = temp_dir("auto");
    let path = write_snapshot(&dir, 60, 8);
    let state = OfflineState::open(&path, 2).expect("snapshot opens");
    let seed_capacity = spade_serve::admission::estimate_cost(
        &state,
        &base_config(),
        &RequestConfig::default(),
    );
    drop(state);

    let config = ServeConfig {
        admission_auto: true,
        latency_slo: Some(Duration::from_secs(5)),
        ..serve_config()
    };
    let server = Server::start(config, base_config(), &path).expect("server starts");
    let addr = server.local_addr();

    // The seeded capacity is the one-request estimate (not the fixed
    // default), before any observation.
    let m = spade_serve::client::get(addr, "/metrics").expect("metrics").text();
    assert_eq!(
        metric_value(&m, "spade_serve_admission_capacity"),
        Some(seed_capacity),
        "auto seeds capacity from the static estimate:\n{m}"
    );

    let shed_count = || {
        let m = spade_serve::client::get(addr, "/metrics").expect("metrics").text();
        metric_value(&m, "spade_serve_shed_total").expect("shed_total exported")
    };
    let volley = || {
        let statuses: Vec<u16> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(move || {
                        let mut client = Client::new(addr).no_retry();
                        // Sheds are responses, never connection resets.
                        let r = client.post("/explore", b"").expect("no reset under auto");
                        r.status
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        assert!(statuses.iter().all(|s| *s == 200 || *s == 503), "only 200/503: {statuses:?}");
        assert!(statuses.contains(&200), "every volley admits work: {statuses:?}");
    };

    // Phase 1: five volleys against the one-request seed — enough cold
    // completions (≥ 5 > the 4-sample floor) to arm the retarget loop.
    let mut sheds = Vec::new();
    let mut before = shed_count();
    for _ in 0..5 {
        volley();
    }
    let after = shed_count();
    sheds.push(after - before);
    before = after;
    // Phases 2 and 3: the retargeted capacity admits whole volleys.
    for _ in 0..2 {
        for _ in 0..5 {
            volley();
        }
        let after = shed_count();
        sheds.push(after - before);
        before = after;
    }

    assert!(sheds[0] >= 1, "the seeded capacity must shed overlapping volleys: {sheds:?}");
    assert!(
        sheds[2] < sheds[0],
        "the shed rate must drop once the profile retargets capacity: {sheds:?}"
    );

    // The loop observably opened the valve: capacity grew past the seed.
    let m = spade_serve::client::get(addr, "/metrics").expect("metrics").text();
    let converged = metric_value(&m, "spade_serve_admission_capacity").expect("capacity");
    assert!(
        converged > seed_capacity,
        "capacity must grow under a generous SLO: {converged} vs seed {seed_capacity}"
    );

    // The ledger's SLO accounting agrees: 150 ms runs never breach a 5 s
    // objective.
    assert_eq!(
        metric_value(&m, "spade_serve_slo_breach_total{graph=\"corpus\"}"),
        Some(0),
        "no breaches under a 5 s SLO:\n{m}"
    );

    assert!(server.shutdown(Duration::from_secs(10)), "clean drain after convergence");
}

#[test]
fn slow_loris_is_cut_by_the_read_deadline_not_the_idle_timeout() {
    let _fault = arm(None);
    let dir = temp_dir("loris");
    let path = write_snapshot(&dir, 60, 7);
    let config = ServeConfig {
        limits: Limits { read_deadline: Duration::from_millis(400), ..Limits::default() },
        idle_timeout: Duration::from_secs(300), // must NOT be what saves us
        ..serve_config()
    };
    let server = Server::start(config, base_config(), &path).expect("server starts");
    let addr = server.local_addr();

    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
    // Trickle a valid request head one byte at a time, slower than the
    // deadline allows but faster than any idle tick.
    let mut response = Vec::new();
    for b in b"GET /healthz HTTP/1.1\r\n\r\n" {
        if stream.write_all(&[*b]).is_err() {
            break; // server already gave up on us — expected
        }
        std::thread::sleep(Duration::from_millis(100));
        if started.elapsed() > Duration::from_secs(20) {
            break;
        }
    }
    let _ = stream.read_to_end(&mut response);
    let elapsed = started.elapsed();
    let text = String::from_utf8_lossy(&response);
    assert!(
        text.starts_with("HTTP/1.1 408"),
        "trickled request must be answered 408, got: {text:?}"
    );
    assert!(
        elapsed < Duration::from_secs(10),
        "the read deadline, not the idle timeout, must cut the trickle: {elapsed:?}"
    );

    assert!(server.shutdown(Duration::from_secs(10)), "clean drain after a slow-loris");
}
