//! `POST /explore` and `POST /reload`: request parsing, the result cache,
//! admission, the traced evaluation, and [`finish`] — the one place a
//! completed explore is recorded (route histogram, slow log, ledger, SLO
//! breach, `auto` capacity retarget).

use super::status::{unix_ms, EXPLORE_COLD, EXPLORE_WARM, RELOAD};
use super::{Response, Shared};
use crate::catalog::Acquired;
use spade_core::json::{self, Json, JsonWriter};
use spade_core::{Budget, ExecCtx, RequestConfig, Trace};
use spade_telemetry::ledger::{key_hash, CacheOutcome, LedgerRecord, ResponseClass};
use spade_telemetry::SlowEntry;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one `/explore` did, for [`finish`] to record.
struct Outcome {
    cache: CacheOutcome,
    class: ResponseClass,
    /// The evaluation's span tree; `None` when nothing ran (hit, shed).
    trace: Option<Trace>,
    generation: u64,
    estimated_cost: u64,
    key_hash: u64,
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
    if !shared.config.admission_auto {
        return;
    }
    let profile = shared.ledger.overall_snapshot();
    if profile.requests < AUTO_MIN_SAMPLES {
        return;
    }
    let slo_us =
        shared.config.latency_slo.unwrap_or_else(|| Duration::from_secs(1)).as_micros() as f64;
    let headroom = (slo_us / profile.latency_ewma_us.max(1.0)).clamp(1.0, 128.0);
    let capacity = shared.config.workers as f64 * profile.est_cost_ewma.max(1.0) * headroom;
    shared.admission.set_capacity((capacity as u64).max(1));
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

/// A `200` explore body; `X-Cache` says whether it came from the cache.
fn explored(body: Arc<[u8]>, hit: bool, generation: u64) -> Response {
    Response {
        status: 200,
        content_type: "application/json",
        headers: if hit { &[("X-Cache", "hit")] } else { &[("X-Cache", "miss")] },
        body,
        close: false,
        generation: Some(generation),
    }
}

pub(super) fn explore(
    shared: &Shared,
    index: usize,
    query: &str,
    body: &[u8],
    request_id: u64,
) -> Response {
    let started = Instant::now();
    shared.metrics.explore_total.inc();
    shared.graph_metrics[index].explore_total.inc();
    let (response, outcome) = match run(shared, index, query, body) {
        Ok(done) => done,
        // Rejected before it pinned a graph state (bad body, unreadable
        // snapshot): answered, not recorded.
        Err(rejected) => return rejected,
    };
    finish(shared, index, request_id, response.status, outcome, started.elapsed());
    response
}

/// The body of `/explore`: everything but the recording.
fn run(
    shared: &Shared,
    index: usize,
    query: &str,
    body: &[u8],
) -> Result<(Response, Outcome), Response> {
    let entry = &shared.catalog.entries()[index];
    let base = shared.engine.config();
    // `?profile=1` attaches the span tree to the response; `?timings=1`
    // appends the (nondeterministic) step timings. Either one makes the
    // body request-specific, so both bypass the byte-exact result cache.
    let profile = query_flag(query, "profile");
    let with_timings = query_flag(query, "timings");
    let bypass_cache = profile || with_timings;
    let mut request = parse_explore(body).map_err(|message| Response::error(400, &message))?;
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
    let Acquired { state, evicted } = shared
        .catalog
        .acquire(entry)
        .map_err(|e| Response::error(503, &format!("graph {:?}: {e}", entry.name())))?;
    retire_cache_partitions(shared, &evicted);
    let canonical = request.canonical_key();
    // Keys are partitioned by graph and generation: `{graph}@g{gen}:{…}`,
    // so a reload or eviction strands (and `retire_prefix` reclaims) stale
    // bodies instead of ever serving them.
    let key = format!("{}@g{}:{}", entry.name(), state.generation, canonical);
    // The admission estimate is computed up front (pure arithmetic on the
    // offline stats) so every ledger record — hits and sheds included —
    // carries the estimate the scorecard grades.
    let mut outcome = Outcome {
        cache: if bypass_cache { CacheOutcome::Bypass } else { CacheOutcome::Miss },
        class: ResponseClass::Ok,
        trace: None,
        generation: state.generation,
        estimated_cost: crate::admission::estimate_cost(&state.offline, base, &request),
        key_hash: key_hash(&canonical),
    };
    if !bypass_cache {
        if let Some(hit) =
            shared.cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner).get(&key)
        {
            outcome.cache = CacheOutcome::Hit;
            return Ok((explored(hit, true, state.generation), outcome));
        }
    }

    // Fault-injection site for chaos tests (no-op unless `SPADE_FAULT`
    // names it): fires after parsing and the cache, i.e. exactly where a
    // real evaluation bug would strike.
    spade_parallel::fault::fire("serve.explore");

    // Admission control: shed instead of queueing when the in-flight
    // estimate sum would exceed capacity. Cache hits above never reach
    // this point — answering from memory is always admissible.
    let Some(_permit) = shared.admission.try_admit(outcome.estimated_cost) else {
        outcome.class = ResponseClass::Shed;
        let shed =
            Response::error(503, "estimated cost exceeds admission capacity, retry later");
        return Ok((shed.retry_after(), outcome));
    };

    // The evaluation runs outside every lock, against this request's
    // pinned generation, under the per-request deadline (if configured).
    // Every cold explore is traced: the trace feeds the per-stage
    // histograms and the slow log, and is attached to the body on
    // `?profile=1`. Tracing is observation only — bodies stay bit-identical.
    let budget = match shared.config.request_timeout {
        Some(timeout) => Budget::with_deadline(timeout),
        None => Budget::unlimited(),
    };
    let trace = Trace::new();
    let cx = ExecCtx::traced(&budget, &trace, base.threads);
    let report = match shared.engine.run_on_in(&state.offline, &request, &cx) {
        Ok(report) => report,
        Err(cancelled) => {
            if let Some(deadline) = budget.deadline() {
                // How far past the deadline the cooperative unwind
                // surfaced — the observable cancellation latency.
                let over = Instant::now().saturating_duration_since(deadline);
                shared.metrics.cancel_latency_seconds.observe_duration(over);
            }
            outcome.class = ResponseClass::Timeout;
            outcome.trace = Some(trace);
            let response =
                Response::error(504, &format!("request deadline exceeded ({cancelled})"))
                    .closing()
                    .with_generation(state.generation);
            return Ok((response, outcome));
        }
    };
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
    outcome.trace = Some(trace);
    Ok((explored(body, false, state.generation), outcome))
}

/// Records one completed `/explore`: its counter and route histogram, the
/// slow log when it ran, the ledger, an SLO breach, and (cold successes
/// under `--admission-capacity auto`) a capacity retarget.
fn finish(
    shared: &Shared,
    index: usize,
    request_id: u64,
    status: u16,
    outcome: Outcome,
    elapsed: Duration,
) {
    let m = &shared.metrics;
    match (outcome.cache, outcome.class) {
        (CacheOutcome::Hit, _) => {
            m.explore_cached_total.inc();
            m.request_seconds[EXPLORE_WARM].observe_duration(elapsed);
        }
        (_, ResponseClass::Ok) => m.request_seconds[EXPLORE_COLD].observe_duration(elapsed),
        (_, ResponseClass::Shed) => m.shed_total.inc(),
        (_, ResponseClass::Timeout) => m.timeouts_total.inc(),
    }
    let cold = outcome.cache != CacheOutcome::Hit;
    let graph = shared.catalog.entries()[index].name();
    let trace = outcome.trace.as_ref();
    if let Some(trace) = trace {
        if outcome.class == ResponseClass::Ok {
            m.observe_stages(trace);
        }
        shared.slow.record(SlowEntry {
            id: request_id,
            route: "explore",
            graph: graph.to_owned(),
            status,
            generation: outcome.generation,
            duration_ms: elapsed.as_millis() as u64,
            unix_ms: unix_ms(),
            trace_json: format!(
                "{{\"total_us\":{},\"spans\":{}}}",
                elapsed.as_micros(),
                trace.spans_json()
            ),
        });
    }
    let (cells, facts) = trace.map(spade_core::work_counters).unwrap_or((0, 0));
    // A breach is a request that actually ran (hits answer from memory,
    // sheds never start) and finished — or was cancelled — over the SLO.
    let slo_breach = cold
        && matches!(outcome.class, ResponseClass::Ok | ResponseClass::Timeout)
        && shared.config.latency_slo.is_some_and(|slo| elapsed > slo);
    if slo_breach {
        shared.graph_metrics[index].slo_breach_total.inc();
    }
    shared.ledger.record(LedgerRecord {
        id: request_id,
        graph: graph.to_owned(),
        generation: outcome.generation,
        route: "explore",
        key_hash: outcome.key_hash,
        estimated_cost: outcome.estimated_cost,
        actual_cost: cells + facts,
        cells,
        facts,
        cache: outcome.cache,
        class: outcome.class,
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
    if cold && outcome.class == ResponseClass::Ok {
        retarget_capacity(shared);
    }
}

/// Decodes a `/reload` body: absent, or an object whose optional `path`
/// names the snapshot to switch to.
fn parse_reload(body: &[u8]) -> Result<Option<PathBuf>, String> {
    if body.is_empty() {
        return Ok(None);
    }
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    doc.get("path")
        .map(|p| {
            p.as_str().map(PathBuf::from).ok_or_else(|| "path must be a string".to_owned())
        })
        .transpose()
}

pub(super) fn reload(shared: &Shared, index: usize, body: &[u8]) -> Response {
    let started = Instant::now();
    let entry = &shared.catalog.entries()[index];
    // `None` reloads the graph's current path; the per-slot mutex inside
    // the catalog serializes reloads of the same graph while `/explore`
    // traffic (and reloads of *other* graphs) proceed untouched.
    let path = match parse_reload(body) {
        Ok(path) => path,
        Err(message) => return Response::error(400, &message),
    };

    // Fault-injection site for chaos tests: a simulated I/O failure takes
    // the same keep-the-old-generation path as a genuinely unreadable file.
    if let Some(e) = spade_parallel::fault::io_error("serve.reload") {
        return Response::error(409, &format!("reload failed, keeping generation: {e}"));
    }
    match shared.catalog.reload(entry, path) {
        Ok(Acquired { state, mut evicted }) => {
            // Old-generation entries of this graph can never be requested
            // again (keys embed the generation); retire its whole cache
            // partition now instead of letting it age out of the byte
            // budget — plus the partitions of anything the budget evicted.
            evicted.push(entry.name().to_owned());
            retire_cache_partitions(shared, &evicted);
            shared.metrics.reload_total.inc();
            shared.metrics.request_seconds[RELOAD].observe_duration(started.elapsed());
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
