//! Request analytics ledger: ground truth for what each request cost.
//!
//! One [`LedgerRecord`] is written per completed request into a bounded
//! ring (lock-light: one `Mutex` per slot, writers touch only their own
//! slot picked by an atomic ticket). Alongside the ring, streaming
//! per-graph **cost profiles** (EWMA + P² quantile sketches of actual cost
//! and latency — no sample retention) and a global **estimate-vs-actual
//! scorecard** (q-error distribution of the admission cost estimate
//! against measured cost) accumulate from the same records.
//!
//! Only *cold, successful* requests update profiles and the scorecard:
//! cache hits and shed/failed requests land in the ring for inspection but
//! carry no evaluation cost signal. Because the P² sketch is plain `f64`
//! arithmetic over the insertion sequence, a serial request sequence
//! produces bit-identical profile state at any evaluation thread count —
//! the property the serve-layer determinism suite pins.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// FNV-1a 64-bit hash of a canonical request key. Dependency-free and
/// stable across platforms; used so the ledger never retains request
/// bodies, only a correlatable fingerprint.
pub fn key_hash(key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// How the result cache participated in a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the cache; no evaluation ran.
    Hit,
    /// Looked up, absent, evaluated (and possibly inserted).
    Miss,
    /// Cache skipped entirely (profiled/timed requests, cache disabled).
    Bypass,
}

impl CacheOutcome {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Bypass => "bypass",
        }
    }
}

/// Coarse response classification for ledger records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResponseClass {
    /// 200: evaluated (or served warm) successfully.
    Ok,
    /// 504: deadline expired mid-evaluation.
    Timeout,
    /// 503: shed by admission control before evaluation.
    Shed,
}

impl ResponseClass {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            ResponseClass::Ok => "ok",
            ResponseClass::Timeout => "timeout",
            ResponseClass::Shed => "shed",
        }
    }
}

/// One compact record per completed request. Response bodies are never
/// retained — the canonical key is kept only as [`key_hash`].
#[derive(Clone, Debug)]
pub struct LedgerRecord {
    /// Server-assigned request id.
    pub id: u64,
    pub graph: String,
    pub generation: u64,
    pub route: &'static str,
    /// FNV-1a of the canonical request key ([`key_hash`]).
    pub key_hash: u64,
    /// The admission-control cost estimate for this request.
    pub estimated_cost: u64,
    /// Measured work: cells + facts touched by the engine shards.
    pub actual_cost: u64,
    pub cells: u64,
    pub facts: u64,
    pub cache: CacheOutcome,
    pub class: ResponseClass,
    /// End-to-end handler latency in microseconds.
    pub total_us: u64,
    /// Top-level stage durations from the span tree, in stage order.
    pub stages: Vec<(&'static str, u64)>,
    /// Whether this request breached the configured latency SLO.
    pub slo_breach: bool,
    pub unix_ms: u64,
}

impl LedgerRecord {
    /// Renders the record as a JSON object (deterministic key order).
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"id\":{},\"graph\":\"{}\",\"generation\":{},\"route\":\"{}\",\
             \"key_hash\":\"{:016x}\",\"estimated_cost\":{},\"actual_cost\":{},\
             \"cells\":{},\"facts\":{},\"cache\":\"{}\",\"class\":\"{}\",\
             \"total_us\":{},\"slo_breach\":{},\"unix_ms\":{},\"stages\":{{",
            self.id,
            self.graph,
            self.generation,
            self.route,
            self.key_hash,
            self.estimated_cost,
            self.actual_cost,
            self.cells,
            self.facts,
            self.cache.as_str(),
            self.class.as_str(),
            self.total_us,
            self.slo_breach,
            self.unix_ms,
        );
        for (i, (name, us)) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{us}");
        }
        out.push_str("}}");
        out
    }
}

/// Streaming quantile estimator (Jain & Chlamtac's P² algorithm): five
/// markers tracking a single target quantile with O(1) memory and no
/// sample retention. Below five observations it falls back to an exact
/// nearest-rank over the partial buffer. Pure `f64` arithmetic — the
/// estimate is a deterministic function of the observation *sequence*.
#[derive(Clone, Debug)]
pub(crate) struct P2 {
    q: f64,
    n: u64,
    heights: [f64; 5],
    positions: [f64; 5],
    desired: [f64; 5],
    increments: [f64; 5],
}

impl P2 {
    pub(crate) fn new(quantile: f64) -> Self {
        let q = quantile.clamp(0.0, 1.0);
        P2 {
            q,
            n: 0,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
        }
    }

    pub(crate) fn observe(&mut self, x: f64) {
        if self.n < 5 {
            self.heights[self.n as usize] = x;
            self.n += 1;
            let filled = self.n as usize;
            self.heights[..filled].sort_by(f64::total_cmp);
            return;
        }
        // Locate the marker cell containing x, extending extremes.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            let mut k = 0;
            while k < 3 && self.heights[k + 1] <= x {
                k += 1;
            }
            k
        };
        for p in self.positions.iter_mut().skip(k + 1) {
            *p += 1.0;
        }
        for (d, inc) in self.desired.iter_mut().zip(self.increments) {
            *d += inc;
        }
        // Adjust interior markers toward their desired positions.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right = self.positions[i + 1] - self.positions[i];
            let left = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right > 1.0) || (d <= -1.0 && left < -1.0) {
                let d = d.signum();
                let parabolic = self.heights[i]
                    + d / (self.positions[i + 1] - self.positions[i - 1])
                        * ((self.positions[i] - self.positions[i - 1] + d)
                            * (self.heights[i + 1] - self.heights[i])
                            / right
                            + (self.positions[i + 1] - self.positions[i] - d)
                                * (self.heights[i] - self.heights[i - 1])
                                / -left);
                self.heights[i] =
                    if self.heights[i - 1] < parabolic && parabolic < self.heights[i + 1] {
                        parabolic
                    } else if d > 0.0 {
                        self.heights[i] + (self.heights[i + 1] - self.heights[i]) / right
                    } else {
                        self.heights[i] - (self.heights[i - 1] - self.heights[i]) / left
                    };
                self.positions[i] += d;
            }
        }
        self.n += 1;
    }

    /// Current quantile estimate; 0 before any observation.
    pub(crate) fn estimate(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        if self.n <= 5 {
            // Exact nearest-rank over the sorted partial buffer.
            let filled = self.n as usize;
            let rank = ((self.q * filled as f64).ceil() as usize).clamp(1, filled);
            return self.heights[rank - 1];
        }
        self.heights[2]
    }
}

const EWMA_ALPHA: f64 = 0.1;

fn ewma(current: f64, x: f64, samples: u64) -> f64 {
    if samples == 0 {
        x
    } else {
        EWMA_ALPHA * x + (1.0 - EWMA_ALPHA) * current
    }
}

/// Streaming cost/latency profile for one graph (or the overall aggregate).
#[derive(Clone, Debug)]
struct Profile {
    requests: u64,
    cost_ewma: f64,
    est_cost_ewma: f64,
    latency_ewma_us: f64,
    cost_q: [P2; 3],
    latency_q: [P2; 3],
    slo_breaches: u64,
}

impl Profile {
    fn new() -> Self {
        let sketches = || [P2::new(0.5), P2::new(0.95), P2::new(0.99)];
        Profile {
            requests: 0,
            cost_ewma: 0.0,
            est_cost_ewma: 0.0,
            latency_ewma_us: 0.0,
            cost_q: sketches(),
            latency_q: sketches(),
            slo_breaches: 0,
        }
    }

    fn observe(&mut self, estimated: u64, actual: u64, latency_us: u64, breach: bool) {
        let cost = actual as f64;
        let lat = latency_us as f64;
        self.cost_ewma = ewma(self.cost_ewma, cost, self.requests);
        self.est_cost_ewma = ewma(self.est_cost_ewma, estimated as f64, self.requests);
        self.latency_ewma_us = ewma(self.latency_ewma_us, lat, self.requests);
        for s in &mut self.cost_q {
            s.observe(cost);
        }
        for s in &mut self.latency_q {
            s.observe(lat);
        }
        self.requests += 1;
        if breach {
            self.slo_breaches += 1;
        }
    }

    fn snapshot(&self, graph: &str) -> ProfileSnapshot {
        ProfileSnapshot {
            graph: graph.to_owned(),
            requests: self.requests,
            cost_ewma: self.cost_ewma,
            est_cost_ewma: self.est_cost_ewma,
            cost_p50: self.cost_q[0].estimate(),
            cost_p95: self.cost_q[1].estimate(),
            cost_p99: self.cost_q[2].estimate(),
            latency_ewma_us: self.latency_ewma_us,
            latency_p50_us: self.latency_q[0].estimate(),
            latency_p95_us: self.latency_q[1].estimate(),
            latency_p99_us: self.latency_q[2].estimate(),
            slo_breaches: self.slo_breaches,
        }
    }
}

/// A point-in-time view of one graph's cost profile.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileSnapshot {
    pub graph: String,
    /// Cold, successful requests folded into this profile.
    pub requests: u64,
    pub cost_ewma: f64,
    pub est_cost_ewma: f64,
    pub cost_p50: f64,
    pub cost_p95: f64,
    pub cost_p99: f64,
    pub latency_ewma_us: f64,
    pub latency_p50_us: f64,
    pub latency_p95_us: f64,
    pub latency_p99_us: f64,
    pub slo_breaches: u64,
}

impl ProfileSnapshot {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"graph\":\"{}\",\"requests\":{},\"cost_ewma\":{:.4},\
             \"est_cost_ewma\":{:.4},\"cost_p50\":{:.4},\"cost_p95\":{:.4},\
             \"cost_p99\":{:.4},\"latency_ewma_us\":{:.4},\
             \"latency_p50_us\":{:.4},\"latency_p95_us\":{:.4},\
             \"latency_p99_us\":{:.4},\"slo_breaches\":{}}}",
            self.graph,
            self.requests,
            self.cost_ewma,
            self.est_cost_ewma,
            self.cost_p50,
            self.cost_p95,
            self.cost_p99,
            self.latency_ewma_us,
            self.latency_p50_us,
            self.latency_p95_us,
            self.latency_p99_us,
            self.slo_breaches,
        )
    }
}

/// The estimate-vs-actual scorecard: q-error distribution of the admission
/// cost estimate against measured cost, with a running geometric mean.
struct Scorecard {
    count: u64,
    ln_sum: f64,
    max: f64,
    q: [P2; 3],
}

impl Scorecard {
    fn new() -> Self {
        Scorecard {
            count: 0,
            ln_sum: 0.0,
            max: 0.0,
            q: [P2::new(0.5), P2::new(0.95), P2::new(0.99)],
        }
    }

    fn observe(&mut self, estimated: u64, actual: u64) {
        // q-error = max(est/act, act/est), inputs clamped to ≥1 so an
        // estimate and a measurement can never divide by zero.
        let est = estimated.max(1) as f64;
        let act = actual.max(1) as f64;
        let q_err = (est / act).max(act / est);
        self.count += 1;
        self.ln_sum += q_err.ln();
        if q_err > self.max {
            self.max = q_err;
        }
        for s in &mut self.q {
            s.observe(q_err);
        }
    }

    fn snapshot(&self) -> ScorecardSnapshot {
        ScorecardSnapshot {
            count: self.count,
            q_error_geo_mean: if self.count == 0 {
                0.0
            } else {
                (self.ln_sum / self.count as f64).exp()
            },
            q_error_p50: self.q[0].estimate(),
            q_error_p95: self.q[1].estimate(),
            q_error_p99: self.q[2].estimate(),
            q_error_max: self.max,
        }
    }
}

/// A point-in-time view of the estimate-vs-actual scorecard.
#[derive(Clone, Debug, PartialEq)]
pub struct ScorecardSnapshot {
    pub count: u64,
    pub q_error_geo_mean: f64,
    pub q_error_p50: f64,
    pub q_error_p95: f64,
    pub q_error_p99: f64,
    pub q_error_max: f64,
}

impl ScorecardSnapshot {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"q_error_geo_mean\":{:.4},\"q_error_p50\":{:.4},\
             \"q_error_p95\":{:.4},\"q_error_p99\":{:.4},\"q_error_max\":{:.4}}}",
            self.count,
            self.q_error_geo_mean,
            self.q_error_p50,
            self.q_error_p95,
            self.q_error_p99,
            self.q_error_max,
        )
    }
}

type Slot = Mutex<Option<(u64, LedgerRecord)>>;

/// The request analytics ledger: bounded record ring + per-graph cost
/// profiles + global scorecard. All methods are `&self`; the ring is
/// lock-light (writers lock only the one slot their ticket maps to).
pub struct Ledger {
    seq: AtomicU64,
    slots: Box<[Slot]>,
    /// `(graph name, profile)`, sorted by name; fixed at construction so
    /// snapshot/metric iteration order is deterministic.
    profiles: Vec<(String, Mutex<Profile>)>,
    overall: Mutex<Profile>,
    scorecard: Mutex<Scorecard>,
}

impl Ledger {
    /// A ledger holding the `capacity` most recent records, with one cost
    /// profile per name in `graphs` (plus the overall aggregate). Graph
    /// names are sorted internally; unknown graphs still land in the ring
    /// and the overall profile.
    pub fn new(capacity: usize, graphs: &[String]) -> Self {
        let cap = capacity.max(1);
        let mut names: Vec<String> = graphs.to_vec();
        names.sort();
        names.dedup();
        Ledger {
            seq: AtomicU64::new(0),
            slots: (0..cap).map(|_| Mutex::new(None)).collect(),
            profiles: names.into_iter().map(|n| (n, Mutex::new(Profile::new()))).collect(),
            overall: Mutex::new(Profile::new()),
            scorecard: Mutex::new(Scorecard::new()),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records ever recorded (not just currently retained).
    pub fn recorded_total(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Records one completed request. Cold (`cache != Hit`), successful
    /// (`class == Ok`) records additionally fold into the graph + overall
    /// cost profiles and the q-error scorecard; everything lands in the
    /// ring.
    pub fn record(&self, rec: LedgerRecord) {
        if rec.class == ResponseClass::Ok && rec.cache != CacheOutcome::Hit {
            if let Ok(idx) =
                self.profiles.binary_search_by(|(name, _)| name.as_str().cmp(&rec.graph))
            {
                self.profiles[idx].1.lock().unwrap().observe(
                    rec.estimated_cost,
                    rec.actual_cost,
                    rec.total_us,
                    rec.slo_breach,
                );
            }
            self.overall.lock().unwrap().observe(
                rec.estimated_cost,
                rec.actual_cost,
                rec.total_us,
                rec.slo_breach,
            );
            self.scorecard.lock().unwrap().observe(rec.estimated_cost, rec.actual_cost);
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        *slot.lock().unwrap() = Some((seq, rec));
    }

    /// The `n` most recent records, newest first.
    pub fn tail(&self, n: usize) -> Vec<LedgerRecord> {
        let mut entries: Vec<(u64, LedgerRecord)> =
            self.slots.iter().filter_map(|s| s.lock().unwrap().clone()).collect();
        entries.sort_by_key(|&(seq, _)| std::cmp::Reverse(seq));
        entries.truncate(n);
        entries.into_iter().map(|(_, r)| r).collect()
    }

    /// Per-graph profile snapshots in sorted-name order.
    pub fn profile_snapshots(&self) -> Vec<ProfileSnapshot> {
        self.profiles.iter().map(|(name, p)| p.lock().unwrap().snapshot(name)).collect()
    }

    /// The aggregate profile over every graph (drives `auto` capacity).
    pub fn overall_snapshot(&self) -> ProfileSnapshot {
        self.overall.lock().unwrap().snapshot("_overall")
    }

    /// The estimate-vs-actual scorecard.
    pub fn scorecard_snapshot(&self) -> ScorecardSnapshot {
        self.scorecard.lock().unwrap().snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(graph: &str, est: u64, actual: u64, us: u64) -> LedgerRecord {
        LedgerRecord {
            id: 1,
            graph: graph.to_owned(),
            generation: 1,
            route: "explore",
            key_hash: key_hash("{}"),
            estimated_cost: est,
            actual_cost: actual,
            cells: actual / 2,
            facts: actual - actual / 2,
            cache: CacheOutcome::Miss,
            class: ResponseClass::Ok,
            total_us: us,
            stages: vec![("evaluation", us)],
            slo_breach: false,
            unix_ms: 0,
        }
    }

    #[test]
    fn key_hash_is_fnv1a() {
        // Reference vectors for 64-bit FNV-1a.
        assert_eq!(key_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(key_hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(key_hash("{\"k\":2}"), key_hash("{\"k\":1}"));
    }

    #[test]
    fn p2_tracks_quantiles_of_uniform_stream() {
        // Deterministic LCG over [0, 1000).
        let mut state = 12345u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % 1000) as f64
        };
        let mut p50 = P2::new(0.5);
        let mut p95 = P2::new(0.95);
        let mut exact = Vec::new();
        for _ in 0..5000 {
            let x = next();
            p50.observe(x);
            p95.observe(x);
            exact.push(x);
        }
        exact.sort_by(f64::total_cmp);
        let true_p50 = exact[2499];
        let true_p95 = exact[4749];
        assert!((p50.estimate() - true_p50).abs() < 50.0, "{} vs {true_p50}", p50.estimate());
        assert!((p95.estimate() - true_p95).abs() < 50.0, "{} vs {true_p95}", p95.estimate());
    }

    #[test]
    fn p2_small_samples_are_exact_nearest_rank() {
        let mut p50 = P2::new(0.5);
        assert_eq!(p50.estimate(), 0.0);
        for x in [30.0, 10.0, 20.0] {
            p50.observe(x);
        }
        assert_eq!(p50.estimate(), 20.0);
        let mut p99 = P2::new(0.99);
        p99.observe(7.0);
        assert_eq!(p99.estimate(), 7.0);
    }

    #[test]
    fn p2_is_deterministic_for_a_fixed_sequence() {
        let run = || {
            let mut s = P2::new(0.95);
            for i in 0..1000u64 {
                s.observe(((i * 37) % 251) as f64);
            }
            s.estimate()
        };
        assert_eq!(run().to_bits(), run().to_bits());
    }

    #[test]
    fn ring_wraps_and_tail_is_newest_first() {
        let ledger = Ledger::new(4, &["g".to_owned()]);
        for i in 0..10u64 {
            let mut r = record("g", 10, 10, 100);
            r.id = i;
            ledger.record(r);
        }
        assert_eq!(ledger.recorded_total(), 10);
        let tail = ledger.tail(10);
        assert_eq!(tail.len(), 4, "ring keeps only capacity records");
        let ids: Vec<u64> = tail.iter().map(|r| r.id).collect();
        assert_eq!(ids, [9, 8, 7, 6]);
        assert_eq!(ledger.tail(2).len(), 2);
    }

    #[test]
    fn only_cold_ok_records_update_profiles() {
        let ledger = Ledger::new(8, &["a".to_owned(), "b".to_owned()]);
        ledger.record(record("a", 100, 200, 1000));
        let mut hit = record("a", 100, 0, 5);
        hit.cache = CacheOutcome::Hit;
        ledger.record(hit);
        let mut shed = record("a", 900, 0, 2);
        shed.class = ResponseClass::Shed;
        ledger.record(shed);
        let mut unknown = record("zz", 50, 70, 300);
        unknown.cache = CacheOutcome::Bypass;
        ledger.record(unknown);

        let profiles = ledger.profile_snapshots();
        assert_eq!(profiles.len(), 2);
        assert_eq!(profiles[0].graph, "a");
        assert_eq!(profiles[0].requests, 1, "hit and shed excluded");
        assert_eq!(profiles[0].cost_ewma, 200.0);
        assert_eq!(profiles[0].cost_p50, 200.0);
        assert_eq!(profiles[1].graph, "b");
        assert_eq!(profiles[1].requests, 0);
        // The unknown graph still reaches the ring and the overall profile.
        assert_eq!(ledger.tail(10).len(), 4);
        assert_eq!(ledger.overall_snapshot().requests, 2);
        let card = ledger.scorecard_snapshot();
        assert_eq!(card.count, 2);
        assert!(card.q_error_geo_mean.is_finite() && card.q_error_geo_mean >= 1.0);
    }

    #[test]
    fn scorecard_geo_mean_matches_hand_computation() {
        let ledger = Ledger::new(4, &["g".to_owned()]);
        ledger.record(record("g", 200, 100, 10)); // q-error 2
        ledger.record(record("g", 100, 800, 10)); // q-error 8
        let card = ledger.scorecard_snapshot();
        assert_eq!(card.count, 2);
        assert!((card.q_error_geo_mean - 4.0).abs() < 1e-9, "{}", card.q_error_geo_mean);
        assert_eq!(card.q_error_max, 8.0);
    }

    #[test]
    fn slo_breaches_accumulate_per_graph() {
        let ledger = Ledger::new(4, &["g".to_owned()]);
        let mut r = record("g", 10, 10, 5000);
        r.slo_breach = true;
        ledger.record(r);
        ledger.record(record("g", 10, 10, 100));
        assert_eq!(ledger.profile_snapshots()[0].slo_breaches, 1);
    }

    #[test]
    fn record_json_shape_is_stable() {
        let json = record("g", 3, 4, 5).to_json();
        for key in [
            "\"graph\":\"g\"",
            "\"estimated_cost\":3",
            "\"actual_cost\":4",
            "\"cache\":\"miss\"",
            "\"class\":\"ok\"",
            "\"stages\":{\"evaluation\":5}",
            "\"slo_breach\":false",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.contains("\"key_hash\":\""));
    }

    #[test]
    fn concurrent_records_all_land() {
        let ledger = std::sync::Arc::new(Ledger::new(64, &["g".to_owned()]));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let ledger = std::sync::Arc::clone(&ledger);
                scope.spawn(move || {
                    for i in 0..16u64 {
                        let mut r = record("g", 10, 10 + i, 100);
                        r.id = t * 100 + i;
                        ledger.record(r);
                    }
                });
            }
        });
        assert_eq!(ledger.recorded_total(), 64);
        assert_eq!(ledger.tail(64).len(), 64);
        assert_eq!(ledger.profile_snapshots()[0].requests, 64);
    }
}
