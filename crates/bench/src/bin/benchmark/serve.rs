//! The two wire workloads, driven over loopback against a `spade-serve`
//! child: `explore_cold` (cache off, every request runs the pipeline) and
//! `serve_mixed` (two graphs, a cache half the working set, reloads).

use crate::daemon::Daemon;
use crate::harness::{metric, ns_per_call, Metric, OpSample, Window, Workload, ENGINE_THREADS};
use crate::stats::{median, percentile, zipf_counts, Rng};
use crate::trace::Tracer;
use spade_core::analysis::analyze_cfs;
use spade_core::enumeration::enumerate;
use spade_core::evaluate::evaluate_cfs;
use spade_core::json::{self, JsonWriter};
use spade_core::{
    cfs, offline, CfsAnalysis, CfsStrategy, LatticeSpec, OfflineState, RequestConfig, Spade,
    SpadeConfig, SpadeReport,
};
use spade_cube::arm::top_k_of_result;
use spade_cube::mvdcube::{mvd_cube_pruned, prepare, MvdCubeOptions};
use spade_cube::{CubeSpec, MeasureSpec};
use spade_datagen::{realistic, RealisticConfig};
use spade_serve::client::Client;
use spade_serve::ResultCache;
use spade_stats::Interestingness;
use spade_store::Snapshot;
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The simulated graphs are generated from this seed whatever `--seed`
/// says: their *structure* (how many CFSs pass the thresholds, how many
/// lattices each yields) swings the cold-explore cost by ±20 % between
/// corpus seeds, which no regression bound could absorb. `--seed` drives
/// everything the generator does with the corpus instead.
const CORPUS_SEED: u64 = 7;

/// The daemon's base pipeline configuration (`spade-serve` without `--k` /
/// `--min-support`), which the in-process oracle must share.
fn base_config() -> SpadeConfig {
    SpadeConfig { threads: ENGINE_THREADS, ..Default::default() }
}

/// One simulated graph: its N-Triples text for the program under test and
/// an independently built in-process state for the oracle.
struct Corpus {
    nt: String,
    spade: Spade,
    state: OfflineState,
}

impl Corpus {
    fn generate(
        dataset: fn(&RealisticConfig) -> spade_rdf::Graph,
        scale: usize,
    ) -> Result<Corpus, String> {
        let graph = dataset(&RealisticConfig { scale, seed: CORPUS_SEED });
        let nt = spade_rdf::write_ntriples(&graph);
        // The oracle never touches the snapshot store: text → graph →
        // saturation → statistics, all in this process.
        let parsed = spade_rdf::ingest(&nt, ENGINE_THREADS).map_err(|e| e.to_string())?;
        let state = OfflineState::from_graph(parsed, ENGINE_THREADS);
        Ok(Corpus { nt, spade: Spade::new(base_config()), state })
    }

    fn report(&self, config: &RequestConfig) -> SpadeReport {
        self.spade.run_on(&self.state, config)
    }

    fn snapshot_to(&self, path: &Path) -> Result<(), String> {
        self.spade.snapshot_ntriples(&self.nt, path).map_err(|e| e.to_string())
    }
}

/// One distinct request with its byte-exact expected response.
struct Request {
    path: String,
    body: String,
    config: RequestConfig,
    expected: String,
}

impl Request {
    fn new(corpus: &Corpus, path: &str, config: RequestConfig) -> Request {
        let expected = corpus.report(&config).to_json(false);
        Request { path: path.to_owned(), body: request_body(&config), config, expected }
    }
}

/// The wire encoding of a request's overrides.
fn request_body(config: &RequestConfig) -> String {
    let mut w = JsonWriter::compact();
    w.begin_object();
    if let Some(k) = config.k {
        w.key("k").usize(k);
    }
    if let Some(h) = config.interestingness {
        w.key("interestingness").string(h.label());
    }
    if let Some(ms) = config.min_support {
        w.key("min_support").f64(ms);
    }
    for (key, filter) in
        [("cfs_filter", &config.cfs_filter), ("measure_filter", &config.measure_filter)]
    {
        if !filter.is_empty() {
            w.key(key).begin_array();
            for f in filter {
                w.string(f);
            }
            w.end_array();
        }
    }
    w.end_object();
    w.finish()
}

/// Every `(k, h)` combination over the given `k`s; they cost the same to
/// evaluate and differ only in the tail of top-k and the body size.
fn k_h_combos(ks: [usize; 4]) -> Vec<(usize, Interestingness)> {
    ks.iter().flat_map(|&k| Interestingness::ALL.into_iter().map(move |h| (k, h))).collect()
}

/// Filters that narrow a request, discovered from the corpus itself: the
/// CFS and the measure of the default request's best aggregate.
fn narrowing(corpus: &Corpus) -> Result<(String, String), String> {
    let report = corpus.report(&RequestConfig::default());
    let top = report.top.first().ok_or("default request found no aggregate")?;
    let measure = top
        .mda
        .split(['(', ')'])
        .nth(1)
        .filter(|m| *m != "*")
        .ok_or_else(|| format!("best aggregate {:?} names no measure", top.mda))?;
    Ok((top.cfs.clone(), measure.to_owned()))
}

/// Posts one request on the generator's connection: latency is socket
/// write → last body byte; the byte comparison happens after the clock
/// stopped. `class` 0 = cache hit, 1 = miss.
fn post_checked(client: &mut Client, request: &Request) -> Result<OpSample, String> {
    let started = Instant::now();
    let response = client
        .post(&request.path, request.body.as_bytes())
        .map_err(|e| format!("POST {}: {e}", request.path))?;
    let nanos = started.elapsed().as_nanos() as u64;
    if response.status != 200 {
        return Err(format!(
            "POST {} {} answered {}: {}",
            request.path,
            request.body,
            response.status,
            response.text()
        ));
    }
    if response.body != request.expected.as_bytes() {
        let at = response
            .body
            .iter()
            .zip(request.expected.as_bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(response.body.len().min(request.expected.len()));
        return Err(format!(
            "POST {} {}: body differs from the in-process oracle at byte {at} \
             ({} vs {} bytes)",
            request.path,
            request.body,
            response.body.len(),
            request.expected.len()
        ));
    }
    let class = u8::from(response.header("x-cache") != Some("hit"));
    Ok(OpSample { nanos, class })
}

// ---------------------------------------------------------------------------
// explore_cold
// ---------------------------------------------------------------------------

pub struct ExploreFixture {
    corpus: Corpus,
    cycle: Vec<Request>,
}

pub struct ExploreCold {
    client: Client,
    daemon: Daemon,
    /// Per traced op: CFSs, lattices, Σ facts over the lattices, aggregates.
    work: Vec<[f64; 4]>,
}

const EXPLORE_SCALE: usize = 250;
const SMOKE_SCALE: usize = 60;

impl Workload for ExploreCold {
    type Fixture = ExploreFixture;
    const NAME: &'static str = "explore_cold";

    fn fixture(seed: u64, smoke: bool) -> Result<ExploreFixture, String> {
        let corpus =
            Corpus::generate(realistic::ceos, if smoke { SMOKE_SCALE } else { EXPLORE_SCALE })?;
        let (cfs_name, measure) = narrowing(&corpus)?;
        let mut rng = Rng::new(seed);
        // Seven broad bodies (no CFS filter; one cost class, so the median
        // lands inside it) and three narrow ones.
        let mut combos = k_h_combos([3, 5, 10, 20]);
        rng.shuffle(&mut combos);
        let mut configs: Vec<RequestConfig> = combos[..7]
            .iter()
            .map(|&(k, h)| RequestConfig {
                k: Some(k),
                interestingness: Some(h),
                ..Default::default()
            })
            .collect();
        configs.extend([
            RequestConfig { cfs_filter: vec![cfs_name], ..Default::default() },
            RequestConfig { min_support: Some(0.6), ..Default::default() },
            RequestConfig { measure_filter: vec![measure], ..Default::default() },
        ]);
        rng.shuffle(&mut configs);
        let cycle = configs.into_iter().map(|c| Request::new(&corpus, "/explore", c)).collect();
        Ok(ExploreFixture { corpus, cycle })
    }

    fn set_up(fixture: &ExploreFixture, dir: &Path) -> Result<ExploreCold, String> {
        let snapshot = dir.join("ceos.spade");
        fixture.corpus.snapshot_to(&snapshot)?;
        let daemon = Daemon::spawn(&[
            "--snapshot".to_owned(),
            snapshot.display().to_string(),
            "--cache-bytes".to_owned(),
            "0".to_owned(),
        ])?;
        let client = daemon.connect()?;
        Ok(ExploreCold { client, daemon, work: Vec::new() })
    }

    fn cycle_len(fixture: &ExploreFixture) -> usize {
        fixture.cycle.len()
    }

    fn op(&mut self, fixture: &ExploreFixture, index: usize) -> Result<OpSample, String> {
        post_checked(&mut self.client, &fixture.cycle[index])
    }

    fn measured_pid(&self) -> Option<u32> {
        Some(self.daemon.pid())
    }

    /// The daemon cannot be traced from outside, so the traced pass runs
    /// each request of the cycle in this process: once whole
    /// (`Spade::run_on` + `to_json`, the closure reference), once stage by
    /// stage through the public functions `run_on` itself calls, and once
    /// more lattice by lattice for the cube layer's share.
    fn traced_cycle(
        &mut self,
        fixture: &ExploreFixture,
        tracer: &mut Tracer,
    ) -> Result<(), String> {
        let Corpus { spade, state, .. } = &fixture.corpus;
        let strategies = [CfsStrategy::TypeBased, CfsStrategy::SummaryBased];
        for request in &fixture.cycle {
            tracer.begin_op();
            let (report, body) = tracer.span("core.pipeline.run_on", |_| {
                let report = spade.run_on(state, &request.config);
                let body = report.to_json(false);
                (report, body)
            });
            if body != request.expected {
                return Err(format!("traced {} drifted from the oracle", request.body));
            }
            let config = request.config.apply(&base_config());
            let staged = tracer.span("op", |t| {
                let (derived, _) = t.span("core.offline.derivations", |_| {
                    offline::enumerate_derivations(&state.graph, &state.stats, &config)
                });
                let cfs_list = t.span("core.cfs.select", |_| {
                    cfs::select(&state.graph, &strategies, &config)
                });
                let analyses: Vec<CfsAnalysis> = t.span("core.analysis.analyze_cfs", |_| {
                    cfs_list
                        .iter()
                        .map(|c| analyze_cfs(&state.graph, c, &derived, &config))
                        .collect()
                });
                let lattices: Vec<Vec<LatticeSpec>> = t
                    .span("core.enumeration.enumerate", |_| {
                        analyses.iter().map(|a| enumerate(a, &config)).collect()
                    });
                let evaluations: Vec<_> = t.span("core.evaluate.evaluate_cfs", |_| {
                    analyses
                        .iter()
                        .zip(&lattices)
                        .map(|(a, l)| evaluate_cfs(a, l, &config))
                        .collect()
                });
                t.span("cube.arm.topk", |_| {
                    let mut scored: Vec<_> = evaluations
                        .iter()
                        .flat_map(|e| &e.results)
                        .flat_map(|r| top_k_of_result(r, config.interestingness, usize::MAX))
                        .filter(|s| s.score > 0.0)
                        .collect();
                    scored.sort_by(|a, b| {
                        b.score.total_cmp(&a.score).then_with(|| a.mda_label.cmp(&b.mda_label))
                    });
                    scored.truncate(config.k);
                    black_box(scored);
                });
                t.span("core.json.report_emit", |_| black_box(report.to_json(false)));
                (analyses, lattices)
            });
            let (analyses, lattices) = staged;
            let per_cfs = analyses.iter().zip(&lattices);
            self.work.push([
                report.profile.cfs_count as f64,
                lattices.iter().map(Vec::len).sum::<usize>() as f64,
                per_cfs.map(|(a, l)| a.n_facts() * l.len()).sum::<usize>() as f64,
                report.evaluated_aggregates as f64,
            ]);
            tracer.span("replay.lattices", |t| {
                for (analysis, specs) in analyses.iter().zip(&lattices) {
                    for (spec, alive) in lattice_work(analysis, specs, &config) {
                        let options =
                            MvdCubeOptions { threads: ENGINE_THREADS, ..Default::default() };
                        let (lattice, translation) = t
                            .span("cube.translate.prepare", |_| prepare(&spec, &options, None));
                        black_box(t.span("cube.engine.mvd_cube", |_| {
                            mvd_cube_pruned(&spec, &options, &lattice, &translation, &alive)
                        }));
                    }
                }
            });
        }
        Ok(())
    }

    fn layer_metrics(
        &mut self,
        fixture: &ExploreFixture,
        tracer: &Tracer,
        window: &Window,
    ) -> Result<Vec<Metric>, String> {
        let stages = [
            ("core.offline.derivations_ms", "core.offline.derivations"),
            ("core.cfs.select_ms", "core.cfs.select"),
            ("core.analysis.analyze_cfs_ms", "core.analysis.analyze_cfs"),
            ("core.enumeration.enumerate_ms", "core.enumeration.enumerate"),
            ("core.evaluate.evaluate_cfs_ms", "core.evaluate.evaluate_cfs"),
            ("cube.arm.topk_ms", "cube.arm.topk"),
            ("core.json.report_emit_ms", "core.json.report_emit"),
        ];
        // Closure is judged op by op — whole call and stage replay of one
        // request run back to back, so a slow spell of the machine hits both.
        let whole = tracer.total_ms_per_op("core.pipeline.run_on");
        let mut staged = vec![0.0; whole.len()];
        for (_, span) in stages {
            for (sum, ms) in staged.iter_mut().zip(tracer.self_ms_per_op(span)) {
                *sum += ms;
            }
        }
        let unattributed: Vec<f64> =
            whole.iter().zip(&staged).map(|(whole, staged)| 1.0 - staged / whole).collect();
        let run_on_ms = median(&whole);
        let mut out = vec![
            metric("core.pipeline.run_on_ms", run_on_ms, "ms"),
            metric("core.pipeline.unattributed_share", median(&unattributed), "ratio"),
            metric("serve.wire_overhead_ms", window.overall_p50_ms - run_on_ms, "ms"),
        ];
        out.extend(
            stages.iter().map(|&(name, span)| metric(name, tracer.layer_ms(span), "ms")),
        );

        // Work counts of the median op (a broad request).
        let work = |slot: usize| median(&self.work.iter().map(|w| w[slot]).collect::<Vec<_>>());
        let (cfs_count, lattices, aggregates) = (work(0), work(1), work(3));
        let facts_per_lattice =
            median(&self.work.iter().map(|w| w[2] / w[1].max(1.0)).collect::<Vec<_>>());
        let Corpus { state, .. } = &fixture.corpus;
        let broad = RequestConfig::default();
        let estimate_ns = ns_per_call(|| {
            spade_serve::admission::estimate_cost(state, &base_config(), black_box(&broad))
        });
        let engine_ms = tracer.layer_ms("cube.engine.mvd_cube");
        out.extend([
            metric("serve.admission.estimate_us", estimate_ns / 1e3, "us"),
            metric(
                "cube.translate.prepare_ms",
                tracer.layer_ms("cube.translate.prepare"),
                "ms",
            ),
            metric("cube.engine.mvd_cube_ms", engine_ms, "ms"),
            metric("cube.engine.us_per_lattice", engine_ms * 1e3 / lattices.max(1.0), "us"),
            metric("cube.engine.facts_per_lattice", facts_per_lattice, "count"),
            metric("core.enumeration.lattices", lattices, "count"),
            metric("core.evaluate.aggregates", aggregates, "count"),
            metric("core.cfs.count", cfs_count, "count"),
        ]);
        Ok(out)
    }

    /// Stage-by-stage replay against the whole in-process call: what the
    /// spans themselves cost.
    fn trace_overhead(&self, tracer: &Tracer, _window: &Window) -> (f64, f64) {
        (tracer.total_ms("op"), tracer.total_ms("core.pipeline.run_on"))
    }
}

/// The cube specs of one CFS's lattices with their liveness maps, as
/// `evaluate_cfs` plans them: a `(dimension set, MDA)` pair an earlier
/// lattice already evaluates is dead in every later one.
fn lattice_work<'a>(
    analysis: &'a CfsAnalysis,
    lattices: &[LatticeSpec],
    config: &SpadeConfig,
) -> Vec<(CubeSpec<'a>, HashMap<u32, Vec<bool>>)> {
    let mut shared: HashSet<(Vec<usize>, String)> = HashSet::new();
    lattices
        .iter()
        .map(|lattice| {
            let dims = lattice
                .dims
                .iter()
                .map(|&d| {
                    analysis.attributes[d].categorical.as_ref().expect("dimension column")
                })
                .collect();
            let measures = lattice
                .measures
                .iter()
                .map(|&m| MeasureSpec {
                    preagg: analysis.attributes[m].numeric.as_ref().expect("measure column"),
                    fns: config.agg_fns.clone(),
                })
                .collect();
            let spec = CubeSpec::new(dims, measures, analysis.n_facts());
            let mdas = spec.mdas();
            let n_dims = lattice.dims.len();
            let alive = (0u32..1 << n_dims)
                .map(|mask| {
                    let dim_attrs: Vec<usize> = (0..n_dims)
                        .filter(|i| mask & (1 << i) != 0)
                        .map(|i| lattice.dims[i])
                        .collect();
                    let flags = mdas
                        .iter()
                        .map(|mda| shared.insert((dim_attrs.clone(), mda.label.clone())))
                        .collect();
                    (mask, flags)
                })
                .collect();
            (spec, alive)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// serve_mixed
// ---------------------------------------------------------------------------

/// Distinct `(graph, body)` requests in the pool.
const POOL: usize = 64;
const ZIPF_EXPONENT: f64 = 1.1;
/// Every this-many-th op reloads a graph (alternating), so a cycle is two
/// periods. A reload retires the graph's 32 cache entries, each of which
/// then misses once, and the first hit after a miss is half again as slow
/// as a steady one: at 250 those shoulders reach down to p60 of a cycle and
/// the median stops sitting on a plateau.
const RELOAD_PERIOD: usize = 500;
/// The band the window's hit ratio must fall in.
const HIT_RATIO_BAND: (f64, f64) = (0.80, 0.92);
const CLASS_RELOAD: u8 = 2;

enum MixedOp {
    /// Index into the pool.
    Explore(usize),
    /// Index into the graphs.
    Reload(usize),
}

pub struct MixedFixture {
    /// `(name, corpus)`, in catalog (name) order.
    graphs: Vec<(&'static str, Corpus)>,
    pool: Vec<Request>,
    cycle: Vec<MixedOp>,
    cache_bytes: usize,
}

pub struct ServeMixed {
    client: Client,
    daemon: Daemon,
    dir: PathBuf,
    /// `/stats` cache section after the window: hits, misses, evictions, bytes.
    cache_stats: [f64; 4],
}

impl Workload for ServeMixed {
    type Fixture = MixedFixture;
    const NAME: &'static str = "serve_mixed";

    fn fixture(seed: u64, smoke: bool) -> Result<MixedFixture, String> {
        // Misses are ballast here — the workload exists for the serving
        // layers. The two graphs are the ones whose narrowed requests cost
        // the same few ms, so which entries the LRU happens to evict under a
        // given request order does not move throughput, and a 500-op cycle
        // fits into a set-up repetition. `k` stays within 9..=12 so hit
        // bodies, and with them hit latencies, fall in one class.
        let scale = if smoke { 60 } else { 250 };
        let graphs = vec![
            ("airline", Corpus::generate(realistic::airline, scale)?),
            ("nasa", Corpus::generate(realistic::nasa, scale)?),
        ];
        let combos = k_h_combos([9, 10, 11, 12]);
        let mut pool = Vec::with_capacity(POOL);
        for (name, corpus) in &graphs {
            let (_, measure) = narrowing(corpus)?;
            let path = format!("/graphs/{name}/explore");
            for i in 0..POOL / graphs.len() {
                let (k, h) = combos[i % combos.len()];
                let config = RequestConfig {
                    k: Some(k),
                    interestingness: Some(h),
                    min_support: Some([0.6, 0.7, 0.8][i / combos.len()]),
                    measure_filter: vec![measure.clone()],
                    ..Default::default()
                };
                pool.push(Request::new(corpus, &path, config));
            }
        }
        // Popularity rank → request: ranks alternate between the graphs, so
        // both partitions hold hot and cold entries. Every cycle has the same
        // composition — each rank exactly its Zipf share of the explores —
        // in one fixed base order, and the seed reorders it only inside
        // blocks of eight: which entries an LRU evicts hangs on the order,
        // and with the whole cycle reshuffled per seed the misses per cycle
        // (which carry throughput) ranged over 22 %; block-wise it is 4 %.
        let per_graph = POOL / graphs.len();
        let by_rank: Vec<usize> = (0..POOL)
            .map(|rank| (rank % graphs.len()) * per_graph + rank / graphs.len())
            .collect();
        let explores = 2 * (RELOAD_PERIOD - 1);
        let mut draws: Vec<usize> = zipf_counts(POOL, ZIPF_EXPONENT, explores)
            .into_iter()
            .enumerate()
            .flat_map(|(rank, count)| std::iter::repeat_n(by_rank[rank], count))
            .collect();
        Rng::new(CORPUS_SEED).shuffle(&mut draws);
        let mut rng = Rng::new(seed);
        for block in draws.chunks_mut(8) {
            rng.shuffle(block);
        }
        let mut cycle = Vec::with_capacity(2 * RELOAD_PERIOD);
        for (half, chunk) in draws.chunks(RELOAD_PERIOD - 1).enumerate() {
            cycle.extend(chunk.iter().map(|&i| MixedOp::Explore(i)));
            cycle.push(MixedOp::Reload(half % graphs.len()));
        }
        // Three quarters of the pool's bodies fit: with each rank at its exact
        // Zipf share and a partition retired every 500 ops, that lands the
        // hit ratio at 0.88, inside the band with room on both sides.
        let cache_bytes = pool.iter().map(|r| r.expected.len()).sum::<usize>() * 3 / 4;
        Ok(MixedFixture { graphs, pool, cycle, cache_bytes })
    }

    fn set_up(fixture: &MixedFixture, dir: &Path) -> Result<ServeMixed, String> {
        for (name, corpus) in &fixture.graphs {
            corpus.snapshot_to(&dir.join(format!("{name}.spade")))?;
        }
        let daemon = Daemon::spawn(&[
            "--snapshot-dir".to_owned(),
            dir.display().to_string(),
            "--cache-bytes".to_owned(),
            fixture.cache_bytes.to_string(),
        ])?;
        let client = daemon.connect()?;
        Ok(ServeMixed { client, daemon, dir: dir.to_owned(), cache_stats: [0.0; 4] })
    }

    fn cycle_len(fixture: &MixedFixture) -> usize {
        fixture.cycle.len()
    }

    fn op(&mut self, fixture: &MixedFixture, index: usize) -> Result<OpSample, String> {
        match fixture.cycle[index] {
            MixedOp::Explore(i) => post_checked(&mut self.client, &fixture.pool[i]),
            MixedOp::Reload(g) => {
                let path = format!("/graphs/{}/reload", fixture.graphs[g].0);
                let started = Instant::now();
                let response =
                    self.client.post(&path, b"").map_err(|e| format!("POST {path}: {e}"))?;
                let nanos = started.elapsed().as_nanos() as u64;
                // A reload's output is the state it serves afterwards; the
                // explores that follow are its byte-for-byte check.
                if response.status != 200 {
                    return Err(format!("POST {path} answered {}", response.status));
                }
                Ok(OpSample { nanos, class: CLASS_RELOAD })
            }
        }
    }

    fn measured_pid(&self) -> Option<u32> {
        Some(self.daemon.pid())
    }

    fn check_window(&mut self, _: &MixedFixture, window: &Window) -> Result<(), String> {
        let stats = self.client.get("/stats").map_err(|e| format!("GET /stats: {e}"))?;
        let doc = json::parse(&stats.text()).map_err(|e| format!("/stats: {e}"))?;
        let cache = doc.get("cache").ok_or("/stats has no cache section")?;
        for (slot, key) in ["hits", "misses", "evictions", "bytes"].into_iter().enumerate() {
            self.cache_stats[slot] = cache.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0);
        }
        let hits = window.samples.iter().filter(|s| s.class == 0).count() as f64;
        let misses = window.samples.iter().filter(|s| s.class == 1).count() as f64;
        let ratio = hits / (hits + misses);
        if ratio < HIT_RATIO_BAND.0 || ratio > HIT_RATIO_BAND.1 {
            return Err(format!(
                "hit_ratio_out_of_band: {ratio:.4} not in [{}, {}]",
                HIT_RATIO_BAND.0, HIT_RATIO_BAND.1
            ));
        }
        Ok(())
    }

    /// Wire ops cannot be opened up from here; the traced pass repeats the
    /// cycle with a client-side span per op, which prices the spans.
    fn traced_cycle(
        &mut self,
        fixture: &MixedFixture,
        tracer: &mut Tracer,
    ) -> Result<(), String> {
        for index in 0..fixture.cycle.len() {
            tracer.begin_op();
            tracer.span("op", |_| self.op(fixture, index))?;
        }
        Ok(())
    }

    fn layer_metrics(
        &mut self,
        fixture: &MixedFixture,
        _tracer: &Tracer,
        window: &Window,
    ) -> Result<Vec<Metric>, String> {
        let hits = window.class_ms(0);
        let misses = window.class_ms(1);
        let reloads = window.class_ms(CLASS_RELOAD);
        if hits.is_empty() || misses.is_empty() || reloads.is_empty() {
            return Err("window lacks a hit, a miss or a reload".into());
        }
        let [stat_hits, stat_misses, evictions, bytes] = self.cache_stats;

        // The cache layer alone, on the cycle's own key sequence: the
        // server's key shape (`{graph}@g{generation}:{canonical}`), the same
        // bodies and budget, the same partition retirement on reload.
        let per_graph = POOL / fixture.graphs.len();
        let bodies: Vec<Arc<[u8]>> =
            fixture.pool.iter().map(|r| Arc::from(r.expected.as_bytes())).collect();
        let mut generations = vec![1u64; fixture.graphs.len()];
        let mut cache = ResultCache::new(fixture.cache_bytes);
        let (mut get_ns, mut insert_ns) = (Vec::new(), Vec::new());
        for _ in 0..8 {
            for op in &fixture.cycle {
                match *op {
                    MixedOp::Explore(i) => {
                        let g = i / per_graph;
                        let key = format!(
                            "{}@g{}:{}",
                            fixture.graphs[g].0,
                            generations[g],
                            fixture.pool[i].config.canonical_key()
                        );
                        let t = Instant::now();
                        let found = cache.get(&key).is_some();
                        get_ns.push(t.elapsed().as_nanos() as f64);
                        if !found {
                            let t = Instant::now();
                            cache.insert(key, Arc::clone(&bodies[i]));
                            insert_ns.push(t.elapsed().as_nanos() as f64);
                        }
                    }
                    MixedOp::Reload(g) => {
                        generations[g] += 1;
                        cache.retire_prefix(&format!("{}@", fixture.graphs[g].0));
                    }
                }
            }
        }

        let snapshot_path = self.dir.join(format!("{}.spade", fixture.graphs[0].0));
        let open_ns = ns_per_call(|| Snapshot::open(&snapshot_path, ENGINE_THREADS));
        let snapshot =
            Snapshot::open(&snapshot_path, ENGINE_THREADS).map_err(|e| e.to_string())?;
        let load_ns = ns_per_call(|| snapshot.load(ENGINE_THREADS));
        Ok(vec![
            metric("client.hit_latency_p50_us", percentile(&hits, 50.0) * 1e3, "us"),
            metric("client.miss_latency_p50_ms", percentile(&misses, 50.0), "ms"),
            metric("serve.cache.get_ns", median(&get_ns), "ns"),
            metric("serve.cache.insert_ns", median(&insert_ns), "ns"),
            metric("serve.cache.hit_ratio", stat_hits / (stat_hits + stat_misses), "ratio"),
            metric("serve.cache.evictions", evictions, "count"),
            metric("serve.cache.bytes", bytes, "B"),
            metric("serve.catalog.reload_ms", percentile(&reloads, 50.0), "ms"),
            metric("store.open_mmap_us", open_ns / 1e3, "us"),
            metric("store.load_ms", load_ns / 1e6, "ms"),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle_signature(fixture: &MixedFixture) -> Vec<i64> {
        fixture
            .cycle
            .iter()
            .map(|op| match *op {
                MixedOp::Explore(i) => i as i64,
                MixedOp::Reload(g) => -1 - g as i64,
            })
            .collect()
    }

    #[test]
    fn same_seed_same_op_sequence_and_another_seed_another() {
        let a = ServeMixed::fixture(11, true).expect("fixture");
        let b = ServeMixed::fixture(11, true).expect("fixture");
        let c = ServeMixed::fixture(12, true).expect("fixture");
        assert_eq!(cycle_signature(&a), cycle_signature(&b));
        assert_ne!(cycle_signature(&a), cycle_signature(&c));
        // Whatever the seed: the same multiset of requests, reloads at the
        // end of each period, alternating graphs.
        let sorted = |f: &MixedFixture| {
            let mut s = cycle_signature(f);
            s.sort_unstable();
            s
        };
        assert_eq!(sorted(&a), sorted(&c));
        assert_eq!(a.cycle.len(), 2 * RELOAD_PERIOD);
        assert!(matches!(a.cycle[RELOAD_PERIOD - 1], MixedOp::Reload(0)));
        assert!(matches!(a.cycle[2 * RELOAD_PERIOD - 1], MixedOp::Reload(1)));
        let bodies = |f: &ExploreFixture| -> Vec<String> {
            f.cycle.iter().map(|r| r.body.clone()).collect()
        };
        let e1 = ExploreCold::fixture(11, true).expect("fixture");
        let e2 = ExploreCold::fixture(11, true).expect("fixture");
        let e3 = ExploreCold::fixture(12, true).expect("fixture");
        assert_eq!(bodies(&e1), bodies(&e2));
        assert_ne!(bodies(&e1), bodies(&e3));
        assert_eq!(e1.cycle.iter().filter(|r| r.config.k.is_some()).count(), 7);
    }

    #[test]
    fn request_bodies_parse_back_to_the_same_overrides() {
        let config = RequestConfig {
            k: Some(5),
            interestingness: Some(Interestingness::Kurtosis),
            min_support: Some(0.6),
            cfs_filter: vec!["type:CEO".into()],
            measure_filter: vec!["net\"Worth".into()],
            threads: None,
        };
        let doc = json::parse(&request_body(&config)).expect("valid JSON");
        assert_eq!(doc.get("k").and_then(|v| v.as_usize()), Some(5));
        assert_eq!(doc.get("interestingness").and_then(|v| v.as_str()), Some("kurtosis"));
        assert_eq!(doc.get("min_support").and_then(|v| v.as_f64()), Some(0.6));
        let filter = doc.get("measure_filter").and_then(|v| v.as_array()).expect("array");
        assert_eq!(filter[0].as_str(), Some("net\"Worth"));
        assert_eq!(request_body(&RequestConfig::default()), "{}");
    }
}
