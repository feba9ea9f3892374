//! The end-to-end Spade pipeline (Figure 2).
//!
//! [`Spade::run`] executes the offline phase (RDFS saturation, offline
//! attribute analysis, derived-property enumeration) followed by the five
//! online steps, timing each one — the instrumentation behind Figure 11 —
//! and returns a [`SpadeReport`] with the dataset profile (Table 2's
//! columns), the per-step timings, and the global top-k aggregates.

use crate::analysis::{analyze_cfs, CfsAnalysis};
use crate::cfs::{select_in, CfsStrategy};
use crate::config::{RequestConfig, SpadeConfig};
use crate::enumeration::{enumerate_in, LatticeSpec};
use crate::evaluate::evaluate_cfs_in;
use crate::json::JsonWriter;
use crate::offline::{self, DerivationCounts, OfflineStats};
use spade_cube::arm::score_aggregates;
use spade_cube::result::NULL_CODE;
use spade_cube::ExecCtx;
use spade_parallel::Cancelled;
use spade_rdf::{Graph, NtParseError};
use spade_store::{LoadedSnapshot, OpenMode, Snapshot, SnapshotError};
use spade_telemetry::Trace;
use std::path::Path;
use std::time::{Duration, Instant};

/// Wall-clock duration of each pipeline step (Figure 11's bar segments).
#[derive(Clone, Copy, Debug, Default)]
pub struct StepTimings {
    /// Offline: N-Triples ingestion (parse + dictionary + graph build).
    /// Zero when the pipeline was handed an already-built [`Graph`].
    pub ingest: Duration,
    /// Offline: snapshot load (file read, validation, reconstitution).
    /// Non-zero only for [`Spade::run_snapshot`]-style runs, which replace
    /// ingestion, saturation, and attribute analysis entirely.
    pub snapshot_load: Duration,
    /// Offline: RDFS saturation.
    pub saturation: Duration,
    /// Offline: attribute statistics + derivation enumeration.
    pub offline_analysis: Duration,
    /// Offline phase total: ingestion, saturation, statistics, derivation
    /// enumeration.
    pub offline: Duration,
    /// Step 1 — Candidate Fact Set Selection.
    pub cfs_selection: Duration,
    /// Step 2 — Online Attribute Analysis.
    pub attribute_analysis: Duration,
    /// Step 3 — Aggregate Enumeration.
    pub enumeration: Duration,
    /// Step 4 — Aggregate Evaluation.
    pub evaluation: Duration,
    /// Step 5 — Top-k Computation.
    pub topk: Duration,
}

impl StepTimings {
    /// Total online time (offline excluded, as in Figure 11).
    pub fn online_total(&self) -> Duration {
        self.cfs_selection
            + self.attribute_analysis
            + self.enumeration
            + self.evaluation
            + self.topk
    }
}

/// The dataset profile — Table 2's columns.
#[derive(Clone, Copy, Debug, Default)]
pub struct DatasetProfile {
    /// `#triples`.
    pub triples: usize,
    /// `#CFSs` analyzed.
    pub cfs_count: usize,
    /// `#P` — direct (data) properties in the graph.
    pub direct_properties: usize,
    /// `#DP` — derived properties by kind (kw, lang, count, path).
    pub derivations: DerivationCounts,
    /// `#A` — aggregates enumerated (after cross-lattice sharing).
    pub aggregates: usize,
}

/// One aggregate in the top-k list.
#[derive(Clone, Debug)]
pub struct TopAggregate {
    /// Which CFS it analyzes.
    pub cfs: String,
    /// Dimension attribute names.
    pub dims: Vec<String>,
    /// The measure/function label, e.g. `sum(netWorth)`.
    pub mda: String,
    /// Interestingness score.
    pub score: f64,
    /// Number of visible groups with a value for the MDA — the `W` the
    /// score ranges over (groups whose facts all lack the measure are not
    /// counted).
    pub groups: usize,
    /// Up to twelve `(group label, value)` pairs for display (Figure 6).
    pub sample_groups: Vec<(String, f64)>,
}

impl TopAggregate {
    /// `sum(netWorth) of type:CEO by nationality, gender`-style description.
    pub fn description(&self) -> String {
        if self.dims.is_empty() {
            format!("{} of {}", self.mda, self.cfs)
        } else {
            format!("{} of {} by {}", self.mda, self.cfs, self.dims.join(", "))
        }
    }
}

/// Ground-truth work counters from a traced run: total `(cells, facts)`
/// touched by the engine shards, summed from the `cells`/`facts` attrs the
/// engine annotates on its `shard` spans during a [`Spade::run_on_in`]
/// under [`ExecCtx::traced`]. Each cube cell belongs to exactly one chunk
/// of exactly one shard, so the totals are plan- and thread-invariant —
/// the same request measures the same work at any thread count. The sum
/// filters by span name because other spans (`emit`, `translate`) reuse
/// the `cells` key with different meanings. Returns `(0, 0)` for an
/// untraced or not-yet-evaluated run.
///
/// This is the cost signal the serve-layer request ledger records per
/// request, and the measurement any cardinality estimator is scored
/// against.
pub fn work_counters(trace: &Trace) -> (u64, u64) {
    (trace.sum_attr("shard", "cells"), trace.sum_attr("shard", "facts"))
}

/// Everything a Spade run produces.
#[derive(Clone, Debug, Default)]
pub struct SpadeReport {
    /// Table 2 columns for the input graph.
    pub profile: DatasetProfile,
    /// Per-step wall-clock times.
    pub timings: StepTimings,
    /// The k most interesting aggregates, best first.
    pub top: Vec<TopAggregate>,
    /// Aggregates evaluated (after sharing and early-stop).
    pub evaluated_aggregates: usize,
    /// Aggregates pruned by early-stop.
    pub pruned_by_es: usize,
}

impl SpadeReport {
    /// Serializes the report as compact JSON — the `spade-serve` response
    /// body and the shared artifact shape.
    ///
    /// With `with_timings = false` the output is **deterministic**: it
    /// contains only pipeline results, which are bit-identical across
    /// thread counts and repeat runs, so equal requests produce equal
    /// bytes (the property the serve cache and the loopback determinism
    /// suite rely on). With `with_timings = true` a `timings_ms` object
    /// (wall-clock, inherently nondeterministic) is appended.
    pub fn to_json(&self, with_timings: bool) -> String {
        let mut w = JsonWriter::compact();
        w.begin_object();
        w.key("profile").begin_object();
        w.key("triples").usize(self.profile.triples);
        w.key("cfs_count").usize(self.profile.cfs_count);
        w.key("direct_properties").usize(self.profile.direct_properties);
        w.key("derivations").begin_object();
        w.key("kw").usize(self.profile.derivations.kw);
        w.key("lang").usize(self.profile.derivations.lang);
        w.key("count").usize(self.profile.derivations.count);
        w.key("path").usize(self.profile.derivations.path);
        w.end_object();
        w.key("aggregates").usize(self.profile.aggregates);
        w.end_object();
        w.key("evaluated_aggregates").usize(self.evaluated_aggregates);
        w.key("pruned_by_es").usize(self.pruned_by_es);
        w.key("top").begin_array();
        for t in &self.top {
            w.begin_object();
            w.key("cfs").string(&t.cfs);
            w.key("dims").begin_array();
            for d in &t.dims {
                w.string(d);
            }
            w.end_array();
            w.key("mda").string(&t.mda);
            w.key("score").f64(t.score);
            w.key("groups").usize(t.groups);
            w.key("description").string(&t.description());
            w.key("sample_groups").begin_array();
            for (label, value) in &t.sample_groups {
                w.begin_object();
                w.key("group").string(label);
                w.key("value").f64(*value);
                w.end_object();
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        if with_timings {
            let ms = |d: Duration| d.as_secs_f64() * 1e3;
            w.key("timings_ms").begin_object();
            w.key("ingest").f64(ms(self.timings.ingest));
            w.key("snapshot_load").f64(ms(self.timings.snapshot_load));
            w.key("saturation").f64(ms(self.timings.saturation));
            w.key("offline_analysis").f64(ms(self.timings.offline_analysis));
            w.key("offline").f64(ms(self.timings.offline));
            w.key("cfs_selection").f64(ms(self.timings.cfs_selection));
            w.key("attribute_analysis").f64(ms(self.timings.attribute_analysis));
            w.key("enumeration").f64(ms(self.timings.enumeration));
            w.key("evaluation").f64(ms(self.timings.evaluation));
            w.key("topk").f64(ms(self.timings.topk));
            w.key("online_total").f64(ms(self.timings.online_total()));
            w.end_object();
        }
        w.end_object();
        w.finish()
    }
}

/// Everything that can fail building or serving from a snapshot.
#[derive(Debug)]
pub enum SnapshotPipelineError {
    /// The N-Triples input of [`Spade::snapshot_ntriples`] did not parse.
    Parse(NtParseError),
    /// The snapshot file could not be written, read, or validated.
    Store(SnapshotError),
}

impl std::fmt::Display for SnapshotPipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotPipelineError::Parse(e) => write!(f, "{e}"),
            SnapshotPipelineError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SnapshotPipelineError {}

impl From<NtParseError> for SnapshotPipelineError {
    fn from(e: NtParseError) -> Self {
        SnapshotPipelineError::Parse(e)
    }
}

impl From<SnapshotError> for SnapshotPipelineError {
    fn from(e: SnapshotError) -> Self {
        SnapshotPipelineError::Store(e)
    }
}

/// The complete **load-once** state of the offline phase: the saturated
/// graph (dictionary + indexes) and the offline per-property statistics.
///
/// This is the unit the load-once/serve-many split revolves around: a
/// serving process builds one `OfflineState` (in milliseconds, from a
/// `spade-store` snapshot) and then answers any number of
/// [`Spade::run_on`] requests against it concurrently — the state is
/// immutable, every online step takes `&Graph`/`&OfflineStats`, so sharing
/// it behind an `Arc` needs no locks.
pub struct OfflineState {
    /// The saturated graph.
    pub graph: Graph,
    /// Offline per-property statistics.
    pub stats: OfflineStats,
    /// Wall-clock cost of building this state (snapshot open + load, or
    /// saturation + analysis) — reported as
    /// [`StepTimings::snapshot_load`] by snapshot-backed runs.
    pub load_time: Duration,
    /// The validated snapshot this state was opened from, kept alive so a
    /// memory-mapped image stays addressable for the lifetime of the
    /// state (its resident pages are released right after load — holding
    /// it costs address space, not RSS) and is dropped — unmapped — with
    /// the state. `None` for graph-built and in-memory-image states.
    snapshot: Option<Snapshot>,
}

impl OfflineState {
    /// Loads the state from a snapshot file written by
    /// [`Spade::snapshot_ntriples`] (or `spade_store::write_snapshot`),
    /// memory-mapping the file by default (see [`OfflineState::open_with`]).
    pub fn open(
        path: impl AsRef<Path>,
        threads: usize,
    ) -> Result<OfflineState, SnapshotPipelineError> {
        Self::open_with(path, threads, OpenMode::default())
    }

    /// [`OfflineState::open`] with an explicit [`OpenMode`]. The opened
    /// snapshot is retained inside the state; in the default mapped mode
    /// its pages are released after materialization, so the state's
    /// steady-state memory is the in-memory graph alone — dropping the
    /// state (e.g. catalog eviction) unmaps the file and returns the RSS.
    pub fn open_with(
        path: impl AsRef<Path>,
        threads: usize,
        mode: OpenMode,
    ) -> Result<OfflineState, SnapshotPipelineError> {
        let t = Instant::now();
        let snapshot = Snapshot::open_with(path, threads, mode)?;
        let loaded = snapshot.load(threads)?;
        snapshot.release_resident_pages();
        let mut state = OfflineState::from_loaded(loaded, t.elapsed());
        state.snapshot = Some(snapshot);
        Ok(state)
    }

    /// [`OfflineState::open`] over an in-memory snapshot image.
    pub fn from_snapshot_bytes(
        bytes: &[u8],
        threads: usize,
    ) -> Result<OfflineState, SnapshotPipelineError> {
        let t = Instant::now();
        let loaded = Snapshot::from_bytes(bytes, threads)?.load(threads)?;
        Ok(OfflineState::from_loaded(loaded, t.elapsed()))
    }

    /// Builds the state directly from a graph (saturating it in place) —
    /// the snapshot-less path for tests and one-shot embedding.
    pub fn from_graph(mut graph: Graph, threads: usize) -> OfflineState {
        let t = Instant::now();
        spade_rdf::saturate_with_threads(&mut graph, threads);
        let stats = ExecCtx::unbounded(threads, |cx| offline::analyze_in(&graph, cx));
        OfflineState { graph, stats, load_time: t.elapsed(), snapshot: None }
    }

    fn from_loaded(loaded: LoadedSnapshot, load_time: Duration) -> OfflineState {
        let stats = offline::from_records(&loaded.graph, &loaded.stats);
        OfflineState { graph: loaded.graph, stats, load_time, snapshot: None }
    }

    /// Whether the retained snapshot is a live file mapping.
    pub fn is_mapped(&self) -> bool {
        self.snapshot.as_ref().is_some_and(Snapshot::is_mapped)
    }

    /// Bytes of the on-disk image backing this state (0 when none).
    pub fn image_len(&self) -> usize {
        self.snapshot.as_ref().map_or(0, Snapshot::image_len)
    }

    /// A deliberately simple upper-bound estimate of this state's resident
    /// memory, used by the serving catalog's eviction budget: the
    /// materialized graph is proportional to the snapshot payload (triples,
    /// index columns, dictionary text all reappear on the heap, hash-map
    /// overhead roughly offsetting columnar compactness), plus the image
    /// itself when it is heap-backed rather than mapped.
    pub fn resident_estimate(&self) -> u64 {
        let image = self.image_len() as u64;
        let heap = if self.snapshot.is_some() {
            image
        } else {
            // Graph-built states: approximate from triple count alone.
            (self.graph.len() as u64) * 48
        };
        heap + if self.is_mapped() { 0 } else { image }
    }
}

/// The Spade engine.
pub struct Spade {
    config: SpadeConfig,
    strategies: Vec<CfsStrategy>,
}

impl Spade {
    /// Creates an engine with the default CFS strategies (type-based +
    /// summary-based; property-based is opt-in since it needs user input).
    pub fn new(config: SpadeConfig) -> Self {
        Spade { config, strategies: vec![CfsStrategy::TypeBased, CfsStrategy::SummaryBased] }
    }

    /// Overrides the CFS selection strategies.
    pub fn with_strategies(mut self, strategies: Vec<CfsStrategy>) -> Self {
        self.strategies = strategies;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &SpadeConfig {
        &self.config
    }

    /// Parses `input` as N-Triples (parallel zero-copy ingestion) and runs
    /// the full pipeline, recording the parse in [`StepTimings::ingest`].
    pub fn run_ntriples(&self, input: &str) -> Result<SpadeReport, spade_rdf::NtParseError> {
        let t = Instant::now();
        let mut graph = spade_rdf::ingest(input, self.config.threads)?;
        let ingest = t.elapsed();
        let mut report = self.run(&mut graph);
        report.timings.ingest = ingest;
        report.timings.offline += ingest;
        Ok(report)
    }

    /// Runs the full pipeline on `graph` (saturated in place).
    pub fn run(&self, graph: &mut Graph) -> SpadeReport {
        let mut report = SpadeReport::default();
        let t = Instant::now();
        spade_rdf::saturate_with_threads(graph, self.config.threads);
        report.timings.saturation = t.elapsed();
        ExecCtx::unbounded(self.config.threads, |cx| {
            let t = Instant::now();
            let stats = offline::analyze_in(graph, cx)?;
            report.timings.offline_analysis = t.elapsed();
            self.run_analyzed(&self.config, graph, &stats, report, cx)
        })
    }

    /// Runs the **offline phase only** (ingestion, saturation, offline
    /// attribute analysis) on N-Triples text and writes the complete
    /// offline state to the snapshot file at `path`. A subsequent
    /// [`Spade::run_snapshot`] serves from that file without redoing any of
    /// it.
    pub fn snapshot_ntriples(
        &self,
        input: &str,
        path: impl AsRef<Path>,
    ) -> Result<(), SnapshotPipelineError> {
        let graph = spade_rdf::ingest(input, self.config.threads)?;
        let state = OfflineState::from_graph(graph, self.config.threads);
        spade_store::write_snapshot(path, &state.graph, &offline::to_records(&state.stats))?;
        Ok(())
    }

    /// Runs the pipeline from a snapshot file: the offline phase collapses
    /// to one zero-copy load ([`StepTimings::snapshot_load`]); saturation
    /// and attribute analysis are **not** re-run — their outputs come from
    /// the file. Equivalent to [`OfflineState::open`] +
    /// [`Spade::run_on`] with no overrides.
    pub fn run_snapshot(
        &self,
        path: impl AsRef<Path>,
    ) -> Result<SpadeReport, SnapshotPipelineError> {
        let state = OfflineState::open(path, self.config.threads)?;
        Ok(self.run_on(&state, &RequestConfig::default()))
    }

    /// [`Spade::run_snapshot`] over an in-memory snapshot image (e.g. one
    /// fetched from object storage instead of the filesystem).
    pub fn run_snapshot_bytes(
        &self,
        bytes: &[u8],
    ) -> Result<SpadeReport, SnapshotPipelineError> {
        let state = OfflineState::from_snapshot_bytes(bytes, self.config.threads)?;
        Ok(self.run_on(&state, &RequestConfig::default()))
    }

    /// The cheap **per-request** path of the load-once/serve-many split:
    /// runs the five online steps on an already-loaded [`OfflineState`]
    /// with `request`'s overrides resolved against this engine's base
    /// config. Takes `&self` and `&OfflineState` only — any number of
    /// `run_on` calls may execute concurrently against one shared state,
    /// and results are bit-identical across thread budgets and callers.
    pub fn run_on(&self, state: &OfflineState, request: &RequestConfig) -> SpadeReport {
        ExecCtx::unbounded(self.config.threads, |cx| self.run_on_in(state, request, cx))
    }

    /// [`Spade::run_on`] under an [`ExecCtx`] — the one body of the
    /// per-request path. `cx.threads` is the default thread count; a
    /// `request.threads` override replaces it.
    ///
    /// **Budget.** The per-request deadline/cancellation flag is polled by
    /// every long-running stage (CFS selection, enumeration, early-stop
    /// pruning, the cube engine's region-shard loop), so an expired or
    /// cancelled request unwinds with the typed [`Cancelled`] error in
    /// bounded time instead of running to completion. Budget checks only
    /// ever *abort* — they never reorder or skip work — so an `Ok` result
    /// is bit-identical to [`Spade::run_on`].
    ///
    /// **Tracing.** Under [`ExecCtx::traced`] every pipeline stage records
    /// a span into the trace (named exactly after the [`StepTimings`]
    /// online fields, plus `offline_analysis`), and the parallel fan-outs
    /// (per-CFS enumeration/evaluation, per lattice, per region shard)
    /// record index-ordered child spans — the span-tree **shape** is
    /// identical at every thread count. Tracing is observation only: the
    /// report is bit-identical with or without it.
    pub fn run_on_in(
        &self,
        state: &OfflineState,
        request: &RequestConfig,
        cx: &ExecCtx<'_>,
    ) -> Result<SpadeReport, Cancelled> {
        let config = request.apply(&self.config);
        let mut report = SpadeReport::default();
        report.timings.snapshot_load = state.load_time;
        let cx = cx.with_threads(request.threads.unwrap_or(cx.threads));
        self.run_analyzed(&config, &state.graph, &state.stats, report, &cx)
    }

    /// The shared tail of every entry point: derivation enumeration (the
    /// config-dependent rest of the offline phase) followed by the five
    /// online steps. `config` is the **effective** configuration — the
    /// engine's own for whole-pipeline runs, the request-resolved one for
    /// [`Spade::run_on`]; `report` carries whatever offline timings the
    /// caller already accumulated.
    ///
    /// Every step is timed through an [`ExecCtx::span`] ([`Span::finish`]
    /// measures even on a disabled context), so the [`StepTimings`] fields
    /// and the recorded trace are one and the same measurement. The thread
    /// count comes from `cx`, never from `config.threads`.
    ///
    /// [`Span::finish`]: spade_telemetry::Span::finish
    fn run_analyzed(
        &self,
        config: &SpadeConfig,
        graph: &Graph,
        stats: &OfflineStats,
        mut report: SpadeReport,
        cx: &ExecCtx<'_>,
    ) -> Result<SpadeReport, Cancelled> {
        let (span, _) = cx.span("offline_analysis");
        let (derived, derivation_counts) =
            offline::enumerate_derivations_in(graph, stats, config, cx)?;
        report.timings.offline_analysis += span.finish();
        report.timings.offline = report.timings.snapshot_load
            + report.timings.saturation
            + report.timings.offline_analysis;
        report.profile.triples = graph.len();
        report.profile.direct_properties = stats.property_count();
        report.profile.derivations = derivation_counts;

        // —— Step 1: CFS selection ——
        let (span, scx) = cx.span("cfs_selection");
        let cfs_list = select_in(graph, &self.strategies, config, &scx)?;
        span.attr("cfs", cfs_list.len() as u64);
        report.timings.cfs_selection = span.finish();
        report.profile.cfs_count = cfs_list.len();

        // —— Step 2: online attribute analysis (parallel per CFS) ——
        let (span, _) = cx.span("attribute_analysis");
        let graph_ref: &Graph = graph;
        let analyses: Vec<CfsAnalysis> =
            spade_parallel::try_map(cfs_list.iter().collect(), cx.threads, |cfs| {
                cx.check()?;
                Ok(analyze_cfs(graph_ref, cfs, &derived, config))
            })?;
        span.attr("cfs", analyses.len() as u64);
        report.timings.attribute_analysis = span.finish();

        // —— Step 3: aggregate enumeration (parallel per CFS; each CFS
        // fans its tidset construction out further — see
        // `enumeration::enumerate`) ——
        let (span, scx) = cx.span("enumeration");
        let (outer, inner) = scx.split(analyses.len());
        let lattice_specs: Vec<Vec<LatticeSpec>> =
            spade_parallel::try_map(analyses.iter().enumerate().collect(), outer, |(i, a)| {
                let (_cfs_span, ccx) = inner.span_at("cfs", i as u64);
                enumerate_in(a, config, &ccx)
            })?;
        report.timings.enumeration = span.finish();

        // —— Step 4: aggregate evaluation (parallel per CFS; each CFS fans
        // its lattices — and each lattice its region shards — out further,
        // see `evaluate::evaluate_cfs`). The thread budget is split across
        // the levels so the total worker count stays at `threads` instead
        // of `threads²`. ——
        let (span, scx) = cx.span("evaluation");
        let (outer, inner) = scx.split(analyses.len());
        let evaluations: Vec<_> = spade_parallel::try_map(
            analyses.iter().zip(&lattice_specs).enumerate().collect(),
            outer,
            |(i, (analysis, lattices))| {
                let (cfs_span, ccx) = inner.span_at("cfs", i as u64);
                cfs_span.attr("lattices", lattices.len() as u64);
                evaluate_cfs_in(analysis, lattices, config, &ccx)
            },
        )?;
        report.timings.evaluation = span.finish();
        for e in &evaluations {
            report.profile.aggregates += e.enumerated_aggregates;
            report.evaluated_aggregates += e.evaluated_aggregates;
            report.pruned_by_es += e.pruned_by_es;
        }

        // —— Step 5: top-k (parallel per lattice result) ——
        let (span, _) = cx.span("topk");
        // Score first with a light record that borrows its label from the
        // result; only the k winners get their label cloned and their
        // display details (dimension names, group samples) materialized.
        // Scoring fans out over the per-lattice results and the ranking is
        // a total order — `(score, cfs, label, id)`, then lattice for
        // aggregates of different lattices that tie on all four — so the
        // winners are identical for every thread count.
        struct Scored<'r> {
            cfs_idx: usize,
            lattice_idx: usize,
            id: spade_cube::arm::AggregateId,
            label: &'r str,
            score: f64,
            groups: usize,
        }
        let score_inputs: Vec<(usize, usize, &spade_cube::CubeResult)> = evaluations
            .iter()
            .enumerate()
            .flat_map(|(cfs_idx, evaluation)| {
                evaluation
                    .results
                    .iter()
                    .enumerate()
                    .map(move |(lattice_idx, result)| (cfs_idx, lattice_idx, result))
            })
            .collect();
        let per_result: Vec<Vec<Scored<'_>>> = spade_parallel::try_map(
            score_inputs,
            cx.threads,
            |(cfs_idx, lattice_idx, result)| {
                cx.check()?;
                let mut scored = Vec::new();
                score_aggregates(result, config.interestingness, |id, score, groups| {
                    if score > 0.0 {
                        let label = result.mda_labels[id.mda].as_str();
                        scored.push(Scored { cfs_idx, lattice_idx, id, label, score, groups });
                    }
                });
                Ok(scored)
            },
        )?;
        let mut scored: Vec<Scored<'_>> = per_result.into_iter().flatten().collect();
        scored.sort_unstable_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then_with(|| a.cfs_idx.cmp(&b.cfs_idx))
                .then_with(|| a.label.cmp(b.label))
                .then_with(|| a.id.cmp(&b.id))
                .then_with(|| a.lattice_idx.cmp(&b.lattice_idx))
        });
        scored.truncate(config.k);
        report.top = scored
            .into_iter()
            .map(|s| {
                let analysis = &analyses[s.cfs_idx];
                let lattice_spec = &lattice_specs[s.cfs_idx][s.lattice_idx];
                let result = &evaluations[s.cfs_idx].results[s.lattice_idx];
                let node = result.node(s.id.node_mask).expect("scored node exists");
                TopAggregate {
                    cfs: analysis.name.clone(),
                    dims: node
                        .dims
                        .iter()
                        .map(|&pos| {
                            analysis.attributes[lattice_spec.dims[pos]].def.name.clone()
                        })
                        .collect(),
                    mda: s.label.to_owned(),
                    score: s.score,
                    groups: s.groups,
                    sample_groups: sample_groups(analysis, lattice_spec, node, s.id.mda),
                }
            })
            .collect();
        report.timings.topk = span.finish();
        Ok(report)
    }
}

/// Renders up to twelve groups of a node's MDA for display.
fn sample_groups(
    analysis: &CfsAnalysis,
    lattice_spec: &LatticeSpec,
    node: &spade_cube::NodeResult,
    mda: usize,
) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = node
        .visible_groups()
        .filter_map(|(key, values)| {
            let v = values[mda]?;
            let label = key
                .iter()
                .enumerate()
                .map(|(pos, &code)| {
                    if code == NULL_CODE {
                        "null".to_owned()
                    } else {
                        let attr = lattice_spec.dims[node.dims[pos]];
                        analysis.attributes[attr]
                            .categorical
                            .as_ref()
                            .map(|c| c.label(code).to_owned())
                            .unwrap_or_else(|| code.to_string())
                    }
                })
                .collect::<Vec<_>>()
                .join(", ");
            Some((label, v))
        })
        .collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    out.truncate(12);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spade_datagen::{ceos_figure1, realistic, RealisticConfig};

    #[test]
    fn end_to_end_on_simulated_ceos() {
        let mut g = realistic::ceos(&RealisticConfig { scale: 300, seed: 2 });
        let config = SpadeConfig { k: 5, min_support: 0.3, ..Default::default() };
        let report = Spade::new(config).run(&mut g);
        assert!(report.profile.cfs_count > 0);
        assert!(report.profile.direct_properties >= 8);
        assert!(report.profile.derivations.total() > 0);
        assert!(report.profile.aggregates > 10);
        assert_eq!(report.top.len(), 5);
        for w in report.top.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        // The Angolan netWorth outlier story must rank at the very top for
        // variance on this graph.
        assert!(
            report.top.iter().take(3).any(|t| t.mda.contains("netWorth")),
            "top-3: {:?}",
            report.top.iter().map(TopAggregate::description).collect::<Vec<_>>()
        );
    }

    #[test]
    fn early_stop_preserves_strong_winners() {
        let mut g1 = realistic::ceos(&RealisticConfig { scale: 300, seed: 2 });
        let mut g2 = realistic::ceos(&RealisticConfig { scale: 300, seed: 2 });
        let base = SpadeConfig { k: 3, min_support: 0.3, ..Default::default() };
        let full = Spade::new(base.clone()).run(&mut g1);
        let es = Spade::new(base.with_early_stop()).run(&mut g2);
        assert!(es.pruned_by_es > 0);
        assert!(es.evaluated_aggregates < full.evaluated_aggregates);
        // Accuracy on the clear-cut winner: the top-1 aggregate survives.
        assert_eq!(full.top[0].description(), es.top[0].description());
    }

    #[test]
    fn figure1_graph_yields_example_aggregates() {
        let mut g = ceos_figure1();
        let config = SpadeConfig {
            k: 20,
            min_cfs_size: 2,
            min_support: 0.4,
            max_distinct_ratio: 5.0,
            ..Default::default()
        };
        let report = Spade::new(config).run(&mut g);
        // Derived dimensions (paths like politicalConnection/role, counts
        // like numOf(company)) must appear among the top aggregates — the
        // graph is tiny, so ties decide which specific one surfaces.
        assert!(
            report
                .top
                .iter()
                .any(|t| t.dims.iter().any(|d| d.contains('/') || d.starts_with("numOf"))),
            "top: {:?}",
            report.top.iter().map(TopAggregate::description).collect::<Vec<_>>()
        );
    }

    #[test]
    fn derivations_increase_aggregate_count() {
        // Experiment 1 (R1): derivations increase the number of MDAs.
        let mut g1 = realistic::ceos(&RealisticConfig { scale: 200, seed: 4 });
        let mut g2 = realistic::ceos(&RealisticConfig { scale: 200, seed: 4 });
        let base = SpadeConfig { min_support: 0.3, ..Default::default() };
        let wod = Spade::new(base.clone().without_derivations()).run(&mut g1);
        let wd = Spade::new(base).run(&mut g2);
        assert!(wd.profile.aggregates > wod.profile.aggregates);
        assert_eq!(wod.profile.derivations.total(), 0);
    }

    #[test]
    fn timings_are_recorded() {
        let mut g = realistic::nasa(&RealisticConfig { scale: 150, seed: 3 });
        let report =
            Spade::new(SpadeConfig { min_support: 0.3, ..Default::default() }).run(&mut g);
        assert!(report.timings.online_total() > Duration::ZERO);
        assert!(report.timings.evaluation > Duration::ZERO);
        // Offline splits: no ingestion happened, and the offline total is
        // exactly its recorded parts.
        assert_eq!(report.timings.ingest, Duration::ZERO);
        assert_eq!(
            report.timings.offline,
            report.timings.saturation + report.timings.offline_analysis
        );
    }

    #[test]
    fn run_ntriples_records_ingest_split() {
        let g = realistic::ceos(&RealisticConfig { scale: 100, seed: 5 });
        let nt = spade_rdf::write_ntriples(&g);
        let spade = Spade::new(SpadeConfig { min_support: 0.3, ..Default::default() });
        let report = spade.run_ntriples(&nt).expect("valid N-Triples");
        assert!(report.timings.ingest > Duration::ZERO);
        assert_eq!(
            report.timings.offline,
            report.timings.ingest + report.timings.saturation + report.timings.offline_analysis
        );
        assert!(report.profile.triples > 0);
        // Same pipeline on the pre-built graph agrees on the profile.
        let mut g2 = realistic::ceos(&RealisticConfig { scale: 100, seed: 5 });
        let direct = spade.run(&mut g2);
        assert_eq!(report.profile.triples, direct.profile.triples);
        assert_eq!(report.profile.cfs_count, direct.profile.cfs_count);
        assert!(spade.run_ntriples("broken\n").is_err());
    }

    #[test]
    fn run_on_shared_state_matches_whole_pipeline_run() {
        let g = realistic::ceos(&RealisticConfig { scale: 200, seed: 2 });
        let config = SpadeConfig { k: 5, min_support: 0.3, ..Default::default() };
        let spade = Spade::new(config.clone());
        let state = OfflineState::from_graph(g, config.threads);
        let served = spade.run_on(&state, &RequestConfig::default());
        let mut g2 = realistic::ceos(&RealisticConfig { scale: 200, seed: 2 });
        let direct = Spade::new(config).run(&mut g2);
        // Identical results (compared through the deterministic JSON body),
        // and repeat requests against the same state are byte-identical.
        assert_eq!(served.to_json(false), direct.to_json(false));
        let again = spade.run_on(&state, &RequestConfig::default());
        assert_eq!(served.to_json(false), again.to_json(false));
    }

    #[test]
    fn run_on_applies_request_overrides() {
        let g = realistic::ceos(&RealisticConfig { scale: 200, seed: 2 });
        let base = SpadeConfig { k: 5, min_support: 0.3, ..Default::default() };
        let spade = Spade::new(base);
        let state = OfflineState::from_graph(g, 0);
        let full = spade.run_on(&state, &RequestConfig::default());
        assert_eq!(full.top.len(), 5);

        // k override shrinks the answer to a prefix of the full one.
        let k2 = spade.run_on(&state, &RequestConfig { k: Some(2), ..Default::default() });
        assert_eq!(k2.top.len(), 2);
        for (a, b) in k2.top.iter().zip(&full.top) {
            assert_eq!(a.description(), b.description());
        }

        // CFS filter: every reported aggregate analyzes a matching CFS, and
        // unfiltered profiles see more CFSs.
        let ceo = spade.run_on(
            &state,
            &RequestConfig { cfs_filter: vec!["type:CEO".into()], ..Default::default() },
        );
        assert!(ceo.profile.cfs_count >= 1);
        assert!(ceo.profile.cfs_count < full.profile.cfs_count);
        assert!(ceo.top.iter().all(|t| t.cfs.contains("type:CEO")), "filtered CFSs only");

        // Measure filter: only count(*) and matching measures survive.
        let nw = spade.run_on(
            &state,
            &RequestConfig { measure_filter: vec!["netWorth".into()], ..Default::default() },
        );
        assert!(!nw.top.is_empty());
        assert!(
            nw.top.iter().all(|t| t.mda.contains("netWorth") || t.mda == "count(*)"),
            "top: {:?}",
            nw.top.iter().map(TopAggregate::description).collect::<Vec<_>>()
        );
        assert!(nw.profile.aggregates < full.profile.aggregates);

        // Interestingness override is honored.
        let skew = spade.run_on(
            &state,
            &RequestConfig {
                interestingness: Some(spade_stats::Interestingness::Skewness),
                ..Default::default()
            },
        );
        assert!(!skew.top.is_empty());

        // Thread budget is a pure latency knob: bit-identical bodies.
        for threads in [1usize, 2, 8] {
            let r = spade.run_on(
                &state,
                &RequestConfig { threads: Some(threads), ..Default::default() },
            );
            assert_eq!(r.to_json(false), full.to_json(false), "threads={threads}");
        }
    }

    #[test]
    fn report_json_shape() {
        let g = realistic::ceos(&RealisticConfig { scale: 150, seed: 3 });
        let spade = Spade::new(SpadeConfig { k: 3, min_support: 0.3, ..Default::default() });
        let state = OfflineState::from_graph(g, 0);
        let report = spade.run_on(&state, &RequestConfig::default());
        let body = report.to_json(false);
        let parsed = crate::json::parse(&body).expect("body is valid JSON");
        assert_eq!(
            parsed.get("profile").and_then(|p| p.get("triples")).and_then(|v| v.as_usize()),
            Some(report.profile.triples)
        );
        assert_eq!(
            parsed.get("top").and_then(|t| t.as_array()).map(<[_]>::len),
            Some(report.top.len())
        );
        assert!(body.find("\"timings_ms\"").is_none());
        let with_timings = report.to_json(true);
        let parsed = crate::json::parse(&with_timings).expect("timed body is valid JSON");
        assert!(parsed.get("timings_ms").is_some());
    }

    #[test]
    fn description_format() {
        let t = TopAggregate {
            cfs: "type:CEO".into(),
            dims: vec!["nationality".into(), "gender".into()],
            mda: "sum(netWorth)".into(),
            score: 1.0,
            groups: 4,
            sample_groups: vec![],
        };
        assert_eq!(t.description(), "sum(netWorth) of type:CEO by nationality, gender");
    }
}
