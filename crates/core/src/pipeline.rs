//! The end-to-end Spade pipeline (Figure 2).
//!
//! The offline phase (RDFS saturation, offline attribute analysis) builds
//! an [`OfflineState`] once per graph, from a graph
//! ([`OfflineState::from_graph`]) or a snapshot file
//! ([`OfflineState::open`]). [`Spade::run_on`] then runs derived-property
//! enumeration and the five online steps on it, timing each one — the
//! instrumentation behind Figure 11 — and returns a [`SpadeReport`] with the
//! dataset profile (Table 2's columns), the per-step timings, and the global
//! top-k aggregates.

use crate::analysis::{analyze_cfs, CfsAnalysis};
use crate::cfs::{select_in, CfsStrategy};
use crate::config::{RequestConfig, SpadeConfig};
use crate::enumeration::{enumerate_in, LatticeSpec};
use crate::evaluate::{evaluate_cfs_in, AggregateCounts};
use crate::json::JsonWriter;
use crate::offline::{self, DerivationCounts, OfflineStats};
use spade_cube::arm::{score_aggregates, AggregateId};
use spade_cube::{CubeResult, ExecCtx, NodeResult};
use spade_parallel::Cancelled;
use spade_rdf::{Graph, NtParseError};
use spade_stats::Interestingness;
use spade_store::{Snapshot, SnapshotError};
use spade_telemetry::Trace;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Wall-clock duration of each step of one request (Figure 11's bar
/// segments). What the state cost to build is its own
/// [`OfflineState::load_time`], paid once, not per request.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepTimings {
    /// Derived-property enumeration, the request-dependent rest of the
    /// offline analysis.
    pub offline_analysis: Duration,
    /// Step 1 — Candidate Fact Set Selection.
    pub cfs_selection: Duration,
    /// Step 2 — Online Attribute Analysis.
    pub attribute_analysis: Duration,
    /// Step 3 — Aggregate Enumeration.
    pub enumeration: Duration,
    /// Step 4 — Aggregate Evaluation, with the scoring of each finished
    /// lattice and its fold into the top-k (Step 5's ranking).
    pub evaluation: Duration,
    /// Step 5 — Top-k Computation: what is left once the fold has ranked
    /// every aggregate, the winners' display details.
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
            w.key("offline_analysis").f64(ms(self.timings.offline_analysis));
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
    /// Wall-clock cost of building this state, paid once: snapshot open +
    /// load for [`OfflineState::open`], saturation + offline analysis for
    /// [`OfflineState::from_graph`]. The daemon reports it as `load_ms`.
    pub load_time: Duration,
    /// The validated snapshot this state was opened from, kept alive so a
    /// memory-mapped image stays addressable for the lifetime of the
    /// state (its resident pages are released right after load — holding
    /// it costs address space, not RSS) and is dropped — unmapped — with
    /// the state. `None` for graph-built states.
    snapshot: Option<Snapshot>,
}

impl OfflineState {
    /// Loads the state from a snapshot file written by
    /// [`Spade::snapshot_ntriples`] (or `spade_store::write_snapshot`),
    /// memory-mapping the file. The snapshot is retained inside the state
    /// with its pages released after materialization, so the state's
    /// steady-state memory is the in-memory graph alone — dropping the
    /// state (e.g. catalog eviction) unmaps the file and returns the RSS.
    pub fn open(
        path: impl AsRef<Path>,
        threads: usize,
    ) -> Result<OfflineState, SnapshotPipelineError> {
        let t = Instant::now();
        let snapshot = Snapshot::open(path, threads)?;
        let loaded = snapshot.load(threads)?;
        snapshot.release_resident_pages();
        Ok(OfflineState {
            graph: loaded.graph,
            stats: offline::from_records(&loaded.stats),
            load_time: t.elapsed(),
            snapshot: Some(snapshot),
        })
    }

    /// Builds the state directly from a graph (saturating it in place) —
    /// the snapshot-less path for tests and one-shot embedding.
    pub fn from_graph(mut graph: Graph, threads: usize) -> OfflineState {
        let t = Instant::now();
        spade_rdf::saturate_with_threads(&mut graph, threads);
        let stats = ExecCtx::unbounded(threads, |cx| offline::analyze_in(&graph, cx));
        OfflineState { graph, stats, load_time: t.elapsed(), snapshot: None }
    }

    /// Whether the retained snapshot is a live file mapping.
    pub(crate) fn is_mapped(&self) -> bool {
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

/// The CFS selection strategies every run uses (Section 3, Step 1 (i) and
/// (iii)).
const STRATEGIES: [CfsStrategy; 2] = [CfsStrategy::TypeBased, CfsStrategy::SummaryBased];

/// The Spade engine.
pub struct Spade {
    config: SpadeConfig,
}

impl Spade {
    /// Creates an engine.
    pub fn new(config: SpadeConfig) -> Self {
        Spade { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &SpadeConfig {
        &self.config
    }

    /// Runs the **offline phase only** (ingestion, saturation, offline
    /// attribute analysis) on N-Triples text and writes the complete
    /// offline state to the snapshot file at `path`. [`OfflineState::open`]
    /// loads it back without redoing any of it.
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
    /// fields), and the parallel fan-outs (per-CFS enumeration/evaluation,
    /// per lattice, per region shard) record index-ordered child spans —
    /// the span-tree **shape** is identical at every thread count. Tracing
    /// is observation only: the report is bit-identical with or without
    /// it.
    ///
    /// Every step is timed through an [`ExecCtx::span`] ([`Span::finish`]
    /// measures even on a disabled context), so the [`StepTimings`] fields
    /// and the recorded trace are one and the same measurement. The thread
    /// count comes from `cx`, never from the config's `threads`.
    ///
    /// [`Span::finish`]: spade_telemetry::Span::finish
    pub fn run_on_in(
        &self,
        state: &OfflineState,
        request: &RequestConfig,
        cx: &ExecCtx<'_>,
    ) -> Result<SpadeReport, Cancelled> {
        let config = &request.apply(&self.config);
        let cx = &cx.with_threads(request.threads.unwrap_or(cx.threads));
        let (graph, stats) = (&state.graph, &state.stats);
        let mut report = SpadeReport::default();

        // —— derived-property enumeration, the config-dependent rest of
        // the offline analysis ——
        let (span, _) = cx.span("offline_analysis");
        let (derived, derivation_counts) =
            offline::enumerate_derivations_in(graph, stats, config, cx)?;
        report.timings.offline_analysis = span.finish();
        report.profile.triples = graph.len();
        report.profile.direct_properties = stats.property_count();
        report.profile.derivations = derivation_counts;

        // —— Step 1: CFS selection ——
        let (span, scx) = cx.span("cfs_selection");
        let cfs_list = select_in(graph, &STRATEGIES, config, &scx)?;
        span.attr("cfs", cfs_list.len() as u64);
        report.timings.cfs_selection = span.finish();
        report.profile.cfs_count = cfs_list.len();

        // —— Step 2: online attribute analysis (parallel per CFS) ——
        let (span, _) = cx.span("attribute_analysis");
        let analyses: Vec<CfsAnalysis> =
            spade_parallel::try_map(cfs_list.iter().collect(), cx.threads, |cfs| {
                cx.check()?;
                Ok(analyze_cfs(graph, cfs, &derived, config))
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
        // see `evaluate::evaluate_cfs_in`). The thread budget is split
        // across the levels so the total worker count stays at `threads`
        // instead of `threads²`. Each finished lattice is scored on the
        // worker that evaluated it and folded into the request's top-k
        // right away (the ARM's one pass, see `spade_cube::arm`), so a
        // lattice's result is dropped when it has been scored, except the
        // nodes a current winner points into. ——
        let (span, scx) = cx.span("evaluation");
        let (outer, inner) = scx.split(analyses.len());
        let top = Mutex::new(TopK { k: config.k, heap: BinaryHeap::new() });
        let counts: Vec<AggregateCounts> = spade_parallel::try_map(
            analyses.iter().zip(&lattice_specs).enumerate().collect(),
            outer,
            |(cfs_idx, (analysis, lattices))| {
                let (cfs_span, ccx) = inner.span_at("cfs", cfs_idx as u64);
                cfs_span.attr("lattices", lattices.len() as u64);
                evaluate_cfs_in(analysis, lattices, config, &ccx, |lattice_idx, result| {
                    fold_lattice(&top, config.interestingness, cfs_idx, lattice_idx, result);
                })
            },
        )?;
        report.timings.evaluation = span.finish();
        for c in &counts {
            report.profile.aggregates += c.enumerated;
            report.evaluated_aggregates += c.evaluated;
            report.pruned_by_es += c.pruned_by_es;
        }

        // —— Step 5: top-k. The fold above ranked every positive-score
        // aggregate; what is left is the winners' display details
        // (dimension names, group samples), best first. ——
        let (span, _) = cx.span("topk");
        let top = top.into_inner().unwrap_or_else(PoisonError::into_inner);
        report.top = top
            .heap
            .into_sorted_vec()
            .into_iter()
            .map(|w| {
                let analysis = &analyses[w.cfs_idx];
                let lattice_dims = &lattice_specs[w.cfs_idx][w.lattice_idx].dims;
                let attr = |dim: usize| &analysis.attributes[lattice_dims[dim]];
                let dims = w.node.dims.iter().map(|&dim| attr(dim).def.name.clone()).collect();
                let sample_groups = sample_groups(&w.node, w.id.mda, |dim, code| {
                    attr(dim).categorical.as_ref().expect("dimension column").label(code)
                });
                let (mda, score, groups) = (w.label, w.score, w.groups);
                TopAggregate {
                    cfs: analysis.name.clone(),
                    dims,
                    mda,
                    score,
                    groups,
                    sample_groups,
                }
            })
            .collect();
        report.timings.topk = span.finish();
        Ok(report)
    }
}

/// Where an aggregate ranks in Step 5's order: score descending, then CFS,
/// MDA label, aggregate id and lattice ascending. The order is total — no
/// two aggregates of a request share `(cfs, lattice, id)` — so the top-k
/// does not depend on the order lattices finish in, hence not on the
/// thread count.
struct Rank<'a> {
    score: f64,
    cfs_idx: usize,
    label: &'a str,
    id: AggregateId,
    lattice_idx: usize,
}

impl Rank<'_> {
    /// `Less` when `self` ranks before (is better than) `other`.
    fn cmp(&self, other: &Rank<'_>) -> Ordering {
        other
            .score
            .total_cmp(&self.score)
            .then_with(|| self.cfs_idx.cmp(&other.cfs_idx))
            .then_with(|| self.label.cmp(other.label))
            .then_with(|| self.id.cmp(&other.id))
            .then_with(|| self.lattice_idx.cmp(&other.lattice_idx))
    }
}

/// One of the request's current top-k aggregates, with the node its groups
/// are rendered from (shared by the winners of one node).
struct Winner {
    score: f64,
    cfs_idx: usize,
    label: String,
    id: AggregateId,
    lattice_idx: usize,
    groups: usize,
    node: Arc<NodeResult>,
}

impl Winner {
    fn rank(&self) -> Rank<'_> {
        Rank {
            score: self.score,
            cfs_idx: self.cfs_idx,
            label: &self.label,
            id: self.id,
            lattice_idx: self.lattice_idx,
        }
    }
}

/// Ordered by [`Rank`]: the greatest winner is the worst.
impl Ord for Winner {
    fn cmp(&self, other: &Self) -> Ordering {
        self.rank().cmp(&other.rank())
    }
}

impl PartialOrd for Winner {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Winner {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Winner {}

/// The k best aggregates seen so far. The heap's top is the worst of them,
/// the one a better aggregate displaces once `k` are held. Nothing is sized
/// by `k`, which a request sets to anything up to `usize::MAX`.
struct TopK {
    k: usize,
    heap: BinaryHeap<Winner>,
}

impl TopK {
    /// Whether an aggregate ranked `rank` is among the k best seen so far.
    fn admits(&self, rank: &Rank<'_>) -> bool {
        self.heap.len() < self.k
            || self.heap.peek().is_some_and(|worst| rank.cmp(&worst.rank()).is_lt())
    }

    fn push(&mut self, winner: Winner) {
        if self.heap.len() == self.k {
            self.heap.pop();
        }
        self.heap.push(winner);
    }
}

/// Scores one finished lattice with `h` and folds its positive-score
/// aggregates into `top`. A node a new winner points into moves out of the
/// result into an [`Arc`]; the rest of the result is dropped on return.
fn fold_lattice(
    top: &Mutex<TopK>,
    h: Interestingness,
    cfs_idx: usize,
    lattice_idx: usize,
    result: CubeResult,
) {
    let mut scored = Vec::new();
    score_aggregates(&result, h, |id, score, groups| {
        if score > 0.0 {
            scored.push((id, score, groups));
        }
    });
    let CubeResult { mda_labels, mut nodes } = result;
    let mut held: HashMap<u32, Arc<NodeResult>> = HashMap::new();
    let mut top = top.lock().unwrap_or_else(PoisonError::into_inner);
    for (id, score, groups) in scored {
        let rank = Rank { score, cfs_idx, label: &mda_labels[id.mda], id, lattice_idx };
        if !top.admits(&rank) {
            continue;
        }
        let node = held.entry(id.node_mask).or_insert_with(|| {
            Arc::new(nodes.remove(&id.node_mask).expect("scored node exists"))
        });
        let (label, node) = (rank.label.to_owned(), Arc::clone(node));
        top.push(Winner { score, cfs_idx, label, id, lattice_idx, groups, node });
    }
}

/// Renders up to twelve groups of a node's MDA for display: the largest
/// values first, equal values by label ascending. Only visible groups (no
/// null on any dimension) with a value for the MDA are shown. `label(dim,
/// code)` names value `code` of lattice dimension `dim`; a group's label
/// joins its dimensions' with `", "`.
fn sample_groups<'a>(
    node: &NodeResult,
    mda: usize,
    label: impl Fn(usize, u32) -> &'a str,
) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = node
        .visible_groups()
        .filter_map(|(key, values)| {
            let v = values[mda]?;
            let names: Vec<&str> =
                key.iter().zip(&node.dims).map(|(&code, &dim)| label(dim, code)).collect();
            Some((names.join(", "), v))
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
        let g = realistic::ceos(&RealisticConfig { scale: 300, seed: 2 });
        let config = SpadeConfig { k: 5, min_support: 0.3, ..Default::default() };
        let report = Spade::new(config)
            .run_on(&OfflineState::from_graph(g, 0), &RequestConfig::default());
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
        let g = realistic::ceos(&RealisticConfig { scale: 300, seed: 2 });
        let state = OfflineState::from_graph(g, 0);
        let base = SpadeConfig { k: 3, min_support: 0.3, ..Default::default() };
        let full = Spade::new(base.clone()).run_on(&state, &RequestConfig::default());
        let es = Spade::new(base.with_early_stop()).run_on(&state, &RequestConfig::default());
        assert!(es.pruned_by_es > 0);
        assert!(es.evaluated_aggregates < full.evaluated_aggregates);
        // Accuracy on the clear-cut winner: the top-1 aggregate survives.
        assert_eq!(full.top[0].description(), es.top[0].description());
    }

    #[test]
    fn figure1_graph_yields_example_aggregates() {
        let config = SpadeConfig {
            k: 20,
            min_cfs_size: 2,
            min_support: 0.4,
            max_distinct_ratio: 5.0,
            ..Default::default()
        };
        let state = OfflineState::from_graph(ceos_figure1(), 0);
        let report = Spade::new(config).run_on(&state, &RequestConfig::default());
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
        let g = realistic::ceos(&RealisticConfig { scale: 200, seed: 4 });
        let state = OfflineState::from_graph(g, 0);
        let base = SpadeConfig { min_support: 0.3, ..Default::default() };
        let wod = Spade::new(base.clone().without_derivations())
            .run_on(&state, &RequestConfig::default());
        let wd = Spade::new(base).run_on(&state, &RequestConfig::default());
        assert!(wd.profile.aggregates > wod.profile.aggregates);
        assert_eq!(wod.profile.derivations.total(), 0);
    }

    #[test]
    fn timings_are_recorded() {
        let g = realistic::nasa(&RealisticConfig { scale: 150, seed: 3 });
        let state = OfflineState::from_graph(g, 0);
        let report = Spade::new(SpadeConfig { min_support: 0.3, ..Default::default() })
            .run_on(&state, &RequestConfig::default());
        assert!(report.timings.online_total() > Duration::ZERO);
        assert!(report.timings.evaluation > Duration::ZERO);
        // Saturation and offline analysis were paid once, by the state.
        assert!(state.load_time > Duration::ZERO);
    }

    #[test]
    fn run_on_is_repeatable_across_states() {
        let config = SpadeConfig { k: 5, min_support: 0.3, ..Default::default() };
        let spade = Spade::new(config.clone());
        let data = RealisticConfig { scale: 200, seed: 2 };
        let state = OfflineState::from_graph(realistic::ceos(&data), config.threads);
        let served = spade.run_on(&state, &RequestConfig::default());
        // A state built on one thread answers the same bytes (compared
        // through the deterministic JSON body), and repeat requests against
        // one state are byte-identical.
        let serial = OfflineState::from_graph(realistic::ceos(&data), 1);
        assert_eq!(
            served.to_json(false),
            spade.run_on(&serial, &RequestConfig::default()).to_json(false)
        );
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

    /// Step 5's ranking is a total order: among equal scores of one CFS
    /// the MDA label decides, ascending. `m1` and `m2` carry the same
    /// values, so each aggregate of one ties with its twin of the other.
    #[test]
    fn equal_scores_of_one_cfs_rank_by_label() {
        use spade_rdf::{vocab, Term};
        let mut g = Graph::new();
        for i in 0..20 {
            let node = Term::iri(format!("http://x/n{i}"));
            let value = Term::num(i as f64 * 1.5 + if i < 10 { 0.0 } else { 100.0 });
            g.insert(node.clone(), Term::iri(vocab::RDF_TYPE), Term::iri("http://x/T"));
            g.insert(node.clone(), Term::iri("http://x/d"), Term::lit(["a", "b"][i / 10]));
            g.insert(node.clone(), Term::iri("http://x/m1"), value.clone());
            g.insert(node, Term::iri("http://x/m2"), value);
        }
        let config = SpadeConfig { k: usize::MAX, min_cfs_size: 1, ..Default::default() }
            .without_derivations();
        let report = Spade::new(config)
            .run_on(&OfflineState::from_graph(g, 1), &RequestConfig::default());
        let ties: Vec<_> = report
            .top
            .windows(2)
            .filter(|w| {
                w[0].score == w[1].score && w[0].cfs == w[1].cfs && w[0].mda != w[1].mda
            })
            .collect();
        assert!(!ties.is_empty(), "the twins tie");
        for w in ties {
            assert!(
                w[0].mda < w[1].mda,
                "{} ranked before {}",
                w[0].description(),
                w[1].description()
            );
        }
    }

    /// Figure 6's group preview: twelve visible groups with a value for the
    /// MDA, the largest value first, equal values by label ascending. A
    /// group keyed by a null, or without a value for the MDA, is not shown:
    /// here the null group has the largest value, and a missing value read
    /// as 0 would rank fifth.
    #[test]
    fn sample_groups_keeps_twelve_visible_by_value_then_label() {
        use spade_cube::result::NULL_CODE;
        let labels = ["k", "c", "a", "b", "m", "n", "o", "p", "q", "r", "s", "t", "u", "v"];
        let values = [
            Some(9.0),
            Some(5.0),
            Some(5.0),
            Some(5.0),
            None,
            Some(-1.0),
            Some(-2.0),
            Some(-3.0),
            Some(-4.0),
            Some(-5.0),
            Some(-6.0),
            Some(-7.0),
            Some(-8.0),
            Some(-9.0),
        ];
        // The groups are shown for MDA 1; MDA 0 ranks them by code instead.
        let groups = (0..labels.len() as u32)
            .map(|code| (vec![code], vec![Some(code as f64), values[code as usize]]))
            .chain([(vec![NULL_CODE], vec![Some(0.0), Some(100.0)])]);
        let node = NodeResult::from_groups(0b1, &[labels.len() as u32 + 1], 2, groups);
        assert!(node.visible_group_count() > 12);
        let label = |dim: usize, code: u32| {
            assert_eq!(dim, 0);
            labels.get(code as usize).copied().unwrap_or("null")
        };
        let shown = sample_groups(&node, 1, label);
        let expected = [
            ("k", 9.0),
            ("a", 5.0),
            ("b", 5.0),
            ("c", 5.0),
            ("n", -1.0),
            ("o", -2.0),
            ("p", -3.0),
            ("q", -4.0),
            ("r", -5.0),
            ("s", -6.0),
            ("t", -7.0),
            ("u", -8.0),
        ];
        let expected: Vec<(String, f64)> =
            expected.iter().map(|&(g, v)| (g.to_owned(), v)).collect();
        assert_eq!(shown, expected);
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
