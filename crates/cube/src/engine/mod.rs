//! The one-pass lattice evaluation engine: a region-sharded cascade over
//! bitmap cells.
//!
//! This is MVDCube's evaluation (Algorithm 1): ArrayCube's one-pass MMST
//! cascade with one change — a cube cell holds the **set of facts** it
//! groups (a [`spade_bitmap::Bitmap`]: sorted-array chunks, bitsets where
//! dense) instead of a partial aggregate. A parent cell combines into a child cell by set union, which
//! consolidates a multi-valued fact that occupies several parent cells into
//! one child membership (the correctness fix of Section 4.2), and measures
//! are joined in only when a region is complete. The module tree: [`geometry`]
//! (per-node array geometry and projections), [`store`] (flat dense/sparse
//! region storage and batched fan-in unions), [`shard`] (the shard plan and
//! per-shard cascade), and [`emit`] (the bitmap-to-CSR measure join,
//! cross-shard merge and parallel emit).
//!
//! ## Shard lifecycle (intra-lattice parallelism)
//!
//! Cube memory is keyed by *(MMST node, region)*, where a node's region is
//! the projection of partition (chunk) coordinates onto its dimensions, and
//! there is **no cross-region data flow within a node** — a parent region
//! feeds exactly one region of each child. One evaluation therefore runs as
//! a fan-out over *region shards*:
//!
//! 1. **Plan** ([`shard::plan_shards`]): the translation's cell stream is
//!    cut into contiguous shards of roughly equal weight (cell count plus
//!    fact cardinality). The auto plan targets a few shards per resolved
//!    worker — one worker plans exactly one shard, so a serial run pays no
//!    decomposition tax; `shard_weight` pins an exact granularity instead.
//! 2. **Cascade** ([`shard::run_shard`], fanned out on
//!    [`spade_parallel::try_map`]): each shard replays the serial engine's
//!    flush cascade over its slice with shard-local partition counters,
//!    *parking* each completed region's sorted cell list instead of
//!    emitting measures. A single-shard plan skips parking entirely and
//!    emits at flush time ([`shard::run_shard_emit`]), keeping the serial
//!    engine's `O(in-flight regions)` memory profile.
//! 3. **Merge + emit** ([`emit::merge_and_emit`]): per `(node, region)`,
//!    the shard partials merge by a balanced pairwise tree in shard order
//!    (cells sharing a local index unite), then the merged cell lists are
//!    cut into weighted emit tasks that compute cell indexes and measures
//!    in parallel, each appending rows to a part of its node; a serial fold
//!    appends the parts in task order.
//!
//! On either path an emitted cell is a row *appended* to its node's
//! columnar [`crate::NodeResult`], never a key inserted into a map. A node
//! whose regions arrive out of key order — several regions (chunked
//! lattices) or several shards — has its rows sorted once at the end, so
//! every result holds its rows in ascending key order (see
//! [`crate::result`]).
//!
//! ## Determinism argument
//!
//! The engine's output is **plan-invariant** — a property strictly
//! stronger than thread-count determinism:
//!
//! * a shard decomposition only changes *which intermediate partials
//!   exist*, never the final content of a cell: projection maps each
//!   parent cell to exactly one child cell, and set union is associative
//!   and commutative, so uniting partials at the child equals uniting at
//!   the parent and then projecting, whatever the grouping;
//! * measures are emitted exactly once per cell, from its complete fact
//!   set — every emitted `f64` is a function of that set alone, so it
//!   cannot observe the decomposition;
//! * every fan-out ([`spade_parallel::try_map`]) returns results in input
//!   order and each shard is single-owner, so no ordering the computation
//!   depends on is left to the scheduler.
//!
//! Hence the thread count of the [`crate::ExecCtx`] the engine runs under
//! (which only picks the shard count and the worker pool; the other two
//! knobs, storage policy and `shard_weight`, are read from
//! [`crate::MvdCubeOptions`]) is a pure latency knob: results are
//! bit-identical at every value, on every machine.
//!
//! `crates/core/tests/parallel_determinism.rs` pins thread-count
//! determinism end to end at 1/2/8 threads; `crates/cube/tests/store_prop.rs`
//! pins plan-invariance itself, comparing the sharded engine bit-exactly
//! against the preserved [`crate::engine_baseline`] across storage
//! policies, thread counts, and arbitrary shard granularities.

pub(crate) mod emit;
pub(crate) mod geometry;
pub(crate) mod shard;
pub(crate) mod store;

pub use geometry::CellStorePolicy;

use crate::exec::ExecCtx;
use crate::lattice::Lattice;
use crate::mvdcube::MvdCubeOptions;
use crate::result::{CubeResult, NodeResult};
use crate::spec::{CubeSpec, Mda};
use crate::translate::Translation;
use geometry::{node_geom, NodeGeom, Projection};
use spade_parallel::Cancelled;
use std::collections::HashMap;

/// The read-only per-evaluation plan every shard and emit task shares:
/// the spec's measures and MDA list, geometry, projections (pre-filtered to
/// surviving subtrees), MDA liveness, and the measures each node joins.
pub(crate) struct LatticePlan<'s> {
    pub(crate) spec: &'s CubeSpec<'s>,
    /// The spec's MDA list, built once — emit reads it per cell.
    pub(crate) mdas: Vec<Mda>,
    /// Domain size of every lattice dimension, null slot included.
    pub(crate) domains: Vec<u32>,
    pub(crate) root: u32,
    /// All node masks, root first.
    pub(crate) nodes: Vec<u32>,
    pub(crate) geoms: HashMap<u32, NodeGeom>,
    pub(crate) projections: HashMap<u32, Vec<Projection>>,
    /// node → per-MDA alive flags.
    pub(crate) alive: HashMap<u32, Vec<bool>>,
    /// node → whether any MDA is alive (the node emits / parks).
    pub(crate) emits: HashMap<u32, bool>,
    /// node → the measures at least one live MDA needs.
    pub(crate) needed: HashMap<u32, Vec<usize>>,
    /// Whether the root's subtree emits anything at all.
    pub(crate) keep_root: bool,
}

fn build_plan<'s>(
    spec: &'s CubeSpec<'s>,
    lattice: &Lattice,
    alive: Option<&HashMap<u32, Vec<bool>>>,
    policy: CellStorePolicy,
) -> LatticePlan<'s> {
    let mmst = lattice.mmst();
    let mdas = spec.mdas();
    let n_mdas = mdas.len();
    let nodes = lattice.nodes();

    let mut geoms = HashMap::new();
    for &mask in &nodes {
        geoms.insert(mask, node_geom(lattice, mask, policy));
    }

    // Liveness: default everything alive; keep = self or descendant alive.
    let alive_map: HashMap<u32, Vec<bool>> = nodes
        .iter()
        .map(|&m| {
            let flags =
                alive.and_then(|a| a.get(&m).cloned()).unwrap_or_else(|| vec![true; n_mdas]);
            assert_eq!(flags.len(), n_mdas);
            (m, flags)
        })
        .collect();
    let emits: HashMap<u32, bool> =
        alive_map.iter().map(|(&m, flags)| (m, flags.iter().any(|&a| a))).collect();
    let needed: HashMap<u32, Vec<usize>> = alive_map
        .iter()
        .map(|(&m, flags)| (m, emit::needed_measures(&mdas, spec.measures.len(), flags)))
        .collect();
    let mut keep: HashMap<u32, bool> = HashMap::new();
    for &mask in mmst.topological().iter().rev() {
        let child_alive = mmst.children_of(mask).iter().any(|c| keep[c]);
        keep.insert(mask, emits[&mask] || child_alive);
    }

    // Projections, pre-filtered to children whose subtree still emits —
    // the flush hot path then never consults the keep map.
    let n_chunks = lattice.n_chunks();
    let mut projections: HashMap<u32, Vec<Projection>> = HashMap::new();
    for &mask in &nodes {
        let parent_dims = &geoms[&mask].dims;
        let projs: Vec<Projection> = mmst
            .children_of(mask)
            .iter()
            .filter(|child| keep[child])
            .map(|&child| {
                let dropped = mmst.parent[&child].1;
                let pos = parent_dims.iter().position(|&d| d == dropped).unwrap();
                let local_below: u64 =
                    parent_dims[pos + 1..].iter().map(|&i| lattice.chunks[i] as u64).product();
                let region_below: u64 =
                    parent_dims[pos + 1..].iter().map(|&i| n_chunks[i] as u64).product();
                Projection {
                    child_mask: child,
                    local_d: lattice.chunks[dropped] as u64,
                    local_below,
                    region_d: n_chunks[dropped] as u64,
                    region_below,
                }
            })
            .collect();
        if !projs.is_empty() {
            projections.insert(mask, projs);
        }
    }

    let root = lattice.root_mask();
    let keep_root = keep[&root];
    LatticePlan {
        spec,
        mdas,
        domains: lattice.domains.clone(),
        root,
        nodes,
        geoms,
        projections,
        alive: alive_map,
        emits,
        needed,
        keep_root,
    }
}

/// Runs the region-sharded engine over a translation.
///
/// `alive` gives per-node MDA liveness (from early-stop); pass `None` to
/// evaluate everything. `options` supplies the storage policy and the
/// shard-weight override, `cx.threads` the workers for the shard cascade
/// and emit phases (`0` = all cores, `1` = serial; results are
/// bit-identical for every value) — see the module docs for the shard
/// lifecycle. The budget is polled between region flushes and between
/// merge/emit tasks; checks never alter any computation, so completed
/// results stay bit-identical to a run without a deadline.
///
/// Records one child span per shard (ordered by shard index, so the
/// span-tree shape is plan- and scheduler-independent for a fixed plan)
/// plus a merge/emit span on multi-shard plans; a disabled context makes
/// all of it free.
pub(crate) fn run_engine(
    spec: &CubeSpec<'_>,
    lattice: &Lattice,
    translation: &Translation,
    alive: Option<&HashMap<u32, Vec<bool>>>,
    options: &MvdCubeOptions,
    cx: &ExecCtx<'_>,
) -> Result<CubeResult, Cancelled> {
    let plan = build_plan(spec, lattice, alive, options.store_policy);
    let mut result = CubeResult::new(plan.mdas.iter().map(|m| m.label.clone()).collect());
    if !plan.keep_root {
        return Ok(result);
    }
    let shards = shard::plan_shards(translation, options.shard_weight, cx.threads);
    if let [chunks] = shards.as_slice() {
        // Single-shard plan: every region is globally complete when it
        // flushes, so measures are emitted at flush time and the cascade
        // keeps the serial engine's O(in-flight regions) memory profile —
        // no partials, no merge phase.
        shard::run_shard_emit(&plan, translation, chunks, &mut result, cx)?;
    } else {
        let indexed: Vec<(usize, Vec<shard::ShardChunk>)> =
            shards.into_iter().enumerate().collect();
        let outputs = spade_parallel::try_map(indexed, cx.threads, |(i, chunks)| {
            shard::run_shard(&plan, translation, i as u64, &chunks, cx)
        })?;
        result = emit::merge_and_emit(&plan, outputs, result, cx)?;
    }
    // Regions (and shards) append rows in their own order; restore key
    // order where it differs.
    result.nodes.values_mut().for_each(NodeResult::sort_rows);
    Ok(result)
}
