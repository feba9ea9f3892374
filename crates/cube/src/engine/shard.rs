//! The region shard: planning and the per-shard cascade state machine.
//!
//! A **shard** is a contiguous slice of the translation's cell stream —
//! whole partitions where possible, sub-partition cell ranges where one
//! partition dominates — cut by [`plan_shards`] into ranges of roughly
//! equal *weight* (cells plus their fact cardinality, the union cost
//! driver). The auto plan sizes the shard count to the resolved worker
//! budget (one worker ⇒ one shard); decomposition never changes
//! results — see the plan-invariance argument in [`super`]'s module
//! docs.
//!
//! Each shard runs the full MVDCube flush cascade over its slice with
//! **shard-local** bookkeeping: `totals` counts the shard's own chunks per
//! `(node, region)`, `pending` counts down as parent regions flush, and a
//! region that completes *within the shard* propagates to its MMST children
//! exactly like the serial engine. What happens to a completed region of an
//! emitting node depends on the [`ShardSink`]:
//!
//! * **multi-shard plans park** — the cells (compacted to a sorted
//!   `(local index, cell)` list) become the shard's partial for the
//!   merge/emit phase in [`super::emit`], because other shards may still
//!   contribute to the same region;
//! * **a single-shard plan emits at flush** — every region is already
//!   complete when it flushes, so measures are computed immediately and
//!   the store is freed, preserving the serial engine's
//!   `O(in-flight regions)` memory profile (no partials survive the
//!   cascade) and its move-into-last-child optimization.
//!
//! Nodes that never emit (pruned by early-stop or cross-lattice sharing)
//! skip both and always move into the last child.

use super::emit::{emit_region_into, EmitScratch};
use super::geometry::{project, NodeGeom, Projection};
use super::store::{merge_batch, ProjectedCell, RegionStore};
use super::LatticePlan;
use crate::exec::ExecCtx;
use crate::result::CubeResult;
use crate::translate::Translation;
use spade_bitmap::Bitmap;
use spade_parallel::Cancelled;
use spade_telemetry::Span;
use std::collections::HashMap;

/// Shards planned per resolved worker (over-decomposition for load
/// balance: the atomic-cursor fan-out backfills idle workers with the
/// leftover shards).
const SHARDS_PER_WORKER: usize = 4;

/// Ceiling on the number of shards one lattice evaluation plans.
const MAX_SHARDS: usize = 64;

/// Default minimum shard weight (cells + fact memberships): below this,
/// fan-out overhead would outweigh the work, so small lattices run as one
/// shard — the serial path and the parallel path execute identical code.
const MIN_SHARD_WEIGHT: u64 = 4 * 1024;

/// One region's cells, sorted by local index.
pub(crate) type RegionCells = Vec<(u64, Bitmap)>;

/// A shard's parked output: one `(node, region, sorted cells)` partial per
/// region of an emitting node the shard completed, in completion order.
pub(crate) type ShardPartials = Vec<(u32, u64, RegionCells)>;

/// One contiguous run of a partition's cells assigned to a shard. A shard
/// holds at most one chunk per partition (ranges are contiguous over the
/// flattened cell stream), so each chunk counts as one arrival in the
/// shard-local flush bookkeeping — the shard-local analogue of "one
/// partition arrived".
pub(crate) struct ShardChunk {
    pub(crate) partition: usize,
    pub(crate) start: usize,
    pub(crate) end: usize,
}

/// Cuts the translation's cell stream into shards. `target_weight`
/// overrides the auto granularity (tests and benchmarks) and makes the
/// plan a pure function of the data and that knob; otherwise the auto plan
/// targets [`SHARDS_PER_WORKER`] shards per resolved worker — in
/// particular, one worker gets exactly one shard, so a serial run pays no
/// decomposition tax (each extra shard costs an `O(content)` slice of
/// cross-shard merge work, the parallelization tax a multi-core run
/// amortizes). Decomposition never changes results — see the
/// plan-invariance argument in [`super`]'s module docs.
pub(crate) fn plan_shards(
    translation: &Translation,
    target_weight: Option<u64>,
    threads: usize,
) -> Vec<Vec<ShardChunk>> {
    let mut owners: Vec<(usize, usize)> = Vec::new();
    let mut weights: Vec<u64> = Vec::new();
    for (pi, partition) in translation.partitions.iter().enumerate() {
        for (ci, (_, facts)) in partition.cells.iter().enumerate() {
            owners.push((pi, ci));
            weights.push(1 + facts.cardinality());
        }
    }
    let resolved = spade_parallel::resolve_threads(threads);
    let ranges = match target_weight {
        Some(w) => spade_parallel::weighted_ranges(&weights, usize::MAX, w.max(1)),
        None if resolved <= 1 => spade_parallel::weighted_ranges(&weights, 1, u64::MAX),
        None => spade_parallel::weighted_ranges(
            &weights,
            (resolved * SHARDS_PER_WORKER).min(MAX_SHARDS),
            MIN_SHARD_WEIGHT,
        ),
    };
    ranges
        .into_iter()
        .map(|(a, b)| {
            let mut chunks: Vec<ShardChunk> = Vec::new();
            for &(pi, ci) in &owners[a..b] {
                match chunks.last_mut() {
                    Some(c) if c.partition == pi => c.end = ci + 1,
                    _ => chunks.push(ShardChunk { partition: pi, start: ci, end: ci + 1 }),
                }
            }
            chunks
        })
        .collect()
}

/// Where a completed region of an emitting node goes.
pub(crate) enum ShardSink<'r> {
    /// Multi-shard plan: park sorted partials for the cross-shard merge.
    Park(ShardPartials),
    /// Single-shard plan: emit measures at flush and free the region.
    Emit { result: &'r mut CubeResult, scratch: EmitScratch },
}

/// The shard-local cascade state.
struct RegionShard<'a, 'r> {
    plan: &'a LatticePlan<'a>,
    /// node → region → flat cell storage (in-flight regions).
    memory: HashMap<u32, HashMap<u64, RegionStore<Bitmap>>>,
    /// node → region → remaining shard chunks before local completion.
    pending: HashMap<u32, HashMap<u64, u64>>,
    /// node → region → number of shard chunks mapping to it.
    totals: HashMap<u32, HashMap<u64, u64>>,
    /// Total cells in the shard's slice — the store sizing hint (see
    /// [`RegionStore::with_load`]).
    load: u64,
    /// What to do with completed regions of emitting nodes.
    sink: ShardSink<'r>,
}

/// Attaches the shard's workload attrs (chunk/cell/fact counts, executing
/// thread) to its span. Fact cardinalities are only summed when the span
/// is actually recorded.
fn annotate(span: &Span, translation: &Translation, chunks: &[ShardChunk]) {
    if !span.recorded() {
        return;
    }
    let cells: u64 = chunks.iter().map(|c| (c.end - c.start) as u64).sum();
    let facts: u64 = chunks
        .iter()
        .flat_map(|c| &translation.partitions[c.partition].cells[c.start..c.end])
        .map(|(_, facts)| facts.cardinality())
        .sum();
    span.attr("chunks", chunks.len() as u64);
    span.attr("cells", cells);
    span.attr("facts", facts);
    span.record_thread();
}

/// Runs shard `index` of a multi-shard plan under its own `shard` span,
/// returning its parked `(node, region)` partials. Deterministic: chunks
/// are processed in plan order and the cascade below is single-owner. The
/// budget is checked between region flushes, so cancellation latency is
/// bounded by one chunk's cascade.
pub(crate) fn run_shard(
    plan: &LatticePlan<'_>,
    translation: &Translation,
    index: u64,
    chunks: &[ShardChunk],
    cx: &ExecCtx<'_>,
) -> Result<ShardPartials, Cancelled> {
    let (span, _) = cx.span_at("shard", index);
    annotate(&span, translation, chunks);
    match cascade(plan, translation, chunks, ShardSink::Park(Vec::new()), cx)? {
        ShardSink::Park(out) => Ok(out),
        ShardSink::Emit { .. } => unreachable!("park sink in, park sink out"),
    }
}

/// Runs a single-shard plan end to end, emitting measures into `result` at
/// flush time (no partials, no merge phase — the serial fast path).
pub(crate) fn run_shard_emit(
    plan: &LatticePlan<'_>,
    translation: &Translation,
    chunks: &[ShardChunk],
    result: &mut CubeResult,
    cx: &ExecCtx<'_>,
) -> Result<(), Cancelled> {
    let (span, _) = cx.span_at("shard", 0);
    annotate(&span, translation, chunks);
    let sink = ShardSink::Emit { result, scratch: EmitScratch::default() };
    cascade(plan, translation, chunks, sink, cx)?;
    Ok(())
}

fn cascade<'r>(
    plan: &LatticePlan<'_>,
    translation: &Translation,
    chunks: &[ShardChunk],
    sink: ShardSink<'r>,
    cx: &ExecCtx<'_>,
) -> Result<ShardSink<'r>, Cancelled> {
    let mut totals: HashMap<u32, HashMap<u64, u64>> =
        plan.nodes.iter().map(|&m| (m, HashMap::new())).collect();
    for chunk in chunks {
        let coords = &translation.partitions[chunk.partition].coords;
        for &mask in &plan.nodes {
            let region = plan.geoms[&mask].region_of(coords);
            *totals.get_mut(&mask).unwrap().entry(region).or_insert(0) += 1;
        }
    }
    let mut shard = RegionShard {
        plan,
        memory: plan.nodes.iter().map(|&m| (m, HashMap::new())).collect(),
        pending: plan.nodes.iter().map(|&m| (m, HashMap::new())).collect(),
        totals,
        load: chunks.iter().map(|c| (c.end - c.start) as u64).sum(),
        sink,
    };
    let root_geom = &plan.geoms[&plan.root];
    for chunk in chunks {
        // Cancellation point between region flushes: an expired request
        // unwinds within one chunk's cascade. Checking *before* the work
        // (never conditionally skipping it) keeps completed outputs
        // bit-identical to the budget-less path.
        cx.check()?;
        let partition = &translation.partitions[chunk.partition];
        // Load the chunk into the root. Partition cells are sorted by
        // global index, and global→local is order-preserving within one
        // partition, so the store loads in ascending local order without
        // re-sorting. Root regions are complete after their own chunks
        // (one chunk per partition per shard), so the root flushes — and
        // thereby updates its subtree — immediately.
        let mut store = RegionStore::with_load(root_geom, shard.load);
        for (global, facts) in &partition.cells[chunk.start..chunk.end] {
            store.push_sorted(root_geom.global_to_local(*global), facts.clone());
        }
        shard.flush(plan.root, root_geom.region_of(&partition.coords), store);
    }
    debug_assert!(shard.pending.values().all(HashMap::is_empty), "unflushed regions");
    Ok(shard.sink)
}

impl RegionShard<'_, '_> {
    /// Handles a shard-locally completed region: emits it (single-shard
    /// sink), propagates it to the node's MMST children, recursively
    /// flushing children that complete, and finally parks the cells
    /// (multi-shard sink) — Algorithm 1's `updateSubtree` +
    /// `computeAndStoreAggregatedMeasures` + `emptyMemory`, with parking
    /// replacing the measure computation when other shards may still
    /// contribute.
    fn flush(&mut self, mask: u32, region: u64, mut store: RegionStore<Bitmap>) {
        let coverage = self.totals[&mask][&region];
        let emits = self.plan.emits[&mask];
        // Emit-at-flush (single-shard plans): the region is globally
        // complete, so compute measures now and let the store move into
        // the last child below.
        let mut parks = false;
        if emits {
            match &mut self.sink {
                ShardSink::Park(_) => parks = true,
                ShardSink::Emit { result, scratch } => {
                    emit_region_into(self.plan, mask, region, &store, scratch, result)
                }
            }
        }
        // Propagate to MMST children (projections are pre-filtered to
        // surviving subtrees). Unless the cells must park afterwards, the
        // last child receives them by move; a parking node's children all
        // read them by reference.
        let n_projs = self.plan.projections.get(&mask).map_or(0, Vec::len);
        for pi in 0..n_projs {
            let (child, local_d, local_below, region_d, region_below) = {
                let p: &Projection = &self.plan.projections[&mask][pi];
                (p.child_mask, p.local_d, p.local_below, p.region_d, p.region_below)
            };
            let child_region = project(region, region_d, region_below);
            if !parks && pi + 1 == n_projs {
                let taken = std::mem::replace(&mut store, RegionStore::placeholder());
                let batch: Vec<(u64, ProjectedCell<'_, Bitmap>)> = taken
                    .into_cells()
                    .into_iter()
                    .map(|(l, c)| (project(l, local_d, local_below), ProjectedCell::Owned(c)))
                    .collect();
                self.merge_into(child, child_region, batch);
            } else {
                let batch: Vec<(u64, ProjectedCell<'_, Bitmap>)> = store
                    .iter_cells()
                    .map(|(l, c)| {
                        (project(l, local_d, local_below), ProjectedCell::Borrowed(c))
                    })
                    .collect();
                self.merge_into(child, child_region, batch);
            }

            // Shard-local flush check (timeToStoreToDisk): every shard
            // chunk of the child's region processed?
            let total = self.totals[&child][&child_region];
            let pending =
                self.pending.get_mut(&child).unwrap().entry(child_region).or_insert(total);
            *pending = pending.saturating_sub(coverage);
            if *pending == 0 {
                self.pending.get_mut(&child).unwrap().remove(&child_region);
                let child_store =
                    self.memory.get_mut(&child).unwrap().remove(&child_region).unwrap_or_else(
                        || RegionStore::with_load(&self.plan.geoms[&child], self.load),
                    );
                self.flush(child, child_region, child_store);
            }
        }
        if parks {
            if let ShardSink::Park(out) = &mut self.sink {
                out.push((mask, region, store.into_cells()));
            }
        }
    }

    fn merge_into(
        &mut self,
        child: u32,
        child_region: u64,
        batch: Vec<(u64, ProjectedCell<'_, Bitmap>)>,
    ) {
        let geom: &NodeGeom = &self.plan.geoms[&child];
        let load = self.load;
        let store = self
            .memory
            .get_mut(&child)
            .unwrap()
            .entry(child_region)
            .or_insert_with(|| RegionStore::with_load(geom, load));
        merge_batch(store, batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate::Partition;

    fn translation_with(cells_per_partition: &[usize]) -> Translation {
        let partitions = cells_per_partition
            .iter()
            .enumerate()
            .map(|(pi, &n)| Partition {
                coords: vec![pi as u32],
                cells: (0..n as u64)
                    .map(|c| (c, Bitmap::from_sorted(&[c as u32, c as u32 + 1])))
                    .collect(),
            })
            .collect();
        Translation { partitions, strides: vec![1], samples: None }
    }

    #[test]
    fn shards_cover_every_cell_exactly_once() {
        let t = translation_with(&[5, 1, 9, 3]);
        for target in [1u64, 4, 1_000_000] {
            let shards = plan_shards(&t, Some(target), 1);
            let mut seen: Vec<Vec<bool>> =
                t.partitions.iter().map(|p| vec![false; p.cells.len()]).collect();
            for shard in &shards {
                for c in shard {
                    for slot in &mut seen[c.partition][c.start..c.end] {
                        assert!(!*slot, "cell covered twice");
                        *slot = true;
                    }
                }
            }
            assert!(seen.iter().flatten().all(|&s| s), "target {target}: cells missed");
        }
    }

    #[test]
    fn one_chunk_per_partition_per_shard() {
        let t = translation_with(&[6, 6, 6]);
        for target in [1u64, 2, 7, 100] {
            for shard in plan_shards(&t, Some(target), 1) {
                let mut parts: Vec<usize> = shard.iter().map(|c| c.partition).collect();
                let before = parts.len();
                parts.dedup();
                assert_eq!(parts.len(), before, "partition split within one shard");
            }
        }
    }

    #[test]
    fn auto_plan_scales_with_workers() {
        let t = translation_with(&[4000, 4000, 4000]);
        assert_eq!(plan_shards(&t, None, 1).len(), 1, "serial runs pay no decomposition tax");
        let eight = plan_shards(&t, None, 8).len();
        assert!(eight > 1 && eight <= 64, "got {eight} shards for 8 workers");
    }

    #[test]
    fn huge_target_yields_single_shard() {
        let t = translation_with(&[4, 4]);
        let shards = plan_shards(&t, Some(u64::MAX), 8);
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].len(), 2);
    }

    #[test]
    fn tiny_target_splits_within_partitions() {
        let t = translation_with(&[8]);
        let shards = plan_shards(&t, Some(1), 1);
        assert!(shards.len() > 1, "expected sub-partition shards");
    }
}
