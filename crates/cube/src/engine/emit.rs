//! Measure emit and the cross-shard merge.
//!
//! A finished cell's measures come from one **bitmap-to-CSR join**
//! ([`LatticePlan::emit_cell`]): the cell's fact set against the per-fact
//! pre-aggregated measure columns, which are ordered by fact id like the
//! bitmap (`⊗`, Section 4.3). Every emitted cell becomes one row *appended*
//! to its node's columnar [`NodeResult`]: the cell index and visibility from
//! [`super::geometry::NodeGeom::cell_of`], then the values, written in place
//! — no key vector, no value vector, no hash insert per group. A
//! single-shard plan emits at flush time ([`emit_region_into`]); after a
//! multi-shard cascade every emitting `(node, region)` holds one sorted
//! partial cell list per shard that touched it, and [`merge_and_emit`]
//! finishes in three deterministic steps:
//!
//! 1. **Gather** — partials are grouped per `(node, region)` in shard
//!    order (a `BTreeMap` keyed by `(mask, region)` fixes the region
//!    order);
//! 2. **Merge** — each region merges its partials pairwise in shard order
//!    with [`merge_sorted`], uniting cells that share a local index;
//!    regions are independent, so this fans out on
//!    [`spade_parallel::try_map`] with input-order results;
//! 3. **Emit** — the merged cell lists are cut into weighted tasks
//!    (boundaries depend only on cell counts), each task appends its cells'
//!    rows to a task-local part of the node with a task-local scratch, and a
//!    serial fold appends the parts to the [`CubeResult`] in task order.
//!
//! Either way a node whose regions arrive out of key order has its rows
//! sorted once afterwards ([`super::run_engine`]).
//!
//! Merging before emitting is what makes sharding invisible: a cell's
//! measures are computed exactly once, from its complete fact set, just
//! as the serial engine computes them at flush time.

use super::shard::{RegionCells, ShardPartials};
use super::store::{merge_sorted, RegionStore};
use super::LatticePlan;
use crate::exec::ExecCtx;
use crate::result::{CubeResult, NodeResult};
use crate::spec::{CubeSpec, Mda, MdaKind};
use spade_bitmap::Bitmap;
use spade_parallel::Cancelled;
use spade_storage::{accumulate_all, AggFn, MeasureTotals, PreAggregated};
use std::collections::BTreeMap;

/// Ceiling on the number of emit tasks one evaluation plans.
const EMIT_TARGET: usize = 64;

/// Minimum cells per emit task; below this a region emits as one task.
const MIN_EMIT_CELLS: u64 = 512;

/// A keyed region: `((node mask, region), sorted cells)`.
type KeyedRegion = ((u32, u64), RegionCells);

/// One emit task: a contiguous slice of a merged region's cells.
type EmitTask<'a> = (u32, u64, &'a [(u64, Bitmap)]);

/// Reusable emit buffers: the decoded fact list and the needed measures'
/// totals, in the node's needed order.
#[derive(Default)]
pub(crate) struct EmitScratch {
    facts: Vec<u32>,
    totals: Vec<MeasureTotals>,
}

/// The columns of the measures with at least one live MDA, in measure
/// order — the only ones a node's cells join; this is where early-stop's
/// pruning actually saves work. Built once per node and plan (not per
/// region or cell, let alone per fact).
pub(super) fn needed_measures<'s>(
    spec: &CubeSpec<'s>,
    mdas: &[Mda],
    alive: &[bool],
) -> Vec<&'s PreAggregated> {
    let mut needed = vec![false; spec.measures.len()];
    for (mda, &is_alive) in mdas.iter().zip(alive) {
        if let (MdaKind::Measure { measure, .. }, true) = (&mda.kind, is_alive) {
            needed[*measure] = true;
        }
    }
    spec.measures.iter().zip(needed).filter(|(_, n)| *n).map(|(m, _)| m.preagg).collect()
}

impl LatticePlan<'_> {
    /// An empty result for node `mask`.
    pub(super) fn empty_node(&self, mask: u32) -> NodeResult {
        NodeResult::new(mask, &self.domains, self.mdas.len())
    }

    /// Computes the per-MDA values of a finished cell, yielded in MDA order
    /// for the caller to append. `alive[i] == false` means MDA `i` was
    /// pruned by early-stop and must not be computed; `needed` is the
    /// node's [`needed_measures`].
    fn emit_cell<'a>(
        &'a self,
        cell: &Bitmap,
        alive: &'a [bool],
        needed: &'a [&PreAggregated],
        scratch: &'a mut EmitScratch,
    ) -> impl Iterator<Item = Option<f64>> + 'a {
        // Measure computation is a batched bitmap-to-CSR join: the cell's
        // bitmap is decoded once (container-at-a-time) into a reused fact
        // buffer, then one `accumulate_all` pass joins it with every needed
        // measure's pre-aggregated columns at once ("measure computation …
        // can aggregate different measures simultaneously", Section 4.3
        // (b)), single-valued measures four to a pass. Count-only cells
        // skip the join entirely; nothing is allocated per cell and nothing
        // panics on facts without a value (they simply contribute nothing).
        let facts = if needed.is_empty() {
            cell.cardinality()
        } else {
            scratch.facts.clear();
            cell.decode_into(&mut scratch.facts);
            scratch.totals.clear();
            scratch.totals.resize(needed.len(), MeasureTotals::default());
            accumulate_all(needed, &scratch.facts, &mut scratch.totals);
            scratch.facts.len() as u64
        };
        let totals = &scratch.totals;
        // The MDAs list each measure's functions together, in measure
        // order, so the live ones meet the needed measures in turn:
        // `last` is the slot and measure of the previous live one.
        let mut last: Option<(usize, usize)> = None;
        self.mdas.iter().zip(alive).map(move |(mda, &is_alive)| {
            if !is_alive {
                return None;
            }
            match mda.kind {
                MdaKind::FactCount => Some(facts as f64),
                MdaKind::Measure { measure, agg } => {
                    let k = match last {
                        Some((k, m)) if m == measure => k,
                        Some((k, _)) => k + 1,
                        None => 0,
                    };
                    last = Some((k, measure));
                    debug_assert!(std::ptr::eq(needed[k], self.spec.measures[measure].preagg));
                    let t = totals[k];
                    if t.count == 0 {
                        return None;
                    }
                    Some(match agg {
                        AggFn::Count => t.count as f64,
                        AggFn::Sum => t.sum,
                        AggFn::Avg => t.sum / t.count as f64,
                        AggFn::Min => t.min,
                        AggFn::Max => t.max,
                    })
                }
            }
        })
    }

    /// Appends cells of one region of `node`, given in ascending local
    /// order, as rows.
    fn emit_cells<'c>(
        &self,
        node: &mut NodeResult,
        region: u64,
        cells: impl Iterator<Item = (u64, &'c Bitmap)>,
        scratch: &mut EmitScratch,
    ) {
        let mask = node.mask;
        let (geom, alive, needed) =
            (&self.geoms[&mask], &self.alive[&mask], &self.needed[&mask]);
        for (local, cell) in cells {
            let (index, visible) = geom.cell_of(region, local);
            node.push_row(index, visible, self.emit_cell(cell, alive, needed, scratch));
        }
    }
}

/// Emits one completed region's measures straight into `result` — the
/// emit-at-flush path of a single-shard plan ([`super::shard::ShardSink`]),
/// where no cross-shard merge is needed. `scratch` is the cascade-lifetime
/// reusable buffer.
pub(crate) fn emit_region_into(
    plan: &LatticePlan<'_>,
    mask: u32,
    region: u64,
    store: &RegionStore<Bitmap>,
    scratch: &mut EmitScratch,
    result: &mut CubeResult,
) {
    let node = result.nodes.entry(mask).or_insert_with(|| plan.empty_node(mask));
    plan.emit_cells(node, region, store.iter_cells(), scratch);
}

/// Merges shard partials and emits measures into `result`. The budget is
/// polled once per merge task and once per emit task; on the `Ok` path the
/// output is bit-identical to an unbudgeted run. Records the engine's
/// `merge_emit` span with region/cell-count attrs; the nested `merge` and
/// `emit` child spans split the phase durations.
pub(crate) fn merge_and_emit(
    plan: &LatticePlan<'_>,
    shard_outputs: Vec<ShardPartials>,
    mut result: CubeResult,
    cx: &ExecCtx<'_>,
) -> Result<CubeResult, Cancelled> {
    let (span, cx) = cx.span("merge_emit");
    // —— gather: (node, region) → partials in shard order ——
    let mut grouped: BTreeMap<(u32, u64), Vec<RegionCells>> = BTreeMap::new();
    for shard in shard_outputs {
        for (mask, region, cells) in shard {
            grouped.entry((mask, region)).or_default().push(cells);
        }
    }

    // —— merge: fold each region's partials in shard order (parallel) ——
    let items: Vec<_> = grouped.into_iter().collect();
    span.attr("regions", items.len() as u64);
    let (merge_span, _) = cx.span("merge");
    let merged: Vec<KeyedRegion> =
        spade_parallel::try_map(items, cx.threads, |((mask, region), mut partials)| {
            cx.check()?;
            // Balanced pairwise tree merge: O(n log k) instead of the
            // O(n·k) left fold. Pairing is by partial index (shard order),
            // so the merge tree is fixed by the data-only shard plan.
            while partials.len() > 1 {
                let mut next = Vec::with_capacity(partials.len().div_ceil(2));
                let mut it = partials.into_iter();
                while let Some(a) = it.next() {
                    match it.next() {
                        Some(b) => next.push(merge_sorted(a, b, Bitmap::union_with)),
                        None => next.push(a),
                    }
                }
                partials = next;
            }
            Ok(((mask, region), partials.pop().expect("region parked without cells")))
        })?;

    drop(merge_span);

    // —— emit: weighted tasks over the merged cell lists (parallel) ——
    let (emit_span, _) = cx.span("emit");
    let total_cells: u64 = merged.iter().map(|(_, cells)| cells.len() as u64).sum();
    emit_span.attr("cells", total_cells);
    let task_cells =
        (total_cells.div_ceil(EMIT_TARGET as u64)).max(MIN_EMIT_CELLS).max(1) as usize;
    let mut tasks: Vec<EmitTask<'_>> = Vec::new();
    for ((mask, region), cells) in &merged {
        for (a, b) in spade_parallel::chunk_ranges(cells.len(), task_cells) {
            tasks.push((*mask, *region, &cells[a..b]));
        }
    }
    let parts = spade_parallel::try_map(tasks, cx.threads, |(mask, region, cells)| {
        cx.check()?;
        let mut part = plan.empty_node(mask);
        let cells = cells.iter().map(|(local, cell)| (*local, cell));
        plan.emit_cells(&mut part, region, cells, &mut EmitScratch::default());
        Ok(part)
    })?;

    // —— serial fold, in task order ——
    for part in parts {
        let mask = part.mask;
        result.nodes.entry(mask).or_insert_with(|| plan.empty_node(mask)).append(part);
    }
    Ok(result)
}
