//! Cross-shard merge and parallel measure emit.
//!
//! After the shard cascade, every emitting `(node, region)` holds one
//! sorted partial cell list per shard that touched it. This module finishes
//! the evaluation in three deterministic steps:
//!
//! 1. **Gather** — partials are grouped per `(node, region)` in shard
//!    order (a `BTreeMap` keyed by `(mask, region)` fixes the region
//!    order);
//! 2. **Merge** — each region folds its partials left-to-right with
//!    [`merge_sorted`], combining cells that share a local index via
//!    [`CubeAlgebra::merge`]; regions are independent, so this fans out on
//!    [`spade_parallel::map`] with input-order results;
//! 3. **Emit** — the merged cell lists are cut into weighted tasks
//!    (boundaries depend only on cell counts), each task decodes its
//!    cells' group keys and computes measures with a task-local scratch,
//!    and a serial fold inserts the task outputs into the [`CubeResult`]
//!    in task order.
//!
//! Merging before emitting is what makes sharding invisible: a cell's
//! measures are computed exactly once, from its fully merged payload, just
//! as the serial engine computes them at flush time.

use super::shard::{RegionCells, ShardPartials};
use super::store::{merge_sorted, RegionStore};
use super::{CubeAlgebra, LatticePlan};
use crate::exec::ExecCtx;
use crate::result::{CubeResult, NodeResult};
use spade_parallel::Cancelled;
use std::collections::BTreeMap;

/// Ceiling on the number of emit tasks one evaluation plans.
const EMIT_TARGET: usize = 64;

/// Minimum cells per emit task; below this a region emits as one task.
const MIN_EMIT_CELLS: u64 = 512;

/// A keyed region: `((node mask, region), sorted cells)`.
type KeyedRegion<C> = ((u32, u64), RegionCells<C>);

/// One emit task: a contiguous slice of a merged region's cells.
type EmitTask<'a, C> = (u32, u64, &'a [(u64, C)]);

/// Emits one completed region's measures straight into `result` — the
/// emit-at-flush path of a single-shard plan ([`super::shard::ShardSink`]),
/// where no cross-shard merge is needed. `key_buf`/`scratch` are the
/// cascade-lifetime reusable buffers.
#[allow(clippy::too_many_arguments)]
pub(crate) fn emit_region_into<A: CubeAlgebra>(
    algebra: &A,
    plan: &LatticePlan<A>,
    mask: u32,
    region: u64,
    store: &RegionStore<A::Cell>,
    key_buf: &mut Vec<u32>,
    scratch: &mut A::EmitScratch,
    result: &mut CubeResult,
) {
    let geom = &plan.geoms[&mask];
    let alive = &plan.alive[&mask];
    let emit_plan = &plan.plans[&mask];
    let node = result.nodes.entry(mask).or_insert_with(|| NodeResult::new(mask));
    for (local, cell) in store.iter_cells() {
        geom.decode_into(region, local, key_buf);
        node.groups.insert(key_buf.clone(), algebra.emit(cell, alive, emit_plan, scratch));
    }
}

/// Merges shard partials and emits measures into `result`. The budget is
/// polled once per merge task and once per emit task; on the `Ok` path the
/// output is bit-identical to an unbudgeted run. Records the engine's
/// `merge_emit` span with region/cell-count attrs; the nested `merge` and
/// `emit` child spans split the phase durations.
pub(crate) fn merge_and_emit<A: CubeAlgebra>(
    algebra: &A,
    plan: &LatticePlan<A>,
    shard_outputs: Vec<ShardPartials<A::Cell>>,
    mut result: CubeResult,
    cx: &ExecCtx<'_>,
) -> Result<CubeResult, Cancelled> {
    let (span, cx) = cx.span("merge_emit");
    // —— gather: (node, region) → partials in shard order ——
    let mut grouped: BTreeMap<(u32, u64), Vec<RegionCells<A::Cell>>> = BTreeMap::new();
    for shard in shard_outputs {
        for (mask, region, cells) in shard {
            grouped.entry((mask, region)).or_default().push(cells);
        }
    }

    // —— merge: fold each region's partials in shard order (parallel) ——
    let items: Vec<_> = grouped.into_iter().collect();
    span.attr("regions", items.len() as u64);
    let (merge_span, _) = cx.span("merge");
    let merged: Vec<KeyedRegion<A::Cell>> =
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
                        Some(b) => next
                            .push(merge_sorted(a, b, |into, from| algebra.merge(into, from))),
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
    let mut tasks: Vec<EmitTask<'_, A::Cell>> = Vec::new();
    for ((mask, region), cells) in &merged {
        for (a, b) in spade_parallel::chunk_ranges(cells.len(), task_cells) {
            tasks.push((*mask, *region, &cells[a..b]));
        }
    }
    let outputs = spade_parallel::try_map(tasks, cx.threads, |(mask, region, cells)| {
        cx.check()?;
        let geom = &plan.geoms[&mask];
        let alive = &plan.alive[&mask];
        let emit_plan = &plan.plans[&mask];
        let mut key_buf: Vec<u32> = Vec::new();
        let mut scratch = A::EmitScratch::default();
        let groups: Vec<(Vec<u32>, Vec<Option<f64>>)> = cells
            .iter()
            .map(|(local, cell)| {
                geom.decode_into(region, *local, &mut key_buf);
                (key_buf.clone(), algebra.emit(cell, alive, emit_plan, &mut scratch))
            })
            .collect();
        Ok((mask, groups))
    })?;

    // —— serial fold, in task order ——
    for (mask, groups) in outputs {
        let node = result.nodes.entry(mask).or_insert_with(|| NodeResult::new(mask));
        for (key, values) in groups {
            node.groups.insert(key, values);
        }
    }
    Ok(result)
}
