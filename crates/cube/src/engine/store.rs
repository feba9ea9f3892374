//! Flat per-region cell storage and the batched fan-in merge machinery.
//!
//! A [`RegionStore`] holds one `(node, region)`'s cells keyed by local cell
//! index, either **dense** (`Vec<Option<Cell>>` of the region's full
//! capacity, one array index per touch) or **sparse** (a `Vec<(idx, Cell)>`
//! sorted by index, batch merge-joined). [`merge_batch`] lands a batch of
//! projected parent cells in a store: the batch is stable-sorted, so all
//! cells mapping to one child cell form an adjacent run in ascending-parent
//! order — merge order is identical in dense and sparse modes — and each
//! run merges in one k-way [`Bitmap::union_with_all`].

#[cfg(doc)]
use super::geometry::CellStorePolicy;
use super::geometry::NodeGeom;
use spade_bitmap::Bitmap;

/// Flat cell storage of one (node, region): dense array or sorted sparse
/// pairs, keyed by local cell index.
pub(crate) enum RegionStore<C> {
    Dense(Vec<Option<C>>),
    Sparse(Vec<(u64, C)>),
}

impl<C> RegionStore<C> {
    /// A store sized for `expected_load` cells. A region shard that only
    /// touches a small fraction of the region's capacity uses sparse
    /// storage even for a dense-classified node: allocating and scanning
    /// `capacity` slots per shard would turn the per-region cost into
    /// `O(shards · capacity)`. The threshold is a pure function of the
    /// (data-only) shard plan, and dense/sparse batch merges visit runs in
    /// the same ascending order, so the choice never affects results.
    /// [`CellStorePolicy::ForceDense`] disables the downgrade
    /// (`dense_forced`) so tests exercise the dense path at every shard
    /// granularity.
    pub(crate) fn with_load(geom: &NodeGeom, expected_load: u64) -> Self {
        if geom.dense && (geom.dense_forced || expected_load.saturating_mul(4) >= geom.capacity)
        {
            let mut slots = Vec::new();
            slots.resize_with(geom.capacity as usize, || None);
            RegionStore::Dense(slots)
        } else {
            RegionStore::Sparse(Vec::new())
        }
    }

    /// An empty placeholder store (used when moving a store out).
    pub(crate) fn placeholder() -> Self {
        RegionStore::Sparse(Vec::new())
    }

    /// Inserts a cell at a key known to be absent, arriving in ascending
    /// key order (the root-load path).
    pub(crate) fn push_sorted(&mut self, local: u64, cell: C) {
        match self {
            RegionStore::Dense(slots) => {
                debug_assert!(slots[local as usize].is_none());
                slots[local as usize] = Some(cell);
            }
            RegionStore::Sparse(v) => {
                debug_assert!(v.last().is_none_or(|(k, _)| *k < local));
                v.push((local, cell));
            }
        }
    }

    /// Visits occupied cells in ascending local-index order, by reference.
    pub(crate) fn iter_cells(&self) -> Box<dyn Iterator<Item = (u64, &C)> + '_> {
        match self {
            RegionStore::Dense(slots) => Box::new(
                slots
                    .iter()
                    .enumerate()
                    .filter_map(|(i, slot)| slot.as_ref().map(|c| (i as u64, c))),
            ),
            RegionStore::Sparse(v) => Box::new(v.iter().map(|(k, c)| (*k, c))),
        }
    }

    /// Consumes the store, yielding occupied cells in ascending order.
    pub(crate) fn into_cells(self) -> Vec<(u64, C)> {
        match self {
            RegionStore::Dense(slots) => slots
                .into_iter()
                .enumerate()
                .filter_map(|(i, slot)| slot.map(|c| (i as u64, c)))
                .collect(),
            RegionStore::Sparse(v) => v,
        }
    }
}

/// A projected cell on its way into a child store: owned (moved out of the
/// parent, for the last MMST child) or borrowed (cloned only if it ends up
/// *placed* — cells that merge into existing/preceding cells are read by
/// reference and never copied).
pub(crate) enum ProjectedCell<'c, C> {
    Owned(C),
    Borrowed(&'c C),
}

impl<'c, C: Clone> ProjectedCell<'c, C> {
    #[inline]
    pub(crate) fn get(&self) -> &C {
        match self {
            ProjectedCell::Owned(c) => c,
            ProjectedCell::Borrowed(r) => r,
        }
    }

    #[inline]
    pub(crate) fn into_owned(self) -> C {
        match self {
            ProjectedCell::Owned(c) => c,
            ProjectedCell::Borrowed(r) => r.clone(),
        }
    }
}

/// Merges a batch of projected cells into a region store. The batch is
/// stable-sorted here, so equal child indexes form adjacent runs in
/// ascending-parent order, and each run merges in one k-way union (set
/// union is associative and commutative, so this is exactly the folded
/// pairwise union), reading borrowed cells in place (a cell is cloned only
/// when it must be *placed* into an empty slot).
pub(crate) fn merge_batch(
    store: &mut RegionStore<Bitmap>,
    mut batch: Vec<(u64, ProjectedCell<'_, Bitmap>)>,
) {
    if batch.is_empty() {
        return;
    }
    batch.sort_by_key(|(k, _)| *k);
    let mut it = batch.into_iter().peekable();
    let mut run: Vec<ProjectedCell<'_, Bitmap>> = Vec::new();
    match store {
        RegionStore::Dense(slots) => {
            while let Some((idx, first)) = it.next() {
                run.clear();
                while it.peek().is_some_and(|(k, _)| *k == idx) {
                    run.push(it.next().unwrap().1);
                }
                match &mut slots[idx as usize] {
                    Some(existing) => {
                        if run.is_empty() {
                            existing.union_with(first.get());
                        } else {
                            let mut refs: Vec<&Bitmap> = Vec::with_capacity(run.len() + 1);
                            refs.push(first.get());
                            refs.extend(run.iter().map(ProjectedCell::get));
                            existing.union_with_all(&refs);
                        }
                    }
                    slot @ None => {
                        let mut base = first.into_owned();
                        if !run.is_empty() {
                            let refs: Vec<&Bitmap> =
                                run.iter().map(ProjectedCell::get).collect();
                            base.union_with_all(&refs);
                        }
                        *slot = Some(base);
                    }
                }
            }
        }
        RegionStore::Sparse(existing) => {
            // Coalesce runs to owned cells, then merge-join with the
            // existing sorted store.
            let mut coalesced: Vec<(u64, Bitmap)> = Vec::new();
            while let Some((idx, first)) = it.next() {
                run.clear();
                while it.peek().is_some_and(|(k, _)| *k == idx) {
                    run.push(it.next().unwrap().1);
                }
                let mut base = first.into_owned();
                if !run.is_empty() {
                    let refs: Vec<&Bitmap> = run.iter().map(ProjectedCell::get).collect();
                    base.union_with_all(&refs);
                }
                coalesced.push((idx, base));
            }
            let old = std::mem::take(existing);
            *existing = merge_sorted(old, coalesced, Bitmap::union_with);
        }
    }
}

/// Merges two ascending runs of `(key, cell)` pairs into one, combining
/// cells that share a key with `merge`. `batch` may contain duplicate keys
/// (adjacent after its stable sort); `old` never does.
pub(crate) fn merge_sorted<C>(
    old: Vec<(u64, C)>,
    batch: Vec<(u64, C)>,
    merge: impl Fn(&mut C, &C),
) -> Vec<(u64, C)> {
    let mut out: Vec<(u64, C)> = Vec::with_capacity(old.len() + batch.len());
    let mut old_it = old.into_iter().peekable();
    let mut new_it = batch.into_iter().peekable();
    loop {
        let take_old = match (old_it.peek(), new_it.peek()) {
            (Some((ko, _)), Some((kn, _))) => ko <= kn,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        let (key, cell) =
            if take_old { old_it.next().unwrap() } else { new_it.next().unwrap() };
        match out.last_mut() {
            Some((k, existing)) if *k == key => merge(existing, &cell),
            _ => out.push((key, cell)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sorted_combines_duplicates_in_order() {
        let old = vec![(1u64, vec![1]), (5, vec![5])];
        let batch = vec![(0u64, vec![0]), (1, vec![10]), (1, vec![11]), (7, vec![7])];
        let merged = merge_sorted(old, batch, |into, from| into.extend_from_slice(from));
        assert_eq!(
            merged,
            vec![
                (0, vec![0]),
                // Existing run first, then batch entries in batch order.
                (1, vec![1, 10, 11]),
                (5, vec![5]),
                (7, vec![7]),
            ]
        );
    }
}
