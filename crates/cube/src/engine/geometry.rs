//! Per-node array geometry: domains, chunk extents, strides, and the
//! dense/sparse storage decision.
//!
//! All projection arithmetic happens in *local* (within-region) coordinates:
//! dropping dimension `j` of a parent's local cell space is the same
//! row-major index surgery as in the global space, with chunk extents; the
//! same surgery over chunk counts maps a parent region to the child region
//! it feeds.

use crate::lattice::Lattice;
use crate::translate::strides_for;

/// Cell capacity up to which a region uses dense storage under
/// [`CellStorePolicy::Auto`]. 2^16 cells keeps a dense region under a few
/// megabytes for every cell payload the engine stores while covering all
/// practically chunked lattices (chunk extents are small by construction).
pub const DENSE_CAPACITY_LIMIT: u64 = 1 << 16;

/// Hard ceiling for [`CellStorePolicy::ForceDense`]; beyond this the engine
/// falls back to sparse storage rather than risk an enormous allocation.
const FORCE_DENSE_CEILING: u64 = 1 << 26;

/// How per-region cell storage is chosen.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CellStorePolicy {
    /// Dense when the region capacity is at most [`DENSE_CAPACITY_LIMIT`],
    /// sparse otherwise (the precomputed density threshold).
    #[default]
    Auto,
    /// Dense wherever feasible (capacity-capped); for tests/benchmarks.
    ForceDense,
    /// Always sparse; for tests/benchmarks.
    ForceSparse,
}

/// Per-node geometry: dims, domain/chunk extents, local strides, and the
/// precomputed storage decision.
pub(crate) struct NodeGeom {
    pub(crate) dims: Vec<usize>,
    /// Domain size of each of the node's dims (incl. the null slot).
    domains: Vec<u64>,
    /// Row-major strides over the node's *global* cell space (root load).
    pub(crate) global_strides: Vec<u64>,
    /// Chunk extent of each of the node's dims.
    chunk: Vec<u64>,
    /// Chunk count of each of the node's dims.
    n_chunks: Vec<u64>,
    /// Row-major strides over the node's local (within-region) cell space.
    pub(crate) local_strides: Vec<u64>,
    /// Row-major strides over the node's region (chunk) space.
    pub(crate) region_strides: Vec<u64>,
    /// Cells per region: `Π chunk`.
    pub(crate) capacity: u64,
    /// The precomputed density decision: dense flat array vs sorted sparse.
    pub(crate) dense: bool,
    /// Whether the decision was forced by [`CellStorePolicy::ForceDense`]
    /// (load-based downgrades are disabled so tests exercise the dense
    /// path at every shard granularity).
    pub(crate) dense_forced: bool,
}

impl NodeGeom {
    /// Converts a global cell index of this node to its local index inside
    /// the (unique) region containing it.
    #[inline]
    pub(crate) fn global_to_local(&self, global: u64) -> u64 {
        let mut local = 0u64;
        for k in 0..self.dims.len() {
            let code = (global / self.global_strides[k]) % self.domains[k];
            local += (code % self.chunk[k]) * self.local_strides[k];
        }
        local
    }

    /// The node's region index for a base partition's chunk coordinates
    /// (indexed by *global* dimension).
    #[inline]
    pub(crate) fn region_of(&self, coords: &[u32]) -> u64 {
        self.dims.iter().zip(&self.region_strides).map(|(&d, &s)| coords[d] as u64 * s).sum()
    }

    /// Maps a `(region, local cell)` pair to the node's row-major cell
    /// index over its full domains — the row key of
    /// [`crate::result::NodeResult`] — and whether the cell is visible: no
    /// coordinate sits in its domain's null slot (the last one).
    #[inline]
    pub(crate) fn cell_of(&self, region: u64, local: u64) -> (u64, bool) {
        let mut cell = 0u64;
        let mut visible = true;
        for k in 0..self.dims.len() {
            let coord = (region / self.region_strides[k]) % self.n_chunks[k];
            let code = coord * self.chunk[k] + (local / self.local_strides[k]) % self.chunk[k];
            visible &= code != self.domains[k] - 1;
            cell += code * self.global_strides[k];
        }
        (cell, visible)
    }
}

/// Precomputed projection from a parent node to a child node (one dropped
/// dimension): `child = (idx / (d·below)) · below + idx mod below`, applied
/// in *local* (within-region) coordinates for cells and in chunk
/// coordinates for regions.
pub(crate) struct Projection {
    pub(crate) child_mask: u32,
    /// Chunk extent of the dropped dimension (parent local space).
    pub(crate) local_d: u64,
    /// Product of parent chunk extents after the dropped position.
    pub(crate) local_below: u64,
    pub(crate) region_d: u64,
    pub(crate) region_below: u64,
}

pub(crate) fn node_geom(lattice: &Lattice, mask: u32, policy: CellStorePolicy) -> NodeGeom {
    let dims = lattice.dims_of(mask);
    let domains32: Vec<u32> = dims.iter().map(|&i| lattice.domains[i]).collect();
    let chunk32: Vec<u32> = dims.iter().map(|&i| lattice.chunks[i]).collect();
    let n_chunks_all = lattice.n_chunks();
    let chunks32: Vec<u32> = dims.iter().map(|&i| n_chunks_all[i]).collect();
    let capacity = chunk32
        .iter()
        .map(|&c| c as u64)
        .try_fold(1u64, u64::checked_mul)
        .expect("region capacity overflows u64");
    let dense = match policy {
        CellStorePolicy::Auto => capacity <= DENSE_CAPACITY_LIMIT,
        CellStorePolicy::ForceDense => capacity <= FORCE_DENSE_CEILING,
        CellStorePolicy::ForceSparse => false,
    };
    let dense_forced = dense && policy == CellStorePolicy::ForceDense;
    NodeGeom {
        global_strides: strides_for(&domains32),
        domains: domains32.iter().map(|&d| d as u64).collect(),
        local_strides: strides_for(&chunk32),
        chunk: chunk32.iter().map(|&c| c as u64).collect(),
        n_chunks: chunks32.iter().map(|&c| c as u64).collect(),
        region_strides: strides_for(&chunks32),
        capacity,
        dense,
        dense_forced,
        dims,
    }
}

#[inline]
pub(crate) fn project(idx: u64, d: u64, below: u64) -> u64 {
    (idx / (d * below)) * below + idx % below
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::Lattice;

    #[test]
    fn project_removes_first_axis() {
        // Space [4,2] (strides [2,1]); dropping axis 0: d=4, below=2 →
        // child = idx mod 2.
        for idx in 0..8u64 {
            assert_eq!(project(idx, 4, 2), idx % 2);
        }
    }

    #[test]
    fn project_removes_last_axis() {
        // Dropping axis 1 of [4,2]: d=2, below=1 → child = idx / 2.
        for idx in 0..8u64 {
            assert_eq!(project(idx, 2, 1), idx / 2);
        }
    }

    #[test]
    fn project_removes_middle_axis() {
        // Space [3,4,5], strides [20,5,1]. Drop middle axis (d=4, below=5):
        // child space [3,5], child = a*5 + c.
        for a in 0..3u64 {
            for b in 0..4u64 {
                for c in 0..5u64 {
                    let idx = a * 20 + b * 5 + c;
                    assert_eq!(project(idx, 4, 5), a * 5 + c);
                }
            }
        }
    }

    fn geom_for(lattice: &Lattice, mask: u32) -> NodeGeom {
        node_geom(lattice, mask, CellStorePolicy::Auto)
    }

    #[test]
    fn cell_of_is_row_major_and_marks_nulls() {
        // Dims {0, 2} of a 3-dim lattice: domains [4, 5], chunks [2, 2].
        let lattice = Lattice::new(vec![4, 9, 5], vec![2, 3, 2]);
        let geom = geom_for(&lattice, 0b101);
        for a in 0..4u64 {
            for b in 0..5u64 {
                let region =
                    (a / 2) * geom.region_strides[0] + (b / 2) * geom.region_strides[1];
                let local = (a % 2) * geom.local_strides[0] + (b % 2) * geom.local_strides[1];
                assert_eq!(geom.cell_of(region, local), (a * 5 + b, a != 3 && b != 4));
            }
        }
    }

    #[test]
    fn global_to_local_strips_region_offsets() {
        let lattice = Lattice::new(vec![6, 4], vec![2, 2]);
        let geom = geom_for(&lattice, 0b11);
        for a in 0..6u64 {
            for b in 0..4u64 {
                let global = a * geom.global_strides[0] + b * geom.global_strides[1];
                let local = geom.global_to_local(global);
                assert_eq!(local, (a % 2) * geom.local_strides[0] + (b % 2));
            }
        }
    }

    #[test]
    fn region_of_follows_partition_coords() {
        let lattice = Lattice::new(vec![6, 4, 9], vec![2, 2, 3]);
        let geom = geom_for(&lattice, 0b101);
        // Node dims {0, 2}: chunk counts [3, 3], region strides [3, 1].
        assert_eq!(geom.region_of(&[2, 1, 0]), 6);
        assert_eq!(geom.region_of(&[0, 1, 2]), 2);
    }

    #[test]
    fn auto_policy_uses_capacity_threshold() {
        // Chunk extents 2×2 → capacity 4: dense.
        let small = Lattice::new(vec![1000, 1000], vec![2, 2]);
        assert!(geom_for(&small, 0b11).dense);
        // One giant chunk per dim → capacity 10^6 > 2^16: sparse.
        let big = Lattice::new(vec![1000, 1000], vec![1000, 1000]);
        assert!(!geom_for(&big, 0b11).dense);
        assert!(!node_geom(&big, 0b11, CellStorePolicy::ForceSparse).dense);
        assert!(node_geom(&big, 0b11, CellStorePolicy::ForceDense).dense);
    }
}
