//! The dimension lattice and the Minimum Memory Spanning Tree (MMST).
//!
//! Given `N` dimensions, the lattice has `2^N` nodes, one per dimension
//! subset (Figure 1(c)); node masks use bit `i` for dimension `i`. ArrayCube
//! evaluates all nodes in one pass by choosing, for each non-root node, a
//! parent to compute it from, "hence forming a spanning tree of the lattice.
//! The memory needed … depends on the ordering of dimensions, their numbers
//! of distinct values, and the partition size. ArrayCube chooses the tree
//! that minimizes the overall memory needed; it is called the MMST"
//! (Section 4.1).
//!
//! The memory charged to a node with dimension set `S`, computed from the
//! parent `S ∪ {j}`, is the classical ArrayCube quantity
//!
//! ```text
//! mem(S, j) = Π_{i ∈ S, i < j} |D_i|  ×  Π_{i ∈ S, i > j} c_i
//! ```
//!
//! (`|D_i|` = full domain size including the null slot, `c_i` = distinct
//! values per partition along dimension `i`): dimensions *before* the
//! dropped axis must be held at full extent, those after only at chunk
//! granularity. The root holds one partition: `Π c_i` cells.
//!
//! This module also exposes the [`Theorem 1`](Lattice::max_correct_nodes)
//! quantities: with `K` multi-valued dimensions, at most `2^{N−K}` lattice
//! nodes can be computed correctly from parent results.

use std::collections::HashMap;

/// The lattice over `N` dimensions with their array geometry.
#[derive(Clone, Debug, PartialEq)]
pub struct Lattice {
    /// Domain size per dimension (distinct values + null).
    pub domains: Vec<u32>,
    /// Partition (chunk) size per dimension, `1 ≤ c_i ≤ |D_i|`.
    pub chunks: Vec<u32>,
}

impl Lattice {
    /// Builds a lattice; chunk sizes are clamped into `[1, |D_i|]`.
    pub fn new(domains: Vec<u32>, chunks: Vec<u32>) -> Self {
        assert_eq!(domains.len(), chunks.len());
        assert!(!domains.is_empty() && domains.len() <= 20, "1..=20 dimensions supported");
        let chunks = domains.iter().zip(chunks).map(|(&d, c)| c.clamp(1, d.max(1))).collect();
        Lattice { domains, chunks }
    }

    /// Number of dimensions `N`.
    pub(crate) fn n_dims(&self) -> usize {
        self.domains.len()
    }

    /// The root node mask (all dimensions).
    pub(crate) fn root_mask(&self) -> u32 {
        (1u32 << self.n_dims()) - 1
    }

    /// All `2^N` node masks, root first (descending popcount, then value).
    pub fn nodes(&self) -> Vec<u32> {
        let mut masks: Vec<u32> = (0..=self.root_mask()).collect();
        masks.sort_by_key(|m| (std::cmp::Reverse(m.count_ones()), *m));
        masks
    }

    /// Number of partition chunks along each dimension.
    pub(crate) fn n_chunks(&self) -> Vec<u32> {
        self.domains.iter().zip(&self.chunks).map(|(&d, &c)| d.div_ceil(c)).collect()
    }

    /// Ascending dimension indexes of a mask.
    pub(crate) fn dims_of(&self, mask: u32) -> Vec<usize> {
        (0..self.n_dims()).filter(|i| mask & (1 << i) != 0).collect()
    }

    /// Memory (in cells) to compute node `mask` from the parent that drops
    /// dimension `dropped` — the ArrayCube formula above.
    pub(crate) fn memory_from(&self, mask: u32, dropped: usize) -> u128 {
        debug_assert_eq!(mask & (1 << dropped), 0, "dropped dim must be outside the node");
        let mut mem: u128 = 1;
        for i in self.dims_of(mask) {
            mem *= if i < dropped { self.domains[i] as u128 } else { self.chunks[i] as u128 };
        }
        mem
    }

    /// Memory of the root: one partition's worth of cells, `Π c_i`.
    pub(crate) fn root_memory(&self) -> u128 {
        self.chunks.iter().map(|&c| c as u128).product()
    }

    /// Builds the MMST: each non-root node picks the parent minimizing its
    /// memory charge (ties broken toward the smallest dropped dimension).
    pub(crate) fn mmst(&self) -> Mmst {
        let root = self.root_mask();
        let mut parent = HashMap::new();
        let mut children: HashMap<u32, Vec<u32>> = HashMap::new();
        let mut memory = HashMap::new();
        memory.insert(root, self.root_memory());
        for mask in self.nodes() {
            if mask == root {
                continue;
            }
            let (best_drop, best_mem) = (0..self.n_dims())
                .filter(|&j| mask & (1 << j) == 0)
                .map(|j| (j, self.memory_from(mask, j)))
                .min_by_key(|&(j, m)| (m, j))
                .expect("non-root node always has a parent");
            let parent_mask = mask | (1 << best_drop);
            parent.insert(mask, (parent_mask, best_drop));
            children.entry(parent_mask).or_default().push(mask);
            memory.insert(mask, best_mem);
        }
        for kids in children.values_mut() {
            kids.sort_unstable();
        }
        Mmst { root, parent, children, memory }
    }

    /// Theorem 1(ii): the maximum number of lattice nodes computable
    /// correctly from parent results when `K = |MD|` dimensions are
    /// multi-valued is `2^{N−K}`.
    pub fn max_correct_nodes(&self, multi_valued: &[usize]) -> u64 {
        1u64 << (self.n_dims() - multi_valued.len())
    }
}

/// The Minimum Memory Spanning Tree over the lattice.
#[derive(Clone, Debug)]
pub(crate) struct Mmst {
    /// Root mask (all dimensions).
    pub root: u32,
    /// `child mask → (parent mask, dropped dimension)`.
    pub parent: HashMap<u32, (u32, usize)>,
    /// `parent mask → child masks` (sorted).
    pub children: HashMap<u32, Vec<u32>>,
    /// Per-node memory charge in cells.
    pub memory: HashMap<u32, u128>,
}

impl Mmst {
    /// Children of a node in the tree.
    pub(crate) fn children_of(&self, mask: u32) -> &[u32] {
        self.children.get(&mask).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Masks in top-down (parents before children) order.
    pub(crate) fn topological(&self) -> Vec<u32> {
        let mut order = Vec::with_capacity(self.memory.len());
        let mut stack = vec![self.root];
        while let Some(mask) = stack.pop() {
            order.push(mask);
            stack.extend_from_slice(self.children_of(mask));
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 3's geometry: nationality |5|, gender |2|, company/area |4|
    /// (ignoring nulls for this test), 2 distinct values per partition.
    fn example3_lattice() -> Lattice {
        Lattice::new(vec![5, 2, 4], vec![2, 2, 2])
    }

    #[test]
    fn lattice_has_2n_nodes() {
        let l = example3_lattice();
        assert_eq!(l.nodes().len(), 8);
        assert_eq!(l.root_mask(), 0b111);
        assert_eq!(l.nodes()[0], 0b111); // root first
        assert_eq!(*l.nodes().last().unwrap(), 0); // grand total last
    }

    #[test]
    fn memory_formula_matches_hand_computation() {
        let l = example3_lattice();
        // Node {gender, area} = dims {1,2}, parent drops dim 0 (nationality):
        // both dims are after the dropped axis → c₁·c₂ = 4 cells.
        assert_eq!(l.memory_from(0b110, 0), 4);
        // Node {nationality, gender} = dims {0,1}, parent drops dim 2:
        // both before the dropped axis → D₀·D₁ = 10 cells.
        assert_eq!(l.memory_from(0b011, 2), 10);
        // Node {nationality, area} = dims {0,2}, parent drops dim 1 (gender):
        // nationality before (D₀=5), area after (c₂=2) → 10.
        assert_eq!(l.memory_from(0b101, 1), 10);
    }

    #[test]
    fn mmst_prefers_cheapest_parent() {
        let l = example3_lattice();
        let mmst = l.mmst();
        // {gender} (mask 0b010) can be computed by dropping nationality
        // (mem = c₁ = 2) or area (mem = D₁ = 2): tie → smallest dim (0).
        assert_eq!(mmst.parent[&0b010], (0b011, 0));
        // {area} (mask 0b100): dropping dim 0 gives c₂=2, dropping dim 1
        // gives c₂=2 (area still after dim 1): tie → dim 0.
        assert_eq!(mmst.parent[&0b100], (0b101, 0));
        // Every non-root node has a parent with exactly one more dim.
        for mask in l.nodes() {
            if mask != l.root_mask() {
                let (p, j) = mmst.parent[&mask];
                assert_eq!(p, mask | (1 << j));
                assert_eq!(p.count_ones(), mask.count_ones() + 1);
            }
        }
    }

    #[test]
    fn mmst_memory_is_minimal_among_spanning_choices() {
        // Brute-force all parent choices on a 3-dim lattice and check the
        // greedy per-node argmin equals the global minimum (parent choices
        // are independent across nodes, so per-node argmin is optimal).
        let l = Lattice::new(vec![7, 3, 9], vec![3, 2, 4]);
        let mmst = l.mmst();
        for mask in l.nodes() {
            if mask == l.root_mask() {
                continue;
            }
            let best = (0..3)
                .filter(|&j| mask & (1 << j) == 0)
                .map(|j| l.memory_from(mask, j))
                .min()
                .unwrap();
            assert_eq!(mmst.memory[&mask], best, "node {mask:b}");
        }
    }

    #[test]
    fn paper_memory_bound_holds_for_uniform_dims() {
        // "Assuming N dimensions with d distinct values each and c distinct
        // values per partition, the MMST uses at most
        // M_T = c^N + (d+1+c)^{N−1} array cells" (Section 4.3, after [49]).
        // Our lattice additionally carries the grand-total (apex) node,
        // which holds exactly one cell, hence the +1.
        for (n, d, c) in [(2usize, 10u32, 3u32), (3, 8, 2), (4, 5, 2)] {
            let l = Lattice::new(vec![d + 1; n], vec![c; n]); // +1 = null slot
            let total: u128 = l.mmst().memory.values().sum();
            let bound = (c as u128).pow(n as u32) + ((d + 1 + c) as u128).pow(n as u32 - 1) + 1;
            assert!(total <= bound, "N={n} d={d} c={c}: {total} > {bound}");
        }
    }

    #[test]
    fn topological_order_is_parent_first() {
        let l = example3_lattice();
        let mmst = l.mmst();
        let order = mmst.topological();
        assert_eq!(order.len(), 8);
        let pos: HashMap<u32, usize> = order.iter().enumerate().map(|(i, &m)| (m, i)).collect();
        for (&child, &(parent, _)) in &mmst.parent {
            assert!(pos[&parent] < pos[&child]);
        }
    }

    #[test]
    fn theorem1_correct_node_budget() {
        let l = example3_lattice();
        // All three dims multi-valued → only the root (2^0) is safe.
        assert_eq!(l.max_correct_nodes(&[0, 1, 2]), 1);
        // One multi-valued dim → half the lattice.
        assert_eq!(l.max_correct_nodes(&[1]), 4);
        // Theorem 1's characterization: a node is safe iff it retains every
        // multi-valued dimension (here dimension 1).
        let retains = |mask: u32| mask & (1 << 1) != 0;
        assert!(retains(0b111));
        assert!(retains(0b011));
        assert!(!retains(0b101));
        // The count of retaining nodes equals 2^{N-K}.
        let retaining = l.nodes().iter().filter(|&&m| retains(m)).count() as u64;
        assert_eq!(retaining, l.max_correct_nodes(&[1]));
    }

    #[test]
    fn chunk_counts() {
        let l = example3_lattice();
        assert_eq!(l.n_chunks(), vec![3, 1, 2]);
        assert_eq!(l.root_memory(), 8);
    }
}
