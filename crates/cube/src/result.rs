//! Cube evaluation results, as columns.
//!
//! Every evaluation algorithm (MVDCube, ArrayCube, PGCube) produces a
//! [`CubeResult`] of identical shape so Experiments 2–3 can compare them
//! group by group: one [`NodeResult`] per lattice node. The engine appends
//! rows as regions flush; the baselines and test oracles, which produce
//! `(group key, values)` pairs, go through the one constructor
//! [`NodeResult::from_groups`].
//!
//! # The columns
//!
//! A node's groups are the rows of three parallel columns:
//!
//! * **cells** — each group's cell index in the node's own row-major array
//!   over its dimensions' domains (the null slot included), strictly
//!   ascending;
//! * **visibility** — whether the group has a value on every dimension;
//! * **values** — the per-MDA values, row-major in one vector: row `i` is
//!   `values[i · width .. (i + 1) · width]`, `width` being the MDA count.
//!
//! A group key — the node's dimension value codes, ascending dimension
//! order, null as [`NULL_CODE`] — is decoded from the cell index when asked
//! for ([`NodeResult::groups`], [`NodeResult::get`]); no row stores one.
//!
//! # Why row order is key order
//!
//! Null is the last slot of every domain and [`NULL_CODE`] is `u32::MAX`, so
//! the map from a coordinate to its key code preserves order, and a
//! row-major index compares exactly as its coordinates do lexicographically.
//! Ascending cell index is therefore ascending key order — the order the
//! Aggregate Result Manager must push values in, floating-point
//! accumulation not being associative ([`crate::arm`]). Scoring reads the
//! rows front to back: no collect, no sort, no hash.
//!
//! The engine emits a region's cells in ascending local order, so an
//! unchunked single-shard lattice appends rows already sorted; when a node's
//! regions arrive out of key order (chunked or multi-shard plans) its rows
//! are sorted once, after the last region.
//!
//! # Visibility
//!
//! Null groups are kept — they are required to compute descendant nodes
//! correctly (Figure 4: "Since n₂ lacks gender information, the tuples t₄
//! to t₁₁ have gender=null. We need to keep them to compute the rest of the
//! lattice correctly") — but they are *not* part of the user-facing
//! aggregate result: per Section 2, a CF missing a dimension "does not
//! contribute to the result". Whether a row is visible is decided once, when
//! it is appended, and scoring (`NodeResult::visible_rows`) skips the
//! rest.

use std::collections::HashMap;

/// The group-key code marking a null dimension value.
///
/// Internally the cube gives null the last slot of each dimension's domain
/// ("We add the special value null in the domain of each dimension",
/// Section 4.3); group keys remap it to this sentinel so consumers can
/// recognize nulls without knowing domain sizes. Being the largest `u32`,
/// it sorts where the slot it stands for does.
pub const NULL_CODE: u32 = u32::MAX;

/// One group as the evaluators that do not run the engine produce it:
/// `(key, per-MDA values)`, the input of [`NodeResult::from_groups`].
pub(crate) type Group = (Vec<u32>, Vec<Option<f64>>);

/// The result of one lattice node, as columns (see the module docs).
///
/// In a row's values, `None` means no fact in the group carried that MDA's
/// measure (or early-stop pruned the MDA).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NodeResult {
    /// Bitmask over the lattice's dimensions (bit `i` = dim `i` grouped on).
    pub mask: u32,
    /// The dimension indexes, ascending (redundant with `mask`, convenient).
    pub dims: Vec<usize>,
    /// Domain size of each of `dims`, the null slot included.
    pub(crate) domains: Vec<u32>,
    /// Values per row: the number of MDAs.
    width: usize,
    /// Row-major cell index of each row, ascending once sorted.
    cells: Vec<u64>,
    /// Whether each row has a value on every dimension.
    visible: Vec<bool>,
    /// Per-MDA values, row-major.
    values: Vec<Option<f64>>,
}

impl NodeResult {
    /// An empty node. `domains` are the domain sizes (null slot included)
    /// of *every* lattice dimension; the node keeps those of its own.
    pub(crate) fn new(mask: u32, domains: &[u32], width: usize) -> Self {
        let dims: Vec<usize> = (0..32).filter(|i| mask & (1 << i) != 0).collect();
        let domains = dims.iter().map(|&d| domains[d]).collect();
        NodeResult { mask, dims, domains, width, ..Default::default() }
    }

    /// Builds a node from `(group key, per-MDA values)` pairs in any order —
    /// the one constructor of every evaluator that does not run the engine.
    /// `domains` are the domain sizes of every lattice dimension (null slot
    /// included, as [`crate::CubeSpec::domain_sizes`] gives them), `width`
    /// the MDA count. Keys use [`NULL_CODE`] for null.
    ///
    /// # Panics
    ///
    /// If a key has the wrong length or a code outside its domain, a value
    /// vector is not `width` long, or two groups share a key.
    pub fn from_groups(
        mask: u32,
        domains: &[u32],
        width: usize,
        groups: impl IntoIterator<Item = Group>,
    ) -> Self {
        let mut node = NodeResult::new(mask, domains, width);
        for (key, values) in groups {
            let cell = node.encode(&key).expect("group key outside the node's domains");
            assert_eq!(values.len(), width, "group {key:?} has the wrong number of values");
            node.push_row(cell, !key.contains(&NULL_CODE), values);
        }
        node.sort_rows();
        assert!(node.cells.windows(2).all(|w| w[0] < w[1]), "two groups share a key");
        node
    }

    /// Appends one row. `visible` must say whether the cell has a value on
    /// every dimension; `values` must yield exactly `width` values.
    pub(crate) fn push_row(
        &mut self,
        cell: u64,
        visible: bool,
        values: impl IntoIterator<Item = Option<f64>>,
    ) {
        self.cells.push(cell);
        self.visible.push(visible);
        self.values.extend(values);
        debug_assert_eq!(self.values.len(), self.cells.len() * self.width);
    }

    /// Appends another part of the same node, row order kept.
    pub(crate) fn append(&mut self, mut other: NodeResult) {
        debug_assert_eq!((self.mask, self.width), (other.mask, other.width));
        if self.cells.is_empty() {
            *self = other;
            return;
        }
        self.cells.append(&mut other.cells);
        self.visible.append(&mut other.visible);
        self.values.append(&mut other.values);
    }

    /// Puts the rows in ascending cell (= key) order, if they are not
    /// already.
    pub(crate) fn sort_rows(&mut self) {
        if self.cells.is_sorted() {
            return;
        }
        let mut order: Vec<usize> = (0..self.cells.len()).collect();
        order.sort_unstable_by_key(|&i| self.cells[i]);
        let cells = order.iter().map(|&i| self.cells[i]).collect();
        let visible = order.iter().map(|&i| self.visible[i]).collect();
        let values = order.iter().flat_map(|&i| self.row(i)).copied().collect();
        (self.cells, self.visible, self.values) = (cells, visible, values);
    }

    /// The cell index of a group key, `None` if the key does not fit the
    /// node's domains.
    fn encode(&self, key: &[u32]) -> Option<u64> {
        if key.len() != self.domains.len() {
            return None;
        }
        key.iter().zip(&self.domains).try_fold(0u64, |cell, (&code, &domain)| {
            let slot = match code {
                NULL_CODE => domain - 1,
                value if value < domain - 1 => value,
                _ => return None,
            };
            Some(cell * domain as u64 + slot as u64)
        })
    }

    /// The group key of a cell index, null as [`NULL_CODE`].
    fn decode(&self, mut cell: u64) -> Vec<u32> {
        let mut key = vec![0u32; self.domains.len()];
        for (code, &domain) in key.iter_mut().zip(&self.domains).rev() {
            let c = (cell % domain as u64) as u32;
            *code = if c == domain - 1 { NULL_CODE } else { c };
            cell /= domain as u64;
        }
        key
    }

    fn row(&self, i: usize) -> &[Option<f64>] {
        &self.values[i * self.width..(i + 1) * self.width]
    }

    fn group(&self, i: usize) -> (Vec<u32>, &[Option<f64>]) {
        (self.decode(self.cells[i]), self.row(i))
    }

    /// Number of stored groups, including internal null groups.
    pub fn group_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of user-facing groups.
    pub fn visible_group_count(&self) -> usize {
        self.visible.iter().filter(|&&v| v).count()
    }

    /// The rows as stored: `(cell index, visible, values)`, the cell index
    /// taken in the node's row-major geometry, ascending.
    pub fn rows(&self) -> impl Iterator<Item = (u64, bool, &[Option<f64>])> {
        (0..self.cells.len()).map(|i| (self.cells[i], self.visible[i], self.row(i)))
    }

    /// Every group, null groups included, as `(key, values)` in ascending
    /// key order.
    pub fn groups(&self) -> impl Iterator<Item = (Vec<u32>, &[Option<f64>])> {
        (0..self.cells.len()).map(|i| self.group(i))
    }

    /// The user-facing groups — those where every dimension has a value
    /// (`W`, the tuple count the interestingness function ranges over) — as
    /// `(key, values)` in ascending key order.
    pub fn visible_groups(&self) -> impl Iterator<Item = (Vec<u32>, &[Option<f64>])> {
        (0..self.cells.len()).filter(|&i| self.visible[i]).map(|i| self.group(i))
    }

    /// The values of the user-facing groups in ascending key order — the
    /// rows scoring reads.
    pub(crate) fn visible_rows(&self) -> impl Iterator<Item = &[Option<f64>]> {
        self.rows().filter(|&(_, visible, _)| visible).map(|(_, _, values)| values)
    }

    /// The values of the group with this key (null as [`NULL_CODE`]), if
    /// the node has it.
    pub fn get(&self, key: &[u32]) -> Option<&[Option<f64>]> {
        let cell = self.encode(key)?;
        self.cells.binary_search(&cell).ok().map(|i| self.row(i))
    }

    /// The values of MDA `mda` across *visible* groups, skipping missing
    /// ones, ascending — the multiset `{t₁.v, …, t_W.v}` handed to `h`.
    pub fn mda_values(&self, mda: usize) -> Vec<f64> {
        let mut vals: Vec<f64> = self.visible_rows().filter_map(|v| v[mda]).collect();
        vals.sort_by(f64::total_cmp);
        vals
    }
}

/// The full lattice result.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CubeResult {
    /// MDA labels, indexing each row's values.
    pub mda_labels: Vec<String>,
    /// Results per lattice node, keyed by dimension mask.
    pub nodes: HashMap<u32, NodeResult>,
}

impl CubeResult {
    /// Creates an empty result carrying the MDA labels.
    pub fn new(mda_labels: Vec<String>) -> Self {
        CubeResult { mda_labels, nodes: HashMap::new() }
    }

    /// The node result for a dimension mask.
    pub fn node(&self, mask: u32) -> Option<&NodeResult> {
        self.nodes.get(&mask)
    }

    /// Total number of `(node, mda)` aggregates represented.
    pub fn aggregate_count(&self) -> usize {
        self.nodes.len() * self.mda_labels.len()
    }

    /// Total number of groups across all nodes.
    pub fn total_groups(&self) -> usize {
        self.nodes.values().map(|n| n.group_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_dims_follow_mask() {
        let n = NodeResult::new(0b101, &[4, 5, 6], 1);
        assert_eq!(n.dims, vec![0, 2]);
        assert_eq!(n.domains, vec![4, 6]);
        assert_eq!(NodeResult::new(0, &[4], 1).dims, Vec::<usize>::new());
    }

    #[test]
    fn mda_values_skip_missing() {
        let n = NodeResult::from_groups(
            0b1,
            &[3],
            2,
            [(vec![0], vec![Some(3.0), None]), (vec![1], vec![Some(1.0), Some(9.0)])],
        );
        assert_eq!(n.mda_values(0), vec![1.0, 3.0]);
        assert_eq!(n.mda_values(1), vec![9.0]);
    }

    #[test]
    fn rows_are_in_key_order_with_null_last() {
        // Domains [3, 2] (two values + null, one value + null), keys given
        // out of order: rows come back sorted, null after every value.
        let groups = [
            (vec![NULL_CODE, 0], vec![Some(5.0)]),
            (vec![1, NULL_CODE], vec![Some(4.0)]),
            (vec![0, 0], vec![Some(1.0)]),
            (vec![1, 0], vec![Some(3.0)]),
        ];
        let n = NodeResult::from_groups(0b11, &[3, 2], 1, groups.clone());
        let keys: Vec<Vec<u32>> = n.groups().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![vec![0, 0], vec![1, 0], vec![1, NULL_CODE], vec![NULL_CODE, 0]]);
        let cells: Vec<u64> = n.rows().map(|(cell, _, _)| cell).collect();
        assert_eq!(cells, vec![0, 2, 3, 4]);
        assert_eq!(n.visible_group_count(), 2);
        let visible: Vec<&[Option<f64>]> = n.visible_rows().collect();
        assert_eq!(visible, vec![&[Some(1.0)][..], &[Some(3.0)][..]]);
        for (key, values) in &groups {
            assert_eq!(n.get(key), Some(&values[..]));
        }
        assert_eq!(n.get(&[0, NULL_CODE]), None);
        assert_eq!(n.get(&[2, 0]), None, "code 2 is the null slot, not a value");
    }

    #[test]
    #[should_panic(expected = "share a key")]
    fn duplicate_keys_are_rejected() {
        NodeResult::from_groups(0b1, &[3], 1, [(vec![0], vec![None]), (vec![0], vec![None])]);
    }

    #[test]
    fn aggregate_count_multiplies() {
        let mut r = CubeResult::new(vec!["count(*)".into(), "sum(x)".into()]);
        r.nodes.insert(0b1, NodeResult::new(0b1, &[2], 2));
        r.nodes.insert(0b0, NodeResult::new(0b0, &[2], 2));
        assert_eq!(r.aggregate_count(), 4);
    }
}
