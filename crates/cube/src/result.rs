//! Cube evaluation results.
//!
//! Every evaluation algorithm (MVDCube, ArrayCube, PGCube) produces a
//! [`CubeResult`] of identical shape so Experiments 2–3 can compare them
//! group by group: one [`NodeResult`] per lattice node, each mapping a group
//! key (the dimension value codes, with nulls) to the per-MDA aggregated
//! values.

use std::collections::HashMap;

/// The group-key code marking a null dimension value.
///
/// Internally the cube gives null the last slot of each dimension's domain
/// ("We add the special value null in the domain of each dimension",
/// Section 4.3); emitted group keys remap it to this sentinel so consumers
/// can recognize nulls without knowing domain sizes.
///
/// Null groups are kept in [`NodeResult::groups`] — they are required to
/// compute descendant nodes correctly (Figure 4: "Since n₂ lacks gender
/// information, the tuples t₄ to t₁₁ have gender=null. We need to keep them
/// to compute the rest of the lattice correctly") — but they are *not* part
/// of the user-facing aggregate result: per Section 2, a CF missing a
/// dimension "does not contribute to the result". [`NodeResult::mda_values`]
/// therefore skips them when scoring interestingness.
pub const NULL_CODE: u32 = u32::MAX;

/// Display form of [`NULL_CODE`].
pub const NULL_CODE_SENTINEL: &str = "null";

/// The result of one lattice node: `group key → per-MDA value`.
///
/// `values[i] = None` means no fact in the group carried MDA `i`'s measure.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NodeResult {
    /// Bitmask over the lattice's dimensions (bit `i` = dim `i` grouped on).
    pub mask: u32,
    /// The dimension indexes, ascending (redundant with `mask`, convenient).
    pub dims: Vec<usize>,
    /// Aggregated values per group.
    pub groups: HashMap<Vec<u32>, Vec<Option<f64>>>,
}

impl NodeResult {
    /// Creates an empty result for a node.
    pub fn new(mask: u32) -> Self {
        let dims = (0..32).filter(|i| mask & (1 << i) != 0).collect();
        NodeResult { mask, dims, groups: HashMap::new() }
    }

    /// Number of stored groups, including internal null groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The user-facing groups: those where every dimension has a value
    /// (`W`, the tuple count the interestingness function ranges over).
    pub fn visible_groups(&self) -> impl Iterator<Item = (&Vec<u32>, &Vec<Option<f64>>)> {
        self.groups.iter().filter(|(k, _)| !k.contains(&NULL_CODE))
    }

    /// Number of user-facing groups.
    pub fn visible_group_count(&self) -> usize {
        self.visible_groups().count()
    }

    /// The values of MDA `mda` across *visible* groups, skipping missing
    /// ones — the vector `{t₁.v, …, t_W.v}` handed to `h`.
    pub fn mda_values(&self, mda: usize) -> Vec<f64> {
        let mut vals: Vec<f64> = self.visible_groups().filter_map(|(_, v)| v[mda]).collect();
        // Deterministic order for reproducible scoring.
        vals.sort_by(f64::total_cmp);
        vals
    }
}

/// The full lattice result.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CubeResult {
    /// MDA labels, indexing the per-group value vectors.
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
        let n = NodeResult::new(0b101);
        assert_eq!(n.dims, vec![0, 2]);
        assert_eq!(NodeResult::new(0).dims, Vec::<usize>::new());
    }

    #[test]
    fn mda_values_skip_missing() {
        let mut n = NodeResult::new(0b1);
        n.groups.insert(vec![0], vec![Some(3.0), None]);
        n.groups.insert(vec![1], vec![Some(1.0), Some(9.0)]);
        assert_eq!(n.mda_values(0), vec![1.0, 3.0]);
        assert_eq!(n.mda_values(1), vec![9.0]);
    }

    #[test]
    fn aggregate_count_multiplies() {
        let mut r = CubeResult::new(vec!["count(*)".into(), "sum(x)".into()]);
        r.nodes.insert(0b1, NodeResult::new(0b1));
        r.nodes.insert(0b0, NodeResult::new(0b0));
        assert_eq!(r.aggregate_count(), 4);
    }
}
