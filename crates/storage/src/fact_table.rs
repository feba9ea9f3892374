//! The CFS single-column table: graph node ids ↔ dense fact ids.

use spade_rdf::TermId;
use std::collections::HashMap;

/// A dense identifier of a candidate fact within one CFS (`0..|CFS|`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FactId(pub u32);

impl FactId {
    /// The raw index.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// The candidate fact set table: assigns each member node a dense id.
///
/// Fact ids follow the insertion order of nodes, which downstream code keeps
/// sorted so bitmaps and measure columns iterate in the same order.
#[derive(Clone, Debug, Default)]
pub struct FactTable {
    nodes: Vec<TermId>,
    index: HashMap<TermId, FactId>,
}

impl FactTable {
    /// Builds the table from member nodes (duplicates are ignored).
    pub fn new(members: impl IntoIterator<Item = TermId>) -> Self {
        let mut table = FactTable::default();
        for node in members {
            table.add(node);
        }
        table
    }

    /// Adds one node; returns its fact id (existing or fresh).
    pub(crate) fn add(&mut self, node: TermId) -> FactId {
        if let Some(&id) = self.index.get(&node) {
            return id;
        }
        let id = FactId(u32::try_from(self.nodes.len()).expect("CFS larger than 2^32 facts"));
        self.nodes.push(node);
        self.index.insert(node, id);
        id
    }

    /// Number of facts `|CFS|`.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the CFS is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates `(fact, node)` pairs in fact-id order.
    pub fn iter(&self) -> impl Iterator<Item = (FactId, TermId)> + '_ {
        self.nodes.iter().enumerate().map(|(i, &n)| (FactId(i as u32), n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_ids_in_insertion_order() {
        let t = FactTable::new([TermId(10), TermId(5), TermId(99)]);
        assert_eq!(t.len(), 3);
        let pairs: Vec<_> = t.iter().collect();
        assert_eq!(
            pairs,
            [(FactId(0), TermId(10)), (FactId(1), TermId(5)), (FactId(2), TermId(99))]
        );
    }

    #[test]
    fn duplicates_keep_first_id() {
        let mut t = FactTable::default();
        let a = t.add(TermId(7));
        let b = t.add(TermId(7));
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn iteration_matches_ids() {
        let t = FactTable::new([TermId(3), TermId(1)]);
        let pairs: Vec<_> = t.iter().collect();
        assert_eq!(pairs, vec![(FactId(0), TermId(3)), (FactId(1), TermId(1))]);
    }
}
