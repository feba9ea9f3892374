//! Structural summaries of RDF graphs, in the style of RDFQuotient
//! (Goasdoué, Guzewicz, Manolescu — VLDB J. 2020), the tool Spade uses in
//! its offline phase.
//!
//! Section 3: "Upon loading an RDF graph, we first build a structural
//! summary thereof ... The summary captures all the properties occurring in
//! the graph and proposes a set of RDF node groups such that the RDF nodes
//! in each group are considered equivalent. ... RDF nodes in the same
//! equivalence class tend to have many common properties, making them
//! interesting candidates to be analyzed together."
//!
//! [`weak_summary`] builds RDFQuotient's *weak* equivalence over *data*
//! properties (type triples are set aside, as in RDFQuotient): properties
//! are clustered into source cliques (two properties related when they
//! co-occur on some subject, transitively), and nodes are equivalent iff
//! their properties fall in the same clique. Spade's summary-based CFS
//! selection consumes it.

mod union_find;

pub(crate) use union_find::UnionFind;

use spade_rdf::{Graph, TermId};
use std::collections::HashMap;

/// One group of structurally equivalent RDF nodes.
#[derive(Clone, Debug)]
pub struct EquivalenceClass {
    /// Dense class identifier (index into [`Summary::classes`]).
    pub id: usize,
    /// The distinct outgoing data properties of members, sorted.
    pub properties: Vec<TermId>,
    /// The member nodes, sorted.
    pub members: Vec<TermId>,
}

/// A structural summary: a partition of the graph's subject nodes.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// The equivalence classes, largest first.
    pub classes: Vec<EquivalenceClass>,
}

impl Summary {
    fn finish(mut groups: Vec<(Vec<TermId>, Vec<TermId>)>) -> Summary {
        // Largest classes first: those are the interesting CFS candidates.
        groups.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then_with(|| a.0.cmp(&b.0)));
        let mut summary = Summary::default();
        for (id, (mut properties, mut members)) in groups.into_iter().enumerate() {
            properties.sort_unstable();
            properties.dedup();
            members.sort_unstable();
            members.dedup();
            summary.classes.push(EquivalenceClass { id, properties, members });
        }
        summary
    }
}

/// Collects, for every subject, its set of outgoing data properties
/// (excluding `rdf:type`, which RDFQuotient handles separately).
fn subject_property_sets(graph: &Graph) -> HashMap<TermId, Vec<TermId>> {
    let rdf_type = graph.rdf_type_id();
    let mut sets: HashMap<TermId, Vec<TermId>> = HashMap::new();
    for s in graph.subjects().collect::<Vec<_>>() {
        let mut props: Vec<TermId> =
            graph.outgoing(s).iter().map(|(p, _)| *p).filter(|&p| p != rdf_type).collect();
        props.sort_unstable();
        props.dedup();
        if !props.is_empty() {
            sets.insert(s, props);
        }
    }
    sets
}

/// RDFQuotient's weak summary: source-clique quotient.
///
/// Properties `p, q` are in the same source clique when some subject has
/// both outgoing (transitive closure); nodes are equivalent when their
/// property sets fall in the same clique.
pub fn weak_summary(graph: &Graph) -> Summary {
    let sets = subject_property_sets(graph);
    // Union properties co-occurring on a subject.
    let mut prop_index: HashMap<TermId, usize> = HashMap::new();
    for props in sets.values() {
        for &p in props {
            let next = prop_index.len();
            prop_index.entry(p).or_insert(next);
        }
    }
    let mut uf = UnionFind::new(prop_index.len());
    for props in sets.values() {
        let first = prop_index[&props[0]];
        for &p in &props[1..] {
            uf.union(first, prop_index[&p]);
        }
    }
    // Group nodes by the clique of (any of) their properties.
    let mut groups: HashMap<usize, (Vec<TermId>, Vec<TermId>)> = HashMap::new();
    for (node, props) in &sets {
        let clique = uf.find(prop_index[&props[0]]);
        let entry = groups.entry(clique).or_default();
        entry.0.extend_from_slice(props);
        entry.1.push(*node);
    }
    Summary::finish(groups.into_values().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spade_rdf::Term;

    fn iri(s: &str) -> Term {
        Term::iri(format!("http://x/{s}"))
    }

    /// Graph with two clearly distinct node shapes: "CEOs" (name, netWorth)
    /// and "companies" (area).
    fn two_shape_graph() -> Graph {
        let mut g = Graph::new();
        for n in ["n1", "n2", "n3"] {
            g.insert(iri(n), iri("name"), Term::lit(n));
            g.insert(iri(n), iri("netWorth"), Term::int(10));
        }
        for c in ["c1", "c2"] {
            g.insert(iri(c), iri("area"), Term::lit("Automotive"));
        }
        g
    }

    #[test]
    fn weak_summary_merges_overlapping_shapes() {
        // n1 has {name}, n2 has {name, netWorth}, n3 has {netWorth}: three
        // distinct property sets, one weak equivalence class.
        let mut g = Graph::new();
        g.insert(iri("n1"), iri("name"), Term::lit("a"));
        g.insert(iri("n2"), iri("name"), Term::lit("b"));
        g.insert(iri("n2"), iri("netWorth"), Term::int(1));
        g.insert(iri("n3"), iri("netWorth"), Term::int(2));
        let weak = weak_summary(&g);
        assert_eq!(weak.classes.len(), 1);
        assert_eq!(weak.classes[0].members.len(), 3);
        assert_eq!(weak.classes[0].properties.len(), 2);
    }

    #[test]
    fn weak_summary_keeps_disconnected_cliques_apart() {
        let g = two_shape_graph();
        let summary = weak_summary(&g);
        assert_eq!(summary.classes.len(), 2);
    }

    #[test]
    fn rdf_type_is_not_a_data_property() {
        let mut g = Graph::new();
        g.insert(iri("n1"), Term::iri(spade_rdf::vocab::RDF_TYPE), iri("CEO"));
        g.insert(iri("n1"), iri("name"), Term::lit("a"));
        g.insert(iri("n2"), Term::iri(spade_rdf::vocab::RDF_TYPE), iri("CEO"));
        g.insert(iri("n2"), iri("netWorth"), Term::lit("1"));
        let summary = weak_summary(&g);
        // Counted as a property, the shared type would join name and
        // netWorth into one clique and merge n1 with n2.
        assert_eq!(summary.classes.len(), 2);
        for class in &summary.classes {
            assert_eq!(class.properties.len(), 1);
            assert_eq!(class.members.len(), 1);
        }
    }

    #[test]
    fn classes_sorted_largest_first() {
        let g = two_shape_graph();
        let summary = weak_summary(&g);
        for w in summary.classes.windows(2) {
            assert!(w[0].members.len() >= w[1].members.len());
        }
    }
}
