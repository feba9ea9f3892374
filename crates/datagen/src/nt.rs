//! N-Triples corpus generation for the ingestion benchmark.
//!
//! The pinned benchmark's `offline_build` workload measures the full
//! offline phase — parse, dictionary encode, index build, RDFS saturation
//! — so its inputs must be *text* (the simulated graphs of
//! [`crate::realistic`] serialized to `.nt`) and must carry an ontology for
//! saturation to chew on (the simulated graphs themselves contain no schema
//! triples). [`nt_corpus`] produces both: a named Table-2 graph with a
//! deterministic RDFS overlay, serialized in insertion order.

use crate::realistic;
use crate::RealisticConfig;
use spade_rdf::{vocab, write_ntriples, Graph, Term, TermId};

/// Serializes `graph` to N-Triples text (one triple per line, insertion
/// order preserved). Thin re-export of [`spade_rdf::write_ntriples`] so
/// generators and benches have one entry point.
pub fn to_ntriples(graph: &Graph) -> String {
    write_ntriples(graph)
}

/// Overlays a deterministic RDFS ontology onto `graph` and returns the
/// number of schema triples added:
///
/// * every class gets a `subClassOf` chain of `depth` fresh superclasses
///   (so every typed node gains `depth` derived types);
/// * every second data property gets a fresh superproperty;
/// * every fourth property a `domain`, every fourth (offset) a `range`
///   declaration over the first chain's classes.
///
/// Iteration orders are sorted by `TermId`, so the overlay is identical
/// across runs.
pub fn add_ontology(graph: &mut Graph, ns: &str, depth: usize) -> usize {
    let sub_class = Term::iri(vocab::RDFS_SUBCLASSOF);
    let sub_prop = Term::iri(vocab::RDFS_SUBPROPERTYOF);
    let mut added = 0usize;

    let mut classes: Vec<TermId> = graph.classes().collect();
    classes.sort_unstable();
    for (i, class) in classes.into_iter().enumerate() {
        let mut lower = graph.dict.term(class).clone();
        for level in 1..=depth {
            let upper = Term::iri(format!("http://{ns}/Sup{i}_{level}"));
            if graph.insert(lower, sub_class.clone(), upper.clone()) {
                added += 1;
            }
            lower = upper;
        }
    }

    let rdf_type = graph.rdf_type_id();
    let mut props: Vec<TermId> = graph.properties().filter(|&p| p != rdf_type).collect();
    props.sort_unstable();
    for (j, p) in props.into_iter().enumerate() {
        let p_term = graph.dict.term(p).clone();
        if j % 2 == 0 {
            let sup = Term::iri(format!("http://{ns}/superProp{j}"));
            if graph.insert(p_term.clone(), sub_prop.clone(), sup) {
                added += 1;
            }
        }
        if j % 4 == 0 {
            let dom = Term::iri(format!("http://{ns}/Sup0_1"));
            if graph.insert(p_term.clone(), Term::iri(vocab::RDFS_DOMAIN), dom) {
                added += 1;
            }
        }
        if j % 4 == 2 {
            let rng = Term::iri(format!("http://{ns}/Sup0_1"));
            if graph.insert(p_term, Term::iri(vocab::RDFS_RANGE), rng) {
                added += 1;
            }
        }
    }
    added
}

/// Generates the named simulated graph (as in [`realistic`]), overlays an
/// RDFS ontology of the given subclass-chain depth, and serializes it to
/// N-Triples — the standard offline-phase benchmark input.
pub fn nt_corpus(name: &str, cfg: &RealisticConfig, ontology_depth: usize) -> String {
    let mut graph = match name {
        "Airline" => realistic::airline(cfg),
        "CEOs" => realistic::ceos(cfg),
        "DBLP" => realistic::dblp(cfg),
        "Foodista" => realistic::foodista(cfg),
        "NASA" => realistic::nasa(cfg),
        "Nobel" => realistic::nobel(cfg),
        other => panic!("unknown dataset {other}"),
    };
    if ontology_depth > 0 {
        add_ontology(&mut graph, "ont.example.org", ontology_depth);
    }
    to_ntriples(&graph)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_roundtrips_and_carries_schema() {
        let cfg = RealisticConfig { scale: 40, seed: 3 };
        let nt = nt_corpus("CEOs", &cfg, 4);
        let g = spade_rdf::parse_ntriples(&nt).unwrap();
        assert!(g.len() > 100);
        let sub_class =
            g.dict.id_of(&Term::iri(vocab::RDFS_SUBCLASSOF)).expect("schema present");
        assert!(!g.property_pairs(sub_class).is_empty());
        // Saturation has real work: derived types appear.
        let mut g = g;
        assert!(spade_rdf::saturate(&mut g) > 0);
    }

    #[test]
    fn corpus_is_deterministic() {
        let cfg = RealisticConfig { scale: 25, seed: 9 };
        assert_eq!(nt_corpus("NASA", &cfg, 3), nt_corpus("NASA", &cfg, 3));
    }
}
