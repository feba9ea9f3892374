//! Robustness: degenerate and adversarial inputs through the full stack.

use spade::prelude::*;
use spade::rdf::Graph;

fn lenient_config() -> SpadeConfig {
    SpadeConfig { min_cfs_size: 1, min_support: 0.1, ..SpadeConfig::default() }
}

#[test]
fn empty_graph_produces_empty_report() {
    let g = Graph::new();
    let report = Spade::new(lenient_config())
        .run_on(&OfflineState::from_graph(g, 0), &RequestConfig::default());
    assert_eq!(report.profile.triples, 0);
    assert_eq!(report.profile.cfs_count, 0);
    assert!(report.top.is_empty());
}

#[test]
fn graph_with_single_triple() {
    let mut g = Graph::new();
    g.insert(Term::iri("http://x/a"), Term::iri("http://x/p"), Term::int(1));
    let report = Spade::new(lenient_config())
        .run_on(&OfflineState::from_graph(g, 0), &RequestConfig::default());
    // One subject, no type: only the summary-based CFS (a single node) can
    // exist; nothing scores > 0, but nothing crashes either.
    assert_eq!(report.profile.triples, 1);
}

#[test]
fn all_facts_identical_scores_zero() {
    let mut g = Graph::new();
    for i in 0..50 {
        let n = Term::iri(format!("http://x/n{i}"));
        g.insert(n.clone(), Term::iri(spade::rdf::vocab::RDF_TYPE), Term::iri("http://x/T"));
        g.insert(n.clone(), Term::iri("http://x/d"), Term::lit("same"));
        g.insert(n.clone(), Term::iri("http://x/m"), Term::int(7));
    }
    let report = Spade::new(lenient_config())
        .run_on(&OfflineState::from_graph(g, 0), &RequestConfig::default());
    // Uniform data: every aggregate is uninteresting, and score-0
    // aggregates are filtered from the top-k entirely (Figure 8 semantics).
    assert!(report.top.iter().all(|t| t.score > 0.0));
}

#[test]
fn unicode_labels_survive_the_pipeline() {
    // 12 facts over 4 cities (ratio 1/3 → dimension) with a distinct-per-
    // fact measure (ratio 1.0 → measure only).
    let config = SpadeConfig { max_distinct_ratio: 0.5, ..lenient_config() };
    let mut g = Graph::new();
    let cities = ["Zürich", "北京", "São Paulo", "Kраків"];
    for i in 0..12 {
        let n = Term::iri(format!("http://x/n{i}"));
        g.insert(n.clone(), Term::iri(spade::rdf::vocab::RDF_TYPE), Term::iri("http://x/T"));
        g.insert(n.clone(), Term::iri("http://x/city"), Term::lit(cities[i % 4]));
        g.insert(n.clone(), Term::iri("http://x/m"), Term::num(i as f64 * 10.0 + 0.5));
    }
    let state = OfflineState::from_graph(g, 0);
    let report = Spade::new(config).run_on(&state, &RequestConfig::default());
    let with_city = report
        .top
        .iter()
        .find(|t| t.dims.iter().any(|d| d == "city"))
        .expect("city dimension used");
    assert!(with_city.sample_groups.iter().any(|(l, _)| l.contains("Zürich")));
    // Round-trip through N-Triples too.
    let nt = spade::rdf::write_ntriples(&state.graph);
    let g2 = parse_ntriples(&nt).unwrap();
    assert_eq!(g2.len(), state.graph.len());
}

#[test]
fn k_zero_and_k_huge() {
    let state = OfflineState::from_graph(spade::datagen::ceos_figure1(), 0);
    let request = RequestConfig::default();
    let zero = Spade::new(SpadeConfig { k: 0, min_cfs_size: 2, ..lenient_config() })
        .run_on(&state, &request);
    assert!(zero.top.is_empty());
    let huge = Spade::new(SpadeConfig {
        k: usize::MAX,
        min_cfs_size: 2,
        max_distinct_ratio: 5.0,
        ..lenient_config()
    })
    .run_on(&state, &request);
    assert!(!huge.top.is_empty());
}

#[test]
fn negative_measure_values() {
    // Temperatures below zero must not break min/max/variance logic.
    let mut g = Graph::new();
    for i in 0..30 {
        let n = Term::iri(format!("http://x/n{i}"));
        g.insert(n.clone(), Term::iri(spade::rdf::vocab::RDF_TYPE), Term::iri("http://x/T"));
        g.insert(
            n.clone(),
            Term::iri("http://x/region"),
            Term::lit(if i % 3 == 0 { "arctic" } else { "tropics" }),
        );
        // Near-continuous values: too many distinct values to qualify as a
        // dimension, so `temp` stays a pure measure.
        g.insert(
            n.clone(),
            Term::iri("http://x/temp"),
            Term::num(if i % 3 == 0 {
                -40.0 - i as f64 * 1.37
            } else {
                30.0 + i as f64 * 0.61
            }),
        );
    }
    let report = Spade::new(lenient_config())
        .run_on(&OfflineState::from_graph(g, 0), &RequestConfig::default());
    let temp_agg = report
        .top
        .iter()
        .find(|t| t.mda.contains("temp"))
        .expect("temperature aggregate found");
    assert!(temp_agg.sample_groups.iter().any(|(_, v)| *v < 0.0));
}

#[test]
fn cyclic_graph_saturation_terminates() {
    // subClassOf cycle: saturation must reach a fixpoint, not loop.
    let mut g = Graph::new();
    g.insert(
        Term::iri("http://x/A"),
        Term::iri(spade::rdf::vocab::RDFS_SUBCLASSOF),
        Term::iri("http://x/B"),
    );
    g.insert(
        Term::iri("http://x/B"),
        Term::iri(spade::rdf::vocab::RDFS_SUBCLASSOF),
        Term::iri("http://x/A"),
    );
    g.insert(
        Term::iri("http://x/n"),
        Term::iri(spade::rdf::vocab::RDF_TYPE),
        Term::iri("http://x/A"),
    );
    spade::rdf::saturate(&mut g);
    let b = g.dict.id_of(&Term::iri("http://x/B")).unwrap();
    assert_eq!(g.nodes_of_type(b).len(), 1);
}

#[test]
fn deep_property_chain_paths() {
    // a → b → c → d: only length-1 paths are derived, but longer chains
    // must not confuse the enumeration.
    let mut g = Graph::new();
    for i in 0..20 {
        let a = Term::iri(format!("http://x/a{i}"));
        let b = Term::iri(format!("http://x/b{i}"));
        let c = Term::iri(format!("http://x/c{i}"));
        g.insert(a.clone(), Term::iri(spade::rdf::vocab::RDF_TYPE), Term::iri("http://x/A"));
        g.insert(a.clone(), Term::iri("http://x/next"), b.clone());
        g.insert(b.clone(), Term::iri("http://x/next"), c.clone());
        g.insert(c.clone(), Term::iri("http://x/kind"), Term::lit(["x", "y"][i % 2]));
        g.insert(a.clone(), Term::iri("http://x/m"), Term::int(i as i64));
    }
    let report = Spade::new(lenient_config())
        .run_on(&OfflineState::from_graph(g, 0), &RequestConfig::default());
    assert!(report.profile.derivations.path > 0);
}
