//! Quickstart: find the k most interesting aggregates in an RDF graph.
//!
//! This loads an N-Triples document (the paper's Figure 1 CEOs example,
//! serialized on the fly), runs the full Spade pipeline, and prints the
//! top-k aggregates with a preview of their groups.
//!
//! Run: `cargo run --release --example quickstart`

use spade::prelude::*;

fn main() {
    // Any N-Triples source works; we serialize the built-in Figure 1 graph
    // to demonstrate the parser path a real application would use.
    let nt = spade::rdf::write_ntriples(&spade::datagen::ceos_figure1());
    let graph = parse_ntriples(&nt).expect("valid N-Triples");
    println!("loaded {} triples over {} subjects\n", graph.len(), graph.subject_count());

    let config = SpadeConfig {
        k: 5,
        interestingness: Interestingness::Variance,
        min_cfs_size: 2, // the example graph has only 2 CEOs
        min_support: 0.4,
        max_distinct_ratio: 5.0, // tiny graph: allow high-cardinality dims
        ..SpadeConfig::default()
    };
    // The offline phase (saturation, offline attribute analysis) runs once
    // per graph, on every core (`0`); each request then runs the five
    // online steps on the state.
    let state = OfflineState::from_graph(graph, 0);
    let report = Spade::new(config).run_on(&state, &RequestConfig::default());

    println!(
        "analyzed {} CFSs, {} direct properties, {} derived properties,",
        report.profile.cfs_count,
        report.profile.direct_properties,
        report.profile.derivations.total()
    );
    println!(
        "enumerated {} aggregates in {:?}\n",
        report.profile.aggregates,
        report.timings.online_total()
    );

    println!("top-{} most interesting aggregates (variance):", report.top.len());
    for (rank, agg) in report.top.iter().enumerate() {
        println!("{}. [score {:.3e}] {}", rank + 1, agg.score, agg.description());
        for (group, value) in agg.sample_groups.iter().take(4) {
            println!("     {group:<30} {value:>16.2}");
        }
    }
}
