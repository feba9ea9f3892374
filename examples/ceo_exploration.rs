//! Computational Lead Finding on a CEOs graph — the paper's motivating
//! application (Section 1): a journalist looks for statistical "leads" in
//! an RDF graph of CEOs, their companies, and political connections.
//!
//! The simulated graph plants a Luanda-Leaks-style story (Angolan CEOs with
//! outlier net worth); Spade surfaces it automatically, without the
//! journalist writing a single SPARQL query.
//!
//! Run: `cargo run --release --example ceo_exploration`

use spade::datagen::{realistic, RealisticConfig};
use spade::prelude::*;

fn main() {
    let graph = realistic::ceos(&RealisticConfig { scale: 800, seed: 2024 });
    println!("CEOs graph: {} triples\n", graph.len());

    // Journalists care about deviations from uniformity → variance. The
    // human-in-the-loop stop list (Section 6.1) excludes a dimension the
    // user finds statistically sound but meaningless.
    let config = SpadeConfig {
        k: 8,
        interestingness: Interestingness::Variance,
        min_support: 0.3,
        dimension_stop_list: vec!["name".into()],
        ..SpadeConfig::default()
    }
    .with_early_stop();

    let state = OfflineState::from_graph(graph, 0);
    let report = Spade::new(config).run_on(&state, &RequestConfig::default());

    println!(
        "evaluated {} aggregates ({} pruned early by the probabilistic early-stop)\n",
        report.evaluated_aggregates, report.pruned_by_es
    );
    println!("=== leads, most statistically surprising first ===");
    for (rank, agg) in report.top.iter().enumerate() {
        println!("\n{}. [score {:.4}]", rank + 1, agg.score);
        // Histogram / heat map / table, depending on dimensionality
        // (the paper's Section 1 presentation rule).
        print!("{}", spade::core::viz::render(agg));
    }

    // The planted Luanda-Leaks lead: Angola dominating a netWorth aggregate.
    let lead = report
        .top
        .iter()
        .find(|t| t.mda.contains("netWorth") && t.dims.iter().any(|d| d == "nationality"));
    match lead {
        Some(t) => println!(
            "\n>>> lead found: \"{}\" — check the Angola group (Dos Santos pattern).",
            t.description()
        ),
        None => println!("\n(no nationality × netWorth lead in the top-k this seed)"),
    }
}
