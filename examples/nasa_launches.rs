//! Exploring the NASA graph — the Figure 6(b)/(c) stories.
//!
//! The simulated graph reproduces two skews the paper's Spade discovered on
//! the real NASA dataset: (b) "number of launches by launch site and
//! spacecraft/agency" peaks sharply at Plesetsk/Baikonur for USSR
//! spacecraft, and (c) "average mass of spacecrafts by discipline" stands
//! out for Human crew / Microgravity / Life sciences / Repair. Both stories
//! only exist thanks to *path derivations* (`spacecraft/agency`).
//!
//! Run: `cargo run --release --example nasa_launches`

use spade::datagen::{realistic, RealisticConfig};
use spade::prelude::*;

fn main() {
    let graph = realistic::nasa(&RealisticConfig { scale: 1200, seed: 1969 });
    println!("NASA graph: {} triples\n", graph.len());

    let config = SpadeConfig {
        k: 10,
        interestingness: Interestingness::Variance,
        min_support: 0.3,
        dimension_stop_list: vec!["name".into()],
        ..SpadeConfig::default()
    };
    let state = OfflineState::from_graph(graph, 0);
    let report = Spade::new(config).run_on(&state, &RequestConfig::default());

    println!("top-{} aggregates:", report.top.len());
    for (rank, agg) in report.top.iter().enumerate() {
        println!("\n{}. {}   [score {:.4}]", rank + 1, agg.description(), agg.score);
        for (group, value) in agg.sample_groups.iter().take(6) {
            println!("     {group:<44} {value:>14.2}");
        }
    }

    // Check for the two planted stories.
    let launch_story = report
        .top
        .iter()
        .find(|t| t.mda.starts_with("count") && t.dims.iter().any(|d| d == "launchsite"));
    let mass_story = report
        .top
        .iter()
        .find(|t| t.mda.contains("mass") && t.dims.iter().any(|d| d == "discipline"));
    println!("\n=== Figure 6 stories ===");
    println!(
        "(b) launches by launch site: {}",
        launch_story.map_or("not in top-k".into(), |t| t.description())
    );
    println!(
        "(c) spacecraft mass by discipline: {}",
        mass_story.map_or("not in top-k".into(), |t| t.description())
    );
}
