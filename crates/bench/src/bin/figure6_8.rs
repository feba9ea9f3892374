//! Figures 6 and 8 — example interesting and uninteresting aggregates
//! found by Spade (qualitative result; variance as the score).
//!
//! Figure 6's stories on the real data: (a) min netWorth of CEOs by gender
//! and occupation has male-philanthropist/shareholder outliers; (b) launch
//! counts by launchsite × spacecraft/agency peak at Plesetsk/Baikonur for
//! USSR; (c) avg spacecraft mass by discipline peaks for Human crew /
//! Microgravity / Life sciences / Repair. The simulated graphs plant the
//! same stories; this binary shows where they rank.
//!
//! Run: `cargo run -p spade-bench --release --bin figure6_8 [-- --scale N]`

use spade_bench::{experiment_config, HarnessArgs};
use spade_core::{OfflineState, RequestConfig, Spade, SpadeConfig};
use spade_datagen::{realistic, RealisticConfig};

fn main() {
    let args = HarnessArgs::parse();
    let cfg = RealisticConfig { scale: args.scale, seed: args.seed };

    for (name, graph) in [("CEOs", realistic::ceos(&cfg)), ("NASA", realistic::nasa(&cfg))] {
        let config = SpadeConfig { k: 8, ..experiment_config() };
        let state = OfflineState::from_graph(graph, 0);
        let report = Spade::new(config).run_on(&state, &RequestConfig::default());

        println!("=== Figure 6 — top interesting aggregates on {name} ===");
        for (rank, t) in report.top.iter().enumerate() {
            println!("{:>2}. [score {:>12.4}] {}", rank + 1, t.score, t.description());
            for (label, value) in t.sample_groups.iter().take(6) {
                println!("       {label:<40} {value:>14.2}");
            }
        }
        println!();
    }

    // Figure 8: uninteresting aggregates — near-uniform results rank last.
    let state = OfflineState::from_graph(realistic::ceos(&cfg), 0);
    let config = SpadeConfig { k: usize::MAX, ..experiment_config() };
    let report = Spade::new(config).run_on(&state, &RequestConfig::default());
    println!("=== Figure 8 — least interesting (near-uniform) aggregates on CEOs ===");
    for t in report.top.iter().rev().take(5) {
        println!("    [score {:>12.6}] {}", t.score, t.description());
    }
    println!();
    println!(
        "paper's example: 'min numOf(occupations) by gender, numOf(companies)' — all \
         values uniformly 1 → variance 0, ranked last"
    );
}
