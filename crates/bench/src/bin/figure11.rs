//! Figure 11 / Experiment 5 — run times of the online pipeline steps on
//! twelve synthetic configurations.
//!
//! Configurations: |CFS| = 1M (scaled), N = 3, M ∈ {3, 5, 10}, dimension
//! distinct values "u" = 100:100:100 or "d" = 100:5:2, sparsity ∈ {0.1, 0.5};
//! each bar segment is one pipeline step.
//!
//! Expected shape (R8): Aggregate Evaluation dominates and grows with the
//! number of distinct groups and measures; Online Attribute Analysis is the
//! second-largest cost; CFS selection is negligible.
//!
//! Run: `cargo run -p spade-bench --release --bin figure11 [-- --scale N]`
//! (`--scale` here multiplies the base 50k facts.)

use spade_bench::{ms, HarnessArgs};
use spade_core::{OfflineState, RequestConfig, Spade, SpadeConfig};
use spade_datagen::{synthetic, SyntheticConfig};

fn main() {
    let args = HarnessArgs::parse();
    // Paper: |CFS| = 1M. Scaled: 50k × (scale/400).
    let n_facts = 50_000 * args.scale / spade_bench::DEFAULT_SCALE;

    println!("Figure 11: online pipeline step times, ms (|CFS| = {n_facts}, paper used 1M)");
    println!(
        "{:<12} {:>8} {:>10} {:>8} {:>10} {:>8} {:>10}",
        "config", "CFSsel", "attrAnal", "enum", "eval", "topk", "total"
    );
    spade_bench::rule(72);

    for (dist_name, dims) in [("u", vec![100u32, 100, 100]), ("d", vec![100, 5, 2])] {
        for sparsity in [0.1, 0.5] {
            for m in [3usize, 5, 10] {
                let cfg = SyntheticConfig {
                    n_facts,
                    dim_values: dims.clone(),
                    n_measures: m,
                    sparsity,
                    multi_valued_prob: 0.0,
                    seed: args.seed,
                };
                let state = OfflineState::from_graph(synthetic::generate_graph(&cfg), 0);
                let config = SpadeConfig {
                    min_cfs_size: 100,
                    min_support: 0.5,
                    max_distinct_values: 110,
                    ..Default::default()
                };
                let report = Spade::new(config).run_on(&state, &RequestConfig::default());
                let t = report.timings;
                println!(
                    "{:<12} {:>8} {:>10} {:>8} {:>10} {:>8} {:>10}",
                    format!("{dist_name}|{sparsity}|{m}"),
                    ms(t.cfs_selection),
                    ms(t.attribute_analysis),
                    ms(t.enumeration),
                    ms(t.evaluation),
                    ms(t.topk),
                    ms(t.online_total()),
                );
            }
        }
    }
    println!();
    println!("paper (R8): Aggregate Evaluation dominates, growing with #groups and M;");
    println!("Online Attribute Analysis is 15–37% of total; CFS selection is 5–10 ms.");
}
