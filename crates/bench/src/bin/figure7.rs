//! Figure 7 / Experiment 1 — interestingness of MDAs with and without
//! derived properties.
//!
//! The figure plots, per dataset, one tick per MDA (variance score) in the
//! woD and wD settings. This binary prints the two distributions as
//! count / max / quartiles so (R1) can be checked: derivations increase
//! both the number of enumerated MDAs and the interestingness of the best
//! ones.
//!
//! Run: `cargo run -p spade-bench --release --bin figure7 [-- --scale N]`

use spade_bench::{experiment_config, HarnessArgs};
use spade_core::{OfflineState, RequestConfig, Spade, SpadeConfig};
use spade_datagen::{realistic, RealisticConfig};

fn scores(state: &OfflineState, config: SpadeConfig) -> Vec<f64> {
    let report = Spade::new(SpadeConfig { k: usize::MAX, ..config })
        .run_on(state, &RequestConfig::default());
    let mut s: Vec<f64> = report.top.iter().map(|t| t.score).collect();
    s.sort_by(f64::total_cmp);
    s
}

fn quartile(s: &[f64], q: f64) -> f64 {
    if s.is_empty() {
        return 0.0;
    }
    s[((s.len() - 1) as f64 * q).round() as usize]
}

fn main() {
    let args = HarnessArgs::parse();
    let cfg = RealisticConfig { scale: args.scale, seed: args.seed };

    println!("Figure 7: interestingness (variance) of MDAs, woD vs wD (scale {})", args.scale);
    println!(
        "{:<10} {:>6} {:>12} {:>12} | {:>6} {:>12} {:>12}",
        "Dataset", "#woD", "median woD", "max woD", "#wD", "median wD", "max wD"
    );
    spade_bench::rule(80);

    for dataset in realistic::all(&cfg) {
        let name = dataset.name;
        let state = OfflineState::from_graph(dataset.graph, 0);
        let wod = scores(&state, experiment_config().without_derivations());
        let wd = scores(&state, experiment_config());
        println!(
            "{:<10} {:>6} {:>12.4} {:>12.4} | {:>6} {:>12.4} {:>12.4}",
            name,
            wod.len(),
            quartile(&wod, 0.5),
            wod.last().copied().unwrap_or(0.0),
            wd.len(),
            quartile(&wd, 0.5),
            wd.last().copied().unwrap_or(0.0),
        );
    }
    println!();
    println!("(R1) expected shape: #wD ≥ #woD on every native-RDF graph (strictly more on");
    println!("CEOs/NASA/Nobel/Foodista/DBLP), equal on Airline (no derivations possible);");
    println!("max-wD ≥ max-woD where derivations apply.");
}
