//! Table 2 — dataset profile: #triples, #CFSs, #P, #A without derivations,
//! #DP per kind (kw, lang, count, path), #A with derivations.
//!
//! Run: `cargo run -p spade-bench --release --bin table2 [-- --scale N]`

use spade_bench::{experiment_config, HarnessArgs};
use spade_core::{OfflineState, RequestConfig, Spade};
use spade_datagen::{realistic, RealisticConfig};

fn main() {
    let args = HarnessArgs::parse();
    let cfg = RealisticConfig { scale: args.scale, seed: args.seed };

    println!("Table 2: real datasets used for testing (simulated, scale {})", args.scale);
    println!(
        "{:<10} {:>9} {:>6} {:>5} {:>8} | {:>5} {:>5} {:>6} {:>6} | {:>8}",
        "Dataset", "#triples", "#CFSs", "#P", "#A woD", "kw", "lang", "count", "path", "#A wD"
    );
    spade_bench::rule(92);

    for dataset in realistic::all(&cfg) {
        // Derivations are enumerated per run, so one state serves both.
        let state = OfflineState::from_graph(dataset.graph, 0);
        let request = RequestConfig::default();
        let wod_report =
            Spade::new(experiment_config().without_derivations()).run_on(&state, &request);
        let wd_report = Spade::new(experiment_config()).run_on(&state, &request);

        let d = wd_report.profile.derivations;
        println!(
            "{:<10} {:>9} {:>6} {:>5} {:>8} | {:>5} {:>5} {:>6} {:>6} | {:>8}",
            dataset.name,
            wd_report.profile.triples,
            wd_report.profile.cfs_count,
            wd_report.profile.direct_properties,
            wod_report.profile.aggregates,
            d.kw,
            d.lang,
            d.count,
            d.path,
            wd_report.profile.aggregates,
        );
    }
    println!();
    println!("Paper (Table 2, real dumps): Airline 56M/1/30/5923 woD, 0 DP, 5923 wD;");
    println!("CEOs 85k/237/61/159 woD, 501 DP, 27860 wD; … — shapes to compare:");
    println!("(1) Airline gets no derivations; (2) native-RDF graphs multiply #A via DP.");
}
