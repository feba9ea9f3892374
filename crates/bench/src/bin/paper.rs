//! `paper` — reproduces the paper's Section 6: runs the experiments, prints
//! each one's tables, then the scorecard of claims R1–R9 read from them.
//!
//! Usage: `cargo run --release -p spade-bench --bin paper --
//! [--scale <n>] [--seed <n>] [experiment…]`
//!
//! An experiment is named after the figure or table it reproduces
//! (`figure6_8`, `table2`, `figure7`, `figure9`, `table3`, `figure10`,
//! `table4`, `figure11`, `figure12`, `ablation`); with none named, all run.
//! Names that share one pass (`table2` and `figure7`; `figure9`, `table3`
//! and `figure10`) run it once. Exits 1 when a `count` claim fails, and 2 on
//! an unknown experiment name.

use spade_bench::claims::{self, Kind, Verdict};
use spade_bench::experiments::{experiment, EXPERIMENTS};
use spade_bench::HarnessArgs;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = HarnessArgs::parse();
    if let Some(unknown) = args.rest.iter().find(|name| experiment(name).is_none()) {
        let names: Vec<&str> =
            EXPERIMENTS.iter().flat_map(|e| e.names.iter().copied()).collect();
        eprintln!("unknown experiment {unknown:?}; expected one of {}", names.join(", "));
        return ExitCode::from(2);
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# Paper scorecard: scale {}, seed {}, {cores} cores, {}/{}\n",
        args.scale,
        args.seed,
        std::env::consts::OS,
        std::env::consts::ARCH
    );
    let mut tables = Vec::new();
    for e in &EXPERIMENTS {
        if args.rest.is_empty() || e.names.iter().any(|n| args.rest.iter().any(|r| r == n)) {
            for table in (e.run)(&args) {
                println!("{table}");
                tables.push(table);
            }
        }
    }
    let readings = claims::read(&tables);
    if !readings.is_empty() {
        println!("{}", claims::scorecard(&readings));
    }
    if readings.iter().any(|(c, r)| c.kind == Kind::Count && r.verdict == Verdict::Fails) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
