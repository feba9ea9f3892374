//! Ablation study of the design choices DESIGN.md calls out:
//!
//! 1. **partition (chunk) size** — ArrayCube's memory/speed knob
//!    (Section 4.1: "cells are grouped in partitions"); the sweep shows the
//!    bookkeeping cost of small chunks vs the memory of one big partition;
//! 2. **cross-lattice sharing** — "Spade ensures that the results of
//!    evaluated MDAs are reused (not recomputed) in the other lattices"
//!    (Section 3 Step 3): evaluation with vs without the dedup map;
//! 3. **early-stop sample size / batches** — the Section 5.3 knobs the
//!    paper fixed empirically at 60 × 2.
//!
//! Run: `cargo run -p spade-bench --release --bin ablation [-- --scale N]`

use spade_bench::{
    analyzed_lattices, build_spec, experiment_config, ms, regen_graph, timed, HarnessArgs,
};
use spade_core::evaluate::evaluate_cfs;
use spade_cube::{mvd_cube, mvd_cube_with_earlystop, EarlyStopConfig, MvdCubeOptions};
use spade_datagen::{synthetic, RealisticConfig, SyntheticConfig};
use spade_storage::AggFn;

fn main() {
    let args = HarnessArgs::parse();

    // —— 1. chunk size sweep on a synthetic cube ——
    let cols = synthetic::generate_columns(&SyntheticConfig {
        n_facts: 100_000 * args.scale / spade_bench::DEFAULT_SCALE,
        dim_values: vec![100, 100, 100],
        n_measures: 5,
        sparsity: 0.1,
        seed: args.seed,
        ..Default::default()
    });
    let dims: Vec<_> = cols.dims.iter().collect();
    let measures: Vec<_> = cols
        .measures
        .iter()
        .map(|m| spade_cube::MeasureSpec { preagg: m, fns: vec![AggFn::Sum, AggFn::Avg] })
        .collect();
    let spec = spade_cube::CubeSpec::new(dims, measures, cols.n_facts);

    println!("Ablation 1: MVDCube partition (chunk) size, {} facts", cols.n_facts);
    println!("{:<16} {:>12} {:>14}", "chunk size", "time ms", "partitions≈");
    spade_bench::rule(46);
    for chunk in [1u32, 2, 4, 8, 16, 32, 101] {
        let opts = MvdCubeOptions { chunk_size: Some(chunk), ..Default::default() };
        let (result, t) = timed(|| mvd_cube(&spec, &opts));
        let parts: u64 =
            spec.domain_sizes().iter().map(|&d| d.div_ceil(chunk.min(d)) as u64).product();
        println!("{:<16} {:>12} {:>14}", chunk, ms(t), parts);
        std::hint::black_box(result.total_groups());
    }
    println!("shape: small chunks pay flush bookkeeping; one partition is fastest when");
    println!("memory allows — the paper partitions to bound memory, not to gain speed.\n");

    // —— 2. cross-lattice sharing on/off (CEOs workload) ——
    let config = experiment_config();
    let mut graph =
        regen_graph("CEOs", &RealisticConfig { scale: args.scale, seed: args.seed });
    let prepared = analyzed_lattices(&mut graph, &config);
    let (with_sharing, t_sharing) = timed(|| {
        prepared
            .iter()
            .map(|(a, l)| evaluate_cfs(a, l, &config).counts.evaluated)
            .sum::<usize>()
    });
    let (without_sharing, t_independent) = timed(|| {
        let mut evaluated = 0usize;
        for (analysis, lattices) in &prepared {
            for l in lattices {
                let spec = build_spec(analysis, l, &config);
                let r = mvd_cube(&spec, &MvdCubeOptions::default());
                evaluated += r.aggregate_count();
            }
        }
        evaluated
    });
    println!("Ablation 2: cross-lattice result sharing (CEOs, scale {})", args.scale);
    println!("{:<24} {:>12} {:>12}", "mode", "aggregates", "time ms");
    spade_bench::rule(52);
    println!("{:<24} {:>12} {:>12}", "shared (Spade)", with_sharing, ms(t_sharing));
    println!("{:<24} {:>12} {:>12}", "independent", without_sharing, ms(t_independent));
    println!("shape: sharing strictly reduces evaluated aggregates and time.\n");

    // —— 3. early-stop sample size × batches ——
    println!("Ablation 3: early-stop sample size × batches (synthetic cube, k=10)");
    println!("{:<10} {:>8} {:>12} {:>10}", "sample", "batches", "time ms", "pruned%");
    spade_bench::rule(44);
    let (_, t_plain) = timed(|| mvd_cube(&spec, &MvdCubeOptions::default()));
    println!("{:<10} {:>8} {:>12} {:>10}", "(off)", "-", ms(t_plain), "-");
    for sample in [20usize, 60, 120] {
        for batches in [1usize, 2, 4] {
            let es =
                EarlyStopConfig { k: 10, sample_size: sample, batches, ..Default::default() };
            let ((_, outcome), t) =
                timed(|| mvd_cube_with_earlystop(&spec, &MvdCubeOptions::default(), &es));
            println!(
                "{:<10} {:>8} {:>12} {:>9.1}%",
                sample,
                batches,
                ms(t),
                100.0 * outcome.pruned_fraction()
            );
        }
    }
    println!("shape: the paper's 60×2 sits at the knee — bigger samples sharpen the CIs");
    println!("but cost more sampling than they save.");
}
