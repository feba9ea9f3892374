//! Using the cube layer directly: evaluate one lattice of MDAs over your
//! own columns, without the automatic pipeline.
//!
//! This reproduces the paper's Example 3 ("number of CEOs grouped by
//! nationality, gender, and area of the companies they manage") plus
//! Variations 1–2, on the exact Figure 1 data — and shows the classical
//! ArrayCube/PGCube errors side by side with MVDCube's correct results.
//!
//! Run: `cargo run --release --example cube_api`

use spade::cube::{array_cube, mvd_cube, pg_cube, PgCubeVariant};
use spade::prelude::*;
use spade::storage::{CategoricalColumn, NumericColumn};

fn main() {
    // The two CEOs of Figure 1, as storage columns.
    let nationality = CategoricalColumn::from_rows(
        "nationality",
        &[vec!["Angola"], vec!["Brazil", "France", "Lebanon", "Nigeria"]],
    );
    let gender = CategoricalColumn::from_rows("gender", &[vec!["Female"], vec![]]);
    let area = CategoricalColumn::from_rows(
        "company/area",
        &[vec!["Diamond", "Manufacturer", "Natural gas"], vec!["Automotive", "Manufacturer"]],
    );
    let net_worth =
        NumericColumn::from_rows("netWorth", &[vec![2.8e9], vec![1.2e8]]).preaggregate();
    let age = NumericColumn::from_rows("age", &[vec![47.0], vec![66.0]]).preaggregate();

    let spec = CubeSpec::new(
        vec![&nationality, &gender, &area],
        vec![
            MeasureSpec { preagg: &net_worth, fns: vec![AggFn::Sum] },
            MeasureSpec { preagg: &age, fns: vec![AggFn::Avg] },
        ],
        2,
    );
    // `threads` parallelizes *within* this one lattice: the region-sharded
    // engine fans the flush cascade and measure emit out over the workers
    // (0 = all cores). MVDCube results are invariant under the shard
    // decomposition — cells are set unions, measures are computed from
    // complete cells — so this is purely a latency knob for the
    // single-big-lattice interactive shape: any value is bit-identical to
    // `threads: 1`. (In the full pipeline, `SpadeConfig::threads` feeds
    // the same knob through `evaluate_cfs`.)
    let opts = MvdCubeOptions { threads: 0, ..Default::default() };

    let correct = mvd_cube(&spec, &opts);
    let classical = array_cube(&spec, &opts);
    let postgres = pg_cube(&spec, PgCubeVariant::Distinct, &opts);

    // The A4 node of Figure 4: count of CEOs by company/area alone.
    let area_mask = 0b100;
    println!("count of CEOs / sum(netWorth) / avg(age) by company/area:");
    println!(
        "{:<14} {:>22} {:>22} {:>22}",
        "group", "MVDCube (correct)", "ArrayCube", "PGCube^d"
    );
    let node = correct.node(area_mask).unwrap();
    // Groups come in ascending key order.
    for (key, _) in node.visible_groups() {
        let label = area.label(key[0]);
        let fmt = |r: &spade::cube::CubeResult| {
            let v = r.node(area_mask).unwrap().get(&key).unwrap();
            format!(
                "{:>6} {:>9.2e} {:>5.1}",
                v[0].unwrap_or(f64::NAN),
                v[1].unwrap_or(f64::NAN),
                v[2].unwrap_or(f64::NAN)
            )
        };
        println!(
            "{:<14} {:>22} {:>22} {:>22}",
            label,
            fmt(&correct),
            fmt(&classical),
            fmt(&postgres)
        );
    }
    println!();
    println!("ArrayCube counts 5 Manufacturer CEOs (Figure 4's bug) and PGCube^d fixes");
    println!("the count but not sum/avg (Variations 1-2); MVDCube is correct throughout.");
}
