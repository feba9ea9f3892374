//! MVDCube — Multi-Valued Data Cube (Section 4.3, Algorithm 1).
//!
//! The first correct and efficient one-pass lattice evaluation for RDF
//! MDAs. Cube cells hold Roaring bitmaps of fact IDs; as a dimension is
//! projected away from parent to child, bitmaps are unioned, so "if a fact
//! has multiple values of the dimension, it belongs to different cells in
//! the parent node, but will be consolidated in the same cell in the child
//! node". Measures are only computed when a node's memory region is flushed,
//! by joining each cell's bitmap with the per-fact pre-aggregated measures
//! (`⊗`), which are ordered by fact ID like the bitmaps.

use crate::engine::{run_engine, CellStorePolicy};
use crate::exec::ExecCtx;
use crate::lattice::Lattice;
use crate::result::CubeResult;
use crate::spec::CubeSpec;
use crate::translate::Translation;
use spade_parallel::Cancelled;
use std::collections::HashMap;

/// Tuning knobs for an MVDCube run.
#[derive(Clone, Copy, Debug)]
pub struct MvdCubeOptions {
    /// Distinct values per partition along every dimension; `None` picks
    /// `max(1, ⌈|D_i|/4⌉)` (≤ 4 chunks per dimension).
    pub chunk_size: Option<u32>,
    /// Seed of the (optional) early-stop sample: each group's sample is its
    /// `sample_size` facts of smallest `splitmix64(seed ^ fact id)`
    /// (`fact_priority` in `translate`), so one seed fixes the sample at
    /// every thread count, and the same facts are preferred in every lattice
    /// evaluated under it.
    pub seed: u64,
    /// Dense/sparse cell storage selection (see [`CellStorePolicy`]).
    pub store_policy: CellStorePolicy,
    /// Worker threads for the region-sharded engine *within this one
    /// lattice* (`0` = all cores, `1` = serial). A pure latency knob:
    /// MVDCube results are plan-invariant (see the engine module docs), so
    /// every value yields bit-identical results. Read by the plain forms
    /// only ([`mvd_cube`], [`prepare`], [`mvd_cube_pruned`], …), which
    /// start their [`ExecCtx`] with it; the context forms take the count
    /// from the context they are handed.
    pub threads: usize,
    /// Target shard weight override for the region-sharded executor
    /// (`None` = auto); exposed for tests and benchmarks so equivalence
    /// properties can sweep shard granularities.
    pub shard_weight: Option<u64>,
}

impl Default for MvdCubeOptions {
    fn default() -> Self {
        MvdCubeOptions {
            chunk_size: None,
            seed: 0xC0FFEE,
            store_policy: CellStorePolicy::Auto,
            threads: 1,
            shard_weight: None,
        }
    }
}

/// Per-dimension chunk sizes for a spec under the given options.
///
/// With `chunk_size: None`, small fact sets get a single partition (the
/// whole array fits in memory and the flush bookkeeping would dominate)
/// while large ones are split into ≤ 4 chunks per dimension, matching the
/// paper's memory-bounded operation.
pub(crate) fn chunk_sizes(
    domains: &[u32],
    options: &MvdCubeOptions,
    n_facts: usize,
) -> Vec<u32> {
    domains
        .iter()
        .map(|&d| {
            let auto = if n_facts < 200_000 { d.max(1) } else { d.div_ceil(4) };
            options.chunk_size.unwrap_or(auto).clamp(1, d.max(1))
        })
        .collect()
}

/// Builds the lattice and translation for a spec (shared with baselines and
/// the pipeline so comparisons and benchmarks use identical layouts).
pub fn prepare(
    spec: &CubeSpec<'_>,
    options: &MvdCubeOptions,
    sample_capacity: Option<usize>,
) -> (Lattice, Translation) {
    ExecCtx::unbounded(options.threads, |cx| prepare_in(spec, options, sample_capacity, cx))
}

/// [`prepare`] under an [`ExecCtx`]: translation fans out over
/// `cx.threads` and polls the budget per work item, so a cancelled request
/// unwinds during translation instead of running it to completion. Records
/// a `translate` span with cell/fact counts.
pub fn prepare_in(
    spec: &CubeSpec<'_>,
    options: &MvdCubeOptions,
    sample_capacity: Option<usize>,
    cx: &ExecCtx<'_>,
) -> Result<(Lattice, Translation), Cancelled> {
    let domains = spec.domain_sizes();
    let chunks = chunk_sizes(&domains, options, spec.n_facts);
    let lattice = Lattice::new(domains, chunks);
    let translation =
        crate::translate::translate_in(spec, &lattice, sample_capacity, options.seed, cx)?;
    Ok((lattice, translation))
}

/// Evaluates the full lattice with MVDCube.
pub fn mvd_cube(spec: &CubeSpec<'_>, options: &MvdCubeOptions) -> CubeResult {
    ExecCtx::unbounded(options.threads, |cx| {
        let (lattice, translation) = prepare_in(spec, options, None, cx)?;
        run_engine(spec, &lattice, &translation, None, options, cx)
    })
}

/// Evaluates with a per-node MDA liveness map (early-stop output): dead
/// MDAs are not computed, and MMST subtrees with no live descendant are not
/// even propagated into.
pub fn mvd_cube_pruned(
    spec: &CubeSpec<'_>,
    options: &MvdCubeOptions,
    lattice: &Lattice,
    translation: &Translation,
    alive: &HashMap<u32, Vec<bool>>,
) -> CubeResult {
    ExecCtx::unbounded(options.threads, |cx| {
        mvd_cube_pruned_in(spec, options, lattice, translation, alive, cx)
    })
}

/// [`mvd_cube_pruned`] under an [`ExecCtx`]: the engine polls the budget
/// between region flushes and merge/emit tasks and unwinds with
/// [`Cancelled`] in bounded time once the deadline passes. Checks never
/// alter the computation, so a completed run is bit-identical to
/// [`mvd_cube_pruned`]. Records per-shard child spans (see the engine
/// module docs).
pub fn mvd_cube_pruned_in(
    spec: &CubeSpec<'_>,
    options: &MvdCubeOptions,
    lattice: &Lattice,
    translation: &Translation,
    alive: &HashMap<u32, Vec<bool>>,
    cx: &ExecCtx<'_>,
) -> Result<CubeResult, Cancelled> {
    run_engine(spec, lattice, translation, Some(alive), options, cx)
}

/// Runs early-stop pruning and then evaluates the surviving MDAs — the
/// integration described in Section 5.3. Both the pruning loop and the
/// evaluation fan out over `options.threads`. Pruning costs in proportion
/// to the sample and saves the measure join of what it prunes, not the
/// translation or the bitmap cascade: on the pinned 150 k-fact
/// `cube_earlystop` case, at one thread on a 2-core x86-64 VM, it takes
/// 29.1 ms to [`mvd_cube`]'s 30.2 ms (medians of 15 alternating calls).
pub fn mvd_cube_with_earlystop(
    spec: &CubeSpec<'_>,
    options: &MvdCubeOptions,
    config: &crate::earlystop::EarlyStopConfig,
) -> (CubeResult, crate::earlystop::EarlyStopOutcome) {
    ExecCtx::unbounded(options.threads, |cx| {
        let (lattice, translation) = prepare_in(spec, options, Some(config.sample_size), cx)?;
        let samples = translation.samples.as_ref().expect("sampling was enabled");
        let outcome = crate::earlystop::prune_in(spec, &lattice, samples, config, cx)?;
        let result =
            mvd_cube_pruned_in(spec, options, &lattice, &translation, &outcome.alive, cx)?;
        Ok((result, outcome))
    })
}

#[cfg(test)]
pub(crate) mod fixtures {
    //! The running example of Figures 1 and 4: Dos Santos (fact 0) and
    //! Ghosn (fact 1), with the exact dimensions/measures of Example 3 and
    //! Variations 1–2.

    use spade_storage::{CategoricalColumn, NumericColumn, PreAggregated};

    pub struct CeosExample {
        pub nationality: CategoricalColumn,
        pub gender: CategoricalColumn,
        pub area: CategoricalColumn,
        pub net_worth: PreAggregated,
        pub age: PreAggregated,
    }

    pub fn ceos() -> CeosExample {
        CeosExample {
            nationality: CategoricalColumn::from_rows(
                "nationality",
                &[vec!["Angola"], vec!["Brazil", "France", "Lebanon", "Nigeria"]],
            ),
            gender: CategoricalColumn::from_rows("gender", &[vec!["Female"], vec![]]),
            area: CategoricalColumn::from_rows(
                "company/area",
                &[
                    vec!["Diamond", "Manufacturer", "Natural gas"],
                    vec!["Automotive", "Manufacturer"],
                ],
            ),
            net_worth: NumericColumn::from_rows("netWorth", &[vec![2.8e9], vec![1.2e8]])
                .preaggregate(),
            age: NumericColumn::from_rows("age", &[vec![47.0], vec![66.0]]).preaggregate(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::ceos;
    use super::*;
    use crate::engine_baseline::mvd_cube_baseline;
    use crate::spec::MeasureSpec;
    use spade_storage::{AggFn, NumericColumn};

    /// Example 3's lattice: D = {nationality, gender, company/area} with
    /// count(*), plus Variation 1 (sum netWorth) and Variation 2 (avg age).
    fn example3_result() -> CubeResult {
        let data = ceos();
        let spec = CubeSpec::new(
            vec![&data.nationality, &data.gender, &data.area],
            vec![
                MeasureSpec { preagg: &data.net_worth, fns: vec![AggFn::Sum] },
                MeasureSpec { preagg: &data.age, fns: vec![AggFn::Avg] },
            ],
            2,
        );
        mvd_cube(&spec, &MvdCubeOptions::default())
    }

    /// Figure 4's A1: the root has exactly the 11 tuples t1–t11, all with
    /// count(*) = 1.
    #[test]
    fn figure4_root_has_eleven_singleton_groups() {
        let result = example3_result();
        let root = result.node(0b111).unwrap();
        assert_eq!(root.group_count(), 11);
        for (_, values) in root.groups() {
            assert_eq!(values[0], Some(1.0));
        }
    }

    /// Figure 4's A4 (count of CEOs by company/area), *correct* semantics:
    /// Manufacturer counts 2 CEOs, not the erroneous 5.
    #[test]
    fn example3_area_counts_distinct_ceos() {
        let result = example3_result();
        // dims order: nationality(0), gender(1), area(2) → area alone = 0b100.
        let area_node = result.node(0b100).unwrap();
        // area labels sorted: Automotive(0), Diamond(1), Manufacturer(2),
        // Natural gas(3), null(4).
        let counts: Vec<(u32, f64)> =
            area_node.groups().map(|(k, v)| (k[0], v[0].unwrap())).collect();
        let get = |code: u32| counts.iter().find(|(c, _)| *c == code).map(|(_, v)| *v);
        assert_eq!(get(0), Some(1.0)); // Automotive: Ghosn
        assert_eq!(get(1), Some(1.0)); // Diamond: Dos Santos
        assert_eq!(get(2), Some(2.0)); // Manufacturer: both — not 5!
        assert_eq!(get(3), Some(1.0)); // Natural gas
        assert_eq!(get(4), None); // no CEO without an area
    }

    /// Figure 4's A3 (count by gender): Female counts 1 CEO, not 3; Ghosn's
    /// null gender is kept internally (tuples t4–t11 semantics) but is not
    /// part of the visible result.
    #[test]
    fn example3_gender_counts() {
        use crate::result::NULL_CODE;
        let result = example3_result();
        let gender_node = result.node(0b010).unwrap();
        // gender labels: Female(0); Ghosn's missing gender → null group.
        assert_eq!(gender_node.get(&[0]).unwrap()[0], Some(1.0));
        assert_eq!(gender_node.get(&[NULL_CODE]).unwrap()[0], Some(1.0));
        assert_eq!(gender_node.visible_group_count(), 1);
        assert_eq!(gender_node.mda_values(0), vec![1.0]);
    }

    /// Variation 1: sum of netWorth by company/area. Each CEO contributes
    /// exactly once: Manufacturer = 2.8B + 120M (not 2.8B + 4·120M).
    #[test]
    fn variation1_sum_netweorth_by_area() {
        let result = example3_result();
        let area_node = result.node(0b100).unwrap();
        let manufacturer = area_node.get(&[2]).unwrap();
        assert_eq!(manufacturer[1], Some(2.8e9 + 1.2e8));
    }

    /// Variation 2: avg age by company/area over Manufacturer =
    /// (47+66)/2 = 56.5 (not (47+4·66)/5).
    #[test]
    fn variation2_avg_age_by_area() {
        let result = example3_result();
        let area_node = result.node(0b100).unwrap();
        let manufacturer = area_node.get(&[2]).unwrap();
        assert_eq!(manufacturer[2], Some(56.5));
    }

    /// The grand total (mask 0) counts both CEOs once.
    #[test]
    fn grand_total_counts_two_ceos() {
        let result = example3_result();
        let total = result.node(0).unwrap();
        assert_eq!(total.group_count(), 1);
        let values = total.get(&[]).unwrap();
        assert_eq!(values[0], Some(2.0));
        assert_eq!(values[1], Some(2.8e9 + 1.2e8));
        assert_eq!(values[2], Some(56.5));
    }

    /// Example 1 (Section 2): "the result for Example 1 is
    /// {(Angola, $2.8B)}, due to n1, whereas n2 does not contribute to the
    /// result as it lacks the countryOfOrigin dimension."
    #[test]
    fn example1_missing_dimension() {
        let data = ceos();
        let country = spade_storage::CategoricalColumn::from_rows(
            "countryOfOrigin",
            &[vec!["Angola"], vec![]],
        );
        let spec = CubeSpec::new(
            vec![&country],
            vec![MeasureSpec { preagg: &data.net_worth, fns: vec![AggFn::Sum] }],
            2,
        );
        let result = mvd_cube(&spec, &MvdCubeOptions::default());
        let node = result.node(0b1).unwrap();
        assert_eq!(node.get(&[0]).unwrap()[1], Some(2.8e9));
        // The visible result is exactly {(Angola, $2.8B)}.
        assert_eq!(node.mda_values(1), vec![2.8e9]);
        assert_eq!(node.visible_group_count(), 1);
    }

    /// A single-valued measure whose values are `-0.0` has MIN and MAX
    /// `-0.0`, in the engine as in the baseline: the value column holds the
    /// value itself, not a sum that starts at `+0.0`.
    #[test]
    fn negative_zero_minimum_and_maximum_match_the_baseline() {
        let data = ceos();
        let zero = NumericColumn::from_rows("z", &[vec![-0.0], vec![-0.0]]).preaggregate();
        assert!(zero.is_single_valued());
        let spec = CubeSpec::new(
            vec![&data.nationality, &data.area],
            vec![MeasureSpec { preagg: &zero, fns: vec![AggFn::Sum, AggFn::Min, AggFn::Max] }],
            2,
        );
        let options = MvdCubeOptions::default();
        let (engine, baseline) =
            (mvd_cube(&spec, &options), mvd_cube_baseline(&spec, &options));
        let bits = |values: &[Option<f64>]| -> Vec<Option<u64>> {
            values.iter().map(|v| v.map(f64::to_bits)).collect()
        };
        for (mask, node) in &baseline.nodes {
            for (key, values) in node.groups() {
                let got = engine.node(*mask).and_then(|n| n.get(&key));
                assert_eq!(got.map(bits), Some(bits(values)), "mask {mask:b} {key:?}");
                assert_eq!(values[2].map(f64::to_bits), Some((-0.0f64).to_bits()));
            }
        }
    }

    /// Chunked evaluation must agree with the single-partition evaluation
    /// regardless of chunk size (the flush machinery is pure bookkeeping).
    #[test]
    fn chunking_does_not_change_results() {
        let data = ceos();
        let spec = CubeSpec::new(
            vec![&data.nationality, &data.gender, &data.area],
            vec![MeasureSpec { preagg: &data.age, fns: vec![AggFn::Avg, AggFn::Sum] }],
            2,
        );
        let whole =
            mvd_cube(&spec, &MvdCubeOptions { chunk_size: Some(64), ..Default::default() });
        for chunk in [1u32, 2, 3] {
            let chunked = mvd_cube(
                &spec,
                &MvdCubeOptions { chunk_size: Some(chunk), ..Default::default() },
            );
            for (mask, node) in &whole.nodes {
                let other = chunked.node(*mask).unwrap();
                assert_eq!(
                    node.group_count(),
                    other.group_count(),
                    "mask {mask:b} chunk {chunk}"
                );
                for (key, vals) in node.groups() {
                    assert_eq!(other.get(&key), Some(vals), "mask {mask:b} chunk {chunk}");
                }
            }
        }
    }
}
