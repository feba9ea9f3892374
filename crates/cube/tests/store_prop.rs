//! Property tests over the engine's cell-storage modes, shard plans and
//! measure join: on random multi-valued lattices with one to six measures,
//! each single- or multi-valued, dense and sparse region storage must
//! produce bit-identical results — and both must agree with the preserved
//! nested-HashMap baseline engine — for every chunking, every shard
//! granularity, every thread count, and every subset of live aggregates
//! early-stop can leave a node.

use proptest::prelude::*;
use spade_cube::mvd_cube_baseline;
use spade_cube::mvdcube::{mvd_cube, mvd_cube_pruned, prepare, MvdCubeOptions};
use spade_cube::{CellStorePolicy, CubeResult, CubeSpec, MeasureSpec};
use spade_storage::{AggFn, CategoricalColumn, FactId, NumericColumnBuilder, PreAggregated};
use std::collections::HashMap;

/// The aggregate functions every measure is evaluated with.
const FNS: [AggFn; 5] = [AggFn::Count, AggFn::Sum, AggFn::Avg, AggFn::Min, AggFn::Max];

/// Raw random data: per dimension, per fact, a set of value codes; per
/// measure, per fact, its values.
#[derive(Clone, Debug)]
struct RawData {
    dims: Vec<Vec<Vec<u8>>>,
    measures: Vec<Vec<Vec<f64>>>,
}

/// One measure's values per fact: at most one when single-valued,
/// otherwise up to three with fact 0 holding two, so the measure is
/// multi-valued. `-40` stands for `-0.0`.
fn measure(n: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    any::<bool>().prop_flat_map(move |single_valued| {
        let value = (-40i32..40).prop_map(|v| if v == -40 { -0.0 } else { v as f64 });
        let row = prop::collection::vec(value, 0..=if single_valued { 1 } else { 3 });
        prop::collection::vec(row, n).prop_map(move |mut rows| {
            if !single_valued {
                rows[0].resize(2, 1.0);
            }
            rows
        })
    })
}

fn raw_data(max_dims: usize, max_facts: usize) -> impl Strategy<Value = RawData> {
    (1..=max_dims, 1..=max_facts, 1usize..=6).prop_flat_map(move |(n_dims, n, n_measures)| {
        let dim = prop::collection::vec(
            prop::collection::btree_set(0u8..5, 0..=3)
                .prop_map(|s| s.into_iter().collect::<Vec<u8>>()),
            n,
        );
        let dims = prop::collection::vec(dim, n_dims);
        let measures = prop::collection::vec(measure(n), n_measures);
        (dims, measures).prop_map(|(dims, measures)| RawData { dims, measures })
    })
}

fn build_columns(data: &RawData) -> (Vec<CategoricalColumn>, Vec<PreAggregated>) {
    let n = data.measures[0].len();
    let dims = data
        .dims
        .iter()
        .enumerate()
        .map(|(d, rows)| {
            let labelled: Vec<Vec<String>> = rows
                .iter()
                .map(|codes| codes.iter().map(|c| format!("v{c}")).collect())
                .collect();
            let as_refs: Vec<Vec<&str>> =
                labelled.iter().map(|r| r.iter().map(String::as_str).collect()).collect();
            CategoricalColumn::from_rows(format!("d{d}"), &as_refs)
        })
        .collect();
    let measures = data
        .measures
        .iter()
        .enumerate()
        .map(|(m, rows)| {
            let mut builder = NumericColumnBuilder::new(format!("m{m}"));
            for (fact, values) in rows.iter().enumerate() {
                for &v in values {
                    builder.add(FactId(fact as u32), v);
                }
            }
            builder.build(n).preaggregate()
        })
        .collect();
    (dims, measures)
}

/// The spec over every dimension, every measure with every function.
fn spec_of<'a>(dims: &'a [CategoricalColumn], measures: &'a [PreAggregated]) -> CubeSpec<'a> {
    let n_facts = measures[0].n_facts();
    let measures = measures.iter().map(|preagg| MeasureSpec { preagg, fns: FNS.to_vec() });
    CubeSpec::new(dims.iter().collect(), measures.collect(), n_facts)
}

/// The drawn thread count, plus `SPADE_TEST_THREADS` when set (CI pins 8).
fn thread_sweep(threads: usize) -> Vec<usize> {
    let mut sweep = vec![threads];
    if let Some(n) = std::env::var("SPADE_TEST_THREADS").ok().and_then(|v| v.parse().ok()) {
        if n != threads {
            sweep.push(n);
        }
    }
    sweep
}

/// Early-stop's liveness for one node, from 64 random bits: the fact count
/// is live on bit 0; measure `m` is needed on bit `1 + m`, and then its
/// functions are live on bits `8 + 5m …` (at least one). Every subset of
/// needed measures, the empty one included, is as likely as any other.
fn alive_flags(bits: u64, n_measures: usize) -> Vec<bool> {
    let mut flags = vec![bits & 1 == 1];
    for m in 0..n_measures {
        let needed = bits >> (1 + m) & 1 == 1;
        let fns = (bits >> (8 + 5 * m)) as usize & 0b11111;
        let fns = if fns == 0 { 1 << (m % 5) } else { fns };
        flags.extend((0..FNS.len()).map(|f| needed && fns >> f & 1 == 1));
    }
    flags
}

fn assert_identical(
    a: &CubeResult,
    b: &CubeResult,
    context: &str,
) -> Result<(), TestCaseError> {
    let mut masks: Vec<u32> = a.nodes.keys().copied().collect();
    masks.sort_unstable();
    let mut other: Vec<u32> = b.nodes.keys().copied().collect();
    other.sort_unstable();
    prop_assert_eq!(&masks, &other, "{}: node sets differ", context);
    for &mask in &masks {
        let na = &a.nodes[&mask];
        let nb = &b.nodes[&mask];
        prop_assert_eq!(na.group_count(), nb.group_count(), "{}: node {:b}", context, mask);
        for (key, va) in na.groups() {
            let vb = nb.get(&key);
            prop_assert!(vb.is_some(), "{}: node {:b} missing group {:?}", context, mask, key);
            let vb = vb.unwrap();
            prop_assert_eq!(va.len(), vb.len());
            for (i, (x, y)) in va.iter().zip(vb).enumerate() {
                let same = match (x, y) {
                    (Some(x), Some(y)) => x.to_bits() == y.to_bits(),
                    (None, None) => true,
                    _ => false,
                };
                prop_assert!(
                    same,
                    "{}: node {:b} group {:?} mda {}: {:?} vs {:?}",
                    context,
                    mask,
                    key,
                    i,
                    x,
                    y
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn dense_and_sparse_storage_agree(data in raw_data(3, 14), chunk in 1u32..4) {
        let (dims, measures) = build_columns(&data);
        let spec = spec_of(&dims, &measures);
        let with_policy = |policy| MvdCubeOptions {
            chunk_size: Some(chunk),
            store_policy: policy,
            ..Default::default()
        };
        let dense = mvd_cube(&spec, &with_policy(CellStorePolicy::ForceDense));
        let sparse = mvd_cube(&spec, &with_policy(CellStorePolicy::ForceSparse));
        let auto = mvd_cube(&spec, &with_policy(CellStorePolicy::Auto));
        let baseline = mvd_cube_baseline(&spec, &with_policy(CellStorePolicy::Auto));
        assert_identical(&dense, &sparse, "dense vs sparse")?;
        assert_identical(&dense, &auto, "dense vs auto")?;
        assert_identical(&dense, &baseline, "dense vs nested-HashMap baseline")?;
    }

    /// The region-sharded executor must agree with the nested-HashMap
    /// baseline for every shard granularity (1 = one shard per cell,
    /// u64::MAX = a single shard), store policy, and thread count — the
    /// shard plan is a pure performance knob.
    #[test]
    fn sharded_engine_matches_baseline(
        data in raw_data(3, 14),
        chunk in 1u32..4,
        shard_weight in 1u64..48,
        threads in 1usize..4,
    ) {
        let (dims, measures) = build_columns(&data);
        let spec = spec_of(&dims, &measures);
        let baseline = mvd_cube_baseline(
            &spec,
            &MvdCubeOptions { chunk_size: Some(chunk), ..Default::default() },
        );
        for threads in thread_sweep(threads) {
            for policy in [CellStorePolicy::ForceDense, CellStorePolicy::ForceSparse] {
                for weight in [shard_weight, u64::MAX] {
                    let options = MvdCubeOptions {
                        chunk_size: Some(chunk),
                        store_policy: policy,
                        threads,
                        shard_weight: Some(weight),
                        ..Default::default()
                    };
                    assert_identical(
                        &mvd_cube(&spec, &options),
                        &baseline,
                        &format!("{policy:?} weight {weight} threads {threads} vs baseline"),
                    )?;
                }
            }
        }
    }

    /// Under a random early-stop liveness, a node's live aggregates are the
    /// baseline's to the bit and its pruned ones are absent, whatever
    /// subset of its measures stays needed.
    #[test]
    fn pruned_engine_matches_baseline(
        data in raw_data(3, 14),
        chunk in 1u32..4,
        shard_weight in 1u64..48,
        threads in 1usize..4,
        node_bits in prop::collection::vec(any::<u64>(), 8),
    ) {
        let (dims, measures) = build_columns(&data);
        let spec = spec_of(&dims, &measures);
        let baseline = mvd_cube_baseline(
            &spec,
            &MvdCubeOptions { chunk_size: Some(chunk), ..Default::default() },
        );
        for threads in thread_sweep(threads) {
            for weight in [shard_weight, u64::MAX] {
                let options = MvdCubeOptions {
                    chunk_size: Some(chunk),
                    threads,
                    shard_weight: Some(weight),
                    ..Default::default()
                };
                let (lattice, translation) = prepare(&spec, &options, None);
                let alive: HashMap<u32, Vec<bool>> = lattice
                    .nodes()
                    .into_iter()
                    .zip(&node_bits)
                    .map(|(mask, &bits)| (mask, alive_flags(bits, measures.len())))
                    .collect();
                let pruned = mvd_cube_pruned(&spec, &options, &lattice, &translation, &alive);
                let context = format!("weight {weight} threads {threads}");
                for (mask, flags) in &alive {
                    let node = pruned.node(*mask);
                    let groups = node.map_or(0, |n| n.group_count());
                    let Some(want) = baseline.node(*mask) else {
                        prop_assert_eq!(groups, 0, "{}: node {:b}", context, mask);
                        continue;
                    };
                    if !flags.contains(&true) {
                        prop_assert_eq!(groups, 0, "{}: dead node {:b}", context, mask);
                        continue;
                    }
                    prop_assert_eq!(groups, want.group_count(), "{}: node {:b}", context, mask);
                    for (key, values) in want.groups() {
                        let got = node.and_then(|n| n.get(&key));
                        let expected: Vec<Option<u64>> = values
                            .iter()
                            .zip(flags)
                            .map(|(v, &live)| v.filter(|_| live).map(f64::to_bits))
                            .collect();
                        let got: Option<Vec<Option<u64>>> =
                            got.map(|v| v.iter().map(|x| x.map(f64::to_bits)).collect());
                        prop_assert_eq!(
                            got,
                            Some(expected),
                            "{}: node {:b} group {:?}",
                            context,
                            mask,
                            key
                        );
                    }
                }
            }
        }
    }
}
