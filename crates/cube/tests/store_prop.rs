//! Property tests over the engine's cell-storage modes and shard plans: on
//! random multi-valued lattices, dense and sparse region storage must
//! produce bit-identical results — and both must agree with the preserved
//! nested-HashMap baseline engine — for every chunking, every shard
//! granularity, and every thread count.

use proptest::prelude::*;
use spade_cube::mvd_cube_baseline;
use spade_cube::mvdcube::{mvd_cube, MvdCubeOptions};
use spade_cube::{CellStorePolicy, CubeResult, CubeSpec, MeasureSpec};
use spade_storage::{CategoricalColumn, FactId, NumericColumnBuilder};

/// Raw random data: per dimension, per fact, a set of value codes; one
/// multi-valued numeric measure.
#[derive(Clone, Debug)]
struct RawData {
    dims: Vec<Vec<Vec<u8>>>,
    measure: Vec<Vec<i32>>,
}

fn raw_data(max_dims: usize, max_facts: usize) -> impl Strategy<Value = RawData> {
    (1..=max_dims, 1..=max_facts).prop_flat_map(move |(n_dims, n)| {
        let dim = prop::collection::vec(
            prop::collection::btree_set(0u8..5, 0..=3)
                .prop_map(|s| s.into_iter().collect::<Vec<u8>>()),
            n,
        );
        let dims = prop::collection::vec(dim, n_dims);
        let measure = prop::collection::vec(prop::collection::vec(-40i32..40, 0..=2), n);
        (dims, measure).prop_map(|(dims, measure)| RawData { dims, measure })
    })
}

fn build_columns(data: &RawData) -> (Vec<CategoricalColumn>, spade_storage::PreAggregated) {
    let n = data.measure.len();
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
    let mut builder = NumericColumnBuilder::new("m");
    for (fact, values) in data.measure.iter().enumerate() {
        for &v in values {
            builder.add(FactId(fact as u32), v as f64);
        }
    }
    (dims, builder.build(n).preaggregate())
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
        let (dims, preagg) = build_columns(&data);
        let n_facts = data.measure.len();
        let spec = CubeSpec::new(
            dims.iter().collect(),
            vec![MeasureSpec {
                preagg: &preagg,
                fns: vec![
                    spade_storage::AggFn::Sum,
                    spade_storage::AggFn::Avg,
                    spade_storage::AggFn::Min,
                    spade_storage::AggFn::Max,
                ],
            }],
            n_facts,
        );
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
        let (dims, preagg) = build_columns(&data);
        let n_facts = data.measure.len();
        let spec = CubeSpec::new(
            dims.iter().collect(),
            vec![MeasureSpec {
                preagg: &preagg,
                fns: vec![spade_storage::AggFn::Sum, spade_storage::AggFn::Max],
            }],
            n_facts,
        );
        let with_shards = |policy, weight| MvdCubeOptions {
            chunk_size: Some(chunk),
            store_policy: policy,
            threads,
            shard_weight: Some(weight),
            ..Default::default()
        };
        let baseline = mvd_cube_baseline(
            &spec,
            &MvdCubeOptions { chunk_size: Some(chunk), ..Default::default() },
        );
        for policy in [CellStorePolicy::ForceDense, CellStorePolicy::ForceSparse] {
            for weight in [shard_weight, u64::MAX] {
                let sharded = mvd_cube(&spec, &with_shards(policy, weight));
                assert_identical(
                    &sharded,
                    &baseline,
                    &format!("{policy:?} weight {weight} threads {threads} vs baseline"),
                )?;
            }
        }
    }
}
