//! Result rows are in key order even where the engine emits out of key
//! order: chunked lattices (a node's regions flush in cascade order) and
//! multi-shard plans (emit parts fold in task order), sorted once at the
//! end. That order is what lets the ARM score in one pass with no sort, so
//! on random chunked lattices with multi-valued dimensions and facts
//! missing dimensions, at 1/2/8 threads and pinned shard weights:
//!
//! * rows ascend, and their decoded keys are exactly the baseline engine's
//!   groups (visibility included);
//! * `top_k_of_result` scores match, bit for bit, a reference that collects
//!   each node's visible groups, sorts them by key and pushes their values
//!   in that order;
//! * `NodeResult::from_groups` round-trips keys containing `NULL_CODE`,
//!   whatever order they arrive in.

use proptest::prelude::*;
use spade_cube::arm::{top_k_of_result, AggregateId};
use spade_cube::engine_baseline::mvd_cube_baseline;
use spade_cube::mvdcube::{mvd_cube, MvdCubeOptions};
use spade_cube::result::NULL_CODE;
use spade_cube::{CubeResult, CubeSpec, MeasureSpec, NodeResult};
use spade_stats::{Interestingness, RunningMoments};
use spade_storage::{AggFn, CategoricalColumn, FactId, NumericColumnBuilder, PreAggregated};
use std::collections::BTreeMap;

/// Per dimension, per fact, a set of value codes (empty = the fact lacks
/// the dimension); one multi-valued measure.
#[derive(Clone, Debug)]
struct RawData {
    dims: Vec<Vec<Vec<u8>>>,
    measure: Vec<Vec<i32>>,
}

fn raw_data(max_dims: usize, max_facts: usize) -> impl Strategy<Value = RawData> {
    (1..=max_dims, 1..=max_facts).prop_flat_map(move |(n_dims, n)| {
        let dim = prop::collection::vec(
            prop::collection::btree_set(0u8..6, 0..=3)
                .prop_map(|s| s.into_iter().collect::<Vec<u8>>()),
            n,
        );
        let dims = prop::collection::vec(dim, n_dims);
        let measure = prop::collection::vec(prop::collection::vec(-40i32..40, 0..=2), n);
        (dims, measure).prop_map(|(dims, measure)| RawData { dims, measure })
    })
}

fn build_columns(data: &RawData) -> (Vec<CategoricalColumn>, PreAggregated) {
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
            builder.add(FactId(fact as u32), v as f64 * 0.1);
        }
    }
    (dims, builder.build(n).preaggregate())
}

/// Scoring as it was done over hash-map results: per node, collect the
/// visible groups, sort them by key, push each MDA's values in that order.
/// `(id, score bits, group count)`, by id.
fn sort_then_push(result: &CubeResult, h: Interestingness) -> Vec<(AggregateId, u64, usize)> {
    let mut out = Vec::new();
    for (&node_mask, node) in &result.nodes {
        let mut groups: Vec<(Vec<u32>, &[Option<f64>])> =
            node.groups().filter(|(key, _)| !key.contains(&NULL_CODE)).collect();
        groups.sort_by(|a, b| a.0.cmp(&b.0));
        for mda in 0..result.mda_labels.len() {
            let mut m = RunningMoments::default();
            for (_, values) in &groups {
                if let Some(v) = values[mda] {
                    m.push(v);
                }
            }
            if m.count() > 0 {
                let id = AggregateId { node_mask, mda };
                out.push((id, h.score_from_moments(&m).to_bits(), m.count() as usize));
            }
        }
    }
    out.sort();
    out
}

fn check_rows(result: &CubeResult, baseline: &CubeResult, context: &str) -> TestCaseResult {
    let mut masks: Vec<u32> = result.nodes.keys().copied().collect();
    masks.sort_unstable();
    let mut other: Vec<u32> = baseline.nodes.keys().copied().collect();
    other.sort_unstable();
    prop_assert_eq!(&masks, &other, "{}: node sets differ", context);
    for mask in masks {
        let node = &result.nodes[&mask];
        let cells: Vec<u64> = node.rows().map(|(cell, _, _)| cell).collect();
        prop_assert!(
            cells.windows(2).all(|w| w[0] < w[1]),
            "{}: node {:b} rows out of order: {:?}",
            context,
            mask,
            cells
        );
        for ((key, _), (_, visible, _)) in node.groups().zip(node.rows()) {
            prop_assert_eq!(visible, !key.contains(&NULL_CODE), "{}: {:?}", context, key);
        }
        let keys: Vec<Vec<u32>> = node.groups().map(|(key, _)| key).collect();
        let expected: Vec<Vec<u32>> =
            baseline.nodes[&mask].groups().map(|(key, _)| key).collect();
        prop_assert_eq!(keys, expected, "{}: node {:b} groups", context, mask);
    }
    for h in Interestingness::ALL {
        let mut scored: Vec<(AggregateId, u64, usize)> = top_k_of_result(result, h, usize::MAX)
            .into_iter()
            .map(|s| (s.id, s.score.to_bits(), s.group_count))
            .collect();
        scored.sort();
        prop_assert_eq!(scored, sort_then_push(result, h), "{}: {:?} scores", context, h);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn chunked_and_sharded_rows_are_in_key_order(
        data in raw_data(3, 24),
        chunk in 1u32..=3,
        shard_weight in 1u64..40,
    ) {
        let (dims, preagg) = build_columns(&data);
        let spec = CubeSpec::new(
            dims.iter().collect(),
            vec![MeasureSpec { preagg: &preagg, fns: vec![AggFn::Sum, AggFn::Avg, AggFn::Max] }],
            data.measure.len(),
        );
        let chunked = MvdCubeOptions { chunk_size: Some(chunk), ..Default::default() };
        let baseline = mvd_cube_baseline(&spec, &chunked);
        for threads in [1usize, 2, 8] {
            for weight in [None, Some(shard_weight), Some(u64::MAX)] {
                let options = MvdCubeOptions { threads, shard_weight: weight, ..chunked };
                let context = format!("chunk {chunk} threads {threads} weight {weight:?}");
                check_rows(&mvd_cube(&spec, &options), &baseline, &context)?;
            }
        }
    }

    #[test]
    fn from_groups_round_trips_null_keys(
        keys in prop::collection::btree_set(
            prop::collection::vec(prop_oneof![0u32..3, Just(NULL_CODE)], 2),
            0..=16,
        ),
        turn in any::<u64>(),
    ) {
        let groups: BTreeMap<Vec<u32>, Vec<Option<f64>>> = keys
            .into_iter()
            .enumerate()
            .map(|(i, key)| (key, vec![Some(i as f64), (i % 2 == 0).then_some(-(i as f64))]))
            .collect();
        // Any arrival order: rotated, and reversed on odd turns.
        let mut arrivals: Vec<_> = groups.clone().into_iter().collect();
        if !arrivals.is_empty() {
            let len = arrivals.len();
            arrivals.rotate_left(turn as usize % len);
        }
        if turn % 2 == 1 {
            arrivals.reverse();
        }
        // Domains: three values plus the null slot, on both dimensions.
        let node = NodeResult::from_groups(0b11, &[4, 4], 2, arrivals);
        let back: Vec<(Vec<u32>, Vec<Option<f64>>)> =
            node.groups().map(|(key, values)| (key, values.to_vec())).collect();
        let expected: Vec<(Vec<u32>, Vec<Option<f64>>)> = groups.clone().into_iter().collect();
        prop_assert_eq!(back, expected);
        for (key, values) in &groups {
            prop_assert_eq!(node.get(key), Some(&values[..]));
        }
        let visible = groups.keys().filter(|key| !key.contains(&NULL_CODE)).count();
        prop_assert_eq!(node.visible_group_count(), visible);
    }
}
