//! The paper's central correctness claim, checked exhaustively: MVDCube
//! computes, for *every* lattice node, exactly what a naive per-node
//! group-by over the raw multi-valued data computes — even with
//! multi-valued and missing dimensions and multi-valued measures — while
//! the classical ArrayCube only agrees on nodes retaining all multi-valued
//! dimensions (Theorem 1).

use proptest::prelude::*;
use spade::cube::result::NULL_CODE;
use spade::cube::{array_cube, mvd_cube, pg_cube, MvdCubeOptions, PgCubeVariant};
use spade::cube::{CubeResult, NodeResult};
use spade::prelude::*;
use spade::storage::{CategoricalColumn, FactId, NumericColumn};
use std::collections::{BTreeMap, BTreeSet};

/// Raw data: per fact, per dimension a set of value codes; one multi-valued
/// numeric measure.
#[derive(Clone, Debug)]
struct RawData {
    dims: Vec<Vec<Vec<u8>>>, // dims[d][fact] = distinct value codes
    measure: Vec<Vec<i32>>,  // measure[fact] = raw values
}

fn raw_data(n_dims: usize, max_facts: usize) -> impl Strategy<Value = RawData> {
    let facts = 1..=max_facts;
    facts.prop_flat_map(move |n| {
        let dim = prop::collection::vec(
            prop::collection::btree_set(0u8..4, 0..=3)
                .prop_map(|s| s.into_iter().collect::<Vec<u8>>()),
            n,
        );
        let dims = prop::collection::vec(dim, n_dims);
        let measure = prop::collection::vec(prop::collection::vec(-50i32..50, 0..=2), n);
        (dims, measure).prop_map(|(dims, measure)| RawData { dims, measure })
    })
}

/// Raw value codes per dimension (`0u8..4` in [`raw_data`]) plus the null
/// slot.
const RAW_DOMAIN: u32 = 5;

/// A reference group's fact count and, if any of its facts carries the
/// measure, the measure's `(count, sum, min, max)`.
type RefGroup = (u64, Option<(u64, f64, f64, f64)>);

/// Naive reference: for each node mask, group facts by their (projected)
/// value combinations and aggregate each fact exactly once per group. Keys
/// are raw value codes; each group's row holds the values
/// [`check_against_reference`]'s spec computes — `count(*)`, then `count`,
/// `sum`, `min`, `max`, `avg` of the measure.
fn brute_force(data: &RawData) -> CubeResult {
    let n_dims = data.dims.len();
    let n_facts = data.measure.len();
    let labels = ["count(*)", "count(m)", "sum(m)", "min(m)", "max(m)", "avg(m)"];
    let mut out = CubeResult::new(labels.map(String::from).to_vec());
    for mask in 0u32..(1 << n_dims) {
        let mut node: BTreeMap<Vec<u32>, RefGroup> = BTreeMap::new();
        for fact in 0..n_facts {
            // Translation rule: facts with no value on any lattice dimension
            // are excluded from the cube entirely.
            if (0..n_dims).all(|d| data.dims[d][fact].is_empty()) {
                continue;
            }
            // The fact's distinct keys in this node: cross product of its
            // values along the node's dims (null when missing).
            let mut keys: Vec<Vec<u32>> = vec![vec![]];
            for d in 0..n_dims {
                if mask & (1 << d) == 0 {
                    continue;
                }
                let vals = &data.dims[d][fact];
                let mut next = Vec::new();
                for key in &keys {
                    if vals.is_empty() {
                        let mut k = key.clone();
                        k.push(NULL_CODE);
                        next.push(k);
                    } else {
                        for &v in vals {
                            let mut k = key.clone();
                            k.push(v as u32);
                            next.push(k);
                        }
                    }
                }
                keys = next;
            }
            keys.sort();
            keys.dedup();
            for key in keys {
                let entry = node.entry(key).or_insert((0, None));
                entry.0 += 1; // each fact once per group
                let values = &data.measure[fact];
                if !values.is_empty() {
                    let (c, s, lo, hi) =
                        entry.1.get_or_insert((0, 0.0, f64::INFINITY, f64::NEG_INFINITY));
                    *c += values.len() as u64;
                    *s += values.iter().map(|&v| v as f64).sum::<f64>();
                    *lo = lo.min(*values.iter().min().unwrap() as f64);
                    *hi = hi.max(*values.iter().max().unwrap() as f64);
                }
            }
        }
        let groups = node.into_iter().map(|(key, (count, measure))| {
            let values = match measure {
                None => vec![Some(count as f64), None, None, None, None, None],
                Some((c, s, lo, hi)) => {
                    let c = c as f64;
                    vec![Some(count as f64), Some(c), Some(s), Some(lo), Some(hi), Some(s / c)]
                }
            };
            (key, values)
        });
        let domains = vec![RAW_DOMAIN; n_dims];
        out.nodes.insert(mask, NodeResult::from_groups(mask, &domains, labels.len(), groups));
    }
    out
}

/// Builds storage columns from the raw data. Value labels are zero-padded
/// so sorted label order equals numeric code order.
fn columns(data: &RawData) -> (Vec<CategoricalColumn>, NumericColumn) {
    let n_facts = data.measure.len();
    let dims = data
        .dims
        .iter()
        .enumerate()
        .map(|(di, per_fact)| {
            let mut b = spade::storage::CategoricalColumnBuilder::new(format!("d{di}"));
            for (fact, vals) in per_fact.iter().enumerate() {
                for &v in vals {
                    b.add(FactId(fact as u32), format!("v{v:03}"));
                }
            }
            b.build(n_facts)
        })
        .collect();
    let mut m = spade::storage::NumericColumnBuilder::new("m");
    for (fact, vals) in data.measure.iter().enumerate() {
        for &v in vals {
            m.add(FactId(fact as u32), v as f64);
        }
    }
    (dims, m.build(n_facts))
}

/// Remaps a cube group key (codes into the column's sorted label space)
/// back to raw value codes, so it can be compared with the reference.
fn remap_key(key: &[u32], dims: &[&CategoricalColumn], node_dims: &[usize]) -> Vec<u32> {
    key.iter()
        .zip(node_dims)
        .map(|(&code, &d)| {
            if code == NULL_CODE {
                NULL_CODE
            } else {
                // label "v007" → 7
                dims[d].label(code)[1..].parse::<u32>().unwrap()
            }
        })
        .collect()
}

fn check_against_reference(data: &RawData, chunk: Option<u32>) -> Result<(), TestCaseError> {
    let (dim_cols, measure_col) = columns(data);
    let preagg = measure_col.preaggregate();
    let dims: Vec<&CategoricalColumn> = dim_cols.iter().collect();
    let spec = CubeSpec::new(
        dims.clone(),
        vec![MeasureSpec {
            preagg: &preagg,
            fns: vec![AggFn::Count, AggFn::Sum, AggFn::Min, AggFn::Max, AggFn::Avg],
        }],
        data.measure.len(),
    );
    let result = mvd_cube(&spec, &MvdCubeOptions { chunk_size: chunk, ..Default::default() });
    let reference = brute_force(data);

    for (mask, ref_groups) in &reference.nodes {
        let node = result.node(*mask);
        let empty = NodeResult::default();
        let got = node.unwrap_or(&empty);
        prop_assert_eq!(
            got.group_count(),
            ref_groups.group_count(),
            "group count mismatch at node {:b}",
            mask
        );
        for (key, values) in got.groups() {
            let raw_key = remap_key(&key, &dims, &result.node(*mask).unwrap().dims);
            let expected = ref_groups
                .get(&raw_key)
                .unwrap_or_else(|| panic!("unexpected group {raw_key:?} at node {mask:b}"));
            // MDA 0 = count(*) over facts.
            prop_assert_eq!(values[0], expected[0]);
            match expected[1] {
                None => {
                    for v in &values[1..] {
                        prop_assert_eq!(*v, None);
                    }
                }
                Some(c) => {
                    prop_assert_eq!(values[1], Some(c)); // count(m)
                    let sum = values[2].unwrap();
                    prop_assert!((sum - expected[2].unwrap()).abs() < 1e-9);
                    prop_assert_eq!(values[3], expected[3]); // min
                    prop_assert_eq!(values[4], expected[4]); // max
                    let avg = values[5].unwrap();
                    prop_assert!((avg - expected[5].unwrap()).abs() < 1e-9);
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// MVDCube == brute force on every lattice node, 2-dimensional case.
    #[test]
    fn mvdcube_matches_bruteforce_2d(data in raw_data(2, 24)) {
        check_against_reference(&data, None)?;
    }

    /// Same with 3 dimensions and forced multi-partition evaluation.
    #[test]
    fn mvdcube_matches_bruteforce_3d_chunked(data in raw_data(3, 16)) {
        check_against_reference(&data, Some(2))?;
    }

    /// ArrayCube agrees with MVDCube exactly on the nodes that retain all
    /// multi-valued dimensions, and at the root (Theorem 1).
    #[test]
    fn arraycube_correct_only_on_retaining_nodes(data in raw_data(2, 16)) {
        let (dim_cols, measure_col) = columns(&data);
        let preagg = measure_col.preaggregate();
        let dims: Vec<&CategoricalColumn> = dim_cols.iter().collect();
        let spec = CubeSpec::new(
            dims,
            vec![MeasureSpec { preagg: &preagg, fns: vec![AggFn::Sum] }],
            data.measure.len(),
        );
        let opts = MvdCubeOptions::default();
        let correct = mvd_cube(&spec, &opts);
        let classical = array_cube(&spec, &opts);
        let multi_valued: BTreeSet<usize> = (0..2)
            .filter(|&d| (0..data.measure.len()).any(|f| data.dims[d][f].len() > 1))
            .collect();
        for (mask, node) in &correct.nodes {
            let retains_all = multi_valued.iter().all(|&d| mask & (1 << d) != 0);
            if retains_all {
                let other = classical.node(*mask).unwrap();
                prop_assert_eq!(node.group_count(), other.group_count());
                for (key, vals) in node.groups() {
                    let ovals = other.get(&key).unwrap();
                    for (a, b) in vals.iter().zip(ovals) {
                        match (a, b) {
                            (Some(x), Some(y)) => prop_assert!((x - y).abs() < 1e-9),
                            (a, b) => prop_assert_eq!(a, b),
                        }
                    }
                }
            }
        }
    }

    /// PGCube^d's fact counts always bound the correct counts from above
    /// (overcounting — the paper's "p can only be higher than or equal").
    #[test]
    fn pgcube_counts_bound_from_above(data in raw_data(2, 16)) {
        let (dim_cols, measure_col) = columns(&data);
        let preagg = measure_col.preaggregate();
        let dims: Vec<&CategoricalColumn> = dim_cols.iter().collect();
        let spec = CubeSpec::new(
            dims,
            vec![MeasureSpec { preagg: &preagg, fns: vec![AggFn::Sum] }],
            data.measure.len(),
        );
        let opts = MvdCubeOptions::default();
        let correct = mvd_cube(&spec, &opts);
        let star = pg_cube(&spec, PgCubeVariant::Star, &opts);
        for (mask, node) in &correct.nodes {
            let other = star.node(*mask).unwrap();
            for (key, vals) in node.groups() {
                let ovals = other.get(&key).unwrap();
                if let (Some(m), Some(p)) = (vals[0], ovals[0]) {
                    prop_assert!(p >= m - 1e-9, "count {p} < correct {m} at {mask:b} {key:?}");
                }
            }
        }
    }
}
