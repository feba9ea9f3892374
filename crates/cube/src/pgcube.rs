//! PGCube — a PostgreSQL-12-style one-pass `GROUP BY CUBE` baseline.
//!
//! Section 6: "we compare the performance of our aggregate evaluation method
//! against the best-effort baseline, which uses PostgreSQL's GROUP BY CUBE
//! implementation, since 2016 based on an efficient one-pass computation of
//! all aggregates in a lattice, that supports additional features such as
//! count(distinct). … (i) PGCube computing counts using count(*), denoted
//! PGCube\*, and (ii) PGCube computing counts using count(distinct), denoted
//! PGCube^d."
//!
//! Like PostgreSQL, the `2^N` grouping sets are decomposed into a minimal
//! number of **rollup chains** (a symmetric chain decomposition of the
//! subset lattice, `C(N, ⌊N/2⌋)` chains); for each chain the flattened input
//! is sorted by the chain's dimension order and *all* of the chain's
//! grouping sets are computed in a single pass over the sorted stream.
//!
//! The flattened input is what the relational join `q` of Section 4.2
//! produces: one row per combination of a fact's (multi-)dimension values,
//! carrying the fact's measure aggregates. A fact with several values on a
//! dimension therefore occupies several rows — `count(*)` and `sum`/`avg`
//! over rows double-count it exactly as Variations 1–2 describe. PGCube^d
//! repairs fact counts with `count(distinct CF)` but cannot repair sums and
//! averages ("we cannot solve this issue with the sum(distinct NW)
//! aggregate").

use crate::result::{CubeResult, Group, NodeResult};
use crate::spec::{CubeSpec, MdaKind};
use spade_storage::{AggFn, FactId};
use std::collections::HashSet;

/// Which counting semantics PGCube uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PgCubeVariant {
    /// `count(*)` / `count(M)` over rows — PGCube\*.
    Star,
    /// `count(distinct CF)` for fact counts — PGCube^d (sums/averages are
    /// still row-based and remain wrong under multi-valued dimensions).
    Distinct,
}

/// One flattened row of the join result.
struct FlatRow {
    /// One value code per dimension (null = domain − 1).
    codes: Vec<u32>,
    fact: u32,
    /// Per measure: `(count, sum, min, max)`; count = 0 means missing.
    measures: Vec<(f64, f64, f64, f64)>,
}

/// Builds the flattened join result (the per-lattice query PGCube runs).
fn flatten(spec: &CubeSpec<'_>) -> Vec<FlatRow> {
    let domains = spec.domain_sizes();
    let null_codes: Vec<u32> = domains.iter().map(|&d| d - 1).collect();
    let mut rows = Vec::new();
    for fact in 0..spec.n_facts as u32 {
        let mut code_lists: Vec<Vec<u32>> = Vec::with_capacity(spec.n_dims());
        let mut any_value = false;
        for (i, dim) in spec.dims.iter().enumerate() {
            let codes = dim.codes_of(FactId(fact));
            if codes.is_empty() {
                code_lists.push(vec![null_codes[i]]);
            } else {
                any_value = true;
                code_lists.push(codes.to_vec());
            }
        }
        if !any_value {
            continue;
        }
        let measures: Vec<(f64, f64, f64, f64)> = spec
            .measures
            .iter()
            .map(|m| {
                let c = m.preagg.count(FactId(fact));
                if c == 0 {
                    (0.0, 0.0, 0.0, 0.0)
                } else {
                    (
                        c as f64,
                        m.preagg.sum(FactId(fact)),
                        m.preagg.min(FactId(fact)).unwrap(),
                        m.preagg.max(FactId(fact)).unwrap(),
                    )
                }
            })
            .collect();
        // Cross product of the fact's dimension values.
        let mut idx = vec![0usize; code_lists.len()];
        loop {
            rows.push(FlatRow {
                codes: idx.iter().zip(&code_lists).map(|(&i, l)| l[i]).collect(),
                fact,
                measures: measures.clone(),
            });
            let mut d = code_lists.len();
            let mut done = false;
            loop {
                if d == 0 {
                    done = true;
                    break;
                }
                d -= 1;
                idx[d] += 1;
                if idx[d] < code_lists[d].len() {
                    break;
                }
                idx[d] = 0;
            }
            if done {
                break;
            }
        }
    }
    rows
}

/// Symmetric chain decomposition of the subset lattice of `{0..n−1}` — the
/// de Bruijn–Tengbergen–Kruyswijk construction. Every subset appears in
/// exactly one chain; consecutive chain elements differ by one added bit;
/// the number of chains is `C(n, ⌊n/2⌋)` (minimal, by Dilworth's theorem).
pub(crate) fn symmetric_chains(n: usize) -> Vec<Vec<u32>> {
    assert!(n <= 20, "chain decomposition limited to 20 dimensions");
    let mut chains: Vec<Vec<u32>> = vec![vec![0]];
    for bit in 0..n {
        let e = 1u32 << bit;
        let mut next = Vec::with_capacity(chains.len() * 2);
        for chain in chains {
            // C1: the chain extended by adding e to its largest element.
            let mut c1 = chain.clone();
            c1.push(chain.last().unwrap() | e);
            next.push(c1);
            // C2: e added to every element but the last (empty when |c|=1).
            if chain.len() > 1 {
                let c2: Vec<u32> = chain[..chain.len() - 1].iter().map(|s| s | e).collect();
                next.push(c2);
            }
        }
        chains = next;
    }
    chains
}

/// The dimension ordering for a chain: the smallest set's dims first, then
/// each step's added dim — making every chain element a prefix of the
/// ordering (ROLLUP shape).
fn chain_dim_order(chain: &[u32], n_dims: usize) -> Vec<usize> {
    let mut order = Vec::with_capacity(n_dims);
    let first = chain[0];
    for d in 0..n_dims {
        if first & (1 << d) != 0 {
            order.push(d);
        }
    }
    for w in chain.windows(2) {
        let added = w[1] & !w[0];
        order.push(added.trailing_zeros() as usize);
    }
    order
}

/// Per-grouping-set accumulator for one pass over sorted rows.
struct GroupAccum {
    rows: f64,
    distinct_facts: HashSet<u32>,
    /// Per measure: `(count, sum, min, max, distinct facts with measure)`.
    measures: Vec<(f64, f64, f64, f64, HashSet<u32>)>,
    key: Vec<u32>,
    started: bool,
}

impl GroupAccum {
    fn new(n_measures: usize) -> Self {
        GroupAccum {
            rows: 0.0,
            distinct_facts: HashSet::new(),
            measures: vec![
                (0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY, HashSet::new());
                n_measures
            ],
            key: Vec::new(),
            started: false,
        }
    }

    fn reset(&mut self, key: Vec<u32>) {
        self.rows = 0.0;
        self.distinct_facts.clear();
        for m in &mut self.measures {
            *m = (0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY, HashSet::new());
        }
        self.key = key;
        self.started = true;
    }

    fn add(&mut self, row: &FlatRow) {
        self.rows += 1.0;
        self.distinct_facts.insert(row.fact);
        for (acc, &(c, s, lo, hi)) in self.measures.iter_mut().zip(&row.measures) {
            if c > 0.0 {
                acc.0 += c;
                acc.1 += s;
                acc.2 = acc.2.min(lo);
                acc.3 = acc.3.max(hi);
                acc.4.insert(row.fact);
            }
        }
    }

    fn emit(&self, mdas: &[crate::spec::Mda], variant: PgCubeVariant) -> Vec<Option<f64>> {
        mdas.iter()
            .map(|mda| match mda.kind {
                MdaKind::FactCount => Some(match variant {
                    PgCubeVariant::Star => self.rows,
                    PgCubeVariant::Distinct => self.distinct_facts.len() as f64,
                }),
                MdaKind::Measure { measure, agg } => {
                    let (count, sum, lo, hi, ref facts) = self.measures[measure];
                    if count == 0.0 {
                        return None;
                    }
                    Some(match (agg, variant) {
                        (AggFn::Count, PgCubeVariant::Star) => count,
                        // count(distinct): rewritten over the fact ids.
                        (AggFn::Count, PgCubeVariant::Distinct) => facts.len() as f64,
                        (AggFn::Sum, _) => sum,
                        (AggFn::Avg, _) => sum / count,
                        (AggFn::Min, _) => lo,
                        (AggFn::Max, _) => hi,
                    })
                }
            })
            .collect()
    }
}

/// Evaluates the full lattice PostgreSQL-style. The flattened join is
/// rebuilt per call, as the paper notes PGCube must do per lattice.
pub fn pg_cube(spec: &CubeSpec<'_>, variant: PgCubeVariant) -> CubeResult {
    let rows = flatten(spec);
    let mdas = spec.mdas();
    let labels = mdas.iter().map(|m| m.label.clone()).collect();
    let mut result = CubeResult::new(labels);
    // Per node (indexed by mask), its `(key, values)` groups.
    let mut groups: Vec<Vec<Group>> = vec![Vec::new(); 1 << spec.n_dims()];

    let n_measures = spec.measures.len();
    for chain in symmetric_chains(spec.n_dims()) {
        let order = chain_dim_order(&chain, spec.n_dims());
        // Sort phase (PostgreSQL's sort for this rollup chain).
        let mut row_idx: Vec<usize> = (0..rows.len()).collect();
        row_idx.sort_by(|&a, &b| {
            for &d in &order {
                match rows[a].codes[d].cmp(&rows[b].codes[d]) {
                    std::cmp::Ordering::Equal => continue,
                    other => return other,
                }
            }
            std::cmp::Ordering::Equal
        });

        // One pass computing every grouping set of the chain.
        // Level ℓ groups on the first `prefix_len(ℓ)` dims of `order`.
        let levels: Vec<(u32, usize)> =
            chain.iter().map(|&mask| (mask, mask.count_ones() as usize)).collect();
        let mut accums: Vec<GroupAccum> =
            levels.iter().map(|_| GroupAccum::new(n_measures)).collect();

        let domains = spec.domain_sizes();
        let key_for = |row: &FlatRow, mask: u32| -> Vec<u32> {
            // Keys use ascending dim order (the NodeResult convention), with
            // the internal null slot remapped to NULL_CODE.
            (0..spec.n_dims())
                .filter(|d| mask & (1 << d) != 0)
                .map(|d| {
                    if row.codes[d] == domains[d] - 1 {
                        crate::result::NULL_CODE
                    } else {
                        row.codes[d]
                    }
                })
                .collect()
        };

        let mut prev: Option<usize> = None;
        for &ri in &row_idx {
            let row = &rows[ri];
            // First dim position (in `order`) where the row differs from the
            // previous one; groups at deeper levels close.
            let changed_from = match prev {
                None => 0,
                Some(pi) => {
                    let prow = &rows[pi];
                    order
                        .iter()
                        .position(|&d| prow.codes[d] != row.codes[d])
                        .unwrap_or(order.len())
                }
            };
            for (li, &(mask, plen)) in levels.iter().enumerate() {
                if prev.is_none() || plen > changed_from {
                    // Close the previous group at this level, if any.
                    if accums[li].started {
                        let values = accums[li].emit(&mdas, variant);
                        let key = std::mem::take(&mut accums[li].key);
                        groups[mask as usize].push((key, values));
                    }
                    accums[li].reset(key_for(row, mask));
                }
                accums[li].add(row);
            }
            prev = Some(ri);
        }
        // Close the final groups.
        if prev.is_some() {
            for (li, &(mask, _)) in levels.iter().enumerate() {
                if accums[li].started {
                    let values = accums[li].emit(&mdas, variant);
                    let key = std::mem::take(&mut accums[li].key);
                    groups[mask as usize].push((key, values));
                }
            }
        }
    }
    let domains = spec.domain_sizes();
    for (mask, groups) in groups.into_iter().enumerate() {
        let node = NodeResult::from_groups(mask as u32, &domains, mdas.len(), groups);
        result.nodes.insert(mask as u32, node);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mvdcube::{fixtures::ceos, MvdCubeOptions};
    use crate::spec::MeasureSpec;

    #[test]
    fn symmetric_chains_cover_all_subsets_once() {
        for n in 1..=5usize {
            let chains = symmetric_chains(n);
            let mut seen = HashSet::new();
            for chain in &chains {
                assert!(!chain.is_empty());
                for w in chain.windows(2) {
                    let added = w[1] & !w[0];
                    assert_eq!(w[1] & !added, w[0], "chain steps add exactly one bit");
                    assert_eq!(added.count_ones(), 1);
                }
                for &s in chain {
                    assert!(seen.insert(s), "subset {s:b} appears twice");
                }
            }
            assert_eq!(seen.len(), 1 << n);
            // Minimal chain count C(n, n/2).
            let binom =
                |n: u64, k: u64| -> u64 { (1..=k).fold(1u64, |acc, i| acc * (n - k + i) / i) };
            assert_eq!(chains.len() as u64, binom(n as u64, n as u64 / 2));
        }
    }

    fn example3_spec(data: &crate::mvdcube::fixtures::CeosExample) -> CubeSpec<'_> {
        CubeSpec::new(
            vec![&data.nationality, &data.gender, &data.area],
            vec![
                MeasureSpec { preagg: &data.net_worth, fns: vec![AggFn::Sum] },
                MeasureSpec { preagg: &data.age, fns: vec![AggFn::Avg] },
            ],
            2,
        )
    }

    /// PGCube* reproduces Figure 4's erroneous counts (5 Manufacturer CEOs,
    /// 3 female CEOs) — the row-stream equivalent of ArrayCube's bug.
    #[test]
    fn pgcube_star_reproduces_figure4_errors() {
        let data = ceos();
        let spec = example3_spec(&data);
        let r = pg_cube(&spec, PgCubeVariant::Star);
        let area = r.node(0b100).unwrap();
        assert_eq!(area.get(&[2]).unwrap()[0], Some(5.0)); // Manufacturer
        let gender = r.node(0b010).unwrap();
        assert_eq!(gender.get(&[0]).unwrap()[0], Some(3.0)); // Female
    }

    /// PGCube^d fixes Example 3's counts via count(distinct CF)…
    #[test]
    fn pgcube_distinct_fixes_fact_counts() {
        let data = ceos();
        let spec = example3_spec(&data);
        let r = pg_cube(&spec, PgCubeVariant::Distinct);
        let area = r.node(0b100).unwrap();
        assert_eq!(area.get(&[2]).unwrap()[0], Some(2.0));
        let gender = r.node(0b010).unwrap();
        assert_eq!(gender.get(&[0]).unwrap()[0], Some(1.0));
    }

    /// …but Variations 1–2 remain wrong: sums and averages double-count.
    #[test]
    fn pgcube_distinct_still_wrong_on_sum_and_avg() {
        let data = ceos();
        let spec = example3_spec(&data);
        let r = pg_cube(&spec, PgCubeVariant::Distinct);
        let area = r.node(0b100).unwrap();
        let manufacturer = &area.get(&[2]).unwrap();
        assert_eq!(manufacturer[1], Some(2.8e9 + 4.0 * 1.2e8)); // Variation 1
        let avg = manufacturer[2].unwrap();
        assert!((avg - (47.0 + 4.0 * 66.0) / 5.0).abs() < 1e-9); // Variation 2
    }

    /// Root-level results are always correct (each root group holds full
    /// combinations, so every fact appears once per group).
    #[test]
    fn pgcube_matches_mvdcube_at_root() {
        let data = ceos();
        let spec = example3_spec(&data);
        let opts = MvdCubeOptions::default();
        let pg = pg_cube(&spec, PgCubeVariant::Star);
        let mvd = crate::mvd_cube(&spec, &opts);
        let (a, b) = (pg.node(0b111).unwrap(), mvd.node(0b111).unwrap());
        assert_eq!(a.group_count(), b.group_count());
        for (key, vals) in b.groups() {
            let avals = a.get(&key).unwrap();
            for (x, y) in vals.iter().zip(avals) {
                match (x, y) {
                    (Some(x), Some(y)) => assert!((x - y).abs() < 1e-6),
                    (x, y) => assert_eq!(x, y),
                }
            }
        }
    }

    /// On single-valued data both PGCube variants agree with MVDCube on the
    /// entire lattice (Theorem 1's K = 0 case).
    #[test]
    fn pgcube_correct_without_multi_valued_dims() {
        use spade_storage::{CategoricalColumn, NumericColumn};
        let d1 = CategoricalColumn::from_rows("a", &[vec!["x"], vec!["y"], vec!["x"], vec![]]);
        let d2 =
            CategoricalColumn::from_rows("b", &[vec!["1"], vec!["2"], vec!["2"], vec!["1"]]);
        let m = NumericColumn::from_rows("v", &[vec![1.0], vec![2.0], vec![4.0], vec![8.0]])
            .preaggregate();
        let spec = CubeSpec::new(
            vec![&d1, &d2],
            vec![MeasureSpec {
                preagg: &m,
                fns: vec![AggFn::Sum, AggFn::Avg, AggFn::Count, AggFn::Min, AggFn::Max],
            }],
            4,
        );
        let opts = MvdCubeOptions::default();
        let mvd = crate::mvd_cube(&spec, &opts);
        for variant in [PgCubeVariant::Star, PgCubeVariant::Distinct] {
            let pg = pg_cube(&spec, variant);
            for (mask, node) in &mvd.nodes {
                let other = pg.node(*mask).unwrap();
                assert_eq!(node.group_count(), other.group_count(), "mask {mask:b}");
                for (key, vals) in node.groups() {
                    let ovals = other.get(&key).unwrap();
                    for (x, y) in vals.iter().zip(ovals) {
                        match (x, y) {
                            (Some(x), Some(y)) => {
                                assert!((x - y).abs() < 1e-9, "mask {mask:b} {key:?}")
                            }
                            (x, y) => assert_eq!(x, y, "mask {mask:b} {key:?}"),
                        }
                    }
                }
            }
        }
    }
}
