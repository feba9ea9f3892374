//! The classical ArrayCube baseline (Zhao, Deshpande, Naughton — SIGMOD
//! 1997), as recalled in Section 4.1 — and as shown *incorrect* for RDF in
//! Section 4.2.
//!
//! Cells hold partial aggregates; a child node is computed by aggregating
//! its MMST parent's cell values along the dropped dimension. When a fact
//! has several values on the dropped dimension it sits in several parent
//! cells, and its contribution is added once per cell — Lemma 1's double
//! counting. `count(*)`, `count(M)`, `sum(M)` and `avg(M)` are all affected;
//! `min`/`max` happen to commute with the projection and stay correct.
//!
//! This is a self-contained evaluator over [`prepare`]'s translation and
//! the lattice's MMST, sharing nothing with the bitmap engine. It exists to
//! show that error (and to verify Lemma 1 / Theorem 1 empirically), so it is
//! deliberately unoptimised — serial, every node's cells held in an ordered
//! map until the pass ends — and never timed; use [`crate::mvd_cube`] for
//! correct results.

use crate::mvdcube::{prepare, MvdCubeOptions};
use crate::result::{CubeResult, NodeResult, NULL_CODE};
use crate::spec::{CubeSpec, Mda, MdaKind};
use crate::translate::node_axes;
use spade_bitmap::Bitmap;
use spade_storage::{AggFn, FactId};
use std::collections::{BTreeMap, HashMap};

/// Per-measure partial aggregate (the classical cell payload).
#[derive(Clone, Copy, Debug)]
struct MeasureAccum {
    sum: f64,
    count: f64,
    lo: f64,
    hi: f64,
}

impl MeasureAccum {
    fn empty() -> Self {
        MeasureAccum { sum: 0.0, count: 0.0, lo: f64::INFINITY, hi: f64::NEG_INFINITY }
    }
}

/// A classical cell: partially aggregated values, no fact identity.
#[derive(Clone, Debug)]
struct ArrayCell {
    fact_count: f64,
    measures: Vec<MeasureAccum>,
}

impl ArrayCell {
    /// A root cell: the aggregates of one array cell's facts.
    fn of_facts(spec: &CubeSpec<'_>, facts: &Bitmap) -> ArrayCell {
        let mut cell = ArrayCell {
            fact_count: 0.0,
            measures: vec![MeasureAccum::empty(); spec.measures.len()],
        };
        for fact in facts.iter() {
            let fact = FactId(fact);
            cell.fact_count += 1.0;
            for (mi, m) in spec.measures.iter().enumerate() {
                let c = m.preagg.count(fact);
                if c == 0 {
                    continue;
                }
                let acc = &mut cell.measures[mi];
                acc.count += c as f64;
                acc.sum += m.preagg.sum(fact);
                acc.lo = acc.lo.min(m.preagg.min(fact).unwrap());
                acc.hi = acc.hi.max(m.preagg.max(fact).unwrap());
            }
        }
        cell
    }

    /// The incorrect step: aggregates are *added* across parent cells —
    /// "the fact n will be counted twice, instead of just once" (Lemma 1).
    fn add(&mut self, from: &ArrayCell) {
        self.fact_count += from.fact_count;
        for (a, b) in self.measures.iter_mut().zip(&from.measures) {
            a.sum += b.sum;
            a.count += b.count;
            a.lo = a.lo.min(b.lo);
            a.hi = a.hi.max(b.hi);
        }
    }

    fn values(&self, mdas: &[Mda]) -> Vec<Option<f64>> {
        mdas.iter()
            .map(|mda| match mda.kind {
                MdaKind::FactCount => Some(self.fact_count),
                MdaKind::Measure { measure, agg } => {
                    let acc = &self.measures[measure];
                    if acc.count == 0.0 {
                        return None;
                    }
                    Some(match agg {
                        AggFn::Count => acc.count,
                        AggFn::Sum => acc.sum,
                        AggFn::Avg => acc.sum / acc.count,
                        AggFn::Min => acc.lo,
                        AggFn::Max => acc.hi,
                    })
                }
            })
            .collect()
    }
}

/// Evaluates the full lattice with classical ArrayCube semantics.
///
/// Results are correct only for lattice nodes retaining every multi-valued
/// dimension (Theorem 1); the experiments use this to measure baseline
/// errors. A cell of any node is a root cell index with the dropped
/// dimensions' coordinates at 0, and each child sums its parent's cells in
/// ascending cell order, so every `f64` is a function of the data alone:
/// results are bit-identical for every `options` value (the MMST itself
/// never depends on the chunking — the lowest missing dimension is always
/// the cheapest to drop).
pub fn array_cube(spec: &CubeSpec<'_>, options: &MvdCubeOptions) -> CubeResult {
    let (lattice, translation) = prepare(spec, options, None);
    let mdas = spec.mdas();
    let mut result = CubeResult::new(mdas.iter().map(|m| m.label.clone()).collect());
    let mmst = lattice.mmst();
    let root: BTreeMap<u64, ArrayCell> = translation
        .partitions
        .iter()
        .flat_map(|p| &p.cells)
        .map(|(cell, facts)| (*cell, ArrayCell::of_facts(spec, facts)))
        .collect();
    let mut nodes: HashMap<u32, BTreeMap<u64, ArrayCell>> = HashMap::from([(mmst.root, root)]);
    for mask in mmst.topological() {
        if let Some(&(parent, dropped)) = mmst.parent.get(&mask) {
            let (stride, domain) =
                (translation.strides[dropped], lattice.domains[dropped] as u64);
            let mut cells: BTreeMap<u64, ArrayCell> = BTreeMap::new();
            for (&cell, from) in &nodes[&parent] {
                let key = cell - cell / stride % domain * stride;
                cells
                    .entry(key)
                    .and_modify(|into| into.add(from))
                    .or_insert_with(|| from.clone());
            }
            nodes.insert(mask, cells);
        }
        let cells = &nodes[&mask];
        if cells.is_empty() {
            continue;
        }
        let axes = node_axes(&lattice, mask);
        let groups = cells.iter().map(|(&cell, payload)| {
            let key = axes
                .iter()
                .map(|&(stride, domain)| match cell / stride % domain {
                    code if code == domain - 1 => NULL_CODE,
                    code => code as u32,
                })
                .collect();
            (key, payload.values(&mdas))
        });
        let node = NodeResult::from_groups(mask, &lattice.domains, mdas.len(), groups);
        result.nodes.insert(mask, node);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mvdcube::fixtures::ceos;
    use crate::spec::MeasureSpec;
    use spade_storage::AggFn;

    fn example3_arraycube() -> CubeResult {
        let data = ceos();
        let spec = CubeSpec::new(
            vec![&data.nationality, &data.gender, &data.area],
            vec![
                MeasureSpec { preagg: &data.net_worth, fns: vec![AggFn::Sum] },
                MeasureSpec { preagg: &data.age, fns: vec![AggFn::Avg, AggFn::Min] },
            ],
            2,
        );
        array_cube(&spec, &MvdCubeOptions::default())
    }

    /// Figure 4's cardinality bug, reproduced exactly: "In A4's result, we
    /// find five CEOs managing Manufacturer companies, whereas there are
    /// only two."
    #[test]
    fn figure4_a4_counts_five_manufacturer_ceos() {
        let result = example3_arraycube();
        let area_node = result.node(0b100).unwrap();
        // Manufacturer code = 2 (sorted labels).
        assert_eq!(area_node.get(&[2]).unwrap()[0], Some(5.0));
    }

    /// "A similar error occurs in A3 where we count three female CEOs."
    #[test]
    fn figure4_a3_counts_three_female_ceos() {
        let result = example3_arraycube();
        let gender_node = result.node(0b010).unwrap();
        assert_eq!(gender_node.get(&[0]).unwrap()[0], Some(3.0));
    }

    /// Variation 1's sum error: Manufacturer = 2.8B + 4·120M.
    #[test]
    fn variation1_sum_error() {
        let result = example3_arraycube();
        let area_node = result.node(0b100).unwrap();
        assert_eq!(area_node.get(&[2]).unwrap()[1], Some(2.8e9 + 4.0 * 1.2e8));
    }

    /// Variation 2's avg error: (47 + 4·66)/5 = 62.2 instead of 56.5.
    #[test]
    fn variation2_avg_error() {
        let result = example3_arraycube();
        let area_node = result.node(0b100).unwrap();
        let avg = area_node.get(&[2]).unwrap()[2].unwrap();
        assert!((avg - 62.2).abs() < 1e-9, "avg {avg}");
    }

    /// min/max survive the classical projection (they commute with it).
    #[test]
    fn min_remains_correct() {
        let result = example3_arraycube();
        let area_node = result.node(0b100).unwrap();
        assert_eq!(area_node.get(&[2]).unwrap()[3], Some(47.0));
    }

    /// Theorem 1 boundary: on single-valued data ArrayCube and MVDCube
    /// agree everywhere.
    #[test]
    fn agrees_with_mvdcube_on_single_valued_data() {
        use spade_storage::{CategoricalColumn, NumericColumn};
        let d1 = CategoricalColumn::from_rows("a", &[vec!["x"], vec!["y"], vec!["x"]]);
        let d2 = CategoricalColumn::from_rows("b", &[vec!["1"], vec![], vec!["2"]]);
        let m =
            NumericColumn::from_rows("v", &[vec![10.0], vec![20.0], vec![30.0]]).preaggregate();
        let spec = CubeSpec::new(
            vec![&d1, &d2],
            vec![MeasureSpec { preagg: &m, fns: vec![AggFn::Sum, AggFn::Avg, AggFn::Count] }],
            3,
        );
        let opts = MvdCubeOptions::default();
        let a = array_cube(&spec, &opts);
        let b = crate::mvd_cube(&spec, &opts);
        for (mask, node) in &b.nodes {
            let other = a.node(*mask).unwrap();
            assert_eq!(node.group_count(), other.group_count());
            for (key, vals) in node.groups() {
                let avals = other.get(&key).unwrap();
                for (x, y) in vals.iter().zip(avals) {
                    match (x, y) {
                        (Some(x), Some(y)) => assert!((x - y).abs() < 1e-9),
                        (a, b) => assert_eq!(a, b),
                    }
                }
            }
        }
    }

    /// The baseline's sums follow the data, never the plan: 24 000 facts, a
    /// multi-valued dimension and measure values with no exact binary form
    /// give the same bits at every thread count and chunking.
    #[test]
    fn results_are_bit_identical_under_every_plan() {
        use spade_storage::{CategoricalColumn, NumericColumn};
        const N: usize = 24_000;
        let labels: Vec<String> = (0..11).map(|v| format!("v{v:02}")).collect();
        let column = |name: &str, values: &dyn Fn(usize) -> Vec<usize>| {
            let rows: Vec<Vec<&str>> = (0..N)
                .map(|f| values(f).into_iter().map(|v| labels[v].as_str()).collect())
                .collect();
            CategoricalColumn::from_rows(name, &rows)
        };
        let a = column("a", &|f| {
            if f % 3 == 0 {
                vec![f % 11, (f / 11) % 11]
            } else {
                vec![f % 11]
            }
        });
        let b = column("b", &|f| if f % 13 == 0 { vec![] } else { vec![(f / 7) % 7] });
        let c = column("c", &|f| vec![(f / 5) % 5]);
        let rows: Vec<Vec<f64>> = (0..N).map(|i| vec![0.1 * i as f64]).collect();
        let m = NumericColumn::from_rows("v", &rows).preaggregate();
        let spec = CubeSpec::new(
            vec![&a, &b, &c],
            vec![MeasureSpec { preagg: &m, fns: vec![AggFn::Sum, AggFn::Avg] }],
            N,
        );
        let reference = array_cube(&spec, &MvdCubeOptions::default());
        assert_eq!(reference.nodes.len(), 8);
        for threads in [1usize, 2, 8] {
            for chunk_size in [None, Some(3)] {
                let options = MvdCubeOptions { threads, chunk_size, ..Default::default() };
                assert!(
                    array_cube(&spec, &options) == reference,
                    "threads {threads}, chunk_size {chunk_size:?}"
                );
            }
        }
    }
}
