//! The classical ArrayCube baseline (Zhao, Deshpande, Naughton — SIGMOD
//! 1997), as recalled in Section 4.1 — and as shown *incorrect* for RDF in
//! Section 4.2.
//!
//! Cells hold partial aggregates; a child node is computed by aggregating a
//! parent's cell values along the dropped dimension. When a fact has
//! several values on the dropped dimension it sits in several parent cells,
//! and its contribution is added once per cell — Lemma 1's double counting.
//! `count(*)`, `count(M)`, `sum(M)` and `avg(M)` are all affected;
//! `min`/`max` happen to commute with the projection and stay correct.
//!
//! This implementation exists as the experimental baseline (and to verify
//! Lemma 1 / Theorem 1 empirically); use [`crate::mvd_cube`] for correct
//! results.

use crate::engine::{run_engine, CubeAlgebra};
use crate::exec::ExecCtx;
use crate::mvdcube::{prepare_in, MvdCubeOptions};
use crate::result::CubeResult;
use crate::spec::{CubeSpec, MdaKind};
use spade_bitmap::Bitmap;
use spade_storage::FactId;

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
pub(crate) struct ArrayCell {
    fact_count: f64,
    measures: Vec<MeasureAccum>,
}

pub(crate) struct ArrayAlgebra<'a, 'b> {
    pub spec: &'b CubeSpec<'a>,
    /// MDA list cached once — `emit` runs per cell.
    pub mdas: Vec<crate::spec::Mda>,
}

impl<'a, 'b> ArrayAlgebra<'a, 'b> {
    pub fn new(spec: &'b CubeSpec<'a>) -> Self {
        ArrayAlgebra { spec, mdas: spec.mdas() }
    }
}

impl<'a, 'b> CubeAlgebra for ArrayAlgebra<'a, 'b> {
    type Cell = ArrayCell;
    /// Classical cells are already aggregated; nothing to precompute.
    type EmitPlan = ();
    type EmitScratch = ();

    fn root_cell(&self, facts: &Bitmap) -> ArrayCell {
        let mut cell = ArrayCell {
            fact_count: 0.0,
            measures: vec![MeasureAccum::empty(); self.spec.measures.len()],
        };
        for fact in facts.iter() {
            let fact = FactId(fact);
            cell.fact_count += 1.0;
            for (mi, m) in self.spec.measures.iter().enumerate() {
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
    fn merge(&self, into: &mut ArrayCell, from: &ArrayCell) {
        into.fact_count += from.fact_count;
        for (a, b) in into.measures.iter_mut().zip(&from.measures) {
            a.sum += b.sum;
            a.count += b.count;
            a.lo = a.lo.min(b.lo);
            a.hi = a.hi.max(b.hi);
        }
    }

    fn plan_emit(&self, _alive: &[bool]) {}

    fn emit(
        &self,
        cell: &ArrayCell,
        alive: &[bool],
        _plan: &(),
        _scratch: &mut (),
    ) -> Vec<Option<f64>> {
        self.mdas
            .iter()
            .zip(alive)
            .map(|(mda, &is_alive)| {
                if !is_alive {
                    return None;
                }
                match mda.kind {
                    MdaKind::FactCount => Some(cell.fact_count),
                    MdaKind::Measure { measure, agg } => {
                        let acc = &cell.measures[measure];
                        if acc.count == 0.0 {
                            return None;
                        }
                        Some(match agg {
                            spade_storage::AggFn::Count => acc.count,
                            spade_storage::AggFn::Sum => acc.sum,
                            spade_storage::AggFn::Avg => acc.sum / acc.count,
                            spade_storage::AggFn::Min => acc.lo,
                            spade_storage::AggFn::Max => acc.hi,
                        })
                    }
                }
            })
            .collect()
    }
}

/// Evaluates the full lattice with classical ArrayCube semantics.
///
/// Results are correct only for lattice nodes retaining every multi-valued
/// dimension (Theorem 1); the experiments use this to measure baseline
/// errors.
pub fn array_cube(spec: &CubeSpec<'_>, options: &MvdCubeOptions) -> CubeResult {
    ExecCtx::unbounded(options.threads, |cx| {
        let (lattice, translation) = prepare_in(spec, options, None, cx)?;
        run_engine(spec, &lattice, &translation, &ArrayAlgebra::new(spec), None, options, cx)
    })
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
        assert_eq!(area_node.groups[&vec![2]][0], Some(5.0));
    }

    /// "A similar error occurs in A3 where we count three female CEOs."
    #[test]
    fn figure4_a3_counts_three_female_ceos() {
        let result = example3_arraycube();
        let gender_node = result.node(0b010).unwrap();
        assert_eq!(gender_node.groups[&vec![0]][0], Some(3.0));
    }

    /// Variation 1's sum error: Manufacturer = 2.8B + 4·120M.
    #[test]
    fn variation1_sum_error() {
        let result = example3_arraycube();
        let area_node = result.node(0b100).unwrap();
        assert_eq!(area_node.groups[&vec![2]][1], Some(2.8e9 + 4.0 * 1.2e8));
    }

    /// Variation 2's avg error: (47 + 4·66)/5 = 62.2 instead of 56.5.
    #[test]
    fn variation2_avg_error() {
        let result = example3_arraycube();
        let area_node = result.node(0b100).unwrap();
        let avg = area_node.groups[&vec![2]][2].unwrap();
        assert!((avg - 62.2).abs() < 1e-9, "avg {avg}");
    }

    /// min/max survive the classical projection (they commute with it).
    #[test]
    fn min_remains_correct() {
        let result = example3_arraycube();
        let area_node = result.node(0b100).unwrap();
        assert_eq!(area_node.groups[&vec![2]][3], Some(47.0));
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
            assert_eq!(node.groups.len(), other.groups.len());
            for (key, vals) in &node.groups {
                let avals = &other.groups[key];
                for (x, y) in vals.iter().zip(avals) {
                    match (x, y) {
                        (Some(x), Some(y)) => assert!((x - y).abs() < 1e-9),
                        (a, b) => assert_eq!(a, b),
                    }
                }
            }
        }
    }
}
