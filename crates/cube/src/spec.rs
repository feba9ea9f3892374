//! Cube specifications: which dimensions, measures, and aggregate functions
//! one lattice evaluates.
//!
//! An MMST node "represents all the MDAs that have dimensions D_j (but might
//! differ in their measure and aggregate function)" (Section 4.3). A
//! [`CubeSpec`] therefore carries the dimension columns once, plus the list
//! of `(measure, aggregate function)` pairs evaluated *simultaneously* in
//! every lattice node — including the implicit fact-count MDA (`count(*)`
//! over distinct facts, e.g. "number of CEOs").

use spade_storage::{AggFn, CategoricalColumn, PreAggregated};

/// One measure attribute with the aggregate functions assigned to it
/// (`S_{M_i}` in the paper's memory analysis).
#[derive(Clone)]
pub struct MeasureSpec<'a> {
    /// The measure's per-fact pre-aggregates (offline phase output).
    pub preagg: &'a PreAggregated,
    /// The aggregate functions to evaluate on this measure.
    pub fns: Vec<AggFn>,
}

/// What a single MDA aggregates.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum MdaKind {
    /// `count(*)` over distinct facts — the corrected Example-3 semantics.
    FactCount,
    /// `agg(measure)` where `measure` indexes [`CubeSpec::measures`].
    Measure {
        /// Index into the spec's measure list.
        measure: usize,
        /// The aggregate function applied.
        agg: AggFn,
    },
}

/// One multidimensional aggregate evaluated by a lattice node.
#[derive(Clone, Debug)]
pub struct Mda {
    /// What is aggregated.
    pub kind: MdaKind,
    /// Display label, e.g. `count(*)` or `sum(netWorth)`.
    pub label: String,
}

/// The full specification of one lattice evaluation.
#[derive(Clone)]
pub struct CubeSpec<'a> {
    /// Dimension columns `D₁…D_N` (order fixes the array axes).
    pub dims: Vec<&'a CategoricalColumn>,
    /// Measure attributes with their aggregate functions.
    pub measures: Vec<MeasureSpec<'a>>,
    /// `|CFS|`.
    pub n_facts: usize,
    /// Whether to include the fact-count MDA.
    pub count_facts: bool,
}

impl<'a> CubeSpec<'a> {
    /// Creates a spec with the fact-count MDA enabled.
    pub fn new(
        dims: Vec<&'a CategoricalColumn>,
        measures: Vec<MeasureSpec<'a>>,
        n_facts: usize,
    ) -> Self {
        assert!(!dims.is_empty(), "a lattice needs at least one dimension");
        for d in &dims {
            assert_eq!(d.n_facts(), n_facts, "dimension {} has wrong fact count", d.name());
        }
        for m in &measures {
            assert_eq!(
                m.preagg.n_facts(),
                n_facts,
                "measure {} has wrong fact count",
                m.preagg.name()
            );
        }
        CubeSpec { dims, measures, n_facts, count_facts: true }
    }

    /// Number of dimensions `N`.
    pub(crate) fn n_dims(&self) -> usize {
        self.dims.len()
    }

    /// Per-dimension domain sizes *including* the null slot ("We add the
    /// special value null in the domain of each dimension to account for
    /// missing values", Section 4.3). Null is the last code,
    /// `distinct_values()`.
    pub fn domain_sizes(&self) -> Vec<u32> {
        self.dims.iter().map(|d| d.distinct_values() as u32 + 1).collect()
    }

    /// The flat MDA list each lattice node evaluates: the fact count first
    /// (if enabled), then every `(measure, fn)` pair.
    pub fn mdas(&self) -> Vec<Mda> {
        let mut out = Vec::new();
        if self.count_facts {
            out.push(Mda { kind: MdaKind::FactCount, label: "count(*)".to_owned() });
        }
        for (mi, m) in self.measures.iter().enumerate() {
            for &f in &m.fns {
                out.push(Mda {
                    kind: MdaKind::Measure { measure: mi, agg: f },
                    label: format!("{f}({})", m.preagg.name()),
                });
            }
        }
        out
    }

    /// The dimension set `MD` of Theorem 1: indexes of dimensions for which
    /// some fact has more than one value.
    pub fn multi_valued_dims(&self) -> Vec<usize> {
        self.dims
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_multi_valued())
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spade_storage::{CategoricalColumn, NumericColumn};

    #[test]
    fn mda_list_contains_count_and_measure_fns() {
        let dim = CategoricalColumn::from_rows("g", &[vec!["a"], vec!["b"]]);
        let m = NumericColumn::from_rows("age", &[vec![47.0], vec![66.0]]).preaggregate();
        let spec = CubeSpec::new(
            vec![&dim],
            vec![MeasureSpec { preagg: &m, fns: vec![AggFn::Avg, AggFn::Sum] }],
            2,
        );
        let mdas = spec.mdas();
        assert_eq!(mdas.len(), 3);
        assert_eq!(mdas[0].label, "count(*)");
        assert_eq!(mdas[1].label, "avg(age)");
        assert_eq!(mdas[2].label, "sum(age)");
    }

    #[test]
    fn domain_sizes_include_null() {
        let dim = CategoricalColumn::from_rows("g", &[vec!["a", "b"], vec!["c"]]);
        let spec = CubeSpec::new(vec![&dim], vec![], 2);
        assert_eq!(spec.domain_sizes(), vec![4]); // a, b, c + null
    }

    #[test]
    fn multi_valued_dims_detected() {
        let single = CategoricalColumn::from_rows("g", &[vec!["a"], vec!["b"]]);
        let multi = CategoricalColumn::from_rows("n", &[vec!["x", "y"], vec!["z"]]);
        let spec = CubeSpec::new(vec![&single, &multi], vec![], 2);
        assert_eq!(spec.multi_valued_dims(), vec![1]);
    }

    #[test]
    #[should_panic(expected = "wrong fact count")]
    fn fact_count_mismatch_rejected() {
        let dim = CategoricalColumn::from_rows("g", &[vec!["a"]]);
        let _ = CubeSpec::new(vec![&dim], vec![], 5);
    }
}
