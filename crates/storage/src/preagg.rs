//! Numeric measure columns and their per-fact pre-aggregation.
//!
//! The offline phase stores, "for each RDF node, … the aggregated value for
//! each (attribute, aggregate function) pair, e.g., the sum of a₁, the count
//! of a₁, the minimum of a₂" (Section 3). This is what lets MVDCube account
//! for facts with multiple measure values while still contributing exactly
//! once per cell: at measure-computation time the cell's bitmap is joined
//! with these per-fact aggregates, not with raw triples.
//!
//! A measure with at most one value per fact is stored as the paper's
//! "single float number for all pre-aggregated results (min, max, and sum)":
//! one `f64` per fact, NaN where the fact has no value (the builder drops
//! non-finite values, so NaN never stands for a value). Any other measure
//! keeps four columns: `count`, `sum`, `min` and `max`.
//! [`PreAggregated::is_single_valued`] says which layout a measure has.
//!
//! [`accumulate_all`] joins one fact list with several measures in one pass
//! ("measure computation … can aggregate different measures
//! simultaneously", Section 4.3 (b)). It gives each measure exactly what
//! [`PreAggregated::accumulate`] gives, to the bit.

use crate::fact_table::FactId;

/// Builder accumulating raw `(fact, value)` pairs of a numeric attribute.
#[derive(Clone, Debug, Default)]
pub struct NumericColumnBuilder {
    name: String,
    pairs: Vec<(u32, f64)>,
}

impl NumericColumnBuilder {
    /// Starts a column named after the attribute.
    pub fn new(name: impl Into<String>) -> Self {
        NumericColumnBuilder { name: name.into(), pairs: Vec::new() }
    }

    /// Records one value of `fact`. Non-finite values are ignored (they come
    /// from unparseable literals and would poison aggregates).
    pub fn add(&mut self, fact: FactId, value: f64) {
        if value.is_finite() {
            self.pairs.push((fact.0, value));
        }
    }

    /// Finalizes into a [`NumericColumn`] over `n_facts` facts.
    pub fn build(mut self, n_facts: usize) -> NumericColumn {
        self.pairs.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let mut offsets = Vec::with_capacity(n_facts + 1);
        let mut values = Vec::with_capacity(self.pairs.len());
        offsets.push(0u32);
        let mut cursor = 0usize;
        for fact in 0..n_facts as u32 {
            while cursor < self.pairs.len() && self.pairs[cursor].0 == fact {
                values.push(self.pairs[cursor].1);
                cursor += 1;
            }
            offsets.push(values.len() as u32);
        }
        assert!(cursor == self.pairs.len(), "fact id out of range in numeric column");
        NumericColumn { name: self.name, offsets, values }
    }
}

/// A finalized multi-valued numeric column (raw values, CSR layout).
#[derive(Clone, Debug)]
pub struct NumericColumn {
    name: String,
    offsets: Vec<u32>,
    values: Vec<f64>,
}

impl NumericColumn {
    /// Convenience constructor from per-fact value lists.
    pub fn from_rows(name: impl Into<String>, rows: &[Vec<f64>]) -> Self {
        let mut b = NumericColumnBuilder::new(name);
        for (i, row) in rows.iter().enumerate() {
            for &v in row {
                b.add(FactId(i as u32), v);
            }
        }
        b.build(rows.len())
    }

    /// The raw values of `fact`.
    pub(crate) fn values_of(&self, fact: FactId) -> &[f64] {
        let i = fact.index();
        &self.values[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Number of facts covered.
    pub(crate) fn n_facts(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Pre-aggregates per fact (the offline step).
    pub fn preaggregate(&self) -> PreAggregated {
        let n = self.n_facts();
        let single_valued = self.offsets.windows(2).all(|w| w[1] - w[0] <= 1);
        let (columns, lo, hi) = if single_valued {
            let mut value = vec![f64::NAN; n];
            for (fact, slot) in value.iter_mut().enumerate() {
                if let [v] = *self.values_of(FactId(fact as u32)) {
                    *slot = v;
                }
            }
            let lo = self.values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = self.values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            (Columns::Single { value }, lo, hi)
        } else {
            let mut count = vec![0; n];
            let mut sum = vec![0.0; n];
            let mut min = vec![f64::INFINITY; n];
            let mut max = vec![f64::NEG_INFINITY; n];
            for fact in 0..n {
                for &v in self.values_of(FactId(fact as u32)) {
                    count[fact] += 1;
                    sum[fact] += v;
                    min[fact] = min[fact].min(v);
                    max[fact] = max[fact].max(v);
                }
            }
            let lo = min.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = max.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            (Columns::Multi { count, sum, min, max }, lo, hi)
        };
        PreAggregated {
            name: self.name.clone(),
            columns,
            bounds: (lo <= hi).then_some((lo, hi)),
        }
    }
}

/// Per-fact pre-aggregated values of one measure attribute, ordered by fact
/// id (struct-of-arrays).
#[derive(Clone, Debug)]
pub struct PreAggregated {
    name: String,
    columns: Columns,
    /// Cached: the global `[min, max]` over every value of the column.
    bounds: Option<(f64, f64)>,
}

/// The per-fact columns of a [`PreAggregated`].
#[derive(Clone, Debug)]
enum Columns {
    /// Every fact has at most one value: the value itself, which is its
    /// sum, min and max; NaN where the fact has none.
    Single { value: Vec<f64> },
    /// Some fact has several values: four columns, with `min = +∞` and
    /// `max = −∞` where `count` is 0.
    Multi { count: Vec<u32>, sum: Vec<f64>, min: Vec<f64>, max: Vec<f64> },
}

/// Aggregate totals of one measure over a set of facts — what one cube
/// cell contributes for one measure.
#[derive(Clone, Copy, Debug)]
pub struct MeasureTotals {
    /// Total value count across the facts (0 = measure absent everywhere).
    pub count: u64,
    /// Sum of all values.
    pub sum: f64,
    /// Minimum value (`+∞` when `count == 0`).
    pub min: f64,
    /// Maximum value (`−∞` when `count == 0`).
    pub max: f64,
}

impl Default for MeasureTotals {
    fn default() -> Self {
        MeasureTotals { count: 0, sum: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }
}

impl MeasureTotals {
    /// Adds one fact of a single-valued measure, NaN meaning "no value",
    /// without a branch. A NaN adds `+0.0` to the sum, which leaves it
    /// unchanged: a sum that starts at `+0.0` is never `−0.0`. `f64::min`
    /// and `f64::max` return the other operand when one is NaN.
    #[inline(always)]
    fn add_value(&mut self, v: f64) {
        let has = !v.is_nan();
        self.count += has as u64;
        self.sum += if has { v } else { 0.0 };
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }
}

impl PreAggregated {
    /// Attribute name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of facts.
    pub fn n_facts(&self) -> usize {
        match &self.columns {
            Columns::Single { value } => value.len(),
            Columns::Multi { count, .. } => count.len(),
        }
    }

    /// How many values `fact` has for the measure (0 = missing).
    #[inline]
    pub fn count(&self, fact: FactId) -> u32 {
        match &self.columns {
            Columns::Single { value } => !value[fact.index()].is_nan() as u32,
            Columns::Multi { count, .. } => count[fact.index()],
        }
    }

    /// Sum of `fact`'s values (0 when missing).
    #[inline]
    pub fn sum(&self, fact: FactId) -> f64 {
        match &self.columns {
            Columns::Single { value } => present(value[fact.index()]).unwrap_or(0.0),
            Columns::Multi { sum, .. } => sum[fact.index()],
        }
    }

    /// Minimum of `fact`'s values, if any.
    #[inline]
    pub fn min(&self, fact: FactId) -> Option<f64> {
        match &self.columns {
            Columns::Single { value } => present(value[fact.index()]),
            Columns::Multi { count, min, .. } => {
                (count[fact.index()] > 0).then(|| min[fact.index()])
            }
        }
    }

    /// Maximum of `fact`'s values, if any.
    #[inline]
    pub fn max(&self, fact: FactId) -> Option<f64> {
        match &self.columns {
            Columns::Single { value } => present(value[fact.index()]),
            Columns::Multi { count, max, .. } => {
                (count[fact.index()] > 0).then(|| max[fact.index()])
            }
        }
    }

    /// Average of `fact`'s values, if any.
    #[inline]
    pub fn avg(&self, fact: FactId) -> Option<f64> {
        match &self.columns {
            Columns::Single { value } => present(value[fact.index()]),
            Columns::Multi { count, sum, .. } => {
                let c = count[fact.index()];
                (c > 0).then(|| sum[fact.index()] / c as f64)
            }
        }
    }

    /// Support: facts with at least one value.
    pub fn support(&self) -> usize {
        match &self.columns {
            Columns::Single { value } => value.iter().filter(|v| !v.is_nan()).count(),
            Columns::Multi { count, .. } => count.iter().filter(|&&c| c > 0).count(),
        }
    }

    /// Aggregates this measure over a stream of fact ids in one contiguous
    /// pass over its columns — the bitmap-to-CSR join MVDCube's measure
    /// computation performs per cell, one measure at a time (the engine
    /// joins all of a cell's measures at once with [`accumulate_all`]).
    /// Every value is added in stream order. Never panics on facts without
    /// a value: they simply do not contribute (the min/max slots stay at
    /// their identities when `count` ends up 0).
    #[inline]
    pub fn accumulate<I: IntoIterator<Item = u32>>(&self, facts: I) -> MeasureTotals {
        let mut t = MeasureTotals::default();
        match &self.columns {
            Columns::Single { value } => {
                for fact in facts {
                    t.add_value(value[fact as usize]);
                }
            }
            Columns::Multi { count, sum, min, max } => {
                for fact in facts {
                    let i = fact as usize;
                    let c = count[i];
                    if c == 0 {
                        continue;
                    }
                    t.count += c as u64;
                    t.sum += sum[i];
                    t.min = t.min.min(min[i]);
                    t.max = t.max.max(max[i]);
                }
            }
        }
        t
    }

    /// The global `[min, max]` over all facts, if any value exists — the
    /// offline statistic Appendix C's Popoviciu bound consumes. Computed
    /// once by [`NumericColumn::preaggregate`]; reading it is O(1).
    pub fn global_bounds(&self) -> Option<(f64, f64)> {
        self.bounds
    }

    /// `true` when every fact has at most one value — the paper's memory
    /// optimization case ("we allocate a single float number for all
    /// pre-aggregated results (min, max, and sum) for such properties"),
    /// and the layout this measure is stored in.
    pub fn is_single_valued(&self) -> bool {
        matches!(self.columns, Columns::Single { .. })
    }
}

/// A single-valued fact's value, `None` for NaN ("no value").
#[inline]
fn present(v: f64) -> Option<f64> {
    (!v.is_nan()).then_some(v)
}

/// How many single-valued measures [`accumulate_all`] joins per pass.
const BLOCK: usize = 4;

/// Aggregates each of `measures` over `facts`: `out[k]` becomes exactly
/// `measures[k].accumulate(facts)`, bit for bit.
///
/// Single-valued measures are joined four at a time in one pass over
/// `facts`, each with its own accumulators, so the additions of different
/// measures form independent dependency chains while each measure still
/// adds its facts in order. A multi-valued measure is joined on its own,
/// by [`PreAggregated::accumulate`].
///
/// # Panics
///
/// If `out` and `measures` differ in length, or a fact id is out of range
/// of a measure.
pub fn accumulate_all(measures: &[&PreAggregated], facts: &[u32], out: &mut [MeasureTotals]) {
    assert_eq!(measures.len(), out.len(), "one output slot per measure");
    let mut block: [(usize, &[f64]); BLOCK] = [(0, &[]); BLOCK];
    let mut pending = 0;
    for (k, measure) in measures.iter().enumerate() {
        match &measure.columns {
            Columns::Single { value } => {
                block[pending] = (k, value);
                pending += 1;
                if pending == BLOCK {
                    join_block::<BLOCK>(&block, facts, out);
                    pending = 0;
                }
            }
            Columns::Multi { .. } => out[k] = measure.accumulate(facts.iter().copied()),
        }
    }
    match pending {
        1 => join_block::<1>(&block, facts, out),
        2 => join_block::<2>(&block, facts, out),
        3 => join_block::<3>(&block, facts, out),
        _ => {}
    }
}

/// Joins the first `N` single-valued columns of `block` with `facts` in one
/// pass, writing each one's totals to its slot of `out`.
#[inline(always)]
fn join_block<const N: usize>(
    block: &[(usize, &[f64]); BLOCK],
    facts: &[u32],
    out: &mut [MeasureTotals],
) {
    let columns: [&[f64]; N] = std::array::from_fn(|j| block[j].1);
    let mut totals = [MeasureTotals::default(); N];
    for &fact in facts {
        let i = fact as usize;
        for (t, column) in totals.iter_mut().zip(columns) {
            t.add_value(column[i]);
        }
    }
    for (j, t) in totals.into_iter().enumerate() {
        out[block[j].0] = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preaggregate_basic() {
        let col = NumericColumn::from_rows("netWorth", &[vec![2.8e9], vec![1.2e8], vec![]]);
        let agg = col.preaggregate();
        assert_eq!(agg.count(FactId(0)), 1);
        assert_eq!(agg.sum(FactId(0)), 2.8e9);
        assert_eq!(agg.min(FactId(1)), Some(1.2e8));
        assert_eq!(agg.avg(FactId(1)), Some(1.2e8));
        assert_eq!(agg.count(FactId(2)), 0);
        assert_eq!(agg.min(FactId(2)), None);
        assert_eq!(agg.avg(FactId(2)), None);
        assert_eq!(agg.support(), 2);
    }

    #[test]
    fn multi_valued_measure() {
        let col = NumericColumn::from_rows("score", &[vec![1.0, 3.0, 5.0]]);
        let agg = col.preaggregate();
        assert_eq!(agg.count(FactId(0)), 3);
        assert_eq!(agg.sum(FactId(0)), 9.0);
        assert_eq!(agg.min(FactId(0)), Some(1.0));
        assert_eq!(agg.max(FactId(0)), Some(5.0));
        assert_eq!(agg.avg(FactId(0)), Some(3.0));
        assert!(!agg.is_single_valued());
    }

    #[test]
    fn single_valued_optimization_detected() {
        let col = NumericColumn::from_rows("age", &[vec![47.0], vec![66.0], vec![]]);
        let agg = col.preaggregate();
        assert!(agg.is_single_valued());
    }

    /// The cached bounds against a scan of the raw values.
    #[test]
    fn global_bounds() {
        let scanned = |col: &NumericColumn| {
            let values: Vec<f64> = (0..col.n_facts())
                .flat_map(|f| col.values_of(FactId(f as u32)).to_vec())
                .collect();
            let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            (!values.is_empty()).then_some((lo, hi))
        };
        let multi_valued = NumericColumn::from_rows("x", &[vec![5.0, -2.0], vec![], vec![9.0]]);
        assert_eq!(multi_valued.preaggregate().global_bounds(), Some((-2.0, 9.0)));
        let no_facts = NumericColumn::from_rows("e", &[]);
        let all_missing = NumericColumn::from_rows("y", &[vec![], vec![]]);
        // NaN and ±∞ never reach the column, so they cannot widen the bounds.
        let mut b = NumericColumnBuilder::new("z");
        for (fact, v) in
            [(0, f64::NAN), (0, 3.0), (1, f64::INFINITY), (2, f64::NEG_INFINITY), (2, -7.5)]
        {
            b.add(FactId(fact), v);
        }
        let non_finite_dropped = b.build(3);
        assert_eq!(non_finite_dropped.preaggregate().global_bounds(), Some((-7.5, 3.0)));
        for col in [&multi_valued, &no_facts, &all_missing, &non_finite_dropped] {
            let agg = col.preaggregate();
            assert_eq!(agg.global_bounds(), scanned(col), "{}", agg.name());
        }
        assert_eq!(all_missing.preaggregate().global_bounds(), None);
        assert_eq!(no_facts.preaggregate().global_bounds(), None);
    }

    #[test]
    fn non_finite_values_dropped() {
        let mut b = NumericColumnBuilder::new("x");
        b.add(FactId(0), f64::NAN);
        b.add(FactId(0), f64::INFINITY);
        b.add(FactId(0), 4.0);
        let col = b.build(1);
        assert_eq!(col.values_of(FactId(0)), &[4.0]);
    }

    #[test]
    fn unsorted_input_lands_on_right_facts() {
        let mut b = NumericColumnBuilder::new("x");
        b.add(FactId(2), 30.0);
        b.add(FactId(0), 10.0);
        b.add(FactId(2), 31.0);
        b.add(FactId(1), 20.0);
        let col = b.build(3);
        assert_eq!(col.values_of(FactId(0)), &[10.0]);
        assert_eq!(col.values_of(FactId(1)), &[20.0]);
        assert_eq!(col.values_of(FactId(2)), &[30.0, 31.0]);
    }
}
