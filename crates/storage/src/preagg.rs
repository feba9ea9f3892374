//! Numeric measure columns and their per-fact pre-aggregation.
//!
//! The offline phase stores, "for each RDF node, … the aggregated value for
//! each (attribute, aggregate function) pair, e.g., the sum of a₁, the count
//! of a₁, the minimum of a₂" (Section 3). This is what lets MVDCube account
//! for facts with multiple measure values while still contributing exactly
//! once per cell: at measure-computation time the cell's bitmap is joined
//! with these per-fact aggregates, not with raw triples.
//!
//! The paper's single-float optimization for provably single-valued numeric
//! properties is captured by [`PreAggregated::is_single_valued`] +
//! [`PreAggregated::float_slots`] (min = max = sum when every count ≤ 1).

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

    /// Attribute name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The raw values of `fact`.
    pub fn values_of(&self, fact: FactId) -> &[f64] {
        let i = fact.index();
        &self.values[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Number of facts covered.
    pub fn n_facts(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Pre-aggregates per fact (the offline step).
    pub fn preaggregate(&self) -> PreAggregated {
        let n = self.n_facts();
        let mut agg = PreAggregated {
            name: self.name.clone(),
            count: vec![0; n],
            sum: vec![0.0; n],
            min: vec![f64::INFINITY; n],
            max: vec![f64::NEG_INFINITY; n],
            single_valued: false,
            bounds: None,
        };
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for fact in 0..n {
            for &v in self.values_of(FactId(fact as u32)) {
                agg.count[fact] += 1;
                agg.sum[fact] += v;
                agg.min[fact] = agg.min[fact].min(v);
                agg.max[fact] = agg.max[fact].max(v);
            }
            lo = lo.min(agg.min[fact]);
            hi = hi.max(agg.max[fact]);
        }
        agg.single_valued = agg.count.iter().all(|&c| c <= 1);
        agg.bounds = (lo <= hi).then_some((lo, hi));
        agg
    }
}

/// Per-fact pre-aggregated values of one measure attribute, ordered by fact
/// id (struct-of-arrays).
#[derive(Clone, Debug)]
pub struct PreAggregated {
    name: String,
    count: Vec<u32>,
    sum: Vec<f64>,
    min: Vec<f64>,
    max: Vec<f64>,
    /// Cached: every fact has at most one value (the paper's single-float
    /// memory case, and `accumulate`'s two-column fast path).
    single_valued: bool,
    /// Cached: the global `[min, max]` over every value of the column.
    bounds: Option<(f64, f64)>,
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

impl PreAggregated {
    /// Attribute name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of facts.
    pub fn n_facts(&self) -> usize {
        self.count.len()
    }

    /// How many values `fact` has for the measure (0 = missing).
    #[inline]
    pub fn count(&self, fact: FactId) -> u32 {
        self.count[fact.index()]
    }

    /// Sum of `fact`'s values (0 when missing).
    #[inline]
    pub fn sum(&self, fact: FactId) -> f64 {
        self.sum[fact.index()]
    }

    /// Minimum of `fact`'s values, if any.
    #[inline]
    pub fn min(&self, fact: FactId) -> Option<f64> {
        (self.count[fact.index()] > 0).then(|| self.min[fact.index()])
    }

    /// Maximum of `fact`'s values, if any.
    #[inline]
    pub fn max(&self, fact: FactId) -> Option<f64> {
        (self.count[fact.index()] > 0).then(|| self.max[fact.index()])
    }

    /// Average of `fact`'s values, if any.
    #[inline]
    pub fn avg(&self, fact: FactId) -> Option<f64> {
        (self.count[fact.index()] > 0)
            .then(|| self.sum[fact.index()] / self.count[fact.index()] as f64)
    }

    /// Support: facts with at least one value.
    pub fn support(&self) -> usize {
        self.count.iter().filter(|&&c| c > 0).count()
    }

    /// Aggregates this measure over a stream of fact ids in one contiguous
    /// pass over the struct-of-arrays columns — the batched bitmap-to-CSR
    /// join MVDCube's measure computation performs per cell. Never panics:
    /// facts without a value simply do not contribute (the min/max slots
    /// stay at their identities when `count` ends up 0).
    #[inline]
    pub fn accumulate<I: IntoIterator<Item = u32>>(&self, facts: I) -> MeasureTotals {
        let mut t = MeasureTotals::default();
        if self.single_valued {
            // min = max = sum for ≤1 value per fact: two columns suffice.
            for fact in facts {
                let i = fact as usize;
                if self.count[i] == 0 {
                    continue;
                }
                let v = self.sum[i];
                t.count += 1;
                t.sum += v;
                t.min = t.min.min(v);
                t.max = t.max.max(v);
            }
            return t;
        }
        for fact in facts {
            let i = fact as usize;
            let c = self.count[i];
            if c == 0 {
                continue;
            }
            t.count += c as u64;
            t.sum += self.sum[i];
            t.min = t.min.min(self.min[i]);
            t.max = t.max.max(self.max[i]);
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
    /// pre-aggregated results (min, max, and sum) for such properties").
    pub fn is_single_valued(&self) -> bool {
        self.single_valued
    }

    /// Float slots needed per fact under the paper's memory model: 1 for
    /// single-valued properties, 3 (sum/min/max) otherwise.
    pub fn float_slots(&self) -> usize {
        if self.is_single_valued() {
            1
        } else {
            3
        }
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
        assert_eq!(agg.float_slots(), 3);
    }

    #[test]
    fn single_valued_optimization_detected() {
        let col = NumericColumn::from_rows("age", &[vec![47.0], vec![66.0], vec![]]);
        let agg = col.preaggregate();
        assert!(agg.is_single_valued());
        assert_eq!(agg.float_slots(), 1);
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
            assert_eq!(col.preaggregate().global_bounds(), scanned(col), "{}", col.name());
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
