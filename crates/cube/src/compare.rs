//! Error measurement between a correct result and a baseline result —
//! the instrumentation behind Experiments 2 and 3 (Table 3, Figure 10).
//!
//! "Given an aggregate A, we denote m^A_j the value of the aggregated
//! measure of the j-th group in A, as computed by MVDCube. We denote by
//! p^A_j the value that PGCube^d computes for the same group. … Each
//! aggregate thus leads to a set of error ratios, one per group."

use crate::result::{CubeResult, NodeResult};
use std::collections::HashMap;

/// Outcome of comparing a baseline against the correct result.
#[derive(Clone, Debug, Default)]
pub struct ComparisonReport {
    /// Total `(node, MDA)` aggregates compared.
    pub total_aggregates: usize,
    /// Aggregates with at least one differing group (Table 3's "#wrong
    /// aggs").
    pub wrong_aggregates: usize,
    /// Per-MDA-label wrong-aggregate counts.
    pub wrong_by_mda: HashMap<String, usize>,
    /// Error ratios `p/m` of every wrong group, keyed by MDA label
    /// (Figure 10's distributions for `count` and `sum`).
    pub error_ratios: HashMap<String, Vec<f64>>,
}

impl ComparisonReport {
    /// The largest error ratio observed, if any group was wrong.
    pub fn max_ratio(&self) -> Option<f64> {
        self.error_ratios
            .values()
            .flatten()
            .copied()
            .fold(None, |acc, r| Some(acc.map_or(r, |a: f64| a.max(r))))
    }

    /// Fraction of wrong aggregates.
    pub fn wrong_fraction(&self) -> f64 {
        if self.total_aggregates == 0 {
            0.0
        } else {
            self.wrong_aggregates as f64 / self.total_aggregates as f64
        }
    }

    /// Accumulates another report (e.g. across the lattices of a dataset).
    pub fn merge(&mut self, other: &ComparisonReport) {
        self.total_aggregates += other.total_aggregates;
        self.wrong_aggregates += other.wrong_aggregates;
        for (label, count) in &other.wrong_by_mda {
            *self.wrong_by_mda.entry(label.clone()).or_default() += count;
        }
        for (label, ratios) in &other.error_ratios {
            self.error_ratios.entry(label.clone()).or_default().extend_from_slice(ratios);
        }
    }
}

/// Compares `baseline` against `correct`, group by group.
///
/// Values differing by more than `rel_eps` relatively (or groups present on
/// only one side) mark the enclosing `(node, MDA)` aggregate wrong; every
/// wrong group with comparable positive values contributes a `p/m` ratio.
pub fn compare_results(
    correct: &CubeResult,
    baseline: &CubeResult,
    rel_eps: f64,
) -> ComparisonReport {
    let mut report =
        ComparisonReport { total_aggregates: correct.aggregate_count(), ..Default::default() };
    let n_mdas = correct.mda_labels.len();

    for (mask, correct_node) in &correct.nodes {
        let mut wrong = vec![false; n_mdas];
        // A group missing on one side reads as all-`None` there: a value
        // the other side has falsifies the aggregate (missing or phantom
        // group).
        for (correct_vals, baseline_vals) in join_rows(correct_node, baseline.node(*mask)) {
            for mda in 0..n_mdas {
                let m = correct_vals.and_then(|v| v[mda]);
                let p = baseline_vals.and_then(|v| v[mda]);
                match (m, p) {
                    (None, None) => {}
                    (Some(m), Some(p)) => {
                        let tol = rel_eps * (1.0 + m.abs().max(p.abs()));
                        if (m - p).abs() > tol {
                            wrong[mda] = true;
                            if m != 0.0 && m.signum() == p.signum() {
                                let label = &correct.mda_labels[mda];
                                report
                                    .error_ratios
                                    .entry(label.clone())
                                    .or_default()
                                    .push(p / m);
                            }
                        }
                    }
                    _ => wrong[mda] = true,
                }
            }
        }
        for (label, _) in correct.mda_labels.iter().zip(wrong).filter(|(_, w)| *w) {
            report.wrong_aggregates += 1;
            *report.wrong_by_mda.entry(label.clone()).or_default() += 1;
        }
    }
    report
}

type Row<'a> = Option<&'a [Option<f64>]>;

/// The rows of two results for one node, paired by group key in ascending
/// key order — a merge join over the two sorted cell columns; `None` on the
/// side that lacks the group.
fn join_rows<'a>(a: &'a NodeResult, b: Option<&'a NodeResult>) -> Vec<(Row<'a>, Row<'a>)> {
    if let Some(b) = b {
        assert_eq!(a.domains, b.domains, "node {:b}: the results' domains differ", a.mask);
    }
    let mut rows_a = a.rows().peekable();
    let mut rows_b = b.into_iter().flat_map(NodeResult::rows).peekable();
    let mut out = Vec::new();
    loop {
        let (take_a, take_b) = match (rows_a.peek(), rows_b.peek()) {
            (None, None) => break,
            (Some(ra), Some(rb)) => (ra.0 <= rb.0, rb.0 <= ra.0),
            (Some(_), None) => (true, false),
            (None, Some(_)) => (false, true),
        };
        let a_row = rows_a.next_if(|_| take_a).map(|r| r.2);
        let b_row = rows_b.next_if(|_| take_b).map(|r| r.2);
        out.push((a_row, b_row));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mvdcube::fixtures::ceos;
    use crate::mvdcube::{mvd_cube, MvdCubeOptions};
    use crate::pgcube::{pg_cube, PgCubeVariant};
    use crate::spec::{CubeSpec, MeasureSpec};
    use spade_storage::AggFn;

    fn reports() -> (ComparisonReport, ComparisonReport) {
        let data = ceos();
        let spec = CubeSpec::new(
            vec![&data.nationality, &data.gender, &data.area],
            vec![MeasureSpec { preagg: &data.net_worth, fns: vec![AggFn::Sum] }],
            2,
        );
        let opts = MvdCubeOptions::default();
        let correct = mvd_cube(&spec, &opts);
        let star = pg_cube(&spec, PgCubeVariant::Star, &opts);
        let distinct = pg_cube(&spec, PgCubeVariant::Distinct, &opts);
        (compare_results(&correct, &star, 1e-9), compare_results(&correct, &distinct, 1e-9))
    }

    #[test]
    fn star_has_more_wrong_aggregates_than_distinct() {
        let (star, distinct) = reports();
        assert!(star.wrong_aggregates > 0);
        assert!(distinct.wrong_aggregates > 0, "sums stay wrong in PGCube^d");
        assert!(
            star.wrong_aggregates >= distinct.wrong_aggregates,
            "count(distinct) repairs some aggregates (R4's ordering)"
        );
    }

    #[test]
    fn error_ratios_exceed_one() {
        // "p can only be higher than or equal to the correct value m."
        let (star, distinct) = reports();
        for report in [&star, &distinct] {
            for ratios in report.error_ratios.values() {
                for &r in ratios {
                    assert!(r > 1.0, "ratio {r} not an overcount");
                }
            }
        }
        // Figure 4's A4 has Manufacturer counted 5/2 = 2.5×.
        assert!(star.error_ratios["count(*)"].iter().any(|&r| (r - 2.5).abs() < 1e-9));
    }

    #[test]
    fn identical_results_have_no_errors() {
        let data = ceos();
        let spec = CubeSpec::new(
            vec![&data.nationality],
            vec![MeasureSpec { preagg: &data.age, fns: vec![AggFn::Avg] }],
            2,
        );
        let opts = MvdCubeOptions::default();
        let a = mvd_cube(&spec, &opts);
        let b = mvd_cube(&spec, &opts);
        let report = compare_results(&a, &b, 1e-12);
        assert_eq!(report.wrong_aggregates, 0);
        assert_eq!(report.max_ratio(), None);
        assert_eq!(report.wrong_fraction(), 0.0);
    }

    #[test]
    fn theorem1_bound_on_correct_aggregates() {
        // All 3 dims of Example 3 are multi-valued for at least one fact?
        // nationality: n2 has 4 values; area: both multi; gender: single.
        // K = 2 → at most 2^{3−2} = 2 nodes correct; count(*) must be wrong
        // in at least 2^3 − 2 = 6 nodes for PGCube*.
        let (star, _) = reports();
        let count_wrong = star.wrong_by_mda.get("count(*)").copied().unwrap_or(0);
        assert!(count_wrong >= 6, "count(*) wrong in {count_wrong} nodes");
    }
}
