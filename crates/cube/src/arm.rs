//! The Aggregate Result Manager (ARM).
//!
//! Section 3, Steps 4–5: "The final results are produced in an incremental
//! fashion and handled by the Aggregate Result Manager (ARM). The ARM stores
//! them and incrementally updates statistics such as minimum and maximum
//! values … used to determine the interestingness of the computed MDAs (by
//! applying h) in one pass over their results. … Once the evaluation is
//! complete, the ARM retrieves all the evaluated MDAs, computes their
//! interestingness score by applying h, and returns the k best aggregates."
//!
//! Here that pass is [`score_aggregates`]: one walk over each node's
//! visible rows, front to back, pushing every value into one
//! [`RunningMoments`] per MDA, and `h` applied to the moments. Rows are
//! stored in ascending key order (see [`crate::result`]), so the walk needs
//! no collect, sort or hash to be deterministic.
//!
//! The ARM works incrementally, as the paper describes: the pipeline
//! (`spade-core`) scores each lattice's result as soon as that lattice is
//! evaluated, folds the positive scores into the request's bounded top-k,
//! and drops the result, keeping only the nodes a current winner is drawn
//! from. No result waits for the end of evaluation, and none is read twice.

use crate::result::CubeResult;
use spade_stats::{Interestingness, RunningMoments};

/// Identifies one MDA inside one lattice: a lattice node plus an index into
/// the cube spec's MDA list.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AggregateId {
    /// Lattice node (dimension mask).
    pub node_mask: u32,
    /// Index into [`crate::CubeSpec::mdas`].
    pub mda: usize,
}

/// A scored aggregate, ready for the top-k list.
#[derive(Clone, Debug)]
pub struct ScoredAggregate {
    /// Which aggregate.
    pub id: AggregateId,
    /// `f(M)` label, e.g. `sum(netWorth)`.
    pub mda_label: String,
    /// Interestingness score `h({t₁.v … t_W.v})`.
    pub score: f64,
    /// Number of visible groups with a value for the MDA — `W`.
    pub group_count: usize,
}

/// Scores every aggregate of a finished result with `h`, calling
/// `visit(id, score, groups)` once per `(node, MDA)` that has at least one
/// visible group with a value (`groups` counts those), in no particular
/// node order.
///
/// Only *visible* groups are scored: per Section 2, CFs missing a
/// dimension do not contribute to the result. Each node's rows are read
/// once, in ascending key order: floating-point accumulation is not
/// associative, so a fixed order makes scores (and hence tie-breaking in
/// the top-k) reproducible across runs, thread counts and shard plans.
pub fn score_aggregates(
    result: &CubeResult,
    h: Interestingness,
    mut visit: impl FnMut(AggregateId, f64, usize),
) {
    // One accumulator per MDA, reset for each node.
    let mut moments = vec![RunningMoments::default(); result.mda_labels.len()];
    for (&node_mask, node) in &result.nodes {
        moments.fill(RunningMoments::default());
        for values in node.visible_rows() {
            for (m, value) in moments.iter_mut().zip(values) {
                if let Some(v) = value {
                    m.push(*v);
                }
            }
        }
        for (mda, m) in moments.iter().enumerate().filter(|(_, m)| m.count() > 0) {
            visit(AggregateId { node_mask, mda }, h.score_from_moments(m), m.count() as usize);
        }
    }
}

/// The `k` best aggregates of a finished result by [`score_aggregates`],
/// best first, ties broken by aggregate id.
pub fn top_k_of_result(
    result: &CubeResult,
    h: Interestingness,
    k: usize,
) -> Vec<ScoredAggregate> {
    let mut scored: Vec<(AggregateId, f64, usize)> = Vec::new();
    score_aggregates(result, h, |id, score, groups| scored.push((id, score, groups)));
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
        .into_iter()
        .map(|(id, score, group_count)| ScoredAggregate {
            id,
            mda_label: result.mda_labels[id.mda].clone(),
            score,
            group_count,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::NodeResult;

    fn result_with_two_aggregates() -> CubeResult {
        let mut r = CubeResult::new(vec!["count(*)".into(), "sum(x)".into()]);
        // count: uniform (uninteresting); sum: one outlier (interesting).
        let groups = [
            (vec![0], vec![Some(1.0), Some(10.0)]),
            (vec![1], vec![Some(1.0), Some(11.0)]),
            (vec![2], vec![Some(1.0), Some(500.0)]),
        ];
        r.nodes.insert(0b1, NodeResult::from_groups(0b1, &[4], 2, groups));
        r
    }

    #[test]
    fn ranks_outlier_aggregate_first() {
        let r = result_with_two_aggregates();
        let top = top_k_of_result(&r, Interestingness::Variance, 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].mda_label, "sum(x)");
        assert!(top[0].score > top[1].score);
        assert_eq!(top[1].score, 0.0); // uniform counts
    }

    #[test]
    fn k_truncates() {
        let r = result_with_two_aggregates();
        let top = top_k_of_result(&r, Interestingness::Variance, 1);
        assert_eq!(top.len(), 1);
    }

    #[test]
    fn deterministic_tie_break() {
        let mut r = CubeResult::new(vec!["count(*)".into()]);
        for mask in [0b1u32, 0b10] {
            let groups = [(vec![0], vec![Some(1.0)]), (vec![1], vec![Some(5.0)])];
            r.nodes.insert(mask, NodeResult::from_groups(mask, &[3, 3], 1, groups));
        }
        let top = top_k_of_result(&r, Interestingness::Variance, 2);
        // Equal scores: break ties by aggregate id.
        assert!(top[0].id < top[1].id);
    }

    #[test]
    fn null_groups_and_missing_values_are_not_scored() {
        let mut r = CubeResult::new(vec!["count(*)".into(), "sum(x)".into()]);
        let groups = [
            (vec![0], vec![Some(1.0), None]),
            (vec![1], vec![Some(3.0), Some(2.0)]),
            (vec![crate::result::NULL_CODE], vec![Some(100.0), Some(100.0)]),
        ];
        r.nodes.insert(0b1, NodeResult::from_groups(0b1, &[3], 2, groups));
        let mut seen = Vec::new();
        score_aggregates(&r, Interestingness::Variance, |id, score, groups| {
            seen.push((id.mda, score, groups))
        });
        seen.sort_by_key(|s| s.0);
        // count(*) over {1, 3}; sum(x) over {2} alone, a degenerate 0.
        assert_eq!(seen, vec![(0, 2.0, 2), (1, 0.0, 1)]);
    }
}
