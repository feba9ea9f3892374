//! The Aggregate Result Manager (ARM).
//!
//! Section 3, Steps 4–5: "The final results are produced in an incremental
//! fashion and handled by the Aggregate Result Manager (ARM). The ARM stores
//! them and incrementally updates statistics such as minimum and maximum
//! values … used to determine the interestingness of the computed MDAs (by
//! applying h) in one pass over their results. … Once the evaluation is
//! complete, the ARM retrieves all the evaluated MDAs, computes their
//! interestingness score by applying h, and returns the k best aggregates."

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
    /// Number of groups `W` in the result.
    pub group_count: usize,
}

/// Scores every aggregate of a finished result with `h`, from one-pass
/// moments (no re-scan of group values), and returns the `k` best.
///
/// Only *visible* groups are scored: per Section 2, CFs missing a
/// dimension do not contribute to the result. Groups are consumed in
/// sorted key order: floating-point accumulation is not associative, so a
/// deterministic order makes scores (and hence tie-breaking in the top-k)
/// reproducible across runs.
pub fn top_k_of_result(
    result: &CubeResult,
    h: Interestingness,
    k: usize,
) -> Vec<ScoredAggregate> {
    let mut scored = Vec::new();
    // One accumulator per MDA, reset for each node.
    let mut moments = vec![RunningMoments::default(); result.mda_labels.len()];
    for (&node_mask, node) in &result.nodes {
        let mut groups: Vec<(&Vec<u32>, &Vec<Option<f64>>)> = node.visible_groups().collect();
        groups.sort_by(|a, b| a.0.cmp(b.0));
        moments.fill(RunningMoments::default());
        for (_, values) in groups {
            for (m, value) in moments.iter_mut().zip(values) {
                if let Some(v) = value {
                    m.push(*v);
                }
            }
        }
        for (mda, m) in moments.iter().enumerate().filter(|(_, m)| m.count() > 0) {
            scored.push(ScoredAggregate {
                id: AggregateId { node_mask, mda },
                mda_label: result.mda_labels[mda].clone(),
                score: h.score_from_moments(m),
                group_count: m.count() as usize,
            });
        }
    }
    scored.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.id.cmp(&b.id)));
    scored.truncate(k);
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::NodeResult;

    fn result_with_two_aggregates() -> CubeResult {
        let mut r = CubeResult::new(vec!["count(*)".into(), "sum(x)".into()]);
        let mut flat = NodeResult::new(0b1);
        // count: uniform (uninteresting); sum: one outlier (interesting).
        flat.groups.insert(vec![0], vec![Some(1.0), Some(10.0)]);
        flat.groups.insert(vec![1], vec![Some(1.0), Some(11.0)]);
        flat.groups.insert(vec![2], vec![Some(1.0), Some(500.0)]);
        r.nodes.insert(0b1, flat);
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
            let mut node = NodeResult::new(mask);
            node.groups.insert(vec![0], vec![Some(1.0)]);
            node.groups.insert(vec![1], vec![Some(5.0)]);
            r.nodes.insert(mask, node);
        }
        let top = top_k_of_result(&r, Interestingness::Variance, 2);
        // Equal scores: break ties by aggregate id.
        assert!(top[0].id < top[1].id);
    }
}
