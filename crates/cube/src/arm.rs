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
use std::collections::HashMap;

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

/// Accumulates per-aggregate statistics in one pass and ranks by `h`.
///
/// Single-owner: one manager scores one result on one thread.
#[derive(Debug, Default)]
pub struct AggregateResultManager {
    stats: HashMap<AggregateId, RunningMoments>,
}

impl AggregateResultManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one group's aggregated value for an MDA.
    pub fn push(&mut self, id: AggregateId, value: f64) {
        self.stats.entry(id).or_default().push(value);
    }

    /// Ingests a finished [`CubeResult`] (the batch path used after
    /// MVDCube/PGCube runs). Only *visible* groups are scored: per
    /// Section 2, CFs missing a dimension do not contribute to the result.
    ///
    /// Groups are consumed in sorted key order: floating-point accumulation
    /// is not associative, so a deterministic order makes scores (and hence
    /// tie-breaking in the top-k) reproducible across runs. Each aggregate's
    /// statistics are looked up once per node, not once per value.
    pub fn ingest(&mut self, result: &CubeResult) {
        for (&mask, node) in &result.nodes {
            let mut groups: Vec<(&Vec<u32>, &Vec<Option<f64>>)> =
                node.visible_groups().collect();
            groups.sort_by(|a, b| a.0.cmp(b.0));
            for mda in 0..result.mda_labels.len() {
                let mut values = groups.iter().filter_map(|(_, v)| *v.get(mda)?).peekable();
                if values.peek().is_some() {
                    let moments =
                        self.stats.entry(AggregateId { node_mask: mask, mda }).or_default();
                    values.for_each(|v| moments.push(v));
                }
            }
        }
    }

    /// Number of aggregates with at least one group value.
    pub fn aggregate_count(&self) -> usize {
        self.stats.len()
    }

    /// The incremental min/max statistics of one aggregate, if present.
    pub fn min_max(&self, id: AggregateId) -> Option<(f64, f64)> {
        let m = self.stats.get(&id)?;
        (m.count() > 0).then(|| (m.min(), m.max()))
    }

    /// Scores every aggregate with `h` and returns the `k` best, using the
    /// one-pass moments (no re-scan of group values).
    pub fn top_k(
        &self,
        h: Interestingness,
        k: usize,
        labels: &[String],
    ) -> Vec<ScoredAggregate> {
        let mut scored: Vec<ScoredAggregate> = self
            .stats
            .iter()
            .map(|(&id, m)| ScoredAggregate {
                id,
                mda_label: labels.get(id.mda).cloned().unwrap_or_default(),
                score: h.score_from_moments(m),
                group_count: m.count() as usize,
            })
            .collect();
        scored.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.id.cmp(&b.id)));
        scored.truncate(k);
        scored
    }
}

/// Convenience: score a finished result directly and return the top-k.
pub fn top_k_of_result(
    result: &CubeResult,
    h: Interestingness,
    k: usize,
) -> Vec<ScoredAggregate> {
    let mut arm = AggregateResultManager::new();
    arm.ingest(result);
    arm.top_k(h, k, &result.mda_labels)
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
    fn incremental_push_equals_ingest() {
        let r = result_with_two_aggregates();
        let mut batch = AggregateResultManager::new();
        batch.ingest(&r);
        let mut inc = AggregateResultManager::new();
        let id = AggregateId { node_mask: 0b1, mda: 1 };
        for v in [10.0, 11.0, 500.0] {
            inc.push(id, v);
        }
        let a = batch.top_k(Interestingness::Variance, 1, &r.mda_labels);
        let b = inc.top_k(Interestingness::Variance, 1, &r.mda_labels);
        assert_eq!(a[0].id, b[0].id);
        assert!((a[0].score - b[0].score).abs() < 1e-9);
    }

    #[test]
    fn min_max_statistics_maintained() {
        let r = result_with_two_aggregates();
        let mut arm = AggregateResultManager::new();
        arm.ingest(&r);
        let id = AggregateId { node_mask: 0b1, mda: 1 };
        assert_eq!(arm.min_max(id), Some((10.0, 500.0)));
        assert_eq!(arm.min_max(AggregateId { node_mask: 0b11, mda: 0 }), None);
        assert_eq!(arm.aggregate_count(), 2);
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
