//! Early-stop aggregate pruning (Section 5).
//!
//! "We could reduce the effort to compute some aggregates if we can
//! determine (with high probability) that they will not be among the k most
//! interesting ones. … To prune some aggregates, if we find that the
//! upper-bound on the estimate of A's interestingness is lower than the
//! current lower-bound of the k-th best aggregate, we can give up evaluating
//! A. … This procedure terminates once the sample is exhausted or no
//! aggregates have been pruned in a given number of batches."
//!
//! Pruning costs in proportion to the *sample*, never to the data. The
//! root's per-group bottom-k samples from Data Translation are projected
//! down the MMST (`SampleSet::project`): each node's group sample is
//! exactly the bottom-k of the whole group, a multi-valued fact counting
//! once — the sampling mirror of MVDCube's bitmap propagation ("each node in
//! the MMST receives its own sample", Section 5.3). A sample is consumed in
//! priority order, so every batch is itself uniform; a batch reads each
//! sampled fact's pre-aggregated row once per measure into one running
//! series per (node, group, per-fact statistic), and the per-MDA confidence
//! intervals of Theorem 2 / Appendices B–C read those series and the
//! measures' cached global bounds.
//!
//! What pruning saves is the measure join of the pruned aggregates; the
//! pruned cube still pays translation and the bitmap cascade in full. On
//! the pinned 150 k-fact `cube_earlystop` case that comes to parity with
//! full evaluation: early-stop pays once groups outgrow the sample.

use crate::exec::ExecCtx;
use crate::lattice::{Lattice, Mmst};
use crate::spec::{CubeSpec, MdaKind};
use crate::translate::{node_axes, SampleSet};
use spade_parallel::Cancelled;
use spade_stats::ci::EstimatorKind;
use spade_stats::{GroupSample, Interestingness, InterestingnessCi, ScoreInterval};
use spade_storage::{AggFn, FactId};
use std::collections::HashMap;

/// Early-stop tuning parameters.
#[derive(Clone, Copy, Debug)]
pub struct EarlyStopConfig {
    /// How many aggregates the user wants (`k`).
    pub k: usize,
    /// The interestingness function the run optimizes.
    pub h: Interestingness,
    /// Confidence level `1 − α` of the pruning intervals.
    pub confidence: f64,
    /// Per-group sample size (the paper's empirically good value: 60).
    pub sample_size: usize,
    /// Number of batches the sample is consumed in (paper: 2).
    pub batches: usize,
}

impl Default for EarlyStopConfig {
    fn default() -> Self {
        EarlyStopConfig {
            k: 10,
            h: Interestingness::Variance,
            confidence: 0.95,
            sample_size: 60,
            batches: 2,
        }
    }
}

/// What early-stop decided.
#[derive(Clone, Debug, PartialEq)]
pub struct EarlyStopOutcome {
    /// Per lattice node: per-MDA liveness (false = pruned).
    pub alive: HashMap<u32, Vec<bool>>,
    /// Number of pruned `(node, MDA)` aggregates.
    pub pruned: usize,
    /// Total number of `(node, MDA)` aggregates considered.
    pub total: usize,
    /// Batches actually executed.
    pub batches_run: usize,
}

impl EarlyStopOutcome {
    /// Fraction of aggregates pruned (Table 4's `pruned%`).
    pub fn pruned_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.pruned as f64 / self.total as f64
        }
    }
}

/// A running series of the batch update: `(measure, per-fact statistic)`.
type SeriesKey = (usize, AggFn);

/// The series an MDA's interval reads; `None` for the fact count, which is
/// exact from the group sizes. A fact of a single-valued measure has
/// sum = avg = min = max, so one series serves all four functions; a
/// multi-valued measure keeps them apart.
fn series_key(spec: &CubeSpec<'_>, kind: &MdaKind) -> Option<SeriesKey> {
    let MdaKind::Measure { measure, agg } = *kind else { return None };
    let one_value = agg != AggFn::Count && spec.measures[measure].preagg.is_single_valued();
    Some((measure, if one_value { AggFn::Sum } else { agg }))
}

/// The point estimator an aggregate function needs.
fn estimator_for(kind: &MdaKind) -> EstimatorKind {
    match kind {
        MdaKind::FactCount => EstimatorKind::Count,
        MdaKind::Measure { agg: AggFn::Avg, .. } => EstimatorKind::Avg,
        // count(M) = Σ per-fact value counts → a sum estimator over them.
        MdaKind::Measure { agg: AggFn::Sum | AggFn::Count, .. } => EstimatorKind::Sum,
        MdaKind::Measure { agg: AggFn::Min, .. } => EstimatorKind::Min,
        MdaKind::Measure { agg: AggFn::Max, .. } => EstimatorKind::Max,
    }
}

/// One node worth estimating: its visible groups `(sampled facts, group
/// size)` in cell order and, aligned with them, each series' running
/// moments (the series of one measure are adjacent).
struct NodeState {
    mask: u32,
    groups: Vec<(Vec<u32>, u64)>,
    series: Vec<(SeriesKey, Vec<GroupSample>)>,
}

/// Builds the [`NodeState`]s of a lattice from the root's sample.
struct NodeStates<'a> {
    lattice: &'a Lattice,
    mmst: Mmst,
    /// Per MDA, the series its interval reads.
    keys: &'a [Option<SeriesKey>],
    /// Estimation only pays off for a node with far fewer groups than the CFS
    /// has facts: update and intervals are `O(#groups)`, which approaches the
    /// cost of evaluating the node. Nodes above the cap are never pruned.
    group_cap: usize,
}

impl NodeStates<'_> {
    /// `None` (the node stays alive) when estimating it would cost more than
    /// evaluating it: over `group_cap` groups, or singleton-ish ones whose
    /// per-group variance (hence the CI) is meaningless. Groups with a null
    /// coordinate are not part of the visible result and are left out.
    fn node(&self, mask: u32, sample: &SampleSet) -> Option<NodeState> {
        let axes = node_axes(self.lattice, mask);
        let visible =
            |cell: &u64| axes.iter().all(|&(stride, dom)| cell / stride % dom != dom - 1);
        let groups: Vec<&(Vec<u32>, u64)> =
            sample.groups.iter().filter(|(cell, _)| visible(cell)).map(|(_, g)| g).collect();
        let sampled: usize = groups.iter().map(|(facts, _)| facts.len()).sum();
        if !(2..=self.group_cap).contains(&groups.len()) || sampled < 2 * groups.len() {
            return None;
        }
        let mut series: Vec<(SeriesKey, Vec<GroupSample>)> = Vec::new();
        for key in self.keys.iter().flatten() {
            if series.iter().all(|(known, _)| known != key) {
                series.push((
                    *key,
                    groups.iter().map(|g| GroupSample::from_values(&[], g.1)).collect(),
                ));
            }
        }
        Some(NodeState { mask, groups: groups.into_iter().cloned().collect(), series })
    }

    /// The estimable nodes of `mask`'s MMST subtree, in a fixed order. A
    /// child's sample is projected from `sample` ([`SampleSet::project`]:
    /// O(groups · k), whatever the data size), one subtree per worker of
    /// `cx.threads`, and lives only while that subtree is built: what stays
    /// is a copy of the visible groups of the estimable nodes.
    fn subtree(
        &self,
        mask: u32,
        sample: &SampleSet,
        cx: &ExecCtx<'_>,
    ) -> Result<Vec<NodeState>, Cancelled> {
        let children = self.mmst.children_of(mask).to_vec();
        let below = spade_parallel::try_map(children, cx.threads, |child| {
            cx.check()?;
            self.subtree(child, &sample.project(self.lattice, child), &cx.with_threads(1))
        })?;
        Ok(self.node(mask, sample).into_iter().chain(below.into_iter().flatten()).collect())
    }
}

impl NodeState {
    /// Extends the live series with facts `batch` of every group's sample
    /// (the incremental estimate update of Section 5.1), reading a fact's
    /// pre-aggregated row once per measure. Returns the rows read.
    fn update(
        &mut self,
        spec: &CubeSpec<'_>,
        is_live: impl Fn(SeriesKey) -> bool,
        batch: std::ops::Range<usize>,
    ) -> u64 {
        let mut rows_read = 0;
        for of_measure in self.series.chunk_by_mut(|a, b| a.0 .0 == b.0 .0) {
            let pre = spec.measures[of_measure[0].0 .0].preagg;
            let mut live: Vec<(AggFn, &mut Vec<GroupSample>)> = of_measure
                .iter_mut()
                .filter(|(key, _)| is_live(*key))
                .map(|(key, per_group)| (key.1, per_group))
                .collect();
            if live.is_empty() {
                continue;
            }
            for (gi, (facts, _)) in self.groups.iter().enumerate() {
                for &fact in &facts[batch.start.min(facts.len())..batch.end.min(facts.len())] {
                    let fact = FactId(fact);
                    rows_read += 1;
                    let count = pre.count(fact);
                    if count == 0 {
                        continue;
                    }
                    for (statistic, per_group) in &mut live {
                        per_group[gi].moments.push(match *statistic {
                            AggFn::Sum => pre.sum(fact),
                            AggFn::Avg => pre.sum(fact) / count as f64,
                            AggFn::Count => count as f64,
                            AggFn::Min => pre.min(fact).expect("count > 0"),
                            AggFn::Max => pre.max(fact).expect("count > 0"),
                        });
                    }
                }
            }
        }
        rows_read
    }
}

/// Runs the early-stop pruning loop over the stratified samples (plain
/// form of [`prune_in`] on `threads` workers).
pub fn prune(
    spec: &CubeSpec<'_>,
    lattice: &Lattice,
    samples: &SampleSet,
    config: &EarlyStopConfig,
    threads: usize,
) -> EarlyStopOutcome {
    ExecCtx::unbounded(threads, |cx| prune_in(spec, lattice, samples, config, cx))
}

/// Runs the early-stop pruning loop over the root's stratified sample.
///
/// Each batch fans the per-node moment updates and interval computations
/// out over `cx.threads` (`0` = all cores, `1` = serial) and aggregates the
/// node-local results **in a fixed node order**, groups in cell order: the
/// returned liveness map is bit-identical from call to call and at any
/// thread count.
///
/// The budget is polled per node projection and per node-batch shard, and
/// the loop unwinds with [`Cancelled`] once it is spent; checks never alter
/// a pruning decision. Records an `earlystop` span: `batches`, `pruned`,
/// `aggregates`, and the work counters `estimable_nodes`, `sample_facts`
/// (pre-aggregated rows the batch updates read) and `intervals`.
pub fn prune_in(
    spec: &CubeSpec<'_>,
    lattice: &Lattice,
    samples: &SampleSet,
    config: &EarlyStopConfig,
    cx: &ExecCtx<'_>,
) -> Result<EarlyStopOutcome, Cancelled> {
    let (span, cx) = cx.span("earlystop");
    let mdas = spec.mdas();
    let masks = lattice.nodes();
    let total = masks.len() * mdas.len();
    let mut alive: HashMap<u32, Vec<bool>> =
        masks.iter().map(|&m| (m, vec![true; mdas.len()])).collect();

    // With k ≥ total aggregates nothing can ever be pruned.
    if config.k >= total || config.batches == 0 || config.sample_size == 0 {
        return Ok(EarlyStopOutcome { alive, pruned: 0, total, batches_run: 0 });
    }

    let keys: Vec<Option<SeriesKey>> = mdas.iter().map(|m| series_key(spec, &m.kind)).collect();
    let (mmst, group_cap) = (lattice.mmst(), (spec.n_facts / 8).clamp(16, 4_096));
    let builder = NodeStates { lattice, mmst, keys: &keys, group_cap };
    let mut states = builder.subtree(lattice.root_mask(), samples, &cx)?;

    let ci = InterestingnessCi::new(config.h, config.confidence);
    let batch_len = samples.capacity.div_ceil(config.batches).max(1);
    let (mut pruned, mut batches_run) = (0usize, 0usize);
    let (mut sample_facts, mut n_intervals) = (0u64, 0u64);

    for batch in 0..config.batches {
        cx.check()?;
        batches_run += 1;

        // —— per-node shards (parallel, single-owner state) ——
        // Each node extends the series its alive aggregates read with this
        // batch's slice of its sample and computes their intervals (a group
        // with no observed value is left out), returned in node order.
        let nodes = states.iter_mut().collect();
        let shards = spade_parallel::try_map(nodes, cx.threads, |node: &mut NodeState| {
            cx.check()?;
            let flags = &alive[&node.mask];
            let is_live = |key| keys.iter().zip(flags).any(|(k, &on)| on && *k == Some(key));
            let rows_read =
                node.update(spec, is_live, batch * batch_len..(batch + 1) * batch_len);

            let mut intervals: Vec<(u32, usize, ScoreInterval)> = Vec::new();
            let mut observed: Vec<GroupSample> = Vec::new();
            for (mi, mda) in mdas.iter().enumerate().filter(|&(mi, _)| flags[mi]) {
                let mut bounds = None;
                observed.clear();
                match keys[mi] {
                    None => observed
                        .extend(node.groups.iter().map(|g| GroupSample::from_values(&[], g.1))),
                    Some(key) => {
                        let (_, per_group) =
                            node.series.iter().find(|(k, _)| *k == key).expect("one per key");
                        observed.extend(per_group.iter().filter(|g| g.moments.count() > 0));
                        bounds = spec.measures[key.0].preagg.global_bounds();
                    }
                }
                let interval = ci.interval(estimator_for(&mda.kind), &observed, bounds);
                intervals.push((node.mask, mi, interval));
            }
            Ok((intervals, rows_read))
        })?;

        // —— deterministic aggregation of the shard-local results ——
        let mut intervals: Vec<(u32, usize, ScoreInterval)> = Vec::new();
        for (node_intervals, rows_read) in shards {
            intervals.extend(node_intervals);
            sample_facts += rows_read;
        }
        n_intervals += intervals.len() as u64;

        // k-th best lower bound among alive aggregates.
        let mut lowers: Vec<f64> = intervals.iter().map(|(_, _, iv)| iv.lower).collect();
        lowers.sort_by(|a, b| b.total_cmp(a));
        let Some(&kth_lower) = lowers.get(config.k - 1) else { break };

        // Prune: U_A < L_kth ⇒ A cannot (w.h.p.) reach the top-k.
        let before = pruned;
        for (mask, mi, _) in intervals.iter().filter(|(_, _, iv)| iv.upper < kth_lower) {
            alive.get_mut(mask).expect("every node has flags")[*mi] = false;
            pruned += 1;
        }
        // "terminates once … no aggregates have been pruned in a given
        // number of batches" (we use: one idle batch ends the loop).
        if pruned == before {
            break;
        }
    }

    span.attr("batches", batches_run as u64);
    span.attr("pruned", pruned as u64);
    span.attr("aggregates", total as u64);
    span.attr("estimable_nodes", states.len() as u64);
    span.attr("sample_facts", sample_facts);
    span.attr("intervals", n_intervals);
    Ok(EarlyStopOutcome { alive, pruned, total, batches_run })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mvdcube::{mvd_cube, mvd_cube_with_earlystop, MvdCubeOptions};
    use crate::spec::MeasureSpec;
    use spade_storage::{AggFn, CategoricalColumn, NumericColumn};

    /// 400 facts, two dimensions; measure `hot` has a huge-variance result
    /// on dim a, measure `flat` is uniform everywhere (prunable).
    fn build() -> (CategoricalColumn, CategoricalColumn, NumericColumn, NumericColumn) {
        let n = 400usize;
        let a = CategoricalColumn::from_rows(
            "a",
            &(0..n).map(|i| vec![["p", "q", "r", "s"][i % 4]]).collect::<Vec<_>>(),
        );
        let b = CategoricalColumn::from_rows(
            "b",
            &(0..n).map(|i| vec![["x", "y"][i % 2]]).collect::<Vec<_>>(),
        );
        let hot = NumericColumn::from_rows(
            "hot",
            &(0..n)
                .map(|i| vec![if i % 4 == 0 { 1000.0 } else { 1.0 } + (i % 7) as f64 * 0.01])
                .collect::<Vec<_>>(),
        );
        let flat = NumericColumn::from_rows(
            "flat",
            &(0..n).map(|i| vec![5.0 + (i % 3) as f64 * 1e-6]).collect::<Vec<_>>(),
        );
        (a, b, hot, flat)
    }

    /// Run-to-run and thread-count determinism on a fixture built to have
    /// ties: dimension `a2` duplicates `a` (80 groups each) and measure `m2`
    /// duplicates `m`, so `count(*)`, `count(m)` and `count(m2)` score the
    /// same — with zero-width intervals — on three nodes, and the k-th lower
    /// bound sits inside that tie. Any dependence of a score's float
    /// summation order on the call or the thread count flips a pruning
    /// decision here.
    #[test]
    fn tied_aggregates_prune_identically_on_every_call_and_thread_count() {
        let group_of = |i: usize| (i * i + i / 7) % 80;
        let n = 6_000usize;
        let labels: Vec<String> = (0..80).map(|g| format!("g{g:02}")).collect();
        let rows: Vec<Vec<&str>> = (0..n).map(|i| vec![labels[group_of(i)].as_str()]).collect();
        let a = CategoricalColumn::from_rows("a", &rows);
        let a2 = CategoricalColumn::from_rows("a2", &rows);
        let values: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![(group_of(i) % 9) as f64 * 0.1 + (i % 13) as f64 * 0.003])
            .collect();
        let m = NumericColumn::from_rows("m", &values).preaggregate();
        let m2 = NumericColumn::from_rows("m2", &values).preaggregate();
        let fns = vec![AggFn::Count, AggFn::Sum, AggFn::Avg];
        let spec = CubeSpec::new(
            vec![&a, &a2],
            vec![
                MeasureSpec { preagg: &m, fns: fns.clone() },
                MeasureSpec { preagg: &m2, fns },
            ],
            n,
        );
        let config = EarlyStopConfig { k: 5, ..Default::default() };
        let (lattice, translation) = crate::mvdcube::prepare(
            &spec,
            &MvdCubeOptions::default(),
            Some(config.sample_size),
        );
        let samples = translation.samples.as_ref().unwrap();
        let first = prune(&spec, &lattice, samples, &config, 1);
        assert!(first.pruned > 0 && first.batches_run > 0, "the fixture must prune");
        for call in 1..20 {
            assert_eq!(prune(&spec, &lattice, samples, &config, 1), first, "call {call}");
        }
        for threads in [2usize, 8] {
            assert_eq!(
                prune(&spec, &lattice, samples, &config, threads),
                first,
                "{threads} threads"
            );
        }
    }

    /// The pruning loop with nothing shared and nothing carried over: every
    /// node projected straight from the root, and in every batch fresh
    /// moments per (node, MDA, group) over that MDA's own per-fact statistic.
    fn prune_per_mda(
        spec: &CubeSpec<'_>,
        lattice: &Lattice,
        samples: &SampleSet,
        config: &EarlyStopConfig,
    ) -> EarlyStopOutcome {
        let mdas = spec.mdas();
        let masks = lattice.nodes();
        let total = masks.len() * mdas.len();
        let mut alive: HashMap<u32, Vec<bool>> =
            masks.iter().map(|&m| (m, vec![true; mdas.len()])).collect();
        let ci = InterestingnessCi::new(config.h, config.confidence);
        let batch_len = samples.capacity.div_ceil(config.batches);
        let (mut pruned, mut batches_run) = (0, 0);
        for batch in 1..=config.batches {
            batches_run += 1;
            let mut intervals: Vec<(u32, usize, ScoreInterval)> = Vec::new();
            for &mask in &masks {
                let node = samples.project(lattice, mask);
                let axes = node_axes(lattice, mask);
                let groups: Vec<&(Vec<u32>, u64)> = (node.groups.iter())
                    .filter(|(cell, _)| axes.iter().all(|&(s, d)| *cell / s % d != d - 1))
                    .map(|(_, group)| group)
                    .collect();
                let sampled: usize = groups.iter().map(|g| g.0.len()).sum();
                let cap = (spec.n_facts / 8).clamp(16, 4_096);
                if !(2..=cap).contains(&groups.len()) || sampled < 2 * groups.len() {
                    continue;
                }
                for (mi, mda) in mdas.iter().enumerate().filter(|&(mi, _)| alive[&mask][mi]) {
                    let MdaKind::Measure { measure, agg } = mda.kind else {
                        let sizes: Vec<GroupSample> =
                            groups.iter().map(|g| GroupSample::from_values(&[], g.1)).collect();
                        intervals.push((
                            mask,
                            mi,
                            ci.interval(EstimatorKind::Count, &sizes, None),
                        ));
                        continue;
                    };
                    let pre = spec.measures[measure].preagg;
                    let observed: Vec<GroupSample> = (groups.iter())
                        .filter_map(|(facts, size)| {
                            let values: Vec<f64> = facts[..facts.len().min(batch * batch_len)]
                                .iter()
                                .map(|&fact| FactId(fact))
                                .filter(|&fact| pre.count(fact) > 0)
                                .map(|fact| match agg {
                                    AggFn::Sum => pre.sum(fact),
                                    AggFn::Count => pre.count(fact) as f64,
                                    AggFn::Avg => pre.avg(fact).unwrap(),
                                    AggFn::Min => pre.min(fact).unwrap(),
                                    AggFn::Max => pre.max(fact).unwrap(),
                                })
                                .collect();
                            (!values.is_empty())
                                .then(|| GroupSample::from_values(&values, *size))
                        })
                        .collect();
                    let interval =
                        ci.interval(estimator_for(&mda.kind), &observed, pre.global_bounds());
                    intervals.push((mask, mi, interval));
                }
            }
            let mut lowers: Vec<f64> = intervals.iter().map(|(_, _, iv)| iv.lower).collect();
            lowers.sort_by(|a, b| b.total_cmp(a));
            let kth_lower = lowers[config.k - 1];
            let before = pruned;
            for (mask, mi, _) in intervals.iter().filter(|(_, _, iv)| iv.upper < kth_lower) {
                alive.get_mut(mask).unwrap()[*mi] = false;
                pruned += 1;
            }
            if pruned == before {
                break;
            }
        }
        EarlyStopOutcome { alive, pruned, total, batches_run }
    }

    /// Sharing one series between sum/avg/min/max is a shortcut for
    /// single-valued measures only: with a single-valued measure, a
    /// multi-valued one (1–3 values per fact) and facts missing either, the
    /// outcome is the per-MDA loop's. Sharing the multi-valued measure's
    /// series too changes the outcome at both `k`.
    #[test]
    fn shared_series_prune_like_per_mda_moments() {
        let n = 6_000usize;
        let mix = |i: usize, salt: u64| crate::translate::fact_priority(salt, i as u32) >> 32;
        let labels: Vec<String> = (0..12).map(|g| format!("g{g:02}")).collect();
        let column = |name: &str, salt: u64, groups: u64| {
            let rows: Vec<Vec<&str>> = (0..n)
                .map(|i| match mix(i, salt) % 10 {
                    0 => vec![],
                    1 => vec![
                        labels[(mix(i, salt + 1) % groups) as usize].as_str(),
                        labels[(mix(i, salt + 2) % groups) as usize].as_str(),
                    ],
                    _ => vec![labels[(mix(i, salt + 1) % groups) as usize].as_str()],
                })
                .collect();
            CategoricalColumn::from_rows(name, &rows)
        };
        let (a, b) = (column("a", 100, 12), column("b", 200, 5));
        // `single` follows a's group. `multi` is flat in value, but a fact's
        // number of values follows a's group: its per-fact sums are hot by
        // `a` where its avg/min/max are not. Each is missing on some facts.
        let noise = |i: usize, salt: u64| (mix(i, salt) % 1_000) as f64 * 0.01;
        let single = NumericColumn::from_rows(
            "single",
            &(0..n)
                .map(|i| match i % 11 {
                    0 => vec![],
                    _ => vec![(mix(i, 101) % 12) as f64 * 3.0 + noise(i, 300)],
                })
                .collect::<Vec<_>>(),
        )
        .preaggregate();
        let multi = NumericColumn::from_rows(
            "multi",
            &(0..n)
                .map(|i| {
                    let values = if i % 13 == 0 { 0 } else { 1 + mix(i, 101) % 12 % 3 };
                    (0..values).map(|v| 50.0 + noise(i, 400 + v)).collect()
                })
                .collect::<Vec<_>>(),
        )
        .preaggregate();
        assert!(single.is_single_valued() && !multi.is_single_valued());
        let fns = vec![AggFn::Count, AggFn::Sum, AggFn::Avg, AggFn::Min, AggFn::Max];
        let spec = CubeSpec::new(
            vec![&a, &b],
            vec![
                MeasureSpec { preagg: &single, fns: fns.clone() },
                MeasureSpec { preagg: &multi, fns },
            ],
            n,
        );
        let keys: Vec<_> = spec.mdas().iter().map(|m| series_key(&spec, &m.kind)).collect();
        let distinct: std::collections::HashSet<_> = keys.iter().flatten().collect();
        assert_eq!(distinct.len(), 2 + 5, "single: one value series + count; multi: all five");

        for k in [8usize, 16] {
            let config =
                EarlyStopConfig { k, sample_size: 40, batches: 3, ..Default::default() };
            let (lattice, translation) = crate::mvdcube::prepare(
                &spec,
                &MvdCubeOptions::default(),
                Some(config.sample_size),
            );
            let samples = translation.samples.as_ref().unwrap();
            let outcome = prune(&spec, &lattice, samples, &config, 1);
            assert!(outcome.pruned > 0 && outcome.batches_run > 1, "k = {k}: must prune");
            assert_eq!(outcome, prune_per_mda(&spec, &lattice, samples, &config), "k = {k}");
        }
    }

    #[test]
    fn prunes_flat_aggregates_and_keeps_hot_ones() {
        let (a, b, hot, flat) = build();
        let hot_pre = hot.preaggregate();
        let flat_pre = flat.preaggregate();
        let spec = CubeSpec::new(
            vec![&a, &b],
            vec![
                MeasureSpec { preagg: &hot_pre, fns: vec![spade_storage::AggFn::Avg] },
                MeasureSpec { preagg: &flat_pre, fns: vec![spade_storage::AggFn::Avg] },
            ],
            400,
        );
        let config = EarlyStopConfig { k: 2, sample_size: 60, ..Default::default() };
        let (result, outcome) =
            mvd_cube_with_earlystop(&spec, &MvdCubeOptions::default(), &config);
        assert!(outcome.pruned > 0, "expected some pruning");
        assert!(outcome.pruned_fraction() > 0.0);
        // avg(hot) by dim a (mask 0b01) must survive: it is the clear winner.
        let hot_idx = 1; // mdas: count(*), avg(hot), avg(flat)
        assert!(outcome.alive[&0b01][hot_idx], "hot aggregate wrongly pruned");
        let node = result.node(0b01).unwrap();
        assert!(node.groups().any(|(_, v)| v[hot_idx].is_some()));
    }

    #[test]
    fn earlystop_topk_matches_full_evaluation_here() {
        let (a, b, hot, flat) = build();
        let hot_pre = hot.preaggregate();
        let flat_pre = flat.preaggregate();
        let spec = CubeSpec::new(
            vec![&a, &b],
            vec![
                MeasureSpec { preagg: &hot_pre, fns: vec![spade_storage::AggFn::Avg] },
                MeasureSpec { preagg: &flat_pre, fns: vec![spade_storage::AggFn::Avg] },
            ],
            400,
        );
        let opts = MvdCubeOptions::default();
        let full = mvd_cube(&spec, &opts);
        let top_full = crate::arm::top_k_of_result(&full, Interestingness::Variance, 3);

        let config = EarlyStopConfig { k: 3, ..Default::default() };
        let (pruned_result, _) = mvd_cube_with_earlystop(&spec, &opts, &config);
        let top_es = crate::arm::top_k_of_result(&pruned_result, Interestingness::Variance, 3);

        // Accuracy metric |T ∩ T_es| / |T| (Section 6.4) — here the signal
        // is so strong that accuracy must be 100%.
        let set: std::collections::HashSet<_> = top_full.iter().map(|s| s.id).collect();
        let hits = top_es.iter().filter(|s| set.contains(&s.id)).count();
        assert_eq!(hits, top_full.len());
    }

    #[test]
    fn no_pruning_when_k_covers_everything() {
        let (a, _, hot, _) = build();
        let hot_pre = hot.preaggregate();
        let spec = CubeSpec::new(
            vec![&a],
            vec![MeasureSpec { preagg: &hot_pre, fns: vec![spade_storage::AggFn::Avg] }],
            400,
        );
        let config = EarlyStopConfig { k: 100, ..Default::default() };
        let (_, outcome) = mvd_cube_with_earlystop(&spec, &MvdCubeOptions::default(), &config);
        assert_eq!(outcome.pruned, 0);
        assert_eq!(outcome.batches_run, 0);
    }

    #[test]
    fn pruned_aggregates_are_not_computed() {
        let (a, b, hot, flat) = build();
        let hot_pre = hot.preaggregate();
        let flat_pre = flat.preaggregate();
        let spec = CubeSpec::new(
            vec![&a, &b],
            vec![
                MeasureSpec { preagg: &hot_pre, fns: vec![spade_storage::AggFn::Avg] },
                MeasureSpec { preagg: &flat_pre, fns: vec![spade_storage::AggFn::Avg] },
            ],
            400,
        );
        let config = EarlyStopConfig { k: 1, ..Default::default() };
        let (result, outcome) =
            mvd_cube_with_earlystop(&spec, &MvdCubeOptions::default(), &config);
        for (mask, flags) in &outcome.alive {
            if let Some(node) = result.node(*mask) {
                for (_, values) in node.groups() {
                    for (mi, v) in values.iter().enumerate() {
                        if !flags[mi] {
                            assert!(v.is_none(), "pruned MDA {mi} of node {mask:b} computed");
                        }
                    }
                }
            }
        }
    }
}
