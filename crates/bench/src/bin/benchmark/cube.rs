//! The two in-process cube workloads: `cube_dense` (three big lattices,
//! full evaluation) and `cube_earlystop` (sampling, pruning, pruned cube).

use crate::harness::{metric, ns_per_call, Metric, OpSample, Window, Workload, ENGINE_THREADS};
use crate::trace::Tracer;
use spade_bitmap::Bitmap;
use spade_cube::arm::top_k_of_result;
use spade_cube::earlystop::{self, EarlyStopConfig};
use spade_cube::mvdcube::{mvd_cube_pruned, prepare, MvdCubeOptions};
use spade_cube::translate::Translation;
use spade_cube::{
    compare_results, mvd_cube, mvd_cube_baseline, mvd_cube_with_earlystop, CubeResult,
    CubeSpec, Lattice, MeasureSpec,
};
use spade_datagen::corpus::{SyntheticCase, SYNTHETIC_CASES};
use spade_datagen::synthetic::generate_columns;
use spade_datagen::ColumnSet;
use spade_stats::ci::EstimatorKind;
use spade_stats::{GroupSample, Interestingness, InterestingnessCi};
use spade_storage::{AggFn, NumericColumn, PreAggregated};
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Facts per synthetic case of `cube_dense`.
const DENSE_FACTS: usize = 100_000;
/// Facts of the one `cube_earlystop` case.
const EARLYSTOP_FACTS: usize = 150_000;
const SMOKE_FACTS: usize = 4_000;
/// The same op this many times makes a cycle, so that the latency of a cycle
/// is a median (its third fastest op) and the warm-up cycle is long enough to
/// time.
const OPS_PER_CYCLE: usize = 5;
/// Below this top-k accuracy an early-stop op counts as failed.
const ACCURACY_FLOOR: f64 = 0.8;

fn spec_of<'a>(columns: &'a ColumnSet, measures: &'a [PreAggregated]) -> CubeSpec<'a> {
    let measures = measures
        .iter()
        .map(|preagg| MeasureSpec {
            preagg,
            fns: vec![AggFn::Sum, AggFn::Avg, AggFn::Min, AggFn::Max],
        })
        .collect();
    CubeSpec::new(columns.dims.iter().collect(), measures, columns.n_facts)
}

fn options_of(case: &SyntheticCase, seed: u64) -> MvdCubeOptions {
    MvdCubeOptions {
        chunk_size: case.chunk_size,
        seed,
        threads: ENGINE_THREADS,
        ..Default::default()
    }
}

/// The storage layer's program-side set-up: raw measure rows to per-fact
/// pre-aggregates.
fn preaggregate(raw: &[NumericColumn]) -> Vec<PreAggregated> {
    raw.iter().map(NumericColumn::preaggregate).collect()
}

fn all_alive(spec: &CubeSpec<'_>, lattice: &Lattice) -> HashMap<u32, Vec<bool>> {
    let n_mdas = spec.mdas().len();
    lattice.nodes().into_iter().map(|mask| (mask, vec![true; n_mdas])).collect()
}

/// The two fullest cell bitmaps of a translation — the shapes the engine's
/// merges actually see on this run.
fn fullest_cells(translation: &Translation) -> Option<(&Bitmap, &Bitmap)> {
    let mut cells: Vec<&Bitmap> =
        translation.partitions.iter().flat_map(|p| p.cells.iter().map(|(_, b)| b)).collect();
    cells.sort_by_key(|b| std::cmp::Reverse(b.cardinality()));
    match cells[..] {
        [a, b, ..] => Some((a, b)),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// cube_dense
// ---------------------------------------------------------------------------

pub struct DenseCase {
    case: &'static SyntheticCase,
    columns: ColumnSet,
    options: MvdCubeOptions,
    /// Computed once by the preserved nested-`HashMap` baseline engine.
    reference: CubeResult,
}

pub struct CubeDense {
    /// Per case, the pre-aggregated measures this repetition built.
    measures: Vec<Vec<PreAggregated>>,
}

impl Workload for CubeDense {
    type Fixture = Vec<DenseCase>;
    const NAME: &'static str = "cube_dense";

    fn fixture(seed: u64, smoke: bool) -> Result<Vec<DenseCase>, String> {
        let n_facts = if smoke { SMOKE_FACTS } else { DENSE_FACTS };
        Ok(SYNTHETIC_CASES
            .iter()
            .enumerate()
            .map(|(i, case)| {
                let columns =
                    generate_columns(&case.config(n_facts, seed.wrapping_add(i as u64)));
                let options = options_of(case, seed);
                let reference =
                    mvd_cube_baseline(&spec_of(&columns, &columns.measures), &options);
                DenseCase { case, columns, options, reference }
            })
            .collect())
    }

    fn set_up(fixture: &Vec<DenseCase>, _dir: &Path) -> Result<CubeDense, String> {
        let measures = fixture.iter().map(|c| preaggregate(&c.columns.raw_measures)).collect();
        Ok(CubeDense { measures })
    }

    fn cycle_len(_: &Vec<DenseCase>) -> usize {
        OPS_PER_CYCLE
    }

    /// One op is one whole pass over the catalog, so every op costs the
    /// same and the median sits inside the only mode there is.
    fn op(&mut self, fixture: &Vec<DenseCase>, _index: usize) -> Result<OpSample, String> {
        let specs: Vec<CubeSpec<'_>> =
            fixture.iter().zip(&self.measures).map(|(c, m)| spec_of(&c.columns, m)).collect();
        let started = Instant::now();
        let results: Vec<CubeResult> =
            fixture.iter().zip(&specs).map(|(c, spec)| mvd_cube(spec, &c.options)).collect();
        let nanos = started.elapsed().as_nanos() as u64;
        for (c, result) in fixture.iter().zip(&results) {
            let report = compare_results(&c.reference, result, 1e-9);
            if report.wrong_aggregates > 0 {
                return Err(format!(
                    "{}: {} of {} aggregates differ from the reference (first: {:?})",
                    c.case.name,
                    report.wrong_aggregates,
                    report.total_aggregates,
                    report.wrong_by_mda.keys().next()
                ));
            }
        }
        Ok(OpSample { nanos, class: 0 })
    }

    fn measured_pid(&self) -> Option<u32> {
        None
    }

    fn traced_cycle(
        &mut self,
        fixture: &Vec<DenseCase>,
        tracer: &mut Tracer,
    ) -> Result<(), String> {
        tracer.begin_op();
        tracer.span("op", |t| {
            for (c, measures) in fixture.iter().zip(&self.measures) {
                let spec = spec_of(&c.columns, measures);
                let (lattice, translation) =
                    t.span("cube.translate", |_| prepare(&spec, &c.options, None));
                let alive = all_alive(&spec, &lattice);
                black_box(t.span("cube.engine", |_| {
                    mvd_cube_pruned(&spec, &c.options, &lattice, &translation, &alive)
                }));
            }
        });
        Ok(())
    }

    fn layer_metrics(
        &mut self,
        fixture: &Vec<DenseCase>,
        tracer: &Tracer,
        _window: &Window,
    ) -> Result<Vec<Metric>, String> {
        let engine_ms = tracer.layer_ms("cube.engine");
        let facts: usize = fixture.iter().map(|c| c.columns.n_facts).sum();
        let groups: usize = fixture.iter().map(|c| c.reference.total_groups()).sum();

        // Kernel timings on bitmaps shaped like this run's partitions: the
        // two fullest cells of the multi-valued case's translation.
        let case = &fixture[1];
        let spec = spec_of(&case.columns, &self.measures[1]);
        let (_, translation) = prepare(&spec, &case.options, None);
        let (a, b) =
            fullest_cells(&translation).ok_or("translation has fewer than two cells")?;
        let sorted = a.to_vec();
        let preagg = &self.measures[1][0];
        Ok(vec![
            metric("cube.translate.ms", tracer.layer_ms("cube.translate"), "ms"),
            metric("cube.engine.ms", engine_ms, "ms"),
            metric("cube.engine.facts_per_s", facts as f64 / (engine_ms / 1e3), "1/s"),
            metric("cube.engine.groups", groups as f64, "count"),
            metric("bitmap.union_ns", ns_per_call(|| a.union(b)), "ns"),
            metric("bitmap.intersect_ns", ns_per_call(|| a.intersect(b)), "ns"),
            metric(
                "bitmap.from_sorted_iter_ns",
                ns_per_call(|| Bitmap::from_sorted_iter(sorted.iter().copied())),
                "ns",
            ),
            metric(
                "storage.preagg.accumulate_ns",
                ns_per_call(|| preagg.accumulate(sorted.iter().copied())),
                "ns",
            ),
        ])
    }
}

// ---------------------------------------------------------------------------
// cube_earlystop
// ---------------------------------------------------------------------------

pub struct EarlystopFixture {
    columns: ColumnSet,
    options: MvdCubeOptions,
    config: EarlyStopConfig,
    /// Top-k of the full evaluation: `(node mask, MDA index)`.
    full_top: Vec<(u32, usize)>,
}

pub struct CubeEarlystop {
    measures: Vec<PreAggregated>,
    /// Of the last op: the accuracy it reached and the share it pruned.
    accuracy: f64,
    pruned_share: f64,
}

fn top_ids(result: &CubeResult, config: &EarlyStopConfig) -> Vec<(u32, usize)> {
    top_k_of_result(result, config.h, config.k)
        .into_iter()
        .map(|s| (s.id.node_mask, s.id.mda))
        .collect()
}

/// `|T_full ∩ T_es| / |T_full|` (the paper's Section 6.4 accuracy).
fn topk_accuracy(full: &[(u32, usize)], pruned: &[(u32, usize)]) -> f64 {
    if full.is_empty() {
        return 1.0;
    }
    let pruned: HashSet<_> = pruned.iter().collect();
    full.iter().filter(|id| pruned.contains(id)).count() as f64 / full.len() as f64
}

impl Workload for CubeEarlystop {
    type Fixture = EarlystopFixture;
    const NAME: &'static str = "cube_earlystop";

    fn fixture(seed: u64, smoke: bool) -> Result<EarlystopFixture, String> {
        let case = &SYNTHETIC_CASES[1];
        let n_facts = if smoke { SMOKE_FACTS } else { EARLYSTOP_FACTS };
        let columns = generate_columns(&case.config(n_facts, seed));
        let options = options_of(case, seed);
        // The paper's settings: sample 60, two batches, k = 5, variance.
        let config = EarlyStopConfig {
            k: 5,
            h: Interestingness::Variance,
            sample_size: 60,
            batches: 2,
            ..Default::default()
        };
        let full = mvd_cube(&spec_of(&columns, &columns.measures), &options);
        let full_top = top_ids(&full, &config);
        Ok(EarlystopFixture { columns, options, config, full_top })
    }

    fn set_up(fixture: &EarlystopFixture, _dir: &Path) -> Result<CubeEarlystop, String> {
        Ok(CubeEarlystop {
            measures: preaggregate(&fixture.columns.raw_measures),
            accuracy: 0.0,
            pruned_share: 0.0,
        })
    }

    fn cycle_len(_: &EarlystopFixture) -> usize {
        OPS_PER_CYCLE
    }

    fn op(&mut self, fixture: &EarlystopFixture, _index: usize) -> Result<OpSample, String> {
        let spec = spec_of(&fixture.columns, &self.measures);
        let started = Instant::now();
        let (result, outcome) =
            mvd_cube_with_earlystop(&spec, &fixture.options, &fixture.config);
        let nanos = started.elapsed().as_nanos() as u64;
        self.accuracy = topk_accuracy(&fixture.full_top, &top_ids(&result, &fixture.config));
        self.pruned_share = outcome.pruned_fraction();
        if self.accuracy < ACCURACY_FLOOR {
            return Err(format!(
                "top-{} accuracy {:.2} under the {ACCURACY_FLOOR} floor",
                fixture.config.k, self.accuracy
            ));
        }
        Ok(OpSample { nanos, class: 0 })
    }

    fn measured_pid(&self) -> Option<u32> {
        None
    }

    fn traced_cycle(
        &mut self,
        fixture: &EarlystopFixture,
        tracer: &mut Tracer,
    ) -> Result<(), String> {
        let spec = spec_of(&fixture.columns, &self.measures);
        tracer.begin_op();
        tracer.span("op", |t| {
            let (lattice, translation) = t.span("cube.translate.sample", |_| {
                prepare(&spec, &fixture.options, Some(fixture.config.sample_size))
            });
            let samples = translation.samples.as_ref().expect("sampling was requested");
            let outcome = t.span("cube.earlystop.prune", |_| {
                earlystop::prune(&spec, &lattice, samples, &fixture.config, ENGINE_THREADS)
            });
            black_box(t.span("cube.engine.pruned_cube", |_| {
                mvd_cube_pruned(&spec, &fixture.options, &lattice, &translation, &outcome.alive)
            }));
        });
        Ok(())
    }

    fn layer_metrics(
        &mut self,
        fixture: &EarlystopFixture,
        tracer: &Tracer,
        _window: &Window,
    ) -> Result<Vec<Metric>, String> {
        // One confidence interval over group samples shaped like this run's:
        // the sampled facts of every root cell, first measure.
        let spec = spec_of(&fixture.columns, &self.measures);
        let (_, translation) =
            prepare(&spec, &fixture.options, Some(fixture.config.sample_size));
        let samples = translation.samples.ok_or("sampling was requested")?;
        let mut cells: Vec<_> = samples.groups.iter().collect();
        cells.sort_by_key(|(cell, _)| **cell);
        let groups: Vec<GroupSample> = cells
            .iter()
            .map(|(_, (facts, size))| {
                let values: Vec<f64> = facts
                    .iter()
                    .map(|&f| self.measures[0].sum(spade_storage::FactId(f)))
                    .collect();
                GroupSample::from_values(&values, *size)
            })
            .collect();
        let ci = InterestingnessCi::new(fixture.config.h, fixture.config.confidence);
        Ok(vec![
            metric("cube.translate.sample_ms", tracer.layer_ms("cube.translate.sample"), "ms"),
            metric("cube.earlystop.prune_ms", tracer.layer_ms("cube.earlystop.prune"), "ms"),
            metric("cube.earlystop.pruned_share", self.pruned_share, "ratio"),
            metric("cube.earlystop.topk_accuracy", self.accuracy, "ratio"),
            metric(
                "cube.engine.pruned_cube_ms",
                tracer.layer_ms("cube.engine.pruned_cube"),
                "ms",
            ),
            metric(
                "stats.ci.interval_ns",
                ns_per_call(|| ci.interval(EstimatorKind::Avg, &groups, None)),
                "ns",
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_is_the_share_of_the_full_top_k_kept() {
        let full = [(7, 0), (7, 1), (3, 2), (1, 0)];
        assert_eq!(topk_accuracy(&full, &full), 1.0);
        assert_eq!(topk_accuracy(&full, &[(7, 0), (3, 2), (5, 5)]), 0.5);
        assert_eq!(topk_accuracy(&[], &[(1, 1)]), 1.0);
    }
}
