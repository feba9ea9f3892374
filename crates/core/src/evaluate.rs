//! Aggregate Evaluation (Section 3, Step 4).
//!
//! Wires the enumerated lattices into MVDCube, with two cost savers:
//!
//! * **cross-lattice sharing** — "Spade ensures that the results of
//!   evaluated MDAs are reused (not recomputed) in the other lattices where
//!   they appear": a `(dimension set, MDA)` pair evaluated by one lattice is
//!   marked dead in every later lattice of the same CFS;
//! * **early-stop** — when enabled, the Section 5 pruning runs on the
//!   stratified samples collected during data translation, and only the
//!   surviving MDAs are computed.
//!
//! Evaluation is staged so the heavy work fans out: a serial planning pass
//! resolves cross-lattice sharing (inherently order-dependent — earlier
//! lattices claim shared aggregates), then every lattice's translation,
//! early-stop pruning, and cube evaluation run independently on the
//! [`spade_parallel`] pool, and a serial fold merges the outcomes in
//! lattice order so counters and results are identical at any thread count.
//! The thread budget splits across the two fan-out levels
//! ([`ExecCtx::split`]): outer workers run whole lattices,
//! and each lattice's leftover inner budget drives the region-sharded
//! engine (and the early-stop pruning loop) *within* that lattice — the
//! single-large-lattice shape then still uses every core.

use crate::analysis::CfsAnalysis;
use crate::config::SpadeConfig;
use crate::enumeration::LatticeSpec;
use spade_cube::earlystop::{self, EarlyStopConfig};
use spade_cube::mvdcube::{mvd_cube_pruned_in, prepare_in, MvdCubeOptions};
use spade_cube::{CubeResult, CubeSpec, ExecCtx, MdaKind, MeasureSpec};
use spade_parallel::Cancelled;
use spade_storage::AggFn;
use std::collections::{HashMap, HashSet};

/// The evaluation output for one CFS.
#[derive(Debug, Default, PartialEq)]
pub struct CfsEvaluation {
    /// One result per lattice (parallel to the input specs).
    pub results: Vec<CubeResult>,
    /// `(node, MDA)` aggregates actually computed (after sharing + ES).
    pub evaluated_aggregates: usize,
    /// Aggregates enumerated for this CFS (after cross-lattice sharing,
    /// before early-stop) — the Table 2 `#A` contribution.
    pub enumerated_aggregates: usize,
    /// Aggregates removed by early-stop.
    pub pruned_by_es: usize,
}

/// The parallel outcome of one lattice's translation + pruning + cube run.
struct LatticeOutcome {
    result: CubeResult,
    evaluated_aggregates: usize,
    pruned_by_es: usize,
}

/// Evaluates all lattices of one CFS (plain form of [`evaluate_cfs_in`] on
/// `config.threads` workers).
pub fn evaluate_cfs(
    analysis: &CfsAnalysis,
    lattices: &[LatticeSpec],
    config: &SpadeConfig,
) -> CfsEvaluation {
    ExecCtx::unbounded(config.threads, |cx| evaluate_cfs_in(analysis, lattices, config, cx))
}

/// Evaluates all lattices of one CFS. The budget is polled per lattice
/// during planning and threaded into every lattice's early-stop pruning
/// and cube run, so an expired request unwinds with [`Cancelled`] within
/// one region flush.
///
/// Records one `lattice` span per lattice, ordered by lattice index
/// ([`ExecCtx::span_at`]) so the span-tree shape is identical at every
/// thread count; each lattice span nests the translate, early-stop, and
/// cube-engine child spans opened by the stages it runs.
pub fn evaluate_cfs_in(
    analysis: &CfsAnalysis,
    lattices: &[LatticeSpec],
    config: &SpadeConfig,
    cx: &ExecCtx<'_>,
) -> Result<CfsEvaluation, Cancelled> {
    let mut evaluation = CfsEvaluation::default();
    // Split the thread budget: `outer` lattices in flight, each with
    // `inner.threads` workers for its intra-lattice region shards.
    let (outer, inner) = cx.split(lattices.len());
    let options = MvdCubeOptions::default();

    // —— serial planning: cross-lattice sharing ——
    // The aggregates already evaluated in an earlier lattice of this CFS,
    // by identity: sorted dimension attribute ids → `(measure attribute id,
    // function)` pairs, `None` standing for `count(*)`. Not by label: two
    // measures whose IRIs share a local name share a label. Lattice order
    // decides who computes a shared aggregate, so this pass must stay
    // sequential.
    let mut shared: HashMap<Vec<usize>, HashSet<Option<(usize, AggFn)>>> = HashMap::new();
    let mut work: Vec<(CubeSpec<'_>, HashMap<u32, Vec<bool>>)> =
        Vec::with_capacity(lattices.len());
    for lattice_spec in lattices {
        cx.check()?;
        let dims: Vec<_> = lattice_spec
            .dims
            .iter()
            .map(|&d| analysis.attributes[d].categorical.as_ref().expect("dimension column"))
            .collect();
        let measures: Vec<MeasureSpec<'_>> = lattice_spec
            .measures
            .iter()
            .map(|&m| MeasureSpec {
                preagg: analysis.attributes[m].numeric.as_ref().expect("measure column"),
                fns: config.agg_fns.clone(),
            })
            .collect();
        let spec = CubeSpec::new(dims, measures, analysis.n_facts());
        let mda_ids: Vec<Option<(usize, AggFn)>> = spec
            .mdas()
            .iter()
            .map(|mda| match mda.kind {
                MdaKind::FactCount => None,
                MdaKind::Measure { measure, agg } => {
                    Some((lattice_spec.measures[measure], agg))
                }
            })
            .collect();

        // Mark duplicated (dim set, MDA) pairs dead.
        let n_dims = lattice_spec.dims.len();
        let mut alive: HashMap<u32, Vec<bool>> = HashMap::new();
        for mask in 0u32..(1 << n_dims) {
            let dim_attrs: Vec<usize> = (0..n_dims)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| lattice_spec.dims[i])
                .collect();
            let evaluated = shared.entry(dim_attrs).or_default();
            let flags: Vec<bool> = mda_ids.iter().map(|&id| evaluated.insert(id)).collect();
            evaluation.enumerated_aggregates += flags.iter().filter(|&&f| f).count();
            alive.insert(mask, flags);
        }
        work.push((spec, alive));
    }

    // Early-stop prunes for the effective `k` and `h`: a request may
    // override both.
    let es_config = config.early_stop.map(|batches| EarlyStopConfig {
        k: config.k,
        h: config.interestingness,
        batches,
        ..EarlyStopConfig::default()
    });

    // —— parallel per-lattice evaluation ——
    // Translation, early-stop pruning (each lattice draws from its own
    // seeded sample), and the cube run are independent per lattice.
    #[allow(clippy::type_complexity)]
    let indexed: Vec<(usize, (CubeSpec<'_>, HashMap<u32, Vec<bool>>))> =
        work.into_iter().enumerate().collect();
    let outcomes = spade_parallel::try_map(indexed, outer, |(idx, (spec, mut alive))| {
        cx.check()?;
        let (lattice_span, lcx) = inner.span_at("lattice", idx as u64);
        let sample_cap = es_config.map(|es| es.sample_size);
        let (lattice, translation) = prepare_in(&spec, &options, sample_cap, &lcx)?;
        let mut pruned_by_es = 0usize;
        if let Some(es_config) = &es_config {
            let samples = translation.samples.as_ref().expect("sampling enabled");
            let outcome = earlystop::prune_in(&spec, &lattice, samples, es_config, &lcx)?;
            for (mask, flags) in &mut alive {
                let es_flags = &outcome.alive[mask];
                for (i, f) in flags.iter_mut().enumerate() {
                    if *f && !es_flags[i] {
                        *f = false;
                        pruned_by_es += 1;
                    }
                }
            }
        }
        let evaluated_aggregates =
            alive.values().map(|f| f.iter().filter(|&&x| x).count()).sum::<usize>();
        lattice_span.attr("aggregates", evaluated_aggregates as u64);
        let result = mvd_cube_pruned_in(&spec, &options, &lattice, &translation, &alive, &lcx)?;
        Ok(LatticeOutcome { result, evaluated_aggregates, pruned_by_es })
    })?;

    // —— serial fold, in lattice order ——
    for outcome in outcomes {
        evaluation.evaluated_aggregates += outcome.evaluated_aggregates;
        evaluation.pruned_by_es += outcome.pruned_by_es;
        evaluation.results.push(outcome.result);
    }
    Ok(evaluation)
}

#[cfg(test)]
impl SpadeConfig {
    /// Test helper: same config with early-stop off.
    fn clone_without_es(&self) -> SpadeConfig {
        SpadeConfig { early_stop: None, ..self.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze_cfs;
    use crate::cfs::{select, CfsStrategy};
    use crate::enumeration::enumerate;
    use crate::offline;
    use spade_datagen::{realistic, RealisticConfig};

    fn setup() -> (CfsAnalysis, Vec<LatticeSpec>, SpadeConfig) {
        let g = realistic::ceos(&RealisticConfig { scale: 250, seed: 9 });
        let config = SpadeConfig { min_support: 0.3, ..Default::default() };
        let stats = offline::analyze(&g);
        let (derived, _) = offline::enumerate_derivations(&g, &stats, &config);
        let cfs_list = select(&g, &[CfsStrategy::TypeBased], &config);
        let ceo = cfs_list.iter().find(|c| c.name == "type:CEO").unwrap();
        let analysis = analyze_cfs(&g, ceo, &derived, &config);
        let lattices = enumerate(&analysis, &config);
        (analysis, lattices, config)
    }

    #[test]
    fn evaluates_every_lattice() {
        let (analysis, lattices, config) = setup();
        assert!(!lattices.is_empty());
        let eval = evaluate_cfs(&analysis, &lattices, &config);
        assert_eq!(eval.results.len(), lattices.len());
        assert!(eval.evaluated_aggregates > 0);
        assert_eq!(eval.evaluated_aggregates, eval.enumerated_aggregates);
        // Every result has a populated root node.
        for (r, l) in eval.results.iter().zip(&lattices) {
            let root = (1u32 << l.dims.len()) - 1;
            assert!(r.node(root).is_some());
        }
    }

    #[test]
    fn sharing_avoids_recomputation_across_lattices() {
        let (analysis, lattices, config) = setup();
        if lattices.len() < 2 {
            // The sharing path is still exercised inside one lattice run;
            // nothing to assert across lattices.
            return;
        }
        let eval = evaluate_cfs(&analysis, &lattices, &config);
        // Without sharing, a lattice holds 2^N nodes × (count(*) +
        // #measures × #fns) MDAs.
        let independent: usize = lattices
            .iter()
            .map(|l| (1usize << l.dims.len()) * (1 + l.measures.len() * config.agg_fns.len()))
            .sum();
        assert!(
            eval.enumerated_aggregates <= independent,
            "sharing cannot increase the aggregate count"
        );
    }

    /// Two numeric properties whose IRIs share a local name (`a:age`,
    /// `b:age`) carry the same MDA labels (`sum(age)`, …). Sharing keys on
    /// attribute ids, so neither measure's aggregates are taken for the
    /// other's: both are evaluated.
    #[test]
    fn measures_sharing_a_local_name_are_both_evaluated() {
        use spade_rdf::{vocab, Graph, Term};
        let mut g = Graph::new();
        for i in 0..40i64 {
            let n = Term::iri(format!("http://x.example/n{i}"));
            g.insert(n.clone(), Term::iri(vocab::RDF_TYPE), Term::iri("http://x.example/T"));
            let city = ["a", "b", "c", "d"][i as usize % 4];
            g.insert(n.clone(), Term::iri("http://x.example/city"), Term::lit(city));
            g.insert(n.clone(), Term::iri("http://a.example/age"), Term::int(i));
            g.insert(n, Term::iri("http://b.example/age"), Term::int(100 + 3 * i));
        }
        let config = SpadeConfig {
            min_cfs_size: 1,
            min_support: 0.1,
            max_distinct_ratio: 0.5,
            ..Default::default()
        };
        let stats = offline::analyze(&g);
        let (derived, _) = offline::enumerate_derivations(&g, &stats, &config);
        let cfs_list = select(&g, &[CfsStrategy::TypeBased], &config);
        let analysis = analyze_cfs(&g, &cfs_list[0], &derived, &config);
        let ages: Vec<usize> = (analysis.measure_attrs().into_iter())
            .filter(|&m| analysis.attributes[m].def.name == "age")
            .collect();
        assert_eq!(ages.len(), 2, "both age properties are measures named `age`");
        let lattices = enumerate(&analysis, &config);
        let eval = evaluate_cfs(&analysis, &lattices, &config);
        let n_fns = config.agg_fns.len();
        for age in ages {
            let evaluated = lattices.iter().zip(&eval.results).any(|(lattice, result)| {
                lattice.measures.iter().position(|&m| m == age).is_some_and(|j| {
                    // MDA 0 is count(*); measure j's functions follow.
                    let mdas = 1 + j * n_fns..1 + (j + 1) * n_fns;
                    result
                        .nodes
                        .values()
                        .flat_map(|node| node.groups())
                        .any(|(_, values)| values[mdas.clone()].iter().any(Option::is_some))
                })
            });
            assert!(evaluated, "attribute {age}: no aggregate of it was evaluated");
        }
    }

    #[test]
    fn early_stop_reduces_computed_aggregates() {
        let (analysis, lattices, config) = setup();
        let es_config = SpadeConfig { k: 3, ..config }.with_early_stop();
        let plain = evaluate_cfs(&analysis, &lattices, &es_config.clone_without_es());
        let pruned = evaluate_cfs(&analysis, &lattices, &es_config);
        assert!(pruned.pruned_by_es > 0, "expected pruning on a 250-fact CFS");
        assert!(pruned.evaluated_aggregates < plain.evaluated_aggregates);
        assert_eq!(
            pruned.evaluated_aggregates + pruned.pruned_by_es,
            plain.evaluated_aggregates
        );
    }
}
