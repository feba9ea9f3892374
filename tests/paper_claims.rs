//! Direct checks of the paper's named claims on the exact running example
//! (Figure 1's graph, end to end through the real pipeline modules, not
//! hand-built columns).

use spade::core::{analysis, cfs, offline};
use spade::cube::{compare_results, Lattice};
use spade::cube::{mvd_cube, pg_cube, MvdCubeOptions, PgCubeVariant};
use spade::prelude::*;

/// Builds the Example 3 cube spec from the Figure 1 *graph* via the actual
/// offline + online analysis (path derivation included).
fn example3_via_pipeline() -> (spade::core::CfsAnalysis, Vec<usize>, usize) {
    let graph = spade::datagen::ceos_figure1();
    let config = SpadeConfig {
        min_cfs_size: 2,
        min_support: 0.4,
        max_distinct_ratio: 5.0,
        ..SpadeConfig::default()
    };
    let stats = offline::analyze(&graph);
    let (derived, _) = offline::enumerate_derivations(&graph, &stats, &config);
    let cfs_list = cfs::select(&graph, &[cfs::CfsStrategy::TypeBased], &config);
    let ceo = cfs_list.iter().find(|c| c.name == "type:CEO").unwrap();
    let a = analysis::analyze_cfs(&graph, ceo, &derived, &config);
    let idx = |name: &str| {
        a.attributes
            .iter()
            .position(|x| x.def.name == name)
            .unwrap_or_else(|| panic!("attribute {name} missing"))
    };
    let dims = vec![idx("nationality"), idx("gender"), idx("company/area")];
    let net_worth = idx("netWorth");
    (a, dims, net_worth)
}

fn spec_of<'a>(
    a: &'a spade::core::CfsAnalysis,
    dims: &[usize],
    measure: usize,
) -> CubeSpec<'a> {
    CubeSpec::new(
        dims.iter().map(|&d| a.attributes[d].categorical.as_ref().unwrap()).collect(),
        vec![MeasureSpec {
            preagg: a.attributes[measure].numeric.as_ref().unwrap(),
            fns: vec![AggFn::Sum, AggFn::Avg],
        }],
        a.n_facts(),
    )
}

/// Example 3 through the full stack: the path derivation `company/area`
/// comes from the graph, and "number of CEOs by area" counts Manufacturer
/// CEOs as 2 (both CEOs), not 5.
#[test]
fn example3_counts_from_real_graph() {
    let (a, dims, net_worth) = example3_via_pipeline();
    let spec = spec_of(&a, &dims, net_worth);
    let result = mvd_cube(&spec, &MvdCubeOptions::default());
    let area_node = result.node(0b100).unwrap();
    let col = a.attributes[dims[2]].categorical.as_ref().unwrap();
    let manufacturer_code =
        (0..col.distinct_values() as u32).find(|&c| col.label(c) == "Manufacturer").unwrap();
    assert_eq!(area_node.get(&[manufacturer_code]).unwrap()[0], Some(2.0));
}

/// Lemma 1 on the real graph: PGCube* disagrees with MVDCube exactly
/// because of the multi-valued dims, and the error ratios all overcount.
#[test]
fn lemma1_errors_from_real_graph() {
    let (a, dims, net_worth) = example3_via_pipeline();
    let spec = spec_of(&a, &dims, net_worth);
    let opts = MvdCubeOptions::default();
    let correct = mvd_cube(&spec, &opts);
    let star = pg_cube(&spec, PgCubeVariant::Star);
    let report = compare_results(&correct, &star, 1e-9);
    assert!(report.wrong_aggregates > 0);
    assert!(report.max_ratio().unwrap() > 1.0);
    // "p can only be higher than or equal to the correct value m" — for
    // count and sum aggregates (averages can drift either way since both
    // numerator and denominator are inflated).
    for (label, ratios) in &report.error_ratios {
        if label.starts_with("count") || label.starts_with("sum") {
            for &r in ratios {
                assert!(r > 1.0, "{label}: ratio {r}");
            }
        }
    }
}

/// Theorem 1(ii) quantitatively: with K multi-valued dimensions out of N,
/// the nodes PGCube gets right are at most 2^{N−K} per MDA.
#[test]
fn theorem1_bound_from_real_graph() {
    let (a, dims, net_worth) = example3_via_pipeline();
    let spec = spec_of(&a, &dims, net_worth);
    let multi_valued = spec.multi_valued_dims();
    // nationality and company/area are multi-valued on this graph; gender
    // is not.
    assert_eq!(multi_valued, vec![0, 2]);
    let lattice = Lattice::new(spec.domain_sizes(), vec![8, 8, 8]);
    assert_eq!(lattice.max_correct_nodes(&multi_valued), 2);

    let opts = MvdCubeOptions::default();
    let correct = mvd_cube(&spec, &opts);
    let star = pg_cube(&spec, PgCubeVariant::Star);
    // Count nodes whose count(*) agrees everywhere.
    let mut correct_nodes = 0;
    for (mask, node) in &correct.nodes {
        let other = star.node(*mask).unwrap();
        let agree = node.groups().all(|(k, v)| {
            other.get(&k).is_some_and(|ov| match (v[0], ov[0]) {
                (Some(x), Some(y)) => (x - y).abs() < 1e-9,
                (a, b) => a == b,
            })
        }) && other.group_count() == node.group_count();
        if agree {
            correct_nodes += 1;
        }
    }
    assert!(
        correct_nodes as u64 <= lattice.max_correct_nodes(&multi_valued),
        "{correct_nodes} nodes correct, bound is 2"
    );
}

/// Example 1 through the real analysis path: "Sum of the net worth of CEOs
/// … grouped by country of origin" evaluates to {(Angola, $2.8B)} — n2 does
/// not contribute as it lacks the countryOfOrigin dimension. (On this toy
/// graph the aggregate has a single group, hence variance 0; the pipeline
/// correctly ranks it as uninteresting, so we check the evaluation layer.)
#[test]
fn example1_result_from_real_graph() {
    let (a, _, net_worth) = example3_via_pipeline();
    let coo = a
        .attributes
        .iter()
        .position(|x| x.def.name == "countryOfOrigin")
        .expect("countryOfOrigin analyzed");
    let spec = spec_of(&a, &[coo], net_worth);
    let result = mvd_cube(&spec, &MvdCubeOptions::default());
    let node = result.node(0b1).unwrap();
    assert_eq!(node.visible_group_count(), 1);
    assert_eq!(node.mda_values(1), vec![2.8e9]); // sum(netWorth)
}

/// Example 2's semantics through the pipeline: Ghosn's four nationalities
/// each receive his age with avg 66 and Dos Santos misses the measure —
/// "all obtained from n2 given its four distinct values of nationality."
#[test]
fn example2_multi_valued_group_contributions() {
    let graph = spade::datagen::ceos_figure1();
    // Drop Dos Santos' age to mirror Example 2 exactly ("Although n1 has
    // both dimensions, it does not contribute … as it misses the age
    // measure" — in Figure 1 n1 does carry age, so Example 2's text sets
    // the expectation only for n2's groups).
    let config = SpadeConfig {
        k: usize::MAX,
        min_cfs_size: 2,
        min_support: 0.4,
        max_distinct_ratio: 5.0,
        ..SpadeConfig::default()
    };
    let report = Spade::new(config)
        .run_on(&OfflineState::from_graph(graph, 0), &RequestConfig::default());
    let agg = report
        .top
        .iter()
        .find(|t| t.mda == "avg(age)" && t.dims == ["nationality"])
        .expect("avg(age) by nationality enumerated");
    // Five nationality groups: Angola (47) + Ghosn's four (66 each).
    assert_eq!(agg.groups, 5);
    let sixty_sixes =
        agg.sample_groups.iter().filter(|(_, v)| (*v - 66.0).abs() < 1e-9).count();
    assert_eq!(sixty_sixes, 4);
}

/// R9 ("MVDCube+ES consistently fastest") rests on early-stop's work not
/// growing with the data. Checked as a shape on a work counter, not on time:
/// with every root group's sample saturated, quadrupling the facts of the
/// `multi_valued_100x10x5` case grows the pre-aggregated rows the pruning
/// loop reads (`sample_facts` of the `earlystop` span) by less than 10 %.
#[test]
fn r9_pruning_reads_the_sample_not_the_data() {
    use spade::core::{Budget, ExecCtx, Trace};
    use spade::cube::earlystop::{prune_in, EarlyStopConfig};
    use spade::cube::mvdcube::prepare;
    use spade::datagen::corpus::SYNTHETIC_CASES;
    use spade::datagen::synthetic::generate_columns;

    let case = &SYNTHETIC_CASES[1];
    assert_eq!(case.name, "multi_valued_100x10x5");
    // 705 root groups: ≈ 62 facts each at 20 k facts, so a sample of 30
    // (not the default 60) is saturated at both sizes. One batch, so the
    // rows read are the whole sample — the most pruning can ever read —
    // and not a function of which aggregates an earlier batch pruned.
    let config = EarlyStopConfig { k: 5, sample_size: 30, batches: 1, ..Default::default() };
    let sample_facts = |n_facts: usize| {
        let columns = generate_columns(&case.config(n_facts, 1));
        let fns = vec![AggFn::Sum, AggFn::Avg, AggFn::Min, AggFn::Max];
        let measures = columns
            .measures
            .iter()
            .map(|preagg| MeasureSpec { preagg, fns: fns.clone() })
            .collect();
        let spec = CubeSpec::new(columns.dims.iter().collect(), measures, n_facts);
        let (lattice, translation) =
            prepare(&spec, &MvdCubeOptions::default(), Some(config.sample_size));
        let samples = translation.samples.as_ref().expect("sampling was requested");
        assert!(
            samples.groups.values().all(|(facts, _)| facts.len() == config.sample_size),
            "{n_facts} facts: a root group is not saturated"
        );
        let (budget, trace) = (Budget::unlimited(), Trace::new());
        let outcome =
            prune_in(&spec, &lattice, samples, &config, &ExecCtx::traced(&budget, &trace, 1))
                .expect("unlimited budget");
        assert!(outcome.pruned > 0, "{n_facts} facts: nothing pruned");
        trace.sum_attr("earlystop", "sample_facts")
    };
    let (small, large) = (sample_facts(20_000), sample_facts(80_000));
    assert!(small > 0, "the earlystop span carries no sample_facts");
    assert!(
        (large as f64) < small as f64 * 1.10,
        "4x the facts read {large} sampled rows against {small}"
    );
}
