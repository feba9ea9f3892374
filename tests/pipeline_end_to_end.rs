//! End-to-end pipeline tests across the facade crate: N-Triples in, top-k
//! aggregates out, on every simulated dataset.

use spade::datagen::{realistic, RealisticConfig};
use spade::prelude::*;

fn config() -> SpadeConfig {
    SpadeConfig { k: 10, min_support: 0.3, min_cfs_size: 20, ..SpadeConfig::default() }
}

#[test]
fn every_simulated_dataset_yields_insights() {
    let cfg = RealisticConfig { scale: 150, seed: 31 };
    for dataset in realistic::all(&cfg) {
        let name = dataset.name;
        let state = OfflineState::from_graph(dataset.graph, 0);
        let report = Spade::new(config()).run_on(&state, &RequestConfig::default());
        assert!(report.profile.cfs_count > 0, "{name}: no CFS");
        assert!(report.profile.aggregates > 0, "{name}: no aggregates");
        assert!(!report.top.is_empty(), "{name}: empty top-k");
        for t in &report.top {
            assert!(t.score >= 0.0);
            assert!(!t.mda.is_empty());
            assert!(t.groups > 0);
        }
    }
}

#[test]
fn pipeline_is_deterministic() {
    let run = || {
        let g = realistic::nobel(&RealisticConfig { scale: 150, seed: 77 });
        let report = Spade::new(config())
            .run_on(&OfflineState::from_graph(g, 0), &RequestConfig::default());
        report.top.iter().map(|t| (t.description(), t.score.to_bits())).collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn ntriples_roundtrip_preserves_results() {
    let direct = realistic::foodista(&RealisticConfig { scale: 120, seed: 9 });
    let nt = spade::rdf::write_ntriples(&direct);
    let parsed = parse_ntriples(&nt).expect("self-produced N-Triples parse");
    assert_eq!(direct.len(), parsed.len());

    let a = Spade::new(config())
        .run_on(&OfflineState::from_graph(direct, 0), &RequestConfig::default());
    let b = Spade::new(config())
        .run_on(&OfflineState::from_graph(parsed, 0), &RequestConfig::default());
    assert_eq!(
        a.top.iter().map(TopAggregate::description).collect::<Vec<_>>(),
        b.top.iter().map(TopAggregate::description).collect::<Vec<_>>()
    );
}

#[test]
fn interestingness_function_changes_ranking_dimension() {
    let g = realistic::ceos(&RealisticConfig { scale: 200, seed: 3 });
    let state = OfflineState::from_graph(g, 0);
    let variance = Spade::new(config()).run_on(&state, &RequestConfig::default());
    let skew =
        Spade::new(SpadeConfig { interestingness: Interestingness::Skewness, ..config() })
            .run_on(&state, &RequestConfig::default());
    // Scores live on different scales; both must produce valid rankings.
    assert!(variance.top[0].score >= variance.top.last().unwrap().score);
    assert!(skew.top[0].score >= skew.top.last().unwrap().score);
    // Skewness is scale-free: scores stay small; variance scores explode on
    // netWorth sums. This sanity-checks that `h` is actually switched.
    assert!(variance.top[0].score > 1e6);
    assert!(skew.top[0].score < 1e3);
}

#[test]
fn early_stop_report_fields_are_consistent() {
    let g = realistic::nobel(&RealisticConfig { scale: 200, seed: 5 });
    let report = Spade::new(config().with_early_stop())
        .run_on(&OfflineState::from_graph(g, 0), &RequestConfig::default());
    assert!(report.evaluated_aggregates > 0);
    assert!(report.evaluated_aggregates + report.pruned_by_es >= report.profile.aggregates);
}

#[test]
fn stop_list_removes_dimension_from_results() {
    let g = realistic::ceos(&RealisticConfig { scale: 200, seed: 3 });
    let report =
        Spade::new(SpadeConfig { dimension_stop_list: vec!["nationality".into()], ..config() })
            .run_on(&OfflineState::from_graph(g, 0), &RequestConfig::default());
    for t in &report.top {
        assert!(
            t.dims.iter().all(|d| d != "nationality"),
            "stop-listed dimension used by {}",
            t.description()
        );
    }
}

#[test]
fn airline_has_no_derivations_but_still_finds_aggregates() {
    // Experiment 1's baseline: a converted-relational graph derives nothing.
    let g = realistic::airline(&RealisticConfig { scale: 300, seed: 3 });
    let report =
        Spade::new(config()).run_on(&OfflineState::from_graph(g, 0), &RequestConfig::default());
    assert_eq!(report.profile.derivations.path, 0, "no links → no paths");
    assert_eq!(report.profile.derivations.count, 0, "single-valued → no counts");
    assert_eq!(report.profile.derivations.kw, 0, "numeric data → no keywords");
    assert!(report.profile.aggregates > 0);
}
