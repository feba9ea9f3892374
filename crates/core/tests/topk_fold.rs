//! Step 5's fold equals "score everything, sort, truncate".
//!
//! `Spade::run_on` scores each lattice as it finishes and folds it into a
//! bounded top-k, keeping only the nodes its current winners point into.
//! The reference here keeps every result instead (the plain
//! `evaluate::evaluate_cfs`), scores all of them with
//! `arm::score_aggregates`, sorts the positive scores by the documented
//! total order — score descending, then CFS, MDA label, aggregate id and
//! lattice ascending — truncates to `k`, and renders each winner's twelve
//! sample groups itself. Both must agree on every `TopAggregate` field, the
//! score to the bit.

use spade_core::analysis::analyze_cfs;
use spade_core::cfs::{self, CfsStrategy};
use spade_core::enumeration::enumerate;
use spade_core::evaluate::evaluate_cfs;
use spade_core::{offline, OfflineState, RequestConfig, Spade, SpadeConfig, TopAggregate};
use spade_cube::arm::score_aggregates;
use spade_datagen::{realistic, RealisticConfig};
use spade_rdf::{vocab, Graph, Term};
use spade_stats::Interestingness;

/// Every field of a `TopAggregate`, floats as bits.
type Fields = (String, Vec<String>, String, u64, usize, Vec<(String, u64)>);

fn fields(t: &TopAggregate) -> Fields {
    let samples = t.sample_groups.iter().map(|(g, v)| (g.clone(), v.to_bits())).collect();
    (t.cfs.clone(), t.dims.clone(), t.mda.clone(), t.score.to_bits(), t.groups, samples)
}

/// The top-k of `request` over `state`, by keeping, scoring and sorting
/// every aggregate.
fn reference(state: &OfflineState, base: &SpadeConfig, request: &RequestConfig) -> Vec<Fields> {
    let config = request.apply(base);
    let graph = &state.graph;
    let (derived, _) = offline::enumerate_derivations(graph, &state.stats, &config);
    let strategies = [CfsStrategy::TypeBased, CfsStrategy::SummaryBased];
    let cfs_list = cfs::select(graph, &strategies, &config);
    let analyses: Vec<_> =
        cfs_list.iter().map(|c| analyze_cfs(graph, c, &derived, &config)).collect();
    let lattices: Vec<_> = analyses.iter().map(|a| enumerate(a, &config)).collect();
    let evaluations: Vec<_> =
        analyses.iter().zip(&lattices).map(|(a, l)| evaluate_cfs(a, l, &config)).collect();

    // (score, cfs, label, id, lattice, groups)
    let mut scored = Vec::new();
    for (cfs_idx, evaluation) in evaluations.iter().enumerate() {
        for (lattice_idx, result) in evaluation.results.iter().enumerate() {
            score_aggregates(result, config.interestingness, |id, score, groups| {
                if score > 0.0 {
                    let label = result.mda_labels[id.mda].clone();
                    scored.push((score, cfs_idx, label, id, lattice_idx, groups));
                }
            });
        }
    }
    scored.sort_by(|a, b| {
        b.0.total_cmp(&a.0)
            .then_with(|| a.1.cmp(&b.1))
            .then_with(|| a.2.cmp(&b.2))
            .then_with(|| a.3.cmp(&b.3))
            .then_with(|| a.4.cmp(&b.4))
    });
    scored.truncate(config.k);
    scored
        .into_iter()
        .map(|(score, cfs_idx, label, id, lattice_idx, groups)| {
            let analysis = &analyses[cfs_idx];
            let lattice = &lattices[cfs_idx][lattice_idx];
            let node = evaluations[cfs_idx].results[lattice_idx].node(id.node_mask).unwrap();
            let attr = |dim: usize| &analysis.attributes[lattice.dims[dim]];
            let dims = node.dims.iter().map(|&d| attr(d).def.name.clone()).collect();
            // Visible groups with a value, largest value first, equal values
            // by label; twelve of them.
            let mut samples: Vec<(String, f64)> = node
                .visible_groups()
                .filter_map(|(key, values)| {
                    let names: Vec<&str> = key
                        .iter()
                        .zip(&node.dims)
                        .map(|(&code, &d)| attr(d).categorical.as_ref().unwrap().label(code))
                        .collect();
                    Some((names.join(", "), values[id.mda]?))
                })
                .collect();
            samples.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            let samples = samples.into_iter().take(12).map(|(g, v)| (g, v.to_bits())).collect();
            (analysis.name.clone(), dims, label, score.to_bits(), groups, samples)
        })
        .collect()
}

/// Asserts that `run_on` answers `request` with the reference's top-k.
fn check(what: &str, state: &OfflineState, base: &SpadeConfig, request: &RequestConfig) {
    let expected = reference(state, base, request);
    let report = Spade::new(base.clone()).run_on(state, request);
    let got: Vec<Fields> = report.top.iter().map(fields).collect();
    assert_eq!(got.len(), expected.len(), "{what}: top-k length");
    for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(g, e, "{what}: rank {i}");
    }
}

fn ceos_7() -> OfflineState {
    OfflineState::from_graph(realistic::ceos(&RealisticConfig { scale: 250, seed: 7 }), 0)
}

#[test]
fn every_corpus_default_and_full_ranking() {
    let corpora = realistic::all(&RealisticConfig { scale: 250, seed: 1 });
    assert_eq!(corpora.len(), 6);
    let base = SpadeConfig::default();
    for corpus in corpora {
        let state = OfflineState::from_graph(corpus.graph, 0);
        check(corpus.name, &state, &base, &RequestConfig::default());
    }
    let state = ceos_7();
    check("CEOs 250/7", &state, &base, &RequestConfig::default());
    let all = RequestConfig { k: Some(usize::MAX), ..Default::default() };
    check("CEOs 250/7, every positive score", &state, &base, &all);
}

#[test]
fn serve_mixed_request_shapes() {
    let base = SpadeConfig::default();
    let data = RealisticConfig { scale: 250, seed: 7 };
    for (name, graph) in
        [("airline", realistic::airline(&data)), ("nasa", realistic::nasa(&data))]
    {
        let state = OfflineState::from_graph(graph, 0);
        // The measure of the default request's best aggregate, as the
        // benchmark narrows its requests.
        let best = Spade::new(base.clone()).run_on(&state, &RequestConfig::default());
        let measure = best.top[0].mda.split(['(', ')']).nth(1).unwrap().to_owned();
        for (i, k) in (9..=12).enumerate() {
            let request = RequestConfig {
                k: Some(k),
                interestingness: Some(Interestingness::ALL[i % 3]),
                min_support: Some([0.6, 0.7, 0.8][i % 3]),
                measure_filter: vec![measure.clone()],
                ..Default::default()
            };
            check(&format!("{name} {request:?}"), &state, &base, &request);
        }
    }
}

#[test]
fn every_k_and_interestingness() {
    let state = ceos_7();
    let base = SpadeConfig::default();
    for h in Interestingness::ALL {
        for k in [0, 1, 3, 12, usize::MAX] {
            let request =
                RequestConfig { k: Some(k), interestingness: Some(h), ..Default::default() };
            check(&format!("k={k} h={h:?}"), &state, &base, &request);
        }
    }
}

#[test]
fn cfs_filter_early_stop_and_threads() {
    let state = ceos_7();
    let plain = SpadeConfig::default();
    let es = SpadeConfig::default().with_early_stop();
    for threads in [1, 2, 8] {
        for (what, base) in [("plain", &plain), ("early-stop", &es)] {
            for cfs_filter in [vec![], vec!["type:CEO".to_owned()]] {
                let request = RequestConfig {
                    k: Some(12),
                    cfs_filter,
                    threads: Some(threads),
                    ..Default::default()
                };
                check(&format!("{what} {request:?}"), &state, base, &request);
            }
        }
    }
}

/// Aggregates that tie on score, CFS, label and id and differ only in their
/// lattice, and aggregates of one node that differ only in their label.
/// Four dimensions split the facts alike, one lattice each, and two
/// measures carry the same values, so every tie the order breaks occurs.
#[test]
fn ties_broken_by_label_and_lattice() {
    let mut g = Graph::new();
    for i in 0..24 {
        let node = Term::iri(format!("http://x/n{i}"));
        let value = Term::num(i as f64 * 1.5 + if i < 8 { 0.0 } else { 40.0 });
        g.insert(node.clone(), Term::iri(vocab::RDF_TYPE), Term::iri("http://x/T"));
        for d in ["d1", "d2", "d3", "d4"] {
            let group = format!("{d}-{}", i / 8);
            g.insert(node.clone(), Term::iri(format!("http://x/{d}")), Term::lit(group));
        }
        g.insert(node.clone(), Term::iri("http://x/m1"), value.clone());
        g.insert(node, Term::iri("http://x/m2"), value);
    }
    let state = OfflineState::from_graph(g, 1);
    let base = SpadeConfig { min_cfs_size: 1, max_lattice_dims: 1, ..Default::default() }
        .without_derivations();
    let full = Spade::new(base.clone())
        .run_on(&state, &RequestConfig { k: Some(usize::MAX), ..Default::default() });
    let tie = |a: &TopAggregate, b: &TopAggregate, label: bool, lattice: bool| {
        a.score == b.score && (a.mda != b.mda) == label && (a.dims != b.dims) == lattice
    };
    let pairs = || full.top.iter().flat_map(|a| full.top.iter().map(move |b| (a, b)));
    assert!(pairs().any(|(a, b)| tie(a, b, false, true)), "a tie only the lattice breaks");
    assert!(pairs().any(|(a, b)| tie(a, b, true, false)), "a tie only the label breaks");
    for threads in [1, 2, 8] {
        for k in [1, 3, 12, usize::MAX] {
            let request =
                RequestConfig { k: Some(k), threads: Some(threads), ..Default::default() };
            check(&format!("k={k} threads={threads}"), &state, &base, &request);
        }
    }
}
