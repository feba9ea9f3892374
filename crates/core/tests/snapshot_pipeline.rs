//! The snapshot serving path must be a pure *latency* optimization: a state
//! opened from the file `snapshot_ntriples` wrote answers exactly the report
//! that a state built from the same text answers — same profile, same top-k,
//! same scores to the bit — at every thread count, with the offline work
//! replaced by one load, which the state records.

use spade_core::{OfflineState, RequestConfig, SnapshotPipelineError, Spade, SpadeConfig};
use spade_datagen::corpus::NT_CASES;
use std::time::Duration;

fn corpus() -> String {
    NT_CASES[0].generate(90, 5)
}

fn config(threads: usize) -> SpadeConfig {
    // Capped CFS count and support keep each serve a few seconds while
    // still exercising several CFSs, derivations, and a non-trivial top-k.
    SpadeConfig {
        k: 8,
        min_support: 0.3,
        max_cfs: 6,
        min_cfs_size: 15,
        threads,
        ..Default::default()
    }
}

fn snapshot_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("spade-core-test-{}-{tag}.spade", std::process::id()))
}

fn top_signature(report: &spade_core::SpadeReport) -> Vec<(String, u64, usize)> {
    report.top.iter().map(|t| (t.description(), t.score.to_bits(), t.groups)).collect()
}

#[test]
fn opened_snapshot_matches_ingested_graph_exactly() {
    let nt = corpus();
    let graph = spade_rdf::ingest(&nt, 0).expect("valid corpus");
    let direct = Spade::new(config(0))
        .run_on(&OfflineState::from_graph(graph, 0), &RequestConfig::default());
    assert!(!direct.top.is_empty());

    let path = snapshot_path("equivalence");
    let serial = Spade::new(config(1));
    serial.snapshot_ntriples(&nt, &path).expect("snapshot written");

    for threads in [1usize, 8] {
        let state = OfflineState::open(&path, threads).expect("snapshot opens");
        let served = Spade::new(config(threads)).run_on(&state, &RequestConfig::default());
        assert_eq!(served.profile.triples, direct.profile.triples, "threads={threads}");
        assert_eq!(served.profile.cfs_count, direct.profile.cfs_count);
        assert_eq!(served.profile.direct_properties, direct.profile.direct_properties);
        assert_eq!(served.profile.derivations, direct.profile.derivations);
        assert_eq!(served.profile.aggregates, direct.profile.aggregates);
        assert_eq!(served.evaluated_aggregates, direct.evaluated_aggregates);
        assert_eq!(top_signature(&served), top_signature(&direct), "threads={threads}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn snapshot_timings_replace_the_offline_phase() {
    let nt = corpus();
    let path = snapshot_path("timings");
    let spade = Spade::new(config(0));
    spade.snapshot_ntriples(&nt, &path).expect("snapshot written");
    let state = OfflineState::open(&path, 0).expect("snapshot opens");
    let report = spade.run_on(&state, &RequestConfig::default());

    // The offline phase collapsed into the load, paid once by the state;
    // the report times the request's own steps.
    assert!(state.load_time > Duration::ZERO);
    assert!(report.timings.online_total() > Duration::ZERO);
    std::fs::remove_file(&path).ok();
}

#[test]
fn snapshot_errors_are_typed() {
    let spade = Spade::new(config(1));
    // Unparseable input never writes a file.
    let path = snapshot_path("errors");
    match spade.snapshot_ntriples("not an n-triples line\n", &path) {
        Err(SnapshotPipelineError::Parse(e)) => assert_eq!(e.line, 1),
        other => panic!("expected a parse error, got {other:?}"),
    }
    assert!(!path.exists());
    // Opening a missing file is a store error.
    assert!(matches!(
        OfflineState::open(&path, 1),
        Err(SnapshotPipelineError::Store(spade_store::SnapshotError::Io(_)))
    ));
    // Opening garbage bytes is a store error too.
    std::fs::write(&path, b"garbage").expect("garbage written");
    assert!(matches!(OfflineState::open(&path, 1), Err(SnapshotPipelineError::Store(_))));
    std::fs::remove_file(&path).ok();
}
