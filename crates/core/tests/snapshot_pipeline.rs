//! The snapshot serving path must be a pure *latency* optimization:
//! `snapshot_ntriples` + `run_snapshot` produces exactly the report that
//! `run_ntriples` produces on the same text — same profile, same top-k,
//! same scores to the bit — at every thread count, with the offline work
//! replaced by one `snapshot_load` timing split.

use spade_core::{SnapshotPipelineError, Spade, SpadeConfig};
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
fn run_snapshot_matches_run_ntriples_exactly() {
    let nt = corpus();
    let direct = Spade::new(config(0)).run_ntriples(&nt).expect("valid corpus");
    assert!(!direct.top.is_empty());

    let path = snapshot_path("equivalence");
    let serial = Spade::new(config(1));
    serial.snapshot_ntriples(&nt, &path).expect("snapshot written");

    for threads in [1usize, 8] {
        let spade = Spade::new(config(threads));
        let served = spade.run_snapshot(&path).expect("snapshot serves");
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
    let report = spade.run_snapshot(&path).expect("snapshot serves");

    // The offline phase collapsed into the load: no ingestion, no
    // saturation, no attribute analysis beyond derivation enumeration.
    assert!(report.timings.snapshot_load > Duration::ZERO);
    assert_eq!(report.timings.ingest, Duration::ZERO);
    assert_eq!(report.timings.saturation, Duration::ZERO);
    assert_eq!(
        report.timings.offline,
        report.timings.snapshot_load + report.timings.offline_analysis
    );
    assert!(report.timings.online_total() > Duration::ZERO);
    std::fs::remove_file(&path).ok();
}

#[test]
fn run_snapshot_bytes_serves_from_memory() {
    let nt = corpus();
    let path = snapshot_path("bytes");
    let spade = Spade::new(config(0));
    spade.snapshot_ntriples(&nt, &path).expect("snapshot written");
    let bytes = std::fs::read(&path).expect("snapshot readable");
    std::fs::remove_file(&path).ok();

    let from_file_less = spade.run_snapshot_bytes(&bytes).expect("serves from memory");
    let direct = Spade::new(config(0)).run_ntriples(&nt).unwrap();
    assert_eq!(top_signature(&from_file_less), top_signature(&direct));
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
    // Serving from a missing file is a store error.
    assert!(matches!(
        spade.run_snapshot(&path),
        Err(SnapshotPipelineError::Store(spade_store::SnapshotError::Io(_)))
    ));
    // Serving from garbage bytes is a store error too.
    assert!(matches!(
        spade.run_snapshot_bytes(b"garbage"),
        Err(SnapshotPipelineError::Store(_))
    ));
}
