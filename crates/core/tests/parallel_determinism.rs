//! Parallel evaluation must be a pure performance knob: any
//! `SpadeConfig::threads` value yields bit-identical `CubeResult`s and an
//! identical top-k list, because the fan-out merges outcomes in input order
//! and every per-lattice computation is single-owner.

use spade_core::analysis::analyze_cfs;
use spade_core::cfs::{select, CfsStrategy};
use spade_core::enumeration::enumerate;
use spade_core::evaluate::evaluate_cfs;
use spade_core::offline;
use spade_core::{OfflineState, RequestConfig, Spade, SpadeConfig};
use spade_cube::CubeResult;
use spade_datagen::{realistic, RealisticConfig};
use spade_telemetry::ledger::key_hash;

/// Exact (bit-level) equality of two cube results: same nodes, same groups,
/// same per-MDA values down to the f64 bit pattern.
fn assert_results_identical(a: &CubeResult, b: &CubeResult, context: &str) {
    assert_eq!(a.mda_labels, b.mda_labels, "{context}: MDA labels");
    let mut masks: Vec<u32> = a.nodes.keys().copied().collect();
    masks.sort_unstable();
    let mut other: Vec<u32> = b.nodes.keys().copied().collect();
    other.sort_unstable();
    assert_eq!(masks, other, "{context}: node sets");
    for mask in masks {
        let na = &a.nodes[&mask];
        let nb = &b.nodes[&mask];
        assert_eq!(na.group_count(), nb.group_count(), "{context}: node {mask:b} group count");
        for (key, va) in na.groups() {
            let vb = nb
                .get(&key)
                .unwrap_or_else(|| panic!("{context}: node {mask:b} missing group {key:?}"));
            assert_eq!(va.len(), vb.len());
            for (i, (x, y)) in va.iter().zip(vb).enumerate() {
                let same = match (x, y) {
                    (Some(x), Some(y)) => x.to_bits() == y.to_bits(),
                    (None, None) => true,
                    _ => false,
                };
                assert!(same, "{context}: node {mask:b} group {key:?} mda {i}: {x:?} vs {y:?}");
            }
        }
    }
}

fn run_evaluation(threads: usize) -> Vec<CubeResult> {
    let g = realistic::ceos(&RealisticConfig { scale: 250, seed: 9 });
    let config = SpadeConfig { min_support: 0.3, threads, ..Default::default() };
    let stats = offline::analyze(&g);
    let (derived, _) = offline::enumerate_derivations(&g, &stats, &config);
    let cfs_list = select(&g, &[CfsStrategy::TypeBased], &config);
    let ceo = cfs_list.iter().find(|c| c.name == "type:CEO").unwrap();
    let analysis = analyze_cfs(&g, ceo, &derived, &config);
    let lattices = enumerate(&analysis, &config);
    assert!(lattices.len() > 1, "need multiple lattices to exercise the fan-out");
    let eval = evaluate_cfs(&analysis, &lattices, &config);
    eval.results
}

#[test]
fn evaluation_is_bit_identical_across_thread_counts() {
    let serial = run_evaluation(1);
    for threads in [2usize, 8] {
        let parallel = run_evaluation(threads);
        assert_eq!(serial.len(), parallel.len());
        for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
            assert_results_identical(a, b, &format!("threads={threads} lattice={i}"));
        }
    }
}

/// FNV-1a digests of the serial reports' deterministic JSON bodies
/// (`to_json(false)`), recorded before results became columnar. Equality
/// across thread counts cannot see a change that alters every body the same
/// way; these pin the bytes across commits. A deliberate change to the
/// report re-records them.
const REPORT_DIGEST: u64 = 0x50af_cdaa_590c_d490;
const REPORT_DIGEST_EARLY_STOP: u64 = 0xced9_c0f8_ffe2_d159;

/// The top-k of one pipeline run, and the digest of its report body.
fn run_pipeline(threads: usize, early_stop: bool) -> (Vec<(String, u64, usize)>, u64) {
    let g = realistic::ceos(&RealisticConfig { scale: 300, seed: 2 });
    let mut config = SpadeConfig { k: 8, min_support: 0.3, threads, ..Default::default() };
    if early_stop {
        config = config.with_early_stop();
    }
    let state = OfflineState::from_graph(g, threads);
    let report = Spade::new(config).run_on(&state, &RequestConfig::default());
    let top =
        report.top.iter().map(|t| (t.description(), t.score.to_bits(), t.groups)).collect();
    (top, key_hash(&report.to_json(false)))
}

#[test]
fn top_k_is_identical_across_thread_counts() {
    let (serial, digest) = run_pipeline(1, false);
    assert!(!serial.is_empty());
    assert_eq!(digest, REPORT_DIGEST, "the report body changed: {digest:#018x}");
    for threads in [2usize, 8] {
        assert_eq!(serial, run_pipeline(threads, false).0, "threads={threads}");
    }
}

#[test]
fn top_k_with_early_stop_is_identical_across_thread_counts() {
    // Early-stop draws per-lattice seeded samples; pruning decisions must
    // not depend on scheduling.
    let (serial, digest) = run_pipeline(1, true);
    assert!(!serial.is_empty());
    assert_eq!(digest, REPORT_DIGEST_EARLY_STOP, "the report body changed: {digest:#018x}");
    for threads in [2usize, 8] {
        assert_eq!(serial, run_pipeline(threads, true).0, "threads={threads}");
    }
}

/// The thread counts every intra-lattice test sweeps: 1/2/8 always, plus an
/// optional `SPADE_TEST_THREADS` override so CI can pin an exact worker
/// count (the release job sets 8).
fn thread_sweep() -> Vec<usize> {
    let mut sweep = vec![1usize, 2, 8];
    if let Some(n) = std::env::var("SPADE_TEST_THREADS").ok().and_then(|v| v.parse().ok()) {
        if !sweep.contains(&n) {
            sweep.push(n);
        }
    }
    sweep
}

/// One *single-CFS, single-lattice* workload — the shape the region-sharded
/// executor targets: all parallelism must come from inside the one lattice.
fn single_lattice_run(threads: usize, early_stop: bool) -> (Vec<CubeResult>, usize) {
    let g = realistic::ceos(&RealisticConfig { scale: 300, seed: 11 });
    let mut config = SpadeConfig { min_support: 0.3, threads, ..Default::default() };
    if early_stop {
        config = SpadeConfig { k: 2, ..config }.with_early_stop();
    }
    let stats = offline::analyze(&g);
    let (derived, _) = offline::enumerate_derivations(&g, &stats, &config);
    let cfs_list = select(&g, &[CfsStrategy::TypeBased], &config);
    let ceo = cfs_list.iter().find(|c| c.name == "type:CEO").unwrap();
    let analysis = analyze_cfs(&g, ceo, &derived, &config);
    let lattices = enumerate(&analysis, &config);
    // Restrict to ONE lattice so the per-CFS/per-lattice fan-out degenerates
    // and only the intra-lattice (region-shard) parallelism remains.
    let one = vec![lattices.into_iter().next().expect("CEOs yield a lattice")];
    let eval = evaluate_cfs(&analysis, &one, &config);
    (eval.results, eval.counts.pruned_by_es)
}

#[test]
fn single_lattice_evaluation_is_bit_identical_across_thread_counts() {
    let (serial, _) = single_lattice_run(1, false);
    assert_eq!(serial.len(), 1);
    for threads in thread_sweep() {
        let (parallel, _) = single_lattice_run(threads, false);
        assert_results_identical(&serial[0], &parallel[0], &format!("threads={threads}"));
    }
}

#[test]
fn single_lattice_early_stop_is_bit_identical_across_thread_counts() {
    // The early-stop pruning loop aggregates per-node shard counters; its
    // decisions (and the pruned evaluation) must not depend on scheduling.
    let (serial, serial_pruned) = single_lattice_run(1, true);
    assert!(serial_pruned > 0, "workload must actually trigger early-stop pruning");
    for threads in thread_sweep() {
        let (parallel, pruned) = single_lattice_run(threads, true);
        assert_eq!(serial_pruned, pruned, "threads={threads}: pruned count");
        assert_results_identical(&serial[0], &parallel[0], &format!("threads={threads} es"));
    }
}
