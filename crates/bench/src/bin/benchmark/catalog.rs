//! The benchmark's fixed vocabulary: workloads, end-to-end metrics with
//! their bounds, and per-layer metrics. `/BENCHMARK.json` lists exactly
//! these (a test holds the two together).

/// `(name, why it exists)`. Names are final; later issues cite them.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "explore_cold",
        "cache off: every POST /explore runs the pipeline over hundreds of tiny lattices, so \
         per-lattice fixed cost, top-k and attribute analysis carry it; kernels and cache do not",
    ),
    (
        "serve_mixed",
        "two graphs, Zipf requests, cache smaller than the working set, periodic reloads: p50 is \
         the HTTP and cache hit path; throughput and CPU are carried by misses and reload refills",
    ),
    (
        "cube_dense",
        "three 100k-fact lattices in-process: translate, shard flush and bitmap kernels carry \
         it and per-lattice fixed cost vanishes, the opposite use of the cube layer",
    ),
    (
        "cube_earlystop",
        "sampling, confidence intervals, pruning, then the pruned cube under a top-k accuracy \
         floor: worse sampling or pruning shows here and only here",
    ),
    (
        "offline_build",
        "the write side no other window runs: ingest, saturation, offline analysis, snapshot \
         serialise and write, then the mmap open",
    ),
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Relative worsening that counts as a regression.
    pub bound: f64,
}

/// The same five on every workload. A bound is about three times the spread
/// the metric shows between runs of identical code on the 2-core VM this was
/// developed on (README, "Why these bounds").
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.15 },
    EndToEnd { name: "throughput_ops_s", unit: "1/s", better: "higher", bound: 0.2 },
    EndToEnd { name: "cpu_ms_per_op", unit: "ms", better: "lower", bound: 0.2 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.12 },
];

/// `(name, unit, better, workload that measures it)`; `"all"` marks the
/// harness's own. A traced run prints every one of them: 0 means "this
/// workload does not measure that layer", never "it took no time".
pub const PER_LAYER: [(&str, &str, &str, &str); 60] = [
    ("core.pipeline.run_on_ms", "ms", "lower", "explore_cold"),
    ("core.pipeline.unattributed_share", "ratio", "lower", "explore_cold"),
    ("serve.wire_overhead_ms", "ms", "lower", "explore_cold"),
    ("serve.admission.estimate_us", "us", "lower", "explore_cold"),
    ("core.offline.derivations_ms", "ms", "lower", "explore_cold"),
    ("core.cfs.select_ms", "ms", "lower", "explore_cold"),
    ("core.analysis.analyze_cfs_ms", "ms", "lower", "explore_cold"),
    ("core.enumeration.enumerate_ms", "ms", "lower", "explore_cold"),
    ("core.evaluate.evaluate_cfs_ms", "ms", "lower", "explore_cold"),
    ("cube.arm.topk_ms", "ms", "lower", "explore_cold"),
    ("core.json.report_emit_ms", "ms", "lower", "explore_cold"),
    ("cube.translate.prepare_ms", "ms", "lower", "explore_cold"),
    ("cube.engine.mvd_cube_ms", "ms", "lower", "explore_cold"),
    ("cube.engine.us_per_lattice", "us", "lower", "explore_cold"),
    ("cube.engine.facts_per_lattice", "count", "higher", "explore_cold"),
    ("core.enumeration.lattices", "count", "lower", "explore_cold"),
    ("core.evaluate.aggregates", "count", "lower", "explore_cold"),
    ("core.cfs.count", "count", "lower", "explore_cold"),
    ("client.hit_latency_p50_us", "us", "lower", "serve_mixed"),
    ("client.miss_latency_p50_ms", "ms", "lower", "serve_mixed"),
    ("serve.cache.get_ns", "ns", "lower", "serve_mixed"),
    ("serve.cache.insert_ns", "ns", "lower", "serve_mixed"),
    ("serve.cache.hit_ratio", "ratio", "higher", "serve_mixed"),
    ("serve.cache.evictions", "count", "lower", "serve_mixed"),
    ("serve.cache.bytes", "B", "lower", "serve_mixed"),
    ("serve.catalog.reload_ms", "ms", "lower", "serve_mixed"),
    ("store.open_mmap_us", "us", "lower", "serve_mixed"),
    ("store.load_ms", "ms", "lower", "serve_mixed"),
    ("cube.translate.ms", "ms", "lower", "cube_dense"),
    ("cube.engine.ms", "ms", "lower", "cube_dense"),
    ("cube.engine.facts_per_s", "1/s", "higher", "cube_dense"),
    ("cube.engine.groups", "count", "lower", "cube_dense"),
    ("bitmap.union_ns", "ns", "lower", "cube_dense"),
    ("bitmap.intersect_ns", "ns", "lower", "cube_dense"),
    ("bitmap.from_sorted_iter_ns", "ns", "lower", "cube_dense"),
    ("storage.preagg.accumulate_ns", "ns", "lower", "cube_dense"),
    ("cube.translate.sample_ms", "ms", "lower", "cube_earlystop"),
    ("cube.earlystop.prune_ms", "ms", "lower", "cube_earlystop"),
    ("cube.earlystop.pruned_share", "ratio", "higher", "cube_earlystop"),
    ("cube.earlystop.topk_accuracy", "ratio", "higher", "cube_earlystop"),
    ("cube.engine.pruned_cube_ms", "ms", "lower", "cube_earlystop"),
    ("stats.ci.interval_ns", "ns", "lower", "cube_earlystop"),
    ("rdf.ingest.ms", "ms", "lower", "offline_build"),
    ("rdf.ingest.triples_per_s", "1/s", "higher", "offline_build"),
    ("rdf.ontology.saturate_ms", "ms", "lower", "offline_build"),
    ("rdf.ontology.derived_triples", "count", "lower", "offline_build"),
    ("core.offline.analyze_ms", "ms", "lower", "offline_build"),
    ("store.snapshot_bytes_ms", "ms", "lower", "offline_build"),
    ("store.write_ms", "ms", "lower", "offline_build"),
    ("store.open_ms", "ms", "lower", "offline_build"),
    ("store.bytes_per_triple", "B", "lower", "offline_build"),
    ("client.latency_tail_ms", "ms", "lower", "all"),
    ("client.latency_tail_pct", "%", "higher", "all"),
    ("client.latency_samples", "count", "higher", "all"),
    ("client.cycles", "count", "higher", "all"),
    ("datagen.fixture_s", "s", "lower", "all"),
    ("generator.cpu_share", "ratio", "lower", "all"),
    ("trace.overhead_share", "ratio", "lower", "all"),
    ("trace.ops", "count", "higher", "all"),
    ("window.wall_s", "s", "lower", "all"),
];
