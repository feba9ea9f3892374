//! `offline_build`: the write side — ingest, saturation, offline analysis,
//! snapshot serialisation and write, then the mmap open that serves it.

use crate::harness::{metric, Metric, OpSample, Window, Workload, ENGINE_THREADS};
use crate::stats::Rng;
use crate::trace::Tracer;
use spade_core::{offline, OfflineState, Spade, SpadeConfig};
use spade_datagen::corpus::NT_CASES;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// As for the wire workloads, the corpora do not follow `--seed`: their size
/// (and with it every timing) moves by several per cent between corpus
/// seeds. The seed orders the cases.
const CORPUS_SEED: u64 = 7;
const SCALE: usize = 250;
const SMOKE_SCALE: usize = 40;

pub struct BuildCase {
    name: &'static str,
    nt: String,
    /// Saturated triple count by the preserved baseline path
    /// (`ingest_baseline` + `saturate_baseline`), not the measured one.
    expected_triples: usize,
}

pub struct OfflineBuild {
    spade: Spade,
    dir: PathBuf,
    /// Snapshot bytes per stored triple, of the last op.
    bytes_per_triple: f64,
    /// Triples parsed and triples saturation added, of the last traced op.
    parsed_triples: usize,
    derived_triples: usize,
}

impl Workload for OfflineBuild {
    type Fixture = Vec<BuildCase>;
    const NAME: &'static str = "offline_build";

    fn fixture(seed: u64, smoke: bool) -> Result<Vec<BuildCase>, String> {
        let scale = if smoke { SMOKE_SCALE } else { SCALE };
        let mut cases = NT_CASES
            .iter()
            .map(|case| {
                let nt = case.generate(scale, CORPUS_SEED);
                let mut graph = spade_rdf::ingest_baseline(&nt).map_err(|e| {
                    format!("{}: generated corpus does not parse: {e}", case.name)
                })?;
                spade_rdf::saturate_baseline(&mut graph);
                Ok(BuildCase { name: case.name, nt, expected_triples: graph.len() })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Rng::new(seed).shuffle(&mut cases);
        Ok(cases)
    }

    fn set_up(_: &Vec<BuildCase>, dir: &Path) -> Result<OfflineBuild, String> {
        let spade = Spade::new(SpadeConfig { threads: ENGINE_THREADS, ..Default::default() });
        Ok(OfflineBuild {
            spade,
            dir: dir.to_owned(),
            bytes_per_triple: 0.0,
            parsed_triples: 0,
            derived_triples: 0,
        })
    }

    /// Twenty identical ops: a cycle's latency is a median, and the warm-up
    /// cycle is a quarter of a second rather than one 14 ms reading.
    fn cycle_len(_: &Vec<BuildCase>) -> usize {
        20
    }

    /// One op builds and reopens all three corpora, so every op costs the
    /// same.
    fn op(&mut self, fixture: &Vec<BuildCase>, _index: usize) -> Result<OpSample, String> {
        let paths: Vec<PathBuf> =
            fixture.iter().map(|c| self.dir.join(format!("{}.spade", c.name))).collect();
        let started = Instant::now();
        let mut opened = Vec::with_capacity(fixture.len());
        for (case, path) in fixture.iter().zip(&paths) {
            self.spade
                .snapshot_ntriples(&case.nt, path)
                .map_err(|e| format!("{}: snapshot: {e}", case.name))?;
            opened.push(
                OfflineState::open(path, ENGINE_THREADS)
                    .map_err(|e| format!("{}: open: {e}", case.name))?,
            );
        }
        let nanos = started.elapsed().as_nanos() as u64;
        let (mut bytes, mut triples) = (0usize, 0usize);
        for (case, state) in fixture.iter().zip(&opened) {
            if state.graph.len() != case.expected_triples {
                return Err(format!(
                    "{}: reopened snapshot holds {} triples, the baseline path derives {}",
                    case.name,
                    state.graph.len(),
                    case.expected_triples
                ));
            }
            bytes += state.image_len();
            triples += state.graph.len();
        }
        self.bytes_per_triple = bytes as f64 / triples as f64;
        Ok(OpSample { nanos, class: 0 })
    }

    fn measured_pid(&self) -> Option<u32> {
        None
    }

    fn traced_cycle(
        &mut self,
        fixture: &Vec<BuildCase>,
        tracer: &mut Tracer,
    ) -> Result<(), String> {
        tracer.begin_op();
        (self.parsed_triples, self.derived_triples) = (0, 0);
        tracer.span("op", |t| {
            for case in fixture {
                let path = self.dir.join(format!("{}.spade", case.name));
                let mut graph = t
                    .span("rdf.ingest", |_| spade_rdf::ingest(&case.nt, ENGINE_THREADS))
                    .map_err(|e| e.to_string())?;
                self.parsed_triples += graph.len();
                self.derived_triples += t.span("rdf.ontology.saturate", |_| {
                    spade_rdf::saturate_with_threads(&mut graph, ENGINE_THREADS)
                });
                let stats = t.span("core.offline.analyze", |_| offline::analyze(&graph));
                let records = offline::to_records(&stats);
                // The shipped write serialises inside `write_snapshot`; the
                // serialisation alone is its child here, so the span's self
                // time is create + write + fsync + rename.
                t.span("store.write", |t| {
                    t.span("store.snapshot_bytes", |_| {
                        std::hint::black_box(spade_store::snapshot_bytes(&graph, &records));
                    });
                    spade_store::write_snapshot(&path, &graph, &records)
                })
                .map_err(|e| e.to_string())?;
                t.span("store.open", |_| OfflineState::open(&path, ENGINE_THREADS))
                    .map_err(|e| e.to_string())?;
            }
            Ok(())
        })
    }

    fn layer_metrics(
        &mut self,
        _fixture: &Vec<BuildCase>,
        tracer: &Tracer,
        _window: &Window,
    ) -> Result<Vec<Metric>, String> {
        let ingest_ms = tracer.layer_ms("rdf.ingest");
        let bytes_ms = tracer.layer_ms("store.snapshot_bytes");
        Ok(vec![
            metric("rdf.ingest.ms", ingest_ms, "ms"),
            metric(
                "rdf.ingest.triples_per_s",
                self.parsed_triples as f64 / (ingest_ms / 1e3),
                "1/s",
            ),
            metric("rdf.ontology.saturate_ms", tracer.layer_ms("rdf.ontology.saturate"), "ms"),
            metric("rdf.ontology.derived_triples", self.derived_triples as f64, "count"),
            metric("core.offline.analyze_ms", tracer.layer_ms("core.offline.analyze"), "ms"),
            metric("store.snapshot_bytes_ms", bytes_ms, "ms"),
            // `write_snapshot` serialises once more than its child span did.
            metric(
                "store.write_ms",
                (tracer.layer_ms("store.write") - bytes_ms).max(0.0),
                "ms",
            ),
            metric("store.open_ms", tracer.layer_ms("store.open"), "ms"),
            metric("store.bytes_per_triple", self.bytes_per_triple, "B"),
        ])
    }
}
