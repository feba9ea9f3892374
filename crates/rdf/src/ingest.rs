//! Parallel, allocation-lean N-Triples ingestion.
//!
//! The offline phase the paper relies on (parse → dictionary-encode → index)
//! used to be a serial, `String`-per-term, hash-per-insert pipeline. This
//! module rebuilds it as a deterministic two-phase subsystem:
//!
//! 1. **Chunked zero-copy parse + local intern.** The input is split at line
//!    boundaries into chunks whose size depends only on the input (never on
//!    the thread count), and the chunks fan out over
//!    [`spade_parallel::map`]. Each worker parses its lines with
//!    [`crate::ntriples::parse_line_ref`] — borrowed `&str` term slices, no
//!    per-term `String` — and interns them into a *chunk-local* str-keyed
//!    dictionary, so each distinct term is materialized at most once per
//!    chunk and each occurrence costs a scratch-buffer encode + hash.
//! 2. **Deterministic merge + bulk index build.** Chunk dictionaries merge
//!    into the global [`Dictionary`] in chunk order, reusing the chunk-local
//!    boxed keys; a term first seen in chunk *k* receives its global id
//!    after all terms of earlier chunks and in chunk-local first-seen order,
//!    which equals the serial first-seen order. Local triples remap through
//!    the per-chunk id table and the graph is assembled with
//!    [`Graph::from_parts`] (sort + dedup instead of per-insert probes).
//!
//! The result is **bit-identical** — same `TermId` assignment, same triple
//! order — for every thread count, and to the preserved serial path
//! [`ingest_baseline`]; `crates/rdf/tests/ingest_prop.rs` pins this.
//!
//! Parse errors carry global 1-based line numbers: each worker reports its
//! chunk-local line, and the earliest failing chunk's offset is computed
//! from the (complete) line counts of the chunks before it.

use crate::dict::{encode_term_ref, Dictionary, FxHashMap, TermId};
use crate::graph::{Graph, Triple};
use crate::ntriples::{parse_line_ref, NtParseError};
use crate::term::{Term, TermRef};
use crate::vocab;

/// Default parse-chunk size in bytes (snapped forward to a line boundary).
pub(crate) const DEFAULT_CHUNK_BYTES: usize = 256 * 1024;

/// Parses an N-Triples document with the parallel zero-copy pipeline.
/// `threads = 0` uses all cores; every thread count produces a bit-identical
/// graph.
pub fn ingest(input: &str, threads: usize) -> Result<Graph, NtParseError> {
    ingest_chunked(input, threads, DEFAULT_CHUNK_BYTES)
}

/// [`ingest`] with an explicit chunk size — exposed so tests can exercise
/// multi-chunk merging on small inputs. Chunk boundaries depend only on the
/// input and `chunk_bytes`, keeping the output thread-count-independent.
pub fn ingest_chunked(
    input: &str,
    threads: usize,
    chunk_bytes: usize,
) -> Result<Graph, NtParseError> {
    let chunks = chunk_at_lines(input, chunk_bytes);
    // One worker (or one chunk) needs no local dictionaries or merge: intern
    // straight into the global dictionary. Identical output by construction
    // — the merge path exists to reproduce exactly this serial order.
    if chunks.len() <= 1 || spade_parallel::resolve_threads(threads) == 1 {
        return ingest_serial(input, threads);
    }
    let outs: Vec<ChunkParse> = spade_parallel::map(chunks, threads, parse_chunk);

    // Surface the earliest error with its global line number. Chunks before
    // the earliest failing one completed fully, so their line counts are
    // exact.
    let mut line_offset = 0usize;
    for out in &outs {
        if let Some((local_line, message)) = &out.error {
            return Err(NtParseError {
                line: line_offset + local_line,
                message: message.clone(),
            });
        }
        line_offset += out.lines;
    }

    // Merge chunk dictionaries in chunk order; remap chunk-local triples.
    let mut dict = Dictionary::new();
    dict.intern_iri(vocab::RDF_TYPE); // match Graph::new()'s eager intern
    let total: usize = outs.iter().map(|o| o.triples.len()).sum();
    let mut triples: Vec<Triple> = Vec::with_capacity(total);
    let mut remap: Vec<TermId> = Vec::new();
    for out in outs {
        remap.clear();
        remap.extend(out.entries.into_iter().map(|(key, term)| dict.intern_entry(key, term)));
        triples.extend(out.triples.iter().map(|&[s, p, o]| Triple {
            s: remap[s as usize],
            p: remap[p as usize],
            o: remap[o as usize],
        }));
    }
    Ok(Graph::from_parts(dict, triples, threads))
}

/// The one-worker fast path: zero-copy parse interning directly into the
/// global dictionary (no chunk-local maps, no merge), then the bulk sort +
/// dedup graph build.
fn ingest_serial(input: &str, threads: usize) -> Result<Graph, NtParseError> {
    let mut dict = Dictionary::new();
    dict.intern_iri(vocab::RDF_TYPE); // match Graph::new()'s eager intern
    let mut triples: Vec<Triple> = Vec::with_capacity(input.len() / 96);
    for (lineno, raw) in input.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (s, p, o) = parse_line_ref(line)
            .map_err(|message| NtParseError { line: lineno + 1, message })?;
        let s = dict.intern_ref(&s);
        let p = dict.intern_ref(&p);
        let o = dict.intern_ref(&o);
        triples.push(Triple { s, p, o });
    }
    Ok(Graph::from_parts(dict, triples, threads))
}

/// The preserved serial baseline: line-at-a-time owned-`Term` parsing and
/// per-insert interning/indexing, exactly the cost model the optimized
/// pipeline replaces. Kept as the equivalence oracle of the tests and of
/// the pinned benchmark's `offline_build` workload.
pub fn ingest_baseline(input: &str) -> Result<Graph, NtParseError> {
    let mut graph = Graph::new();
    for (lineno, raw) in input.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (s, p, o) = parse_line_ref(line)
            .map_err(|message| NtParseError { line: lineno + 1, message })?;
        graph.insert(s.to_term(), p.to_term(), o.to_term());
    }
    Ok(graph)
}

/// Splits `input` into chunks of at least `chunk_bytes` bytes, each ending
/// on a line boundary (or EOF). Depends only on the input text.
fn chunk_at_lines(input: &str, chunk_bytes: usize) -> Vec<&str> {
    let bytes = input.as_bytes();
    let step = chunk_bytes.max(1);
    let mut out = Vec::with_capacity(bytes.len() / step + 1);
    let mut start = 0;
    while start < bytes.len() {
        let mut end = (start + step).min(bytes.len());
        while end < bytes.len() && bytes[end - 1] != b'\n' {
            end += 1;
        }
        out.push(&input[start..end]);
        start = end;
    }
    out
}

/// One chunk's parse output: the chunk-local dictionary in first-seen order
/// (canonical key + owned term) and triples as local-id triangles.
struct ChunkParse {
    entries: Vec<(Box<str>, Term)>,
    triples: Vec<[u32; 3]>,
    lines: usize,
    /// Chunk-local 1-based line and message of the first parse error.
    error: Option<(usize, String)>,
}

fn parse_chunk(chunk: &str) -> ChunkParse {
    let mut keys: FxHashMap<Box<str>, u32> = FxHashMap::default();
    let mut terms: Vec<Term> = Vec::new();
    let mut scratch = String::new();
    let mut triples: Vec<[u32; 3]> = Vec::new();
    let mut lines = 0usize;
    let mut error = None;

    fn local_id(
        term: &TermRef<'_>,
        keys: &mut FxHashMap<Box<str>, u32>,
        terms: &mut Vec<Term>,
        scratch: &mut String,
    ) -> u32 {
        encode_term_ref(term, scratch);
        match keys.get(scratch.as_str()) {
            Some(&id) => id,
            None => {
                let id = u32::try_from(terms.len()).expect("more than 2^32 terms in one chunk");
                keys.insert(scratch.as_str().into(), id);
                terms.push(term.to_term());
                id
            }
        }
    }

    for (lineno, raw) in chunk.lines().enumerate() {
        lines = lineno + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match parse_line_ref(line) {
            Ok((s, p, o)) => {
                // Intern in s, p, o order — the serial first-seen order.
                let s = local_id(&s, &mut keys, &mut terms, &mut scratch);
                let p = local_id(&p, &mut keys, &mut terms, &mut scratch);
                let o = local_id(&o, &mut keys, &mut terms, &mut scratch);
                triples.push([s, p, o]);
            }
            Err(message) => {
                error = Some((lineno + 1, message));
                break;
            }
        }
    }

    // Reunite each local id with its boxed key, in id order.
    let mut key_by_id: Vec<Option<Box<str>>> = (0..terms.len()).map(|_| None).collect();
    for (key, id) in keys {
        key_by_id[id as usize] = Some(key);
    }
    let entries = key_by_id
        .into_iter()
        .map(|k| k.expect("every local id has a key"))
        .zip(terms)
        .collect();
    ChunkParse { entries, triples, lines, error }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "\
<http://x/a> <http://x/p> \"v1\" .
<http://x/b> <http://x/p> \"v2\" .
# comment
<http://x/a> <http://x/q> <http://x/b> .
<http://x/c> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/C> .
<http://x/a> <http://x/p> \"v1\" .
";

    #[test]
    fn chunking_covers_input_at_line_boundaries() {
        for chunk_bytes in [1, 7, 64, 1 << 20] {
            let chunks = chunk_at_lines(SRC, chunk_bytes);
            assert_eq!(chunks.concat(), SRC);
            for c in &chunks[..chunks.len() - 1] {
                assert!(c.ends_with('\n'), "chunk not line-aligned: {c:?}");
            }
        }
        assert!(chunk_at_lines("", 16).is_empty());
        // No trailing newline: last chunk absorbs the partial line.
        let chunks = chunk_at_lines("a\nb", 1);
        assert_eq!(chunks, vec!["a\n", "b"]);
    }

    #[test]
    fn parallel_ingest_matches_baseline_exactly() {
        let baseline = ingest_baseline(SRC).unwrap();
        for threads in [1, 2, 8] {
            for chunk_bytes in [16, 64, DEFAULT_CHUNK_BYTES] {
                let g = ingest_chunked(SRC, threads, chunk_bytes).unwrap();
                assert_eq!(g.triples(), baseline.triples());
                assert_eq!(g.dict.len(), baseline.dict.len());
                for (id, term) in baseline.dict.iter() {
                    assert_eq!(g.dict.term(id), term);
                }
            }
        }
    }

    #[test]
    fn error_line_numbers_are_global_across_chunks() {
        let src = "<http://x/a> <http://x/p> \"ok\" .\n\
                   <http://x/a> <http://x/p> \"ok\" .\n\
                   <http://x/a> <http://x/p> \"ok\" .\n\
                   broken\n";
        for chunk_bytes in [8, 40, 1 << 20] {
            let err = ingest_chunked(src, 4, chunk_bytes).unwrap_err();
            assert_eq!(err.line, 4, "chunk_bytes {chunk_bytes}");
        }
        // Earliest error wins even when later chunks also fail.
        let src2 = "broken1\nbroken2\n<http://x/a> <http://x/p> \"ok\" .\n";
        let err = ingest_chunked(src2, 4, 8).unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn baseline_and_parallel_agree_on_errors() {
        let src = "<http://x/a> <http://x/p> \"ok\" .\nbad line\n";
        let a = ingest_baseline(src).unwrap_err();
        let b = ingest(src, 4).unwrap_err();
        assert_eq!(a, b);
    }
}
