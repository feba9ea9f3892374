//! RDF substrate for Spade.
//!
//! The paper (Section 2) works over RDF graphs: finite sets of triples
//! `(s, p, o)` with `s ∈ U ∪ B`, `p ∈ U`, `o ∈ U ∪ B ∪ L`, optionally
//! accompanied by an RDFS ontology whose implicit triples are materialized by
//! *saturation* before any analysis. This crate provides exactly that
//! substrate:
//!
//! * [`term`] — the term model (IRIs, blank nodes, plain/lang/typed literals),
//!   borrowed [`TermRef`] views for zero-copy parsing, and literal value
//!   typing (integer/decimal/date/boolean/string);
//! * [`dict`] — str-keyed dictionary encoding of terms into dense `u32`
//!   [`TermId`]s (allocation-free hit path, deterministic chunk merge);
//! * [`graph`] — an in-memory triple store with subject/property/type
//!   indexes, mirroring the access paths Spade needs (per-property `(s,o)`
//!   tables, type extents, outgoing edges), built incrementally or in bulk;
//! * [`ntriples`] — a zero-copy N-Triples line parser and a writer;
//! * [`ingest`](mod@ingest) — the parallel two-phase ingestion pipeline (chunked parse +
//!   local intern, deterministic merge), with the serial baseline preserved;
//! * [`ontology`] — RDFS saturation (subClassOf, subPropertyOf, domain,
//!   range): semi-naive parallel evaluation, plus the fixpoint baseline;
//! * [`vocab`] — the handful of RDF/RDFS IRIs used throughout.

pub mod dict;
pub mod graph;
pub mod ingest;
pub mod ntriples;
pub mod ontology;
pub mod term;
pub mod vocab;

pub use dict::{Dictionary, DictionaryParts, TermId};
pub use graph::{Graph, GraphPartsError, Triple};
pub use ingest::{ingest, ingest_baseline, ingest_chunked};
pub use ntriples::{parse_ntriples, write_ntriples, NtParseError};
pub use ontology::{saturate, saturate_baseline, saturate_with_threads};
pub use term::{Literal, LiteralRef, Term, TermRef, ValueKind};
