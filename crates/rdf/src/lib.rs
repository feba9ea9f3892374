//! RDF substrate for Spade.
//!
//! The paper (Section 2) works over RDF graphs: finite sets of triples
//! `(s, p, o)` with `s ∈ U ∪ B`, `p ∈ U`, `o ∈ U ∪ B ∪ L`, optionally
//! accompanied by an RDFS ontology whose implicit triples are materialized by
//! *saturation* before any analysis. This crate provides exactly that
//! substrate:
//!
//! * `term` — the term model (IRIs, blank nodes, plain/lang/typed literals),
//!   borrowed `TermRef` views for zero-copy parsing, and literal value
//!   typing (integer/decimal/date/boolean/string);
//! * [`dict`] — str-keyed dictionary encoding of terms into dense `u32`
//!   [`TermId`]s (allocation-free hit path, deterministic chunk merge);
//! * `graph` — an in-memory triple store with subject/property/type
//!   indexes, mirroring the access paths Spade needs (per-property `(s,o)`
//!   tables, type extents, outgoing edges), built incrementally or in bulk;
//! * `ntriples` — a zero-copy N-Triples line parser and a writer;
//! * `ingest` — the parallel two-phase ingestion pipeline (chunked parse +
//!   local intern, deterministic merge), with the serial baseline preserved;
//! * `ontology` — RDFS saturation (subClassOf, subPropertyOf, domain,
//!   range): semi-naive parallel evaluation, plus the fixpoint baseline;
//! * [`vocab`] — the handful of RDF/RDFS IRIs used throughout.
//!
//! # Public surface
//!
//! Every public item has a caller outside this crate, except:
//! - [`Dictionary::is_empty`] and [`Graph::is_empty`], which pair with a
//!   public `len` (clippy's `len_without_is_empty`, denied in CI);
//! - the constructors and entry points with which the property suites here
//!   and in `spade-store` build their graphs: [`Term::blank`],
//!   [`Literal::typed`], [`Literal::lang_tagged`], [`Dictionary::intern`],
//!   [`Dictionary::intern_iri`], [`TermId::index`] and [`ingest_chunked`].

pub mod dict;
pub(crate) mod graph;
pub(crate) mod ingest;
pub(crate) mod ntriples;
pub(crate) mod ontology;
pub(crate) mod term;
pub mod vocab;

pub use dict::{Dictionary, TermId};
pub use graph::{Graph, GraphPartsError, Triple};
pub use ingest::{ingest, ingest_baseline, ingest_chunked};
pub use ntriples::{parse_ntriples, write_ntriples, NtParseError};
pub use ontology::{saturate, saturate_baseline, saturate_with_threads};
pub use term::{Literal, Term, ValueKind};
