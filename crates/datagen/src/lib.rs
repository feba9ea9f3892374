//! Workload generators for the Spade experiments.
//!
//! The paper evaluates on six real RDF dumps (Table 2) and a synthetic
//! benchmark (Section 6.5). The dumps are not redistributable nor reachable
//! offline, so this crate provides:
//!
//! * [`synthetic`] — the Section 6.5 benchmark, faithfully parameterized:
//!   `|CFS|` facts, `N` dimensions with bounded distinct values, `M` numeric
//!   measures, value assignment controlled by a sparsity coefficient
//!   `s ∈ [0,1]` (as in [1]), single-valued by default ("To ensure PGCube
//!   correctness, each fact has only one value for each dimension") with an
//!   optional multi-valued extension for the error experiments;
//! * [`realistic`] — six *simulated* graphs whose structural profile
//!   (number of CFS types, multi-valued attribute share, link/path density,
//!   text vs. numeric property mix, injected outliers) mirrors what Table 2
//!   and Section 6 report for Airline, CEOs, DBLP, Foodista, NASA, and
//!   Nobel; see `DESIGN.md` for the substitution rationale;
//! * [`nt`] — N-Triples corpus generation (serialization + deterministic
//!   RDFS ontology overlays), feeding the pinned benchmark's
//!   `offline_build` workload;
//! * [`corpus`] — the shared bench-corpus catalog (the named cases the
//!   pinned benchmark measures);
//! * [`mini`] — the exact running-example graph of Figure 1 (Dos Santos,
//!   Ghosn, their companies and political connections), used by examples
//!   and tests.

pub mod corpus;
pub mod mini;
pub mod nt;
pub mod realistic;
pub mod synthetic;

pub use mini::ceos_figure1;
pub use nt::{add_ontology, nt_corpus, to_ntriples};
pub use realistic::{RealGraph, RealisticConfig};
pub use synthetic::{ColumnSet, SyntheticConfig};
