//! Spade — automatic discovery of the k most interesting aggregates in an
//! RDF graph (the paper's end-to-end system, Figure 2).
//!
//! The pipeline has an **offline** phase — summary construction, offline
//! attribute analysis, derived-property enumeration, pre-aggregation — and
//! an **online** phase with five steps:
//!
//! 1. Candidate Fact Set Selection ([`cfs`]): type-based and summary-based
//!    strategies;
//! 2. Online Attribute Analysis ([`analysis`]): per-CFS statistics over
//!    direct and derived attributes, materialized as dimension/measure
//!    columns;
//! 3. Aggregate Enumeration ([`enumeration`] + [`mfs`]): maximal frequent
//!    attribute sets become lattice roots; rule-based pruning removes
//!    meaningless candidates;
//! 4. Aggregate Evaluation ([`evaluate`]): MVDCube with optional early-stop
//!    pruning, results shared across overlapping lattices; each lattice's
//!    result goes to a sink as soon as it is evaluated;
//! 5. Top-k Computation (`pipeline`): interestingness scoring through the
//!    Aggregate Result Manager, run on each lattice as it finishes and
//!    folded into a bounded top-k, so a request holds the nodes its current
//!    winners are drawn from, not every result.
//!
//! [`OfflineState`] holds the offline phase's output, built once per graph
//! ([`OfflineState::from_graph`] or [`OfflineState::open`] on a snapshot);
//! [`Spade::run_on`] runs the online steps on it, once per request. See
//! `examples/quickstart.rs` for the two calls.
//!
//! # Public surface
//!
//! Every public item has a caller outside this crate, or is one of these:
//! - [`sparql`], Section 2's SPARQL 1.1 form of an MDA, called by
//!   `examples/sparql_export.rs`;
//! - [`viz`], Section 1's insight views, called by
//!   `examples/ceo_exploration.rs`;
//! - the context form of every stage ([`cfs::select_in`],
//!   [`enumeration::enumerate_in`], [`evaluate::evaluate_cfs_in`],
//!   [`offline::analyze_in`], …) and the [`Cancelled`], [`CancelReason`]
//!   and [`SpanCtx`] they name: each is its stage's one body (see
//!   `spade-cube`'s "Execution context"), and `tests/stage_cancellation.rs`
//!   drives them;
//! - [`mfs`], whose [`mfs::maximal_frequent_sets_in`] the MFS property
//!   suite checks against brute force;
//! - [`json::quote`], with which the serve loopback suite builds request
//!   bodies.

pub mod analysis;
pub(crate) mod attr;
pub mod cfs;
pub(crate) mod config;
pub mod enumeration;
pub mod evaluate;
pub mod json;
pub mod mfs;
pub mod offline;
pub(crate) mod pipeline;
pub mod sparql;
pub(crate) mod text;
pub mod viz;

pub use analysis::CfsAnalysis;
pub use attr::{AttrKind, AttributeDef};
pub use cfs::CfsStrategy;
pub use config::{RequestConfig, SpadeConfig};
pub use enumeration::LatticeSpec;
pub use pipeline::{
    work_counters, DatasetProfile, OfflineState, SnapshotPipelineError, Spade, SpadeReport,
    StepTimings, TopAggregate,
};

/// The per-request execution context (budget + span position + thread
/// count) that [`Spade::run_on_in`] and every stage's `*_in` form run
/// under — re-exported so servers need not depend on `spade-cube` directly.
pub use spade_cube::ExecCtx;

/// Request budgets (deadline + cancellation) carried by an [`ExecCtx`] —
/// re-exported so servers need not depend on `spade-parallel` directly.
pub use spade_parallel::{Budget, CancelReason, Cancelled};

/// Per-request tracing (span trees recorded under [`ExecCtx::traced`]) —
/// re-exported so servers need not depend on `spade-telemetry` directly.
pub use spade_telemetry::{SpanCtx, Trace};
