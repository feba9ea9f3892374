//! # Spade — Efficient Exploration of Interesting Aggregates in RDF Graphs
//!
//! A Rust implementation of the SIGMOD 2021 paper by Diao, Guzewicz,
//! Manolescu and Mazuran: given an RDF graph `G`, an integer `k`, and an
//! interestingness function `h`, Spade automatically identifies, enumerates,
//! and efficiently evaluates the multidimensional aggregate queries (MDAs)
//! whose results score highest under `h`.
//!
//! ```
//! use spade::prelude::*;
//!
//! // Load a graph (here: the paper's Figure 1 running example) and run the
//! // offline phase once: saturation and offline attribute analysis, on
//! // every core (`0`).
//! let state = OfflineState::from_graph(spade::datagen::ceos_figure1(), 0);
//!
//! // Ask for the 5 most interesting aggregates by variance.
//! let config = SpadeConfig {
//!     k: 5,
//!     min_cfs_size: 2,          // the example graph has 2 CEOs
//!     max_distinct_ratio: 5.0,  // tiny graph: allow high-cardinality dims
//!     ..SpadeConfig::default()
//! };
//! let report = Spade::new(config).run_on(&state, &RequestConfig::default());
//!
//! assert_eq!(report.top.len(), 5);
//! for aggregate in &report.top {
//!     println!("{:10.2}  {}", aggregate.score, aggregate.description());
//! }
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`rdf`] | triple store, dictionary, N-Triples I/O, RDFS saturation |
//! | [`storage`] | CFS tables, attribute columns, pre-aggregated measures |
//! | [`cube`] | MVDCube, ArrayCube and PGCube baselines, lattices/MMST, ARM |
//! | [`core`] | the Spade pipeline: derivations, CFS selection, enumeration, evaluation, top-k |
//! | [`datagen`] | synthetic benchmark and simulated real-world graphs |
//!
//! The pipeline also rests on `spade-bitmap` (cube cells, samples),
//! `spade-stats` (interestingness functions, Delta-Method CIs),
//! `spade-summary` (RDFQuotient-style summaries) and `spade-store`
//! (zero-copy snapshots). Nothing that uses this crate reaches them through
//! it, so they are not re-exported here; depend on them directly.

pub use spade_core as core;
pub use spade_cube as cube;
pub use spade_datagen as datagen;
pub use spade_rdf as rdf;
pub use spade_storage as storage;

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use spade_core::{OfflineState, RequestConfig, Spade, SpadeConfig, TopAggregate};
    pub use spade_cube::{CubeSpec, MeasureSpec, MvdCubeOptions};
    pub use spade_rdf::{parse_ntriples, Term};
    pub use spade_stats::Interestingness;
    pub use spade_storage::AggFn;
}
