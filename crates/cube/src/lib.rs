//! Lattice-based multidimensional aggregate (MDA) computation.
//!
//! This crate contains the algorithmic heart of the paper:
//!
//! * `lattice` — the `2^N`-node dimension lattice and the Minimum Memory
//!   Spanning Tree (MMST) of ArrayCube \[49\], with the classical memory
//!   formula (Section 4.1);
//! * [`translate`] — Data Translation: laying the CFS out as a partitioned
//!   array of cells, each holding the set of facts (Section 4.3), with the
//!   stratified bottom-k sampling of early-stop piggybacked on the same
//!   pass (Section 5.3);
//! * [`mvdcube`] — **MVDCube** (Algorithm 1): the correct one-pass
//!   evaluation in the presence of multi-valued dimensions, propagating
//!   fact-set bitmaps (array and bitset containers, `spade-bitmap`) down
//!   the MMST and computing measures from per-fact pre-aggregates at flush
//!   time;
//! * `arraycube` — the classical ArrayCube baseline, a small
//!   self-contained evaluator that computes each lattice node from its MMST
//!   parent's *aggregated values* and is therefore subject to the errors
//!   characterized by Lemma 1 / Theorem 1 (never timed);
//! * `pgcube` — a PostgreSQL-12-style one-pass `GROUP BY CUBE`
//!   (grouping-sets via symmetric rollup-chain decomposition over the
//!   flattened join result), in its `count(*)` (PGCube\*) and
//!   `count(distinct)` (PGCube^d) variants (Section 6, baselines);
//! * [`result`] — the one result type every evaluator returns: per lattice
//!   node, columns of rows (cell index, visibility, per-MDA values) kept in
//!   ascending group-key order;
//! * [`arm`] — the Aggregate Result Manager's job: one pass over each
//!   node's visible rows in that order, one set of running moments per MDA,
//!   ranked by interestingness (Section 3, Steps 4–5);
//! * [`earlystop`] — the early-stop pruning loop over the stratified samples
//!   (Section 5), wired into MVDCube;
//! * `compare` — error measurement between a correct and a baseline result
//!   (Experiments 2–3: #wrong aggregates, error-ratio distributions).
//!
//! # Execution context
//!
//! Every stage that can be cancelled, traced or run on several threads has
//! exactly one body: its **context form**, named `<stage>_in`, fallible
//! (`Result<_, Cancelled>`), taking an [`ExecCtx`] — request budget, span
//! position, thread count — as its last parameter
//! ([`translate::translate_in`], [`mvdcube::prepare_in`],
//! [`earlystop::prune_in`], [`mvdcube::mvd_cube_pruned_in`]). A stage that
//! the pinned benchmark calls without a context (`prepare`,
//! `mvd_cube_pruned`, `prune`) also has a **plain form** without the
//! suffix, a one-expression wrapper over [`ExecCtx::unbounded`] — no
//! deadline, no spans, the thread count its signature always carried
//! (`options.threads` or an explicit argument). Any other caller without a
//! context passes `ExecCtx::unbounded` itself.
//!
//! Who calls which: code that was handed a context (the pipeline in
//! `spade-core`, the server) calls context forms only and passes the
//! context — or a child of it — down, so one request's budget and trace
//! reach every fan-out; calling a plain form there would silently drop
//! both.
//!
//! # Public surface
//!
//! Every public item has a caller outside this crate, except
//! [`translate::translate_in`], the translation stage's one form, which
//! only the stage-cancellation suite calls from outside, and two hooks of
//! this crate's own suites: [`CellStorePolicy`] (`tests/store_prop.rs`
//! forces dense and sparse cell stores and checks they agree) and
//! [`NodeResult::rows`] (`tests/row_order.rs` reads the stored row order).

pub mod arm;
pub(crate) mod arraycube;
pub(crate) mod compare;
pub mod earlystop;
mod engine;
pub(crate) mod engine_baseline;
pub(crate) mod exec;
pub(crate) mod lattice;
pub mod mvdcube;
pub(crate) mod pgcube;
pub mod result;
pub(crate) mod spec;
pub mod translate;

pub use arraycube::array_cube;
pub use compare::{compare_results, ComparisonReport};
pub use earlystop::EarlyStopConfig;
pub use engine::CellStorePolicy;
pub use engine_baseline::mvd_cube_baseline;
pub use exec::ExecCtx;
pub use lattice::Lattice;
pub use mvdcube::{mvd_cube, mvd_cube_with_earlystop, MvdCubeOptions};
pub use pgcube::{pg_cube, PgCubeVariant};
pub use result::{CubeResult, NodeResult};
pub use spec::{CubeSpec, Mda, MdaKind, MeasureSpec};
