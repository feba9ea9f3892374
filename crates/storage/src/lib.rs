//! Column storage for candidate fact sets, attributes, and pre-aggregated
//! measures — the paper's database layout (Section 4.3):
//!
//! > "our RDF database uses the following storage: a CFS is represented by a
//! > single-column table storing the identifiers (IDs) of the facts; for each
//! > attribute *a*, a table *t_a* stores (s, o) pairs for each (s, a, o)
//! > triple in the RDF graph."
//!
//! and (Section 3, offline phase):
//!
//! > "for each multi-valued attribute, we create a table in the database
//! > storing its values, pre-aggregated on the RDF nodes that have it. …
//! > for each RDF node, we compute and store the aggregated value for each
//! > (attribute, aggregate function) pair."
//!
//! Facts are densified to `0..|CFS|` ([`FactId`]) so that bitmaps over facts
//! and the pre-aggregated measure columns share one ordering — the property
//! MVDCube's measure computation relies on ("both the bitmaps and the
//! pre-aggregated measures are ordered by the fact ID").
//!
//! * [`FactTable`] — the CFS single-column table (graph node ↔ dense fact id);
//! * [`CategoricalColumn`] — a multi-valued dimension attribute in CSR form
//!   with a per-attribute value dictionary;
//! * [`NumericColumn`] / [`PreAggregated`] — a multi-valued numeric measure
//!   attribute and its per-fact pre-aggregation;
//! * [`AggFn`] — the aggregate function set `Ω = {count, min, max, sum, avg}`.
//!
//! # Public surface
//!
//! Every public item has a caller outside this crate, except:
//! - [`FactTable::is_empty`], which pairs with the public [`FactTable::len`]
//!   (clippy's `len_without_is_empty`, denied in CI);
//! - four test hooks read by the unit tests of `spade-datagen` and
//!   `spade-cube`: [`CategoricalColumn::support`],
//!   [`CategoricalColumn::multi_valued_facts`], [`PreAggregated::support`]
//!   and [`PreAggregated::avg`].

mod aggfn;
mod column;
mod fact_table;
mod preagg;

pub use aggfn::AggFn;
pub use column::{CategoricalColumn, CategoricalColumnBuilder};
pub use fact_table::{FactId, FactTable};
pub use preagg::{MeasureTotals, NumericColumn, NumericColumnBuilder, PreAggregated};
