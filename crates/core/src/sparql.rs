//! Rendering MDAs as SPARQL 1.1 aggregate queries.
//!
//! Section 2: "The semantics of A is that of a SPARQL 1.1 aggregate query
//! \[13\] … The query can be expressed in a language such as SPARQL 1.1 …
//! and evaluated by any RDF query engine." This module emits that query for
//! any discovered aggregate, so a user can re-run an insight on their own
//! triple store.
//!
//! Two faithfulness details:
//!
//! * **Per-fact measure contribution.** A naive `SUM(?m)` over the join
//!   would double-count facts with multi-valued dimensions — the very error
//!   Section 4.2 dissects. The emitted query therefore pre-aggregates the
//!   measure per fact in a subquery (mirroring Spade's offline pre-
//!   aggregated measures) so each fact contributes exactly once per group.
//! * **Derived properties.** Paths render as SPARQL property paths
//!   (`p/q`); counts render as a per-fact `COUNT` subquery; keyword and
//!   language attributes have no portable SPARQL equivalent (they come from
//!   Spade's offline text derivation), so they render as a placeholder
//!   `VALUES`-less pattern plus an explanatory comment.

use crate::attr::{AttrKind, AttributeDef};
use spade_rdf::{Graph, Term, TermId};
use spade_storage::AggFn;
use std::fmt::Write as _;

/// What the rendered query aggregates.
#[derive(Clone, Copy, Debug)]
pub enum SparqlMeasure<'a> {
    /// `COUNT(DISTINCT ?cf)` — the fact-count MDA.
    FactCount,
    /// `f(measure)` with per-fact pre-aggregation.
    Measure(&'a AttributeDef, AggFn),
}

fn iri_of(graph: &Graph, id: TermId) -> String {
    match graph.dict.term(id) {
        Term::Iri(s) => format!("<{s}>"),
        other => format!("{other}"),
    }
}

/// The SPARQL keyword of an aggregate function.
pub fn agg_keyword(f: AggFn) -> &'static str {
    match f {
        AggFn::Count => "COUNT",
        AggFn::Sum => "SUM",
        AggFn::Avg => "AVG",
        AggFn::Min => "MIN",
        AggFn::Max => "MAX",
    }
}

/// Emits the triple patterns binding `?var` to `attr`'s values of `?cf`.
fn attr_pattern(graph: &Graph, attr: &AttributeDef, var: &str, out: &mut String) {
    match &attr.kind {
        AttrKind::Direct(p) => {
            let _ = writeln!(out, "  ?cf {} ?{var} .", iri_of(graph, *p));
        }
        AttrKind::Path(p, q) => {
            let _ = writeln!(out, "  ?cf {}/{} ?{var} .", iri_of(graph, *p), iri_of(graph, *q));
        }
        AttrKind::Count(p) => {
            let _ = writeln!(
                out,
                "  {{ SELECT ?cf (COUNT(?__{var}) AS ?{var}) WHERE {{ ?cf {} ?__{var} . }} GROUP BY ?cf }}",
                iri_of(graph, *p)
            );
        }
        AttrKind::Keywords(p) => {
            let _ = writeln!(
                out,
                "  # {} is Spade's offline keyword derivation of {} — no portable",
                attr.name,
                iri_of(graph, *p)
            );
            let _ = writeln!(
                out,
                "  # SPARQL equivalent; materialize it as a property to reproduce.\n  ?cf {} ?{var} .",
                iri_of(graph, *p)
            );
        }
        AttrKind::Language(p) => {
            let _ = writeln!(
                out,
                "  ?cf {} ?__{var}_text .\n  BIND(LANG(?__{var}_text) AS ?{var})",
                iri_of(graph, *p)
            );
        }
    }
}

/// Renders a full MDA as a SPARQL 1.1 query.
///
/// * `cfs_type` — the class IRI for a type-based CFS (`?cf a <T>`); pass
///   `None` for property/summary-based CFSs (membership then comes from the
///   dimension patterns).
pub fn mda_to_sparql(
    graph: &Graph,
    cfs_type: Option<TermId>,
    dims: &[&AttributeDef],
    measure: SparqlMeasure<'_>,
) -> String {
    let mut query = String::from("SELECT ");
    for i in 0..dims.len() {
        let _ = write!(query, "?d{i} ");
    }
    match measure {
        SparqlMeasure::FactCount => query.push_str("(COUNT(DISTINCT ?cf) AS ?value)"),
        SparqlMeasure::Measure(_, f) => {
            // Outer aggregate over per-fact pre-aggregates: COUNT sums the
            // per-fact counts, AVG is the ratio of summed sums and counts.
            match f {
                AggFn::Count => query.push_str("(SUM(?cfCount) AS ?value)"),
                AggFn::Avg => query.push_str("(SUM(?cfSum)/SUM(?cfCount) AS ?value)"),
                AggFn::Sum => query.push_str("(SUM(?cfSum) AS ?value)"),
                AggFn::Min => query.push_str("(MIN(?cfMin) AS ?value)"),
                AggFn::Max => query.push_str("(MAX(?cfMax) AS ?value)"),
            }
        }
    }
    query.push_str("\nWHERE {\n");
    if let Some(t) = cfs_type {
        let _ = writeln!(query, "  ?cf a {} .", iri_of(graph, t));
    }
    for (i, d) in dims.iter().enumerate() {
        attr_pattern(graph, d, &format!("d{i}"), &mut query);
    }
    if let SparqlMeasure::Measure(m, f) = measure {
        // The per-fact pre-aggregation subquery (offline phase semantics).
        let inner = match &m.kind {
            AttrKind::Direct(p) | AttrKind::Path(p, _) => iri_of(graph, *p),
            AttrKind::Count(p) => iri_of(graph, *p),
            _ => String::from("?unsupportedTextMeasure"),
        };
        let path_suffix = match &m.kind {
            AttrKind::Path(_, q) => format!("/{}", iri_of(graph, *q)),
            _ => String::new(),
        };
        let projections = match f {
            AggFn::Sum => "(SUM(?mv) AS ?cfSum)".to_owned(),
            AggFn::Count => "(COUNT(?mv) AS ?cfCount)".to_owned(),
            AggFn::Avg => "(SUM(?mv) AS ?cfSum) (COUNT(?mv) AS ?cfCount)".to_owned(),
            AggFn::Min => "(MIN(?mv) AS ?cfMin)".to_owned(),
            AggFn::Max => "(MAX(?mv) AS ?cfMax)".to_owned(),
        };
        let _ = writeln!(
            query,
            "  {{ SELECT ?cf {projections}\n    WHERE {{ ?cf {inner}{path_suffix} ?mv . }} GROUP BY ?cf }}"
        );
    }
    query.push('}');
    if !dims.is_empty() {
        query.push_str("\nGROUP BY");
        for i in 0..dims.len() {
            let _ = write!(query, " ?d{i}");
        }
    }
    query
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Graph, TermId, AttributeDef, AttributeDef, AttributeDef, AttributeDef) {
        let mut g = Graph::new();
        let nationality = g.dict.intern_iri("http://x/nationality");
        let company = g.dict.intern_iri("http://x/company");
        let area = g.dict.intern_iri("http://x/area");
        let net_worth = g.dict.intern_iri("http://x/netWorth");
        let ceo = g.dict.intern_iri("http://x/CEO");
        let d_nat = AttributeDef::new(AttrKind::Direct(nationality), &g);
        let d_path = AttributeDef::new(AttrKind::Path(company, area), &g);
        let d_count = AttributeDef::new(AttrKind::Count(company), &g);
        let m_nw = AttributeDef::new(AttrKind::Direct(net_worth), &g);
        (g, ceo, d_nat, d_path, d_count, m_nw)
    }

    #[test]
    fn example1_query_shape() {
        // "Sum of the net worth of CEOs … grouped by country of origin".
        let (g, ceo, d_nat, _, _, m_nw) = setup();
        let q =
            mda_to_sparql(&g, Some(ceo), &[&d_nat], SparqlMeasure::Measure(&m_nw, AggFn::Sum));
        assert!(q.contains("SELECT ?d0 (SUM(?cfSum) AS ?value)"), "{q}");
        assert!(q.contains("?cf a <http://x/CEO> ."));
        assert!(q.contains("?cf <http://x/nationality> ?d0 ."));
        assert!(q.contains("GROUP BY ?cf }"), "per-fact pre-aggregation:\n{q}");
        assert!(q.ends_with("GROUP BY ?d0"));
    }

    #[test]
    fn path_derivation_uses_property_path() {
        let (g, ceo, _, d_path, _, _) = setup();
        let q = mda_to_sparql(&g, Some(ceo), &[&d_path], SparqlMeasure::FactCount);
        assert!(q.contains("?cf <http://x/company>/<http://x/area> ?d0 ."), "{q}");
        assert!(q.contains("COUNT(DISTINCT ?cf)"));
    }

    #[test]
    fn count_derivation_uses_subquery() {
        let (g, ceo, _, _, d_count, _) = setup();
        let q = mda_to_sparql(&g, Some(ceo), &[&d_count], SparqlMeasure::FactCount);
        assert!(q.contains("SELECT ?cf (COUNT(?__d0) AS ?d0)"), "{q}");
    }

    #[test]
    fn avg_divides_summed_preaggregates() {
        // Variation 2's correct semantics: sum of per-fact sums over sum of
        // per-fact counts — NOT AVG over the join.
        let (g, ceo, d_nat, _, _, m_nw) = setup();
        let q =
            mda_to_sparql(&g, Some(ceo), &[&d_nat], SparqlMeasure::Measure(&m_nw, AggFn::Avg));
        assert!(q.contains("(SUM(?cfSum)/SUM(?cfCount) AS ?value)"), "{q}");
        assert!(!q.contains("AVG(?mv) AS ?value"));
    }

    #[test]
    fn grand_total_has_no_group_by() {
        let (g, ceo, _, _, _, m_nw) = setup();
        let q = mda_to_sparql(&g, Some(ceo), &[], SparqlMeasure::Measure(&m_nw, AggFn::Max));
        assert!(!q.contains("GROUP BY ?d"));
        assert!(q.contains("(MIN(?mv) AS ?cfMin)") || q.contains("(MAX(?mv) AS ?cfMax)"));
    }

    #[test]
    fn agg_keywords() {
        assert_eq!(agg_keyword(AggFn::Sum), "SUM");
        assert_eq!(agg_keyword(AggFn::Count), "COUNT");
        assert_eq!(agg_keyword(AggFn::Min), "MIN");
    }
}
