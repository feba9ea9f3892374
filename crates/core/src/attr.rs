//! Attributes: direct properties and the four derivation strategies.
//!
//! Section 2: "An attribute is either a (direct) property (P) of a CF in
//! the original RDF data, or a derived property (DP), which we create from
//! the data and attach to a CF to enrich the analysis."
//!
//! Section 3's Derived Property Enumeration generates: (i) property counts
//! for multi-valued properties; (ii) keywords occurring in property values;
//! (iii) the language of a text property; (iv) paths.

use crate::text;
use spade_rdf::{Graph, TermId};

/// What an attribute computes for a candidate fact.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum AttrKind {
    /// A property of the fact in the original graph.
    Direct(TermId),
    /// `count(p)` — how many values of `p` the fact has (e.g. "how many
    /// companies a CEO manages").
    Count(TermId),
    /// `kw(p)` — keywords occurring in `p`'s text values.
    Keywords(TermId),
    /// `lang(p)` — the detected language of `p`'s text values.
    Language(TermId),
    /// `p/q` — values of `q` on the nodes reachable through `p` (e.g.
    /// `company/area`, `politicalConnection/role`).
    Path(TermId, TermId),
}

/// A named attribute over a CFS.
#[derive(Clone, Debug, PartialEq)]
pub struct AttributeDef {
    /// How values are computed.
    pub kind: AttrKind,
    /// Human-readable name, e.g. `nationality` or `company/area`.
    pub name: String,
}

impl AttributeDef {
    /// Builds the definition, deriving the display name from the graph's
    /// dictionary.
    pub fn new(kind: AttrKind, graph: &Graph) -> Self {
        let name = match &kind {
            AttrKind::Direct(p) => graph.dict.display(*p),
            AttrKind::Count(p) => format!("numOf({})", graph.dict.display(*p)),
            AttrKind::Keywords(p) => format!("kwIn({})", graph.dict.display(*p)),
            AttrKind::Language(p) => format!("langOf({})", graph.dict.display(*p)),
            AttrKind::Path(p, q) => {
                format!("{}/{}", graph.dict.display(*p), graph.dict.display(*q))
            }
        };
        AttributeDef { kind, name }
    }

    /// The base property a derivation stems from, used by the pruning rule
    /// "does not contain attributes that are derived one from the other"
    /// (e.g. `nationality` and `numOf(nationality)`).
    pub(crate) fn derived_from(&self) -> Option<TermId> {
        match self.kind {
            AttrKind::Direct(_) => None,
            AttrKind::Count(p)
            | AttrKind::Keywords(p)
            | AttrKind::Language(p)
            | AttrKind::Path(p, _) => Some(p),
        }
    }

    /// The property whose values this attribute exposes directly (for
    /// direct attributes) — the other side of the derived-from rule.
    pub(crate) fn base_property(&self) -> Option<TermId> {
        match self.kind {
            AttrKind::Direct(p) => Some(p),
            _ => None,
        }
    }

    /// The attribute's string values for `node` (dimension use). Numeric
    /// values are rendered through their lexical form; missing → empty.
    pub(crate) fn string_values(
        &self,
        graph: &Graph,
        node: TermId,
        kw_min_len: usize,
    ) -> Vec<String> {
        match &self.kind {
            AttrKind::Direct(p) => {
                graph.objects(node, *p).map(|o| graph.dict.display(o)).collect()
            }
            AttrKind::Count(p) => {
                let n = graph.objects(node, *p).count();
                if n == 0 {
                    vec![]
                } else {
                    vec![n.to_string()]
                }
            }
            AttrKind::Keywords(p) => {
                let mut kws: Vec<String> = graph
                    .objects(node, *p)
                    .filter_map(|o| graph.dict.term(o).as_literal().map(|l| l.lexical.clone()))
                    .flat_map(|t| text::keywords(&t, kw_min_len))
                    .collect();
                kws.sort_unstable();
                kws.dedup();
                kws
            }
            AttrKind::Language(p) => {
                let mut langs: Vec<String> = graph
                    .objects(node, *p)
                    .filter_map(|o| graph.dict.term(o).as_literal())
                    .filter_map(|l| text::detect_language(&l.lexical))
                    .map(str::to_owned)
                    .collect();
                langs.sort_unstable();
                langs.dedup();
                langs
            }
            AttrKind::Path(p, q) => {
                let mut vals: Vec<String> = graph
                    .objects(node, *p)
                    .flat_map(|mid| graph.objects(mid, *q))
                    .map(|o| graph.dict.display(o))
                    .collect();
                vals.sort_unstable();
                vals.dedup();
                vals
            }
        }
    }

    /// The attribute's numeric values for `node` (measure use); empty when
    /// the attribute has no numeric interpretation for this fact.
    pub(crate) fn numeric_values(&self, graph: &Graph, node: TermId) -> Vec<f64> {
        match &self.kind {
            AttrKind::Direct(p) => graph
                .objects(node, *p)
                .filter_map(|o| graph.dict.term(o).numeric_value())
                .collect(),
            AttrKind::Count(p) => {
                let n = graph.objects(node, *p).count();
                if n == 0 {
                    vec![]
                } else {
                    vec![n as f64]
                }
            }
            AttrKind::Keywords(_) | AttrKind::Language(_) => vec![],
            AttrKind::Path(p, q) => graph
                .objects(node, *p)
                .flat_map(|mid| graph.objects(mid, *q))
                .filter_map(|o| graph.dict.term(o).numeric_value())
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spade_rdf::Term;

    fn iri(s: &str) -> Term {
        Term::iri(format!("http://x/{s}"))
    }

    fn sample_graph() -> Graph {
        let mut g = Graph::new();
        g.insert(iri("ceo"), iri("nationality"), Term::lit("Angola"));
        g.insert(iri("ceo"), iri("nationality"), Term::lit("Brazil"));
        g.insert(iri("ceo"), iri("age"), Term::int(47));
        g.insert(iri("ceo"), iri("company"), iri("c1"));
        g.insert(iri("ceo"), iri("company"), iri("c2"));
        g.insert(iri("c1"), iri("area"), Term::lit("Natural gas"));
        g.insert(
            iri("c1"),
            iri("desc"),
            Term::lit("Sonangol oversees the production of petroleum in Angola"),
        );
        g.insert(iri("c2"), iri("area"), Term::lit("Diamond"));
        g
    }

    fn id(g: &Graph, s: &str) -> TermId {
        g.dict.id_of(&iri(s)).unwrap()
    }

    #[test]
    fn direct_attribute_values() {
        let g = sample_graph();
        let a = AttributeDef::new(AttrKind::Direct(id(&g, "nationality")), &g);
        let ceo = id(&g, "ceo");
        assert_eq!(a.name, "nationality");
        assert_eq!(a.string_values(&g, ceo, 4), vec!["Angola", "Brazil"]);
        assert!(a.numeric_values(&g, ceo).is_empty());
        let age = AttributeDef::new(AttrKind::Direct(id(&g, "age")), &g);
        assert_eq!(age.numeric_values(&g, ceo), vec![47.0]);
    }

    #[test]
    fn count_derivation() {
        let g = sample_graph();
        let a = AttributeDef::new(AttrKind::Count(id(&g, "company")), &g);
        let ceo = id(&g, "ceo");
        assert_eq!(a.name, "numOf(company)");
        assert_eq!(a.numeric_values(&g, ceo), vec![2.0]);
        assert_eq!(a.string_values(&g, ceo, 4), vec!["2"]);
        assert_eq!(a.derived_from(), Some(id(&g, "company")));
        // A node without the property has no count (not zero).
        assert!(a.numeric_values(&g, id(&g, "c1")).is_empty());
    }

    #[test]
    fn path_derivation_company_area() {
        let g = sample_graph();
        let a = AttributeDef::new(AttrKind::Path(id(&g, "company"), id(&g, "area")), &g);
        let ceo = id(&g, "ceo");
        assert_eq!(a.name, "company/area");
        assert_eq!(a.string_values(&g, ceo, 4), vec!["Diamond", "Natural gas"]);
    }

    #[test]
    fn keyword_and_language_derivations() {
        let g = sample_graph();
        let kw = AttributeDef::new(AttrKind::Keywords(id(&g, "desc")), &g);
        let c1 = id(&g, "c1");
        let kws = kw.string_values(&g, c1, 4);
        assert!(kws.contains(&"petroleum".to_owned()));
        assert!(kw.numeric_values(&g, c1).is_empty());
        let lang = AttributeDef::new(AttrKind::Language(id(&g, "desc")), &g);
        assert_eq!(lang.string_values(&g, c1, 4), vec!["English"]);
    }
}
