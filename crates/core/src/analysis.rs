//! Online Attribute Analysis (Section 3, Step 2).
//!
//! "for each CFS, we first enumerate all direct and derived properties.
//! Then, we enrich the offline-analysis results by adding CFS-dependent
//! statistics, e.g., the support of an attribute among all the facts in the
//! CFS, the number of CFs that have such an attribute more than once, and
//! the number of distinct values. Spade exploits the gathered statistics …
//! to guide the choice of dimensions, measures, and aggregate functions."
//!
//! Each attribute is materialized into the storage layer right here: a
//! [`CategoricalColumn`] for dimension use and a [`PreAggregated`] numeric
//! column for measure use, both ordered by the CFS's dense fact ids.

use crate::attr::{AttrKind, AttributeDef};
use crate::cfs::CandidateFactSet;
use crate::config::SpadeConfig;
use spade_rdf::{Graph, TermId};
use spade_storage::{
    CategoricalColumn, CategoricalColumnBuilder, FactTable, NumericColumnBuilder, PreAggregated,
};
use std::collections::HashSet;

/// One attribute of a CFS after online analysis.
#[derive(Clone, Debug)]
pub struct AnalyzedAttribute {
    /// The attribute's definition.
    pub def: AttributeDef,
    /// String-valued column (dimension use); `None` when unsupported.
    pub categorical: Option<CategoricalColumn>,
    /// Pre-aggregated numeric column (measure use); `None` when the
    /// attribute has no numeric interpretation on this CFS.
    pub numeric: Option<PreAggregated>,
    /// Facts having ≥ 1 value.
    pub support: usize,
    /// Facts having > 1 value.
    pub multi_valued_facts: usize,
    /// Distinct string values.
    pub distinct_values: usize,
    /// Eligible as a dimension (frequency + distinct-count rules + stop
    /// list).
    pub dimension_ok: bool,
    /// Eligible as a measure (frequency rule over numeric values).
    pub measure_ok: bool,
}

/// The analyzed CFS, ready for aggregate enumeration.
#[derive(Clone, Debug)]
pub struct CfsAnalysis {
    /// Origin name (`type:CEO`, …).
    pub name: String,
    /// The fact table (node ↔ dense id).
    pub facts: FactTable,
    /// All analyzed attributes with support > 0.
    pub attributes: Vec<AnalyzedAttribute>,
}

impl CfsAnalysis {
    /// `|CFS|`.
    pub fn n_facts(&self) -> usize {
        self.facts.len()
    }

    /// Indexes of dimension-eligible attributes.
    pub(crate) fn dimension_attrs(&self) -> Vec<usize> {
        (0..self.attributes.len()).filter(|&i| self.attributes[i].dimension_ok).collect()
    }

    /// Indexes of measure-eligible attributes.
    pub(crate) fn measure_attrs(&self) -> Vec<usize> {
        (0..self.attributes.len()).filter(|&i| self.attributes[i].measure_ok).collect()
    }
}

/// Enumerates the direct properties of the CFS's facts.
fn direct_properties(graph: &Graph, cfs: &CandidateFactSet) -> Vec<TermId> {
    let rdf_type = graph.rdf_type_id();
    let mut props: HashSet<TermId> = HashSet::new();
    for &node in &cfs.members {
        for &(p, _) in graph.outgoing(node) {
            if p != rdf_type {
                props.insert(p);
            }
        }
    }
    let mut out: Vec<TermId> = props.into_iter().collect();
    out.sort_unstable();
    out
}

/// Analyzes one CFS: materializes columns and applies the dimension /
/// measure eligibility rules.
pub fn analyze_cfs(
    graph: &Graph,
    cfs: &CandidateFactSet,
    derived: &[AttributeDef],
    config: &SpadeConfig,
) -> CfsAnalysis {
    let facts = FactTable::new(cfs.members.iter().copied());
    let n = facts.len();

    // Direct properties of this CFS plus all graph-wide derivations (the
    // latter filtered below by support).
    let mut defs: Vec<AttributeDef> = direct_properties(graph, cfs)
        .into_iter()
        .map(|p| AttributeDef::new(AttrKind::Direct(p), graph))
        .collect();
    defs.extend(derived.iter().cloned());

    let min_support_count = ((config.min_support * n as f64).ceil() as usize).max(1);
    let mut attributes = Vec::new();
    for def in defs {
        let mut cat = CategoricalColumnBuilder::new(def.name.clone());
        let mut num = NumericColumnBuilder::new(def.name.clone());
        let mut support = 0usize;
        let mut multi = 0usize;
        let mut numeric_support = 0usize;
        for (fact, node) in facts.iter() {
            let svals = def.string_values(graph, node, config.keyword_min_len);
            if !svals.is_empty() {
                support += 1;
                if svals.len() > 1 {
                    multi += 1;
                }
                for v in &svals {
                    cat.add(fact, v.clone());
                }
            }
            let nvals = def.numeric_values(graph, node);
            if !nvals.is_empty() {
                numeric_support += 1;
                for &v in &nvals {
                    num.add(fact, v);
                }
            }
        }
        if support == 0 {
            continue; // the attribute does not occur on this CFS
        }
        let categorical = cat.build(n);
        let distinct = categorical.distinct_values();
        let stop_listed = config.dimension_stop_list.iter().any(|s| s == &def.name);
        let dimension_ok = !stop_listed
            && support >= min_support_count
            && distinct <= config.max_distinct_values
            && (distinct as f64) <= config.max_distinct_ratio * n as f64;
        let measure_ok = numeric_support >= min_support_count;
        let numeric = (numeric_support > 0).then(|| num.build(n).preaggregate());
        attributes.push(AnalyzedAttribute {
            def,
            categorical: Some(categorical),
            numeric,
            support,
            multi_valued_facts: multi,
            distinct_values: distinct,
            dimension_ok,
            measure_ok,
        });
    }
    CfsAnalysis { name: cfs.name.clone(), facts, attributes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfs::{select, CfsStrategy};
    use crate::offline;
    use spade_datagen::ceos_figure1;
    use spade_rdf::Term;

    fn analyzed_ceos() -> CfsAnalysis {
        let g = ceos_figure1();
        let config = SpadeConfig {
            min_cfs_size: 2,
            min_support: 0.5,
            max_distinct_ratio: 5.0, // tiny CFS: allow distinct ≈ |CFS|
            ..Default::default()
        };
        let stats = offline::analyze(&g);
        let (derived, _) = offline::enumerate_derivations(&g, &stats, &config);
        let cfs_list = select(&g, &[CfsStrategy::TypeBased], &config);
        let ceo_cfs = cfs_list.iter().find(|c| c.name == "type:CEO").unwrap();
        analyze_cfs(&g, ceo_cfs, &derived, &config)
    }

    fn attr<'a>(a: &'a CfsAnalysis, name: &str) -> &'a AnalyzedAttribute {
        a.attributes
            .iter()
            .find(|x| x.def.name == name)
            .unwrap_or_else(|| panic!("attribute {name} missing"))
    }

    #[test]
    fn supports_and_multi_valued_counts() {
        let a = analyzed_ceos();
        assert_eq!(a.n_facts(), 2);
        let nat = attr(&a, "nationality");
        assert_eq!(nat.support, 2);
        assert_eq!(nat.multi_valued_facts, 1); // Ghosn
        assert_eq!(nat.distinct_values, 5);
        let gender = attr(&a, "gender");
        assert_eq!(gender.support, 1); // Dos Santos only
    }

    #[test]
    fn numeric_attributes_become_measures() {
        let a = analyzed_ceos();
        let nw = attr(&a, "netWorth");
        assert!(nw.measure_ok);
        let pre = nw.numeric.as_ref().unwrap();
        assert_eq!(pre.global_bounds(), Some((1.2e8, 2.8e9)));
        // Text attributes never become measures.
        let name = attr(&a, "name");
        assert!(!name.measure_ok);
        assert!(name.numeric.is_none());
    }

    #[test]
    fn derived_attributes_materialize() {
        let a = analyzed_ceos();
        let area = attr(&a, "company/area");
        assert_eq!(area.support, 2);
        assert!(area.multi_valued_facts >= 1);
        let col = area.categorical.as_ref().unwrap();
        assert_eq!(col.distinct_values(), 4); // Automotive, Diamond, Manufacturer, Natural gas
        let count = attr(&a, "numOf(company)");
        assert!(count.numeric.is_some());
    }

    #[test]
    fn distinct_value_rule_blocks_id_like_dimensions() {
        let g = ceos_figure1();
        let config = SpadeConfig {
            min_cfs_size: 2,
            max_distinct_ratio: 0.5, // strict: ≤ 1 distinct value for |CFS|=2
            ..Default::default()
        };
        let stats = offline::analyze(&g);
        let (derived, _) = offline::enumerate_derivations(&g, &stats, &config);
        let cfs_list = select(&g, &[CfsStrategy::TypeBased], &config);
        let ceo_cfs = cfs_list.iter().find(|c| c.name == "type:CEO").unwrap();
        let a = analyze_cfs(&g, ceo_cfs, &derived, &config);
        // `name` has 2 distinct values over 2 facts → ratio 1.0 > 0.5.
        assert!(!attr(&a, "name").dimension_ok);
    }

    #[test]
    fn stop_list_blocks_dimensions() {
        let g = ceos_figure1();
        let config = SpadeConfig {
            min_cfs_size: 2,
            max_distinct_ratio: 5.0,
            dimension_stop_list: vec!["nationality".into()],
            ..Default::default()
        };
        let stats = offline::analyze(&g);
        let (derived, _) = offline::enumerate_derivations(&g, &stats, &config);
        let cfs_list = select(&g, &[CfsStrategy::TypeBased], &config);
        let ceo_cfs = cfs_list.iter().find(|c| c.name == "type:CEO").unwrap();
        let a = analyze_cfs(&g, ceo_cfs, &derived, &config);
        assert!(!attr(&a, "nationality").dimension_ok);
        assert!(attr(&a, "company/area").dimension_ok);
    }

    /// A property name and the value, if any, that fact `i` carries.
    type Column<'a> = (&'a str, &'a dyn Fn(usize) -> Option<Term>);

    /// Analyzes a CFS of ten facts of one type carrying `columns`.
    fn ten_facts(columns: &[Column<'_>], config: &SpadeConfig) -> CfsAnalysis {
        let mut g = Graph::new();
        for i in 0..10 {
            let node = Term::iri(format!("http://x/n{i}"));
            g.insert(
                node.clone(),
                Term::iri(spade_rdf::vocab::RDF_TYPE),
                Term::iri("http://x/T"),
            );
            for (property, values) in columns {
                if let Some(v) = values(i) {
                    g.insert(node.clone(), Term::iri(format!("http://x/{property}")), v);
                }
            }
        }
        let cfs_list = select(
            &g,
            &[CfsStrategy::TypeBased],
            &SpadeConfig { min_cfs_size: 1, ..Default::default() },
        );
        assert_eq!(cfs_list[0].members.len(), 10);
        analyze_cfs(&g, &cfs_list[0], &[], config)
    }

    /// The same label on the first `k` facts, none on the rest.
    fn on_first(k: usize) -> impl Fn(usize) -> Option<Term> {
        move |i| (i < k).then(|| Term::lit("x"))
    }

    /// Fact `i`'s value is `v{i % distinct}`: every fact carries one.
    fn cycling(distinct: usize) -> impl Fn(usize) -> Option<Term> {
        move |i| Some(Term::lit(format!("v{}", i % distinct)))
    }

    /// "Dimensions and measures must be frequent": a dimension needs
    /// `ceil(min_support · |CFS|)` supporting facts — 3 of 10 at 0.25.
    #[test]
    fn dimension_support_on_the_threshold_is_enough() {
        let config = SpadeConfig { min_support: 0.25, ..Default::default() };
        let a = ten_facts(&[("three", &on_first(3)), ("two", &on_first(2))], &config);
        assert!(attr(&a, "three").dimension_ok, "support 3 = ceil(0.25 · 10)");
        assert!(!attr(&a, "two").dimension_ok, "support 2 is one short");
    }

    /// The support threshold rounds up: at 0.21 of 10 facts it is 3, so a
    /// support of 2 (the rounded-down 2.1) is not frequent.
    #[test]
    fn support_threshold_rounds_up() {
        let config = SpadeConfig { min_support: 0.21, ..Default::default() };
        let a = ten_facts(&[("three", &on_first(3)), ("two", &on_first(2))], &config);
        assert!(attr(&a, "three").dimension_ok);
        assert!(!attr(&a, "two").dimension_ok, "ceil(2.1) = 3 facts, not 2");
    }

    /// The frequency rule holds for measures over their numeric support:
    /// 3 numeric facts of 10 at 0.25 make a measure, 2 do not.
    #[test]
    fn measure_support_on_the_threshold_is_enough() {
        let config = SpadeConfig { min_support: 0.25, ..Default::default() };
        let three = |i: usize| (i < 3).then(|| Term::int(i as i64));
        let two = |i: usize| (i < 2).then(|| Term::int(i as i64));
        let a = ten_facts(&[("three", &three), ("two", &two)], &config);
        assert!(attr(&a, "three").measure_ok, "numeric support 3 = ceil(0.25 · 10)");
        assert!(!attr(&a, "two").measure_ok, "numeric support 2 is one short");
    }

    /// The absolute distinct-value cap admits a dimension with exactly
    /// `max_distinct_values` values, and not one more.
    #[test]
    fn dimension_with_max_distinct_values_qualifies() {
        let config = SpadeConfig {
            max_distinct_values: 3,
            max_distinct_ratio: 1.0,
            ..Default::default()
        };
        let a = ten_facts(&[("three", &cycling(3)), ("four", &cycling(4))], &config);
        assert!(attr(&a, "three").dimension_ok, "3 distinct values = the cap");
        assert!(!attr(&a, "four").dimension_ok, "4 distinct values exceed it");
    }

    /// "Dimensions should not have too many distinct values when compared
    /// to the number of facts": `max_distinct_ratio · |CFS|` values are
    /// allowed — 5 of 10 facts at 0.5 — and one more is not.
    #[test]
    fn dimension_on_the_distinct_ratio_cap_qualifies() {
        let config = SpadeConfig { max_distinct_ratio: 0.5, ..Default::default() };
        let a = ten_facts(&[("five", &cycling(5)), ("six", &cycling(6))], &config);
        assert!(attr(&a, "five").dimension_ok, "5 distinct values = 0.5 · 10");
        assert!(!attr(&a, "six").dimension_ok, "6 distinct values exceed the ratio cap");
    }

    #[test]
    fn absent_attributes_are_dropped() {
        let a = analyzed_ceos();
        // `instructions` (a Foodista property) is not on CEOs.
        assert!(a.attributes.iter().all(|x| x.def.name != "instructions"));
        // Politician's `role` is not an outgoing property of CEOs either,
        // but `politicalConnection/role` (path) is present.
        assert!(a.attributes.iter().any(|x| x.def.name == "politicalConnection/role"));
    }
}
