//! Offline Attribute Analysis and Derived Property Enumeration (Section 3,
//! offline phase).
//!
//! "we perform Offline Attribute Analysis with three main purposes: (i) to
//! gather a set of statistics for each property in the graph, (ii) to
//! determine if derivations should be generated for a given property, and
//! (iii) to decide if pre-aggregated values of some properties should be
//! computed and stored in the database."

use crate::attr::{AttrKind, AttributeDef};
use crate::config::SpadeConfig;
use crate::text;
use spade_cube::ExecCtx;
use spade_parallel::Cancelled;
use spade_rdf::{vocab, Graph, Term, TermId, ValueKind};
use std::collections::{HashMap, HashSet};

/// Statistics of one property over the whole graph.
#[derive(Clone, Debug)]
pub(crate) struct PropertyStats {
    /// The property.
    pub property: TermId,
    /// Number of `(s, o)` pairs.
    pub triples: usize,
    /// Distinct subjects carrying the property.
    pub subjects: usize,
    /// Distinct object values.
    pub distinct_values: usize,
    /// Subjects with more than one value (multi-valued property carrier).
    pub multi_valued_subjects: usize,
    /// Values with a numeric interpretation.
    pub numeric_values: usize,
    /// Object values that are resources with outgoing edges (link ends).
    pub link_values: usize,
    /// Values that look like free text (≥ 3 words).
    pub text_values: usize,
    /// Min/max over numeric values, if any.
    pub numeric_bounds: Option<(f64, f64)>,
}

impl PropertyStats {
    /// `true` when some subject carries several values.
    pub(crate) fn is_multi_valued(&self) -> bool {
        self.multi_valued_subjects > 0
    }

    /// `true` when the property mostly links to other described nodes —
    /// a path-derivation source.
    pub(crate) fn is_link(&self) -> bool {
        self.link_values * 2 > self.triples
    }

    /// `true` when the property mostly carries free text — a keyword /
    /// language derivation source.
    pub(crate) fn is_text(&self) -> bool {
        self.text_values * 2 > self.triples
    }
}

/// The offline statistics of all data properties.
#[derive(Clone, Debug, Default)]
pub struct OfflineStats {
    /// Per-property statistics, most frequent first.
    pub(crate) properties: Vec<PropertyStats>,
}

impl OfflineStats {
    /// Number of (data) properties — Table 2's `#P`.
    pub fn property_count(&self) -> usize {
        self.properties.len()
    }
}

/// Properties that are RDF(S) machinery rather than data.
fn is_schema_property(graph: &Graph, p: TermId) -> bool {
    match graph.dict.term(p) {
        Term::Iri(iri) => {
            iri == vocab::RDF_TYPE
                || iri == vocab::RDFS_SUBCLASSOF
                || iri == vocab::RDFS_SUBPROPERTYOF
                || iri == vocab::RDFS_DOMAIN
                || iri == vocab::RDFS_RANGE
        }
        _ => false,
    }
}

/// Gathers per-property statistics over the whole graph (serial plain form
/// of [`analyze_in`]).
pub fn analyze(graph: &Graph) -> OfflineStats {
    ExecCtx::unbounded(1, |cx| analyze_in(graph, cx))
}

/// Gathers per-property statistics over the whole graph on `cx.threads`
/// workers: each property's full-graph scan is an independent work item,
/// merged in input order, so the statistics are bit-identical to the
/// serial pass at any thread count. Cancellation is polled once per
/// property.
pub fn analyze_in(graph: &Graph, cx: &ExecCtx<'_>) -> Result<OfflineStats, Cancelled> {
    cx.check()?;
    let mut stats = OfflineStats::default();
    let props: Vec<TermId> =
        graph.properties().filter(|&p| !is_schema_property(graph, p)).collect();
    stats.properties = spade_parallel::try_map(props, cx.threads, |p| {
        cx.check()?;
        let pairs = graph.property_pairs(p);
        let mut subjects: HashMap<TermId, usize> = HashMap::new();
        let mut values: HashSet<TermId> = HashSet::new();
        let mut numeric = 0usize;
        let mut link = 0usize;
        let mut textv = 0usize;
        let mut bounds: Option<(f64, f64)> = None;
        for &(s, o) in pairs {
            *subjects.entry(s).or_default() += 1;
            values.insert(o);
            let term = graph.dict.term(o);
            if let Some(v) = term.numeric_value() {
                numeric += 1;
                bounds = Some(match bounds {
                    None => (v, v),
                    Some((lo, hi)) => (lo.min(v), hi.max(v)),
                });
            }
            if term.is_resource() && !graph.outgoing(o).is_empty() {
                link += 1;
            }
            if let Some(l) = term.as_literal() {
                if term.value_kind() == ValueKind::String && text::is_texty(&l.lexical) {
                    textv += 1;
                }
            }
        }
        let multi = subjects.values().filter(|&&c| c > 1).count();
        Ok(PropertyStats {
            property: p,
            triples: pairs.len(),
            subjects: subjects.len(),
            distinct_values: values.len(),
            multi_valued_subjects: multi,
            numeric_values: numeric,
            link_values: link,
            text_values: textv,
            numeric_bounds: bounds,
        })
    })?;
    stats
        .properties
        .sort_by(|a, b| b.triples.cmp(&a.triples).then(a.property.cmp(&b.property)));
    Ok(stats)
}

/// Flattens the offline statistics into the snapshot store's fixed-width
/// records (same order as `OfflineStats::properties`).
pub fn to_records(stats: &OfflineStats) -> Vec<spade_store::PropertyStatsRecord> {
    stats
        .properties
        .iter()
        .map(|ps| spade_store::PropertyStatsRecord {
            property: ps.property,
            triples: ps.triples as u64,
            subjects: ps.subjects as u64,
            distinct_values: ps.distinct_values as u64,
            multi_valued_subjects: ps.multi_valued_subjects as u64,
            numeric_values: ps.numeric_values as u64,
            link_values: ps.link_values as u64,
            text_values: ps.text_values as u64,
            numeric_bounds: ps.numeric_bounds,
        })
        .collect()
}

/// Reconstitutes [`OfflineStats`] from snapshot records. The inverse of
/// [`to_records`]: a round trip reproduces the stats of a fresh [`analyze`]
/// bit for bit.
pub(crate) fn from_records(records: &[spade_store::PropertyStatsRecord]) -> OfflineStats {
    let properties = records
        .iter()
        .map(|r| PropertyStats {
            property: r.property,
            triples: r.triples as usize,
            subjects: r.subjects as usize,
            distinct_values: r.distinct_values as usize,
            multi_valued_subjects: r.multi_valued_subjects as usize,
            numeric_values: r.numeric_values as usize,
            link_values: r.link_values as usize,
            text_values: r.text_values as usize,
            numeric_bounds: r.numeric_bounds,
        })
        .collect();
    OfflineStats { properties }
}

/// How many derivations of each kind were enumerated (Table 2's `#DP`
/// columns).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DerivationCounts {
    /// Keyword derivations.
    pub kw: usize,
    /// Language derivations.
    pub lang: usize,
    /// Count derivations.
    pub count: usize,
    /// Path derivations (length 1).
    pub path: usize,
}

impl DerivationCounts {
    /// Total derived properties.
    pub fn total(&self) -> usize {
        self.kw + self.lang + self.count + self.path
    }
}

/// Enumerates the graph-wide derived properties guided by the offline
/// statistics (serial plain form of [`enumerate_derivations_in`]).
pub fn enumerate_derivations(
    graph: &Graph,
    stats: &OfflineStats,
    config: &SpadeConfig,
) -> (Vec<AttributeDef>, DerivationCounts) {
    ExecCtx::unbounded(1, |cx| enumerate_derivations_in(graph, stats, config, cx))
}

/// Enumerates the graph-wide derived properties guided by the offline
/// statistics (Derived Property Enumeration), with the expensive part —
/// the per-link-property scan over target nodes — fanned out over
/// `cx.threads` workers. The capped path assembly stays serial in
/// statistics order, so the enumerated derivations are bit-identical to
/// the serial pass at any thread count (a cancelled budget may skip
/// scans the serial version would also have skipped via the cap, and may
/// perform scans the serial version skips; neither affects a completed
/// run's output).
pub fn enumerate_derivations_in(
    graph: &Graph,
    stats: &OfflineStats,
    config: &SpadeConfig,
    cx: &ExecCtx<'_>,
) -> Result<(Vec<AttributeDef>, DerivationCounts), Cancelled> {
    cx.check()?;
    let mut out = Vec::new();
    let mut counts = DerivationCounts::default();
    if !config.enable_derivations {
        return Ok((out, counts));
    }
    for ps in &stats.properties {
        // (i) property counts for multi-valued properties.
        if ps.is_multi_valued() {
            out.push(AttributeDef::new(AttrKind::Count(ps.property), graph));
            counts.count += 1;
        }
        // (ii)/(iii) keywords and language of text properties.
        if ps.is_text() {
            out.push(AttributeDef::new(AttrKind::Keywords(ps.property), graph));
            counts.kw += 1;
            out.push(AttributeDef::new(AttrKind::Language(ps.property), graph));
            counts.lang += 1;
        }
    }
    cx.check()?;
    // (iv) paths p/q: p links to nodes carrying q. Each link property's
    // target-property histogram is an independent full scan — fan out, then
    // assemble serially in statistics order so the global cap picks the
    // same derivations as the serial loop.
    let links: Vec<TermId> =
        stats.properties.iter().filter(|ps| ps.is_link()).map(|ps| ps.property).collect();
    let histograms: Vec<Vec<(TermId, usize)>> =
        spade_parallel::try_map(links.clone(), cx.threads, |p| {
            cx.check()?;
            let mut target_props: HashMap<TermId, usize> = HashMap::new();
            for &(_, o) in graph.property_pairs(p) {
                for &(q, _) in graph.outgoing(o) {
                    if !is_schema_property(graph, q) {
                        *target_props.entry(q).or_default() += 1;
                    }
                }
            }
            let mut qs: Vec<(TermId, usize)> = target_props.into_iter().collect();
            qs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            Ok(qs)
        })?;
    'outer: for (p, qs) in links.into_iter().zip(histograms) {
        for (q, _) in qs {
            if counts.path >= config.max_path_derivations {
                break 'outer;
            }
            out.push(AttributeDef::new(AttrKind::Path(p, q), graph));
            counts.path += 1;
        }
    }
    Ok((out, counts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spade_datagen::ceos_figure1;

    fn stats_for_figure1() -> (Graph, OfflineStats) {
        let g = ceos_figure1();
        let s = analyze(&g);
        (g, s)
    }

    fn get(s: &OfflineStats, p: TermId) -> &PropertyStats {
        s.properties.iter().find(|ps| ps.property == p).unwrap()
    }

    #[test]
    fn schema_properties_excluded() {
        let (g, s) = stats_for_figure1();
        assert!(s.properties.iter().all(|p| g.dict.display(p.property) != "type"));
        assert!(s.property_count() > 5);
    }

    #[test]
    fn nationality_is_multi_valued() {
        let (g, s) = stats_for_figure1();
        let nat = g.dict.id_of(&Term::iri("http://ceos.example.org/nationality")).unwrap();
        let ps = get(&s, nat);
        assert_eq!(ps.triples, 5); // Angola + Ghosn's four
        assert_eq!(ps.subjects, 2);
        assert_eq!(ps.multi_valued_subjects, 1);
        assert!(ps.is_multi_valued());
        assert!(!ps.is_link());
    }

    #[test]
    fn company_is_a_link_property() {
        let (g, s) = stats_for_figure1();
        let company = g.dict.id_of(&Term::iri("http://ceos.example.org/company")).unwrap();
        assert!(get(&s, company).is_link());
    }

    #[test]
    fn net_worth_is_numeric_with_bounds() {
        let (g, s) = stats_for_figure1();
        let nw = g.dict.id_of(&Term::iri("http://ceos.example.org/netWorth")).unwrap();
        let ps = get(&s, nw);
        assert_eq!(ps.numeric_bounds, Some((1.2e8, 2.8e9)));
    }

    #[test]
    fn derivations_cover_all_four_kinds() {
        let (g, s) = stats_for_figure1();
        let (defs, counts) = enumerate_derivations(&g, &s, &SpadeConfig::default());
        assert!(counts.count >= 2, "nationality, company, area are multi-valued");
        assert!(counts.kw >= 1 && counts.lang >= 1, "description is texty");
        assert!(counts.path >= 3, "company/area, company/name, politicalConnection/role…");
        assert_eq!(defs.len(), counts.total());
        // The famous Example 3 derivation exists.
        assert!(defs.iter().any(|d| d.name == "company/area"));
        assert!(defs.iter().any(|d| d.name == "politicalConnection/role"));
    }

    #[test]
    fn derivations_disabled_by_config() {
        let (g, s) = stats_for_figure1();
        let cfg = SpadeConfig::default().without_derivations();
        let (defs, counts) = enumerate_derivations(&g, &s, &cfg);
        assert!(defs.is_empty());
        assert_eq!(counts.total(), 0);
    }

    #[test]
    fn stats_records_roundtrip_exactly() {
        let (_, s) = stats_for_figure1();
        let records = to_records(&s);
        assert_eq!(records.len(), s.property_count());
        let back = from_records(&records);
        assert_eq!(back.property_count(), s.property_count());
        for (a, b) in s.properties.iter().zip(&back.properties) {
            assert_eq!(a.property, b.property);
            assert_eq!(a.triples, b.triples);
            assert_eq!(a.subjects, b.subjects);
            assert_eq!(a.distinct_values, b.distinct_values);
            assert_eq!(a.multi_valued_subjects, b.multi_valued_subjects);
            assert_eq!(a.numeric_values, b.numeric_values);
            assert_eq!(a.link_values, b.link_values);
            assert_eq!(a.text_values, b.text_values);
            assert_eq!(a.numeric_bounds, b.numeric_bounds);
        }
    }

    #[test]
    fn path_budget_respected() {
        let (g, s) = stats_for_figure1();
        let cfg = SpadeConfig { max_path_derivations: 2, ..Default::default() };
        let (_, counts) = enumerate_derivations(&g, &s, &cfg);
        assert_eq!(counts.path, 2);
    }
}
