//! Candidate Fact Set Selection (Section 3, Step 1).
//!
//! "Spade identifies CFSs in three ways: (i) type-based: for each type T in
//! the graph, the set of RDF nodes of type T; (ii) property-based: for a
//! (user-specified) set of properties, all the RDF nodes having those
//! outgoing properties; (iii) summary-based: each set of RDF nodes
//! identified as equivalent by the RDFQuotient summary."
//!
//! Strategies (i) and (iii) are built. Property-based selection (ii) needs
//! user-named properties, and no caller here names any, so it is not.

use crate::config::SpadeConfig;
use spade_cube::ExecCtx;
use spade_parallel::Cancelled;
use spade_rdf::{Graph, TermId};
use spade_summary::weak_summary;
use std::collections::HashSet;

/// Which selection strategies to run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CfsStrategy {
    /// One CFS per `rdf:type` class.
    TypeBased,
    /// One CFS per weak-summary equivalence class.
    SummaryBased,
}

/// A candidate fact set: a named set of RDF nodes to aggregate over.
#[derive(Clone, Debug, PartialEq)]
pub struct CandidateFactSet {
    /// Human-readable origin, e.g. `type:CEO` or `summary:3`.
    pub name: String,
    /// The member nodes, sorted (fact ids follow this order).
    pub members: Vec<TermId>,
}

impl CandidateFactSet {
    /// `|CFS|`.
    pub(crate) fn len(&self) -> usize {
        self.members.len()
    }
}

/// Runs the given strategies and returns deduplicated CFSs, largest first,
/// filtered by `min_cfs_size` and capped at `max_cfs` (plain form of
/// [`select_in`] on `config.threads` workers).
pub fn select(
    graph: &Graph,
    strategies: &[CfsStrategy],
    config: &SpadeConfig,
) -> Vec<CandidateFactSet> {
    ExecCtx::unbounded(config.threads, |cx| select_in(graph, strategies, config, cx))
}

/// Runs the given strategies and returns deduplicated CFSs, largest first,
/// filtered by `min_cfs_size` and capped at `max_cfs`.
///
/// Member materialization and normalization (the per-candidate index scans
/// and sort+dedup) fan out over `cx.threads` per strategy, merged in
/// candidate order; the dedup-and-rank tail stays serial, so the selection
/// is bit-identical at every thread count.
///
/// The budget is polled per strategy and per candidate, so an expired
/// request unwinds with [`Cancelled`] within one candidate's
/// materialization. Records one child span per strategy (strategies run
/// serially, so auto ordering is deterministic) with the candidate count
/// as an attr.
pub fn select_in(
    graph: &Graph,
    strategies: &[CfsStrategy],
    config: &SpadeConfig,
    cx: &ExecCtx<'_>,
) -> Result<Vec<CandidateFactSet>, Cancelled> {
    spade_parallel::fault::fire_with_budget("cfs", Some(cx.budget));
    let mut out: Vec<CandidateFactSet> = Vec::new();
    let mut seen_member_sets: HashSet<Vec<TermId>> = HashSet::new();

    for strategy in strategies {
        cx.check()?;
        let (span, _) = cx.span(match strategy {
            CfsStrategy::TypeBased => "type_based",
            CfsStrategy::SummaryBased => "summary_based",
        });
        let candidates: Vec<(String, Vec<TermId>)> = match strategy {
            CfsStrategy::TypeBased => {
                let classes: Vec<TermId> = graph.classes().collect();
                spade_parallel::try_map(classes, cx.threads, |class| {
                    cx.check()?;
                    Ok((
                        format!("type:{}", graph.dict.display(class)),
                        normalized(graph.nodes_of_type(class)),
                    ))
                })?
            }
            CfsStrategy::SummaryBased => {
                let summary = weak_summary(graph);
                spade_parallel::try_map(summary.classes, cx.threads, |class| {
                    cx.check()?;
                    Ok((format!("summary:{}", class.id), normalized(class.members)))
                })?
            }
        };
        span.attr("candidates", candidates.len() as u64);
        for (name, members) in candidates {
            push_unique(&mut out, &mut seen_member_sets, name, members);
        }
    }

    // The allow filter runs before the `max_cfs` cap, so asking for a small
    // class by name works even when fifty larger CFSs would out-rank it.
    out.retain(|c| {
        c.len() >= config.min_cfs_size
            && crate::config::filter_matches(&config.cfs_filter, &c.name)
    });
    out.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.name.cmp(&b.name)));
    out.truncate(config.max_cfs);
    Ok(out)
}

/// Sorted, deduplicated member list (the per-candidate normalization work
/// the parallel pass performs).
fn normalized(mut members: Vec<TermId>) -> Vec<TermId> {
    members.sort_unstable();
    members.dedup();
    members
}

fn push_unique(
    out: &mut Vec<CandidateFactSet>,
    seen: &mut HashSet<Vec<TermId>>,
    name: String,
    members: Vec<TermId>,
) {
    if members.is_empty() || !seen.insert(members.clone()) {
        return;
    }
    out.push(CandidateFactSet { name, members });
}

#[cfg(test)]
mod tests {
    use super::*;
    use spade_datagen::ceos_figure1;

    fn small_config() -> SpadeConfig {
        SpadeConfig { min_cfs_size: 2, ..Default::default() }
    }

    #[test]
    fn type_based_finds_classes() {
        let g = ceos_figure1();
        let cfs = select(&g, &[CfsStrategy::TypeBased], &small_config());
        let names: Vec<&str> = cfs.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"type:CEO"));
        assert!(names.contains(&"type:Company"));
        assert!(names.contains(&"type:Politician"));
        let ceo = cfs.iter().find(|c| c.name == "type:CEO").unwrap();
        assert_eq!(ceo.len(), 2);
    }

    #[test]
    fn summary_based_groups_structurally() {
        let g = ceos_figure1();
        let cfs = select(&g, &[CfsStrategy::SummaryBased], &small_config());
        assert!(!cfs.is_empty());
        for c in &cfs {
            assert!(c.name.starts_with("summary:"));
            assert!(c.len() >= 2);
        }
    }

    #[test]
    fn duplicates_across_strategies_removed() {
        let g = ceos_figure1();
        let both =
            select(&g, &[CfsStrategy::TypeBased, CfsStrategy::SummaryBased], &small_config());
        // No two CFSs may have identical member sets.
        let mut sets: Vec<&[TermId]> = both.iter().map(|c| c.members.as_slice()).collect();
        sets.sort();
        let before = sets.len();
        sets.dedup();
        assert_eq!(sets.len(), before);
    }

    #[test]
    fn min_size_and_cap_apply() {
        let g = ceos_figure1();
        let cfg = SpadeConfig { min_cfs_size: 3, max_cfs: 1, ..Default::default() };
        let cfs = select(&g, &[CfsStrategy::TypeBased], &cfg);
        assert!(cfs.len() <= 1);
        for c in &cfs {
            assert!(c.len() >= 3);
        }
    }

    #[test]
    fn sorted_largest_first() {
        let g = ceos_figure1();
        let cfs = select(&g, &[CfsStrategy::TypeBased], &small_config());
        for w in cfs.windows(2) {
            assert!(w[0].len() >= w[1].len());
        }
    }
}
