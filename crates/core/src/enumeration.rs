//! Aggregate Enumeration (Section 3, Step 3).
//!
//! Dimension/measure identification happened during online analysis; this
//! module (b) finds the dimension set of each lattice via maximal frequent
//! sets and (c) assigns each lattice its measure set:
//!
//! "Once a lattice acquires dimensions D_i, we assign it a measure set M_i
//! that comprises all the analyzed attributes of the CFS except those in
//! D_i, and those that are derived from a dimension in D_i, e.g.,
//! numOfNationalities cannot be a measure in an aggregate whose dimension
//! is nationality."

use crate::analysis::CfsAnalysis;
use crate::config::SpadeConfig;
use crate::mfs::{maximal_frequent_sets_in, Item};
use spade_bitmap::Bitmap;
use spade_cube::ExecCtx;
use spade_parallel::Cancelled;
use spade_storage::FactId;

/// One lattice to evaluate: dimension and measure attribute indexes into
/// the [`CfsAnalysis::attributes`] vector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatticeSpec {
    /// Dimension attribute indexes (the lattice root), sorted.
    pub dims: Vec<usize>,
    /// Measure attribute indexes.
    pub measures: Vec<usize>,
}

/// Whether two attributes may share a lattice: neither may be derived from
/// the other's base property ("does not contain attributes that are derived
/// one from the other").
fn compatible(
    a: &crate::analysis::AnalyzedAttribute,
    b: &crate::analysis::AnalyzedAttribute,
) -> bool {
    let a_from = a.def.derived_from();
    let b_from = b.def.derived_from();
    let a_base = a.def.base_property();
    let b_base = b.def.base_property();
    // derived(b) over direct a, derived(a) over direct b, or two derivations
    // of the same property.
    !(a_from.is_some() && a_from == b_base
        || b_from.is_some() && b_from == a_base
        || a_from.is_some() && a_from == b_from)
}

/// Enumerates the lattices of one analyzed CFS (plain form of
/// [`enumerate_in`] on `config.threads` workers).
pub fn enumerate(analysis: &CfsAnalysis, config: &SpadeConfig) -> Vec<LatticeSpec> {
    ExecCtx::unbounded(config.threads, |cx| enumerate_in(analysis, config, cx))
}

/// Enumerates the lattices of one analyzed CFS.
///
/// The per-attribute tidset construction (a full fact scan per dimension
/// candidate) and the per-root measure assignment are independent, so both
/// fan out over `cx.threads` with input-order merges — candidate
/// generation is bit-identical at every thread count.
///
/// The budget is polled per tidset scan and per lattice root, so an
/// expired request unwinds with [`Cancelled`] within one attribute's fact
/// scan. Records one `mfs` span over the maximal-frequent-set mining with
/// dimension-item and lattice-root counts as attrs.
pub fn enumerate_in(
    analysis: &CfsAnalysis,
    config: &SpadeConfig,
    cx: &ExecCtx<'_>,
) -> Result<Vec<LatticeSpec>, Cancelled> {
    let dim_attrs = analysis.dimension_attrs();
    if dim_attrs.is_empty() {
        return Ok(Vec::new());
    }
    // Tidsets over facts for the frequent-set mining.
    let items: Vec<Item> = spade_parallel::try_map(dim_attrs, cx.threads, |ai| {
        cx.check()?;
        let col = analysis.attributes[ai].categorical.as_ref().expect("dims have columns");
        let tidset = Bitmap::from_sorted_iter(
            (0..analysis.n_facts() as u32).filter(|&f| !col.codes_of(FactId(f)).is_empty()),
        );
        Ok(Item { attr: ai, tidset })
    })?;
    let min_count = ((config.min_support * analysis.n_facts() as f64).ceil() as u64).max(1);
    cx.check()?;
    let (mfs_span, mfs_cx) = cx.span("mfs");
    mfs_span.attr("items", items.len() as u64);
    let roots = maximal_frequent_sets_in(
        &items,
        min_count,
        config.max_lattice_dims,
        |a, b| compatible(&analysis.attributes[a], &analysis.attributes[b]),
        &mfs_cx,
    )?;
    mfs_span.attr("roots", roots.len() as u64);
    drop(mfs_span);

    spade_parallel::try_map(roots, cx.threads, |dims| {
        cx.check()?;
        let measures: Vec<usize> = analysis
            .measure_attrs()
            .into_iter()
            .filter(|&mi| {
                !dims.contains(&mi)
                    && crate::config::filter_matches(
                        &config.measure_filter,
                        &analysis.attributes[mi].def.name,
                    )
                    && dims.iter().all(|&di| {
                        compatible(&analysis.attributes[di], &analysis.attributes[mi])
                    })
            })
            .collect();
        Ok(LatticeSpec { dims, measures })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze_cfs;
    use crate::cfs::{select, CfsStrategy};
    use crate::offline;
    use spade_datagen::{realistic, RealisticConfig};

    fn ceos_analysis() -> (CfsAnalysis, SpadeConfig) {
        let g = realistic::ceos(&RealisticConfig { scale: 300, seed: 5 });
        let config = SpadeConfig { min_support: 0.3, ..Default::default() };
        let stats = offline::analyze(&g);
        let (derived, _) = offline::enumerate_derivations(&g, &stats, &config);
        let cfs_list = select(&g, &[CfsStrategy::TypeBased], &config);
        let ceo = cfs_list.iter().find(|c| c.name == "type:CEO").unwrap();
        (analyze_cfs(&g, ceo, &derived, &config), config)
    }

    #[test]
    fn lattices_found_with_bounded_dims() {
        let (analysis, config) = ceos_analysis();
        let lattices = enumerate(&analysis, &config);
        assert!(!lattices.is_empty(), "CEOs must yield lattices");
        for l in &lattices {
            assert!(!l.dims.is_empty());
            assert!(l.dims.len() <= config.max_lattice_dims);
            for &d in &l.dims {
                assert!(analysis.attributes[d].dimension_ok);
            }
            for &m in &l.measures {
                assert!(analysis.attributes[m].measure_ok);
                assert!(!l.dims.contains(&m));
            }
        }
    }

    #[test]
    fn no_lattice_mixes_base_and_derivation() {
        let (analysis, config) = ceos_analysis();
        let lattices = enumerate(&analysis, &config);
        for l in &lattices {
            for &d in &l.dims {
                for &d2 in &l.dims {
                    if d != d2 {
                        assert!(
                            compatible(&analysis.attributes[d], &analysis.attributes[d2]),
                            "{} vs {}",
                            analysis.attributes[d].def.name,
                            analysis.attributes[d2].def.name
                        );
                    }
                }
                // Measures derived from a dimension are excluded, e.g.
                // numOf(nationality) cannot measure a nationality lattice.
                for &m in &l.measures {
                    assert!(
                        compatible(&analysis.attributes[d], &analysis.attributes[m]),
                        "dim {} with measure {}",
                        analysis.attributes[d].def.name,
                        analysis.attributes[m].def.name
                    );
                }
            }
        }
    }

    #[test]
    fn no_dimensions_no_lattices() {
        let (mut analysis, config) = ceos_analysis();
        for a in &mut analysis.attributes {
            a.dimension_ok = false;
        }
        assert!(enumerate(&analysis, &config).is_empty());
    }
}
