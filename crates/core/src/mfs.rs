//! Maximal Frequent Sets of attributes (Section 3, Step 3(b)).
//!
//! "We compute the Maximal Frequent Sets of attributes \[25\] in the CFS.
//! Each of the found sets is the root of one lattice."
//!
//! An attribute set is *frequent* when the fraction of facts carrying **all**
//! its attributes reaches the support threshold; it is *maximal* when no
//! frequent superset exists (within the dimensionality cap `N` and the
//! compatibility rule — attributes derived one from the other may not share
//! a lattice). Mining uses tidset intersection over fact bitmaps, in the
//! spirit of GenMax [Gouda & Zaki, ICDM 2001].

use spade_bitmap::Bitmap;
use spade_cube::ExecCtx;
use spade_parallel::Cancelled;

/// One item: an attribute index plus the set of facts carrying it.
#[derive(Clone, Debug)]
pub struct Item {
    /// Caller-side attribute identifier.
    pub attr: usize,
    /// Facts having the attribute (the item's tidset).
    pub tidset: Bitmap,
}

/// Mines the maximal frequent attribute sets (serial plain form of
/// [`maximal_frequent_sets_in`]).
pub fn maximal_frequent_sets(
    items: &[Item],
    min_count: u64,
    max_size: usize,
    compatible: impl Fn(usize, usize) -> bool + Sync,
) -> Vec<Vec<usize>> {
    ExecCtx::unbounded(1, |cx| {
        maximal_frequent_sets_in(items, min_count, max_size, compatible, cx)
    })
}

/// Mines the maximal frequent attribute sets.
///
/// * `min_count` — absolute support threshold (facts carrying the set);
/// * `max_size` — dimensionality cap `N` (sets of this size count as
///   maximal even if a larger frequent superset exists);
/// * `compatible(a, b)` — pairwise rule; incompatible attributes never
///   co-occur in a set.
///
/// Returns sets of attribute ids, each sorted ascending; the result is
/// subset-free.
///
/// The search tree's top-level branches (one per frequent item, in the
/// dense-first order) are mined independently on `cx.threads` workers;
/// each branch records its locally maximal sets, and a serial merge
/// applies the same subsumption rule across branches in branch order.
/// Subsumption only suppresses *storage* — it never alters which subtrees
/// are explored — so the merged subset-free family is identical to the
/// serial mining at any thread count. Cancellation is polled once per
/// top-level branch.
pub fn maximal_frequent_sets_in(
    items: &[Item],
    min_count: u64,
    max_size: usize,
    compatible: impl Fn(usize, usize) -> bool + Sync,
    cx: &ExecCtx<'_>,
) -> Result<Vec<Vec<usize>>, Cancelled> {
    cx.check()?;
    // Frequent single items, by descending support (dense-first ordering
    // makes long sets appear early, improving subsumption pruning).
    let mut order: Vec<usize> =
        (0..items.len()).filter(|&i| items[i].tidset.cardinality() >= min_count).collect();
    order.sort_by(|&a, &b| {
        items[b]
            .tidset
            .cardinality()
            .cmp(&items[a].tidset.cardinality())
            .then(items[a].attr.cmp(&items[b].attr))
    });

    fn is_subset_of_any(set: &[usize], maximal: &[Vec<usize>]) -> bool {
        maximal.iter().any(|m| set.iter().all(|a| m.contains(a)))
    }

    #[allow(clippy::too_many_arguments)]
    fn extend(
        items: &[Item],
        order: &[usize],
        from: usize,
        tids: &Bitmap,
        current: &mut Vec<usize>,
        maximal: &mut Vec<Vec<usize>>,
        min_count: u64,
        max_size: usize,
        compatible: &impl Fn(usize, usize) -> bool,
    ) {
        let mut extended = false;
        if current.len() < max_size {
            for (pos, &i) in order.iter().enumerate().skip(from) {
                let attr = items[i].attr;
                if !current.iter().all(|&a| compatible(a, attr)) {
                    continue;
                }
                if tids.intersect_len(&items[i].tidset) < min_count {
                    continue;
                }
                extended = true;
                let new_tids = tids.intersect(&items[i].tidset);
                current.push(attr);
                extend(
                    items,
                    order,
                    pos + 1,
                    &new_tids,
                    current,
                    maximal,
                    min_count,
                    max_size,
                    compatible,
                );
                current.pop();
            }
        }
        if !extended && !current.is_empty() {
            let mut set = current.clone();
            set.sort_unstable();
            if !is_subset_of_any(&set, maximal) {
                // A new maximal set may subsume previously found smaller ones
                // discovered along incompatible-order paths.
                maximal.retain(|m| !m.iter().all(|a| set.contains(a)));
                maximal.push(set);
            }
        }
    }

    if order.is_empty() || max_size == 0 {
        return Ok(Vec::new());
    }
    let universe = {
        // Union of all tidsets bounds the initial intersection identity.
        let mut u = Bitmap::new();
        let refs: Vec<&Bitmap> = order.iter().map(|&i| &items[i].tidset).collect();
        u.union_with_all(&refs);
        u
    };

    // Fan out over the top-level branches. Each branch explores the same
    // subtree the serial loop would (the recursion never consults the
    // accumulated maximal sets), so concatenating the branch outputs in
    // branch order reproduces the serial candidate stream.
    let positions: Vec<usize> = (0..order.len()).collect();
    let order = &order;
    let universe = &universe;
    let compatible = &compatible;
    let branches: Vec<Vec<Vec<usize>>> =
        spade_parallel::try_map(positions, cx.threads, |pos| {
            cx.check()?;
            let i = order[pos];
            // Top level: `current` is empty, so compatibility is vacuous and
            // the intersection with the all-items universe is the tidset.
            if items[i].tidset.cardinality() < min_count {
                return Ok(Vec::new());
            }
            let new_tids = universe.intersect(&items[i].tidset);
            let mut current = vec![items[i].attr];
            let mut maximal: Vec<Vec<usize>> = Vec::new();
            extend(
                items,
                order,
                pos + 1,
                &new_tids,
                &mut current,
                &mut maximal,
                min_count,
                max_size,
                compatible,
            );
            Ok(maximal)
        })?;

    // Serial cross-branch merge with the same subsumption rule; the result
    // is the maximal antichain of all candidates, independent of order.
    let mut maximal: Vec<Vec<usize>> = Vec::new();
    for set in branches.into_iter().flatten() {
        if !is_subset_of_any(&set, &maximal) {
            maximal.retain(|m| !m.iter().all(|a| set.contains(a)));
            maximal.push(set);
        }
    }
    maximal.sort();
    Ok(maximal)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(attr: usize, facts: &[u32]) -> Item {
        Item { attr, tidset: Bitmap::from_iter(facts.iter().copied()) }
    }

    #[test]
    fn single_frequent_item_is_maximal() {
        let items = vec![item(0, &[0, 1, 2]), item(1, &[9])];
        let sets = maximal_frequent_sets(&items, 2, 4, |_, _| true);
        assert_eq!(sets, vec![vec![0]]);
    }

    #[test]
    fn finds_the_natural_maximal_set() {
        // Attributes 0,1,2 co-occur on facts 0–7; attribute 3 only on 0–2.
        let all: Vec<u32> = (0..8).collect();
        let items = vec![item(0, &all), item(1, &all), item(2, &all), item(3, &[0, 1, 2])];
        let sets = maximal_frequent_sets(&items, 4, 4, |_, _| true);
        assert_eq!(sets, vec![vec![0, 1, 2]]);
        // Lowering the threshold pulls attribute 3 in.
        let sets = maximal_frequent_sets(&items, 3, 4, |_, _| true);
        assert_eq!(sets, vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn disjoint_supports_give_two_lattice_roots() {
        let items = vec![
            item(0, &[0, 1, 2, 3]),
            item(1, &[0, 1, 2, 3]),
            item(2, &[10, 11, 12, 13]),
            item(3, &[10, 11, 12, 13]),
        ];
        let sets = maximal_frequent_sets(&items, 3, 4, |_, _| true);
        assert_eq!(sets, vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn max_size_caps_the_roots() {
        let all: Vec<u32> = (0..10).collect();
        let items: Vec<Item> = (0..5).map(|a| item(a, &all)).collect();
        let sets = maximal_frequent_sets(&items, 5, 3, |_, _| true);
        for s in &sets {
            assert!(s.len() <= 3);
        }
        // The full 5-set is frequent, so capped 3-subsets must cover all
        // attributes across roots.
        let covered: std::collections::HashSet<usize> =
            sets.iter().flatten().copied().collect();
        assert_eq!(covered.len(), 5);
    }

    #[test]
    fn incompatible_attributes_split() {
        // 0 and 1 always co-occur but are declared incompatible (e.g.
        // nationality vs numOf(nationality)).
        let all: Vec<u32> = (0..10).collect();
        let items = vec![item(0, &all), item(1, &all), item(2, &all)];
        let sets =
            maximal_frequent_sets(&items, 5, 4, |a, b| !(a == 0 && b == 1 || a == 1 && b == 0));
        assert_eq!(sets, vec![vec![0, 2], vec![1, 2]]);
    }

    #[test]
    fn result_is_subset_free() {
        let items = vec![
            item(0, &(0..20).collect::<Vec<_>>()),
            item(1, &(0..20).collect::<Vec<_>>()),
            item(2, &(0..10).collect::<Vec<_>>()),
            item(3, &(5..25).collect::<Vec<_>>()),
        ];
        let sets = maximal_frequent_sets(&items, 8, 4, |_, _| true);
        for (i, a) in sets.iter().enumerate() {
            for (j, b) in sets.iter().enumerate() {
                if i != j {
                    assert!(!a.iter().all(|x| b.contains(x)), "{a:?} ⊆ {b:?}");
                }
            }
        }
    }

    #[test]
    fn empty_input_and_infrequent_items() {
        assert!(maximal_frequent_sets(&[], 1, 4, |_, _| true).is_empty());
        let items = vec![item(0, &[1]), item(1, &[2])];
        assert!(maximal_frequent_sets(&items, 2, 4, |_, _| true).is_empty());
    }
}
