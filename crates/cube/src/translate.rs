//! Data Translation: from attribute tables to the partitioned array
//! representation (Section 4.3).
//!
//! "We then translate the join result to lay the data in a partitioned array
//! representation of cells. A partition is a set of pairs (cell index, CF).
//! We assign each RDF node a cell index based on its dimensions' values; in
//! the case of multiple values for a dimension, we assign indexes of all
//! corresponding cells. We add the special value null in the domain of each
//! dimension to account for missing values."
//!
//! Facts with no value on *any* dimension are filtered out (the translation
//! query selects "all the CFs that have a value for at least one of the
//! dimensions"). Each cell is "associated with the set of RDF nodes that
//! correspond to the combination of dimension values that this cell
//! represents", stored as a [`Bitmap`].
//!
//! When early-stop is active, the same pass keeps Section 5.3's stratified
//! sample as one **bottom-k sketch** per root group: its `k` facts of
//! smallest `fact_priority`, a seeded hash of the fact id. A fact has one
//! priority wherever it is met, so sketches merge — the bottom-k of a union
//! of groups is the bottom-k of their sketches' union, a multi-valued fact
//! counting once — and `SampleSet::project` derives any lattice node's
//! sample exactly, in O(k) per group.
//!
//! # Parallel structure
//!
//! [`translate_in`] runs three deterministic stages on
//! `spade_parallel`:
//!
//! 1. **entry generation** over fact ranges (chunk boundaries depend only
//!    on data size; concatenated in input order this equals the serial
//!    scan),
//! 2. **one sort** of the flat `(partition, cell, fact)` triples — the
//!    triples are unique, so the unstable parallel sort by the full key
//!    reproduces the serial stable `(partition, cell)` sort exactly, and
//! 3. **per-partition materialization**, each partition building its cell
//!    bitmaps via `from_sorted_iter_in` (one low-bits scratch per worker,
//!    no intermediate fact re-collection) and its cells' bottom-k samples
//!    (a function of `(seed, fact ids)` alone) at any thread count.

use crate::exec::ExecCtx;
use crate::lattice::Lattice;
use crate::spec::CubeSpec;
use spade_bitmap::Bitmap;
use spade_parallel::Cancelled;
use spade_storage::FactId;
use std::collections::BTreeMap;

/// The sampling priority of a fact: 32 bits of the splitmix64 finalizer of
/// `seed ^ fact` over the fact id, so no two facts tie. A group's sample is
/// its `k` facts of smallest priority: a function of `(seed, fact set)` alone.
pub(crate) fn fact_priority(seed: u64, fact: u32) -> u64 {
    let mut z = (seed ^ fact as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) << 32 | fact as u64
}

/// The bottom-`k` of one cell's `(partition, cell, fact)` run, in priority
/// order; `keyed` is the caller's scratch.
fn bottom_k(run: &[(u64, u64, u32)], k: usize, seed: u64, keyed: &mut Vec<u64>) -> Vec<u32> {
    keyed.clear();
    keyed.extend(run.iter().map(|t| fact_priority(seed, t.2)));
    if keyed.len() > k {
        keyed.select_nth_unstable(k.saturating_sub(1));
        keyed.truncate(k);
    }
    keyed.sort_unstable();
    keyed.iter().map(|&priority| priority as u32).collect()
}

/// One partition: the cells (with their fact sets) whose dimension codes
/// fall in this partition's chunk ranges.
#[derive(Clone, Debug, PartialEq)]
pub struct Partition {
    /// Per-dimension chunk coordinates.
    pub coords: Vec<u32>,
    /// `(global cell index, facts)`, sorted by cell index.
    pub cells: Vec<(u64, Bitmap)>,
}

/// The stratified sample of one lattice node (early-stop input):
/// translation collects the root's, `SampleSet::project` derives the rest.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SampleSet {
    /// Per group, in cell order: `(sampled fact ids in priority order, group
    /// size)`. A cell is a root cell index with the dropped dimensions'
    /// coordinates at 0. The size is exact at the root; below it a
    /// multi-valued fact counts once per root cell it is in (Appendix B's
    /// "may be overestimated").
    pub groups: BTreeMap<u64, (Vec<u32>, u64)>,
    /// The per-group sample size `k`.
    pub capacity: usize,
    /// Seed of `fact_priority`.
    pub seed: u64,
}

impl SampleSet {
    /// The sample of node `to` from this sample of any of its ancestors:
    /// groups merge as bottom-k sketches, so via the MMST parent or straight
    /// from the root each group gets the bottom-k of all its facts. Groups
    /// with a null coordinate are kept for descendants dropping that axis.
    pub(crate) fn project(&self, lattice: &Lattice, to: u32) -> SampleSet {
        let axes = node_axes(lattice, to);
        let priority = |fact: &u32| fact_priority(self.seed, *fact);
        let mut groups: BTreeMap<u64, (Vec<u32>, u64)> = BTreeMap::new();
        let mut merged: Vec<u32> = Vec::new();
        for (&cell, (facts, seen)) in &self.groups {
            let key =
                axes.iter().map(|&(stride, domain)| cell / stride % domain * stride).sum();
            let group = groups.entry(key).or_default();
            group.1 += seen;
            if group.0.is_empty() {
                group.0.extend_from_slice(facts);
                continue;
            }
            // Two priority-ordered runs merge into `merged`, a fact in both
            // taken once; the buffers then trade places.
            let (mut a, mut b) = (group.0.iter().peekable(), facts.iter().peekable());
            let next = || match (a.peek(), b.peek()) {
                (Some(x), Some(y)) if x == y => a.next().and(b.next()),
                (Some(x), Some(y)) if priority(x) > priority(y) => b.next(),
                (Some(_), _) => a.next(),
                (None, _) => b.next(),
            };
            merged.clear();
            merged.extend(std::iter::from_fn(next).take(self.capacity));
            std::mem::swap(&mut group.0, &mut merged);
        }
        SampleSet { groups, capacity: self.capacity, seed: self.seed }
    }
}

/// Output of the translation step.
#[derive(Clone, Debug, PartialEq)]
pub struct Translation {
    /// Partitions in row-major order of their chunk coordinates.
    pub partitions: Vec<Partition>,
    /// Cell-index strides per dimension (row-major, last dim contiguous).
    pub strides: Vec<u64>,
    /// The stratified sample, when requested.
    pub samples: Option<SampleSet>,
}

/// Row-major strides for the given domain sizes.
pub(crate) fn strides_for(domains: &[u32]) -> Vec<u64> {
    let mut strides = vec![1u64; domains.len()];
    for i in (0..domains.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * domains[i + 1] as u64;
    }
    strides
}

/// `(root cell stride, domain size)` of each dimension of node `mask`: its
/// coordinate in root cell `c` is `c / stride % domain`, null being
/// `domain − 1`.
pub(crate) fn node_axes(lattice: &Lattice, mask: u32) -> Vec<(u64, u64)> {
    let strides = strides_for(&lattice.domains);
    lattice.dims_of(mask).into_iter().map(|d| (strides[d], lattice.domains[d] as u64)).collect()
}

/// Facts per entry-generation work item; boundaries depend only on data
/// size, so every thread count generates identical chunk streams.
const FACT_CHUNK: usize = 8192;

/// Translates the CFS into the partitioned array representation, in
/// parallel and cancellably.
///
/// `sample_capacity` enables bottom-k sampling with the given per-group
/// size under `fact_priority(seed, ·)`. Output is bit-identical at any
/// `cx.threads` value; the budget is checked once per fact chunk and once
/// per partition, so cancellation latency is bounded by one work item.
/// Records a `translate` span with partition and cell counts.
pub fn translate_in(
    spec: &CubeSpec<'_>,
    lattice: &Lattice,
    sample_capacity: Option<usize>,
    seed: u64,
    cx: &ExecCtx<'_>,
) -> Result<Translation, Cancelled> {
    let (span, cx) = cx.span("translate");
    spade_parallel::fault::fire_with_budget("translate", Some(cx.budget));
    cx.check()?;

    let domains = lattice.domains.clone();
    let total_cells: u128 = domains.iter().map(|&d| d as u128).product();
    assert!(total_cells < (1u128 << 62), "cell space too large for u64 indexes");
    let strides = strides_for(&domains);
    let n_chunks = lattice.n_chunks();
    let part_strides = strides_for(&n_chunks);
    let null_codes: Vec<u32> = domains.iter().map(|&d| d - 1).collect();

    // Stage 1: flat `(partition, cell, fact)` entries, generated per fact
    // range and concatenated in input order — identical to one serial
    // scan, and cheaper / more cache-friendly than hash-accumulating per
    // cell.
    let ranges = spade_parallel::chunk_ranges(spec.n_facts, FACT_CHUNK);
    let chunked: Vec<Vec<(u64, u64, u32)>> =
        spade_parallel::try_map(ranges, cx.threads, |(lo, hi)| {
            cx.check()?;
            let mut entries: Vec<(u64, u64, u32)> = Vec::new();
            let mut code_lists: Vec<&[u32]> = Vec::with_capacity(spec.n_dims());
            for fact in lo as u32..hi as u32 {
                code_lists.clear();
                let mut any_value = false;
                for (i, dim) in spec.dims.iter().enumerate() {
                    let codes = dim.codes_of(FactId(fact));
                    if codes.is_empty() {
                        code_lists.push(std::slice::from_ref(&null_codes[i]));
                    } else {
                        any_value = true;
                        code_lists.push(codes);
                    }
                }
                if !any_value {
                    continue; // the fact misses every dimension: not in the root join
                }
                // Odometer over the cross product of the fact's dimension
                // values.
                let mut idx = vec![0usize; code_lists.len()];
                loop {
                    let mut cell: u64 = 0;
                    let mut part: u64 = 0;
                    for (d, &i) in idx.iter().enumerate() {
                        let code = code_lists[d][i];
                        cell += code as u64 * strides[d];
                        part += (code / lattice.chunks[d]) as u64 * part_strides[d];
                    }
                    entries.push((part, cell, fact));
                    // Advance the odometer.
                    let mut d = code_lists.len();
                    loop {
                        if d == 0 {
                            break;
                        }
                        d -= 1;
                        idx[d] += 1;
                        if idx[d] < code_lists[d].len() {
                            break;
                        }
                        idx[d] = 0;
                        if d == 0 {
                            d = usize::MAX;
                            break;
                        }
                    }
                    if d == usize::MAX {
                        break;
                    }
                }
            }
            Ok(entries)
        })?;
    let mut entries: Vec<(u64, u64, u32)> =
        Vec::with_capacity(chunked.iter().map(Vec::len).sum());
    for c in chunked {
        entries.extend(c);
    }
    cx.check()?;

    // Stage 2: one sort groups the entries by (partition, cell); the
    // triples are unique and facts ascend within each (partition, cell)
    // group as generated, so the unstable sort by the full key equals the
    // serial stable (partition, cell) sort bit for bit.
    let entries = spade_parallel::par_sort(entries, cx.threads);
    cx.check()?;

    // Stage 3: materialize partitions in row-major chunk order (the sort
    // already put them there); each partition is independent.
    let mut part_ranges: Vec<(u64, std::ops::Range<usize>)> = Vec::new();
    let mut i = 0;
    while i < entries.len() {
        let part = entries[i].0;
        let mut j = i;
        while j < entries.len() && entries[j].0 == part {
            j += 1;
        }
        part_ranges.push((part, i..j));
        i = j;
    }
    let entries = &entries;
    // One partition's cells plus its `(cell, (sample, group size))` groups.
    type BuiltPartition = (Partition, Vec<(u64, (Vec<u32>, u64))>);
    let built: Vec<BuiltPartition> =
        spade_parallel::try_map(part_ranges, cx.threads, |(part, range)| {
            cx.check()?;
            let run = &entries[range];
            let coords: Vec<u32> = n_chunks
                .iter()
                .enumerate()
                .map(|(d, _)| ((part / part_strides[d]) % n_chunks[d] as u64) as u32)
                .collect();
            let mut cells: Vec<(u64, Bitmap)> = Vec::new();
            let mut groups: Vec<(u64, (Vec<u32>, u64))> = Vec::new();
            let mut scratch: Vec<u16> = Vec::new();
            let mut keyed: Vec<u64> = Vec::new();
            let mut k = 0;
            while k < run.len() {
                let cell = run[k].1;
                let mut e = k;
                while e < run.len() && run[e].1 == cell {
                    e += 1;
                }
                let facts = &run[k..e];
                let bitmap =
                    Bitmap::from_sorted_iter_in(facts.iter().map(|t| t.2), &mut scratch);
                if let Some(cap) = sample_capacity {
                    let sample = bottom_k(facts, cap, seed, &mut keyed);
                    groups.push((cell, (sample, facts.len() as u64)));
                }
                cells.push((cell, bitmap));
                k = e;
            }
            Ok((Partition { coords, cells }, groups))
        })?;

    let (partitions, groups): (Vec<Partition>, Vec<_>) = built.into_iter().unzip();
    // One sort and a bulk build instead of an insert per cell.
    let samples = sample_capacity.map(|capacity| SampleSet {
        groups: groups.into_iter().flatten().collect(),
        capacity,
        seed,
    });

    if span.recorded() {
        span.attr("partitions", partitions.len() as u64);
        span.attr("cells", partitions.iter().map(|p| p.cells.len() as u64).sum());
        span.attr("entries", entries.len() as u64);
    }
    Ok(Translation { partitions, strides, samples })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CubeSpec;
    use spade_storage::CategoricalColumn;

    /// Serial, unbounded translation.
    fn translate(
        spec: &CubeSpec<'_>,
        lattice: &Lattice,
        sample_capacity: Option<usize>,
        seed: u64,
    ) -> Translation {
        ExecCtx::unbounded(1, |cx| translate_in(spec, lattice, sample_capacity, seed, cx))
    }

    /// Two facts: fact 0 single-valued, fact 1 multi-valued on dim 0 and
    /// missing dim 1.
    fn mini_spec() -> (CategoricalColumn, CategoricalColumn) {
        let nat = CategoricalColumn::from_rows(
            "nationality",
            &[vec!["Angola"], vec!["Brazil", "France"]],
        );
        let gender = CategoricalColumn::from_rows("gender", &[vec!["Female"], vec![]]);
        (nat, gender)
    }

    #[test]
    fn multi_valued_fact_lands_in_all_its_cells() {
        let (nat, gender) = mini_spec();
        let spec = CubeSpec::new(vec![&nat, &gender], vec![], 2);
        let lattice = Lattice::new(spec.domain_sizes(), vec![4, 2]);
        let t = translate(&spec, &lattice, None, 0);
        let total_pairs: usize = t
            .partitions
            .iter()
            .flat_map(|p| p.cells.iter())
            .map(|(_, b)| b.cardinality() as usize)
            .sum();
        // fact 0: 1 combination; fact 1: 2 nationalities × 1 null gender.
        assert_eq!(total_pairs, 3);
        // Nationality domain = {Angola, Brazil, France} + null = 4;
        // gender = {Female} + null = 2. Fact 1's cells: (Brazil, null) and
        // (France, null) → indexes 1*2+1=3 and 2*2+1=5.
        let all_cells: Vec<u64> =
            t.partitions.iter().flat_map(|p| p.cells.iter().map(|(c, _)| *c)).collect();
        assert!(all_cells.contains(&3) && all_cells.contains(&5));
        // Fact 0: (Angola=0, Female=0) → cell 0.
        assert!(all_cells.contains(&0));
    }

    #[test]
    fn fact_with_no_dimension_values_is_excluded() {
        let nat = CategoricalColumn::from_rows("nat", &[vec!["A"], vec![]]);
        let gen = CategoricalColumn::from_rows("gen", &[vec!["F"], vec![]]);
        let spec = CubeSpec::new(vec![&nat, &gen], vec![], 2);
        let lattice = Lattice::new(spec.domain_sizes(), vec![2, 2]);
        let t = translate(&spec, &lattice, None, 0);
        let facts: Vec<u32> = t
            .partitions
            .iter()
            .flat_map(|p| p.cells.iter())
            .flat_map(|(_, b)| b.iter())
            .collect();
        assert_eq!(facts, vec![0]);
    }

    #[test]
    fn partitions_are_row_major_and_cover_codes() {
        let (nat, gender) = mini_spec();
        let spec = CubeSpec::new(vec![&nat, &gender], vec![], 2);
        // chunk 2 along nationality (4 values → 2 chunks), 2 along gender.
        let lattice = Lattice::new(spec.domain_sizes(), vec![2, 2]);
        let t = translate(&spec, &lattice, None, 0);
        let coords: Vec<Vec<u32>> = t.partitions.iter().map(|p| p.coords.clone()).collect();
        // Sorted row-major; codes 0..1 are chunk 0, 2..3 chunk 1 on dim 0.
        for w in coords.windows(2) {
            assert!(w[0] <= w[1]);
        }
        // Every cell's codes belong to its partition's chunk ranges.
        for p in &t.partitions {
            for (cell, _) in &p.cells {
                let nat_code = (cell / t.strides[0]) % 4;
                let gen_code = (cell / t.strides[1]) % 2;
                assert_eq!(nat_code as u32 / 2, p.coords[0]);
                assert_eq!(gen_code as u32 / 2, p.coords[1]);
            }
        }
    }

    /// 3 000 facts over three dimensions: `a` multi-valued for a third of
    /// the facts and missing for some, `b` multi-valued for a few, `c` plain.
    fn sampled_columns() -> [CategoricalColumn; 3] {
        const LABELS: [&str; 6] = ["u", "v", "w", "x", "y", "z"];
        let pick = |fact: usize, salt: u64, n: u64| {
            LABELS[((fact_priority(salt, fact as u32) >> 32) % n) as usize]
        };
        let column = |name: &str, salt: u64, n: u64, multi: usize, missing: usize| {
            let rows: Vec<Vec<&str>> = (0..3_000)
                .map(|f| match f {
                    f if f % missing == 0 => vec![],
                    f if f % multi == 0 => vec![pick(f, salt, n), pick(f, salt + 1, n)],
                    f => vec![pick(f, salt, n)],
                })
                .collect();
            CategoricalColumn::from_rows(name, &rows)
        };
        [
            column("a", 10, 6, 3, 17),
            column("b", 20, 4, 11, usize::MAX),
            column("c", 30, 3, usize::MAX, 29),
        ]
    }

    /// Per cell of node `mask` (root cell index, dropped coordinates at 0):
    /// the distinct facts in it, straight from the translated bitmaps.
    fn true_groups(t: &Translation, lattice: &Lattice, mask: u32) -> BTreeMap<u64, Vec<u32>> {
        let axes = node_axes(lattice, mask);
        let mut groups: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        for (cell, facts) in t.partitions.iter().flat_map(|p| &p.cells) {
            let key =
                axes.iter().map(|&(stride, domain)| cell / stride % domain * stride).sum();
            groups.entry(key).or_default().extend(facts.iter());
        }
        for facts in groups.values_mut() {
            facts.sort_unstable();
            facts.dedup();
        }
        groups
    }

    #[test]
    fn root_sample_is_the_bottom_k_of_every_cell() {
        let [a, b, c] = sampled_columns();
        let spec = CubeSpec::new(vec![&a, &b, &c], vec![], 3_000);
        let lattice = Lattice::new(spec.domain_sizes(), vec![3, 2, 4]);
        let serial = translate(&spec, &lattice, Some(16), 7);
        let samples = serial.samples.as_ref().unwrap();
        assert_eq!((samples.capacity, samples.seed), (16, 7));
        let cells = true_groups(&serial, &lattice, lattice.root_mask());
        assert_eq!(samples.groups.len(), cells.len());
        assert!(cells.values().any(|f| f.len() <= 16) && cells.values().any(|f| f.len() > 16));
        for (cell, facts) in &cells {
            let (sample, seen) = &samples.groups[cell];
            // The group size is exact; a group of ≤ k facts is sampled whole.
            assert_eq!(*seen, facts.len() as u64);
            let mut by_priority = facts.clone();
            by_priority.sort_by_key(|&f| fact_priority(7, f));
            by_priority.truncate(16);
            assert_eq!(sample, &by_priority, "cell {cell}");
        }
        // Same (seed, data) ⇒ same sample at any thread count; another seed
        // draws another one.
        for threads in [2usize, 8] {
            let parallel = ExecCtx::unbounded(threads, |cx| {
                translate_in(&spec, &lattice, Some(16), 7, cx)
            });
            assert_eq!(parallel, serial, "{threads} threads");
        }
        assert_ne!(translate(&spec, &lattice, Some(16), 8).samples, serial.samples);
    }

    #[test]
    fn projection_is_exact_and_path_independent() {
        let [a, b, c] = sampled_columns();
        let spec = CubeSpec::new(vec![&a, &b, &c], vec![], 3_000);
        let lattice = Lattice::new(spec.domain_sizes(), vec![3, 2, 4]);
        let t = translate(&spec, &lattice, Some(16), 7);
        let root = t.samples.as_ref().unwrap();
        let mmst = lattice.mmst();
        for mask in lattice.nodes().into_iter().skip(1) {
            let from_root = root.project(&lattice, mask);
            let (parent, _) = mmst.parent[&mask];
            let from_parent = root.project(&lattice, parent).project(&lattice, mask);
            assert_eq!(from_root, from_parent, "node {mask:03b}");
            // Every group holds the bottom-k of its distinct facts: a fact
            // multi-valued on a dropped dimension sits in several root cells
            // and still appears once.
            let groups = true_groups(&t, &lattice, mask);
            assert_eq!(from_root.groups.len(), groups.len());
            for (cell, facts) in &groups {
                let (sample, seen) = &from_root.groups[cell];
                let mut by_priority = facts.clone();
                by_priority.sort_by_key(|&f| fact_priority(7, f));
                by_priority.truncate(16);
                assert_eq!(sample, &by_priority, "node {mask:03b} cell {cell}");
                assert!(*seen >= facts.len() as u64);
            }
        }
    }

    #[test]
    fn fact_multi_valued_on_a_dropped_dimension_is_sampled_once() {
        let (nat, gender) = mini_spec();
        let spec = CubeSpec::new(vec![&nat, &gender], vec![], 2);
        let lattice = Lattice::new(spec.domain_sizes(), vec![4, 2]);
        let root = translate(&spec, &lattice, Some(8), 7).samples.unwrap();
        // Fact 1 (Brazil and France, no gender) is in two root cells.
        assert_eq!(root.groups.values().filter(|(facts, _)| facts == &[1]).count(), 2);
        // By gender alone (mask 0b10) it is one fact of the null group, whose
        // size counts both root cells.
        let by_gender = root.project(&lattice, 0b10);
        let null_gender = node_axes(&lattice, 0b10)[0].0; // code 1 = null
        assert_eq!(by_gender.groups[&null_gender], (vec![1], 2));
        assert_eq!(by_gender.groups[&0], (vec![0], 1));
    }

    /// Seeds far apart: `seed ^ fact` over consecutive seeds would only
    /// permute one set of hash inputs among the facts.
    fn trial_seed(trial: u64) -> u64 {
        trial.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    #[test]
    fn bottom_k_sample_is_approximately_uniform() {
        // Each of 100 facts should be among the 10 of smallest priority with
        // probability 1/10 over the seeds.
        let run: Vec<(u64, u64, u32)> = (0..100).map(|fact| (0, 0, fact)).collect();
        let trials = 20_000;
        let mut hits = [0u32; 100];
        let mut keyed = Vec::new();
        for trial in 0..trials {
            let sample = bottom_k(&run, 10, trial_seed(trial), &mut keyed);
            assert_eq!(sample.len(), 10);
            for fact in sample {
                hits[fact as usize] += 1;
            }
        }
        for (fact, &h) in hits.iter().enumerate() {
            let freq = h as f64 / trials as f64;
            // 5-sigma band for a Binomial(20000, 0.1) proportion ≈ ±0.0106.
            assert!((freq - 0.1).abs() < 0.011, "fact {fact} sampled with frequency {freq}");
        }
    }

    #[test]
    fn mean_of_bottom_k_sample_estimates_group_mean() {
        // What Theorem 2's intervals assume of a group's sample: its mean is
        // an unbiased estimate of the group's, here of a measure that
        // follows the fact id.
        let value = |fact: u32| (fact % 97) as f64;
        let run: Vec<(u64, u64, u32)> = (0..5_000).map(|fact| (0, 0, fact)).collect();
        let true_mean = run.iter().map(|t| value(t.2)).sum::<f64>() / run.len() as f64;
        let mut keyed = Vec::new();
        let estimates: Vec<f64> = (0..300)
            .map(|trial| {
                let sample = bottom_k(&run, 60, trial_seed(trial), &mut keyed);
                sample.iter().map(|&f| value(f)).sum::<f64>() / sample.len() as f64
            })
            .collect();
        let avg = estimates.iter().sum::<f64>() / estimates.len() as f64;
        // One estimate's σ ≈ 28/√60 ≈ 3.6, the average of 300 ≈ 0.21.
        assert!((avg - true_mean).abs() < 1.0, "avg estimate {avg} vs {true_mean}");
    }

    #[test]
    fn strides_are_row_major() {
        assert_eq!(strides_for(&[4, 2]), vec![2, 1]);
        assert_eq!(strides_for(&[3, 5, 2]), vec![10, 2, 1]);
        assert_eq!(strides_for(&[7]), vec![1]);
    }
}
