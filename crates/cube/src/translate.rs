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
//! When early-stop is active, the same pass fills one reservoir per root
//! group (stratified sampling, Section 5.3).
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
//!    no intermediate fact re-collection) and drawing its samples from an
//!    RNG seeded by `(seed, partition index)` — reproducible at any
//!    thread count.

use crate::exec::ExecCtx;
use crate::lattice::Lattice;
use crate::spec::CubeSpec;
use rand::Rng;
use spade_bitmap::Bitmap;
use spade_parallel::Cancelled;
use spade_storage::FactId;
use std::collections::HashMap;

/// Uniform sample without replacement from a materialized group run —
/// equivalent to the paper's per-group reservoir (Algorithm R) over the
/// same stream, but without a reservoir map on the hot translation path.
fn sample_run<R: Rng>(facts: &[u32], cap: usize, rng: &mut R) -> Vec<u32> {
    if facts.len() <= cap {
        return facts.to_vec();
    }
    // Partial Fisher–Yates over a copy of the run.
    let mut pool = facts.to_vec();
    for i in 0..cap {
        let j = rng.gen_range(i..pool.len());
        pool.swap(i, j);
    }
    pool.truncate(cap);
    pool
}

/// Deterministic per-partition RNG seed: a splitmix64 finalizer over the
/// run seed and the partition's global index, so each partition's sample
/// stream is fixed no matter which worker draws it.
fn part_seed(seed: u64, part: u64) -> u64 {
    let mut z = seed ^ part.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
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

/// The stratified sample collected during translation (early-stop input).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SampleSet {
    /// Per root cell: `(sampled fact ids, exact group size)`.
    pub groups: HashMap<u64, (Vec<u32>, u64)>,
    /// Reservoir capacity (the per-group sample size).
    pub capacity: usize,
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
pub fn strides_for(domains: &[u32]) -> Vec<u64> {
    let mut strides = vec![1u64; domains.len()];
    for i in (0..domains.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * domains[i + 1] as u64;
    }
    strides
}

/// Facts per entry-generation work item; boundaries depend only on data
/// size, so every thread count generates identical chunk streams.
const FACT_CHUNK: usize = 8192;

/// Translates the CFS into the partitioned array representation (serial
/// plain form of [`translate_in`]).
///
/// `sample_capacity` enables reservoir sampling with the given per-group
/// size; `seed` makes the sample deterministic.
pub fn translate(
    spec: &CubeSpec<'_>,
    lattice: &Lattice,
    sample_capacity: Option<usize>,
    seed: u64,
) -> Translation {
    ExecCtx::unbounded(1, |cx| translate_in(spec, lattice, sample_capacity, seed, cx))
}

/// Parallel, cancellable translation. Output is bit-identical to
/// [`translate`] at any `cx.threads` value; the budget is checked once per
/// fact chunk and once per partition, so cancellation latency is bounded
/// by one work item. Records a `translate` span with partition and cell
/// counts.
pub fn translate_in(
    spec: &CubeSpec<'_>,
    lattice: &Lattice,
    sample_capacity: Option<usize>,
    seed: u64,
    cx: &ExecCtx<'_>,
) -> Result<Translation, Cancelled> {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

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
            let mut rng = SmallRng::seed_from_u64(part_seed(seed, part));
            let mut cells: Vec<(u64, Bitmap)> = Vec::new();
            let mut groups: Vec<(u64, (Vec<u32>, u64))> = Vec::new();
            let mut scratch: Vec<u16> = Vec::new();
            let mut fact_buf: Vec<u32> = Vec::new();
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
                    fact_buf.clear();
                    fact_buf.extend(facts.iter().map(|t| t.2));
                    groups.push((
                        cell,
                        (sample_run(&fact_buf, cap, &mut rng), facts.len() as u64),
                    ));
                }
                cells.push((cell, bitmap));
                k = e;
            }
            Ok((Partition { coords, cells }, groups))
        })?;

    let mut partitions: Vec<Partition> = Vec::with_capacity(built.len());
    let mut sample_groups: Option<HashMap<u64, (Vec<u32>, u64)>> =
        sample_capacity.map(|_| HashMap::new());
    for (partition, groups) in built {
        if let Some(map) = sample_groups.as_mut() {
            map.extend(groups);
        }
        partitions.push(partition);
    }

    let samples = sample_capacity.map(|cap| SampleSet {
        groups: sample_groups.take().unwrap_or_default(),
        capacity: cap,
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

    #[test]
    fn sampling_collects_every_fact_in_small_groups() {
        let (nat, gender) = mini_spec();
        let spec = CubeSpec::new(vec![&nat, &gender], vec![], 2);
        let lattice = Lattice::new(spec.domain_sizes(), vec![4, 2]);
        let t = translate(&spec, &lattice, Some(8), 7);
        let samples = t.samples.unwrap();
        assert_eq!(samples.capacity, 8);
        // Three occupied cells, each with one fact; reservoirs hold them all.
        assert_eq!(samples.groups.len(), 3);
        for (items, seen) in samples.groups.values() {
            assert_eq!(items.len(), 1);
            assert_eq!(*seen, 1);
        }
    }

    #[test]
    fn strides_are_row_major() {
        assert_eq!(strides_for(&[4, 2]), vec![2, 1]);
        assert_eq!(strides_for(&[3, 5, 2]), vec![10, 2, 1]);
        assert_eq!(strides_for(&[7]), vec![1]);
    }
}
