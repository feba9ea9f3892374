//! Translation's placement against the comparison sort it replaced: on
//! random multi-valued columns, `translate_in` must equal a reference that
//! writes every `(partition, cell, fact)` triple, sorts them, and groups the
//! sorted run into partitions, cell bitmaps and bottom-k samples — bit for
//! bit, for every chunking, sample size and thread count. Fixed cases pin
//! the radix placement's edges: key spaces of one, two and more byte
//! digits, a digit every key shares, no entries at all, and a sparse cell
//! space near the `u64` limit.

use proptest::prelude::*;
use spade_bitmap::Bitmap;
use spade_cube::translate::{translate_in, Partition, SampleSet, Translation};
use spade_cube::{CubeSpec, ExecCtx, Lattice};
use spade_storage::{CategoricalColumn, FactId};

/// The sampling priority translation ranks facts by (`fact_priority`).
fn priority(seed: u64, fact: u32) -> u64 {
    let mut z = (seed ^ fact as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) << 32 | fact as u64
}

fn row_major(sizes: &[u64]) -> Vec<u64> {
    let mut strides = vec![1u64; sizes.len()];
    for i in (0..sizes.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * sizes[i + 1];
    }
    strides
}

/// The comparison-sort translation: one `(partition, cell, fact)` triple
/// per (fact, cell), sorted, then grouped.
fn reference(
    spec: &CubeSpec<'_>,
    lattice: &Lattice,
    capacity: Option<usize>,
    seed: u64,
) -> Translation {
    let domains: Vec<u64> = lattice.domains.iter().map(|&d| d as u64).collect();
    let chunks: Vec<u64> = lattice.chunks.iter().map(|&c| c as u64).collect();
    let n_chunks: Vec<u64> = domains.iter().zip(&chunks).map(|(d, c)| d.div_ceil(*c)).collect();
    let strides = row_major(&domains);
    let part_strides = row_major(&n_chunks);
    let mut triples: Vec<(u64, u64, u32)> = Vec::new();
    for fact in 0..spec.n_facts as u32 {
        let lists: Vec<Vec<u64>> = spec
            .dims
            .iter()
            .zip(&domains)
            .map(|(dim, &domain)| match dim.codes_of(FactId(fact)) {
                [] => vec![domain - 1],
                codes => codes.iter().map(|&c| c as u64).collect(),
            })
            .collect();
        if spec.dims.iter().all(|dim| dim.codes_of(FactId(fact)).is_empty()) {
            continue;
        }
        let mut combos: Vec<Vec<u64>> = vec![vec![]];
        for list in &lists {
            combos = combos
                .into_iter()
                .flat_map(|prefix| {
                    list.iter().map(move |&code| [prefix.clone(), vec![code]].concat())
                })
                .collect();
        }
        for codes in combos {
            let cell = (0..codes.len()).map(|d| codes[d] * strides[d]).sum();
            let part = (0..codes.len()).map(|d| codes[d] / chunks[d] * part_strides[d]).sum();
            triples.push((part, cell, fact));
        }
    }
    triples.sort_unstable();

    let mut partitions: Vec<Partition> = Vec::new();
    let mut samples =
        capacity.map(|capacity| SampleSet { capacity, seed, ..Default::default() });
    for (i, &(part, cell, _)) in triples.iter().enumerate() {
        if i == 0 || triples[i - 1].0 != part {
            let coords = (0..n_chunks.len())
                .map(|d| (part / part_strides[d] % n_chunks[d]) as u32)
                .collect();
            partitions.push(Partition { coords, cells: Vec::new() });
        }
        if i > 0 && triples[i - 1].1 == cell {
            continue;
        }
        let facts: Vec<u32> =
            triples[i..].iter().take_while(|t| t.1 == cell).map(|t| t.2).collect();
        if let Some(samples) = samples.as_mut() {
            let mut sample = facts.clone();
            sample.sort_by_key(|&f| priority(seed, f));
            sample.truncate(samples.capacity);
            samples.groups.insert(cell, (sample, facts.len() as u64));
        }
        partitions.last_mut().unwrap().cells.push((cell, Bitmap::from_sorted(&facts)));
    }
    Translation { partitions, strides, samples }
}

/// 1/2/8 workers, plus `SPADE_TEST_THREADS` when set (CI pins 8).
fn thread_sweep() -> Vec<usize> {
    let mut sweep = vec![1usize, 2, 8];
    if let Some(n) = std::env::var("SPADE_TEST_THREADS").ok().and_then(|v| v.parse().ok()) {
        if !sweep.contains(&n) {
            sweep.push(n);
        }
    }
    sweep
}

fn translate(
    spec: &CubeSpec<'_>,
    lattice: &Lattice,
    capacity: Option<usize>,
    threads: usize,
) -> Translation {
    ExecCtx::unbounded(threads, |cx| translate_in(spec, lattice, capacity, 7, cx))
}

/// `translate_in` equals the reference at every sample size and thread
/// count.
fn assert_matches_reference(
    spec: &CubeSpec<'_>,
    lattice: &Lattice,
) -> Result<(), TestCaseError> {
    for capacity in [None, Some(1), Some(16)] {
        let expected = reference(spec, lattice, capacity, 7);
        for threads in thread_sweep() {
            let actual = translate(spec, lattice, capacity, threads);
            prop_assert!(
                actual == expected,
                "chunks {:?}, capacity {:?}, {} threads: {:?}\n  vs reference {:?}",
                lattice.chunks,
                capacity,
                threads,
                actual,
                expected
            );
        }
    }
    Ok(())
}

/// A column from per-fact value codes; labels sort as their codes do.
fn column(name: &str, rows: &[Vec<u32>]) -> CategoricalColumn {
    let labels: Vec<Vec<String>> =
        rows.iter().map(|r| r.iter().map(|c| format!("v{c:06}")).collect()).collect();
    let refs: Vec<Vec<&str>> =
        labels.iter().map(|r| r.iter().map(String::as_str).collect()).collect();
    CategoricalColumn::from_rows(name, &refs)
}

/// A lattice over `spec`'s own domains, `None` chunking a dimension whole.
fn lattice_of(spec: &CubeSpec<'_>, chunk: Option<u32>) -> Lattice {
    let domains = spec.domain_sizes();
    let chunks = vec![chunk.unwrap_or(u32::MAX); domains.len()];
    Lattice::new(domains, chunks)
}

/// Bits of the packed key space, `Π n_chunks × Π chunk`.
fn key_bits(lattice: &Lattice) -> u32 {
    let space: u128 = lattice
        .domains
        .iter()
        .zip(&lattice.chunks)
        .map(|(&d, &c)| d.div_ceil(c) as u128 * c as u128)
        .product();
    u128::BITS - (space - 1).leading_zeros()
}

/// Per dimension, per fact, a set of value codes: multi-valued facts,
/// missing values and facts with no value at all.
fn raw_dims() -> impl Strategy<Value = Vec<Vec<Vec<u32>>>> {
    (1usize..=4, 0usize..=40).prop_flat_map(|(n_dims, n_facts)| {
        let codes = prop::collection::btree_set(0u32..7, 0..=3)
            .prop_map(|set| set.into_iter().collect::<Vec<u32>>());
        prop::collection::vec(prop::collection::vec(codes, n_facts), n_dims)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn placement_equals_the_comparison_sort(dims in raw_dims()) {
        let n_facts = dims[0].len();
        let columns: Vec<CategoricalColumn> =
            dims.iter().enumerate().map(|(d, rows)| column(&format!("d{d}"), rows)).collect();
        let spec = CubeSpec::new(columns.iter().collect(), vec![], n_facts);
        for chunk in [Some(1), Some(2), Some(3), Some(5), None] {
            assert_matches_reference(&spec, &lattice_of(&spec, chunk))?;
        }
    }
}

/// `n` facts, value `f * step % values` on each dimension, some facts
/// multi-valued, some missing a dimension, some missing all.
fn spread(n: u32, values: &[u32]) -> Vec<CategoricalColumn> {
    values
        .iter()
        .enumerate()
        .map(|(d, &v)| {
            let rows: Vec<Vec<u32>> = (0..n)
                .map(|f| match f {
                    f if f.is_multiple_of(23) => vec![],
                    f if (f + d as u32).is_multiple_of(11) => vec![],
                    f if f.is_multiple_of(7) => vec![f % v, (f * 31 + 1) % v],
                    f => vec![(f * (2 * d as u32 + 13)) % v],
                })
                .map(|mut r| {
                    r.sort_unstable();
                    r.dedup();
                    r
                })
                .collect();
            column(&format!("d{d}"), &rows)
        })
        .collect()
}

#[test]
fn key_spaces_of_one_two_and_more_byte_digits() {
    for (values, bytes) in [(vec![3u32, 4], 1u32), (vec![20, 30], 2), (vec![300, 300], 3)] {
        let columns = spread(2_000, &values);
        let spec = CubeSpec::new(columns.iter().collect(), vec![], 2_000);
        for chunk in [Some(3), None] {
            let lattice = lattice_of(&spec, chunk);
            assert_eq!(key_bits(&lattice).div_ceil(8), bytes, "{values:?}, chunk {chunk:?}");
            assert_matches_reference(&spec, &lattice).unwrap();
        }
    }
}

#[test]
fn several_fact_chunks_concatenate_in_fact_order() {
    // Over 8 192 facts, so generation runs in more than one work item.
    let columns = spread(20_000, &[40, 9, 5]);
    let spec = CubeSpec::new(columns.iter().collect(), vec![], 20_000);
    for chunk in [Some(4), None] {
        assert_matches_reference(&spec, &lattice_of(&spec, chunk)).unwrap();
    }
}

#[test]
fn a_digit_every_key_shares_is_skipped() {
    // High byte shared: `a` is one value everywhere, `b` spans 200, so
    // every key is `b`'s code below 256 in a 402-key space.
    let a = column("a", &vec![vec![0]; 400]);
    let b = column("b", &(0..400).map(|f| vec![f % 200]).collect::<Vec<_>>());
    let spec = CubeSpec::new(vec![&a, &b], vec![], 400);
    let lattice = lattice_of(&spec, None);
    assert_eq!(key_bits(&lattice), 9);
    assert_matches_reference(&spec, &lattice).unwrap();

    // Low byte shared: a lattice wider than its columns puts `b`'s one
    // value at code 0 of a 256-value axis, so every key is a multiple of
    // 256 and only the second pass moves entries.
    let a = column("a", &(0..400).map(|f| vec![f % 5]).collect::<Vec<_>>());
    let b = column("b", &vec![vec![0]; 400]);
    let spec = CubeSpec::new(vec![&a, &b], vec![], 400);
    let lattice = Lattice::new(vec![6, 256], vec![6, 256]);
    assert!(translate(&spec, &lattice, None, 1)
        .partitions
        .iter()
        .flat_map(|p| &p.cells)
        .all(|(cell, _)| cell % 256 == 0));
    assert_matches_reference(&spec, &lattice).unwrap();
}

#[test]
fn a_lattice_with_no_entries() {
    for n_facts in [5u32, 0] {
        let empty = column("a", &vec![vec![]; n_facts as usize]);
        let spec = CubeSpec::new(vec![&empty, &empty], vec![], n_facts as usize);
        let lattice = Lattice::new(vec![4, 4], vec![2, 2]);
        let t = translate(&spec, &lattice, Some(4), 1);
        assert!(t.partitions.is_empty());
        assert_eq!(t.samples.map(|s| s.groups.len()), Some(0));
        assert_matches_reference(&spec, &lattice).unwrap();
    }
}

#[test]
fn a_sparse_cell_space_near_the_u64_limit() {
    // Two axes of ~2^32 values: the null code sits at the top of each, so
    // a handful of facts spread over every byte of the key.
    let rows = [vec![0], vec![1, 2], vec![], vec![2], vec![], vec![0]];
    let a = column("a", &rows);
    let b = column("b", &[vec![1], vec![], vec![0, 2], vec![], vec![], vec![2]]);
    let spec = CubeSpec::new(vec![&a, &b], vec![], rows.len());

    let whole = Lattice::new(vec![u32::MAX, u32::MAX], vec![u32::MAX, u32::MAX]);
    assert_eq!(key_bits(&whole), 64);
    // One partition, so each key is its cell index: every byte varies, so
    // every one of the eight passes moves entries.
    let cells: Vec<u64> =
        translate(&spec, &whole, None, 1).partitions[0].cells.iter().map(|c| c.0).collect();
    for byte in 0..8 {
        let digit = |cell: &u64| cell >> (8 * byte) & 0xFF;
        assert!(cells.iter().any(|c| digit(c) != digit(&cells[0])), "byte {byte} is shared");
    }
    assert_matches_reference(&spec, &whole).unwrap();

    let chunked = Lattice::new(vec![1 << 31, 1 << 31], vec![3, 5]);
    assert_eq!(key_bits(&chunked), 63);
    assert_matches_reference(&spec, &chunked).unwrap();
}

#[test]
#[should_panic(expected = "cell space too large")]
fn a_key_space_past_u64_is_refused() {
    let a = column("a", &[vec![0]]);
    let spec = CubeSpec::new(vec![&a, &a, &a], vec![], 1);
    translate(&spec, &Lattice::new(vec![u32::MAX; 3], vec![u32::MAX; 3]), None, 1);
}
