//! Property tests: the bitmap must agree with a `BTreeSet<u32>` reference
//! model under every operation it offers — including the in-place union
//! and the k-way fan-in — and after each op every chunk must sit in the
//! representation its cardinality prescribes ([`Bitmap::is_canonical`]).
//! Explicit cases pin the one representation switch (4 096 ↔ 4 097 values
//! in a chunk) and the chunk edge (65 535 / 65 536).

use proptest::prelude::*;
use spade_bitmap::Bitmap;
use std::collections::BTreeSet;

fn values() -> impl Strategy<Value = Vec<u32>> {
    // Mix of small clustered values and scattered large values
    // (exercising many chunks).
    prop::collection::vec(prop_oneof![0u32..10_000, 60_000u32..70_000, any::<u32>()], 0..600)
}

/// Contiguous blocks — the shape that fills chunks past the array
/// threshold. Each `(start, len)` pair contributes the range
/// `start..start+len`; blocks may overlap, merge, and straddle chunk
/// boundaries.
fn blocks() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec((0u32..200_000, 1u32..3_000), 0..8).prop_map(|ranges| {
        ranges.into_iter().flat_map(|(start, len)| start..start.saturating_add(len)).collect()
    })
}

/// Either shape, so every binary-op test sees array×bitset operand mixes.
fn mixed() -> impl Strategy<Value = Vec<u32>> {
    prop_oneof![
        values().boxed(),
        blocks().boxed(),
        (values(), blocks())
            .prop_map(|(mut v, b)| {
                v.extend(b);
                v
            })
            .boxed(),
    ]
}

fn model_of(vals: &[u32]) -> BTreeSet<u32> {
    vals.iter().copied().collect()
}

/// `bm` is canonical and holds exactly `model`, by every read path.
fn assert_models(bm: &Bitmap, model: &BTreeSet<u32>) {
    let expect: Vec<u32> = model.iter().copied().collect();
    assert!(bm.is_canonical());
    assert_eq!(bm.cardinality(), expect.len() as u64);
    assert_eq!(bm.is_empty(), expect.is_empty());
    assert_eq!(bm.to_vec(), expect);
    assert_eq!(bm.iter().collect::<Vec<_>>(), expect);
    assert_eq!(bm.into_iter().collect::<Vec<_>>(), expect);
    // Structural equality with the one-shot sorted build: equal sets
    // built by different paths compare `==`.
    assert_eq!(bm, &Bitmap::from_sorted(&expect));
}

proptest! {
    #[test]
    fn matches_btreeset_model(a in mixed(), b in mixed()) {
        let set_a = model_of(&a);
        let set_b = model_of(&b);
        let bm_a = Bitmap::from_iter(a.iter().copied());
        let bm_b = Bitmap::from_iter(b.iter().copied());
        assert_models(&bm_a, &set_a);
        for &v in a.iter().chain(&b) {
            prop_assert_eq!(bm_a.contains(v), set_a.contains(&v));
            prop_assert_eq!(bm_b.contains(v ^ 1), set_b.contains(&(v ^ 1)));
        }

        assert_models(&bm_a.union(&bm_b), &set_a.union(&set_b).copied().collect());

        let inter: BTreeSet<u32> = set_a.intersection(&set_b).copied().collect();
        assert_models(&bm_a.intersect(&bm_b), &inter);
        prop_assert_eq!(bm_a.intersect_len(&bm_b), inter.len() as u64);
    }

    #[test]
    fn in_place_union_matches_owned(a in mixed(), b in mixed()) {
        let bm_a = Bitmap::from_iter(a.iter().copied());
        let bm_b = Bitmap::from_iter(b.iter().copied());

        let mut u = bm_a.clone();
        u.union_with(&bm_b);
        prop_assert!(u.is_canonical());
        // Canonicality makes this full structural equality, not just
        // same-set equality.
        prop_assert_eq!(&u, &bm_a.union(&bm_b));
    }

    #[test]
    fn kway_union_matches_fold(base in mixed(), sources in prop::collection::vec(mixed(), 0..5)) {
        let bm_base = Bitmap::from_iter(base.iter().copied());
        let bms: Vec<Bitmap> =
            sources.iter().map(|s| Bitmap::from_iter(s.iter().copied())).collect();
        let refs: Vec<&Bitmap> = bms.iter().collect();

        let mut kway = bm_base.clone();
        kway.union_with_all(&refs);

        let mut folded = bm_base;
        for r in &refs {
            folded.union_with(r);
        }
        prop_assert_eq!(&kway, &folded);

        let mut model = model_of(&base);
        for s in &sources {
            model.extend(s.iter().copied());
        }
        assert_models(&kway, &model);
    }

    #[test]
    fn insert_sequences(ops in prop::collection::vec(0u32..50_000, 0..800)) {
        let mut bm = Bitmap::new();
        let mut model = BTreeSet::new();
        for v in ops {
            prop_assert_eq!(bm.insert(v), model.insert(v));
            prop_assert!(bm.is_canonical());
        }
        assert_models(&bm, &model);
    }

    #[test]
    fn construction_paths_agree(vals in mixed()) {
        let via_insert = Bitmap::from_iter(vals.iter().copied());
        let via_trait: Bitmap = vals.iter().copied().collect();
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let via_sorted = Bitmap::from_sorted(&sorted);
        let via_iter = Bitmap::from_sorted_iter(sorted.iter().copied());
        let mut scratch = Vec::new();
        let via_scratch = Bitmap::from_sorted_iter_in(sorted.iter().copied(), &mut scratch);
        // Canonical representation is a pure function of the set, so all
        // construction paths yield structurally identical bitmaps.
        prop_assert!(via_insert.is_canonical());
        prop_assert!(via_sorted.is_canonical());
        prop_assert_eq!(&via_insert, &via_trait);
        prop_assert_eq!(&via_insert, &via_sorted);
        prop_assert_eq!(&via_insert, &via_iter);
        prop_assert_eq!(&via_insert, &via_scratch);
        // And decode round-trips, appending to what `out` already holds.
        let mut out = vec![7];
        via_insert.decode_into(&mut out);
        prop_assert_eq!(out[0], 7);
        prop_assert_eq!(&out[1..], &sorted[..]);
    }

    #[test]
    fn union_is_commutative_associative(a in mixed(), b in mixed(), c in mixed()) {
        let (ba, bb, bc) = (
            Bitmap::from_iter(a.iter().copied()),
            Bitmap::from_iter(b.iter().copied()),
            Bitmap::from_iter(c.iter().copied()),
        );
        prop_assert_eq!(ba.union(&bb), bb.union(&ba));
        prop_assert_eq!(ba.union(&bb).union(&bc), ba.union(&bb.union(&bc)));
        // Idempotence — unioning a parent cell into a child twice must not
        // change the member set (fact consolidation safety).
        prop_assert_eq!(ba.union(&ba), ba);
    }
}

/// The largest array container and the smallest bitset container.
const AT: usize = 4096;
const OVER: usize = 4097;

/// `n` values of stride `step` from `start`, all inside chunk 1 — scattered
/// for `step > 1`, one interval for `step == 1`.
fn chunk1(start: u32, step: usize, n: usize) -> Vec<u32> {
    (start..).step_by(step).take(n).map(|v| 65_536 + v).collect()
}

#[test]
fn insert_crosses_the_threshold() {
    for step in [1, 3] {
        let vals = chunk1(0, step, OVER + 1);
        let mut bm = Bitmap::new();
        let mut model = BTreeSet::new();
        for (n, &v) in vals.iter().enumerate() {
            assert!(bm.insert(v) && model.insert(v));
            assert!(!bm.insert(v));
            if n + 1 >= AT - 1 {
                // 4 095, 4 096 (last array), 4 097 (first bitset), 4 098.
                assert_models(&bm, &model);
            }
        }
        // Out-of-order inserts reach the same bitmap.
        assert_eq!(bm, Bitmap::from_iter(vals.iter().rev().copied()));
    }
}

#[test]
fn union_with_crosses_the_threshold() {
    let evens = chunk1(0, 2, AT / 2);
    for total in [AT, OVER] {
        let odds = chunk1(1, 2, total - AT / 2);
        let (a, b) = (Bitmap::from_sorted(&evens), Bitmap::from_sorted(&odds));
        let model: BTreeSet<u32> = evens.iter().chain(&odds).copied().collect();
        assert_eq!(model.len(), total);
        for (x, y) in [(&a, &b), (&b, &a)] {
            let mut u = x.clone();
            u.union_with(y);
            assert_models(&u, &model);
            assert_models(&x.union(y), &model);
            // Absorbing an operand again changes nothing, whichever kind
            // the union landed in (array ∪ array, bitset ∪ array).
            u.union_with(x);
            assert_models(&u, &model);
            // … and the result absorbed into an operand (array ∪ bitset).
            let mut back = x.clone();
            back.union_with(&u);
            assert_models(&back, &model);
        }
    }
    // bitset ∪ bitset.
    let (lo, hi) = (chunk1(0, 1, 5000), chunk1(3000, 2, 5000));
    let mut u = Bitmap::from_sorted(&lo);
    u.union_with(&Bitmap::from_sorted(&hi));
    assert_models(&u, &lo.iter().chain(&hi).copied().collect());
}

#[test]
fn union_with_all_crosses_the_threshold() {
    for total in [AT, OVER] {
        // Three overlapping array parts whose lengths sum past the
        // threshold while their union has exactly `total` values, plus a
        // neighbouring chunk only one source has.
        let all = chunk1(0, 5, total);
        let parts = [&all[..2000], &all[1000..3500], &all[3000..]];
        let mut sources: Vec<Bitmap> = parts.iter().map(|p| Bitmap::from_sorted(p)).collect();
        sources[1].insert(9);
        let mut model = model_of(&all);
        model.insert(9);
        for _ in 0..3 {
            sources.rotate_left(1);
            let (base, rest) = sources.split_first().expect("three sources");
            let mut kway = base.clone();
            kway.union_with_all(&rest.iter().collect::<Vec<_>>());
            assert_models(&kway, &model);
            // A bitset (or full-array) accumulator absorbing arrays again.
            let mut again = kway.clone();
            again.union_with_all(&sources.iter().collect::<Vec<_>>());
            assert_models(&again, &model);
        }
    }
}

#[test]
fn intersect_crosses_the_threshold() {
    for total in [AT, OVER] {
        // Two bitset chunks sharing exactly `total` values.
        let shared = chunk1(0, 3, total);
        let only_a = chunk1(1, 3, 1000);
        let only_b = chunk1(2, 3, 1000);
        let a = Bitmap::from_iter(shared.iter().chain(&only_a).copied());
        let b = Bitmap::from_iter(shared.iter().chain(&only_b).copied());
        let model = model_of(&shared);
        for (x, y) in [(&a, &b), (&b, &a)] {
            assert_models(&x.intersect(y), &model);
            assert_eq!(x.intersect_len(y), total as u64);
        }
        // Against the intersection itself: array ∩ bitset in both orders at
        // 4 096, bitset ∩ bitset at 4 097.
        let i = a.intersect(&b);
        for (x, y) in [(&i, &a), (&a, &i)] {
            assert_models(&x.intersect(y), &model);
            assert_eq!(x.intersect_len(y), total as u64);
        }
    }
}

#[test]
fn chunk_edge() {
    // 65 535 is the last bit of chunk 0, 65 536 the first of chunk 1 — in
    // array containers and, for the dense sets, in bitset containers.
    let sparse = vec![0, 65_534, 65_535, 65_536, 65_537, 131_071, 131_072];
    let dense: Vec<u32> = (60_000..72_000).collect();
    for vals in [sparse, dense] {
        let model = model_of(&vals);
        let bm = Bitmap::from_iter(vals.iter().rev().copied());
        assert_models(&bm, &model);
        for v in [65_533, 65_534, 65_535, 65_536, 65_537, 65_538] {
            assert_eq!(bm.contains(v), model.contains(&v), "contains({v})");
        }
        let low = Bitmap::from_iter(vals.iter().copied().filter(|&v| v <= 65_535));
        let high = Bitmap::from_iter(vals.iter().copied().filter(|&v| v >= 65_535));
        assert_models(&low.union(&high), &model);
        assert_models(&low.intersect(&high), &BTreeSet::from([65_535]));
        assert_eq!(low.intersect_len(&high), 1);
        let mut kway = Bitmap::new();
        kway.union_with_all(&[&high, &low, &high]);
        assert_models(&kway, &model);
    }
    let mut bm = Bitmap::new();
    assert!(bm.insert(65_536) && bm.insert(65_535) && !bm.insert(65_536));
    assert_models(&bm, &BTreeSet::from([65_535, 65_536]));
}
