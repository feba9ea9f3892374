//! Roaring-style compressed bitmaps.
//!
//! MVDCube (the paper's Section 4.3) stores, in every cube cell, the *set of
//! candidate facts* that fall into that cell, encoded as a Roaring Bitmap
//! [Lemire et al., 2016]. Bitmaps are unioned (`OR`) as dimensions are
//! projected away down the MMST, which is exactly what consolidates a fact
//! that occupies several parent cells into a single child-cell membership —
//! the correctness core of the algorithm.
//!
//! This crate is a from-scratch implementation sized to that traffic:
//! two Roaring container kinds, keyed by the high 16 bits of the 32-bit
//! value, and the operations the engine and the MFS miner call.
//!
//! * an **array container** (sorted `Vec<u16>`, `2·card` bytes) while a
//!   chunk holds at most 4 096 values, and
//! * a **bitset container** (`[u64; 1024]`, fixed 8 KiB) above that.
//!
//! The canonical rule is a function of cardinality alone, re-applied by
//! every op that can change it. Because the choice depends only on the
//! set — never on the op sequence that produced it — equal bitmaps always
//! have identical representations, so derived equality is exact set
//! equality and the engine's plan-invariance guarantee holds for any mix
//! of container kinds.
//!
//! The switch point is where the two costs meet (4 096 × 2 B = 8 KiB), so
//! a chunk never costs more than 2 bytes per member — the bound of the
//! paper's memory analysis (Section 4.3: `2·Z` bytes plus a per-chunk
//! overhead for `Z` integers). Roaring's third kind, the run container,
//! only improves on that for long intervals of consecutive ids; the
//! finished cells of the pinned workloads hold a handful of such chunks
//! among thousands, so it is not carried.
//!
//! Binary ops run container-at-a-time; the kernel that fires depends on
//! the operand-representation pair:
//!
//! | self \ other | Array                            | Bitset                         |
//! |--------------|----------------------------------|--------------------------------|
//! | **Array**    | two-pointer merge, or *galloping* (exponential search) when intersecting sizes skewed ≥16× | per-element bit probe |
//! | **Bitset**   | bit scatter / probe              | word-at-a-time `u64` loops with the result's popcount |
//!
//! The word-at-a-time loops are plain fixed-length `u64` passes with no
//! per-bit branches, shaped for autovectorization. The in-place unions
//! ([`Bitmap::union_with`], [`Bitmap::union_with_all`] k-way fan-in)
//! recycle allocations across the engine's merge cascade.
//!
//! The public type [`Bitmap`] offers what Spade needs: construction from
//! sorted or unsorted ids, insert, contains, union, intersection (and its
//! cardinality alone, for support counting), cardinality, and decoding in
//! increasing order.
//!
//! # Public surface
//!
//! Every public item has a caller outside this crate, except five test
//! hooks: [`Bitmap::from_sorted`], [`Bitmap::insert`], [`Bitmap::contains`],
//! [`Bitmap::is_empty`] and [`Bitmap::is_canonical`]. The property suite
//! (`tests/prop.rs`) and `spade-cube`'s unit tests check both containers
//! against a sorted-set model through them.

mod container;
mod kernels;

use container::Container;

/// A compressed bitmap over `u32` values.
///
/// Chunks (keyed by the high 16 bits) are kept sorted, each holding an
/// array or bitset container for the low 16 bits.
///
/// ```
/// use spade_bitmap::Bitmap;
/// let mut bm = Bitmap::new();
/// bm.insert(3);
/// bm.insert(100_000);
/// assert!(bm.contains(3));
/// assert_eq!(bm.cardinality(), 2);
/// assert_eq!(bm.iter().collect::<Vec<_>>(), vec![3, 100_000]);
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Bitmap {
    /// Sorted high-16-bit keys, parallel to `containers`.
    keys: Vec<u16>,
    containers: Vec<Container>,
}

#[inline]
fn split(value: u32) -> (u16, u16) {
    ((value >> 16) as u16, (value & 0xFFFF) as u16)
}

#[inline]
fn join(key: u16, low: u16) -> u32 {
    ((key as u32) << 16) | low as u32
}

impl Bitmap {
    /// Creates an empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a bitmap from an iterator of values (any order, duplicates ok).
    /// Also available through the `FromIterator` trait; the inherent method
    /// keeps call sites short (`Bitmap::from_iter(..)`).
    #[allow(clippy::should_implement_trait)]
    pub(crate) fn from_iter<I: IntoIterator<Item = u32>>(values: I) -> Self {
        let mut bm = Self::new();
        for v in values {
            bm.insert(v);
        }
        bm
    }

    /// Builds from a sorted, deduplicated slice. Faster than repeated insert.
    pub fn from_sorted(values: &[u32]) -> Self {
        let mut scratch = Vec::new();
        Self::from_sorted_iter_in(values.iter().copied(), &mut scratch)
    }

    /// Builds from a strictly ascending iterator of values without
    /// collecting them first.
    pub fn from_sorted_iter<I: IntoIterator<Item = u32>>(values: I) -> Self {
        let mut scratch = Vec::new();
        Self::from_sorted_iter_in(values, &mut scratch)
    }

    /// Hot-path variant of [`Bitmap::from_sorted_iter`] that reuses a
    /// caller-owned low-bits scratch buffer, so a loop constructing many
    /// bitmaps (e.g. one per cube cell) allocates the buffer once.
    pub fn from_sorted_iter_in<I: IntoIterator<Item = u32>>(
        values: I,
        scratch: &mut Vec<u16>,
    ) -> Self {
        let mut bm = Self::new();
        scratch.clear();
        let mut cur_key: Option<u16> = None;
        let mut last: Option<u32> = None;
        for v in values {
            debug_assert!(last.is_none_or(|p| p < v), "input must be strictly sorted");
            last = Some(v);
            let (key, low) = split(v);
            if cur_key != Some(key) {
                if let Some(k) = cur_key {
                    bm.keys.push(k);
                    bm.containers.push(Container::from_sorted_lows(scratch));
                }
                scratch.clear();
                cur_key = Some(key);
            }
            scratch.push(low);
        }
        if let Some(k) = cur_key {
            bm.keys.push(k);
            bm.containers.push(Container::from_sorted_lows(scratch));
        }
        bm
    }

    /// Inserts `value`; returns `true` if it was not already present.
    pub fn insert(&mut self, value: u32) -> bool {
        let (key, low) = split(value);
        match self.keys.binary_search(&key) {
            Ok(pos) => self.containers[pos].insert(low),
            Err(pos) => {
                self.keys.insert(pos, key);
                self.containers.insert(pos, Container::singleton(low));
                true
            }
        }
    }

    /// Membership test.
    pub fn contains(&self, value: u32) -> bool {
        let (key, low) = split(value);
        match self.keys.binary_search(&key) {
            Ok(pos) => self.containers[pos].contains(low),
            Err(_) => false,
        }
    }

    /// Number of set values.
    pub fn cardinality(&self) -> u64 {
        self.containers.iter().map(|c| c.cardinality() as u64).sum()
    }

    /// `true` when no value is set.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// In-place union: `self |= other`. This is the hot operation of
    /// MVDCube's bitmap propagation (Algorithm 1, line 9).
    pub fn union_with(&mut self, other: &Bitmap) {
        let mut out_keys = Vec::with_capacity(self.keys.len() + other.keys.len());
        let mut out_containers = Vec::with_capacity(out_keys.capacity());
        let (mut i, mut j) = (0, 0);
        while i < self.keys.len() && j < other.keys.len() {
            match self.keys[i].cmp(&other.keys[j]) {
                std::cmp::Ordering::Less => {
                    out_keys.push(self.keys[i]);
                    out_containers.push(std::mem::take(&mut self.containers[i]));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out_keys.push(other.keys[j]);
                    out_containers.push(other.containers[j].clone());
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    let mut c = std::mem::take(&mut self.containers[i]);
                    c.union_with(&other.containers[j]);
                    out_keys.push(self.keys[i]);
                    out_containers.push(c);
                    i += 1;
                    j += 1;
                }
            }
        }
        while i < self.keys.len() {
            out_keys.push(self.keys[i]);
            out_containers.push(std::mem::take(&mut self.containers[i]));
            i += 1;
        }
        while j < other.keys.len() {
            out_keys.push(other.keys[j]);
            out_containers.push(other.containers[j].clone());
            j += 1;
        }
        self.keys = out_keys;
        self.containers = out_containers;
    }

    /// Unions several bitmaps into `self` in one k-way pass. Equivalent to
    /// calling [`Bitmap::union_with`] for each, but each chunk is merged
    /// once instead of re-merged (and re-allocated) per source — the
    /// cube engine's fan-in path, where one child cell absorbs every
    /// parent cell projecting onto it.
    pub fn union_with_all(&mut self, others: &[&Bitmap]) {
        match others {
            [] => return,
            [one] => return self.union_with(one),
            _ => {}
        }
        /// Where a chunk comes from: `self` (owned, movable) or a source
        /// bitmap (borrowed).
        enum Src<'a> {
            Own(usize),
            Other(&'a Container),
        }
        let own_keys = std::mem::take(&mut self.keys);
        let mut own_slots: Vec<Option<Container>> =
            std::mem::take(&mut self.containers).into_iter().map(Some).collect();
        let mut refs: Vec<(u16, Src<'_>)> =
            own_keys.iter().enumerate().map(|(i, &k)| (k, Src::Own(i))).collect();
        for other in others {
            refs.extend(
                other.keys.iter().copied().zip(other.containers.iter().map(Src::Other)),
            );
        }
        refs.sort_by_key(|(k, _)| *k);
        let mut i = 0;
        while i < refs.len() {
            let key = refs[i].0;
            let run_len = refs[i..].iter().take_while(|(k, _)| *k == key).count();
            let container = if run_len == 1 {
                // A chunk no one else shares: move our own, clone a source's.
                match &refs[i].1 {
                    Src::Own(idx) => own_slots[*idx].take().expect("own chunk taken once"),
                    Src::Other(c) => (*c).clone(),
                }
            } else {
                let group: Vec<&Container> = refs[i..i + run_len]
                    .iter()
                    .map(|(_, s)| match s {
                        Src::Own(idx) => own_slots[*idx].as_ref().expect("own chunk present"),
                        Src::Other(c) => *c,
                    })
                    .collect();
                Container::union_many(&group)
            };
            self.keys.push(key);
            self.containers.push(container);
            i += run_len;
        }
    }

    /// Owned union.
    pub fn union(&self, other: &Bitmap) -> Bitmap {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// Owned intersection.
    pub fn intersect(&self, other: &Bitmap) -> Bitmap {
        let mut out = Bitmap::new();
        let (mut i, mut j) = (0, 0);
        while i < self.keys.len() && j < other.keys.len() {
            match self.keys[i].cmp(&other.keys[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let c = self.containers[i].intersect(&other.containers[j]);
                    if !c.is_empty() {
                        out.keys.push(self.keys[i]);
                        out.containers.push(c);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    /// Cardinality of the intersection without materializing it. Used by the
    /// maximal-frequent-itemset miner for support counting.
    pub fn intersect_len(&self, other: &Bitmap) -> u64 {
        let mut total = 0u64;
        let (mut i, mut j) = (0, 0);
        while i < self.keys.len() && j < other.keys.len() {
            match self.keys[i].cmp(&other.keys[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    total += self.containers[i].intersect_len(&other.containers[j]) as u64;
                    i += 1;
                    j += 1;
                }
            }
        }
        total
    }

    /// Iterates the set values in increasing order.
    pub fn iter(&self) -> BitmapIter<'_> {
        BitmapIter { bm: self, chunk: 0, inner: None }
    }

    /// Structural-invariant check (used by the property-test suite):
    /// keys strictly sorted, no empty chunks, and every container in the
    /// representation its cardinality prescribes, with a well-formed
    /// payload.
    pub fn is_canonical(&self) -> bool {
        self.keys.len() == self.containers.len()
            && self.keys.windows(2).all(|w| w[0] < w[1])
            && self.containers.iter().all(|c| !c.is_empty() && c.is_canonical())
    }

    /// Collects the values into a `Vec` (ascending).
    pub fn to_vec(&self) -> Vec<u32> {
        let mut out = Vec::new();
        self.decode_into(&mut out);
        out
    }

    /// Appends all values (ascending) to `out` without clearing it —
    /// container-at-a-time, much faster than the value-at-a-time iterator
    /// on hot paths that can reuse one scratch buffer.
    pub fn decode_into(&self, out: &mut Vec<u32>) {
        out.reserve(self.cardinality() as usize);
        for (&key, container) in self.keys.iter().zip(&self.containers) {
            let high = (key as u32) << 16;
            match container {
                Container::Array(values) => {
                    out.extend(values.iter().map(|&low| high | low as u32));
                }
                Container::Bitset(bs) => {
                    for (w, &word) in bs.words().iter().enumerate() {
                        let mut bits = word;
                        while bits != 0 {
                            let b = bits.trailing_zeros();
                            out.push(high | ((w as u32) << 6) | b);
                            bits &= bits - 1;
                        }
                    }
                }
            }
        }
    }
}

impl std::fmt::Debug for Bitmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let card = self.cardinality();
        if card <= 16 {
            write!(f, "Bitmap{:?}", self.to_vec())
        } else {
            write!(f, "Bitmap{{card={}, chunks={}}}", card, self.keys.len())
        }
    }
}

impl FromIterator<u32> for Bitmap {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        Bitmap::from_iter(iter)
    }
}

impl<'a> IntoIterator for &'a Bitmap {
    type Item = u32;
    type IntoIter = BitmapIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Ascending iterator over a [`Bitmap`].
pub struct BitmapIter<'a> {
    bm: &'a Bitmap,
    chunk: usize,
    inner: Option<container::ContainerIter<'a>>,
}

impl<'a> Iterator for BitmapIter<'a> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        loop {
            if let Some(inner) = &mut self.inner {
                if let Some(low) = inner.next() {
                    return Some(join(self.bm.keys[self.chunk - 1], low));
                }
                self.inner = None;
            }
            if self.chunk >= self.bm.containers.len() {
                return None;
            }
            self.inner = Some(self.bm.containers[self.chunk].iter());
            self.chunk += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains() {
        let mut bm = Bitmap::new();
        assert!(bm.is_empty());
        assert!(bm.insert(42));
        assert!(!bm.insert(42));
        assert!(bm.contains(42));
        assert!(!bm.contains(41));
        assert!(!bm.is_empty());
    }

    #[test]
    fn cross_chunk_values() {
        let mut bm = Bitmap::new();
        for v in [0u32, 65_535, 65_536, 1 << 20, u32::MAX] {
            bm.insert(v);
        }
        assert_eq!(bm.cardinality(), 5);
        assert_eq!(bm.to_vec(), vec![0, 65_535, 65_536, 1 << 20, u32::MAX]);
    }

    #[test]
    fn dense_chunks_become_bitsets() {
        // Scattered or contiguous, the representation follows cardinality.
        let mut scattered = Bitmap::new();
        for v in (0..20_000u32).step_by(2) {
            scattered.insert(v);
        }
        let contiguous = Bitmap::from_sorted_iter(0..10_000u32);
        for bm in [&scattered, &contiguous] {
            assert!(matches!(bm.containers[..], [Container::Bitset(_)]));
            assert_eq!(bm.cardinality(), 10_000);
            assert!(bm.is_canonical());
        }
        for v in (0..20_000).step_by(14) {
            assert!(scattered.contains(v));
        }
        assert_eq!(contiguous.to_vec(), (0..10_000u32).collect::<Vec<_>>());
    }

    #[test]
    fn union_models_fact_consolidation() {
        // The Lemma-1 scenario: one fact (id 7) sits in two parent cells;
        // OR-ing the parent bitmaps into the child keeps it a single member.
        let a = Bitmap::from_iter([7u32]);
        let b = Bitmap::from_iter([7u32]);
        let child = a.union(&b);
        assert_eq!(child.cardinality(), 1);
    }

    #[test]
    fn union_disjoint_and_overlapping() {
        let a = Bitmap::from_iter([1u32, 5, 100_000]);
        let b = Bitmap::from_iter([2u32, 5, 200_000]);
        let u = a.union(&b);
        assert_eq!(u.to_vec(), vec![1, 2, 5, 100_000, 200_000]);
    }

    #[test]
    fn intersect_and_its_cardinality() {
        let a = Bitmap::from_iter(0..100u32);
        let b = Bitmap::from_iter(50..150u32);
        assert_eq!(a.intersect(&b).to_vec(), (50..100).collect::<Vec<_>>());
        assert_eq!(a.intersect_len(&b), 50);
    }

    #[test]
    fn from_sorted_matches_inserts() {
        let values: Vec<u32> = (0..5000).map(|i| i * 13).collect();
        let a = Bitmap::from_sorted(&values);
        let b = Bitmap::from_iter(values.iter().copied());
        assert_eq!(a, b);
    }

    #[test]
    fn iterator_is_sorted_across_chunks() {
        let mut bm = Bitmap::new();
        let mut values = vec![];
        for i in 0..2000u32 {
            let v = i.wrapping_mul(2_654_435_761) % 500_000;
            bm.insert(v);
            values.push(v);
        }
        values.sort_unstable();
        values.dedup();
        assert_eq!(bm.to_vec(), values);
    }
}

#[cfg(test)]
mod kway_tests {
    use super::*;

    /// Reference: fold pairwise `union_with` over the same inputs.
    fn pairwise(base: &Bitmap, others: &[&Bitmap]) -> Bitmap {
        let mut out = base.clone();
        for o in others {
            out.union_with(o);
        }
        out
    }

    fn bm(values: &[u32]) -> Bitmap {
        Bitmap::from_iter(values.iter().copied())
    }

    #[test]
    fn union_with_all_matches_pairwise_folds() {
        let cases: Vec<(Bitmap, Vec<Bitmap>)> = vec![
            // Overlapping single-chunk arrays.
            (bm(&[1, 5, 9]), vec![bm(&[2, 5]), bm(&[9, 10, 11]), bm(&[0])]),
            // Chunks unique to self, to one source, and shared.
            (bm(&[3, 70_000]), vec![bm(&[200_000, 200_001]), bm(&[70_001, 3])]),
            // Empty self, empty source.
            (Bitmap::new(), vec![bm(&[8, 9]), Bitmap::new(), bm(&[8])]),
            // Dense: cross the array→bitset threshold during the union.
            (
                Bitmap::from_iter(0..3000u32),
                vec![Bitmap::from_iter(2000..5000u32), Bitmap::from_iter(4000..4096u32)],
            ),
            // A source that is already a bitset container.
            (bm(&[1]), vec![Bitmap::from_iter(0..6000u32)]),
        ];
        for (i, (base, sources)) in cases.iter().enumerate() {
            let refs: Vec<&Bitmap> = sources.iter().collect();
            let mut kway = base.clone();
            kway.union_with_all(&refs);
            let folded = pairwise(base, &refs);
            assert_eq!(kway.to_vec(), folded.to_vec(), "case {i}: values");
            assert_eq!(kway.cardinality(), folded.cardinality(), "case {i}: cardinality");
            // Same representation choice as the pairwise path, so derived
            // equality agrees.
            assert!(kway.is_canonical(), "case {i}: representation");
            assert_eq!(kway, folded, "case {i}: full equality");
        }
    }

    #[test]
    fn union_with_all_trivial_arities() {
        let mut a = bm(&[1, 2]);
        a.union_with_all(&[]);
        assert_eq!(a.to_vec(), vec![1, 2]);
        let b = bm(&[2, 3]);
        a.union_with_all(&[&b]);
        assert_eq!(a.to_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn union_many_representation_thresholds() {
        // All-array, small, scattered: stays an array container.
        let small_a = Container::from_sorted_lows(&[1, 3, 5]);
        let small_b = Container::from_sorted_lows(&[5, 8]);
        let merged = Container::union_many(&[&small_a, &small_b]);
        assert!(matches!(merged, Container::Array(_)));
        assert_eq!(merged.cardinality(), 4);

        // All-array but summed length above the threshold with actual
        // cardinality below it: converts back to an array.
        let lows: Vec<u16> = (0..8000u16).step_by(2).collect();
        let dup = Container::from_sorted_lows(&lows);
        let dup2 = Container::from_sorted_lows(&lows);
        let merged = Container::union_many(&[&dup, &dup2]);
        assert!(matches!(merged, Container::Array(_)), "dedup below threshold");
        assert_eq!(merged.cardinality(), 4000);

        // Above the threshold for real, scattered or clustered: a bitset.
        let lo: Vec<u16> = (0..6000u16).step_by(2).collect();
        let hi: Vec<u16> = (5000..11_000u16).step_by(2).collect();
        let merged = Container::union_many(&[
            &Container::from_sorted_lows(&lo),
            &Container::from_sorted_lows(&hi),
        ]);
        assert!(matches!(merged, Container::Bitset(_)));
        assert_eq!(merged.cardinality(), 5500);

        let lo: Vec<u16> = (0..3000u16).collect();
        let hi: Vec<u16> = (2500..6000u16).collect();
        let merged = Container::union_many(&[
            &Container::from_sorted_lows(&lo),
            &Container::from_sorted_lows(&hi),
        ]);
        assert!(matches!(merged, Container::Bitset(_)));
        assert_eq!(merged.cardinality(), 6000);
        assert!(merged.is_canonical());
    }

    #[test]
    fn decode_into_appends_and_matches_iter() {
        // Mixed array + bitset chunks.
        let bm = Bitmap::from_iter((0..1234u32).chain(1235..5000).chain([70_000, 200_123]));
        let via_iter: Vec<u32> = bm.iter().collect();
        let mut out = vec![999u32]; // must append, not clear
        bm.decode_into(&mut out);
        assert_eq!(out[0], 999);
        assert_eq!(&out[1..], &via_iter[..]);
        assert_eq!(bm.to_vec(), via_iter);
    }
}
