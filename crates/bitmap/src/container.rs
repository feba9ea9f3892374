//! The two container kinds for one 16-bit chunk, and the canonical rule
//! that picks between them.
//!
//! A chunk is stored by cardinality alone:
//!
//! | representation | bytes | canonical when |
//! |---|---|---|
//! | sorted array | `2 × cardinality` | cardinality ≤ 4 096 |
//! | bitset | `8192` fixed | cardinality > 4 096 |
//!
//! Every op that can change a chunk's cardinality re-applies the rule
//! before it returns. Because the choice is a pure function of the *set*
//! (never of the op path that produced it), equal sets always have
//! identical representations: derived `PartialEq` is exact set equality,
//! and engine results stay bit-identical no matter how a cell was
//! assembled (plan invariance).
//!
//! The binary ops dispatch on the representation pair and call the
//! matching kernel from [`crate::kernels`]; see the crate docs for the
//! kernel table.

use crate::kernels;

/// Maximum cardinality of an array container: 4096 values × 2 bytes =
/// 8 KiB = the fixed bitset size.
pub(crate) const ARRAY_TO_BITSET_THRESHOLD: usize = 4096;

const BITSET_WORDS: usize = kernels::BITSET_WORDS;

/// One chunk's worth (low 16 bits) of values.
#[derive(Clone, PartialEq, Eq)]
pub(crate) enum Container {
    /// Sorted array of low values; canonical up to the threshold.
    Array(Vec<u16>),
    /// 65536-bit set with cached cardinality; canonical above it.
    Bitset(Box<BitsetContainer>),
}

/// Fixed 8 KiB bit set plus cached cardinality.
#[derive(Clone, PartialEq, Eq)]
pub(crate) struct BitsetContainer {
    words: [u64; BITSET_WORDS],
    cardinality: u32,
}

impl Default for Container {
    fn default() -> Self {
        Container::Array(Vec::new())
    }
}

impl BitsetContainer {
    fn new() -> Self {
        BitsetContainer { words: [0; BITSET_WORDS], cardinality: 0 }
    }

    /// The raw 64-bit words (for container-at-a-time decoding).
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    #[inline]
    fn set(&mut self, low: u16) -> bool {
        let (w, mask) = (low as usize >> 6, 1u64 << (low & 63));
        let added = self.words[w] & mask == 0;
        self.words[w] |= mask;
        self.cardinality += added as u32;
        added
    }

    #[inline]
    fn get(&self, low: u16) -> bool {
        self.words[low as usize >> 6] & (1u64 << (low & 63)) != 0
    }

    fn to_array(&self) -> Vec<u16> {
        let mut out = Vec::with_capacity(self.cardinality as usize);
        for (wi, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let b = w.trailing_zeros();
                out.push((wi * 64 + b as usize) as u16);
                w &= w - 1;
            }
        }
        out
    }
}

/// Canonical container from a bitset with a current cached cardinality.
fn from_bitset(bs: Box<BitsetContainer>) -> Container {
    if bs.cardinality as usize > ARRAY_TO_BITSET_THRESHOLD {
        Container::Bitset(bs)
    } else {
        Container::Array(bs.to_array())
    }
}

/// A bitset holding the given deduplicated low values.
fn bitset_of(lows: &[u16]) -> Box<BitsetContainer> {
    let mut bs = Box::new(BitsetContainer::new());
    kernels::scatter(lows, &mut bs.words);
    bs.cardinality = lows.len() as u32;
    bs
}

/// Canonical container from sorted deduplicated low values (any length).
fn from_lows(lows: Vec<u16>) -> Container {
    if lows.len() <= ARRAY_TO_BITSET_THRESHOLD {
        Container::Array(lows)
    } else {
        Container::Bitset(bitset_of(&lows))
    }
}

impl Container {
    pub(crate) fn singleton(low: u16) -> Self {
        Container::Array(vec![low])
    }

    /// Builds the canonical container from sorted, deduplicated low
    /// values.
    pub(crate) fn from_sorted_lows(lows: &[u16]) -> Self {
        if lows.len() <= ARRAY_TO_BITSET_THRESHOLD {
            Container::Array(lows.to_vec())
        } else {
            Container::Bitset(bitset_of(lows))
        }
    }

    /// True when this container holds the representation the cardinality
    /// rule prescribes *and* its payload is well-formed (array strictly
    /// sorted, cached bitset cardinality current) — the invariant every
    /// op restores. Checked by the property-test suite.
    pub(crate) fn is_canonical(&self) -> bool {
        match self {
            Container::Array(values) => {
                values.len() <= ARRAY_TO_BITSET_THRESHOLD
                    && values.windows(2).all(|w| w[0] < w[1])
            }
            Container::Bitset(bs) => {
                bs.cardinality as usize > ARRAY_TO_BITSET_THRESHOLD
                    && kernels::words_card(&bs.words) == bs.cardinality
            }
        }
    }

    pub(crate) fn insert(&mut self, low: u16) -> bool {
        match self {
            Container::Array(values) => match values.binary_search(&low) {
                Ok(_) => false,
                Err(pos) => {
                    values.insert(pos, low);
                    if values.len() > ARRAY_TO_BITSET_THRESHOLD {
                        *self = Container::Bitset(bitset_of(values));
                    }
                    true
                }
            },
            Container::Bitset(bs) => bs.set(low),
        }
    }

    pub(crate) fn contains(&self, low: u16) -> bool {
        match self {
            Container::Array(values) => values.binary_search(&low).is_ok(),
            Container::Bitset(bs) => bs.get(low),
        }
    }

    pub(crate) fn cardinality(&self) -> u32 {
        match self {
            Container::Array(values) => values.len() as u32,
            Container::Bitset(bs) => bs.cardinality,
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.cardinality() == 0
    }

    /// K-way union of several containers in one pass — the fan-in path of
    /// cube-cell consolidation, where a child cell absorbs many parent
    /// cells at once. Equivalent to folding [`Container::union_with`]
    /// pairwise (the canonical rule makes the representations identical
    /// too), but without the per-step reallocation and re-merge.
    pub(crate) fn union_many(parts: &[&Container]) -> Container {
        debug_assert!(!parts.is_empty());
        if parts.len() == 1 {
            return parts[0].clone();
        }
        let all_arrays = parts.iter().all(|c| matches!(c, Container::Array(_)));
        let total: usize = parts.iter().map(|c| c.cardinality() as usize).sum();
        if all_arrays && total <= ARRAY_TO_BITSET_THRESHOLD {
            // All-array, provably small: concatenate + sort + dedup.
            let mut lows: Vec<u16> = Vec::with_capacity(total);
            for c in parts {
                if let Container::Array(v) = c {
                    lows.extend_from_slice(v);
                }
            }
            lows.sort_unstable();
            lows.dedup();
            return Container::Array(lows);
        }
        // Accumulate through one bitset: scatter arrays, word-OR bitsets;
        // one popcount pass at the end.
        let mut bs = Box::new(BitsetContainer::new());
        for c in parts {
            match c {
                Container::Bitset(b) => {
                    for (x, y) in bs.words.iter_mut().zip(b.words.iter()) {
                        *x |= *y;
                    }
                }
                Container::Array(v) => kernels::scatter(v, &mut bs.words),
            }
        }
        bs.cardinality = kernels::words_card(&bs.words);
        from_bitset(bs)
    }

    /// A union never shrinks a chunk, so a bitset operand's result is a
    /// bitset; only array ∪ array has to re-apply the rule.
    pub(crate) fn union_with(&mut self, other: &Container) {
        match (&mut *self, other) {
            (Container::Bitset(a), Container::Bitset(b)) => {
                a.cardinality = kernels::union_words(&mut a.words, &b.words);
            }
            (Container::Bitset(a), Container::Array(b)) => {
                for &low in b {
                    a.set(low);
                }
            }
            (Container::Array(a), Container::Bitset(b)) => {
                let mut bs = b.clone();
                for &low in a.iter() {
                    bs.set(low);
                }
                *self = Container::Bitset(bs);
            }
            (Container::Array(a), Container::Array(b)) => {
                let mut merged = Vec::with_capacity(a.len() + b.len());
                let (mut i, mut j) = (0, 0);
                while i < a.len() && j < b.len() {
                    match a[i].cmp(&b[j]) {
                        std::cmp::Ordering::Less => {
                            merged.push(a[i]);
                            i += 1;
                        }
                        std::cmp::Ordering::Greater => {
                            merged.push(b[j]);
                            j += 1;
                        }
                        std::cmp::Ordering::Equal => {
                            merged.push(a[i]);
                            i += 1;
                            j += 1;
                        }
                    }
                }
                merged.extend_from_slice(&a[i..]);
                merged.extend_from_slice(&b[j..]);
                *self = from_lows(merged);
            }
        }
    }

    pub(crate) fn intersect(&self, other: &Container) -> Container {
        match (self, other) {
            (Container::Bitset(a), Container::Bitset(b)) => {
                let mut out = a.clone();
                out.cardinality = kernels::intersect_words(&mut out.words, &b.words);
                from_bitset(out)
            }
            (Container::Array(a), Container::Bitset(b))
            | (Container::Bitset(b), Container::Array(a)) => {
                Container::Array(a.iter().copied().filter(|&v| b.get(v)).collect())
            }
            (Container::Array(a), Container::Array(b)) => {
                let mut out = Vec::new();
                kernels::intersect_arrays(a, b, &mut out);
                Container::Array(out)
            }
        }
    }

    pub(crate) fn intersect_len(&self, other: &Container) -> u32 {
        match (self, other) {
            (Container::Bitset(a), Container::Bitset(b)) => {
                kernels::intersect_words_card(&a.words, &b.words)
            }
            (Container::Array(a), Container::Bitset(b))
            | (Container::Bitset(b), Container::Array(a)) => {
                a.iter().filter(|&&v| b.get(v)).count() as u32
            }
            (Container::Array(a), Container::Array(b)) => kernels::intersect_arrays_card(a, b),
        }
    }

    pub(crate) fn iter(&self) -> ContainerIter<'_> {
        match self {
            Container::Array(values) => ContainerIter::Array(values.iter()),
            Container::Bitset(bs) => ContainerIter::Bitset { bs, word: 0, bits: bs.words[0] },
        }
    }
}

/// Ascending iterator over one container's low values.
pub(crate) enum ContainerIter<'a> {
    Array(std::slice::Iter<'a, u16>),
    Bitset { bs: &'a BitsetContainer, word: usize, bits: u64 },
}

impl<'a> Iterator for ContainerIter<'a> {
    type Item = u16;

    fn next(&mut self) -> Option<u16> {
        match self {
            ContainerIter::Array(iter) => iter.next().copied(),
            ContainerIter::Bitset { bs, word, bits } => loop {
                if *bits != 0 {
                    let b = bits.trailing_zeros();
                    *bits &= *bits - 1;
                    return Some((*word * 64 + b as usize) as u16);
                }
                if *word + 1 >= BITSET_WORDS {
                    return None;
                }
                *word += 1;
                *bits = bs.words[*word];
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scattered(n: usize) -> Vec<u16> {
        (0..n).map(|i| (i * 2) as u16).collect()
    }

    #[test]
    fn canonical_rule_is_cardinality_alone() {
        // Same cardinality, scattered or contiguous: same kind.
        for lows in [scattered(100), (0..100).collect()] {
            let c = Container::from_sorted_lows(&lows);
            assert!(matches!(c, Container::Array(_)) && c.is_canonical());
        }
        for lows in [scattered(5000), (0..5000).collect()] {
            let c = Container::from_sorted_lows(&lows);
            assert!(matches!(c, Container::Bitset(_)) && c.is_canonical());
        }
        let at = Container::from_sorted_lows(&scattered(ARRAY_TO_BITSET_THRESHOLD));
        assert!(matches!(at, Container::Array(_)) && at.is_canonical());
    }

    #[test]
    fn insert_converts_at_the_threshold() {
        let mut c = Container::default();
        for v in scattered(ARRAY_TO_BITSET_THRESHOLD) {
            assert!(c.insert(v));
        }
        assert!(matches!(c, Container::Array(_)) && c.is_canonical());
        assert!(!c.insert(0));
        assert!(matches!(c, Container::Array(_)));
        assert!(c.insert(1));
        assert!(matches!(c, Container::Bitset(_)) && c.is_canonical());
        assert_eq!(c.cardinality(), ARRAY_TO_BITSET_THRESHOLD as u32 + 1);
        assert!(!c.insert(1) && c.insert(3) && c.is_canonical());
        assert!(c.contains(3) && !c.contains(5));
    }

    #[test]
    fn bitset_iter_decodes_in_order() {
        let lows = scattered(6000);
        let c = Container::from_sorted_lows(&lows);
        assert!(matches!(c, Container::Bitset(_)));
        assert_eq!(c.iter().collect::<Vec<u16>>(), lows);
    }

    #[test]
    fn mixed_representation_union_and_intersect() {
        let sparse = Container::from_sorted_lows(&[1, 3, 5, 6]);
        let dense = Container::from_sorted_lows(&scattered(5000));
        let mut a = sparse.clone();
        a.union_with(&dense);
        let mut b = dense.clone();
        b.union_with(&sparse);
        assert_eq!(a.cardinality(), 5003); // 6 is already in `dense`
        assert!(a.is_canonical());
        assert!(a == b); // canonical: same set ⇒ same representation
        assert_eq!(a.intersect_len(&dense), 5000);
        for (x, y) in [(&sparse, &dense), (&dense, &sparse)] {
            let i = x.intersect(y);
            assert!(matches!(&i, Container::Array(v) if v == &[6]));
            assert_eq!(x.intersect_len(y), 1);
        }
        // bitset ∩ bitset falling under the threshold returns to an array.
        let other = Container::from_sorted_lows(&(0..5000).collect::<Vec<u16>>());
        let i = dense.intersect(&other);
        assert_eq!(i.cardinality(), 2500);
        assert!(matches!(i, Container::Array(_)) && i.is_canonical());
        assert_eq!(dense.intersect_len(&other), 2500);
    }
}
