//! The branch-free inner loops behind every container binary op.
//!
//! Two families live here:
//!
//! * **word-at-a-time bitset kernels** — straight-line `u64` loops over the
//!   fixed 1024-word payload (OR/AND plus the popcount that yields the
//!   result's cardinality). No per-bit branches, no data-dependent
//!   control flow: each loop is a single pass the compiler autovectorizes.
//! * **galloping array kernels** — intersection for sorted `u16` arrays.
//!   When the operand sizes are skewed (ratio ≥ [`GALLOP_RATIO`]) the
//!   kernel walks the small side and exponential-searches the large side
//!   (`O(s·log(l/s))` instead of `O(s+l)`); balanced operands take the
//!   classic two-pointer merge.
//!
//! All kernels are pure set arithmetic — representation choice (which
//! container kind holds the result) happens in [`crate::container`] from
//! the cardinality these kernels return.

/// Words in one bitset container payload (65536 bits).
pub(crate) const BITSET_WORDS: usize = 1024;

/// Operand-size ratio beyond which array kernels switch from the linear
/// two-pointer merge to galloping (exponential search in the large side).
pub(crate) const GALLOP_RATIO: usize = 16;

/// Cardinality of a word block.
pub(crate) fn words_card(words: &[u64; BITSET_WORDS]) -> u32 {
    let mut card = 0u32;
    for &w in words.iter() {
        card += w.count_ones();
    }
    card
}

/// `a |= b`, word at a time; returns the result's cardinality.
pub(crate) fn union_words(a: &mut [u64; BITSET_WORDS], b: &[u64; BITSET_WORDS]) -> u32 {
    for (x, y) in a.iter_mut().zip(b.iter()) {
        *x |= *y;
    }
    words_card(a)
}

/// `a &= b`, word at a time; returns the result's cardinality.
pub(crate) fn intersect_words(a: &mut [u64; BITSET_WORDS], b: &[u64; BITSET_WORDS]) -> u32 {
    for (x, y) in a.iter_mut().zip(b.iter()) {
        *x &= *y;
    }
    words_card(a)
}

/// `|a ∩ b|` without materializing anything.
pub(crate) fn intersect_words_card(a: &[u64; BITSET_WORDS], b: &[u64; BITSET_WORDS]) -> u32 {
    let mut card = 0u32;
    for (x, y) in a.iter().zip(b.iter()) {
        card += (x & y).count_ones();
    }
    card
}

/// Sets every array value's bit.
pub(crate) fn scatter(lows: &[u16], words: &mut [u64; BITSET_WORDS]) {
    for &low in lows {
        words[low as usize >> 6] |= 1u64 << (low & 63);
    }
}

/// Index of the first element `≥ target` in `h[from..]`, by exponential
/// probe + binary search of the overshot bracket. `O(log distance)` —
/// the building block of the skewed-operand kernels.
pub(crate) fn gallop(h: &[u16], from: usize, target: u16) -> usize {
    if from >= h.len() || h[from] >= target {
        return from;
    }
    // Invariant: h[lo] < target.
    let mut lo = from;
    let mut step = 1usize;
    loop {
        let hi = lo + step;
        if hi >= h.len() {
            return lo + 1 + h[lo + 1..].partition_point(|&x| x < target);
        }
        if h[hi] >= target {
            return lo + 1 + h[lo + 1..hi].partition_point(|&x| x < target);
        }
        lo = hi;
        step <<= 1;
    }
}

/// `a ∩ b` into `out` (appended). Galloping when skewed, two-pointer
/// otherwise.
pub(crate) fn intersect_arrays(a: &[u16], b: &[u16], out: &mut Vec<u16>) {
    let (s, l) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if s.is_empty() {
        return;
    }
    if l.len() / s.len() >= GALLOP_RATIO {
        let mut pos = 0usize;
        for &v in s {
            pos = gallop(l, pos, v);
            if pos == l.len() {
                break;
            }
            if l[pos] == v {
                out.push(v);
                pos += 1;
            }
        }
    } else {
        let (mut i, mut j) = (0usize, 0usize);
        while i < s.len() && j < l.len() {
            match s[i].cmp(&l[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(s[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
    }
}

/// `|a ∩ b|` for sorted arrays, same skew dispatch as
/// [`intersect_arrays`].
pub(crate) fn intersect_arrays_card(a: &[u16], b: &[u16]) -> u32 {
    let (s, l) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if s.is_empty() {
        return 0;
    }
    let mut count = 0u32;
    if l.len() / s.len() >= GALLOP_RATIO {
        let mut pos = 0usize;
        for &v in s {
            pos = gallop(l, pos, v);
            if pos == l.len() {
                break;
            }
            if l[pos] == v {
                count += 1;
                pos += 1;
            }
        }
    } else {
        let (mut i, mut j) = (0usize, 0usize);
        while i < s.len() && j < l.len() {
            match s[i].cmp(&l[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boxed(bits: &[u16]) -> Box<[u64; BITSET_WORDS]> {
        let mut w = Box::new([0u64; BITSET_WORDS]);
        scatter(bits, &mut w);
        w
    }

    #[test]
    fn word_ops_return_result_cardinality() {
        // 63-65 straddles a word boundary.
        let mut a = boxed(&[0, 1, 2, 10, 63, 64, 65, 200]);
        let b = boxed(&[2, 3, 64, 65_535]);
        assert_eq!(words_card(&a), 8);
        assert_eq!(intersect_words_card(&a, &b), 2);
        let mut i = a.clone();
        assert_eq!(intersect_words(&mut i, &b), 2);
        assert_eq!(*i, *boxed(&[2, 64]));
        assert_eq!(union_words(&mut a, &b), 10);
        assert_eq!(*a, *boxed(&[0, 1, 2, 3, 10, 63, 64, 65, 200, 65_535]));
    }

    #[test]
    fn gallop_finds_lower_bound() {
        let h: Vec<u16> = (0..100).map(|i| i * 7).collect();
        for target in [0u16, 1, 7, 350, 692, 693, 694, 1000] {
            let expect = h.partition_point(|&x| x < target);
            for from in [0usize, 3, 50, 99] {
                if from <= expect {
                    assert_eq!(gallop(&h, from, target), expect, "target {target} from {from}");
                }
            }
        }
        assert_eq!(gallop(&[], 0, 5), 0);
    }

    #[test]
    fn skewed_and_balanced_paths_agree() {
        let small: Vec<u16> = vec![3, 100, 101, 4000, 40_000];
        let large: Vec<u16> = (0..8000).map(|i| i * 5).collect();
        let naive_inter: Vec<u16> =
            small.iter().copied().filter(|v| large.binary_search(v).is_ok()).collect();

        let mut out = Vec::new();
        intersect_arrays(&small, &large, &mut out);
        assert_eq!(out, naive_inter);
        out.clear();
        intersect_arrays(&large, &small, &mut out);
        assert_eq!(out, naive_inter);
        assert_eq!(intersect_arrays_card(&small, &large), naive_inter.len() as u32);
    }
}
