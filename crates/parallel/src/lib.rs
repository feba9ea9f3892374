//! Deterministic fan-out of independent work items over a thread pool.
//!
//! Both the online Aggregate Evaluation step (per-CFS / per-lattice) and the
//! offline ingestion pipeline (per-chunk parsing, chunked sorting, the
//! semi-naive saturation scan) decompose into independent units. This crate
//! supplies the primitives that exploit this without an external dependency:
//! [`map`], an ordered parallel map built on `std::thread::scope` (the build
//! environment vendors no external crates, so there is no rayon; scoped
//! threads give the same fan-out for coarse-grained items), plus the
//! [`chunk_ranges`] / [`par_sort`] helpers the ingestion subsystem shares.
//!
//! **Determinism:** results are returned in input order, whatever the
//! completion order, so a fold over the output is bit-identical to the
//! serial fold — the property the `threads`-determinism tests pin down.
//! Work is split by *data size*, never by thread count, so every thread
//! count produces the same chunk boundaries and therefore the same merged
//! output.
//!
//! # Public surface
//!
//! Every public item has a caller outside this crate, except three test
//! hooks: [`Budget::cancel`] and [`Budget::checks`] (the cancellation suites
//! cancel a budget by hand and count its polls) and [`fault::set_spec`]
//! (the chaos suite arms fault injection in process, as `SPADE_FAULT` does
//! for a daemon).

pub(crate) mod budget;
pub mod fault;

pub use budget::{Budget, CancelReason, Cancelled};

use std::convert::Infallible;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves a configured thread count: `0` means "all available cores".
pub fn resolve_threads(configured: usize) -> usize {
    if configured == 0 {
        std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
    } else {
        configured
    }
}

/// Applies `f` to every item, using up to `threads` worker threads
/// (`0` = auto), and returns the results **in input order**.
///
/// Items are claimed by an atomic cursor, so long items do not convoy
/// behind short ones. With one effective thread (or zero/one items) the
/// map runs inline on the caller's thread — the serial path and the
/// parallel path execute the exact same per-item code.
///
/// A panic in `f` propagates to the caller once all workers have stopped.
pub fn map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    // Inline path first: collecting straight into the `Vec` keeps the exact
    // size hint, which `try_map`'s collect through `Result` does not.
    let threads = resolve_threads(threads);
    if threads.min(items.len().max(1)) <= 1 {
        return items.into_iter().map(f).collect();
    }
    let Ok(out) = try_map(items, threads, |item| Ok::<R, Infallible>(f(item)));
    out
}

/// Fallible variant of [`map`]: applies `f` to every item and returns the
/// results **in input order**, or the error of the earliest (by input
/// index) item observed to fail.
///
/// On the `Ok` path this performs the exact same per-item calls in the
/// exact same claim order as [`map`], so results are bit-identical to the
/// infallible fan-out — the property the cancellation plan-invariance
/// tests pin. On the first `Err` a shared abort flag stops workers from
/// *claiming* further items (items already claimed run to completion), so
/// an erroring fan-out unwinds within one item's latency instead of
/// draining the whole queue.
///
/// When several items fail concurrently the error with the smallest input
/// index among the *completed* items is returned — callers using this for
/// cancellation get homogeneous errors anyway.
pub fn try_map<T, R, E, F>(items: Vec<T>, threads: usize, f: F) -> Result<Vec<R>, E>
where
    T: Send,
    R: Send,
    E: Send,
    F: Fn(T) -> Result<R, E> + Sync,
{
    let n = items.len();
    let threads = resolve_threads(threads).min(n.max(1));
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }

    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<Result<R, E>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                if abort.load(Ordering::Relaxed) {
                    break;
                }
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = work[i]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .take()
                    .expect("work item claimed twice");
                let out = f(item);
                if out.is_err() {
                    abort.store(true, Ordering::Relaxed);
                }
                *results[i].lock().unwrap_or_else(std::sync::PoisonError::into_inner) =
                    Some(out);
            });
        }
    });
    // Scan in input order: on success every slot is filled; after an abort
    // the first empty slot (if any) comes after the earliest completed
    // error, because indices are claimed in increasing order.
    let mut ok = Vec::with_capacity(n);
    for slot in results {
        match slot.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner) {
            Some(Ok(r)) => ok.push(r),
            Some(Err(e)) => return Err(e),
            None => unreachable!("unfilled slot before any error in claim order"),
        }
    }
    Ok(ok)
}

/// Splits a thread budget across a nested fan-out — an outer level of
/// `outer_items` independent units, each of which fans out further — so the
/// total worker count stays at the budget instead of `budget²`
/// (oversubscription). Returns `(outer, inner)` worker counts with
/// `outer · inner ≤ resolve_threads(threads)` and both at least 1.
///
/// The split is deterministic in `(threads, outer_items)` only; it never
/// affects results because both fan-out levels merge in input order.
pub fn split_budget(threads: usize, outer_items: usize) -> (usize, usize) {
    let resolved = resolve_threads(threads);
    let outer = resolved.min(outer_items.max(1));
    (outer, (resolved / outer).max(1))
}

/// Splits `weights.len()` items into contiguous `(start, end)` ranges of
/// roughly equal total weight: at most `max_ranges` ranges, each carrying at
/// least `min_weight` (except possibly the last). Boundaries depend only on
/// the weights and the two knobs — never on the thread count — so a fan-out
/// over the ranges merged in range order is bit-identical for every thread
/// count (the same data-not-threads splitting rule as [`chunk_ranges`],
/// generalized to uneven item costs).
pub fn weighted_ranges(
    weights: &[u64],
    max_ranges: usize,
    min_weight: u64,
) -> Vec<(usize, usize)> {
    let total: u64 = weights.iter().sum();
    let target = total.div_ceil(max_ranges.max(1) as u64).max(min_weight).max(1);
    let mut out: Vec<(usize, usize)> = Vec::new();
    let mut start = 0usize;
    let mut acc = 0u64;
    for (i, &w) in weights.iter().enumerate() {
        acc += w;
        if acc >= target {
            out.push((start, i + 1));
            start = i + 1;
            acc = 0;
        }
    }
    // The tail extends the last range when the cap is reached, so the
    // "at most `max_ranges`" contract holds exactly.
    if start < weights.len() {
        if out.len() >= max_ranges.max(1) {
            out.last_mut().expect("cap reached implies a range exists").1 = weights.len();
        } else {
            out.push((start, weights.len()));
        }
    }
    out
}

/// Splits `len` items into contiguous `(start, end)` ranges of at most
/// `chunk_size` items. Boundaries depend only on `len` and `chunk_size`,
/// never on the thread count — the keystone of deterministic parallel
/// ingestion (chunk outputs are merged in chunk order).
pub fn chunk_ranges(len: usize, chunk_size: usize) -> Vec<(usize, usize)> {
    let chunk = chunk_size.max(1);
    let mut out = Vec::with_capacity(len / chunk + 1);
    let mut start = 0;
    while start < len {
        let end = (start + chunk).min(len);
        out.push((start, end));
        start = end;
    }
    out
}

/// Sorts `items` with a chunked parallel merge sort: fixed-size runs are
/// sorted concurrently via [`map`], then merged pairwise. The result equals
/// `items.sort_unstable()` followed by a stabilization — we sort with a
/// total order, so the output is identical for every thread count (and to
/// the serial sort).
pub fn par_sort<T: Ord + Send + Sync + Copy>(items: Vec<T>, threads: usize) -> Vec<T> {
    const RUN: usize = 1 << 15;
    if items.len() <= RUN || resolve_threads(threads) <= 1 {
        let mut items = items;
        items.sort_unstable();
        return items;
    }
    let ranges = chunk_ranges(items.len(), RUN);
    let items = &items;
    let mut runs: Vec<Vec<T>> = map(ranges, threads, |(a, b)| {
        let mut run = items[a..b].to_vec();
        run.sort_unstable();
        run
    });
    // Pairwise merge passes; each pass halves the run count. Merges of one
    // pass are independent, so they also fan out.
    while runs.len() > 1 {
        let mut pairs = Vec::with_capacity(runs.len() / 2 + 1);
        let mut iter = runs.into_iter();
        while let Some(a) = iter.next() {
            match iter.next() {
                Some(b) => pairs.push((a, Some(b))),
                None => pairs.push((a, None)),
            }
        }
        runs = map(pairs, threads, |(a, b)| match b {
            None => a,
            Some(b) => merge_sorted(a, b),
        });
    }
    runs.pop().unwrap_or_default()
}

fn merge_sorted<T: Ord + Copy>(a: Vec<T>, b: Vec<T>) -> Vec<T> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 8] {
            let out = map(items.clone(), threads, |i| i * 3);
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(map(Vec::<u32>::new(), 4, |x| x), Vec::<u32>::new());
        assert_eq!(map(vec![7], 4, |x| x + 1), vec![8]);
    }

    #[test]
    fn zero_threads_means_auto() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
        let out = map(vec![1, 2, 3], 0, |x| x * x);
        assert_eq!(out, vec![1, 4, 9]);
    }

    #[test]
    fn borrows_captured_state() {
        let base = [10, 20, 30];
        let out = map(vec![0usize, 1, 2], 2, |i| base[i] + 1);
        assert_eq!(out, vec![11, 21, 31]);
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        let _ = map(vec![1, 2, 3, 4], 2, |x| {
            if x == 3 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn try_map_ok_matches_map() {
        let items: Vec<usize> = (0..200).collect();
        for threads in [1, 2, 8] {
            let out: Result<Vec<usize>, ()> = try_map(items.clone(), threads, |i| Ok(i * 3));
            assert_eq!(out.unwrap(), map(items.clone(), threads, |i| i * 3));
        }
        let empty: Result<Vec<u32>, ()> = try_map(Vec::new(), 4, Ok);
        assert_eq!(empty.unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn try_map_returns_earliest_error() {
        for threads in [1, 2, 8] {
            let out = try_map((0..100).collect::<Vec<_>>(), threads, |i| {
                if i % 10 == 7 {
                    Err(i)
                } else {
                    Ok(i)
                }
            });
            // With 1 thread the earliest failure wins outright; in the
            // parallel case any reported error is a real failing item.
            let err = out.unwrap_err();
            assert_eq!(err % 10, 7);
            if threads == 1 {
                assert_eq!(err, 7);
            }
        }
    }

    #[test]
    fn try_map_aborts_early() {
        use std::sync::atomic::AtomicUsize;
        let calls = AtomicUsize::new(0);
        let out: Result<Vec<()>, ()> = try_map((0..10_000).collect(), 2, |i: usize| {
            calls.fetch_add(1, Ordering::Relaxed);
            if i == 0 {
                Err(())
            } else {
                std::thread::sleep(std::time::Duration::from_micros(50));
                Ok(())
            }
        });
        assert!(out.is_err());
        assert!(
            calls.load(Ordering::Relaxed) < 10_000,
            "abort flag should stop workers from draining the whole queue"
        );
    }

    #[test]
    fn split_budget_never_oversubscribes() {
        for threads in [1usize, 2, 3, 8, 16] {
            for items in [0usize, 1, 2, 5, 100] {
                let (outer, inner) = split_budget(threads, items);
                assert!(outer >= 1 && inner >= 1);
                assert!(outer * inner <= threads.max(1), "{threads} over {items}");
                assert!(outer <= items.max(1));
            }
        }
        assert_eq!(split_budget(8, 2), (2, 4));
        assert_eq!(split_budget(8, 3), (3, 2));
        assert_eq!(split_budget(1, 10), (1, 1));
    }

    #[test]
    fn weighted_ranges_cover_and_balance() {
        // Uniform weights behave like chunk_ranges.
        let w = vec![1u64; 10];
        let r = weighted_ranges(&w, 5, 1);
        assert_eq!(r, vec![(0, 2), (2, 4), (4, 6), (6, 8), (8, 10)]);
        // A heavy item forms its own range; coverage is exact and ordered.
        let w = vec![1u64, 100, 1, 1, 1, 1];
        let r = weighted_ranges(&w, 4, 1);
        let mut expect = 0;
        for &(a, b) in &r {
            assert_eq!(a, expect);
            assert!(b > a);
            expect = b;
        }
        assert_eq!(expect, w.len());
        assert!(r.len() <= 4);
        // The cap is exact even when a tail remains after `max_ranges`
        // closes (only reachable with zero-weight tail items, since k
        // closed ranges consume ≥ k·target weight): the tail extends the
        // last range instead of opening a max_ranges+1-th one.
        assert_eq!(weighted_ranges(&[1u64, 1, 1, 1, 1], 2, 1), vec![(0, 3), (3, 5)]);
        assert_eq!(weighted_ranges(&[2u64, 0, 0], 1, 1), vec![(0, 3)]);
        assert_eq!(weighted_ranges(&[2u64, 2, 0], 2, 1), vec![(0, 1), (1, 3)]);
        // min_weight coalesces small items into one range.
        assert_eq!(weighted_ranges(&[1u64; 8], 8, 1_000), vec![(0, 8)]);
        // Empty input → no ranges.
        assert!(weighted_ranges(&[], 4, 1).is_empty());
        // Zero-weight tail items are still covered.
        let r = weighted_ranges(&[5u64, 0, 0], 4, 1);
        assert_eq!(r.last().map(|&(_, b)| b), Some(3));
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for (len, chunk) in [(0usize, 4usize), (1, 4), (4, 4), (5, 4), (100, 7)] {
            let ranges = chunk_ranges(len, chunk);
            let mut expect = 0;
            for &(a, b) in &ranges {
                assert_eq!(a, expect);
                assert!(b > a && b - a <= chunk);
                expect = b;
            }
            assert_eq!(expect, len);
        }
    }

    #[test]
    fn par_sort_matches_serial_sort() {
        let mut v: Vec<u64> =
            (0..100_000u64).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15)).collect();
        for threads in [1, 2, 8] {
            let sorted = par_sort(v.clone(), threads);
            let mut expect = v.clone();
            expect.sort_unstable();
            assert_eq!(sorted, expect);
        }
        v.truncate(10);
        assert_eq!(par_sort(v.clone(), 4), {
            v.sort_unstable();
            v
        });
    }
}
