//! A byte-budgeted LRU cache of `/explore` response bodies.
//!
//! The pipeline is deterministic (bit-identical results for any thread
//! count), so a cache key only has to capture *what* was asked — the
//! snapshot generation plus the request's canonical encoding
//! ([`spade_core::RequestConfig::canonical_key`]) — and a hit can return
//! the stored bytes verbatim: hits are **exact**, not approximate.
//!
//! The implementation is a plain `HashMap` plus a lazily-invalidated recency
//! queue (the classic no-linked-list LRU): every touch pushes a fresh
//! `(sequence, key)` pair and stamps the entry with that sequence; eviction
//! pops the queue front and skips pairs whose sequence is stale. Bodies are
//! `Arc<[u8]>`, so a hit hands out a reference without copying while an
//! eviction never invalidates a response already being written.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Fixed per-entry overhead charged against the byte budget (map + queue
/// bookkeeping), on top of key and body lengths.
const ENTRY_OVERHEAD: usize = 64;

/// Counters exposed via `/stats` and `/metrics`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct CacheStats {
    /// Lookups that returned a body.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to stay within the budget.
    pub evictions: u64,
    /// Entries currently stored.
    pub entries: usize,
    /// Bytes currently charged (keys + bodies + overhead).
    pub bytes: usize,
}

struct Entry {
    body: Arc<[u8]>,
    /// The most recent recency-queue sequence stamped on this key.
    seq: u64,
}

/// The cache. Not internally synchronized — the server wraps it in a mutex
/// (lookups are pointer swaps; the expensive work happens outside the lock).
pub struct ResultCache {
    budget: usize,
    map: HashMap<String, Entry>,
    recency: VecDeque<(u64, String)>,
    next_seq: u64,
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ResultCache {
    /// Creates a cache holding at most `budget` bytes; `0` disables caching
    /// (every lookup misses, inserts are dropped).
    pub fn new(budget: usize) -> ResultCache {
        ResultCache {
            budget,
            map: HashMap::new(),
            recency: VecDeque::new(),
            next_seq: 0,
            bytes: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn cost(key: &str, body: &[u8]) -> usize {
        key.len() + body.len() + ENTRY_OVERHEAD
    }

    /// Looks `key` up, refreshing its recency on a hit.
    pub fn get(&mut self, key: &str) -> Option<Arc<[u8]>> {
        // Opportunistically trim stale recency pairs so the queue cannot
        // grow unboundedly under a hit-heavy workload.
        self.trim_stale_front();
        match self.map.get_mut(key) {
            Some(entry) => {
                self.hits += 1;
                let seq = self.next_seq;
                self.next_seq += 1;
                entry.seq = seq;
                self.recency.push_back((seq, key.to_owned()));
                Some(Arc::clone(&entry.body))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts a body, evicting least-recently-used entries until the
    /// budget holds. A body too large for the whole budget is not stored.
    pub fn insert(&mut self, key: String, body: Arc<[u8]>) {
        let cost = Self::cost(&key, &body);
        if cost > self.budget {
            return;
        }
        if let Some(old) = self.map.remove(&key) {
            self.bytes -= Self::cost(&key, &old.body);
        }
        while self.bytes + cost > self.budget {
            if !self.evict_one() {
                break;
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.bytes += cost;
        self.recency.push_back((seq, key.clone()));
        self.map.insert(key, Entry { body, seq });
    }

    fn trim_stale_front(&mut self) {
        while let Some((seq, key)) = self.recency.front() {
            match self.map.get(key) {
                Some(entry) if entry.seq == *seq => break,
                _ => {
                    self.recency.pop_front();
                }
            }
        }
    }

    /// Pops queue pairs until one names a live entry, then evicts it.
    fn evict_one(&mut self) -> bool {
        while let Some((seq, key)) = self.recency.pop_front() {
            let live = matches!(self.map.get(&key), Some(entry) if entry.seq == seq);
            if live {
                let entry = self.map.remove(&key).expect("checked above");
                self.bytes -= Self::cost(&key, &entry.body);
                self.evictions += 1;
                return true;
            }
        }
        false
    }

    /// Drops every entry whose key starts with `prefix` — one graph's
    /// partition of the shared cache (keys are `{graph}@g{generation}:…`),
    /// retired when that graph reloads or is evicted from the catalog.
    /// Stale recency pairs are invalidated lazily, as everywhere else.
    /// Returns how many entries were dropped (not counted as budget
    /// evictions: nothing was displaced by pressure).
    pub fn retire_prefix(&mut self, prefix: &str) -> usize {
        let keys: Vec<String> =
            self.map.keys().filter(|k| k.starts_with(prefix)).cloned().collect();
        for key in &keys {
            if let Some(entry) = self.map.remove(key) {
                self.bytes -= Self::cost(key, &entry.body);
            }
        }
        keys.len()
    }

    /// Current counters.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.map.len(),
            bytes: self.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(n: usize) -> Arc<[u8]> {
        vec![0u8; n].into()
    }

    #[test]
    fn hit_and_miss_counting() {
        let mut c = ResultCache::new(10_000);
        assert!(c.get("a").is_none());
        c.insert("a".into(), body(10));
        assert_eq!(c.get("a").map(|b| b.len()), Some(10));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!(s.bytes >= 11);
    }

    #[test]
    fn evicts_least_recently_used_first() {
        // Budget fits two entries of cost 1 + 100 + 64.
        let mut c = ResultCache::new(2 * (1 + 100 + ENTRY_OVERHEAD));
        c.insert("a".into(), body(100));
        c.insert("b".into(), body(100));
        assert!(c.get("a").is_some(), "refresh a");
        c.insert("c".into(), body(100));
        assert!(c.get("b").is_none(), "b was LRU and got evicted");
        assert!(c.get("a").is_some());
        assert!(c.get("c").is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn replacing_a_key_updates_bytes() {
        let mut c = ResultCache::new(10_000);
        c.insert("a".into(), body(100));
        let before = c.stats().bytes;
        c.insert("a".into(), body(10));
        assert_eq!(c.stats().entries, 1);
        assert_eq!(c.stats().bytes, before - 90);
        assert_eq!(c.get("a").map(|b| b.len()), Some(10));
    }

    #[test]
    fn oversized_bodies_are_not_stored_and_zero_budget_disables() {
        let mut c = ResultCache::new(128);
        c.insert("big".into(), body(1_000));
        assert_eq!(c.stats().entries, 0);
        let mut off = ResultCache::new(0);
        off.insert("a".into(), body(1));
        assert!(off.get("a").is_none());
        assert_eq!(off.stats().entries, 0);
    }

    #[test]
    fn retire_prefix_drops_only_one_partition() {
        let mut c = ResultCache::new(10_000);
        c.insert("a@g1:x".into(), body(10));
        c.insert("a@g1:y".into(), body(10));
        c.insert("b@g1:x".into(), body(10));
        let before = c.stats().bytes;
        assert_eq!(c.retire_prefix("a@"), 2);
        assert_eq!(c.stats().entries, 1);
        assert!(c.stats().bytes < before);
        assert!(c.get("a@g1:x").is_none());
        assert!(c.get("b@g1:x").is_some());
        // Not budget pressure — not an eviction.
        assert_eq!(c.stats().evictions, 0);
        // A retired key can be re-inserted and served again.
        c.insert("a@g2:x".into(), body(10));
        assert!(c.get("a@g2:x").is_some());
    }

    #[test]
    fn recency_queue_stays_bounded_under_hits() {
        let mut c = ResultCache::new(10_000);
        c.insert("a".into(), body(5));
        for _ in 0..10_000 {
            let _ = c.get("a");
        }
        assert!(c.recency.len() <= 2, "stale pairs are trimmed on get");
    }
}
