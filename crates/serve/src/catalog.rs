//! The multi-graph catalog: name → lazily-opened serving state, with
//! per-graph generations and byte-budgeted LRU eviction of cold graphs.
//!
//! One daemon serves N snapshots. Each registered graph owns a slot that
//! is empty until the first request touches it (`GraphCatalog::acquire`
//! opens the snapshot on demand — memory-mapped, so the open itself is
//! near-free and the materialized state is the only resident cost). A
//! byte budget (`--graph-memory-budget`) caps the sum of the loaded
//! states' resident estimates: crossing it evicts the least-recently-used
//! *cold* graphs, which drops their `Arc<ServingState>` — and with it the
//! mmap and the heap graph — so the process RSS actually falls once
//! in-flight requests pinned to the old `Arc` finish. A later request
//! transparently reopens the graph at a bumped generation.
//!
//! Concurrency: each slot has its own mutex, held only while (re)opening
//! that graph — never across another slot. Eviction uses `try_lock` and
//! skips slots that are mid-load, so two cold graphs loading concurrently
//! can never deadlock on each other's slots.

use crate::server::ServingState;
use spade_core::{OfflineState, SnapshotPipelineError};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// One registered graph: its routing name, its snapshot path, and the
/// currently-loaded state (if any).
pub(crate) struct GraphEntry {
    name: String,
    slot: Mutex<Slot>,
    /// Monotone generation: bumped by every (re)open, so cache keys from
    /// before an eviction or reload can never alias a newer body.
    generation: AtomicU64,
    /// Catalog-clock timestamp of the last acquire (the LRU key).
    last_used: AtomicU64,
    /// Resident-byte estimate of the loaded state (0 when cold).
    resident: AtomicU64,
}

struct Slot {
    path: PathBuf,
    state: Option<Arc<ServingState>>,
}

impl GraphEntry {
    /// The routing name (`/graphs/{name}/…`).
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// The last published generation (0 before the first load).
    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// The resident-byte estimate of the loaded state (0 when cold).
    pub(crate) fn resident_bytes(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }

    /// Whether a state is currently loaded.
    pub(crate) fn is_loaded(&self) -> bool {
        self.peek().is_some()
    }

    /// The loaded state without forcing a load (`None` when cold).
    pub(crate) fn peek(&self) -> Option<Arc<ServingState>> {
        self.lock().state.as_ref().map(Arc::clone)
    }

    /// The snapshot path the next (re)open will read.
    pub(crate) fn path(&self) -> PathBuf {
        self.lock().path.clone()
    }

    fn lock(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// What an [`GraphCatalog::acquire`] or [`GraphCatalog::reload`] handed
/// back: the pinned state plus what the budget enforcement did about it.
pub(crate) struct Acquired {
    /// The serving state, pinned for this request regardless of any
    /// concurrent eviction or reload.
    pub state: Arc<ServingState>,
    /// Names of graphs evicted to make room (the server retires their
    /// result-cache partitions).
    pub evicted: Vec<String>,
}

/// The catalog. The entry set is fixed at startup (sorted by name);
/// states come and go under it.
pub(crate) struct GraphCatalog {
    entries: Vec<Arc<GraphEntry>>,
    /// Byte budget over the sum of resident estimates; 0 = unlimited.
    budget: u64,
    /// Thread budget for snapshot opens.
    threads: usize,
    clock: AtomicU64,
    loads: AtomicU64,
    evictions: AtomicU64,
}

impl GraphCatalog {
    /// Builds a catalog over `graphs` (name → snapshot path). Names must
    /// be unique, non-empty, and URL-safe (`[A-Za-z0-9_.-]`); violations
    /// are a configuration error, not a panic.
    pub(crate) fn new(
        graphs: Vec<(String, PathBuf)>,
        budget: u64,
        threads: usize,
    ) -> Result<GraphCatalog, String> {
        if graphs.is_empty() {
            return Err("catalog needs at least one graph".to_owned());
        }
        let mut entries: Vec<Arc<GraphEntry>> = Vec::with_capacity(graphs.len());
        for (name, path) in graphs {
            if !valid_graph_name(&name) {
                return Err(format!(
                    "invalid graph name {name:?} (use [A-Za-z0-9_.-], non-empty)"
                ));
            }
            entries.push(Arc::new(GraphEntry {
                name,
                slot: Mutex::new(Slot { path, state: None }),
                generation: AtomicU64::new(0),
                last_used: AtomicU64::new(0),
                resident: AtomicU64::new(0),
            }));
        }
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        if entries.windows(2).any(|w| w[0].name == w[1].name) {
            return Err("duplicate graph names in the catalog".to_owned());
        }
        Ok(GraphCatalog {
            entries,
            budget,
            threads,
            clock: AtomicU64::new(0),
            loads: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        })
    }

    /// The registered graphs, sorted by name.
    pub(crate) fn entries(&self) -> &[Arc<GraphEntry>] {
        &self.entries
    }

    /// Index of `name` in [`GraphCatalog::entries`].
    pub(crate) fn position(&self, name: &str) -> Option<usize> {
        self.entries.binary_search_by(|e| e.name.as_str().cmp(name)).ok()
    }

    /// The registered graph names in entry (sorted) order — the fixed name
    /// set consumers like the request ledger key their per-graph state by.
    pub(crate) fn names(&self) -> Vec<String> {
        self.entries.iter().map(|e| e.name.clone()).collect()
    }

    /// The configured byte budget (0 = unlimited).
    pub(crate) fn budget_bytes(&self) -> u64 {
        self.budget
    }

    /// Sum of the loaded states' resident estimates.
    pub(crate) fn resident_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.resident_bytes()).sum()
    }

    /// Snapshot (re)opens performed so far.
    pub(crate) fn loads_total(&self) -> u64 {
        self.loads.load(Ordering::Relaxed)
    }

    /// Graph states evicted by the budget so far.
    pub(crate) fn evictions_total(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Pins `entry`'s serving state, opening the snapshot (mmap-backed)
    /// if the slot is cold — either because it was never touched or
    /// because the budget evicted it. A (re)open publishes a bumped
    /// generation and then enforces the budget against the *other*
    /// graphs.
    pub(crate) fn acquire(
        &self,
        entry: &GraphEntry,
    ) -> Result<Acquired, SnapshotPipelineError> {
        entry.last_used.store(self.tick(), Ordering::Relaxed);
        let slot = entry.lock();
        if let Some(state) = &slot.state {
            return Ok(Acquired { state: Arc::clone(state), evicted: Vec::new() });
        }
        self.open(entry, slot, None)
    }

    /// Replaces `entry`'s state with a fresh open of `path` (or of its
    /// current path when `None`), publishing a bumped generation. The old
    /// state keeps serving in-flight requests that pinned it; on failure
    /// it stays published untouched.
    pub(crate) fn reload(
        &self,
        entry: &GraphEntry,
        path: Option<PathBuf>,
    ) -> Result<Acquired, SnapshotPipelineError> {
        entry.last_used.store(self.tick(), Ordering::Relaxed);
        self.open(entry, entry.lock(), path)
    }

    /// Opens the snapshot under the held slot lock and publishes it, then
    /// releases the lock and enforces the budget. The per-slot lock
    /// serializes concurrent (re)opens of the same graph without blocking
    /// any other graph.
    fn open(
        &self,
        entry: &GraphEntry,
        mut slot: MutexGuard<'_, Slot>,
        path: Option<PathBuf>,
    ) -> Result<Acquired, SnapshotPipelineError> {
        let path = path.unwrap_or_else(|| slot.path.clone());
        let offline = OfflineState::open(&path, self.threads)?;
        let generation = entry.generation.fetch_add(1, Ordering::Relaxed) + 1;
        let resident = offline.resident_estimate();
        let state = Arc::new(ServingState { offline, generation, source: path.clone() });
        slot.path = path;
        slot.state = Some(Arc::clone(&state));
        entry.resident.store(resident, Ordering::Relaxed);
        self.loads.fetch_add(1, Ordering::Relaxed);
        drop(slot);
        let evicted = self.enforce_budget(&entry.name);
        Ok(Acquired { state, evicted })
    }

    /// Evicts least-recently-used graphs (never `keep`, never a slot that
    /// is mid-load) until the resident sum fits the budget or nothing is
    /// evictable. Returns the evicted names.
    fn enforce_budget(&self, keep: &str) -> Vec<String> {
        let mut evicted = Vec::new();
        if self.budget == 0 {
            return evicted;
        }
        while self.resident_bytes() > self.budget {
            let victim = self
                .entries
                .iter()
                .filter(|e| e.name != keep && e.resident_bytes() > 0)
                .min_by_key(|e| e.last_used.load(Ordering::Relaxed));
            let Some(victim) = victim else { break };
            // A slot locked right now is being (re)opened — hot by
            // definition; skipping the whole pass (instead of spinning on
            // it) keeps eviction deadlock-free.
            let Ok(mut slot) = victim.slot.try_lock() else { break };
            if slot.state.take().is_some() {
                evicted.push(victim.name.clone());
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
            victim.resident.store(0, Ordering::Relaxed);
        }
        evicted
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }
}

/// Graph names route as a path segment, so keep them to one URL-safe
/// token: letters, digits, `_`, `.`, `-`.
pub(crate) fn valid_graph_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 128
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The graph name a single `--snapshot FILE` registers under: the file
/// stem when it is a valid routing name, else `"default"`.
pub fn graph_name_of(path: &Path) -> String {
    match path.file_stem().and_then(|s| s.to_str()) {
        Some(stem) if valid_graph_name(stem) => stem.to_owned(),
        _ => "default".to_owned(),
    }
}

/// Scans `dir` for `*.spade` snapshots and returns `(stem, path)` pairs
/// sorted by name — the `--snapshot-dir` startup path. Entries whose stem
/// is not a valid graph name are skipped (reported by the caller's log,
/// not fatal: one oddly-named file should not take the fleet node down).
pub fn scan_snapshot_dir(dir: &Path) -> std::io::Result<Vec<(String, PathBuf)>> {
    let mut graphs = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("spade") {
            continue;
        }
        let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else { continue };
        if valid_graph_name(stem) {
            graphs.push((stem.to_owned(), path));
        }
    }
    graphs.sort();
    Ok(graphs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_validation() {
        for good in ["a", "ceos", "graph-2.v1", "A_b.C-9"] {
            assert!(valid_graph_name(good), "{good}");
        }
        for bad in ["", "a/b", "a b", "ü", "a?b", &"x".repeat(129)] {
            assert!(!valid_graph_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn catalog_rejects_bad_configurations() {
        assert!(GraphCatalog::new(Vec::new(), 0, 1).is_err());
        assert!(GraphCatalog::new(vec![("a/b".into(), "x".into())], 0, 1).is_err());
        let dup = vec![("a".into(), "x".into()), ("a".into(), "y".into())];
        assert!(GraphCatalog::new(dup, 0, 1).is_err());
    }

    #[test]
    fn position_finds_sorted_names() {
        let c = GraphCatalog::new(
            vec![("b".into(), "b.spade".into()), ("a".into(), "a.spade".into())],
            0,
            1,
        )
        .unwrap();
        assert_eq!(c.position("a"), Some(0));
        assert_eq!(c.position("b"), Some(1));
        assert_eq!(c.position("c"), None);
        assert_eq!(c.entries()[0].name(), "a");
        assert_eq!(c.entries()[0].generation(), 0);
        assert!(!c.entries()[0].is_loaded());
    }
}
