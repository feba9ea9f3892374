//! `OfflineState::resident_estimate` counts what a state holds on the heap.
//!
//! The serving catalog charges each loaded graph its estimate against
//! `--graph-memory-budget`, so an estimate below the state's real heap lets
//! the budget admit more than its setting. A counting global allocator
//! measures the live bytes a state adds, for both constructors. It is this
//! test binary's own allocator, and the binary has one test, so nothing else
//! allocates while it counts.

use spade_core::{OfflineState, Spade, SpadeConfig};
use spade_datagen::{realistic, RealisticConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            LIVE.fetch_add(new_size, Relaxed);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Asserts the estimate is within 15 % of the live bytes the state added.
fn assert_close(how: &str, estimate: u64, live: usize) {
    let error = (estimate as f64 - live as f64).abs() / live as f64;
    assert!(
        error <= 0.15,
        "{how}: estimate {estimate} B, live {live} B ({:.1} %)",
        error * 1e2
    );
}

#[test]
fn resident_estimate_is_within_15_percent_of_the_live_heap() {
    // The `explore_cold` graph of the pinned benchmark, on one thread.
    let graph = realistic::ceos(&RealisticConfig { scale: 250, seed: 7 });
    let nt = spade_rdf::write_ntriples(&graph);
    drop(graph);
    let path =
        std::env::temp_dir().join(format!("spade-resident-{}.spade", std::process::id()));
    Spade::new(SpadeConfig { threads: 1, ..Default::default() })
        .snapshot_ntriples(&nt, &path)
        .expect("snapshot written");

    let before = LIVE.load(Relaxed);
    let built = OfflineState::from_graph(spade_rdf::ingest(&nt, 1).expect("parses"), 1);
    assert_close("from_graph", built.resident_estimate(), LIVE.load(Relaxed) - before);
    drop(built);

    let before = LIVE.load(Relaxed);
    let opened = OfflineState::open(&path, 1).expect("snapshot opens");
    assert_close("open", opened.resident_estimate(), LIVE.load(Relaxed) - before);
    drop(opened);
    std::fs::remove_file(&path).expect("snapshot removed");
}
