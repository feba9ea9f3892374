//! A request's results do not outlive their lattice, and its allocations
//! stay counted.
//!
//! Step 5 folds each finished lattice into the request's top-k and drops
//! the rest of its result, so the peak heap of one `Spade::run_on` above
//! the loaded state stays far below what every `CubeResult` of the request
//! held together. A counting global allocator measures it, and counts the
//! request's allocations too. It is this test binary's own allocator, and
//! the binary has one test, so nothing else allocates while it counts. At
//! one thread the allocation sequence is the same from run to run, so both
//! figures repeat and this is not a timing test.

use spade_core::{OfflineState, RequestConfig, Spade, SpadeConfig};
use spade_datagen::{realistic, RealisticConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            ALLOCATIONS.fetch_add(1, Relaxed);
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            ALLOCATIONS.fetch_add(1, Relaxed);
            grow(layout.size());
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
            ALLOCATIONS.fetch_add(1, Relaxed);
            LIVE.fetch_sub(layout.size(), Relaxed);
            grow(new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The bound on the peak live heap of one default request above the state.
/// Every result of the request held at once came to 27.1 MB; the fold
/// keeps about 2.2 MB.
const PEAK_ABOVE_STATE: usize = 8_000_000;

/// The bound on the allocations of one default request. With translation
/// sorting `(partition, cell, fact)` triples the request made about
/// 705 940; placing `(key, fact)` entries by radix, it makes about 615 050.
const ALLOCATIONS_PER_REQUEST: usize = 650_000;

#[test]
fn default_request_peak_heap_stays_bounded() {
    // The `explore_cold` graph of the pinned benchmark, on one thread.
    let graph = realistic::ceos(&RealisticConfig { scale: 250, seed: 7 });
    let state = OfflineState::from_graph(graph, 1);
    let spade = Spade::new(SpadeConfig { threads: 1, ..Default::default() });

    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let allocations = ALLOCATIONS.load(Relaxed);
    let report = spade.run_on(&state, &RequestConfig::default());
    let peak = PEAK.load(Relaxed) - base;
    let allocations = ALLOCATIONS.load(Relaxed) - allocations;

    assert!(!report.top.is_empty());
    eprintln!("run_on: peak live {peak} B above the state, {allocations} allocations");
    assert!(
        peak <= PEAK_ABOVE_STATE,
        "run_on held {peak} B live above the state, over the {PEAK_ABOVE_STATE} B bound"
    );
    assert!(
        allocations <= ALLOCATIONS_PER_REQUEST,
        "run_on made {allocations} allocations, over the {ALLOCATIONS_PER_REQUEST} bound"
    );
}
