//! Explorer heap guard: the peak live heap of one depth-8 search of
//! `examples/constellation_hub.air` on one worker (145,431 states,
//! 727,892 edges), counted by a per-thread allocator.
//!
//! Expanding a whole BFS level before committing it held a candidate
//! list for every successor of the level, 48 B each and 424,722 of them
//! at level 8, on top of the graph: that search peaked at 64.2 MiB.
//! Expanding and committing the frontier in bounded slices peaked at
//! 59.8 MiB, of which 50.1 MiB was the returned graph, most of it an edge
//! list grown by doubling. The graph now stores no edges, and its seen-set
//! is a table of `u32` state indices that reads its keys from the stored
//! states: the search peaks at 11.8 MiB, of which 11.0 MiB is the returned
//! graph. The bound sits between that and 59.8 MiB, so an edge list or a
//! level-wide buffer coming back fails it. The edges are counted after the
//! measured window, through [`SearchGraph::edges`], which derives them.
//!
//! [`SearchGraph::edges`]: air_model::explore::search::SearchGraph::edges
//!
//! The count is per thread and the search runs on the calling thread
//! alone, so a test added to this file later, running on a parallel
//! harness thread, cannot allocate into the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use air_lint::SystemModel;
use air_model::explore::search::{search, SearchConfig};

/// Tracks the live heap bytes of the allocating thread and their peak
/// while delegating to the system allocator.
struct PeakAlloc;

thread_local! {
    // `const`-initialised and without a destructor, so touching them from
    // inside the allocator never allocates. Signed: a thread may free
    // what another allocated.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every method delegates to `System` with the caller's own
// arguments; the counters neither allocate nor unwind.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

const MIB: f64 = (1 << 20) as f64;

/// The bound on the search's peak live heap, in MiB.
const PEAK_BOUND_MIB: f64 = 24.0;

#[test]
fn a_depth_8_hub_search_holds_no_level_wide_buffer() {
    let path = format!(
        "{}/../../examples/constellation_hub.air",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let doc = air_tools::config::parse(&text).expect("the hub parses");
    let ts = air_lint::transition_system_for(&SystemModel::from_config(&doc))
        .expect("the hub has a transition system");
    let config = SearchConfig {
        depth: 8,
        workers: 1,
        ..SearchConfig::default()
    };

    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let graph = search(&ts, &config);
    let peak = (PEAK.with(Cell::get) - base) as f64 / MIB;
    let kept = (LIVE.with(Cell::get) - base) as f64 / MIB;

    assert_eq!(
        (graph.states.len(), graph.edges(&ts).len()),
        (145_431, 727_892)
    );
    assert!(
        peak < PEAK_BOUND_MIB,
        "peak live heap {peak:.1} MiB (graph {kept:.1} MiB) is over \
         {PEAK_BOUND_MIB} MiB"
    );
}
