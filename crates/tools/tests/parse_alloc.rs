//! Parsing allocates for what the document keeps, not per token: each
//! line's `key=value` pairs sit in one slot per field of its directive,
//! so only names, spans and the model's own collections reach the heap.
//! A counting global allocator pins the count for two example documents;
//! a per-line or per-pair allocation sneaking into the parser fails it.
//!
//! The count is per thread, so the other test in this file, running on a
//! parallel harness thread, cannot allocate into the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;

use air_tools::config::parse;

/// Counts every allocation (alloc + realloc) on the allocating thread
/// while delegating to the system allocator.
struct CountingAlloc;

thread_local! {
    // `const`-initialised and without a destructor, so touching it from
    // inside the allocator never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method delegates to `System` with the caller's own
// arguments; the counter neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The allocations one `parse` of `examples/<name>` makes.
fn parse_allocations(name: &str) -> u64 {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples")
        .join(name);
    let text = std::fs::read_to_string(&path).expect("example exists");
    let before = ALLOCATIONS.with(Cell::get);
    let doc = parse(&text);
    let after = ALLOCATIONS.with(Cell::get);
    assert!(doc.is_ok(), "{name}: {doc:?}");
    after - before
}

#[test]
fn parsing_the_hub_allocates_at_most_62_times() {
    let n = parse_allocations("constellation_hub.air");
    assert!(n <= 62, "constellation_hub.air: {n} allocations");
}

#[test]
fn parsing_fig8_allocates_at_most_55_times() {
    let n = parse_allocations("fig8.air");
    assert!(n <= 55, "fig8.air: {n} allocations");
}
