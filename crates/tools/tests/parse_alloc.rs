//! Reading a configuration allocates for what the document keeps, not
//! per token or per lookup. Parsing keeps each line's `key=value` pairs
//! in one slot per field of its directive and files its source span
//! under a typed key, so only names, the span table and the model's own
//! collections reach the heap. The model snapshot copies those
//! collections, and the lint passes look spans up without building a
//! key. A counting global allocator pins the count of each stage for two
//! example documents: a per-line, per-pair or per-lookup allocation
//! (such as a span key formatted into a `String`) sneaking into any of
//! them fails it.
//!
//! The count is per thread, so the other test in this file, running on a
//! parallel harness thread, cannot allocate into the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;

use air_lint::{lint, SystemModel};
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

/// Runs `stage` and returns its result with the allocations it made.
fn counted<T>(stage: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = stage();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// The allocations of one `parse` of `examples/<name>`, then of
/// `SystemModel::from_config` on the document, then of `lint` on the
/// model.
fn stage_allocations(name: &str) -> [u64; 3] {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples")
        .join(name);
    let text = std::fs::read_to_string(&path).expect("example exists");
    let (doc, parsed) = counted(|| parse(&text));
    let doc = doc.unwrap_or_else(|e| panic!("{name}: {e}"));
    let (model, modelled) = counted(|| SystemModel::from_config(&doc));
    let (_, linted) = counted(|| lint(&model));
    [parsed, modelled, linted]
}

/// Asserts each stage's count is within its budget `[parse, model, lint]`.
fn assert_within(name: &str, budget: [u64; 3]) {
    let counted = stage_allocations(name);
    for ((stage, n), max) in ["parse", "from_config", "lint"]
        .iter()
        .zip(counted)
        .zip(budget)
    {
        assert!(
            n <= max,
            "{name}: {stage} made {n} allocations (budget {max})"
        );
    }
}

#[test]
fn the_hub_stays_within_its_allocation_budgets() {
    assert_within("constellation_hub.air", [28, 19, 45]);
}

#[test]
fn fig8_stays_within_its_allocation_budgets() {
    assert_within("fig8.air", [19, 13, 7]);
}
