//! Heap traffic of one fleet machine: a `CampaignSim` on the compact
//! profile, as `fleet_campaign` runs a thousand of them. A counting global
//! allocator pins what the tick loop and the trace render allocate, so a
//! `format!`, a `String` round-trip or an intermediate `Vec` coming back
//! onto the per-tick path fails here.
//!
//! The count is per thread, so a test added to this file later, running
//! on a parallel harness thread, cannot allocate into the measured
//! window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use air_core::campaign::{standard_plan, CampaignSim};
use air_core::Scenario;
use air_model::PartitionId;

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

/// Allocations made on this thread while `f` runs.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (ALLOCATIONS.with(Cell::get) - before, value)
}

/// The rx partition: the consumer of the remote peer's echo frames.
const P_RX: PartitionId = PartitionId(2);

/// 64-bit FNV-1a, the fleet's trace digest.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `standard_plan(7, 1)` built the way a fleet builds its machines, then
/// ticked to its horizon; returns the tick loop's allocation count.
fn ticked_machine() -> (u64, CampaignSim) {
    let mut sim = CampaignSim::build_unchecked(&standard_plan(7, 1));
    let (ticks, ()) = allocations_during(|| sim.run_to_horizon());
    (ticks, sim)
}

#[test]
fn rendering_a_finished_trace_into_a_sized_buffer_allocates_nothing() {
    let (_, sim) = ticked_machine();
    let mut out = String::new();
    sim.render_trace_into(&mut out);
    let len = out.len();
    out.clear();
    let (renders, ()) = allocations_during(|| sim.render_trace_into(&mut out));
    assert_eq!(renders, 0);
    assert_eq!(out.len(), len);
}

#[test]
fn ticking_a_campaign_machine_stays_within_its_allocation_budget() {
    // 233 when pinned: per echo frame (one every 7 ticks) its wire bytes
    // and its decoded payload, per producer message its payload, the HM
    // log's detail strings, and the amortised growth of the trace, the
    // occupancy strip and the consoles. With `format!`-built message
    // bodies and console lines the same run allocated 591 times.
    let (ticks, sim) = ticked_machine();
    assert_eq!(sim.now(), sim.horizon());
    assert!(ticks <= 233, "ticking allocated {ticks} times");
}

#[test]
fn the_rx_console_keeps_its_bytes() {
    // Every echo frame the rx partition drained, one `rx echo-<seq>` line
    // each; pinned from the `format!`-built console lines.
    let (_, sim) = ticked_machine();
    let console = sim.system().console_of(P_RX);
    assert!(console.starts_with("rx echo-1\nrx echo-2\n"), "{console}");
    assert_eq!(
        (
            console.lines().count(),
            console.len(),
            fnv1a(console.as_bytes())
        ),
        (66, 717, 0xea51_ec44_f2fc_5c7b)
    );
}
