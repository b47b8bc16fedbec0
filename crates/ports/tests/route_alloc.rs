//! Steady-state routing must not touch the heap: the compiled routing
//! tables, the refcounted payload handoff, and the preallocated port
//! queues together make [`PortRegistry::route_into`] allocation-free for
//! local-only delivery. A counting global allocator proves it — any
//! `String` clone, `Vec` growth, or map rehash sneaking back into the hot
//! path fails this test.
//!
//! The count is per thread, so a test added to this file later, running
//! on a parallel harness thread, cannot allocate into the measured
//! window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use air_model::{PartitionId, Ticks};
use air_ports::{
    ChannelConfig, Destination, Payload, PortAddr, PortRegistry, QueuingPortConfig,
    SamplingPortConfig,
};

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

fn p(m: u32) -> PartitionId {
    PartitionId(m)
}

/// A registry with one sampling fan-out channel (1→2) and one queuing
/// point-to-point channel, all destinations local.
fn build_registry() -> PortRegistry {
    let mut reg = PortRegistry::new();
    reg.create_sampling_port(p(0), SamplingPortConfig::source("s.tx", 64))
        .unwrap();
    reg.create_sampling_port(
        p(1),
        SamplingPortConfig::destination("s.rx", 64, Ticks(100)),
    )
    .unwrap();
    reg.create_sampling_port(
        p(2),
        SamplingPortConfig::destination("s.rx2", 64, Ticks(100)),
    )
    .unwrap();
    reg.create_queuing_port(p(0), QueuingPortConfig::source("q.tx", 64, 8))
        .unwrap();
    reg.create_queuing_port(p(1), QueuingPortConfig::destination("q.rx", 64, 8))
        .unwrap();
    reg.add_channel(ChannelConfig {
        id: 1,
        source: PortAddr::new(p(0), "s.tx"),
        destinations: vec![
            Destination::Local(PortAddr::new(p(1), "s.rx")),
            Destination::Local(PortAddr::new(p(2), "s.rx2")),
        ],
    })
    .unwrap();
    reg.add_channel(ChannelConfig {
        id: 2,
        source: PortAddr::new(p(0), "q.tx"),
        destinations: vec![Destination::Local(PortAddr::new(p(1), "q.rx"))],
    })
    .unwrap();
    reg
}

#[test]
fn steady_state_route_is_allocation_free() {
    let mut reg = build_registry();
    let mut frames = Vec::new();
    let payload = Payload::from_static(b"attitude quaternion");

    // Warm-up: let every queue, buffer and map reach steady state.
    for round in 0..16u64 {
        let now = Ticks(round);
        reg.sampling_port_mut(p(0), "s.tx")
            .unwrap()
            .write(payload.clone(), now)
            .unwrap();
        reg.queuing_port_mut(p(0), "q.tx")
            .unwrap()
            .send(payload.clone(), now)
            .unwrap();
        reg.route_into(now, &mut frames);
        let _ = reg.sampling_port_mut(p(1), "s.rx").unwrap().read(now);
        let _ = reg.sampling_port_mut(p(2), "s.rx2").unwrap().read(now);
        let _ = reg.queuing_port_mut(p(1), "q.rx").unwrap().receive();
    }

    // Measured phase: the full write → route → read cycle, zero heap
    // traffic.
    let before = ALLOCATIONS.with(Cell::get);
    for round in 16..116u64 {
        let now = Ticks(round);
        reg.sampling_port_mut(p(0), "s.tx")
            .unwrap()
            .write(payload.clone(), now)
            .unwrap();
        reg.queuing_port_mut(p(0), "q.tx")
            .unwrap()
            .send(payload.clone(), now)
            .unwrap();
        reg.route_into(now, &mut frames);
        let _ = reg.sampling_port_mut(p(1), "s.rx").unwrap().read(now);
        let _ = reg.sampling_port_mut(p(2), "s.rx2").unwrap().read(now);
        let _ = reg.queuing_port_mut(p(1), "q.rx").unwrap().receive();
    }
    let allocations = ALLOCATIONS.with(Cell::get) - before;

    assert!(frames.is_empty(), "local-only channels emit no link frames");
    assert_eq!(
        allocations, 0,
        "steady-state local routing must not allocate"
    );
}
