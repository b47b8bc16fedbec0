//! **B3 (Sect. 2.1 / Algorithm 2)** — the Partition Dispatcher's cost:
//! the no-switch fast path (heir == active, `elapsedTicks ← 1`) versus a
//! full context switch (save, lastTick bookkeeping, restore, pending
//! actions).

use bench::criterion::Criterion;
use bench::experiment_header;
use bench::{criterion_group, criterion_main};
use std::hint::black_box;

use air_hw::mmu::MmuContextId;
use air_hw::{Cpu, CpuContext};
use air_model::PartitionId;
use air_pmk::PartitionDispatcher;

fn dispatcher_with(n: u32) -> (PartitionDispatcher, Cpu) {
    let mut d = PartitionDispatcher::new();
    for m in 0..n {
        d.register_partition(
            PartitionId(m),
            CpuContext::new(0x1000 * u64::from(m + 1), 0x8000, MmuContextId(m)),
        );
    }
    (d, Cpu::new())
}

fn bench_dispatch(c: &mut Criterion) {
    experiment_header(
        "B3 (Algorithm 2)",
        "partition dispatcher: no-switch fast path vs full context switch",
    );

    let mut group = c.benchmark_group("pmk_dispatch");

    // The fast path is ~1 ns, below reliable timer calibration on a shared
    // VM: each measured iteration batches 256 dispatches (read the series
    // as "per 256 dispatches").
    group.bench_function("same_heir_no_switch_x256", |b| {
        let (mut d, mut cpu) = dispatcher_with(2);
        d.dispatch(Some(PartitionId(0)), 0, &mut cpu);
        let mut t = 1u64;
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..256 {
                t += 1;
                acc += d.dispatch(Some(PartitionId(0)), t, &mut cpu).elapsed_ticks;
            }
            black_box(acc)
        })
    });

    group.bench_function("alternating_context_switch_x256", |b| {
        let (mut d, mut cpu) = dispatcher_with(2);
        let mut t = 0u64;
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..256 {
                t += 1;
                let heir = PartitionId((t % 2) as u32);
                acc += d.dispatch(Some(heir), t, &mut cpu).elapsed_ticks;
            }
            black_box(acc)
        })
    });

    group.bench_function("switch_through_idle_gap_x256", |b| {
        let (mut d, mut cpu) = dispatcher_with(1);
        let mut t = 0u64;
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..256 {
                t += 1;
                let heir = if t.is_multiple_of(2) {
                    Some(PartitionId(0))
                } else {
                    None
                };
                acc += d.dispatch(heir, t, &mut cpu).elapsed_ticks;
            }
            black_box(acc)
        })
    });

    group.bench_function("switch_with_pending_action_x256", |b| {
        let (mut d, mut cpu) = dispatcher_with(2);
        let mut t = 0u64;
        b.iter(|| {
            let mut acc = 0usize;
            for _ in 0..256 {
                t += 1;
                d.queue_schedule_change_actions([(
                    PartitionId((t % 2) as u32),
                    air_model::ScheduleChangeAction::WarmRestart,
                )]);
                acc += d
                    .dispatch(Some(PartitionId((t % 2) as u32)), t, &mut cpu)
                    .actions
                    .len();
            }
            black_box(acc)
        })
    });

    group.finish();
}

criterion_group! {
    name = benches;
    // Bounded timing budget: the shapes matter, not the fifth
    // significant digit; keeps `cargo bench --workspace` quick.
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_millis(1500))
        .sample_size(30);
    targets = bench_dispatch
}
criterion_main!(benches);
