//! **B1 (Sect. 4.3)** — the per-tick cost of the AIR Partition Scheduler.
//!
//! The paper's engineering claim: "in the best and most frequent case,
//! only two computations are performed" — checking for a preemption point
//! is a single comparison off-point, so the mode-based extension costs
//! nothing on ordinary ticks, and the table-iterator form beats a naive
//! per-tick window scan.
//!
//! Series reported:
//! * `off_preemption_point` vs `on_preemption_point` (best vs worst case);
//! * `static` (n(χ)=1) vs `mode_based` (n(χ)=2) — same code path;
//! * `naive_window_scan` — the rejected design, for contrast;
//! * a sweep over windows-per-MTF showing the scheduler's tick cost is
//!   independent of table size (the scan's is not);
//! * `system_step_off_point` — the whole clock ISR (`AirSystem::step` on
//!   the Sect. 6 prototype: interrupt dispatch, Algorithm 1, the PAL
//!   announcement, the heir's body), so the gap between the scheduler's
//!   cost and a whole tick's is measured rather than assumed.

use bench::criterion::{BenchmarkId, Criterion};
use bench::experiment_header;
use bench::{criterion_group, criterion_main};
use std::hint::black_box;
use std::time::{Duration, Instant};

use air_core::prototype::PrototypeHarness;

use air_model::prototype::{fig8_chi1, fig8_system};
use air_model::schedule::{PartitionRequirement, Schedule, TimeWindow};
use air_model::{PartitionId, ScheduleId, ScheduleSet, Ticks};
use air_pmk::scheduler::NaiveWindowScanScheduler;
use air_pmk::PartitionScheduler;

/// Builds a single-schedule system with `n` equal windows over one MTF.
fn schedule_with_windows(n: u64) -> Schedule {
    let width = 10u64;
    let mtf = n * width;
    let partitions = 4.min(n);
    Schedule::new(
        ScheduleId(0),
        "sweep",
        Ticks(mtf),
        (0..partitions)
            .map(|m| PartitionRequirement::new(PartitionId(m as u32), Ticks(mtf), Ticks(width)))
            .collect(),
        (0..n)
            .map(|w| {
                TimeWindow::new(
                    PartitionId((w % partitions) as u32),
                    Ticks(w * width),
                    Ticks(width),
                )
            })
            .collect(),
    )
}

fn bench_tick(c: &mut Criterion) {
    experiment_header(
        "B1 (Sect. 4.3)",
        "partition scheduler per-tick cost: table iterator vs naive scan, static vs mode-based",
    );

    let mut group = c.benchmark_group("pmk_tick");

    // Best/most-frequent case: tick 1 is never a preemption point of χ1
    // (first point after 0 is 200).
    // The off-point tick is ~1 ns (the paper's "two computations"), below
    // reliable timer calibration on a shared VM: each measured iteration
    // batches 1024 off-point ticks (none within [1, 200) is a χ1
    // preemption point) — read as "per 1024 scheduler ticks".
    let sys = fig8_system();
    group.bench_function("mode_based_off_preemption_point_x1024", |b| {
        let mut sched = PartitionScheduler::new(&sys.schedules);
        b.iter(|| {
            let mut hits = 0u32;
            for t in 0..1024u64 {
                hits += u32::from(sched.tick(black_box(t % 199 + 1)).is_some());
            }
            hits
        })
    });

    let single = ScheduleSet::new(vec![fig8_chi1()]);
    group.bench_function("static_off_preemption_point_x1024", |b| {
        let mut sched = PartitionScheduler::new(&single);
        b.iter(|| {
            let mut hits = 0u32;
            for t in 0..1024u64 {
                hits += u32::from(sched.tick(black_box(t % 199 + 1)).is_some());
            }
            hits
        })
    });

    // Worst case: drive the scheduler through whole MTFs so every
    // preemption point (7 per 1300 ticks) is exercised in sequence.
    group.bench_function("mode_based_full_mtf_1300_ticks", |b| {
        let mut sched = PartitionScheduler::new(&sys.schedules);
        let mut t = 0u64;
        b.iter(|| {
            for _ in 0..1300 {
                t += 1;
                black_box(sched.tick(t));
            }
        })
    });

    group.bench_function("naive_scan_full_mtf_1300_ticks", |b| {
        let mut naive = NaiveWindowScanScheduler::new(fig8_chi1());
        let mut t = 0u64;
        b.iter(|| {
            for _ in 0..1300 {
                t += 1;
                black_box(naive.tick(t));
            }
        })
    });

    // The whole ISR off a preemption point. χ1's P4 window [400, 1000)
    // holds 599 off-point ticks; each iteration steps 512 of them, after
    // an untimed run up to a P4 window start whenever fewer than 512 of
    // the current window remain.
    group.bench_function("system_step_off_point_x512", |b| {
        let mut system = PrototypeHarness::build().system;
        b.iter_custom(|iters| {
            let mut measured = Duration::ZERO;
            for _ in 0..iters {
                let now = system.now().as_u64();
                if !(400..=1000 - 1 - 512).contains(&(now % 1300)) {
                    system.run_until(Ticks((now / 1300 + 1) * 1300 + 400));
                }
                let start = Instant::now();
                for _ in 0..512 {
                    system.step();
                }
                measured += start.elapsed();
            }
            black_box(system.now());
            measured
        })
    });

    group.finish();

    // Table-size independence sweep.
    let mut sweep = c.benchmark_group("pmk_tick_vs_table_size");
    for n in [4u64, 16, 64, 256] {
        let schedule = schedule_with_windows(n);
        let set = ScheduleSet::new(vec![schedule.clone()]);
        sweep.bench_with_input(BenchmarkId::new("algorithm1_x1024", n), &n, |b, _| {
            let mut sched = PartitionScheduler::new(&set);
            // Off-point ticks 1..9 (every window is 10 wide).
            b.iter(|| {
                let mut hits = 0u32;
                for t in 0..1024u64 {
                    hits += u32::from(sched.tick(black_box(t % 9 + 1)).is_some());
                }
                hits
            })
        });
        sweep.bench_with_input(BenchmarkId::new("naive_scan_x1024", n), &n, |b, _| {
            let mut naive = NaiveWindowScanScheduler::new(schedule.clone());
            // Ticks inside the *last* window: the scan walks the table.
            let base = (n - 1) * 10;
            b.iter(|| {
                let mut hits = 0u32;
                for t in 0..1024u64 {
                    hits += u32::from(naive.tick(black_box(base + t % 9 + 1)).is_some());
                }
                hits
            })
        });
    }
    sweep.finish();
}

criterion_group! {
    name = benches;
    // Bounded timing budget: the shapes matter, not the fifth
    // significant digit; keeps `cargo bench --workspace` quick.
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_millis(1500))
        .sample_size(30);
    targets = bench_tick
}
criterion_main!(benches);
