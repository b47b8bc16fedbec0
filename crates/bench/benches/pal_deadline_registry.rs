//! **B2 (Sect. 5.3)** — the deadline-registry structure ablation: sorted
//! linked list (the paper's choice) vs self-balancing tree.
//!
//! The paper's argument: the list gives O(1) earliest-peek and removal —
//! the operations running **inside the clock ISR** — while its O(n)
//! insertion only ever runs in the partition's own window; the tree's
//! O(log n) insertions "will not correlate to effective and/or significant
//! profit … and certainly not compensate for the more critical downside to
//! operations running during an ISR". The series below make that
//! trade-off measurable: ISR-side ops at every n, APEX-side ops at every
//! n, and the crossover (if any) in the insert series.

use bench::criterion::{BenchmarkId, Criterion};
use bench::experiment_header;
use bench::{criterion_group, criterion_main};
use std::hint::black_box;

use air_model::ids::ProcessId;
use air_model::Ticks;
use air_pal::{check_deadlines, BTreeRegistry, DeadlineRegistry, LinkedListRegistry};

const SIZES: [u32; 5] = [1, 4, 16, 64, 256];

fn filled<R: DeadlineRegistry + Default>(n: u32) -> R {
    let mut reg = R::default();
    for q in 0..n {
        // Scattered deadlines; insertion order is shuffled by the stride.
        let d = u64::from((q * 37) % n.max(1)) * 100 + 50;
        reg.register(ProcessId(q), Ticks(d));
    }
    reg
}

fn bench_isr_side(c: &mut Criterion) {
    experiment_header(
        "B2 (Sect. 5.3)",
        "deadline registry ablation: linked list (paper) vs self-balancing tree",
    );
    // The per-check cost is sub-nanosecond for the list; each measured
    // iteration batches 1024 checks (with a varying `now`, always below
    // every armed deadline) so timer calibration stays sane — read the
    // series as "per 1024 ISR checks".
    let mut group = c.benchmark_group("isr_side_no_violation_check_x1024");
    for n in SIZES {
        // `black_box(&mut reg)` keeps the registry opaque: without it,
        // LLVM const-folds the whole no-violation check to a constant and
        // Criterion's warm-up calibration diverges on the zero-cost body.
        group.bench_with_input(BenchmarkId::new("linked_list", n), &n, |b, &n| {
            let mut reg: LinkedListRegistry = filled(n);
            b.iter(|| {
                let mut acc = 0usize;
                for t in 0..1024u64 {
                    let reg = black_box(&mut reg);
                    acc += check_deadlines(reg, black_box(Ticks(t % 50)), |_, _| unreachable!());
                }
                acc
            })
        });
        group.bench_with_input(BenchmarkId::new("btree", n), &n, |b, &n| {
            let mut reg: BTreeRegistry = filled(n);
            b.iter(|| {
                let mut acc = 0usize;
                for t in 0..1024u64 {
                    let reg = black_box(&mut reg);
                    acc += check_deadlines(reg, black_box(Ticks(t % 50)), |_, _| unreachable!());
                }
                acc
            })
        });
    }
    group.finish();

    // Pop/refill pairs: each iteration consumes the earliest entry and
    // re-registers it far in the future — the violation-consumption path
    // of Algorithm 3 line 7, kept steady-state.
    let mut group = c.benchmark_group("isr_side_pop_then_rearm");
    for n in SIZES {
        group.bench_with_input(BenchmarkId::new("linked_list", n), &n, |b, &n| {
            let mut reg: LinkedListRegistry = filled(n);
            let mut far = 1_000_000u64;
            b.iter(|| {
                let (_, pid) = reg.pop_earliest().expect("non-empty");
                far += 1;
                reg.register(pid, black_box(Ticks(far)));
            })
        });
        group.bench_with_input(BenchmarkId::new("btree", n), &n, |b, &n| {
            let mut reg: BTreeRegistry = filled(n);
            let mut far = 1_000_000u64;
            b.iter(|| {
                let (_, pid) = reg.pop_earliest().expect("non-empty");
                far += 1;
                reg.register(pid, black_box(Ticks(far)));
            })
        });
    }
    group.finish();
}

fn bench_apex_side(c: &mut Criterion) {
    // APEX-side: register (START) and update (REPLENISH) — the operations
    // where the tree's O(log n) should eventually win for large n.
    let mut group = c.benchmark_group("apex_side_register");
    for n in SIZES {
        group.bench_with_input(BenchmarkId::new("linked_list", n), &n, |b, &n| {
            let mut reg: LinkedListRegistry = filled(n);
            b.iter(|| {
                // Worst-ish case: a far deadline walks the whole list.
                reg.register(ProcessId(n), black_box(Ticks(1_000_000)));
                reg.unregister(ProcessId(n));
            })
        });
        group.bench_with_input(BenchmarkId::new("btree", n), &n, |b, &n| {
            let mut reg: BTreeRegistry = filled(n);
            b.iter(|| {
                reg.register(ProcessId(n), black_box(Ticks(1_000_000)));
                reg.unregister(ProcessId(n));
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("apex_side_replenish");
    for n in SIZES {
        group.bench_with_input(BenchmarkId::new("linked_list", n), &n, |b, &n| {
            let mut reg: LinkedListRegistry = filled(n);
            let mut flip = false;
            b.iter(|| {
                // Alternate the head entry between earliest and latest:
                // the move the paper describes for REPLENISH (Fig. 6).
                flip = !flip;
                let d = if flip { 1_000_000 } else { 1 };
                reg.register(ProcessId(0), black_box(Ticks(d)));
            })
        });
        group.bench_with_input(BenchmarkId::new("btree", n), &n, |b, &n| {
            let mut reg: BTreeRegistry = filled(n);
            let mut flip = false;
            b.iter(|| {
                flip = !flip;
                let d = if flip { 1_000_000 } else { 1 };
                reg.register(ProcessId(0), black_box(Ticks(d)));
            })
        });
    }
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
    targets = bench_isr_side, bench_apex_side
}
criterion_main!(benches);
