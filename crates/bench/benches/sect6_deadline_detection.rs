//! **E3 + E4 (Sect. 6)** — the prototype's behavioural experiments:
//!
//! * E3: with the fault injected on P1, the violation is "detected and
//!   reported every time (except the first) that P1 is scheduled and
//!   dispatched" — the per-MTF detection series is printed;
//! * E4: schedule-switch requests at assorted offsets take effect exactly
//!   at the next MTF boundary (latency series printed) and introduce no
//!   deadline violations beyond the injected one.
//!
//! The Criterion part times the full-system step loop under both regimes.

use bench::criterion::Criterion;
use bench::experiment_header;
use bench::{criterion_group, criterion_main};
use std::hint::black_box;

use air_core::prototype::ids::{CHI_1, CHI_2};
use air_core::prototype::PrototypeHarness;
use air_model::prototype::MTF;
use air_model::Ticks;

const M: u64 = MTF.as_u64();

fn print_e3_series() {
    experiment_header(
        "E3 (Sect. 6)",
        "deadline violations detected per P1 dispatch, fault injected after 2 clean MTFs",
    );
    let mut proto = PrototypeHarness::build();
    proto.system.run_for(2 * M);
    proto.fault.activate();
    proto.system.run_for(8 * M);
    let misses: Vec<u64> = proto
        .system
        .trace()
        .deadline_misses()
        .iter()
        .map(|e| e.at().as_u64())
        .collect();
    println!("{:>6} {:>14} {:>12}", "MTF#", "P1 dispatch t", "detections");
    for k in 0..10u64 {
        let dispatch = (k + 1) * M;
        let n = misses.iter().filter(|&&t| t == dispatch).count();
        println!("{:>6} {:>14} {:>12}", k + 1, dispatch, n);
    }
    println!(
        "\nshape: 0 before injection and at the first dispatch after it; \
         exactly 1 per dispatch thereafter (paper: 'every time (except the \
         first) that P1 is scheduled and dispatched')."
    );
}

fn print_e4_series() {
    experiment_header(
        "E4 (Sect. 4/6)",
        "schedule-switch latency vs request offset; extra misses introduced",
    );
    println!(
        "{:>16} {:>14} {:>14} {:>12}",
        "request offset", "effective at", "latency", "extra misses"
    );
    for offset in [1u64, 100, 300, 650, 900, 1299] {
        let mut proto = PrototypeHarness::build();
        proto.system.run_for(offset);
        proto.system.request_schedule(CHI_2).unwrap();
        proto.system.run_until(Ticks(3 * M));
        let st = proto.system.schedule_status();
        println!(
            "{:>16} {:>14} {:>14} {:>12}",
            offset,
            st.last_switch.as_u64(),
            st.last_switch.as_u64() - offset,
            proto.system.trace().deadline_miss_count()
        );
        assert_eq!(st.current, CHI_2);
    }
    println!("\nshape: latency = (MTF - offset); extra misses = 0 at every offset.");
    let _ = CHI_1;
}

fn bench_full_system(c: &mut Criterion) {
    print_e3_series();
    print_e4_series();

    let mut group = c.benchmark_group("sect6_full_system_step");
    group.bench_function("healthy_mtf", |b| {
        let mut proto = PrototypeHarness::build();
        b.iter(|| proto.system.run_for(black_box(M)))
    });
    group.bench_function("faulty_mtf_with_detection_and_restart", |b| {
        let mut proto = PrototypeHarness::build();
        proto.fault.activate();
        b.iter(|| proto.system.run_for(black_box(M)))
    });
    group.bench_function("switching_every_mtf", |b| {
        let mut proto = PrototypeHarness::build();
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            let target = if flip { CHI_2 } else { CHI_1 };
            proto.system.request_schedule(target).unwrap();
            proto.system.run_for(black_box(M));
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
    targets = bench_full_system
}
criterion_main!(benches);
