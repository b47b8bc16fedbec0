//! **E1 / Fig. 8** — regenerates the prototype's two partition scheduling
//! tables (window tables and timelines) and the **E2 / Eq. 25**
//! verification report, then benches the verifier itself (the offline
//! tool's cost over realistic tables).

use bench::criterion::Criterion;
use bench::experiment_header;
use bench::{criterion_group, criterion_main};
use std::hint::black_box;

use air_model::prototype::fig8_system;
use air_model::verify::{verify_schedule_brute_force, verify_schedule_set};
use air_tools::{render_timeline, render_window_table, verification_report};

fn print_artifacts() {
    experiment_header("E1 (Fig. 8)", "prototype partition scheduling tables");
    let sys = fig8_system();
    for schedule in &sys.schedules {
        print!("{}", render_window_table(schedule));
        println!("{}", render_timeline(schedule, 50));
    }
    experiment_header(
        "E2 (Eq. 25)",
        "verification of the integrator-defined tables",
    );
    println!("{}", verification_report(&sys.schedules, &sys.partitions));
}

fn bench_verifier(c: &mut Criterion) {
    print_artifacts();
    let sys = fig8_system();
    let mut group = c.benchmark_group("fig8_verification");
    group.bench_function("analytic_eq21_23", |b| {
        b.iter(|| {
            let report = verify_schedule_set(black_box(&sys.schedules), &sys.partitions);
            assert!(report.is_ok());
        })
    });
    group.bench_function("brute_force_oracle", |b| {
        b.iter(|| {
            assert!(verify_schedule_brute_force(black_box(
                sys.schedules.initial()
            )))
        })
    });
    group.bench_function("render_timeline_res100", |b| {
        b.iter(|| render_timeline(black_box(sys.schedules.initial()), 100))
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
    targets = bench_verifier
}
criterion_main!(benches);
