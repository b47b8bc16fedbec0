//! **B4 (Sect. 5)** — deadline-violation **detection latency** as a
//! function of where in the MTF the violation occurs.
//!
//! This is a *simulated-time* experiment: the series printed below (not
//! the wall-clock timings) is the artefact — "this methodology is optimal
//! with respect to deadline violation detection latency": 1 tick while the
//! partition is active, exactly the distance to the next dispatch while it
//! is inactive. The Criterion part measures the cost of a whole simulated
//! MTF of the prototype, i.e. how cheap the always-on monitoring is.

use bench::criterion::Criterion;
use bench::experiment_header;
use bench::{criterion_group, criterion_main};
use std::hint::black_box;

use air_core::prototype::PrototypeHarness;
use air_core::workload::{FaultSwitch, FaultyPeriodic};
use air_core::{PartitionConfig, ProcessConfig, SystemBuilder};
use air_model::process::{Deadline, Priority, ProcessAttributes, Recurrence};
use air_model::schedule::{PartitionRequirement, Schedule, TimeWindow};
use air_model::{Partition, PartitionId, ScheduleId, ScheduleSet, Ticks};

/// Detection instant of a deadline-`d` overrunner in a [0,50)+[50,100)
/// two-partition table (see tests/detection_latency.rs for the assertions).
fn first_detection(d: u64) -> u64 {
    let p0 = PartitionId(0);
    let p1 = PartitionId(1);
    let schedule = Schedule::new(
        ScheduleId(0),
        "lat",
        Ticks(100),
        vec![
            PartitionRequirement::new(p0, Ticks(100), Ticks(50)),
            PartitionRequirement::new(p1, Ticks(100), Ticks(50)),
        ],
        vec![
            TimeWindow::new(p0, Ticks(0), Ticks(50)),
            TimeWindow::new(p1, Ticks(50), Ticks(50)),
        ],
    );
    let fault = FaultSwitch::new();
    fault.activate();
    let mut system = SystemBuilder::new(ScheduleSet::new(vec![schedule]))
        .with_partition(
            PartitionConfig::new(Partition::new(p0, "victim")).with_process(ProcessConfig::new(
                ProcessAttributes::new("overrunner")
                    .with_recurrence(Recurrence::Periodic(Ticks(100)))
                    .with_deadline(Deadline::relative(Ticks(d)))
                    .with_base_priority(Priority(1)),
                FaultyPeriodic::new(1, fault),
            )),
        )
        .with_partition(PartitionConfig::new(Partition::new(p1, "bystander")))
        .build()
        .unwrap();
    system.run_for(250);
    system
        .trace()
        .deadline_misses()
        .first()
        .map(|e| e.at().as_u64())
        .expect("overrunner must miss")
}

fn print_latency_series() {
    experiment_header(
        "B4 (Sect. 5)",
        "detection latency vs violation offset (partition window = [0,50) of a 100-tick MTF)",
    );
    println!(
        "{:>10} {:>12} {:>10}  partition state at violation",
        "deadline", "detected at", "latency"
    );
    for d in (5..100).step_by(5) {
        let at = first_detection(d);
        let state = if d < 49 { "active" } else { "inactive" };
        println!("{:>10} {:>12} {:>10}  {}", d, at, at - d, state);
    }
    println!(
        "\nshape: latency = 1 while active (next-tick detection); \
         latency = next-dispatch - deadline while inactive (optimal)."
    );
}

fn bench_monitoring_cost(c: &mut Criterion) {
    print_latency_series();

    // How much does always-on deadline monitoring cost per simulated MTF
    // of the full prototype? (The paper's design keeps this inside the
    // ISR budget; we measure the whole step loop with it.)
    let mut group = c.benchmark_group("simulated_mtf_cost");
    group.bench_function("prototype_one_mtf_healthy", |b| {
        let mut proto = PrototypeHarness::build();
        b.iter(|| {
            proto.system.run_for(black_box(1300));
        })
    });
    group.bench_function("prototype_one_mtf_faulty", |b| {
        let mut proto = PrototypeHarness::build();
        proto.fault.activate();
        b.iter(|| {
            proto.system.run_for(black_box(1300));
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
    targets = bench_monitoring_cost
}
criterion_main!(benches);
