//! Quickstart: a minimal two-partition TSP system.
//!
//! Builds a 100-tick-MTF schedule hosting a control partition and a
//! telemetry partition, runs it for five major time frames, and prints
//! the schedule timeline, the verification report and the run summary.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use air_core::workload::PeriodicCompute;
use air_core::{PartitionConfig, ProcessConfig, SystemBuilder};
use air_model::process::{Deadline, Priority, ProcessAttributes, Recurrence};
use air_model::schedule::{PartitionRequirement, Schedule, TimeWindow};
use air_model::{Partition, PartitionId, ScheduleId, ScheduleSet, Ticks};
use air_tools::{render_timeline, verification_report};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let control = PartitionId(0);
    let telemetry = PartitionId(1);

    // One scheduling table: control gets 30/50 (twice per MTF), telemetry
    // 30/100.
    let schedule = Schedule::new(
        ScheduleId(0),
        "cruise",
        Ticks(100),
        vec![
            PartitionRequirement::new(control, Ticks(50), Ticks(30)),
            PartitionRequirement::new(telemetry, Ticks(100), Ticks(30)),
        ],
        vec![
            TimeWindow::new(control, Ticks(0), Ticks(30)),
            TimeWindow::new(telemetry, Ticks(30), Ticks(30)),
            TimeWindow::new(control, Ticks(60), Ticks(30)),
        ],
    );
    let schedules = ScheduleSet::new(vec![schedule]);

    let partitions = vec![
        Partition::new(control, "CONTROL"),
        Partition::new(telemetry, "TELEMETRY"),
    ];
    println!("{}", verification_report(&schedules, &partitions));
    println!("{}", render_timeline(schedules.initial(), 2));

    let mut system = SystemBuilder::new(schedules)
        .with_partition(
            PartitionConfig::new(partitions[0].clone()).with_process(ProcessConfig::new(
                ProcessAttributes::new("control-loop")
                    .with_recurrence(Recurrence::Periodic(Ticks(50)))
                    .with_deadline(Deadline::relative(Ticks(50)))
                    .with_base_priority(Priority(1))
                    .with_wcet(Ticks(20)),
                PeriodicCompute::new(20),
            )),
        )
        .with_partition(
            PartitionConfig::new(partitions[1].clone()).with_process(ProcessConfig::new(
                ProcessAttributes::new("telemetry-pack")
                    .with_recurrence(Recurrence::Periodic(Ticks(100)))
                    .with_deadline(Deadline::relative(Ticks(100)))
                    .with_base_priority(Priority(2))
                    .with_wcet(Ticks(25)),
                PeriodicCompute::new(25),
            )),
        )
        .build()?;

    system.run_for(500);

    println!("after {}:", system.now());
    println!(
        "  partition context switches: {}",
        system.trace().partition_switch_count()
    );
    println!(
        "  deadline misses:            {}",
        system.trace().deadline_miss_count()
    );
    println!("  HM log entries:             {}", system.hm().log().len());
    assert_eq!(system.trace().deadline_miss_count(), 0);
    println!("quickstart OK: both partitions met every deadline.");
    Ok(())
}
