//! The integrator's workflow, end to end: write a configuration file,
//! verify it, analyse process schedulability, synthesise an alternative
//! table from raw requirements, and compare the *planned* timeline with
//! the *actual* execution Gantt of a simulated run.
//!
//! ```text
//! cargo run -p air-tools --example integration_tools
//! ```

use air_core::workload::PeriodicCompute;
use air_core::{PartitionConfig, ProcessConfig, SystemBuilder};
use air_model::process::{Deadline, Priority, ProcessAttributes, Recurrence};
use air_model::schedule::PartitionRequirement;
use air_model::{PartitionId, ScheduleId, Ticks};
use air_tools::config::{emit, parse, ConfigDoc};
use air_tools::schedulability::{analyze_partition_with_phasing, Phasing};
use air_tools::{render_timeline, synthesize_schedule, verification_report};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The integrator writes a configuration document.
    let text = "\
# ground-segment interface computer
partition P0 name=CONTROL authority=true
partition P1 name=COMMS

schedule chi0 name=ops mtf=200
  require P0 cycle=100 duration=40
  require P1 cycle=200 duration=60
  window P0 offset=0 duration=40
  window P1 offset=40 duration=60
  window P0 offset=100 duration=40
";
    let doc = parse(text)?;
    println!(
        "== configuration parsed: {} partitions, {} schedule(s) ==\n",
        doc.partitions.len(),
        doc.schedules.len()
    );

    // 2. Offline verification (Eq. 21-23).
    let set = doc.schedule_set();
    println!("{}", verification_report(&set, &doc.partitions));

    // 3. Process-level schedulability for the CONTROL partition.
    let control_processes = vec![
        ProcessAttributes::new("guidance")
            .with_recurrence(Recurrence::Periodic(Ticks(100)))
            .with_deadline(Deadline::relative(Ticks(100)))
            .with_base_priority(Priority(1))
            .with_wcet(Ticks(25)),
        ProcessAttributes::new("logging")
            .with_recurrence(Recurrence::Periodic(Ticks(200)))
            .with_deadline(Deadline::relative(Ticks(200)))
            .with_base_priority(Priority(5))
            .with_wcet(Ticks(20)),
    ];
    println!("== schedulability of CONTROL's processes ==");
    for phasing in [Phasing::Arbitrary, Phasing::MtfLocked] {
        let result = analyze_partition_with_phasing(
            set.initial(),
            PartitionId(0),
            &control_processes,
            phasing,
        )?;
        println!("{phasing:?}:");
        for v in &result.processes {
            println!(
                "  {:<10} wcrt={:<6} schedulable={}",
                v.name,
                v.wcrt.map(|t| t.to_string()).unwrap_or_else(|| "-".into()),
                v.schedulable
            );
        }
    }

    // 4. Synthesise an alternative table from the raw requirements and
    //    emit it back as configuration text.
    let synthesized = synthesize_schedule(
        ScheduleId(1),
        &[
            PartitionRequirement::new(PartitionId(0), Ticks(100), Ticks(40)),
            PartitionRequirement::new(PartitionId(1), Ticks(200), Ticks(60)),
        ],
    )?;
    println!("\n== synthesised alternative ==");
    println!("{}", render_timeline(&synthesized, 5));
    let mut alt_doc = ConfigDoc {
        partitions: doc.partitions.clone(),
        schedules: doc.schedules.clone(),
        ..ConfigDoc::default()
    };
    alt_doc.schedules.push(synthesized);
    println!("emitted configuration:\n{}", emit(&alt_doc));

    // 5. Run the configured system and compare planned vs actual.
    let mut system = SystemBuilder::new(set)
        .with_partition(
            PartitionConfig::new(doc.partitions[0].clone()).with_process(ProcessConfig::new(
                control_processes[0].clone(),
                PeriodicCompute::new(25),
            )),
        )
        .with_partition(
            PartitionConfig::new(doc.partitions[1].clone()).with_process(ProcessConfig::new(
                ProcessAttributes::new("comms")
                    .with_recurrence(Recurrence::Periodic(Ticks(200)))
                    .with_deadline(Deadline::relative(Ticks(200)))
                    .with_base_priority(Priority(2))
                    .with_wcet(Ticks(50)),
                PeriodicCompute::new(50),
            )),
        )
        .build()?;
    system.run_for(3 * 200);
    println!("== planned (model timeline) ==");
    println!(
        "{}",
        render_timeline(doc.schedules.first().expect("one schedule"), 5)
    );
    println!("== actual (execution Gantt, same resolution) ==");
    println!("    |{}", system.trace().render_gantt(5));
    println!(
        "\nmisses={} switches={}",
        system.trace().deadline_miss_count(),
        system.trace().partition_switch_count()
    );
    assert_eq!(system.trace().deadline_miss_count(), 0);
    println!("integration_tools OK");
    Ok(())
}
