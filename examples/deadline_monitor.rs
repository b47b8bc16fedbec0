//! Process deadline violation monitoring and its recovery menu (Sect. 5).
//!
//! Runs the same overrunning workload under each of the paper's recovery
//! actions — ignore, log-N-times-then-act, restart the process, stop the
//! process, restart the partition — and prints what health monitoring did
//! in each case.
//!
//! ```text
//! cargo run --example deadline_monitor
//! ```

use air_apex::ErrorHandlerTable;
use air_core::workload::{FaultSwitch, FaultyPeriodic};
use air_core::{PartitionConfig, ProcessConfig, SystemBuilder, TraceEvent};
use air_hm::{ErrorId, EscalatedProcessAction, ProcessRecoveryAction};
use air_model::process::{Deadline, Priority, ProcessAttributes, Recurrence};
use air_model::schedule::{PartitionRequirement, Schedule, TimeWindow};
use air_model::{Partition, PartitionId, ScheduleId, ScheduleSet, Ticks};

const P: PartitionId = PartitionId(0);

/// Builds a one-partition system whose single process overruns from the
/// start, with the given recovery action installed.
fn run_scenario(action: ProcessRecoveryAction, label: &str) {
    let schedule = Schedule::new(
        ScheduleId(0),
        "mono",
        Ticks(100),
        vec![PartitionRequirement::new(P, Ticks(100), Ticks(40))],
        vec![TimeWindow::new(P, Ticks(0), Ticks(40))],
    );
    let fault = FaultSwitch::new();
    fault.activate(); // overruns from the very first activation

    let mut system = SystemBuilder::new(ScheduleSet::new(vec![schedule]))
        .with_partition(
            PartitionConfig::new(Partition::new(P, "LAB"))
                .with_error_handler(
                    ErrorHandlerTable::new().with_action(ErrorId::DeadlineMissed, action),
                )
                .with_process(ProcessConfig::new(
                    ProcessAttributes::new("overrunner")
                        .with_recurrence(Recurrence::Periodic(Ticks(100)))
                        .with_deadline(Deadline::relative(Ticks(60)))
                        .with_base_priority(Priority(1))
                        .with_wcet(Ticks(10)),
                    FaultyPeriodic::new(10, fault.clone()),
                )),
        )
        .build()
        .expect("valid configuration");

    system.run_for(10 * 100);

    let misses = system.trace().deadline_miss_count();
    let restarts = system
        .trace()
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::PartitionRestart { .. }))
        .count();
    let stops = system
        .trace()
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::PartitionStop { .. }))
        .count();
    let state = system
        .partition(P)
        .process_status(air_model::ids::ProcessId(0))
        .map(|(s, _)| s.state)
        .unwrap();
    println!(
        "{label:<28} misses={misses:<3} partition_restarts={restarts} partition_stops={stops} final_process_state={state}"
    );
}

fn main() {
    println!(
        "recovery action                ... observed over 10 MTFs (deadline 60, period 100)\n"
    );
    run_scenario(ProcessRecoveryAction::Ignore, "ignore (log only)");
    run_scenario(
        ProcessRecoveryAction::LogThenAct {
            threshold: 3,
            then: EscalatedProcessAction::StopProcess,
        },
        "log 3 times then stop",
    );
    run_scenario(ProcessRecoveryAction::RestartProcess, "restart process");
    run_scenario(ProcessRecoveryAction::StopProcess, "stop process");
    run_scenario(ProcessRecoveryAction::RestartPartition, "restart partition");
    run_scenario(ProcessRecoveryAction::StopPartition, "stop partition");
    println!("\ndeadline_monitor OK");
}
