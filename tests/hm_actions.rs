//! Health-monitoring recovery actions end to end: each entry of the
//! paper's Sect. 5 recovery menu, observed on a running system.

use air_apex::ErrorHandlerTable;
use air_core::workload::{FaultSwitch, FaultyPeriodic};
use air_core::{PartitionConfig, ProcessConfig, RecoveryDisposition, SystemBuilder, TraceEvent};
use air_hm::{
    ErrorId, EscalatedProcessAction, HmTables, ModuleRecoveryAction, ProcessRecoveryAction,
    SystemHmTable,
};
use air_model::process::{Deadline, Priority, ProcessAttributes, Recurrence};
use air_model::schedule::{PartitionRequirement, Schedule, TimeWindow};
use air_model::{Partition, PartitionId, ProcessState, ScheduleId, ScheduleSet, Ticks};

const P: PartitionId = PartitionId(0);

/// One-partition system with an always-overrunning process (deadline 60,
/// period 100, window [0, 40)) under the given error-handler action.
fn overruning_system(action: ProcessRecoveryAction) -> air_core::AirSystem {
    overruning_system_with_tables(action, HmTables::standard())
}

fn overruning_system_with_tables(
    action: ProcessRecoveryAction,
    tables: HmTables,
) -> air_core::AirSystem {
    let schedule = Schedule::new(
        ScheduleId(0),
        "mono",
        Ticks(100),
        vec![PartitionRequirement::new(P, Ticks(100), Ticks(40))],
        vec![TimeWindow::new(P, Ticks(0), Ticks(40))],
    );
    let fault = FaultSwitch::new();
    fault.activate();
    SystemBuilder::new(ScheduleSet::new(vec![schedule]))
        .with_hm_tables(tables)
        .with_partition(
            PartitionConfig::new(Partition::new(P, "LAB"))
                .with_error_handler(
                    ErrorHandlerTable::new().with_action(ErrorId::DeadlineMissed, action),
                )
                .with_process(ProcessConfig::new(
                    ProcessAttributes::new("overrunner")
                        .with_recurrence(Recurrence::Periodic(Ticks(100)))
                        .with_deadline(Deadline::relative(Ticks(60)))
                        .with_base_priority(Priority(1)),
                    FaultyPeriodic::new(1, fault),
                )),
        )
        .build()
        .unwrap()
}

fn process_state(system: &air_core::AirSystem) -> ProcessState {
    system
        .partition(P)
        .process_status(air_model::ids::ProcessId(0))
        .unwrap()
        .0
        .state
}

#[test]
fn ignore_logs_once_and_takes_no_action() {
    // The single armed deadline is consumed at detection; with no restart
    // or replenish, exactly one miss is ever observed.
    let mut system = overruning_system(ProcessRecoveryAction::Ignore);
    system.run_for(10 * 100);
    assert_eq!(system.trace().deadline_miss_count(), 1);
    assert_eq!(system.hm().log().len(), 1);
    assert_eq!(process_state(&system), ProcessState::Running);
}

#[test]
fn log_then_act_replenishes_then_escalates() {
    // threshold 3: occurrences 1–3 log + replenish (so monitoring keeps
    // observing the overrun); occurrence 4 stops the process.
    let mut system = overruning_system(ProcessRecoveryAction::LogThenAct {
        threshold: 3,
        then: EscalatedProcessAction::StopProcess,
    });
    system.run_for(12 * 100);
    assert_eq!(system.trace().deadline_miss_count(), 4);
    assert_eq!(process_state(&system), ProcessState::Dormant);
    // No more misses after the stop.
    system.run_for(5 * 100);
    assert_eq!(system.trace().deadline_miss_count(), 4);
}

#[test]
fn restart_process_misses_once_per_activation() {
    let mut system = overruning_system(ProcessRecoveryAction::RestartProcess);
    system.run_for(10 * 100);
    // Restarted each detection → re-armed each time → one miss per
    // detection cycle; the process itself is alive.
    assert!(system.trace().deadline_miss_count() >= 8);
    assert_ne!(process_state(&system), ProcessState::Dormant);
    assert_eq!(
        system
            .trace()
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::PartitionRestart { .. }))
            .count(),
        0,
        "contained at process level"
    );
}

#[test]
fn stop_process_ends_the_story() {
    let mut system = overruning_system(ProcessRecoveryAction::StopProcess);
    system.run_for(10 * 100);
    assert_eq!(system.trace().deadline_miss_count(), 1);
    assert_eq!(process_state(&system), ProcessState::Dormant);
}

#[test]
fn restart_partition_escalates_and_recovers() {
    let mut system = overruning_system(ProcessRecoveryAction::RestartPartition);
    system.run_for(10 * 100);
    let restarts = system
        .trace()
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::PartitionRestart { partition, warm: true, .. } if *partition == P))
        .count();
    assert!(restarts >= 1);
    // After each restart the process auto-starts again and overruns again:
    // the miss/restart loop continues (the error is persistent).
    assert!(system.trace().deadline_miss_count() >= 2);
}

#[test]
fn stop_partition_silences_it_permanently() {
    let mut system = overruning_system(ProcessRecoveryAction::StopPartition);
    system.run_for(10 * 100);
    assert_eq!(system.trace().deadline_miss_count(), 1);
    let stops = system
        .trace()
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::PartitionStop { partition, .. } if *partition == P))
        .count();
    assert_eq!(stops, 1);
    assert_eq!(system.partition(P).mode(), air_model::OperatingMode::Idle);
}

#[test]
fn module_level_classification_halts_the_module() {
    // Reclassify deadline misses as module-level with a shutdown action:
    // the first detection halts the whole system — "errors detected at
    // system level may lead the entire system to be stopped" (Sect. 2.4).
    let mut tables = HmTables::standard();
    tables.system = SystemHmTable::standard()
        .with_level(ErrorId::DeadlineMissed, air_hm::ErrorLevel::Module)
        .with_module_action(ModuleRecoveryAction::Shutdown);
    let mut system = overruning_system_with_tables(ProcessRecoveryAction::Ignore, tables);
    system.run_for(10 * 100);
    assert!(system.is_halted());
    // The clock stopped advancing at the halt.
    let frozen = system.now();
    system.run_for(100);
    assert_eq!(system.now(), frozen);
}

#[test]
fn module_sourced_fault_under_a_partition_level_table_resets_the_module() {
    // Hardware faults reclassified at partition level: a spurious trap
    // still arrives with a module source, has no partition to act on, and
    // is escalated to the module action (Reset) instead of crashing.
    let mut tables = HmTables::standard();
    tables.system =
        SystemHmTable::standard().with_level(ErrorId::HardwareFault, air_hm::ErrorLevel::Partition);
    let mut system = overruning_system_with_tables(ProcessRecoveryAction::Ignore, tables);
    system.run_for(50);
    system.machine_mut().inject_spurious_trap(3);
    system.run_for(50);
    let recoveries: Vec<&TraceEvent> = system
        .trace()
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e,
                TraceEvent::RecoveryApplied {
                    error: ErrorId::HardwareFault,
                    ..
                }
            )
        })
        .collect();
    assert_eq!(recoveries.len(), 1, "{recoveries:?}");
    assert!(matches!(
        recoveries[0],
        TraceEvent::RecoveryApplied {
            partition: None,
            disposition: RecoveryDisposition::ModuleReset,
            ..
        }
    ));
    assert!(!system.is_halted());
}
