//! Coexistence of real-time and generic non-real-time POSs (Sect. 2.5):
//! a Linux-like partition shares the platform with hard-real-time ones
//! without being able to undermine their timeliness.

use std::sync::{Arc, Mutex};

use air_core::workload::{PeriodicCompute, ProcessApi, ProcessBody};
use air_core::{PartitionConfig, ProcessConfig, SystemBuilder};
use air_hw::interrupt::{InterruptLine, ParavirtOutcome, PrivilegeLevel};
use air_model::partition::PosKind;
use air_model::process::{Deadline, Priority, ProcessAttributes, Recurrence};
use air_model::schedule::{PartitionRequirement, Schedule, TimeWindow};
use air_model::{Partition, PartitionId, ScheduleId, ScheduleSet, Ticks};

const RT: PartitionId = PartitionId(0);
const LINUX: PartitionId = PartitionId(1);

/// A Linux-like workload: spins, counts, and periodically *tries* to mask
/// the system clock interrupt (the misbehaviour Sect. 2.5 paravirtualises
/// away).
struct RogueGuest {
    executed: Arc<Mutex<Vec<u64>>>,
}

impl ProcessBody for RogueGuest {
    fn on_tick(&mut self, api: &mut ProcessApi<'_>) {
        self.executed.lock().unwrap().push(api.now.as_u64());
        // The clock-tampering attempt happens at machine level; the test
        // drives it through the interrupt controller directly below.
    }
}

fn build() -> (air_core::AirSystem, Arc<Mutex<Vec<u64>>>) {
    let schedule = Schedule::new(
        ScheduleId(0),
        "mixed",
        Ticks(100),
        vec![
            PartitionRequirement::new(RT, Ticks(100), Ticks(40)),
            // The generic partition has no strict requirement (d = 0 per
            // Sect. 3.1) but still receives a best-effort window.
            PartitionRequirement::new(LINUX, Ticks(100), Ticks(0)),
        ],
        vec![
            TimeWindow::new(RT, Ticks(0), Ticks(40)),
            TimeWindow::new(LINUX, Ticks(40), Ticks(60)),
        ],
    );
    let executed = Arc::new(Mutex::new(Vec::new()));
    let system = SystemBuilder::new(ScheduleSet::new(vec![schedule]))
        .with_partition(
            PartitionConfig::new(Partition::new(RT, "CONTROL")).with_process(ProcessConfig::new(
                ProcessAttributes::new("hard-loop")
                    .with_recurrence(Recurrence::Periodic(Ticks(100)))
                    .with_deadline(Deadline::relative(Ticks(100)))
                    .with_base_priority(Priority(1))
                    .with_wcet(Ticks(30)),
                PeriodicCompute::new(30),
            )),
        )
        .with_partition(
            PartitionConfig::new(
                Partition::new(LINUX, "LINUX").with_pos_kind(PosKind::GenericNonRealTime),
            )
            .with_process(ProcessConfig::new(
                ProcessAttributes::new("rogue"),
                RogueGuest {
                    executed: Arc::clone(&executed),
                },
            )),
        )
        .build()
        .unwrap();
    (system, executed)
}

#[test]
fn generic_partition_runs_round_robin_in_its_window() {
    let (mut system, executed) = build();
    system.run_for(500);
    let log = executed.lock().unwrap();
    assert!(!log.is_empty(), "the generic guest must get CPU time");
    // Every execution instant lies inside the LINUX window [40, 100).
    for &t in log.iter() {
        let phase = t % 100;
        assert!((40..100).contains(&phase), "guest ran at phase {phase}");
    }
}

#[test]
fn rt_deadlines_unaffected_by_the_generic_neighbour() {
    let (mut system, _) = build();
    system.run_for(20 * 100);
    assert_eq!(system.trace().deadline_miss_count(), 0);
}

#[test]
fn guest_clock_masking_is_paravirtualised_away() {
    let (mut system, executed) = build();
    system.run_for(150); // inside the LINUX window of the second MTF

    // The guest attempts to disable the system clock interrupt — the
    // instruction is wrapped (Sect. 2.5): the controller records the
    // attempt but the line stays enabled.
    let outcome = system
        .machine_mut()
        .intc
        .mask(InterruptLine::ClockTick, PrivilegeLevel::Guest);
    assert_eq!(outcome, ParavirtOutcome::Wrapped);
    assert!(system
        .machine_mut()
        .intc
        .is_enabled(InterruptLine::ClockTick));
    assert_eq!(system.machine_mut().intc.wrapped_clock_attempts(), 1);

    // Time keeps flowing: the scheduler keeps switching partitions and RT
    // deadlines keep being met.
    let before = system.trace().partition_switch_count();
    system.run_for(10 * 100);
    assert!(system.trace().partition_switch_count() > before);
    assert_eq!(system.trace().deadline_miss_count(), 0);
    let after = executed.lock().unwrap().len();
    assert!(after > 0);
}

#[test]
fn rt_services_rejected_on_the_generic_pos() {
    let (mut system, _) = build();
    let rogue = system.partition(LINUX).process_id("rogue").unwrap();
    let err = system
        .partition_mut(LINUX)
        .set_priority(rogue, Priority(0))
        .unwrap_err();
    assert_eq!(err.code, air_apex::ReturnCode::NotAvailable);
    let err = system
        .partition_mut(LINUX)
        .periodic_wait(rogue, Ticks(0))
        .unwrap_err();
    assert_eq!(err.code, air_apex::ReturnCode::NotAvailable);
}

#[test]
fn generic_partition_round_robin_shares_between_processes() {
    // Two guests in the generic partition: both make progress (quantum
    // rotation), unlike the strict-priority RTOS where one would starve.
    let schedule = Schedule::new(
        ScheduleId(0),
        "solo",
        Ticks(50),
        vec![PartitionRequirement::new(RT, Ticks(50), Ticks(0))],
        vec![TimeWindow::new(RT, Ticks(0), Ticks(50))],
    );
    let a = Arc::new(Mutex::new(Vec::new()));
    let b = Arc::new(Mutex::new(Vec::new()));
    let mut system = SystemBuilder::new(ScheduleSet::new(vec![schedule]))
        .with_partition(
            PartitionConfig::new(
                Partition::new(RT, "LINUX").with_pos_kind(PosKind::GenericNonRealTime),
            )
            .with_process(ProcessConfig::new(
                ProcessAttributes::new("task-a"),
                RogueGuest {
                    executed: Arc::clone(&a),
                },
            ))
            .with_process(ProcessConfig::new(
                ProcessAttributes::new("task-b"),
                RogueGuest {
                    executed: Arc::clone(&b),
                },
            )),
        )
        .build()
        .unwrap();
    system.run_for(1000);
    let (na, nb) = (a.lock().unwrap().len(), b.lock().unwrap().len());
    assert!(na > 100, "task-a starved: {na}");
    assert!(nb > 100, "task-b starved: {nb}");
    // Round-robin fairness: within 25% of each other.
    let diff = na.abs_diff(nb) as f64 / na.max(nb) as f64;
    assert!(diff < 0.25, "unfair split: {na} vs {nb}");
}
