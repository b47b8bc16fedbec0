//! Experiment B4: deadline-violation **detection latency optimality**
//! (Sect. 5): "this methodology is optimal with respect to deadline
//! violation detection latency" — a violation while the partition is
//! active is caught at the very next clock tick; a violation while it is
//! inactive is caught at the partition's next dispatch, "just before
//! invoking the process scheduler".

use air_apex::ErrorHandlerTable;
use air_core::workload::{FaultSwitch, FaultyPeriodic, PeriodicCompute};
use air_core::{PartitionConfig, ProcessConfig, SystemBuilder, TraceEvent};
use air_hm::{ErrorId, ProcessRecoveryAction};
use air_model::process::{Deadline, Priority, ProcessAttributes, Recurrence};
use air_model::schedule::{PartitionRequirement, Schedule, TimeWindow};
use air_model::{Partition, PartitionId, ScheduleId, ScheduleSet, Ticks};

const P0: PartitionId = PartitionId(0);
const P1: PartitionId = PartitionId(1);

/// Builds a two-partition system (P0: [0, 50), P1: [50, 100)) with one
/// always-overrunning process in P0 whose relative deadline is `d`.
fn overrun_system(d: u64) -> air_core::AirSystem {
    let schedule = Schedule::new(
        ScheduleId(0),
        "lat",
        Ticks(100),
        vec![
            PartitionRequirement::new(P0, Ticks(100), Ticks(50)),
            PartitionRequirement::new(P1, Ticks(100), Ticks(50)),
        ],
        vec![
            TimeWindow::new(P0, Ticks(0), Ticks(50)),
            TimeWindow::new(P1, Ticks(50), Ticks(50)),
        ],
    );
    let fault = FaultSwitch::new();
    fault.activate();
    SystemBuilder::new(ScheduleSet::new(vec![schedule]))
        .with_partition(
            PartitionConfig::new(Partition::new(P0, "victim")).with_process(ProcessConfig::new(
                ProcessAttributes::new("overrunner")
                    .with_recurrence(Recurrence::Periodic(Ticks(100)))
                    .with_deadline(Deadline::relative(Ticks(d)))
                    .with_base_priority(Priority(1)),
                FaultyPeriodic::new(1, fault),
            )),
        )
        .with_partition(PartitionConfig::new(Partition::new(P1, "bystander")))
        .build()
        .unwrap()
}

/// First detection instant for a process started at t=0 with deadline `d`.
fn first_detection(d: u64) -> u64 {
    let mut system = overrun_system(d);
    system.run_for(250);
    system
        .trace()
        .deadline_misses()
        .first()
        .map(|e| e.at().as_u64())
        .expect("an always-overrunning process must miss")
}

#[test]
fn active_partition_detects_at_next_tick() {
    // Deadline expires inside P0's own window [0, 50): Eq. 24's strict
    // `D′ < t` means the first violating instant is d + 1 — exactly when
    // the per-tick announcement catches it.
    for d in [10u64, 25, 37, 48] {
        assert_eq!(first_detection(d), d + 1, "deadline {d}");
    }
}

#[test]
fn inactive_partition_detects_at_next_dispatch() {
    // Deadline expires in [50, 100) while P1 holds the CPU: detection
    // waits for P0's dispatch at t = 100 — and no earlier observer exists,
    // so this is optimal (Sect. 5).
    for d in [50u64, 65, 80, 99] {
        assert_eq!(first_detection(d), 100, "deadline {d}");
    }
}

#[test]
fn boundary_case_deadline_at_window_edge() {
    // d = 49: D′ = 49, first violating instant is t = 50 — the tick of the
    // partition switch itself. P0 is switched out at 50; the violation is
    // detected at P0's next dispatch (t = 100).
    // (At t = 50 the dispatcher announces to the heir P1, not to P0.)
    assert_eq!(first_detection(49), 100);
}

#[test]
fn latency_series_for_the_b4_bench_shape() {
    // The shape EXPERIMENTS.md records: latency as a function of where in
    // the MTF the deadline lands — 1 tick inside the partition's window,
    // rising linearly to a worst case of (MTF − window end) + window start
    // across the inactive span.
    let mut series = Vec::new();
    for d in (5..100).step_by(5) {
        let detection = first_detection(d);
        series.push((d, detection - d));
    }
    for &(d, latency) in &series {
        if d < 49 {
            assert_eq!(latency, 1, "in-window deadline {d}");
        } else {
            assert_eq!(latency, 100 - d, "out-of-window deadline {d}");
        }
    }
    // The worst case is right after the window closes.
    let worst = series.iter().map(|&(_, l)| l).max().unwrap();
    assert_eq!(worst, 100 - 50, "worst case: deadline just past the window");
}

#[test]
fn detection_is_reported_with_the_missed_deadline_value() {
    let mut system = overrun_system(30);
    system.run_for(150);
    let TraceEvent::DeadlineMiss { deadline, .. } = system.trace().deadline_misses()[0] else {
        unreachable!()
    };
    assert_eq!(deadline.as_u64(), 30);
}

#[test]
fn multiple_pending_violations_detected_in_ascending_order_at_dispatch() {
    // Three processes with staggered deadlines all expire while the
    // partition is inactive; at the next dispatch the Algorithm 3 loop
    // reports them earliest-first.
    let schedule = Schedule::new(
        ScheduleId(0),
        "multi",
        Ticks(100),
        vec![
            PartitionRequirement::new(P0, Ticks(100), Ticks(30)),
            PartitionRequirement::new(P1, Ticks(100), Ticks(70)),
        ],
        vec![
            TimeWindow::new(P0, Ticks(0), Ticks(30)),
            TimeWindow::new(P1, Ticks(30), Ticks(70)),
        ],
    );
    let fault = FaultSwitch::new();
    fault.activate();
    let mut cfg = PartitionConfig::new(Partition::new(P0, "multi"));
    for (i, d) in [70u64, 50, 60].iter().enumerate() {
        cfg = cfg.with_process(ProcessConfig::new(
            ProcessAttributes::new(format!("p{i}"))
                .with_recurrence(Recurrence::Periodic(Ticks(100)))
                .with_deadline(Deadline::relative(Ticks(*d)))
                .with_base_priority(Priority(1)),
            FaultyPeriodic::new(1, fault.clone()),
        ));
    }
    let mut system = SystemBuilder::new(ScheduleSet::new(vec![schedule]))
        .with_partition(cfg)
        .with_partition(PartitionConfig::new(Partition::new(P1, "bystander")))
        .build()
        .unwrap();
    system.run_for(120);
    let order: Vec<u64> = system
        .trace()
        .deadline_misses()
        .iter()
        .map(|e| {
            let TraceEvent::DeadlineMiss { deadline, at, .. } = e else {
                unreachable!()
            };
            assert_eq!(at.as_u64(), 100, "all detected at the dispatch");
            deadline.as_u64()
        })
        .collect();
    assert_eq!(order, vec![50, 60, 70], "ascending deadline order");
}

#[test]
fn a_deadline_passed_while_inactive_is_reported_once() {
    // MTF 100: P0 holds [0, 10), P1 the rest. One P0 process, T = 150,
    // D = 5, C = 3. Releases at 150 and 450 fall in P1's window, so
    // D′ = 155 and D′ = 455 pass while P0 is inactive. Each is reported
    // at P0's next dispatch (t = 200, t = 500) and only there, though the
    // job runs on past it: `PERIODIC_WAIT` armed D′ once, and the release
    // does not arm it again.
    for handler in [None, Some(ProcessRecoveryAction::Ignore)] {
        let schedule = Schedule::new(
            ScheduleId(0),
            "late",
            Ticks(100),
            vec![
                PartitionRequirement::new(P0, Ticks(100), Ticks(10)),
                PartitionRequirement::new(P1, Ticks(100), Ticks(90)),
            ],
            vec![
                TimeWindow::new(P0, Ticks(0), Ticks(10)),
                TimeWindow::new(P1, Ticks(10), Ticks(90)),
            ],
        );
        let mut p0 =
            PartitionConfig::new(Partition::new(P0, "late")).with_process(ProcessConfig::new(
                ProcessAttributes::new("job")
                    .with_recurrence(Recurrence::Periodic(Ticks(150)))
                    .with_deadline(Deadline::relative(Ticks(5)))
                    .with_base_priority(Priority(1)),
                PeriodicCompute::new(3),
            ));
        if let Some(action) = handler {
            p0 = p0.with_error_handler(
                ErrorHandlerTable::new().with_action(ErrorId::DeadlineMissed, action),
            );
        }
        let mut system = SystemBuilder::new(ScheduleSet::new(vec![schedule]))
            .with_partition(p0)
            .with_partition(PartitionConfig::new(Partition::new(P1, "bystander")))
            .build()
            .unwrap();
        system.run_for(700);
        let misses: Vec<(u64, u64)> = system
            .trace()
            .deadline_misses()
            .iter()
            .map(|e| {
                let TraceEvent::DeadlineMiss { deadline, at, .. } = e else {
                    unreachable!()
                };
                (at.as_u64(), deadline.as_u64())
            })
            .collect();
        assert_eq!(misses, vec![(200, 155), (500, 455)], "handler {handler:?}");
    }
}
