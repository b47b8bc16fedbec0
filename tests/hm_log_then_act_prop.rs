//! Property tests for the health monitor's log-N-times-then-act policy
//! (Fig. 6): randomized error sequences and thresholds, seeded xorshift —
//! any failure prints its seed for replay.
//!
//! The contract under test: occurrences are counted **per (source, error)
//! pair**, and a `LogThenAct { threshold: N, .. }` handler replenishes on
//! occurrences 1..=N and escalates at exactly occurrence N+1 — never
//! before, never again later than that (a persistent error keeps
//! escalating every occurrence past the threshold).

use std::collections::HashMap;

use air_apex::ErrorHandlerTable;
use air_core::workload::{FaultSwitch, FaultyPeriodic};
use air_core::{AirSystem, PartitionConfig, ProcessConfig, SystemBuilder, TraceEvent};
use air_hm::{
    ErrorId, ErrorSource, EscalatedProcessAction, HealthMonitor, HmDecision, HmTables,
    ProcessRecoveryAction,
};
use air_model::ids::{GlobalProcessId, ProcessId};
use air_model::process::{Deadline, Priority, ProcessAttributes, Recurrence};
use air_model::schedule::{PartitionRequirement, Schedule, TimeWindow};
use air_model::testkit::TestRng;
use air_model::{Partition, PartitionId, ProcessState, ScheduleId, ScheduleSet, Ticks};

/// Process-level error classes of the standard system table.
const PROCESS_ERRORS: [ErrorId; 5] = [
    ErrorId::DeadlineMissed,
    ErrorId::ApplicationError,
    ErrorId::NumericError,
    ErrorId::IllegalRequest,
    ErrorId::StackOverflow,
];

#[test]
fn occurrences_count_per_source_error_pair_independently() {
    for seed in 1..=20u64 {
        let mut rng = TestRng::new(seed);
        let mut hm = HealthMonitor::new(HmTables::standard());
        // A pool of distinct reporters across several partitions.
        let sources: Vec<ErrorSource> = (0..rng.range(2, 5))
            .flat_map(|m| {
                (0..3).map(move |q| {
                    ErrorSource::Process(GlobalProcessId::new(PartitionId(m as u32), ProcessId(q)))
                })
            })
            .collect();
        let mut mirror: HashMap<(ErrorSource, ErrorId), u64> = HashMap::new();
        for step in 0..200u64 {
            let source = sources[rng.below_usize(sources.len())];
            let error = PROCESS_ERRORS[rng.below_usize(PROCESS_ERRORS.len())];
            let expected = mirror.entry((source, error)).or_insert(0);
            *expected += 1;
            let decision = hm.report(Ticks(step), error, source, "prop");
            // The decision carries this pair's count, not any other pair's.
            let HmDecision::InvokeErrorHandler {
                occurrences,
                process,
                ..
            } = decision
            else {
                panic!("seed {seed}: process-level error must invoke the handler");
            };
            assert_eq!(
                occurrences, *expected,
                "seed {seed} step {step}: occurrence count for {source:?}/{error:?}"
            );
            assert_eq!(ErrorSource::Process(process), source);
        }
        // And the counters are queryable pairwise afterwards.
        for (&(source, error), &count) in &mirror {
            assert_eq!(hm.occurrences(source, error), count, "seed {seed}");
        }
    }
}

const P: PartitionId = PartitionId(0);
const FRAME: u64 = 100;

/// One-partition system whose sole process overruns every activation
/// (period 100, deadline 60, window [0, 40)) under a `LogThenAct` policy
/// with the given threshold and escalation.
fn overrunning_log_then_act(threshold: u32, then: EscalatedProcessAction) -> AirSystem {
    let schedule = Schedule::new(
        ScheduleId(0),
        "mono",
        Ticks(FRAME),
        vec![PartitionRequirement::new(P, Ticks(FRAME), Ticks(40))],
        vec![TimeWindow::new(P, Ticks(0), Ticks(40))],
    );
    let fault = FaultSwitch::new();
    fault.activate();
    SystemBuilder::new(ScheduleSet::new(vec![schedule]))
        .with_partition(
            PartitionConfig::new(Partition::new(P, "LAB"))
                .with_error_handler(ErrorHandlerTable::new().with_action(
                    ErrorId::DeadlineMissed,
                    ProcessRecoveryAction::LogThenAct { threshold, then },
                ))
                .with_process(ProcessConfig::new(
                    ProcessAttributes::new("overrunner")
                        .with_recurrence(Recurrence::Periodic(Ticks(FRAME)))
                        .with_deadline(Deadline::relative(Ticks(60)))
                        .with_base_priority(Priority(1)),
                    FaultyPeriodic::new(1, fault),
                )),
        )
        .build()
        .unwrap()
}

fn process_state(system: &AirSystem) -> ProcessState {
    system
        .partition(P)
        .process_status(ProcessId(0))
        .unwrap()
        .0
        .state
}

#[test]
fn stop_process_fires_at_exactly_the_nth_plus_one_occurrence() {
    for seed in 1..=8u64 {
        let mut rng = TestRng::new(seed);
        let threshold = rng.range(1, 6) as u32;
        let mut system = overrunning_log_then_act(threshold, EscalatedProcessAction::StopProcess);
        // Advance frame by frame: while the observed misses are within the
        // threshold the process must still be alive (replenished), and the
        // moment the count passes it the process must be stopped.
        for _frame in 0..(u64::from(threshold) + 6) {
            system.run_for(FRAME);
            let misses = system.trace().deadline_miss_count();
            if misses <= u64::from(threshold) {
                assert_ne!(
                    process_state(&system),
                    ProcessState::Dormant,
                    "seed {seed} threshold {threshold}: stopped before the threshold \
                     ({misses} misses)"
                );
            } else {
                assert_eq!(
                    process_state(&system),
                    ProcessState::Dormant,
                    "seed {seed} threshold {threshold}: not stopped after the threshold"
                );
            }
        }
        // The escalation consumed the process: exactly threshold + 1
        // misses, then silence forever.
        assert_eq!(
            system.trace().deadline_miss_count(),
            u64::from(threshold) + 1,
            "seed {seed} threshold {threshold}"
        );
        system.run_for(4 * FRAME);
        assert_eq!(
            system.trace().deadline_miss_count(),
            u64::from(threshold) + 1
        );
    }
}

#[test]
fn restart_partition_escalates_once_per_occurrence_past_the_threshold() {
    for seed in 1..=6u64 {
        let mut rng = TestRng::new(seed);
        let threshold = rng.range(1, 5) as u32;
        let frames = u64::from(threshold) + rng.range(4, 9);
        let mut system =
            overrunning_log_then_act(threshold, EscalatedProcessAction::RestartPartition);
        system.run_for(frames * FRAME);
        let misses = system.trace().deadline_miss_count();
        let restarts = system
            .trace()
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::PartitionRestart { partition, warm: true, .. } if *partition == P))
            .count() as u64;
        assert!(
            misses > u64::from(threshold),
            "seed {seed}: the persistent overrun must outlast the threshold"
        );
        assert_eq!(
            restarts,
            misses - u64::from(threshold),
            "seed {seed} threshold {threshold}: every occurrence past the \
             threshold escalates, none before ({misses} misses)"
        );
    }
}
