//! Temporal-partitioning invariants, property-tested: "partitions do not
//! mutually interfere in terms of fulfilment of real-time … requirements".
//!
//! For randomly synthesised (valid) scheduling tables, the running system
//! must (i) activate exactly the partition the model oracle names at every
//! tick, (ii) execute a partition's processes only inside that partition's
//! windows, and (iii) grant every partition its configured duration in
//! every cycle — regardless of what the processes do (including never
//! yielding).

use std::sync::{Arc, Mutex};

use air_core::workload::{ProcessApi, ProcessBody};
use air_core::{PartitionConfig, ProcessConfig, SystemBuilder};
use air_model::process::{Priority, ProcessAttributes};
use air_model::schedule::PartitionRequirement;
use air_model::testkit::TestRng;
use air_model::{Partition, PartitionId, Schedule, ScheduleId, ScheduleSet, Ticks};
use air_tools::synthesize_schedule;

/// Records every tick at which it executes; never yields (a greedy process
/// trying to hog the CPU).
struct TickRecorder {
    log: Arc<Mutex<Vec<u64>>>,
}

impl ProcessBody for TickRecorder {
    fn on_tick(&mut self, api: &mut ProcessApi<'_>) {
        self.log.lock().unwrap().push(api.now.as_u64());
    }
}

/// Builds a system over `schedule` where every partition hosts one greedy
/// tick-recording process; returns the per-partition logs.
fn build_recording_system(schedule: Schedule) -> (air_core::AirSystem, Vec<Arc<Mutex<Vec<u64>>>>) {
    let partitions: Vec<PartitionId> = schedule.partitions().collect();
    let mut builder = SystemBuilder::new(ScheduleSet::new(vec![schedule]));
    let mut logs = Vec::new();
    for &m in &partitions {
        let log = Arc::new(Mutex::new(Vec::new()));
        logs.push(Arc::clone(&log));
        builder = builder.with_partition(
            PartitionConfig::new(Partition::new(m, format!("part{}", m.as_u32()))).with_process(
                ProcessConfig::new(
                    ProcessAttributes::new("greedy").with_base_priority(Priority(1)),
                    TickRecorder { log },
                ),
            ),
        );
    }
    (builder.build().expect("synthesised tables are valid"), logs)
}

#[test]
fn partitions_never_execute_outside_their_windows() {
    let mut rng = TestRng::new(0x7E3D);
    for case in 0..24 {
        let n = rng.below_usize(4) + 1;
        let reqs: Vec<PartitionRequirement> = (0..n)
            .map(|i| {
                let cycle = 60 * rng.range(1, 4);
                let d = rng.range(5, 30);
                PartitionRequirement::new(PartitionId(i as u32), Ticks(cycle), Ticks(d.min(cycle)))
            })
            .collect();
        let Ok(schedule) = synthesize_schedule(ScheduleId(0), &reqs) else {
            continue; // infeasible demand set: nothing to check
        };
        let mtf = schedule.mtf().as_u64();
        let (mut system, logs) = build_recording_system(schedule.clone());
        let horizon = 3 * mtf;
        for _ in 0..horizon {
            system.step();
            // (i) model conformance at every tick.
            let phase = Ticks(system.now().as_u64() % mtf);
            assert_eq!(
                system.active_partition(),
                schedule.partition_active_at(phase),
                "case {case}: divergence at {} (seed 0x7E3D)",
                system.now()
            );
        }
        // (ii) execution containment: every recorded execution tick falls
        // within a window of the owning partition.
        for (i, log) in logs.iter().enumerate() {
            let m = PartitionId(i as u32);
            for &t in log.lock().unwrap().iter() {
                let phase = Ticks(t % mtf);
                assert_eq!(
                    schedule.partition_active_at(phase),
                    Some(m),
                    "case {case}: partition {i} executed at {t} outside its window"
                );
            }
        }
        // (iii) guaranteed duration: over complete cycles, each partition
        // executed at least d per cycle (greedy processes never yield, so
        // execution time equals the window time granted).
        for q in schedule.requirements() {
            if q.duration.is_zero() {
                continue;
            }
            let log = logs[q.partition.as_usize()].lock().unwrap();
            let cycles = horizon / q.cycle.as_u64();
            for k in 0..cycles {
                let lo = k * q.cycle.as_u64();
                let hi = lo + q.cycle.as_u64();
                let got = log.iter().filter(|&&t| lo <= t && t < hi).count() as u64;
                assert!(
                    got >= q.duration.as_u64(),
                    "case {case}: partition {} got {} < {} in cycle {}",
                    q.partition,
                    got,
                    q.duration,
                    k
                );
            }
        }
    }
}

#[test]
fn a_greedy_partition_cannot_steal_anothers_window() {
    // Two partitions, one hog: the hog's process never yields, yet the
    // victim still receives every tick of its windows.
    let hog = PartitionId(0);
    let victim = PartitionId(1);
    let schedule = Schedule::new(
        ScheduleId(0),
        "containment",
        Ticks(100),
        vec![
            PartitionRequirement::new(hog, Ticks(100), Ticks(60)),
            PartitionRequirement::new(victim, Ticks(100), Ticks(40)),
        ],
        vec![
            air_model::TimeWindow::new(hog, Ticks(0), Ticks(60)),
            air_model::TimeWindow::new(victim, Ticks(60), Ticks(40)),
        ],
    );
    let (mut system, logs) = build_recording_system(schedule);
    system.run_for(1000);
    // Execution slots cover t = 0..=1000: ten full MTFs plus the slot at
    // t = 1000 (phase 0, the hog's window).
    let hog_ticks = logs[0].lock().unwrap().len();
    let victim_ticks = logs[1].lock().unwrap().len();
    assert_eq!(hog_ticks, 601);
    assert_eq!(victim_ticks, 400);
}

#[test]
fn idle_windows_harm_nobody() {
    // A schedule with gaps: the processor idles there, and the partition
    // keeps its exact budget.
    let p0 = PartitionId(0);
    let schedule = Schedule::new(
        ScheduleId(0),
        "gappy",
        Ticks(100),
        vec![PartitionRequirement::new(p0, Ticks(100), Ticks(30))],
        vec![air_model::TimeWindow::new(p0, Ticks(50), Ticks(30))],
    );
    let (mut system, logs) = build_recording_system(schedule);
    system.run_for(500);
    assert_eq!(logs[0].lock().unwrap().len(), 150);
    // t = 500 is phase 0: a gap — nobody is active.
    assert_eq!(system.active_partition(), None);
}

#[test]
fn two_level_scheduling_inside_a_window() {
    // Within one partition's window, the POS priority scheduler rules:
    // a higher-priority process preempts; FIFO breaks priority ties —
    // while the partition boundary stays inviolate.
    let p0 = PartitionId(0);
    let p1 = PartitionId(1);
    let schedule = Schedule::new(
        ScheduleId(0),
        "two-level",
        Ticks(100),
        vec![
            PartitionRequirement::new(p0, Ticks(100), Ticks(50)),
            PartitionRequirement::new(p1, Ticks(100), Ticks(50)),
        ],
        vec![
            air_model::TimeWindow::new(p0, Ticks(0), Ticks(50)),
            air_model::TimeWindow::new(p1, Ticks(50), Ticks(50)),
        ],
    );
    let urgent_log = Arc::new(Mutex::new(Vec::new()));
    let lazy_log = Arc::new(Mutex::new(Vec::new()));
    let other_log = Arc::new(Mutex::new(Vec::new()));
    let mut system = SystemBuilder::new(ScheduleSet::new(vec![schedule]))
        .with_partition(
            PartitionConfig::new(Partition::new(p0, "dual"))
                .with_process(ProcessConfig::new(
                    ProcessAttributes::new("lazy").with_base_priority(Priority(9)),
                    TickRecorder {
                        log: Arc::clone(&lazy_log),
                    },
                ))
                .with_process(ProcessConfig::new(
                    ProcessAttributes::new("urgent").with_base_priority(Priority(1)),
                    TickRecorder {
                        log: Arc::clone(&urgent_log),
                    },
                )),
        )
        .with_partition(
            PartitionConfig::new(Partition::new(p1, "other")).with_process(ProcessConfig::new(
                ProcessAttributes::new("any").with_base_priority(Priority(1)),
                TickRecorder {
                    log: Arc::clone(&other_log),
                },
            )),
        )
        .build()
        .unwrap();
    system.run_for(300);
    // urgent (priority 1) monopolises p0's windows; lazy starves.
    // Slots cover t = 0..=300; t = 300 is phase 0, one extra urgent slot.
    assert_eq!(urgent_log.lock().unwrap().len(), 151);
    assert_eq!(lazy_log.lock().unwrap().len(), 0);
    assert_eq!(other_log.lock().unwrap().len(), 150);
}
