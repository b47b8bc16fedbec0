//! Acceptance: the exploration gate catches a defect per-schedule lint
//! cannot see, and its counterexample witness replays to concrete
//! misbehavior on the real system.
//!
//! The seeded configuration is the canonical mode-starvation trap: two
//! schedules, both individually lint-clean, but the only
//! schedule-authority partition (P0) has no window in the alternate
//! schedule — one commanded switch strands the module where P0 never
//! runs again and nobody can command a way back. Per-schedule analysis
//! accepts it; depth-2 exploration refuses the build with AIR081 and a
//! minimal witness; replaying that witness through the real tick loop
//! shows P0 concretely starved.

use air_core::builder::BuildError;
use air_core::{replay_witness, PartitionConfig, SystemBuilder};
use air_lint::{explore_with, Code, ExploreConfig, SystemModel};
use air_model::explore::AbstractMode;
use air_model::partition::OperatingMode;
use air_model::schedule::{PartitionRequirement, Schedule, TimeWindow};
use air_model::{Partition, PartitionId, ScheduleId, ScheduleSet, Ticks};

const P0: PartitionId = PartitionId(0);
const P1: PartitionId = PartitionId(1);
const CHI1: ScheduleId = ScheduleId(1);

/// Text twin of the builder configuration below — the explorer runs on
/// this to produce the witness the replay consumes.
const STARVATION: &str = "\
partition P0 name=AOCS authority=true
partition P1 name=PAYLOAD
schedule chi0 name=ops mtf=100
  require P0 cycle=100 duration=40
  require P1 cycle=100 duration=40
  window P0 offset=0 duration=40
  window P1 offset=40 duration=40
schedule chi1 name=payload-only mtf=100
  require P1 cycle=100 duration=80
  window P1 offset=0 duration=80
";

fn starvation_builder() -> SystemBuilder {
    let chi0 = Schedule::new(
        ScheduleId(0),
        "ops",
        Ticks(100),
        vec![
            PartitionRequirement::new(P0, Ticks(100), Ticks(40)),
            PartitionRequirement::new(P1, Ticks(100), Ticks(40)),
        ],
        vec![
            TimeWindow::new(P0, Ticks(0), Ticks(40)),
            TimeWindow::new(P1, Ticks(40), Ticks(40)),
        ],
    );
    let chi1 = Schedule::new(
        CHI1,
        "payload-only",
        Ticks(100),
        vec![PartitionRequirement::new(P1, Ticks(100), Ticks(80))],
        vec![TimeWindow::new(P1, Ticks(0), Ticks(80))],
    );
    SystemBuilder::new(ScheduleSet::new(vec![chi0, chi1]))
        .with_partition(PartitionConfig::new(
            Partition::new(P0, "AOCS").with_schedule_authority(),
        ))
        .with_partition(PartitionConfig::new(Partition::new(P1, "PAYLOAD")))
}

#[test]
fn per_schedule_lint_accepts_the_seeded_config() {
    let report = starvation_builder().lint();
    assert!(!report.has_errors(), "{report}");
}

#[test]
fn default_build_gate_rejects_through_exploration() {
    let err = starvation_builder().build().unwrap_err();
    let BuildError::Lint(report) = &err else {
        panic!("expected Lint rejection, got {err}");
    };
    assert!(report.has_code(Code::ModeStarvation), "{report}");
    assert!(report.has_code(Code::AuthorityLostAcrossModes), "{report}");
}

#[test]
fn depth_zero_disables_the_exploration_stage() {
    assert!(starvation_builder()
        .with_exploration_depth(0)
        .build()
        .is_ok());
}

#[test]
fn witness_replays_to_concrete_starvation() {
    // The explorer's verdict on the text twin, with its minimal witness.
    let doc = air_tools::config::parse(STARVATION).expect("parses");
    let exploration = explore_with(
        &SystemModel::from_config(&doc),
        &ExploreConfig {
            depth: 2,
            ..ExploreConfig::default()
        },
    );
    let witness = exploration
        .witness_for(Code::ModeStarvation)
        .expect("starvation witness")
        .clone();
    assert_eq!(witness.render(), "request(P0->chi1)");

    // Build the real system past the gate and drive the witness through
    // the actual tick loop.
    let mut system = starvation_builder()
        .with_exploration_depth(0)
        .build()
        .expect("assembles without the explorer");
    let report = replay_witness(&mut system, &witness, 3);

    // The switch committed, P0 is still nominally healthy — and it was
    // never dispatched across three full major frames: concretely starved,
    // exactly what AIR081 predicted.
    assert_eq!(report.final_schedule, CHI1);
    assert_eq!(report.starved, vec![P0]);
    let p0_mode = report
        .modes
        .iter()
        .find(|(m, _)| *m == P0)
        .map(|(_, mode)| *mode);
    assert_eq!(p0_mode, Some(OperatingMode::Normal));
    assert_eq!(report.final_state.mode_of(P0), AbstractMode::Running);
}
