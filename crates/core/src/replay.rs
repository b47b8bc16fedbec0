//! Concrete replay of exploration counterexample witnesses.
//!
//! `air-lint --explore` reports each mode/HM invariant violation with a
//! [`Witness`]: the minimal abstract event sequence that reaches the bad
//! state. This module closes the loop back to the real system — it parses
//! no approximation, it drives the *actual* tick loop: every abstract
//! event maps to a concrete injection ([`AirSystem::request_schedule`],
//! [`AirSystem::inject_partition_fault`],
//! [`AirSystem::inject_module_fault`], [`AirSystem::force_link_down`],
//! [`AirSystem::force_link_up`]), each followed by at least one full major
//! time frame so MTF-boundary commits (schedule switches, change actions)
//! take effect exactly as they would in flight.
//!
//! After the last event the system runs an observation window and the
//! replay reports what concretely happened: the schedule in force, each
//! partition's operating mode, which running partitions were never
//! dispatched (the concrete face of AIR081 starvation), and how many
//! deadlines were missed. [`observe_abstract_state`] maps the concrete
//! system back into the explorer's abstract state space, which is how the
//! cross-validation property test checks that no real trace visits a
//! state the explorer calls unreachable.

use std::collections::BTreeSet;

use air_model::explore::{
    AbstractEvent, AbstractMode, AbstractState, ArqHealth, LinkState, Witness,
};
use air_model::partition::OperatingMode;
use air_model::{PartitionId, ScheduleId, Ticks};

use crate::system::AirSystem;
use crate::trace::TraceEvent;

/// What a witness replay concretely produced.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// The schedule in force when the observation window closed.
    pub final_schedule: ScheduleId,
    /// The full abstract projection of the final concrete state.
    pub final_state: AbstractState,
    /// Every partition's operating mode at the end of the observation.
    pub modes: Vec<(PartitionId, OperatingMode)>,
    /// Partitions in `Normal` mode that were never dispatched during the
    /// observation window — concretely starved.
    pub starved: Vec<PartitionId>,
    /// Deadline misses recorded during the observation window alone.
    pub deadline_misses: u64,
    /// Length of the observation window in ticks.
    pub observed_ticks: u64,
}

/// The major time frame of the schedule currently in force (at least 1 so
/// replay always advances, even over a defective zero-MTF table).
fn current_mtf(system: &AirSystem) -> u64 {
    let current = system.schedule_status().current;
    system
        .schedules
        .iter()
        .find(|s| s.id() == current)
        .map(|s| s.mtf().as_u64())
        .unwrap_or(1)
        .max(1)
}

/// Runs the system past the next MTF boundary (committing any pending
/// schedule switch) and then through one full frame of the schedule now
/// in force — change actions fire at each partition's *first dispatch*
/// under the new schedule, so a whole frame must elapse before the state
/// is settled rather than transient.
fn run_past_next_mtf_boundary(system: &mut AirSystem) {
    let mtf = current_mtf(system);
    let now = system.now().as_u64();
    system.run_until(Ticks((now / mtf + 1) * mtf + 1));
    let mtf = current_mtf(system);
    let now = system.now().as_u64();
    system.run_until(Ticks((now / mtf + 1) * mtf + 1));
}

/// Applies one abstract event to the concrete system and runs past the
/// next MTF boundary so its effects commit.
pub fn apply_event(system: &mut AirSystem, event: &AbstractEvent) {
    match event {
        // The witness's `by` partition is the abstract authority; the
        // concrete injection uses the operator path, which the scheduler
        // treats identically (commit at the MTF boundary).
        AbstractEvent::ScheduleRequest { to, .. } => {
            let _ = system.request_schedule(*to);
        }
        // Racing requests: both land before the same MTF boundary and the
        // scheduler's last-wins rule commits the second — exactly the
        // abstract semantics.
        AbstractEvent::RaceRequest { first, second, .. } => {
            let _ = system.request_schedule(*first);
            let _ = system.request_schedule(*second);
        }
        AbstractEvent::PartitionFault { partition } => system.inject_partition_fault(*partition),
        AbstractEvent::DeadlineFault { partition } => system.inject_deadline_fault(*partition),
        AbstractEvent::ModuleFault => system.inject_module_fault(),
        AbstractEvent::LinkDown => system.force_link_down(),
        AbstractEvent::LinkUp => system.force_link_up(),
        AbstractEvent::ArqExhausted => system.inject_arq_exhaustion(),
        AbstractEvent::ArqRecovered => system.clear_arq_exhaustion(),
        AbstractEvent::MeshLinkDown { edge } => system.force_mesh_edge_down(*edge),
        AbstractEvent::MeshLinkUp { edge } => system.force_mesh_edge_up(*edge),
        AbstractEvent::MeshReroute { edge } => system.force_mesh_reroute(*edge),
    }
    run_past_next_mtf_boundary(system);
}

/// Projects the concrete system into the explorer's abstract state tuple:
/// the schedule in force, each partition collapsed to running/stopped
/// (`Idle` is the stopped mode; cold/warm start are transients of
/// running), and the link health.
pub fn observe_abstract_state(system: &AirSystem) -> AbstractState {
    let schedule = system.schedule_status().current;
    let modes = system
        .partitions
        .iter()
        .map(|p| {
            let mode = match p.mode() {
                OperatingMode::Idle => AbstractMode::Stopped,
                _ => AbstractMode::Running,
            };
            (p.id(), mode)
        })
        .collect();
    let link = if system.is_degraded_mode() {
        LinkState::Degraded {
            nominal: system.nominal_schedule.unwrap_or(schedule),
        }
    } else if system.degraded_schedule.is_some() {
        LinkState::Nominal
    } else {
        LinkState::Absent
    };
    let arq = if !system.arq_tracking() {
        ArqHealth::Absent
    } else if system.arq_exhausted() {
        ArqHealth::Exhausted
    } else {
        ArqHealth::Nominal
    };
    AbstractState {
        schedule,
        modes,
        link,
        arq,
        mesh_down: system.mesh_edges_down(),
        mesh_rerouted: system.mesh_edges_rerouted(),
    }
}

/// Replays `witness` through the running system, then observes it for
/// `observe_mtfs` major time frames (at least one) and reports what
/// concretely happened.
///
/// The system should be freshly built; the replay first runs one full
/// frame to reach steady state, then applies each event with
/// [`apply_event`].
pub fn replay_witness(
    system: &mut AirSystem,
    witness: &Witness,
    observe_mtfs: u64,
) -> ReplayReport {
    run_past_next_mtf_boundary(system);
    for event in &witness.events {
        apply_event(system, event);
    }

    let trace_mark = system.trace().events().len();
    let misses_before = system.trace().deadline_miss_count();
    let start = system.now().as_u64();
    let mut dispatched: BTreeSet<PartitionId> = BTreeSet::new();
    if let Some(m) = system.active_partition() {
        dispatched.insert(m);
    }
    let mtf = current_mtf(system);
    system.run_until(Ticks(start + observe_mtfs.max(1) * mtf));
    for event in &system.trace().events()[trace_mark..] {
        if let TraceEvent::PartitionSwitch { to: Some(m), .. } = event {
            dispatched.insert(*m);
        }
    }

    let final_state = observe_abstract_state(system);
    let modes: Vec<(PartitionId, OperatingMode)> = system
        .partitions
        .iter()
        .map(|p| (p.id(), p.mode()))
        .collect();
    let starved = modes
        .iter()
        .filter(|(m, mode)| *mode == OperatingMode::Normal && !dispatched.contains(m))
        .map(|(m, _)| *m)
        .collect();
    ReplayReport {
        final_schedule: final_state.schedule,
        final_state,
        modes,
        starved,
        deadline_misses: system.trace().deadline_miss_count() - misses_before,
        observed_ticks: system.now().as_u64() - start,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{PartitionConfig, SystemBuilder};
    use air_model::schedule::{PartitionRequirement, Schedule, TimeWindow};
    use air_model::{Partition, ScheduleSet};

    const P0: PartitionId = PartitionId(0);
    const P1: PartitionId = PartitionId(1);
    const CHI0: ScheduleId = ScheduleId(0);
    const CHI1: ScheduleId = ScheduleId(1);

    fn two_schedule_system() -> AirSystem {
        let chi0 = Schedule::new(
            CHI0,
            "nominal",
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
            "p1-only",
            Ticks(100),
            vec![PartitionRequirement::new(P1, Ticks(100), Ticks(80))],
            vec![TimeWindow::new(P1, Ticks(0), Ticks(80))],
        );
        let mut system = SystemBuilder::new(ScheduleSet::new(vec![chi0, chi1]))
            .with_partition(PartitionConfig::new(Partition::new(P0, "a")))
            .with_partition(PartitionConfig::new(Partition::new(P1, "b")))
            .with_exploration_depth(0)
            .build()
            .expect("assembles");
        system.set_degraded_schedule(CHI1);
        system
    }

    #[test]
    fn empty_witness_observes_the_initial_schedule() {
        let mut system = two_schedule_system();
        let report = replay_witness(&mut system, &Witness { events: vec![] }, 2);
        assert_eq!(report.final_schedule, CHI0);
        assert!(report.starved.is_empty(), "{:?}", report.starved);
        assert_eq!(report.final_state.mode_of(P0), AbstractMode::Running);
    }

    #[test]
    fn schedule_request_commits_and_starves_the_windowless_partition() {
        let mut system = two_schedule_system();
        let witness = Witness::parse("request(P0->chi1)").expect("parses");
        let report = replay_witness(&mut system, &witness, 3);
        assert_eq!(report.final_schedule, CHI1);
        // P0 stays in normal mode but never gets a window in chi1.
        assert_eq!(report.starved, vec![P0]);
    }

    #[test]
    fn link_down_and_up_round_trip_through_the_degraded_schedule() {
        let mut system = two_schedule_system();
        let down = replay_witness(
            &mut system,
            &Witness::parse("link_down").expect("parses"),
            1,
        );
        assert_eq!(down.final_schedule, CHI1);
        assert!(matches!(
            down.final_state.link,
            LinkState::Degraded { nominal: CHI0 }
        ));
        apply_event(&mut system, &AbstractEvent::LinkUp);
        assert_eq!(observe_abstract_state(&system).schedule, CHI0);
        assert_eq!(observe_abstract_state(&system).link, LinkState::Nominal);
    }

    #[test]
    fn partition_fault_leaves_the_partition_running() {
        let mut system = two_schedule_system();
        let witness = Witness::parse("fault(P1)").expect("parses");
        let report = replay_witness(&mut system, &witness, 2);
        assert_eq!(report.final_state.mode_of(P1), AbstractMode::Running);
        assert!(report.starved.is_empty(), "{:?}", report.starved);
    }

    #[test]
    fn module_fault_restarts_everyone_into_running() {
        let mut system = two_schedule_system();
        let witness = Witness::parse("module_fault").expect("parses");
        let report = replay_witness(&mut system, &witness, 2);
        assert_eq!(report.final_state.mode_of(P0), AbstractMode::Running);
        assert_eq!(report.final_state.mode_of(P1), AbstractMode::Running);
    }

    #[test]
    fn deadline_fault_is_concretely_a_self_loop() {
        // No handler is installed, so the standard process-level
        // classification falls back to Ignore: tuple unchanged.
        let mut system = two_schedule_system();
        let witness = Witness::parse("deadline(P0)").expect("parses");
        let report = replay_witness(&mut system, &witness, 2);
        assert_eq!(report.final_schedule, CHI0);
        assert_eq!(report.final_state.mode_of(P0), AbstractMode::Running);
        assert_eq!(report.final_state.mode_of(P1), AbstractMode::Running);
    }

    #[test]
    fn arq_exhaustion_latches_and_recovery_clears() {
        let mut system = two_schedule_system();
        system.enable_arq_tracking();
        assert_eq!(observe_abstract_state(&system).arq, ArqHealth::Nominal);
        apply_event(&mut system, &AbstractEvent::ArqExhausted);
        assert_eq!(observe_abstract_state(&system).arq, ArqHealth::Exhausted);
        apply_event(&mut system, &AbstractEvent::ArqRecovered);
        assert_eq!(observe_abstract_state(&system).arq, ArqHealth::Nominal);
    }

    #[test]
    fn untracked_arq_projects_as_absent() {
        let system = two_schedule_system();
        assert_eq!(observe_abstract_state(&system).arq, ArqHealth::Absent);
    }

    #[test]
    fn mesh_edges_toggle_the_projection_mask() {
        let mut system = two_schedule_system();
        system.configure_mesh_edges(3);
        apply_event(&mut system, &AbstractEvent::MeshLinkDown { edge: 0 });
        apply_event(&mut system, &AbstractEvent::MeshLinkDown { edge: 2 });
        assert_eq!(observe_abstract_state(&system).mesh_down, 0b101);
        apply_event(&mut system, &AbstractEvent::MeshLinkUp { edge: 0 });
        assert_eq!(observe_abstract_state(&system).mesh_down, 0b100);
        // Edge 7 is beyond the configured count: ignored, not latched.
        apply_event(&mut system, &AbstractEvent::MeshLinkDown { edge: 7 });
        assert_eq!(observe_abstract_state(&system).mesh_down, 0b100);
    }

    #[test]
    fn mesh_reroute_latches_and_recovery_dismantles_it() {
        let mut system = two_schedule_system();
        system.configure_mesh_edges(2);
        // A reroute without an outage is a no-op, as in the abstraction.
        apply_event(&mut system, &AbstractEvent::MeshReroute { edge: 0 });
        assert_eq!(observe_abstract_state(&system).mesh_rerouted, 0);
        let witness = Witness::parse("mesh_down(0); mesh_reroute(0)").expect("parses");
        let report = replay_witness(&mut system, &witness, 1);
        assert_eq!(report.final_state.mesh_down, 0b01);
        assert_eq!(report.final_state.mesh_rerouted, 0b01);
        apply_event(&mut system, &AbstractEvent::MeshLinkUp { edge: 0 });
        let after = observe_abstract_state(&system);
        assert_eq!(after.mesh_down, 0);
        assert_eq!(after.mesh_rerouted, 0);
    }

    #[test]
    fn racing_requests_commit_the_second_target() {
        let mut system = two_schedule_system();
        let witness = Witness::parse("race(P0->chi1,chi0)").expect("parses");
        let report = replay_witness(&mut system, &witness, 2);
        // Last request wins the MTF boundary: chi0 stays in force.
        assert_eq!(report.final_schedule, CHI0);
    }
}
