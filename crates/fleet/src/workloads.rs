//! The fleet workload over the `air-core` campaigns.
//!
//! Each machine of a fleet runs one [`Scenario`] (the standard fault
//! campaign, the two-node link campaign, or an N-node mesh campaign)
//! under its own seeded plan, derived from the fleet's base seed by a
//! SplitMix64 mix of the machine index — so a 10 000-machine fleet is
//! 10 000 *different* deterministic experiments, not one experiment
//! repeated.
//!
//! Constructing a workload performs exactly one *gated* build (for the
//! campaign systems: static analysis plus bounded exploration) of the
//! fixed configuration; every fleet instance is then mass-constructed
//! through [`Scenario::build_unchecked`], which skips re-proving the same
//! proof per machine.

use std::marker::PhantomData;

use air_core::Scenario;

use crate::executor::FleetWorkload;

/// Derives machine `index`'s seed from the fleet's `base` seed
/// (SplitMix64 finalizer over a golden-ratio stride): well-spread,
/// stable, and independent of worker count.
pub fn machine_seed(base: u64, index: usize) -> u64 {
    let mut z = base.wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fleet of seeded scenarios: machine `i` runs `S` on
/// `plan(machine_seed(base_seed, i), i)`. The plan function sees the
/// index too, so a fleet can cycle scenario shapes by machine (e.g.
/// `PartitionScenario::ALL[i % 4]`).
pub struct ScenarioFleet<S, F> {
    base_seed: u64,
    plan: F,
    horizon_cap: Option<u64>,
    scenario: PhantomData<fn() -> S>,
}

impl<S, F> ScenarioFleet<S, F>
where
    S: Scenario,
    F: Fn(u64, usize) -> S::Plan,
{
    /// A fleet from `base_seed`. Runs the one-time gated build on
    /// machine 0's plan: plans differ, systems don't, so one gated build
    /// proves them all.
    pub fn new(base_seed: u64, plan: F) -> Self {
        let _gate = S::build(&plan(machine_seed(base_seed, 0), 0));
        Self {
            base_seed,
            plan,
            horizon_cap: None,
            scenario: PhantomData,
        }
    }

    /// Caps every machine at `horizon` ticks (a smoke fleet runs a few
    /// MTFs instead of each plan's full horizon).
    #[must_use]
    pub fn with_horizon_cap(mut self, horizon: u64) -> Self {
        self.horizon_cap = Some(horizon);
        self
    }

    /// Machine `index`'s plan.
    pub fn plan_for(&self, index: usize) -> S::Plan {
        (self.plan)(machine_seed(self.base_seed, index), index)
    }
}

impl<S, F> FleetWorkload for ScenarioFleet<S, F>
where
    S: Scenario + Send,
    F: Fn(u64, usize) -> S::Plan + Sync,
{
    type Instance = S;

    fn build(&self, index: usize) -> S {
        S::build_unchecked(&self.plan_for(index))
    }

    fn horizon(&self, index: usize) -> u64 {
        let planned = S::planned_horizon(&self.plan_for(index));
        self.horizon_cap.map_or(planned, |cap| planned.min(cap))
    }

    fn tick(&self, instance: &mut S, ticks: u64) {
        instance.run_for(ticks);
    }

    fn render_trace(&self, instance: &S, out: &mut String) {
        instance.render_trace_into(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use air_core::campaign::{standard_plan, CampaignSim};
    use air_core::mesh::{mesh_plan, reroute_plan, MeshSim, PartitionScenario};
    use air_ports::routing::MeshTopology;

    #[test]
    fn machine_seeds_are_well_spread() {
        let seeds: Vec<u64> = (0..64).map(|i| machine_seed(42, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(
            unique.len(),
            seeds.len(),
            "no seed collisions in a small fleet"
        );
        // Adjacent indices must not produce adjacent seeds.
        assert!(seeds[1].abs_diff(seeds[0]) > 1 << 32);
    }

    #[test]
    fn campaign_fleet_machines_differ() {
        let fleet = ScenarioFleet::<CampaignSim, _>::new(7, |seed, _| standard_plan(seed, 1));
        assert_ne!(fleet.plan_for(0).events(), fleet.plan_for(1).events());
    }

    #[test]
    fn mesh_fleet_machines_differ() {
        let fleet = ScenarioFleet::<MeshSim, _>::new(7, |seed, _| {
            mesh_plan(MeshTopology::Ring, 5, seed, 1)
        });
        assert_ne!(
            fleet.plan_for(0).faults.events(),
            fleet.plan_for(1).faults.events()
        );
    }

    #[test]
    fn reroute_fleet_cycles_scenarios_and_differs_per_machine() {
        let scenario_for = |i: usize| PartitionScenario::ALL[i % PartitionScenario::ALL.len()];
        let fleet = ScenarioFleet::<MeshSim, _>::new(7, |seed, i| {
            reroute_plan(MeshTopology::Ring, 5, seed, scenario_for(i))
        });
        assert_eq!(scenario_for(0), PartitionScenario::EdgeOutage);
        assert_eq!(scenario_for(4), PartitionScenario::EdgeOutage);
        assert_eq!(scenario_for(3), PartitionScenario::HealedPartition);
        // Same scenario, different seed: the partition events differ.
        assert_ne!(fleet.plan_for(0).partitions, fleet.plan_for(4).partitions);
        // Every machine has monitors installed.
        assert!(fleet.plan_for(1).heal.is_some());
    }

    #[test]
    fn the_horizon_cap_only_shortens() {
        let fleet = ScenarioFleet::<CampaignSim, _>::new(7, |seed, _| standard_plan(seed, 1));
        let planned = fleet.horizon(0);
        let fleet = fleet.with_horizon_cap(180);
        assert_eq!(fleet.horizon(0), 180);
        let fleet = fleet.with_horizon_cap(planned + 1);
        assert_eq!(fleet.horizon(0), planned);
    }
}
