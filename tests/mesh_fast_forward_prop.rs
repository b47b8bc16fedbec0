//! Differential property for the mesh's next-event time advance:
//! `MeshSim::run_for` jumps over quiet ticks and steps only event ticks,
//! and must leave exactly the state a tick-by-tick run leaves.
//!
//! Each case draws a topology, a node count in 3..=16, a plan kind
//! (`mesh_plan` with 1–2 faults per class, `reroute_plan` under every
//! `PartitionScenario`, or `fallback_plan`) and a plan seed. Four
//! streams of 20 cases run on their own threads, each seeded from one
//! fixed base seed plus its shard index. Each plan runs three ways:
//! - `step` on every tick up to the horizon (the reference);
//! - `run_to_horizon`;
//! - `run_for` in seeded slices of 1..=97 ticks.
//!
//! The rendered trace bytes, `status()` and every counter of the
//! execution's `RerouteCampaignOutcome` must be equal. Only the traces
//! are compared, not the delivery invariants: a plan that loses
//! commands must lose the same ones every way. A failure prints the
//! shard, the case and the replay tuple `(topology, nodes, kind, seed)`.

use air_core::mesh::{
    fallback_plan, mesh_plan, reroute_plan, MeshPlan, MeshSim, PartitionScenario,
};
use air_core::Scenario;
use air_model::testkit::TestRng;
use air_ports::routing::MeshTopology;

const TOPOLOGIES: [MeshTopology; 3] = [MeshTopology::Line, MeshTopology::Star, MeshTopology::Ring];
const BASE_SEED: u64 = 0xFA57_F0D0;
/// Independent case streams, one thread each: the stepped reference is
/// slow in a debug build, and the streams share nothing.
const SHARDS: u64 = 4;
const CASES_PER_SHARD: usize = 20;
const MAX_SLICE: u64 = 97;

/// Everything an execution leaves that a caller can observe: the status
/// snapshot, the outcome's counters and its trace log.
#[derive(PartialEq)]
struct Observed {
    status: String,
    counters: String,
    trace: String,
}

fn observe(sim: MeshSim) -> Observed {
    let status = format!("{:?}", sim.status());
    let mut outcome = sim.into_outcome();
    let trace = std::mem::take(&mut outcome.trace_log);
    Observed {
        status,
        counters: format!("{outcome:?}"),
        trace,
    }
}

fn stepped(plan: &MeshPlan) -> Observed {
    let mut sim = MeshSim::new_unchecked(plan);
    while !sim.is_done() {
        sim.step();
    }
    observe(sim)
}

fn to_horizon(plan: &MeshPlan) -> Observed {
    let mut sim = MeshSim::new_unchecked(plan);
    sim.run_to_horizon();
    observe(sim)
}

fn sliced(plan: &MeshPlan, rng: &mut TestRng) -> Observed {
    let mut sim = MeshSim::new_unchecked(plan);
    while !sim.is_done() {
        let before = sim.now();
        let n = rng.range(1, MAX_SLICE + 1);
        sim.run_for(n);
        assert_eq!(
            sim.now(),
            (before + n).min(sim.horizon()),
            "run_for({n}) from {before} must end its slice exactly"
        );
    }
    observe(sim)
}

/// Where two observations first differ, for the failure message (the
/// full trace logs run to thousands of lines).
fn first_difference(a: &Observed, b: &Observed) -> String {
    if a.status != b.status {
        return format!("status:\n  {}\n  {}", a.status, b.status);
    }
    if a.counters != b.counters {
        return format!("counters:\n  {}\n  {}", a.counters, b.counters);
    }
    let (mut left, mut right) = (a.trace.lines(), b.trace.lines());
    for line in 1.. {
        match (left.next(), right.next()) {
            (Some(l), Some(r)) if l == r => {}
            (l, r) => return format!("trace line {line}:\n  {l:?}\n  {r:?}"),
        }
    }
    unreachable!("the loop returns at the first difference")
}

/// Draws one plan and its replay label.
fn draw(rng: &mut TestRng) -> (MeshPlan, String) {
    let topology = TOPOLOGIES[rng.below_usize(TOPOLOGIES.len())];
    let nodes = rng.range(3, 17) as usize;
    let seed = rng.range(1, 1 << 20);
    let kinds = 2 + PartitionScenario::ALL.len() + 1;
    let (plan, kind) = match rng.below_usize(kinds) {
        k @ 0..=1 => {
            let per_class = k + 1;
            let plan = mesh_plan(topology, nodes, seed, per_class);
            (plan, format!("mesh_plan per_class={per_class}"))
        }
        k if k < kinds - 1 => {
            let scenario = PartitionScenario::ALL[k - 2];
            let plan = reroute_plan(topology, nodes, seed, scenario);
            (plan, format!("reroute_plan {}", scenario.label()))
        }
        _ => (fallback_plan(topology, nodes, seed), "fallback_plan".into()),
    };
    let label = format!("({}, {nodes}, {kind}, seed {seed})", topology.label());
    (plan, label)
}

/// The property over one stream of drawn cases.
fn check_shard(shard: u64) {
    let mut rng = TestRng::new(BASE_SEED + shard);
    for case in 0..CASES_PER_SHARD {
        let (plan, label) = draw(&mut rng);
        let reference = stepped(&plan);
        let jumped = to_horizon(&plan);
        assert!(
            jumped == reference,
            "shard {shard} case {case} {label}: run_to_horizon diverged from stepping at {}",
            first_difference(&reference, &jumped)
        );
        let slices = sliced(&plan, &mut rng);
        assert!(
            slices == reference,
            "shard {shard} case {case} {label}: sliced run_for diverged from stepping at {}",
            first_difference(&reference, &slices)
        );
    }
}

#[test]
fn fast_forward_matches_stepping_every_tick() {
    std::thread::scope(|scope| {
        for shard in 0..SHARDS {
            scope.spawn(move || check_shard(shard));
        }
    });
}
