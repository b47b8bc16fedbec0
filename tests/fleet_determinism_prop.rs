//! The fleet determinism property: a machine's rendered trace log is a
//! pure function of its plan — the worker count, the order in which
//! workers claim machines, and how a machine's horizon is sliced into
//! `tick` calls must all be invisible.
//!
//! One driver holds it for every workload kind of the generic
//! [`ScenarioFleet`]: a small fleet is executed sequentially (the
//! reference), then with K ∈ {1, 4, 16} workers, then by a local driver
//! that keeps every machine live and advances them in turn in seeded
//! slices of 1..=97 ticks. Every per-machine rendered trace log must be
//! byte-identical to the reference, and the default configuration
//! (digests only) must reproduce the reference's fleet digest.
//!
//! | kind     | scenario      | seeds                         | machines |
//! |----------|---------------|-------------------------------|----------|
//! | campaign | `CampaignSim` | 1..=50, capped at 180 ticks   | 6        |
//! | link     | `LinkSim`     | 1, 7, 42                      | 4        |
//! | mesh     | `MeshSim`     | {line, star, ring} × {1, 42}  | 4        |
//! | reroute  | `MeshSim`     | {line, star, ring} × {3, 27}  | 4        |
//!
//! A digest-only mesh fleet of 8 machines and the pinned trace digests
//! of each scenario round the suite off.

use air_core::campaign::{standard_plan, CampaignSim};
use air_core::link_campaign::{link_plan, LinkSim};
use air_core::mesh::{mesh_plan, reroute_plan, MeshSim, PartitionScenario};
use air_core::Scenario;
use air_fleet::{
    run_fleet, run_sequential, trace_digest, Capture, FleetConfig, FleetOutcome, FleetWorkload,
    MachineOutcome, ScenarioFleet,
};
use air_model::testkit::TestRng;
use air_ports::routing::MeshTopology;

const WORKER_COUNTS: [usize; 3] = [1, 4, 16];
const TOPOLOGIES: [MeshTopology; 3] = [MeshTopology::Line, MeshTopology::Star, MeshTopology::Ring];

/// Asserts byte-identical per-machine logs between `got` and `reference`.
fn assert_logs_identical(label: &str, how: &str, got: &FleetOutcome, reference: &FleetOutcome) {
    assert_eq!(got.outcomes.len(), reference.outcomes.len());
    for (g, r) in got.outcomes.iter().zip(&reference.outcomes) {
        assert_eq!(g.index, r.index);
        let (g_log, r_log) = (
            g.trace_log.as_ref().expect("full capture"),
            r.trace_log.as_ref().expect("full capture"),
        );
        assert!(
            g_log == r_log,
            "{label}, {how}: machine {} diverged from the sequential run\n\
             --- sequential ---\n{r_log}\n--- fleet ---\n{g_log}",
            g.index
        );
        assert_eq!(g.digest, r.digest, "digest must follow the log bytes");
    }
}

/// The longest slice: slice lengths are drawn from 1..=`MAX_SLICE`, so
/// boundaries fall off MTFs, fault slots and horizons, and a slice can
/// end inside a quiet span that `run_for` would otherwise jump over.
const MAX_SLICE: u64 = 97;
/// The slice-length seed.
const SLICE_SEED: u64 = 0x51CE;

/// Builds all `machines` machines of `workload`, then advances them in
/// turn by a seeded 1..=[`MAX_SLICE`] ticks per `tick` call until each
/// reaches its horizon: `tick(a); tick(b)` must leave the state
/// `tick(a + b)` does, and interleaving live machines must not couple
/// them.
fn run_sliced<W: FleetWorkload>(workload: &W, machines: usize) -> FleetOutcome {
    let mut rng = TestRng::new(SLICE_SEED);
    let mut live: Vec<(W::Instance, u64)> = (0..machines)
        .map(|index| (workload.build(index), workload.horizon(index)))
        .collect();
    while live.iter().any(|(_, remaining)| *remaining > 0) {
        for (instance, remaining) in &mut live {
            let n = rng.range(1, MAX_SLICE + 1).min(*remaining);
            if n > 0 {
                workload.tick(instance, n);
                *remaining -= n;
            }
        }
    }
    let outcomes = live
        .iter()
        .enumerate()
        .map(|(index, (instance, _))| {
            let mut log = String::new();
            workload.render_trace(instance, &mut log);
            MachineOutcome {
                index,
                ticks: workload.horizon(index),
                digest: trace_digest(log.as_bytes()),
                trace_log: Some(log),
            }
        })
        .collect();
    FleetOutcome { outcomes }
}

/// The property for one fleet of `machines` machines.
fn holds_for<W: FleetWorkload>(label: &str, workload: &W, machines: usize) {
    let reference = run_sequential(workload, machines, Capture::FullTrace);
    for workers in WORKER_COUNTS {
        let config = FleetConfig::new(machines, workers).with_capture(Capture::FullTrace);
        let fleet = run_fleet(workload, &config);
        assert_logs_identical(label, &format!("{workers} workers"), &fleet, &reference);
        // The default shape: digests only.
        let digests = run_fleet(workload, &FleetConfig::new(machines, workers));
        assert_eq!(
            digests.fleet_digest(),
            reference.fleet_digest(),
            "{label}, {workers} workers: default-config fleet digest diverged"
        );
    }
    let sliced = run_sliced(workload, machines);
    let how = format!("1..={MAX_SLICE}-tick slices");
    assert_logs_identical(label, &how, &sliced, &reference);
}

#[test]
fn campaign_fleet_is_schedule_invariant_over_50_seeds() {
    for seed in 1..=50u64 {
        // 6 machines × 3 MTFs per seed keeps 50 × 8 executions tractable
        // while still crossing several slice and window boundaries.
        let fleet = ScenarioFleet::<CampaignSim, _>::new(seed, |s, _| standard_plan(s, 1))
            .with_horizon_cap(180);
        holds_for(&format!("campaign seed {seed}"), &fleet, 6);
    }
}

#[test]
fn link_fleet_is_schedule_invariant() {
    // Link machines are two full nodes each (≈ 1500-tick horizons), so
    // the sweep is narrower; the property is the same.
    for seed in [1u64, 7, 42] {
        let fleet = ScenarioFleet::<LinkSim, _>::new(seed, |s, _| link_plan(s, 1));
        holds_for(&format!("link seed {seed}"), &fleet, 4);
    }
}

#[test]
fn mesh_fleet_is_schedule_invariant_across_topologies() {
    // Mesh machines are 5 protocol nodes each (≈ 2k-tick horizons), so
    // the seed sweep stays narrow per topology.
    for topology in TOPOLOGIES {
        for seed in [1u64, 42] {
            let fleet = ScenarioFleet::<MeshSim, _>::new(seed, |s, _| mesh_plan(topology, 5, s, 1));
            holds_for(&format!("mesh {} seed {seed}", topology.label()), &fleet, 4);
        }
    }
}

#[test]
fn reroute_fleet_is_schedule_invariant_across_topologies() {
    // The self-healing campaigns add monitors, probes, reroute-boundary
    // requeues and quorum failover to the tick loop; all of it must stay
    // a pure function of the plan. Four machines cover all four
    // partition scenarios (the plan cycles them by index).
    for topology in TOPOLOGIES {
        for seed in [3u64, 27] {
            let fleet = ScenarioFleet::<MeshSim, _>::new(seed, |s, i| {
                let scenario = PartitionScenario::ALL[i % PartitionScenario::ALL.len()];
                reroute_plan(topology, 5, s, scenario)
            });
            holds_for(
                &format!("reroute {} seed {seed}", topology.label()),
                &fleet,
                4,
            );
        }
    }
}

#[test]
fn mesh_fleet_digests_match_sequential_without_full_capture() {
    let fleet = ScenarioFleet::<MeshSim, _>::new(9, |s, _| mesh_plan(MeshTopology::Line, 5, s, 1));
    let machines = 8;
    let sequential = run_sequential(&fleet, machines, Capture::Digest);
    for workers in WORKER_COUNTS {
        let outcome = run_fleet(&fleet, &FleetConfig::new(machines, workers));
        assert_eq!(
            outcome.fleet_digest(),
            sequential.fleet_digest(),
            "{workers} workers: digest diverged from sequential"
        );
    }
}

/// The digest of `S`'s trace on `plan`, run to its horizon.
fn digest_of<S: Scenario>(plan: &S::Plan) -> u64 {
    let mut sim = S::build(plan);
    sim.run_to_horizon();
    let mut log = String::new();
    sim.render_trace_into(&mut log);
    trace_digest(log.as_bytes())
}

/// The trace bytes of every scenario kind, pinned: a refactor that moves
/// a single byte fails here. A deliberate change of the trace encoding
/// updates these values once, on purpose.
#[test]
fn scenario_trace_digests_are_pinned() {
    assert_eq!(
        digest_of::<CampaignSim>(&standard_plan(7, 1)),
        0x9f69_81a8_3418_6df0
    );
    assert_eq!(
        digest_of::<LinkSim>(&link_plan(7, 1)),
        0x2b25_dc08_ff44_f780
    );
    assert_eq!(
        digest_of::<MeshSim>(&reroute_plan(
            MeshTopology::Ring,
            9,
            7,
            PartitionScenario::EdgeOutage
        )),
        0x042a_87d1_a421_ceac
    );
    assert_eq!(
        digest_of::<MeshSim>(&mesh_plan(MeshTopology::Star, 5, 7, 1)),
        0x6bad_2b7c_be92_5712
    );
}
