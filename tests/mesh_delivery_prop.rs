//! Property test for the routed mesh (seeded xorshift, 50 seeds): over
//! every standard topology — line, star, ring — and under seeded
//! per-edge link faults (in-flight drops, header bit-flips, sustained
//! edge outages, acknowledgement destruction), every telecommand the
//! ground node originates is delivered to the executor exactly once, in
//! order, across at least two hops; every command's acceptance, start
//! and completion verification reports make it back to the ground node;
//! and the whole run is a pure function of the plan (byte-identical
//! trace logs on re-execution).
//!
//! Any failure prints its seed and topology for replay.

use air_core::mesh::{mesh_plan, RerouteCampaignRunner};
use air_model::testkit::TestRng;
use air_ports::routing::MeshTopology;

const TOPOLOGIES: [MeshTopology; 3] = [MeshTopology::Line, MeshTopology::Star, MeshTopology::Ring];

#[test]
fn any_mesh_fault_plan_delivers_exactly_once_in_order_over_50_seeds() {
    let mut rng = TestRng::new(0xE5F6);
    for case in 0..50u64 {
        let topology = TOPOLOGIES[rng.below_usize(TOPOLOGIES.len())];
        let seed = rng.range(1, 1 << 20);
        let plan = mesh_plan(topology, 5, seed, 1);
        let outcome = RerouteCampaignRunner::new(plan).run();
        let label = outcome.plan.topology.label();
        assert!(
            outcome.command_hops >= 2,
            "case {case} ({label}, seed {seed}): command path is only \
             {} hop(s)",
            outcome.command_hops
        );
        assert!(
            outcome.report.is_ok(),
            "case {case} ({label}, seed {seed}): {}",
            outcome.report
        );
        assert!(
            outcome.deterministic,
            "case {case} ({label}, seed {seed}): rerun diverged"
        );
        assert_eq!(
            outcome.delivered, outcome.expected,
            "case {case} ({label}, seed {seed}): {}/{} commands delivered",
            outcome.delivered, outcome.expected
        );
        assert_eq!(
            outcome.acks, [outcome.expected; 3],
            "case {case} ({label}, seed {seed}): incomplete verification \
             round trips (accept/start/complete = {:?})",
            outcome.acks
        );
        assert_eq!(
            outcome.packets_dropped, 0,
            "case {case} ({label}, seed {seed}): packets dropped in a \
             statically clean mesh"
        );
    }
}

/// Every topology with a fixed seed, re-run in-process: the rendered
/// trace must be byte-identical between two independently constructed
/// runners — the reproducibility contract `air-fleet` relies on.
#[test]
fn reruns_are_byte_identical_per_topology() {
    for topology in TOPOLOGIES {
        let first = RerouteCampaignRunner::new(mesh_plan(topology, 5, 7, 1)).run();
        let second = RerouteCampaignRunner::new(mesh_plan(topology, 5, 7, 1)).run();
        assert!(first.is_ok(), "{}: {}", topology.label(), first.report);
        assert_eq!(
            first.trace_log,
            second.trace_log,
            "{}: independent runners diverged",
            topology.label()
        );
        assert!(
            !first.trace_log.is_empty()
                && first.trace_log.contains("CommandCompleted")
                && first.trace_log.contains("PacketForwarded"),
            "{}: trace misses the service story",
            topology.label()
        );
    }
}

/// Larger meshes keep the guarantee: a 9-node ring and a 9-node line
/// under mixed faults.
#[test]
fn nine_node_meshes_hold_the_guarantee() {
    for topology in [MeshTopology::Line, MeshTopology::Ring] {
        let outcome = RerouteCampaignRunner::new(mesh_plan(topology, 9, 3, 1)).run();
        assert!(
            outcome.is_ok(),
            "{}[9]: {}",
            outcome.plan.topology.label(),
            outcome.report
        );
        assert!(
            outcome.command_hops >= 4,
            "{}[9]",
            outcome.plan.topology.label()
        );
        assert_eq!(outcome.delivered, outcome.expected);
    }
}
