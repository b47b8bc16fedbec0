//! Property suite for the self-healing mesh (seeded xorshift, 50
//! seeds): over every standard topology and every partition scenario
//! (sustained edge outage, flapping edge, executor isolation, two-edge
//! partition), the link-health monitors detect the cut, the live router
//! detours around it, and the reroute invariants hold — every
//! telecommand delivered exactly once, everything redelivered once the
//! partition heals, zero TTL-expiry drops, complete verification-ack
//! round trips, and a byte-identical trace on re-execution.
//!
//! Two cross-layer witnesses close the loop with the static analysis:
//! the AIR100 finding on a line mesh replays to concrete undelivered
//! (parked) packets on the real transport, while the same replay on a
//! cycle — where airlint stays silent — delivers everything.
//!
//! Any failure prints its seed, topology and scenario for replay.

use air_core::mesh::{
    replay_edge_loss, reroute_plan, HealPolicy, MeshFault, MeshFaultKind, MeshPlan,
    PartitionScenario, RerouteCampaignRunner,
};
use air_hw::inject::FaultPlan;
use air_lint::{lint_members, parse_members, Code};
use air_model::testkit::TestRng;
use air_ports::routing::MeshTopology;

const TOPOLOGIES: [MeshTopology; 3] = [MeshTopology::Line, MeshTopology::Star, MeshTopology::Ring];

#[test]
fn any_partition_scenario_heals_and_redelivers_over_50_seeds() {
    let mut rng = TestRng::new(0x5EA1);
    for case in 0..50u64 {
        let topology = TOPOLOGIES[rng.below_usize(TOPOLOGIES.len())];
        let scenario = PartitionScenario::ALL[rng.below_usize(PartitionScenario::ALL.len())];
        let seed = rng.range(1, 1 << 20);
        let plan = reroute_plan(topology, 6, seed, scenario);
        let outcome = RerouteCampaignRunner::new(plan).run();
        let label = outcome.plan.topology.label();
        let tag = scenario.label();
        assert!(
            outcome.is_ok(),
            "case {case} ({label}/{tag}, seed {seed}): {}",
            outcome.report
        );
        assert!(
            outcome.deterministic,
            "case {case} ({label}/{tag}, seed {seed}): rerun diverged"
        );
        // Every generated scenario heals, so eventual redelivery means
        // full delivery — nothing may stay parked or go to a spare
        // (reroute plans declare no fallback pair).
        assert_eq!(
            outcome.delivered, outcome.expected,
            "case {case} ({label}/{tag}, seed {seed}): {}/{} commands delivered",
            outcome.delivered, outcome.expected
        );
        assert_eq!(
            outcome.delivered_spare, 0,
            "case {case} ({label}/{tag}, seed {seed})"
        );
        assert_eq!(
            outcome.acks, [outcome.expected; 3],
            "case {case} ({label}/{tag}, seed {seed}): incomplete verification \
             round trips (accept/start/complete = {:?})",
            outcome.acks
        );
    }
}

/// The campaigns must actually exercise the machinery they claim to:
/// across a seed sweep, the monitors declare outages and the reroute
/// boundary pulls frames back out of dead ARQ windows.
#[test]
fn seeded_scenarios_exercise_detection_and_rerouting() {
    let mut downs = 0u64;
    let mut reroutes = 0u64;
    for seed in 1..=8u64 {
        let plan = reroute_plan(MeshTopology::Ring, 6, seed, PartitionScenario::EdgeOutage);
        let outcome = RerouteCampaignRunner::new(plan).run();
        assert!(outcome.is_ok(), "ring seed {seed}: {}", outcome.report);
        downs += outcome.edge_downs;
        reroutes += outcome.reroutes;
    }
    assert!(downs > 0, "no seeded outage was ever detected");
    assert!(
        reroutes > 0,
        "no frame was ever pulled back at a reroute boundary"
    );
}

/// Extracts the `(a, b)` endpoints from an AIR100 message
/// (`"losing edge N<a>-N<b> alone strands …"`).
fn parse_air100_edge(message: &str) -> (usize, usize) {
    let rest = message
        .strip_prefix("losing edge N")
        .expect("AIR100 message shape");
    let (a, rest) = rest.split_once("-N").expect("AIR100 message shape");
    let b: String = rest.chars().take_while(char::is_ascii_digit).collect();
    (
        a.parse().expect("edge endpoint"),
        b.parse().expect("edge endpoint"),
    )
}

fn mesh_member_text(id: usize, routes: &[(usize, usize)]) -> String {
    let mut text = format!(
        "partition P0 name=SW{id}\n\
         schedule chi0 name=ops mtf=100\n\
           require P0 cycle=100 duration=100\n\
           window P0 offset=0 duration=100\n\
         link primary_latency=3 secondary_latency=6\n\
         arq window=8 timeout=24\n\
         node N{id} name=NODE{id}\n"
    );
    for &(dst, via) in routes {
        text.push_str(&format!("route N{dst} via=N{via}\n"));
    }
    text.push_str(&format!("apid {} name=STREAM{id} kind=tm\n", 100 + id));
    text
}

/// AIR100 closes the loop to the real system: the bridge edge the lint
/// names, forced down on the concrete transport, materialises as
/// undelivered packets that *no* amount of rerouting can deliver — they
/// end up parked, exactly as the diagnostic predicts.
#[test]
fn air100_witness_replays_to_concrete_undelivered_packets() {
    // The three members of a line mesh N0-N1-N2 (same shape as the lint
    // corpus case): every edge is a bridge.
    let texts = [
        mesh_member_text(0, &[(1, 1), (2, 1)]),
        mesh_member_text(1, &[(0, 0), (2, 2)]),
        mesh_member_text(2, &[(0, 1), (1, 1)]),
    ];
    let report = lint_members(&parse_members(&texts).into_models().expect("members parse"));
    let finding = report
        .diagnostics()
        .iter()
        .find(|d| d.code == Code::UnreachableAfterSingleEdgeLoss)
        .expect("a line mesh must produce AIR100");
    let (a, b) = parse_air100_edge(&finding.message);
    let edge = MeshTopology::Line
        .edges(3)
        .iter()
        .position(|&e| e == (a, b))
        .expect("the named edge exists in the topology");

    // Static tables: frames die against the cut.
    let static_replay = replay_edge_loss(MeshTopology::Line, 3, edge, false);
    assert!(
        static_replay.delivered < static_replay.expected,
        "a bridge loss must strand commands ({}/{} delivered)",
        static_replay.delivered,
        static_replay.expected
    );
    // Rerouting on: still undeliverable (AIR100 means no detour exists),
    // but the undelivered commands are parked, not silently lost.
    let healed_replay = replay_edge_loss(MeshTopology::Line, 3, edge, true);
    assert!(
        healed_replay.delivered < healed_replay.expected,
        "no reroute can cross a bridge ({}/{} delivered)",
        healed_replay.delivered,
        healed_replay.expected
    );
    assert!(
        healed_replay.parked > 0,
        "undeliverable commands must be parked, not dropped"
    );

    // Contrast: a triangle draws no AIR100, and the same replay with
    // rerouting delivers everything past the cut.
    let triangle = [
        mesh_member_text(0, &[(1, 1), (2, 2)]),
        mesh_member_text(1, &[(0, 0), (2, 2)]),
        mesh_member_text(2, &[(0, 0), (1, 1)]),
    ];
    let triangle = parse_members(&triangle)
        .into_models()
        .expect("members parse");
    let clean = lint_members(&triangle);
    assert!(
        !clean
            .diagnostics()
            .iter()
            .any(|d| d.code == Code::UnreachableAfterSingleEdgeLoss),
        "{clean}"
    );
    let ring_replay = replay_edge_loss(MeshTopology::Ring, 3, 0, true);
    assert_eq!(
        ring_replay.delivered, ring_replay.expected,
        "a cycle reroutes around any single edge loss"
    );
}

/// PUS command verification across a mid-handshake cut: the edge the
/// acknowledgement path rides dies while commands are in flight — some
/// have their acceptance report home but start/completion still pending.
/// After detection, reroute and recovery, every stage of every command's
/// verification round trip must complete.
#[test]
fn verification_round_trips_survive_an_ack_path_outage_mid_handshake() {
    // Ring of 6: the command path is 0-1-2-3 and the reports return the
    // same way. Edge index 2 is (1,2), squarely on both. The outage
    // lands at tick 230 — past the first command cycles, so acks are
    // genuinely split across the cut — and heals at 610.
    let plan = MeshPlan {
        topology: MeshTopology::Ring,
        nodes: 6,
        faults: FaultPlan::generate(0, &[], 0, 150, 400, 37),
        partitions: vec![
            MeshFault {
                at: 230,
                kind: MeshFaultKind::EdgeDown { edge: 2 },
            },
            MeshFault {
                at: 610,
                kind: MeshFaultKind::EdgeUp { edge: 2 },
            },
        ],
        heal: Some(HealPolicy::default()),
    };
    let outcome = RerouteCampaignRunner::new(plan).run();
    assert!(outcome.is_ok(), "{}", outcome.report);
    assert!(outcome.edge_downs >= 1, "the cut was never detected");
    assert_eq!(outcome.delivered, outcome.expected);
    assert_eq!(
        outcome.acks, [outcome.expected; 3],
        "verification stages lost across the cut (accept/start/complete = {:?})",
        outcome.acks
    );
    for marker in [
        "CommandAccepted",
        "CommandStarted",
        "CommandCompleted",
        "MeshEdgeDown",
        "MeshEdgeUp",
    ] {
        assert!(outcome.trace_log.contains(marker), "trace misses {marker}");
    }
}
