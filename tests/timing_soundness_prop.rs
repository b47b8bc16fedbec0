//! Soundness of `airlint --timing` against the real simulator (seeded
//! xorshift, 50 seeds): member configuration documents are generated to
//! describe exactly the mesh the campaign runs — same topology, the
//! `route` lines of the router the campaign forwards by, same ARQ
//! tuning, same fabric latency — a `flow` from
//! the commander to the executor is certified statically, and then the
//! adversarial partition campaigns (sustained edge outage, flapping
//! edge, executor isolation, two-edge partition) run over the same mesh
//! recording every observed end-to-end TC→TM completion latency.
//!
//! The property: **observed ≤ certified**, on every flow, every seed,
//! every scenario class. Any excess is a hard failure — it means the
//! static composition (per-node window terms + per-hop ARQ/link worst
//! cases + the reroute/failover penalty) under-approximates something
//! the transport can actually do, mirroring how `tests/explore_prop.rs`
//! pins the exploration abstraction. The certificate and the simulator
//! read the same hop constants (`air_ports::routing`: the TTL, the
//! fabric latency and the store-and-forward slack), so no copy of them
//! needs pinning; only the failover budget is declared on the lint side,
//! and an `air-core` unit test checks it against the scenario timings.
//!
//! Any failure prints its seed, topology and scenario for replay.

use air_core::mesh::{
    command_endpoints, mesh_plan, reroute_plan, PartitionScenario, RerouteCampaignRunner,
};
use air_lint::{lint_timing, parse_members};
use air_model::testkit::TestRng;
use air_ports::routing::{LiveRouter, MeshTopology, NodeId};

const TOPOLOGIES: [MeshTopology; 3] = [MeshTopology::Line, MeshTopology::Star, MeshTopology::Ring];

/// The number of nodes every campaign (and member set) uses.
const NODES: usize = 6;

/// Member documents describing exactly the mesh the simulator runs:
/// one `route` per destination, read from the all-live router every
/// campaign starts from (a static campaign never leaves it), the default
/// ARQ tuning (`ArqConfig::default()`), and the fabric latency
/// (`MESH_LATENCY`). The commander's document declares the command flow.
fn member_texts(topology: MeshTopology, src: usize, dst: usize) -> Vec<String> {
    let router = LiveRouter::new(NODES, &topology.edges(NODES));
    (0..NODES)
        .map(|i| {
            let mut text = format!(
                "partition P0 name=SW{i}\n\
                 schedule chi0 name=ops mtf=100\n\
                   require P0 cycle=100 duration=100\n\
                   window P0 offset=0 duration=100\n\
                 link primary_latency=2 secondary_latency=4\n\
                 arq window=8 timeout=24 backoff_cap=3 max_retries=8\n\
                 node N{i} name=NODE{i}\n"
            );
            for route_dst in (0..NODES).filter(|&d| d != i) {
                let via = router
                    .next_hop(i, NodeId(route_dst as u16))
                    .expect("the topology is connected");
                text.push_str(&format!("route N{route_dst} via={via}\n"));
            }
            if i == src {
                // CMD_APID is 100; the deadline is irrelevant to the
                // bound itself (generous so the member set lints clean).
                text.push_str(&format!("flow N{src}:100 -> N{dst} deadline=1000000\n"));
            }
            text.push_str(&format!("apid {} name=STREAM{i} kind=tm\n", 200 + i));
            text
        })
        .collect()
}

/// Statically certifies the commander→executor flow over the member set
/// and returns `(certified, fault_free)`.
fn certify(topology: MeshTopology) -> (u64, u64) {
    let (src, dst) = command_endpoints(topology, NODES);
    let texts = member_texts(topology, src, dst);
    let members = parse_members(&texts)
        .into_models()
        .expect("generated members parse");
    let timing = lint_timing(&members);
    assert!(
        !timing.report.has_errors(),
        "{}: generated member set must certify cleanly:\n{}",
        topology.label(),
        timing.report
    );
    let bound = timing
        .bounds
        .iter()
        .find(|b| b.src == src as u16 && b.dst == dst as u16)
        .expect("the declared flow has a bound entry");
    (
        bound.certified.expect("routable flow certifies"),
        bound
            .fault_free
            .expect("routable flow has a fault-free term"),
    )
}

#[test]
fn observed_latency_never_exceeds_certified_bound_over_50_seeds() {
    let certified: Vec<(u64, u64)> = TOPOLOGIES.iter().map(|&t| certify(t)).collect();
    let mut rng = TestRng::new(0x71A1);
    for case in 0..50u64 {
        let pick = rng.below_usize(TOPOLOGIES.len());
        let topology = TOPOLOGIES[pick];
        let (bound, _) = certified[pick];
        let scenario = PartitionScenario::ALL[rng.below_usize(PartitionScenario::ALL.len())];
        let seed = rng.range(1, 1 << 20);
        let outcome =
            RerouteCampaignRunner::new(reroute_plan(topology, NODES, seed, scenario)).run();
        let label = topology.label();
        let tag = scenario.label();
        assert!(
            outcome.is_ok(),
            "case {case} ({label}/{tag}, seed {seed}): {}",
            outcome.report
        );
        // Every generated scenario heals, so every command completes its
        // verification round trip — one latency sample each.
        assert_eq!(
            outcome.latency_samples, outcome.expected,
            "case {case} ({label}/{tag}, seed {seed}): {} of {} commands left \
             no completion-latency sample",
            outcome.latency_samples, outcome.expected
        );
        let observed = outcome
            .max_observed_latency
            .expect("healed campaigns complete at least one command");
        assert!(
            observed <= bound,
            "case {case} ({label}/{tag}, seed {seed}): observed end-to-end \
             latency {observed} exceeds the certified bound {bound} — the \
             static timing analysis is unsound"
        );
    }
}

/// Without partitions the reroute/failover penalty never applies: legacy
/// fault campaigns (drops, bit-flips, duplicates — everything the ARQ
/// term already budgets for) must stay inside the *fault-free* half of
/// the bound alone.
#[test]
fn legacy_fault_campaigns_stay_inside_the_fault_free_term() {
    let mut rng = TestRng::new(0xFA17);
    for case in 0..12u64 {
        let pick = rng.below_usize(TOPOLOGIES.len());
        let topology = TOPOLOGIES[pick];
        let (_, fault_free) = certify(topology);
        let seed = rng.range(1, 1 << 20);
        let outcome = RerouteCampaignRunner::new(mesh_plan(topology, NODES, seed, 1)).run();
        assert!(
            outcome.is_ok(),
            "case {case} ({}, seed {seed}): {}",
            topology.label(),
            outcome.report
        );
        let observed = outcome
            .max_observed_latency
            .expect("clean campaigns complete commands");
        assert!(
            observed <= fault_free,
            "case {case} ({}, seed {seed}): observed latency {observed} exceeds \
             the fault-free term {fault_free}",
            topology.label()
        );
    }
}
