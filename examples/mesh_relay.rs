//! A five-node routed mesh delivering a telecommand end-to-end — then
//! healing itself through a link partition.
//!
//! **Act one:** the ground node N0 originates telecommands (APID 100)
//! that cross four hops of a line topology N0 → N1 → N2 → N3 → N4 to the
//! executor, which acknowledges each with PUS service-1 verification
//! reports (acceptance, start, completion) routed all the way back.
//! Seeded link faults — drops, bit-flips, sustained outages, ack
//! destruction — are repaired underneath by the per-edge go-back-N ARQ,
//! so the service layer sees exactly-once, in-order delivery.
//!
//! **Act two:** the same workload on a 5-ring with link-health monitors
//! installed, while a seeded partition kills an edge mid-stream. The
//! [`MeshStatus`] snapshot is rendered mid-outage (the monitor has
//! declared the edge dead, the router has rebuilt its live tables and
//! in-flight frames have been pulled back through the detour) and again
//! after recovery, when every edge is live and every command delivered.
//!
//! ```text
//! cargo run --example mesh_relay
//! ```

use air_core::mesh::{
    mesh_plan, planned_mesh_horizon, reroute_plan, MeshSim, MeshStatus, PartitionScenario,
    RerouteCampaignRunner, CMD_APID,
};
use air_core::Scenario;
use air_ports::routing::MeshTopology;

fn render_status(label: &str, status: &MeshStatus) {
    println!("  mesh status {label}:");
    for edge in &status.edges {
        let (a, b) = edge.endpoints;
        let detail = match edge.health {
            Some(h) if !h.live => format!(
                "DOWN  ({} loss rounds, {} clean probes toward recovery)",
                h.consecutive_losses, h.clean_probes
            ),
            Some(h) => format!("live  ({} downs, {} ups so far)", h.downs, h.ups),
            None => "live  (unmonitored)".to_string(),
        };
        println!("    edge N{a}-N{b}: {detail}");
    }
    println!(
        "    router: {} live-table rebuilds, {} frames rerouted, {} parked; \
         commands target N{}",
        status.route_rebuilds, status.reroutes, status.parked, status.active_executor
    );
}

fn main() {
    let plan = mesh_plan(MeshTopology::Line, 5, 0xA17, 1);
    let outcome = RerouteCampaignRunner::new(plan).run();

    println!("five-node line mesh, seeded link faults:");
    println!(
        "  commands delivered : {}/{} (APID {CMD_APID}, {} hops)",
        outcome.delivered, outcome.expected, outcome.command_hops
    );
    println!(
        "  verification acks  : accept={} start={} complete={}",
        outcome.acks[0], outcome.acks[1], outcome.acks[2]
    );
    println!(
        "  link repair        : {} retransmissions, {} corrupt frames discarded",
        outcome.retransmissions, outcome.corrupt_frames
    );
    println!(
        "  forwarding         : {} packets relayed, {} dropped",
        outcome.forwarded, outcome.packets_dropped
    );
    println!("  exactly-once check : {}", outcome.report);
    assert!(outcome.is_ok(), "{}", outcome.report);

    println!("\ncommand-verification trace (ground node's view):");
    for line in outcome
        .trace_log
        .lines()
        .filter(|l| l.contains("Command") || l.contains("TelemetryReceived"))
        .take(12)
    {
        println!("  {line}");
    }

    // Act two: the self-healing ring. Seed 0xA1A lands the outage on
    // edge N1-N2 — squarely on the command path — around tick 206 and
    // heals it ~350 ticks later; the first snapshot is taken mid-outage,
    // the second after recovery.
    let plan = reroute_plan(MeshTopology::Ring, 5, 0xA1A, PartitionScenario::EdgeOutage);
    let horizon = planned_mesh_horizon(&plan);
    let mut sim = MeshSim::new(&plan);
    sim.run_for(480);
    println!(
        "\nfive-node ring, seeded edge partition (monitors on), tick {}:",
        sim.now()
    );
    render_status("mid-outage", &sim.status());
    sim.run_for(horizon - sim.now());
    println!("\nafter recovery, tick {}:", sim.now());
    let status = sim.status();
    render_status("healed", &status);
    assert!(status.edges.iter().all(|e| e.live), "an edge stayed dead");
    assert_eq!(status.parked, 0, "packets stayed parked after recovery");
    println!("\nmesh relay OK");
}
