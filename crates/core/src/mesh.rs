//! Deterministic campaigns over an N-node routed mesh with TM/TC
//! services.
//!
//! The two-node cluster of [`crate::link_campaign`] generalises here to
//! an arbitrary topology: N lightweight protocol nodes wired by a
//! [`MeshFabric`] (one latency-modelled, fault-injectable link per
//! edge), each node running one go-back-N [`ArqEndpoint`] per neighbour
//! and the PUS-flavoured services — command verification
//! (accept/start/complete reports) and event telemetry — with every hop
//! chosen by the one [`LiveRouter`] the sim owns. A ground node
//! originates a closed budget of telecommands toward an executor at
//! least two hops away; every hop is a reliable ARQ link; verification
//! reports and event telemetry route back. A seeded [`FaultPlan`] over
//! [`FaultClass::LINK`] strikes individual edges — in-flight drops,
//! header corruption, sustained outages, acknowledgement destruction —
//! and [`RerouteCampaignRunner`] checks exactly-once in-order command
//! delivery, complete verification-ack round trips, loop freedom and
//! byte-identical trace logs on re-execution.
//!
//! Mesh nodes are deliberately *not* full [`crate::system::AirSystem`]s:
//! the mesh layer exercises the transport, routing and service state
//! machines; the partition-scheduling story lives in the other
//! campaigns. DESIGN.md §12 records the soundness caveats of that cut.
//!
//! # Self-healing campaigns
//!
//! A plan with a [`HealPolicy`] turns the static mesh into a
//! self-healing one: per-edge health monitors (the loss-streak/probation
//! machinery of `air_hw::redundant` applied per fabric edge) declare
//! edges dead from ARQ timeout evidence and recover them on probe
//! echoes; the router marks the edge dead or live at each transition
//! and rebuilds its next hops; frames caught in a dead edge's ARQ window
//! are pulled back and re-forwarded over the new hops; packets with no
//! surviving route park until an edge recovers; and an optional
//! `fallback` pair promotes a hot-spare executor when the
//! quorum-of-edges heuristic declares the primary partitioned.
//! The same runner drives seeded partition scenarios
//! ([`PartitionScenario`]); it then drops the in-order demand, since
//! rerouted packets legally overtake parked ones, and checks eventual
//! redelivery after heal in its place. DESIGN.md §14 states the reroute
//! determinism argument.

use std::collections::BTreeSet;

use air_hw::inject::{FaultClass, FaultEvent, FaultPlan};
use air_hw::link::LinkEndpoint;
use air_hw::mesh::{EdgeHealth, EdgeHealthEvent, EdgeMonitorConfig, MeshFabric};
use air_model::verify::{check_exactly_once, Report, Violation};
use air_model::Ticks;
use air_ports::pus::{
    verification_report, AckStage, CommandVerifier, EventReporter, EventSeverity, SERVICE_EVENT,
    SERVICE_VERIFICATION,
};
use air_ports::routing::{LiveRouter, MeshTopology, NodeId, MESH_HOP_SLACK};
use air_ports::spacepacket::{PacketKind, SpacePacket};
use air_ports::transport::{ArqConfig, ArqEndpoint, ArqEvent, DataDisposition};
use air_ports::wire::{bytes_look_like_ack, Frame};

use crate::scenario::Scenario;
use crate::trace::{PacketDropReason, Trace, TraceEvent};

pub use air_ports::routing::{MESH_LATENCY, MESH_TTL};

/// The wire channel mesh frames ride on (distinct from the cluster's
/// telemetry/attitude channels).
const MESH_CHANNEL: u32 = 60;
/// APID of the ground node's command stream.
pub const CMD_APID: u16 = 100;
/// Base APID of per-node event telemetry (node `i` publishes on
/// `EVENT_APID_BASE + i`).
pub const EVENT_APID_BASE: u16 = 200;
/// First command origination tick.
pub const CMD_START: u64 = 20;
/// Ticks between command originations.
const CMD_PERIOD: u64 = 40;
/// Executor-side ticks between command start and completion.
const EXEC_TICKS: u64 = 5;
/// Post-plan traffic margin: commands keep flowing this long past the
/// last fault so late faults find frames to strike.
const TRAFFIC_TAIL: u64 = 200;
/// Fixed drain slack on top of the structural worst-case repair bound.
const DRAIN_SLACK: u64 = 100;
/// The wire channel edge-health probe/echo frames ride on. Probes are
/// unsequenced (`link_seq == 0`) and bypass the ARQ machinery entirely.
const PROBE_CHANNEL: u32 = 61;
/// Payload byte of a probe ping (low endpoint → high endpoint).
const PROBE_PING: u8 = 0x50;
/// Payload byte of a probe echo (the answer).
const PROBE_ECHO: u8 = 0x51;
/// Extra drain granted to self-healing plans: worst-case probe
/// recovery after the last heal event plus a reroute round trip.
const HEAL_DRAIN: u64 = 200;

/// A mesh campaign's complete, deterministic input: the topology, the
/// node count, the seeded link-fault plan, the structured partition
/// faults and the (optional) self-healing policy.
#[derive(Debug, Clone)]
pub struct MeshPlan {
    /// The mesh shape.
    pub topology: MeshTopology,
    /// Number of nodes (minimum 3: the campaign demands ≥ 2 hops).
    pub nodes: usize,
    /// The seeded edge-fault plan.
    pub faults: FaultPlan,
    /// Structured partition faults (empty: no partitions).
    pub partitions: Vec<MeshFault>,
    /// Self-healing policy (`None`: no monitors, so the router never
    /// marks an edge dead — the static campaign).
    pub heal: Option<HealPolicy>,
}

/// The self-healing policy of a mesh campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HealPolicy {
    /// Per-edge health monitor tuning.
    pub monitor: EdgeMonitorConfig,
    /// Hot-spare declaration `(primary, spare)`: when the
    /// quorum-of-edges heuristic declares `primary` partitioned, the
    /// commander redirects the command stream to `spare` — the mesh
    /// echo of PR 4's degraded-mode handshake.
    pub fallback: Option<(usize, usize)>,
}

/// One scheduled partition fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshFault {
    /// Tick the fault strikes.
    pub at: u64,
    /// What happens.
    pub kind: MeshFaultKind,
}

/// The shape of one partition fault. Edge indices refer to the sorted
/// normalised edge list of [`MeshTopology::edges`] — the same order the
/// fabric and the [`LiveRouter`] use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeshFaultKind {
    /// A sustained outage begins on one edge.
    EdgeDown {
        /// Index into the sorted edge list.
        edge: usize,
    },
    /// The outage on one edge ends.
    EdgeUp {
        /// Index into the sorted edge list.
        edge: usize,
    },
    /// Every edge of one node goes into sustained outage.
    IsolateNode {
        /// The isolated node.
        node: usize,
    },
    /// Every edge of one node heals.
    HealNode {
        /// The healed node.
        node: usize,
    },
}

/// The partition fault shapes of the self-healing campaigns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionScenario {
    /// One edge dies for a sustained interval, then heals.
    EdgeOutage,
    /// One edge flaps: three short outage pulses.
    Flapping,
    /// The executor loses every edge, then heals.
    NodeIsolation,
    /// Two distinct edges die in close succession, then both heal.
    HealedPartition,
}

impl PartitionScenario {
    /// Every scenario, in campaign order.
    pub const ALL: [PartitionScenario; 4] = [
        PartitionScenario::EdgeOutage,
        PartitionScenario::Flapping,
        PartitionScenario::NodeIsolation,
        PartitionScenario::HealedPartition,
    ];

    /// Stable label for reports and bench output.
    pub fn label(self) -> &'static str {
        match self {
            PartitionScenario::EdgeOutage => "edge-outage",
            PartitionScenario::Flapping => "flapping",
            PartitionScenario::NodeIsolation => "node-isolation",
            PartitionScenario::HealedPartition => "healed-partition",
        }
    }
}

/// Seeded splitmix-style mixer for plan generation.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A convenient mesh-fault plan: `per_class` faults of every
/// [`FaultClass::LINK`] class over a `nodes`-node `topology`, round-robin
/// from tick 150 in 400-tick slots with seeded jitter — the same cadence
/// as [`crate::link_campaign::link_plan`], so each fault resolves before
/// the next lands.
///
/// # Examples
///
/// ```
/// use air_core::mesh::{mesh_plan, RerouteCampaignRunner};
/// use air_ports::routing::MeshTopology;
///
/// let plan = mesh_plan(MeshTopology::Line, 5, 7, 1);
/// let outcome = RerouteCampaignRunner::new(plan).run();
/// assert!(outcome.is_ok(), "{}", outcome.report);
/// assert!(outcome.command_hops >= 2);
/// ```
pub fn mesh_plan(topology: MeshTopology, nodes: usize, seed: u64, per_class: usize) -> MeshPlan {
    MeshPlan {
        topology,
        nodes,
        faults: FaultPlan::generate(seed, &FaultClass::LINK, per_class, 150, 400, 37),
        partitions: Vec::new(),
        heal: None,
    }
}

/// A seeded self-healing plan: one [`PartitionScenario`] over `topology`
/// with default monitor tuning, no legacy faults and no fallback pair.
/// Every generated scenario heals before the traffic window closes, so
/// the eventual-redelivery invariant demands full delivery.
pub fn reroute_plan(
    topology: MeshTopology,
    nodes: usize,
    seed: u64,
    scenario: PartitionScenario,
) -> MeshPlan {
    let edge_count = topology.edges(nodes).len().max(1);
    let (_, executor) = command_endpoints(topology, nodes);
    let mut partitions = Vec::new();
    match scenario {
        PartitionScenario::EdgeOutage => {
            let edge = (mix(seed, 1) as usize) % edge_count;
            let start = 180 + mix(seed, 2) % 60;
            partitions.push(MeshFault {
                at: start,
                kind: MeshFaultKind::EdgeDown { edge },
            });
            partitions.push(MeshFault {
                at: start + 350,
                kind: MeshFaultKind::EdgeUp { edge },
            });
        }
        PartitionScenario::Flapping => {
            let edge = (mix(seed, 3) as usize) % edge_count;
            let mut at = 180 + mix(seed, 4) % 40;
            for _ in 0..3 {
                partitions.push(MeshFault {
                    at,
                    kind: MeshFaultKind::EdgeDown { edge },
                });
                partitions.push(MeshFault {
                    at: at + 90,
                    kind: MeshFaultKind::EdgeUp { edge },
                });
                at += 180;
            }
        }
        PartitionScenario::NodeIsolation => {
            let start = 200 + mix(seed, 5) % 40;
            partitions.push(MeshFault {
                at: start,
                kind: MeshFaultKind::IsolateNode { node: executor },
            });
            partitions.push(MeshFault {
                at: start + 380,
                kind: MeshFaultKind::HealNode { node: executor },
            });
        }
        PartitionScenario::HealedPartition => {
            let first = (mix(seed, 6) as usize) % edge_count;
            let second = if edge_count > 1 {
                (first + 1 + (mix(seed, 7) as usize) % (edge_count - 1)) % edge_count
            } else {
                first
            };
            let start = 180 + mix(seed, 8) % 40;
            partitions.push(MeshFault {
                at: start,
                kind: MeshFaultKind::EdgeDown { edge: first },
            });
            partitions.push(MeshFault {
                at: start + 400,
                kind: MeshFaultKind::EdgeUp { edge: first },
            });
            if second != first {
                partitions.push(MeshFault {
                    at: start + 40,
                    kind: MeshFaultKind::EdgeDown { edge: second },
                });
                partitions.push(MeshFault {
                    at: start + 430,
                    kind: MeshFaultKind::EdgeUp { edge: second },
                });
            }
        }
    }
    MeshPlan {
        topology,
        nodes,
        faults: FaultPlan::generate(seed, &[], 0, 150, 400, 37),
        partitions,
        heal: Some(HealPolicy::default()),
    }
}

/// A seeded node-failover plan: the executor is permanently isolated
/// mid-campaign and a hot spare (the lowest-indexed node that is
/// neither commander nor executor) is declared as its fallback. The
/// quorum heuristic must promote the spare; commands addressed to the
/// dead primary park, everything else delivers exactly once.
pub fn fallback_plan(topology: MeshTopology, nodes: usize, seed: u64) -> MeshPlan {
    let (commander, executor) = command_endpoints(topology, nodes);
    let spare = (0..nodes)
        .find(|&i| i != commander && i != executor)
        .unwrap_or(commander);
    let start = 220 + mix(seed, 9) % 40;
    MeshPlan {
        topology,
        nodes,
        faults: FaultPlan::generate(seed, &[], 0, 150, 400, 37),
        partitions: vec![MeshFault {
            at: start,
            kind: MeshFaultKind::IsolateNode { node: executor },
        }],
        heal: Some(HealPolicy {
            monitor: EdgeMonitorConfig::default(),
            fallback: Some((executor, spare)),
        }),
    }
}

/// Whether `plan`'s partition faults all heal by the end of the plan
/// (replaying them in time order leaves every edge outage lifted).
pub fn plan_heals(plan: &MeshPlan) -> bool {
    let edges = plan.topology.edges(plan.nodes);
    let mut down = vec![false; edges.len()];
    let mut ordered: Vec<&MeshFault> = plan.partitions.iter().collect();
    ordered.sort_by_key(|fault| fault.at);
    for fault in ordered {
        match fault.kind {
            MeshFaultKind::EdgeDown { edge } => {
                if let Some(slot) = down.get_mut(edge) {
                    *slot = true;
                }
            }
            MeshFaultKind::EdgeUp { edge } => {
                if let Some(slot) = down.get_mut(edge) {
                    *slot = false;
                }
            }
            MeshFaultKind::IsolateNode { node } => {
                for (i, &(a, b)) in edges.iter().enumerate() {
                    if a == node || b == node {
                        down[i] = true;
                    }
                }
            }
            MeshFaultKind::HealNode { node } => {
                for (i, &(a, b)) in edges.iter().enumerate() {
                    if a == node || b == node {
                        down[i] = false;
                    }
                }
            }
        }
    }
    down.iter().all(|&d| !d)
}

/// The commander (ground) and executor nodes of a campaign over
/// `topology`: the pair is chosen so the command path crosses at least
/// two hops — the far end of a line, leaf to leaf across a star's hub,
/// halfway around a ring.
pub fn command_endpoints(topology: MeshTopology, nodes: usize) -> (usize, usize) {
    match topology {
        MeshTopology::Line => (0, nodes - 1),
        MeshTopology::Star => (1, nodes - 1),
        MeshTopology::Ring => (0, nodes / 2),
    }
}

/// Number of hops from `src` to `dst` over `router`'s current next hops
/// among `nodes` nodes (`None`: no route or a loop).
fn hop_count(router: &LiveRouter, nodes: usize, src: usize, dst: usize) -> Option<u64> {
    let mut at = src;
    let mut hops = 0u64;
    while at != dst {
        at = router.next_hop(at, NodeId(dst as u16))?.as_u16() as usize;
        hops += 1;
        if hops > nodes as u64 {
            return None;
        }
    }
    Some(hops)
}

/// End of the command-origination window for `plan`: past the last
/// fault — legacy or partition — by the traffic tail, so late faults
/// (and heals) find frames to strike.
fn traffic_window_end(plan: &MeshPlan) -> u64 {
    let last_partition = plan
        .partitions
        .iter()
        .map(|fault| fault.at)
        .max()
        .unwrap_or(0);
    // Self-healing plans keep traffic flowing longer still: edge-death
    // detection lags the outage by several ARQ timeout rounds, and the
    // campaign wants commands in flight on the far side of the
    // detection, reroute and failover boundaries.
    let heal_tail = if plan.heal.is_some() { HEAL_DRAIN } else { 0 };
    plan.faults.horizon().max(last_partition) + TRAFFIC_TAIL + heal_tail
}

/// The closed command budget of a campaign over `plan`.
pub fn planned_budget(plan: &MeshPlan) -> u64 {
    (traffic_window_end(plan).saturating_sub(CMD_START) / CMD_PERIOD).max(4)
}

/// The total simulated horizon of a mesh campaign: the traffic window,
/// then a drain long enough for one worst-case ARQ repair plus a clean
/// multi-hop round trip of the last command's completion report.
pub fn planned_mesh_horizon(plan: &MeshPlan) -> u64 {
    let per_hop = ArqConfig::default().worst_case_delay() + MESH_LATENCY + MESH_HOP_SLACK;
    let base =
        traffic_window_end(plan) + EXEC_TICKS + 2 * (plan.nodes as u64) * per_hop + DRAIN_SLACK;
    match &plan.heal {
        None => base,
        // Self-healing plans drain longer: the last heal still needs a
        // probe-recovery streak before parked traffic can re-flow.
        Some(policy) => {
            base + policy.monitor.probe_interval
                * (u64::from(policy.monitor.recovery_threshold) + 2)
                + HEAL_DRAIN
        }
    }
}

/// The edge a link fault strikes (its target modulo the `edges` edge
/// count) and, from direction bit 7, the endpoint an in-flight fault
/// hunts frames toward.
fn fault_site(event: &FaultEvent, edges: usize) -> (usize, LinkEndpoint) {
    let toward = if event.target & (1 << 7) == 0 {
        LinkEndpoint::A
    } else {
        LinkEndpoint::B
    };
    ((event.target as usize) % edges, toward)
}

/// One mesh node: per-neighbour reliable transport, the PUS services,
/// and its own trace. Its hops come from the sim's router, passed in.
struct MeshNode {
    id: u16,
    /// `(peer index, endpoint)` pairs sorted by peer — the deterministic
    /// service order.
    arqs: Vec<(usize, ArqEndpoint)>,
    verifier: CommandVerifier,
    reporter: EventReporter,
    trace: Trace,
    /// Command sequence counts delivered here as final destination, in
    /// arrival order (the exactly-once oracle).
    delivered_cmds: Vec<u16>,
    /// Verification reports received here, indexed
    /// acceptance/start/completion.
    acks: [u64; 3],
    /// `(command seq, arrival tick)` of every completion-stage
    /// verification report delivered here — joined against the sim's
    /// origination ticks into observed end-to-end TC→TM latencies, the
    /// concrete side of `airlint --timing`'s certified bounds.
    completion_arrivals: Vec<(u16, u64)>,
    /// Event reports received here (the ground role).
    events_received: u64,
    /// Frames that failed wire decode (header corruption caught by the
    /// frame checksum).
    corrupt_frames: u64,
    /// Packets discarded by TTL exhaustion or missing routes.
    packets_dropped: u64,
    /// TTL-exhaustion drops alone (the no-loop oracle's input).
    ttl_drops: u64,
    /// Packets held here because no live route exists (self-heal mode);
    /// re-offered whenever an edge recovers.
    parked: Vec<SpacePacket>,
    /// Lifetime park count.
    parks: u64,
    /// End-to-end dedup filter, self-heal mode only: `(apid, src, seq,
    /// service, subservice)` of every packet terminally delivered here.
    /// Reroute-boundary requeue can re-send a frame whose ack was lost,
    /// so exactly-once must be enforced above the per-edge ARQ.
    seen: BTreeSet<(u16, u16, u16, u8, u8)>,
    /// Terminal deliveries suppressed by the end-to-end filter.
    duplicates_filtered: u64,
    /// Whether the self-healing layer is active (gates parking and the
    /// end-to-end filter so legacy campaigns stay bit-identical).
    self_heal: bool,
}

impl MeshNode {
    fn new(id: u16, neighbors: &[usize], self_heal: bool) -> Self {
        Self {
            id,
            arqs: neighbors
                .iter()
                .map(|&peer| (peer, ArqEndpoint::new(ArqConfig::default())))
                .collect(),
            verifier: CommandVerifier::new(EXEC_TICKS),
            reporter: EventReporter::new(EVENT_APID_BASE + id),
            trace: Trace::new(),
            delivered_cmds: Vec::new(),
            acks: [0; 3],
            completion_arrivals: Vec::new(),
            events_received: 0,
            corrupt_frames: 0,
            packets_dropped: 0,
            ttl_drops: 0,
            parked: Vec::new(),
            parks: 0,
            seen: BTreeSet::new(),
            duplicates_filtered: 0,
            self_heal,
        }
    }

    fn arq_toward(&mut self, peer: usize) -> Option<&mut ArqEndpoint> {
        self.arqs
            .iter_mut()
            .find(|(p, _)| *p == peer)
            .map(|(_, arq)| arq)
    }

    /// Routes `packet` out of this node: decrements the hop budget,
    /// asks `router` for the next hop, and offers the encoded packet to
    /// the ARQ toward it. Records the forward (or the drop) in the node's
    /// trace.
    fn forward(&mut self, router: &LiveRouter, packet: SpacePacket, now: u64) {
        let at = Ticks(now);
        if packet.ttl == 0 {
            self.packets_dropped += 1;
            self.ttl_drops += 1;
            self.trace.record(TraceEvent::PacketDropped {
                at,
                apid: packet.apid,
                dst: packet.dst,
                reason: PacketDropReason::TtlExpired,
            });
            return;
        }
        let Some(via) = router.next_hop(usize::from(self.id), NodeId(packet.dst)) else {
            if self.self_heal {
                // No live route right now: hold the packet for the next
                // edge recovery instead of dropping it.
                self.parks += 1;
                self.trace.record(TraceEvent::PacketParked {
                    at,
                    apid: packet.apid,
                    dst: packet.dst,
                });
                self.parked.push(packet);
                return;
            }
            self.packets_dropped += 1;
            self.trace.record(TraceEvent::PacketDropped {
                at,
                apid: packet.apid,
                dst: packet.dst,
                reason: PacketDropReason::NoRoute,
            });
            return;
        };
        let mut relayed = packet;
        relayed.ttl -= 1;
        self.trace.record(TraceEvent::PacketForwarded {
            at,
            apid: relayed.apid,
            dst: relayed.dst,
            via: via.as_u16(),
            ttl: relayed.ttl,
        });
        let bytes = relayed.encode();
        if let Some(arq) = self.arq_toward(via.as_u16() as usize) {
            arq.offer(Frame::new(MESH_CHANNEL, at, bytes));
        } else {
            // The router named a non-neighbour, which its construction
            // rules out; the packet is unroutable.
            self.packets_dropped += 1;
            self.trace.record(TraceEvent::PacketDropped {
                at,
                apid: relayed.apid,
                dst: relayed.dst,
                reason: PacketDropReason::NoRoute,
            });
        }
    }

    /// Hands a locally built packet to the service layer: delivered in
    /// place when addressed to this node, otherwise forwarded.
    fn send_or_deliver(&mut self, router: &LiveRouter, packet: SpacePacket, now: u64) {
        if packet.dst == self.id {
            self.deliver(router, packet, now);
        } else {
            self.forward(router, packet, now);
        }
    }

    /// Terminal delivery: the packet reached its destination node.
    fn deliver(&mut self, router: &LiveRouter, packet: SpacePacket, now: u64) {
        let at = Ticks(now);
        if self.self_heal {
            // Reroute boundaries can legally re-send an already-delivered
            // frame (its ack died with the edge); exactly-once therefore
            // lives here, above the per-edge ARQ.
            let key = (
                packet.apid,
                packet.src,
                packet.seq,
                packet.service,
                packet.subservice,
            );
            if !self.seen.insert(key) {
                self.duplicates_filtered += 1;
                return;
            }
        }
        match (packet.kind, packet.service) {
            (PacketKind::Tc, _) => {
                if let Some(transition) = self.verifier.accept(packet.apid, packet.seq, now) {
                    self.delivered_cmds.push(packet.seq);
                    self.trace.record(TraceEvent::CommandAccepted {
                        at,
                        apid: packet.apid,
                        seq: packet.seq,
                    });
                    if let Ok(report) =
                        verification_report(transition, self.id, packet.src, MESH_TTL)
                    {
                        self.send_or_deliver(router, report, now);
                    }
                }
                // A duplicate surviving ARQ dedup would be re-accepted and
                // re-recorded — exactly what the exactly-once check hunts.
            }
            (PacketKind::Tm, SERVICE_VERIFICATION) => {
                if let Some(stage) = AckStage::from_subservice(packet.subservice) {
                    self.acks[stage as usize] += 1;
                    if matches!(stage, AckStage::Completion) {
                        self.completion_arrivals.push((packet.seq, now));
                    }
                    self.trace.record(TraceEvent::CommandAckReceived {
                        at,
                        apid: packet.apid,
                        seq: packet.seq,
                        stage,
                    });
                }
            }
            (PacketKind::Tm, SERVICE_EVENT) => {
                self.events_received += 1;
                self.trace.record(TraceEvent::TelemetryReceived {
                    at,
                    apid: packet.apid,
                    seq: packet.seq,
                    src: packet.src,
                });
            }
            _ => {}
        }
    }

    /// Publishes an event report toward the ground node (the event
    /// manager: transport-health reports become telemetry packets).
    fn publish_event(
        &mut self,
        router: &LiveRouter,
        ground: u16,
        severity: EventSeverity,
        payload: Vec<u8>,
        now: u64,
    ) {
        let Ok(report) = self
            .reporter
            .report(self.id, ground, MESH_TTL, severity, payload)
        else {
            return;
        };
        self.trace.record(TraceEvent::TelemetryPublished {
            at: Ticks(now),
            apid: report.apid,
            seq: report.seq,
        });
        self.send_or_deliver(router, report, now);
    }
}

/// One incrementally-steppable mesh campaign: N nodes in lockstep over a
/// faulted fabric. [`Scenario::step`] advances one tick;
/// [`Scenario::run_for`] jumps over the quiet ticks between events and
/// steps only the event ticks, with the same result.
/// [`RerouteCampaignRunner`] drives two back to back (the second is the
/// determinism probe); the fleet executor interleaves many across worker
/// threads.
pub struct MeshSim {
    plan: MeshPlan,
    fabric: MeshFabric,
    /// The mesh's one next-hop function. Only edge health transitions
    /// (self-healing plans) mark its edges dead or live.
    router: LiveRouter,
    nodes: Vec<MeshNode>,
    pending: Vec<FaultEvent>,
    pending_partitions: Vec<MeshFault>,
    heal: Option<HealRuntime>,
    commander: usize,
    executor: usize,
    /// Where the commander currently addresses telecommands (the spare
    /// while failed over, the executor otherwise).
    active_executor: usize,
    hops: u64,
    sent: u64,
    /// Origination tick of each telecommand, indexed by command seq.
    cmd_sent_at: Vec<u64>,
    expected: u64,
    now: u64,
    end: u64,
}

/// Mutable state of the self-healing layer.
struct HealRuntime {
    policy: HealPolicy,
    failed_over: bool,
    failovers: u64,
    failbacks: u64,
    /// Frames pulled back out of dead-edge ARQ windows and re-offered
    /// over the rebuilt next hops.
    reroutes: u64,
    edge_downs: u64,
    edge_ups: u64,
}

impl MeshSim {
    /// A sim for `plan`, with the router's hops walked end to end as a
    /// build gate (every pair reachable, no loops).
    ///
    /// # Panics
    ///
    /// Panics if `plan` names fewer than 3 nodes or its built-in
    /// topology fails the reachability walk (impossible for a connected
    /// topology with every edge live).
    pub fn new(plan: &MeshPlan) -> Self {
        Self::assemble(plan, true)
    }

    /// The fleet fast path: construction without the reachability gate
    /// (validate once with [`MeshSim::new`], then mass-construct
    /// through this).
    pub fn new_unchecked(plan: &MeshPlan) -> Self {
        Self::assemble(plan, false)
    }

    fn assemble(plan: &MeshPlan, checked: bool) -> Self {
        assert!(plan.nodes >= 3, "a mesh campaign needs at least 3 nodes");
        let edges = plan.topology.edges(plan.nodes);
        let router = LiveRouter::new(plan.nodes, &edges);
        if checked {
            for src in 0..plan.nodes {
                for dst in 0..plan.nodes {
                    if src != dst {
                        assert!(
                            hop_count(&router, plan.nodes, src, dst).is_some(),
                            "{}[{}]: {src} cannot reach {dst}",
                            plan.topology.label(),
                            plan.nodes
                        );
                    }
                }
            }
        }
        let mut fabric = MeshFabric::new(plan.nodes, &edges, MESH_LATENCY)
            .expect("built-in topologies are valid fabrics"); // lint: allow(panic) -- built-in edge lists are in range and duplicate-free
        let heal = plan.heal.as_ref().map(|policy| HealRuntime {
            policy: *policy,
            failed_over: false,
            failovers: 0,
            failbacks: 0,
            reroutes: 0,
            edge_downs: 0,
            edge_ups: 0,
        });
        if let Some(runtime) = &heal {
            fabric.install_monitors(runtime.policy.monitor);
        }
        let (commander, executor) = command_endpoints(plan.topology, plan.nodes);
        let hops = hop_count(&router, plan.nodes, commander, executor).unwrap_or(plan.nodes as u64);
        let nodes = (0..plan.nodes)
            .map(|i| {
                let neighbors: Vec<usize> =
                    fabric.neighbors(i).iter().map(|&(peer, _)| peer).collect();
                MeshNode::new(i as u16, &neighbors, heal.is_some())
            })
            .collect();
        Self {
            fabric,
            router,
            nodes,
            pending: plan.faults.events().to_vec(),
            pending_partitions: plan.partitions.clone(),
            heal,
            commander,
            executor,
            active_executor: executor,
            hops,
            sent: 0,
            cmd_sent_at: Vec::new(),
            expected: planned_budget(plan),
            now: 0,
            end: planned_mesh_horizon(plan),
            plan: plan.clone(),
        }
    }

    // Inherent forwarders to the `Scenario` methods, so callers step a
    // sim without importing the trait.

    /// [`Scenario::horizon`].
    pub fn horizon(&self) -> u64 {
        Scenario::horizon(self)
    }

    /// [`Scenario::is_done`].
    pub fn is_done(&self) -> bool {
        Scenario::is_done(self)
    }

    /// [`Scenario::step`].
    pub fn step(&mut self) {
        Scenario::step(self);
    }

    /// [`Scenario::run_to_horizon`].
    pub fn run_to_horizon(&mut self) {
        Scenario::run_to_horizon(self);
    }

    /// [`Scenario::render_trace_into`].
    pub fn render_trace_into(&self, out: &mut String) {
        Scenario::render_trace_into(self, out);
    }

    /// Hops between commander and executor.
    pub fn command_hops(&self) -> u64 {
        self.hops
    }

    /// Strikes every fault whose time has come. The faulted edge is
    /// derived from the event's target; drop- and tamper-style faults
    /// stay armed until a frame is in flight on that edge (still fully
    /// deterministic).
    fn realise_due_faults(&mut self, now: u64) {
        let edges = self.fabric.edge_count();
        if edges == 0 {
            self.pending.clear();
            return;
        }
        let fabric = &mut self.fabric;
        self.pending.retain(|event| {
            if event.at > now {
                return true;
            }
            let (edge, toward) = fault_site(event, edges);
            let Some(link) = fabric.link_mut(edge) else {
                return false;
            };
            let realised = match event.class {
                FaultClass::LinkDrop => link.drop_in_flight(toward),
                FaultClass::LinkBitFlip => {
                    let byte = 2 + (event.target as usize % 8);
                    let mask = ((event.target >> 8) as u8) | 0x01;
                    link.tamper_in_flight(toward, byte, mask)
                }
                FaultClass::LinkOutage => {
                    let duration = 220 + event.target % 80;
                    link.begin_outage(now + duration);
                    true
                }
                FaultClass::AckLoss => link.drop_in_flight_where(toward, bytes_look_like_ack),
                _ => true,
            };
            !realised
        });
    }

    /// Strikes every due partition fault: sustained outages begin (or
    /// end) on the named edges or on every edge of the named node.
    fn realise_partition_faults(&mut self, now: u64) {
        if self.pending_partitions.is_empty() {
            return;
        }
        let fabric = &mut self.fabric;
        self.pending_partitions.retain(|fault| {
            if fault.at > now {
                return true;
            }
            match fault.kind {
                MeshFaultKind::EdgeDown { edge } => {
                    if let Some(link) = fabric.link_mut(edge) {
                        link.begin_outage(u64::MAX);
                    }
                }
                MeshFaultKind::EdgeUp { edge } => {
                    if let Some(link) = fabric.link_mut(edge) {
                        link.end_outage();
                    }
                }
                MeshFaultKind::IsolateNode { node } => {
                    let edges: Vec<usize> =
                        fabric.neighbors(node).iter().map(|&(_, e)| e).collect();
                    for edge in edges {
                        if let Some(link) = fabric.link_mut(edge) {
                            link.begin_outage(u64::MAX);
                        }
                    }
                }
                MeshFaultKind::HealNode { node } => {
                    let edges: Vec<usize> =
                        fabric.neighbors(node).iter().map(|&(_, e)| e).collect();
                    for edge in edges {
                        if let Some(link) = fabric.link_mut(edge) {
                            link.end_outage();
                        }
                    }
                }
            }
            false
        });
    }

    /// Sends one probe ping per dead edge whose probe interval elapsed
    /// (low endpoint pings; the echo comes back from the receive path).
    fn send_probes(&mut self, now: u64) {
        if self.heal.is_none() {
            return;
        }
        for edge in 0..self.fabric.edge_count() {
            if self.fabric.edge_live(edge) || !self.fabric.edge_probe_due(edge, now) {
                continue;
            }
            let Some(&(a, b)) = self.fabric.edges().get(edge) else {
                continue;
            };
            let ping = Frame::new(PROBE_CHANNEL, Ticks(now), vec![PROBE_PING]);
            self.fabric.send(a, b, now, ping.encode());
        }
    }

    /// Applies one edge health transition observed by node `observer`:
    /// marks the edge dead or live in the router (which rebuilds its next
    /// hops), pulls undelivered frames back out of the dead edge's ARQ
    /// windows (Down) or re-offers parked packets (Up), and publishes the
    /// transition through HM as trace + event telemetry.
    fn apply_edge_transition(
        &mut self,
        edge: usize,
        event: EdgeHealthEvent,
        observer: usize,
        now: u64,
    ) {
        let Some(&(a, b)) = self.fabric.edges().get(edge) else {
            return;
        };
        let at = Ticks(now);
        let ground = self.commander as u16;
        match event {
            EdgeHealthEvent::Down => {
                if let Some(heal) = self.heal.as_mut() {
                    heal.edge_downs += 1;
                }
                self.router.set_edge_live(edge, false);
                self.nodes[observer].trace.record(TraceEvent::MeshEdgeDown {
                    at,
                    a: a as u16,
                    b: b as u16,
                });
                // Both endpoints restart their ARQ toward each other so
                // link sequencing is consistent if the edge later heals;
                // the pulled-back frames re-route over the rebuilt hops.
                self.requeue_endpoint(a, b, now);
                self.requeue_endpoint(b, a, now);
                self.nodes[observer].publish_event(
                    &self.router,
                    ground,
                    EventSeverity::High,
                    vec![0xED, edge as u8],
                    now,
                );
            }
            EdgeHealthEvent::Up => {
                if let Some(heal) = self.heal.as_mut() {
                    heal.edge_ups += 1;
                }
                self.router.set_edge_live(edge, true);
                self.nodes[observer].trace.record(TraceEvent::MeshEdgeUp {
                    at,
                    a: a as u16,
                    b: b as u16,
                });
                self.nodes[observer].publish_event(
                    &self.router,
                    ground,
                    EventSeverity::Info,
                    vec![0xEE, edge as u8],
                    now,
                );
                self.unpark_all(now);
            }
        }
    }

    /// Resets `node`'s ARQ toward `peer` and re-offers every undelivered
    /// mesh frame over the router's (just rebuilt) next hops.
    fn requeue_endpoint(&mut self, node: usize, peer: usize, now: u64) {
        let frames = {
            let Some(arq) = self.nodes[node].arq_toward(peer) else {
                return;
            };
            arq.reset_undelivered()
        };
        let at = Ticks(now);
        for frame in frames {
            if frame.is_ack() || frame.channel != MESH_CHANNEL {
                continue;
            }
            let Ok(packet) = SpacePacket::decode(&frame.payload) else {
                continue;
            };
            if let Some(heal) = self.heal.as_mut() {
                heal.reroutes += 1;
            }
            let slot = &mut self.nodes[node];
            if packet.dst != slot.id {
                if let Some(via) = self.router.next_hop(node, NodeId(packet.dst)) {
                    slot.trace.record(TraceEvent::PacketRerouted {
                        at,
                        apid: packet.apid,
                        dst: packet.dst,
                        via: via.as_u16(),
                    });
                }
            }
            slot.send_or_deliver(&self.router, packet, now);
        }
    }

    /// Re-offers every parked packet mesh-wide (called on each edge
    /// recovery; packets still lacking a route simply park again).
    fn unpark_all(&mut self, now: u64) {
        for i in 0..self.nodes.len() {
            let parked = std::mem::take(&mut self.nodes[i].parked);
            for packet in parked {
                self.nodes[i].send_or_deliver(&self.router, packet, now);
            }
        }
    }

    /// The quorum-of-edges failover heuristic: when more than half the
    /// declared-fallback primary's edges are believed dead, the
    /// commander redirects the command stream to the spare; the
    /// redirect reverts when the quorum recovers.
    fn evaluate_quorum(&mut self, now: u64) {
        let Some(heal) = &self.heal else {
            return;
        };
        let Some((primary, spare)) = heal.policy.fallback else {
            return;
        };
        let failed_over = heal.failed_over;
        let neighbors = self.fabric.neighbors(primary);
        let degree = neighbors.len();
        let dead = neighbors
            .iter()
            .filter(|&&(_, edge)| !self.fabric.edge_live(edge))
            .count();
        let partitioned = dead * 2 > degree;
        if partitioned == failed_over {
            return;
        }
        let at = Ticks(now);
        if partitioned {
            self.active_executor = spare;
            self.nodes[self.commander]
                .trace
                .record(TraceEvent::NodeFailover {
                    at,
                    failed: primary as u16,
                    spare: spare as u16,
                });
            if let Some(heal) = self.heal.as_mut() {
                heal.failed_over = true;
                heal.failovers += 1;
            }
        } else {
            self.active_executor = self.executor;
            self.nodes[self.commander]
                .trace
                .record(TraceEvent::NodeFailback {
                    at,
                    restored: primary as u16,
                });
            if let Some(heal) = self.heal.as_mut() {
                heal.failed_over = false;
                heal.failbacks += 1;
            }
        }
    }

    /// The ground node originates one telecommand per period toward the
    /// executor until the budget closes.
    fn originate_commands(&mut self, now: u64) {
        if self.sent >= self.expected
            || now < CMD_START
            || !(now - CMD_START).is_multiple_of(CMD_PERIOD)
        {
            return;
        }
        let seq = (self.sent & 0x3FFF) as u16;
        self.sent += 1;
        self.cmd_sent_at.push(now);
        let commander = self.commander;
        let executor = self.active_executor as u16;
        let Ok(packet) = SpacePacket::new(
            CMD_APID,
            PacketKind::Tc,
            seq,
            commander as u16,
            executor,
            MESH_TTL,
            0,
            0,
            vec![0xC0],
        ) else {
            return;
        };
        self.nodes[commander].send_or_deliver(&self.router, packet, now);
    }

    /// Drains every inbound link of node `i`: ACK frames feed the ARQ
    /// sender, probe pings are echoed (probe traffic bypasses the ARQ),
    /// data frames pass receiver-side dedup/ordering, delivered
    /// payloads decode into space packets and dispatch (terminal
    /// delivery or forward), and a cumulative ACK goes back per
    /// neighbour that produced one. Every decodable frame is delivery
    /// evidence for the edge's health monitor; the returned transitions
    /// are applied by the caller.
    fn node_receive(&mut self, i: usize, now: u64) -> Vec<(usize, EdgeHealthEvent)> {
        let node = &mut self.nodes[i];
        let fabric = &mut self.fabric;
        let mut inbox: Vec<SpacePacket> = Vec::new();
        let mut transitions: Vec<(usize, EdgeHealthEvent)> = Vec::new();
        for a in 0..node.arqs.len() {
            let peer = node.arqs[a].0;
            let edge = fabric.edge_between(i, peer);
            while let Some(bytes) = fabric.receive_from(i, peer, now) {
                let arq = &mut node.arqs[a].1;
                match Frame::decode(&bytes) {
                    Err(_) => node.corrupt_frames += 1,
                    Ok(frame) if frame.channel == PROBE_CHANNEL => {
                        if frame.payload.first() == Some(&PROBE_PING) {
                            let echo = Frame::new(PROBE_CHANNEL, Ticks(now), vec![PROBE_ECHO]);
                            fabric.send(i, peer, now, echo.encode());
                        }
                        if let Some(edge) = edge {
                            if let Some(event) = fabric.record_edge_delivery(edge) {
                                transitions.push((edge, event));
                            }
                        }
                    }
                    Ok(frame) if frame.is_ack() => {
                        arq.on_ack(frame.link_seq);
                        if let Some(edge) = edge {
                            if let Some(event) = fabric.record_edge_delivery(edge) {
                                transitions.push((edge, event));
                            }
                        }
                    }
                    Ok(frame) => {
                        if let Some(edge) = edge {
                            if let Some(event) = fabric.record_edge_delivery(edge) {
                                transitions.push((edge, event));
                            }
                        }
                        if frame.link_seq == 0 {
                            continue; // unsequenced frames don't ride the mesh
                        }
                        if arq.on_data(&frame) == DataDisposition::Deliver {
                            if let Ok(packet) = SpacePacket::decode(&frame.payload) {
                                inbox.push(packet);
                            } else {
                                node.corrupt_frames += 1;
                            }
                        }
                    }
                }
            }
            if let Some(ack) = node.arqs[a].1.take_ack(Ticks(now)) {
                fabric.send(i, peer, now, ack.encode());
            }
        }
        for packet in inbox {
            self.nodes[i].send_or_deliver(&self.router, packet, now);
        }
        transitions
    }

    /// Runs node `i`'s command-verification state machine: due stage
    /// transitions become trace events and service 1 reports routed back
    /// to the commander.
    fn node_service(&mut self, i: usize, now: u64) {
        let commander = self.commander as u16;
        let router = &self.router;
        let node = &mut self.nodes[i];
        let at = Ticks(now);
        for transition in node.verifier.tick(now) {
            let event = match transition.stage {
                AckStage::Start => TraceEvent::CommandStarted {
                    at,
                    apid: transition.apid,
                    seq: transition.seq,
                },
                AckStage::Completion => TraceEvent::CommandCompleted {
                    at,
                    apid: transition.apid,
                    seq: transition.seq,
                },
                // Acceptance transitions are emitted inline by `deliver`.
                AckStage::Acceptance => continue,
            };
            node.trace.record(event);
            if let Ok(report) = verification_report(transition, node.id, commander, MESH_TTL) {
                node.send_or_deliver(router, report, now);
            }
        }
    }

    /// Polls node `i`'s per-neighbour ARQ senders and puts the produced
    /// frames on the fabric; transport-health events become trace lines
    /// and event telemetry toward the ground node, and each
    /// retransmission round is loss evidence for the edge's health
    /// monitor. The returned transitions are applied by the caller.
    fn node_transmit(&mut self, i: usize, now: u64) -> Vec<(usize, EdgeHealthEvent)> {
        let ground = self.commander as u16;
        let monitored = self.heal.is_some();
        let router = &self.router;
        let node = &mut self.nodes[i];
        let fabric = &mut self.fabric;
        let at = Ticks(now);
        let mut health: Vec<(EventSeverity, Vec<u8>)> = Vec::new();
        let mut outbound: Vec<(usize, Vec<Vec<u8>>)> = Vec::new();
        let mut transitions: Vec<(usize, EdgeHealthEvent)> = Vec::new();
        for (peer, arq) in &mut node.arqs {
            let batch = arq.poll_transmit(now);
            let mut loss_round = false;
            for event in arq.take_events() {
                match event {
                    ArqEvent::Retransmitted { seq, retries } => {
                        node.trace
                            .record(TraceEvent::FrameRetransmitted { at, seq, retries });
                        loss_round = true;
                    }
                    ArqEvent::Exhausted { seq } => {
                        health.push((EventSeverity::High, seq.to_be_bytes().to_vec()));
                        loss_round = true;
                    }
                    ArqEvent::Recovered => {
                        health.push((EventSeverity::Info, Vec::new()));
                    }
                    _ => {}
                }
            }
            if monitored && loss_round {
                if let Some(edge) = fabric.edge_between(i, *peer) {
                    if let Some(event) = fabric.record_edge_loss(edge, now) {
                        transitions.push((edge, event));
                    }
                }
            }
            if !batch.frames.is_empty() {
                outbound.push((*peer, batch.frames));
            }
        }
        for (severity, payload) in health {
            node.publish_event(router, ground, severity, payload, now);
        }
        // Health telemetry may have offered new frames; poll again so
        // they leave this tick when the window allows.
        for (peer, arq) in &mut node.arqs {
            let batch = arq.poll_transmit(now);
            if !batch.frames.is_empty() {
                if let Some(slot) = outbound.iter_mut().find(|(p, _)| p == peer) {
                    slot.1.extend(batch.frames);
                } else {
                    outbound.push((*peer, batch.frames));
                }
            }
        }
        for (peer, frames) in outbound {
            for bytes in frames {
                fabric.send(i, peer, now, bytes);
            }
        }
        transitions
    }

    /// The earliest tick ≥ `now` at which [`Scenario::step`] can change
    /// any state: the minimum over every absolute-time wake source. Every
    /// tick before it is quiet — a step there would only advance the
    /// clock — so [`Scenario::run_for`] jumps straight to it. The sources:
    /// - a future link or partition fault; an armed in-flight link fault
    ///   (due, not yet realised) only while its edge carries a frame;
    /// - a frame delivery on the fabric;
    /// - a dead edge's next probe;
    /// - the next command origination while the budget is open;
    /// - each node's verifier stage and ARQ endpoints.
    ///
    /// The failover quorum reads only edge liveness, which changes only
    /// on the event ticks above.
    fn next_event(&self) -> u64 {
        let now = self.now;
        let edges = self.fabric.edge_count();
        let faults = self.pending.iter().filter_map(|event| {
            if event.at > now {
                return Some(event.at);
            }
            let in_flight_only = matches!(
                event.class,
                FaultClass::LinkDrop | FaultClass::LinkBitFlip | FaultClass::AckLoss
            );
            let idle = in_flight_only
                && edges > 0
                && self
                    .fabric
                    .link(fault_site(event, edges).0)
                    .is_none_or(|link| link.next_delivery().is_none());
            (!idle).then_some(now)
        });
        let partitions = self.pending_partitions.iter().map(|fault| fault.at);
        let command = (self.sent < self.expected).then(|| {
            let k = now.saturating_sub(CMD_START).div_ceil(CMD_PERIOD);
            CMD_START + k * CMD_PERIOD
        });
        let nodes = self.nodes.iter().flat_map(|node| {
            let arqs = node
                .arqs
                .iter()
                .filter_map(move |(_, arq)| arq.next_due(now));
            node.verifier.next_due().into_iter().chain(arqs)
        });
        faults
            .chain(partitions)
            .chain(self.fabric.next_delivery())
            .chain(self.fabric.next_probe())
            .chain(command)
            .chain(nodes)
            .min()
            .map_or(u64::MAX, |at| at.max(now))
    }

    /// Live snapshot of the self-healing layer: per-edge health, the
    /// reroute/park/failover counters, and the current command target.
    /// Mirrors the cluster's `LinkHealth` view at mesh scale.
    pub fn status(&self) -> MeshStatus {
        let edges = self
            .fabric
            .edges()
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| EdgeStatus {
                endpoints: (a, b),
                live: self.fabric.edge_live(i),
                health: self.fabric.edge_health(i),
            })
            .collect();
        let (reroutes, failovers, failbacks) = match &self.heal {
            Some(heal) => (heal.reroutes, heal.failovers, heal.failbacks),
            None => (0, 0, 0),
        };
        MeshStatus {
            edges,
            reroutes,
            failovers,
            failbacks,
            route_rebuilds: self.router.rebuilds(),
            parked: self.nodes.iter().map(|n| n.parked.len() as u64).sum(),
            duplicates_filtered: self.nodes.iter().map(|n| n.duplicates_filtered).sum(),
            active_executor: self.active_executor,
        }
    }

    /// This execution's outcome so far. Its report is empty and
    /// `deterministic` is false: only [`RerouteCampaignRunner`] checks
    /// invariants and re-executes.
    pub fn into_outcome(self) -> RerouteCampaignOutcome {
        self.into_artifacts().outcome
    }

    fn into_artifacts(self) -> MeshArtifacts {
        let mut trace_log = String::new();
        self.render_trace_into(&mut trace_log);
        let executor = &self.nodes[self.executor];
        let commander = &self.nodes[self.commander];
        let delivered_spare = self
            .heal
            .as_ref()
            .and_then(|heal| heal.policy.fallback)
            .map(|(_, spare)| self.nodes[spare].delivered_cmds.clone())
            .unwrap_or_default();
        let parked_cmd_seqs: Vec<u16> = self
            .nodes
            .iter()
            .flat_map(|n| n.parked.iter())
            .filter(|p| matches!(p.kind, PacketKind::Tc) && p.apid == CMD_APID)
            .map(|p| p.seq)
            .collect();
        let (reroutes, failovers, failbacks, edge_downs, edge_ups) = match &self.heal {
            Some(heal) => (
                heal.reroutes,
                heal.failovers,
                heal.failbacks,
                heal.edge_downs,
                heal.edge_ups,
            ),
            None => (0, 0, 0, 0, 0),
        };
        // Observed end-to-end latency samples: each completion report at
        // the commander joined with its command's origination tick.
        let flow_latencies: Vec<u64> = commander
            .completion_arrivals
            .iter()
            .filter_map(|&(seq, at)| {
                self.cmd_sent_at
                    .get(seq as usize)
                    .map(|&sent| at.saturating_sub(sent))
            })
            .collect();
        let outcome = RerouteCampaignOutcome {
            plan: self.plan.clone(),
            report: Report::new(),
            expected: self.expected,
            delivered: executor.delivered_cmds.len() as u64,
            delivered_spare: delivered_spare.len() as u64,
            parked: parked_cmd_seqs.len() as u64,
            acks: commander.acks,
            events_received: commander.events_received,
            retransmissions: self
                .nodes
                .iter()
                .flat_map(|n| n.arqs.iter())
                .map(|(_, arq)| arq.retransmissions())
                .sum(),
            forwarded: self
                .nodes
                .iter()
                .map(|n| {
                    n.trace
                        .events()
                        .iter()
                        .filter(|e| matches!(e, TraceEvent::PacketForwarded { .. }))
                        .count() as u64
                })
                .sum(),
            packets_dropped: self.nodes.iter().map(|n| n.packets_dropped).sum(),
            corrupt_frames: self.nodes.iter().map(|n| n.corrupt_frames).sum(),
            command_hops: self.command_hops(),
            max_observed_latency: flow_latencies.iter().copied().max(),
            latency_samples: flow_latencies.len() as u64,
            duplicates_filtered: self.nodes.iter().map(|n| n.duplicates_filtered).sum(),
            reroutes,
            failovers,
            failbacks,
            edge_downs,
            edge_ups,
            trace_log,
            deterministic: false,
        };
        MeshArtifacts {
            outcome,
            delivered: executor.delivered_cmds.clone(),
            delivered_spare,
            parked_cmd_seqs,
            ttl_drops: self.nodes.iter().map(|n| n.ttl_drops).sum(),
        }
    }
}

impl Scenario for MeshSim {
    type Plan = MeshPlan;

    fn build(plan: &MeshPlan) -> Self {
        Self::new(plan)
    }

    fn build_unchecked(plan: &MeshPlan) -> Self {
        Self::new_unchecked(plan)
    }

    fn planned_horizon(plan: &MeshPlan) -> u64 {
        planned_mesh_horizon(plan)
    }

    /// All nodes run in lockstep.
    fn now(&self) -> u64 {
        self.now
    }

    /// The traffic window plus the drain.
    fn horizon(&self) -> u64 {
        self.end
    }

    /// Due edge faults and partition faults strike first, probes go out
    /// on dead edges, then every node (ascending index) drains its
    /// inbound links, dispatches packets, services its verifier, and
    /// transmits; edge health transitions reroute at the boundary and
    /// the failover quorum is re-evaluated last.
    fn step(&mut self) {
        if self.is_done() {
            return;
        }
        let now = self.now;
        self.realise_due_faults(now);
        self.realise_partition_faults(now);
        self.send_probes(now);
        self.originate_commands(now);
        for i in 0..self.nodes.len() {
            for (edge, event) in self.node_receive(i, now) {
                self.apply_edge_transition(edge, event, i, now);
            }
            self.node_service(i, now);
            for (edge, event) in self.node_transmit(i, now) {
                self.apply_edge_transition(edge, event, i, now);
            }
        }
        self.evaluate_quorum(now);
        self.now += 1;
    }

    /// Next-event time advance: quiet ticks are skipped in one jump to
    /// the earliest tick at which a step can change state, and
    /// [`Scenario::step`] runs only on those event ticks, so the trace and
    /// every counter equal a tick-by-tick run.
    fn run_for(&mut self, n: u64) {
        let target = self.now.saturating_add(n).min(self.end);
        while self.now < target {
            let next = self.next_event();
            if next >= target {
                self.now = target;
                return;
            }
            self.now = next;
            self.step();
        }
    }

    /// Every node's canonical trace log, headed `== node 0 ==`,
    /// `== node 1 ==`, ….
    fn render_trace_into(&self, out: &mut String) {
        use std::fmt::Write;
        for (i, node) in self.nodes.iter().enumerate() {
            let _ = writeln!(out, "== node {i} ==");
            node.trace.render_log_into(out);
        }
    }
}

/// Snapshot of the self-healing layer ([`MeshSim::status`]).
#[derive(Debug, Clone)]
pub struct MeshStatus {
    /// One entry per fabric edge, in sorted edge order.
    pub edges: Vec<EdgeStatus>,
    /// Frames pulled back out of dead-edge ARQ windows so far.
    pub reroutes: u64,
    /// Failovers declared by the quorum heuristic.
    pub failovers: u64,
    /// Failbacks after quorum recovery.
    pub failbacks: u64,
    /// Next-hop rebuilds performed by the router.
    pub route_rebuilds: u64,
    /// Packets currently parked mesh-wide (no live route).
    pub parked: u64,
    /// Terminal deliveries suppressed by the end-to-end dedup filter.
    pub duplicates_filtered: u64,
    /// Where the commander currently addresses telecommands.
    pub active_executor: usize,
}

/// Health of one fabric edge inside a [`MeshStatus`].
#[derive(Debug, Clone, Copy)]
pub struct EdgeStatus {
    /// The edge's `(low, high)` node pair.
    pub endpoints: (usize, usize),
    /// Whether the edge is currently believed live.
    pub live: bool,
    /// The monitor snapshot (`None` when monitors are not installed).
    pub health: Option<EdgeHealth>,
}

/// Everything one faulted mesh execution leaves behind: the outcome
/// (its report still empty) and the sequences the oracle walks.
struct MeshArtifacts {
    outcome: RerouteCampaignOutcome,
    /// Commands delivered at the executor, in arrival order.
    delivered: Vec<u16>,
    /// Commands delivered at the declared spare (fallback plans only).
    delivered_spare: Vec<u16>,
    /// Command seqs still parked anywhere at the horizon.
    parked_cmd_seqs: Vec<u16>,
    /// Packets dropped on TTL expiry.
    ttl_drops: u64,
}

/// The result of one mesh campaign: the invariant report, the delivery,
/// service and self-healing metrics, and the determinism verdict.
#[derive(Debug)]
pub struct RerouteCampaignOutcome {
    /// The executed plan.
    pub plan: MeshPlan,
    /// The reliability-invariant report (empty = all invariants hold).
    pub report: Report,
    /// Telecommands originated by the ground node (the closed budget).
    pub expected: u64,
    /// Telecommands delivered at the primary executor.
    pub delivered: u64,
    /// Telecommands delivered at the declared spare (fallback plans).
    pub delivered_spare: u64,
    /// Command packets still parked mesh-wide at the horizon.
    pub parked: u64,
    /// Frames pulled back out of dead-edge ARQ windows.
    pub reroutes: u64,
    /// Edge-down transitions declared by the health monitors.
    pub edge_downs: u64,
    /// Edge-up (recovery) transitions declared by the health monitors.
    pub edge_ups: u64,
    /// Failovers declared by the quorum heuristic.
    pub failovers: u64,
    /// Failbacks after quorum recovery.
    pub failbacks: u64,
    /// Terminal deliveries suppressed by the end-to-end dedup filter.
    pub duplicates_filtered: u64,
    /// Frames retransmitted by any ARQ sender in the mesh.
    pub retransmissions: u64,
    /// Verification reports received back at the ground node, indexed
    /// acceptance/start/completion.
    pub acks: [u64; 3],
    /// Event-telemetry reports received at the ground node.
    pub events_received: u64,
    /// Per-hop packet relays recorded across all nodes.
    pub forwarded: u64,
    /// Packets discarded (TTL exhaustion, missing routes).
    pub packets_dropped: u64,
    /// Frames rejected by wire-decode integrity.
    pub corrupt_frames: u64,
    /// Hops between commander and executor.
    pub command_hops: u64,
    /// The worst observed end-to-end TC→TM completion latency at the
    /// ground node (`None` when no command completed).
    pub max_observed_latency: Option<u64>,
    /// Number of latency samples behind `max_observed_latency`.
    pub latency_samples: u64,
    /// Concatenated per-node trace logs.
    pub trace_log: String,
    /// Whether re-executing the same plan reproduced the trace log byte
    /// for byte.
    pub deterministic: bool,
}

impl RerouteCampaignOutcome {
    /// Whether every invariant in the report held and the trace log
    /// reproduced.
    pub fn is_ok(&self) -> bool {
        self.report.is_ok() && self.deterministic
    }
}

/// Runs a [`MeshPlan`] twice (the second run is the determinism probe)
/// and checks the delivery invariants: every command delivered
/// **exactly once** across primary and spare, **in order** when the plan
/// has no [`HealPolicy`] (rerouted packets legally overtake parked
/// ones), **eventual redelivery** (full delivery when the plan heals;
/// delivered-or-parked when a partition is permanent), **loop freedom**
/// (zero TTL-expiry drops), complete verification-ack round trips when
/// the plan heals, and a byte-identical re-execution.
///
/// # Examples
///
/// ```
/// use air_core::mesh::{reroute_plan, PartitionScenario, RerouteCampaignRunner};
/// use air_ports::routing::MeshTopology;
///
/// let plan = reroute_plan(MeshTopology::Ring, 6, 7, PartitionScenario::EdgeOutage);
/// let outcome = RerouteCampaignRunner::new(plan).run();
/// assert!(outcome.is_ok(), "{}", outcome.report);
/// ```
#[derive(Debug, Clone)]
pub struct RerouteCampaignRunner {
    plan: MeshPlan,
}

impl RerouteCampaignRunner {
    /// A runner for `plan`.
    pub fn new(plan: MeshPlan) -> Self {
        Self { plan }
    }

    /// Executes the campaign twice and checks every invariant.
    pub fn run(&self) -> RerouteCampaignOutcome {
        let first = execute(&self.plan);
        let second = execute(&self.plan);
        let report = check_invariants(&self.plan, &first);
        RerouteCampaignOutcome {
            report,
            deterministic: first.outcome.trace_log == second.outcome.trace_log,
            ..first.outcome
        }
    }
}

fn execute(plan: &MeshPlan) -> MeshArtifacts {
    let mut sim = MeshSim::new(plan);
    sim.run_to_horizon();
    sim.into_artifacts()
}

/// Verification stage labels, indexed like the ack counters.
const ACK_STAGES: [&str; 3] = ["acceptance", "start", "completion"];

/// The mesh oracle: exactly-once across primary and spare (in order
/// without a heal policy), eventual redelivery, loop freedom, and (for
/// healed plans) complete ack round trips.
fn check_invariants(plan: &MeshPlan, run: &MeshArtifacts) -> Report {
    let mut report = Report::new();
    let expected = run.outcome.expected;
    let heals = plan_heals(plan);
    let delivered = run.delivered.iter().chain(&run.delivered_spare);
    // A healed mesh must eventually redeliver everything; in a permanent
    // partition an undelivered command must at least be parked
    // somewhere, not silently lost.
    let parked = |seq: u64| !heals && run.parked_cmd_seqs.iter().any(|&p| u64::from(p) == seq);
    check_exactly_once(
        delivered.map(|&seq| u64::from(seq)),
        expected,
        plan.heal.is_none(),
        parked,
        &mut report,
    );
    if run.ttl_drops > 0 {
        report.record(Violation::RoutingLoop {
            drops: run.ttl_drops,
        });
    }
    if heals {
        for (stage, &got) in run.outcome.acks.iter().enumerate() {
            if got != expected {
                report.record(Violation::IncompleteAckRoundTrip {
                    stage: ACK_STAGES[stage],
                    got,
                    expected,
                });
            }
        }
    }
    report
}

/// The result of an [`replay_edge_loss`] witness replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeLossReplay {
    /// Telecommands originated.
    pub expected: u64,
    /// Telecommands that reached the executor.
    pub delivered: u64,
    /// Command packets parked mesh-wide at the horizon.
    pub parked: u64,
}

/// Replays an AIR100-style witness on the real transport: a permanent
/// outage on `edge` (sorted-edge-list index) from tick 0, the standard
/// command stream, the standard horizon. With `rerouting` off the mesh
/// keeps offering frames to the dead edge and the witness materialises
/// as concrete undelivered packets; with it on, delivery succeeds
/// whenever the topology minus the edge still connects commander and
/// executor.
pub fn replay_edge_loss(
    topology: MeshTopology,
    nodes: usize,
    edge: usize,
    rerouting: bool,
) -> EdgeLossReplay {
    let plan = MeshPlan {
        topology,
        nodes,
        faults: FaultPlan::generate(0, &[], 0, 150, 400, 37),
        partitions: vec![MeshFault {
            at: 0,
            kind: MeshFaultKind::EdgeDown { edge },
        }],
        heal: rerouting.then(HealPolicy::default),
    };
    let outcome = execute(&plan).outcome;
    EdgeLossReplay {
        expected: outcome.expected,
        delivered: outcome.delivered,
        parked: outcome.parked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_failover_penalty_covers_every_scenario_class() {
        // airlint --timing charges one flat FAILOVER_PENALTY_BUDGET per
        // flow for everything the fault plans can do to an in-flight
        // packet: the ARQ backoff rounds burned before the health
        // monitors declare an edge dead, the remaining outage spent
        // parked, and the probe-recovery streak before traffic re-flows.
        // Recompute that worst case from the real monitor tuning, ARQ
        // schedule and `reroute_plan` fault timings, summed per pulse
        // (sequential accounting over-approximates overlapping pulses),
        // and pin that the budget dominates every scenario class.
        let arq = ArqConfig::default();
        let monitor = HealPolicy::default().monitor;
        let detection: u64 = (0..monitor.down_threshold).map(|r| arq.backoff(r)).sum();
        let recovery = monitor.probe_interval * (u64::from(monitor.recovery_threshold) + 2);
        let per_pulse = detection + recovery;
        // Outage spans straight out of `reroute_plan`: EdgeOutage heals
        // at +350, Flapping pulses 3×90, NodeIsolation heals at +380,
        // HealedPartition's two edges heal at +400 and +430.
        let scenario_worst = [
            350 + per_pulse,
            3 * (90 + per_pulse),
            380 + per_pulse,
            (400 + per_pulse) + (430 + per_pulse),
        ];
        for (scenario, worst) in PartitionScenario::ALL.iter().zip(scenario_worst) {
            assert!(
                worst <= air_lint::FAILOVER_PENALTY_BUDGET,
                "{}: analytic penalty {worst} exceeds the certified budget {}",
                scenario.label(),
                air_lint::FAILOVER_PENALTY_BUDGET,
            );
        }
    }

    #[test]
    fn clean_line_mesh_delivers_and_verifies() {
        let plan = MeshPlan {
            topology: MeshTopology::Line,
            nodes: 5,
            faults: FaultPlan::generate(1, &[], 0, 150, 400, 37),
            partitions: Vec::new(),
            heal: None,
        };
        let outcome = RerouteCampaignRunner::new(plan).run();
        assert!(outcome.is_ok(), "{}", outcome.report);
        assert_eq!(outcome.delivered, outcome.expected);
        assert_eq!(outcome.command_hops, 4);
        assert_eq!(outcome.acks, [outcome.expected; 3]);
        assert!(outcome.forwarded >= outcome.expected * 4);
        assert_eq!(outcome.packets_dropped, 0);
        assert!(outcome.trace_log.contains("CommandAccepted"));
        assert!(outcome.trace_log.contains("CommandStarted"));
        assert!(outcome.trace_log.contains("CommandCompleted"));
        assert!(outcome.trace_log.contains("CommandAckReceived"));
    }

    #[test]
    fn faulted_star_mesh_survives_and_reproduces() {
        let plan = mesh_plan(MeshTopology::Star, 5, 42, 1);
        let outcome = RerouteCampaignRunner::new(plan).run();
        assert!(outcome.is_ok(), "{}", outcome.report);
        assert_eq!(outcome.delivered, outcome.expected);
        assert_eq!(outcome.command_hops, 2);
    }

    #[test]
    fn ring_endpoints_sit_at_least_two_hops_apart() {
        for n in [4usize, 5, 9] {
            let (src, dst) = command_endpoints(MeshTopology::Ring, n);
            let router = LiveRouter::new(n, &MeshTopology::Ring.edges(n));
            assert!(
                hop_count(&router, n, src, dst).unwrap_or(0) >= 2,
                "ring[{n}]"
            );
        }
    }

    #[test]
    fn ring_commands_cross_half_the_ring() {
        // The executor sits at n / 2, so the command path is n / 2 hops
        // whichever way an even ring's tie goes.
        for n in 3..=16usize {
            let sim = MeshSim::new(&mesh_plan(MeshTopology::Ring, n, 1, 0));
            assert_eq!(sim.command_hops(), (n / 2) as u64, "ring[{n}]");
        }
    }

    #[test]
    fn sim_is_steppable_and_idempotent_past_horizon() {
        let plan = mesh_plan(MeshTopology::Line, 3, 9, 1);
        let mut sim = MeshSim::new(&plan);
        let horizon = sim.horizon();
        sim.run_for(0);
        assert_eq!(sim.now(), 0);
        sim.run_for(10);
        assert_eq!(sim.now(), 10);
        sim.run_to_horizon();
        assert_eq!(sim.now(), horizon);
        sim.step();
        sim.run_for(5);
        assert_eq!(
            sim.now(),
            horizon,
            "step and run_for past horizon are no-ops"
        );
        let mut fresh = MeshSim::new(&plan);
        fresh.run_for(u64::MAX);
        assert_eq!(fresh.now(), horizon, "a slice ends at the horizon");
    }

    #[test]
    fn ring_reroutes_around_a_dead_edge_and_delivers_everything() {
        // Ring-6: commander 0, executor 3; the shortest command path
        // 0-1-2-3 crosses edge (1,2) — index 2 of the sorted edge list
        // [(0,1), (0,5), (1,2), (2,3), (3,4), (4,5)].
        let plan = MeshPlan {
            topology: MeshTopology::Ring,
            nodes: 6,
            faults: FaultPlan::generate(1, &[], 0, 150, 400, 37),
            partitions: vec![
                MeshFault {
                    at: 180,
                    kind: MeshFaultKind::EdgeDown { edge: 2 },
                },
                MeshFault {
                    at: 530,
                    kind: MeshFaultKind::EdgeUp { edge: 2 },
                },
            ],
            heal: Some(HealPolicy::default()),
        };
        let outcome = RerouteCampaignRunner::new(plan).run();
        assert!(outcome.is_ok(), "{}", outcome.report);
        assert_eq!(outcome.delivered, outcome.expected);
        assert!(outcome.edge_downs >= 1, "the outage must be declared");
        assert!(outcome.edge_ups >= 1, "the probes must recover the edge");
        assert!(outcome.trace_log.contains("MeshEdgeDown"));
        assert!(outcome.trace_log.contains("MeshEdgeUp"));
        assert_eq!(outcome.acks, [outcome.expected; 3]);
    }

    #[test]
    fn line_outage_parks_and_redelivers_after_heal() {
        // A line has no alternate path: traffic must park at the break
        // and flow again after the heal — eventual redelivery without
        // any detour available.
        let plan = reroute_plan(MeshTopology::Line, 5, 3, PartitionScenario::EdgeOutage);
        let outcome = RerouteCampaignRunner::new(plan).run();
        assert!(outcome.is_ok(), "{}", outcome.report);
        assert_eq!(outcome.delivered, outcome.expected);
        assert_eq!(outcome.parked, 0, "everything unparks after the heal");
    }

    #[test]
    fn every_partition_scenario_holds_the_reroute_invariants() {
        for scenario in PartitionScenario::ALL {
            let plan = reroute_plan(MeshTopology::Ring, 6, 11, scenario);
            let outcome = RerouteCampaignRunner::new(plan).run();
            assert!(outcome.is_ok(), "{}: {}", scenario.label(), outcome.report);
            assert_eq!(
                outcome.delivered,
                outcome.expected,
                "{}: healed scenarios redeliver everything",
                scenario.label()
            );
        }
    }

    #[test]
    fn fallback_promotes_the_spare_when_the_executor_is_cut() {
        let plan = fallback_plan(MeshTopology::Line, 5, 3);
        let outcome = RerouteCampaignRunner::new(plan).run();
        assert!(outcome.is_ok(), "{}", outcome.report);
        assert_eq!(outcome.failovers, 1, "the quorum must promote the spare");
        assert_eq!(outcome.failbacks, 0, "the isolation is permanent");
        assert!(outcome.delivered >= 1, "pre-cut commands reach the primary");
        assert!(
            outcome.delivered_spare >= 1,
            "post-cut commands reach the spare"
        );
        assert!(outcome.trace_log.contains("NodeFailover"));
        assert!(
            outcome.delivered + outcome.delivered_spare <= outcome.expected,
            "no duplicate deliveries across primary and spare"
        );
        assert!(
            outcome.delivered + outcome.delivered_spare + outcome.parked >= outcome.expected,
            "every command is delivered or parked"
        );
    }

    #[test]
    fn edge_loss_replay_distinguishes_static_from_rerouting() {
        // Ring-6, edge (1,2) dead from tick 0: static routing loses the
        // command stream; rerouting delivers all of it the long way.
        let static_run = replay_edge_loss(MeshTopology::Ring, 6, 2, false);
        assert!(
            static_run.delivered < static_run.expected,
            "static routing must strand packets on the dead edge"
        );
        let healed_run = replay_edge_loss(MeshTopology::Ring, 6, 2, true);
        assert_eq!(
            healed_run.delivered, healed_run.expected,
            "rerouting must deliver around the dead edge"
        );
    }

    #[test]
    fn mesh_status_reports_edge_health_and_counters() {
        // Target edge (1,2) — index 2 — which carries the command path,
        // so the outage is guaranteed to be detected.
        let plan = MeshPlan {
            topology: MeshTopology::Ring,
            nodes: 6,
            faults: FaultPlan::generate(1, &[], 0, 150, 400, 37),
            partitions: vec![
                MeshFault {
                    at: 180,
                    kind: MeshFaultKind::EdgeDown { edge: 2 },
                },
                MeshFault {
                    at: 530,
                    kind: MeshFaultKind::EdgeUp { edge: 2 },
                },
            ],
            heal: Some(HealPolicy::default()),
        };
        let mut sim = MeshSim::new(&plan);
        let before = sim.status();
        assert_eq!(before.edges.len(), 6);
        assert!(before.edges.iter().all(|e| e.live));
        assert!(before.edges.iter().all(|e| e.health.is_some()));
        sim.run_to_horizon();
        let after = sim.status();
        assert!(after.edges.iter().all(|e| e.live), "the outage healed");
        assert!(after.route_rebuilds >= 2, "down + up rebuild the tables");
        // Legacy sims have no monitors and report no heal activity.
        let legacy = MeshSim::new(&mesh_plan(MeshTopology::Line, 3, 9, 0));
        let status = legacy.status();
        assert!(status.edges.iter().all(|e| e.health.is_none()));
        assert_eq!(status.route_rebuilds, 0);
    }
}
