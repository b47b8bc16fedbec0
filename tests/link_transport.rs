//! The reliable transport over the cluster link: retransmission, duplicate
//! suppression, failover and the degraded-mode handshake, end to end.

use air_core::cluster::{AirCluster, Node};
use air_core::link_campaign::{link_plan, LinkCampaignRunner};
use air_core::trace::TraceEvent;
use air_core::workload::{QueuingConsumer, QueuingProducer};
use air_core::{PartitionConfig, ProcessConfig, SystemBuilder};
use air_hw::inject::FaultPlan;
use air_hw::link::LinkEndpoint;
use air_hw::redundant::LinkRole;
use air_model::process::{Deadline, Priority, ProcessAttributes, Recurrence};
use air_model::schedule::{PartitionRequirement, Schedule, TimeWindow};
use air_model::{Partition, PartitionId, ScheduleId, ScheduleSet, Ticks};
use air_ports::{ChannelConfig, Destination, PortAddr, QueuingPortConfig};

const P0: PartitionId = PartitionId(0);
const TM_CHANNEL: u32 = 50;

fn mono_schedule() -> ScheduleSet {
    ScheduleSet::new(vec![Schedule::new(
        ScheduleId(0),
        "mono",
        Ticks(100),
        vec![PartitionRequirement::new(P0, Ticks(100), Ticks(100))],
        vec![TimeWindow::new(P0, Ticks(0), Ticks(100))],
    )])
}

fn sender_node() -> air_core::AirSystem {
    SystemBuilder::new(mono_schedule())
        .with_partition(
            PartitionConfig::new(Partition::new(P0, "OBDH"))
                .with_queuing_port(QueuingPortConfig::source("tm", 64, 8))
                .with_process(ProcessConfig::new(
                    ProcessAttributes::new("telemetry")
                        .with_recurrence(Recurrence::Periodic(Ticks(100)))
                        .with_deadline(Deadline::relative(Ticks(100)))
                        .with_base_priority(Priority(1)),
                    QueuingProducer::new("tm"),
                )),
        )
        .with_channel(ChannelConfig {
            id: TM_CHANNEL,
            source: PortAddr::new(P0, "tm"),
            destinations: vec![Destination::Remote {
                addr: PortAddr::new(P0, "tm"),
            }],
        })
        .build()
        .unwrap()
}

fn receiver_node() -> air_core::AirSystem {
    SystemBuilder::new(mono_schedule())
        .with_partition(
            PartitionConfig::new(Partition::new(P0, "GROUND-IF"))
                .with_queuing_port(QueuingPortConfig::destination("tm", 64, 8))
                .with_process(ProcessConfig::new(
                    ProcessAttributes::new("downlink")
                        .with_recurrence(Recurrence::Periodic(Ticks(100)))
                        .with_deadline(Deadline::relative(Ticks(100)))
                        .with_base_priority(Priority(1)),
                    QueuingConsumer::new("tm"),
                )),
        )
        .with_channel(ChannelConfig {
            id: TM_CHANNEL,
            source: PortAddr::new(P0, "tm-remote-source"),
            destinations: vec![Destination::Local(PortAddr::new(P0, "tm"))],
        })
        .build()
        .unwrap()
}

/// A dropped telemetry frame is retransmitted and still arrives in order —
/// and the retransmission is visible in the sender's trace.
#[test]
fn dropped_frame_is_repaired_in_order() {
    let mut cluster = AirCluster::new(sender_node(), receiver_node()).expect("lockstep");
    cluster.run_for(250);
    // Destroy the newest frame inbound to B (second hop).
    let mut dropped = false;
    for _ in 0..400 {
        cluster.step();
        if !dropped {
            dropped = cluster.node_mut(Node::B).machine_mut().inject_link_drop();
        }
    }
    assert!(dropped, "a frame was in flight to drop");
    cluster.run_for(800);

    let health = cluster.link_health(Node::A);
    assert!(health.retransmissions > 0, "{health:?}");
    assert!(cluster
        .node(Node::A)
        .trace()
        .events()
        .iter()
        .any(|e| matches!(e, TraceEvent::FrameRetransmitted { .. })));

    let console = cluster.node(Node::B).console_of(P0).to_owned();
    let indices: Vec<usize> = console
        .lines()
        .filter_map(|l| l.strip_prefix("rx frame-")?.parse().ok())
        .collect();
    assert!(!indices.is_empty());
    for pair in indices.windows(2) {
        assert_eq!(pair[0] + 1, pair[1], "out of order: {indices:?}");
    }
}

/// Destroying acknowledgements forces retransmissions whose duplicates the
/// receiver suppresses: the consumer still sees each frame exactly once.
#[test]
fn lost_acks_never_duplicate_delivery() {
    use air_ports::wire::bytes_look_like_ack;
    let mut cluster = AirCluster::new(sender_node(), receiver_node()).expect("lockstep");
    let mut acks_killed = 0;
    for _ in 0..1500 {
        cluster.step();
        if acks_killed < 3
            && cluster
                .node_mut(Node::B)
                .machine_mut()
                .link
                .drop_in_flight_where(LinkEndpoint::B, bytes_look_like_ack)
        {
            acks_killed += 1;
        }
    }
    assert!(
        acks_killed > 0,
        "acknowledgements were in flight to destroy"
    );
    cluster.run_for(600);

    let health_b = cluster.link_health(Node::B);
    assert!(health_b.duplicates_suppressed > 0, "{health_b:?}");
    let console = cluster.node(Node::B).console_of(P0).to_owned();
    let indices: Vec<usize> = console
        .lines()
        .filter_map(|l| l.strip_prefix("rx frame-")?.parse().ok())
        .collect();
    for pair in indices.windows(2) {
        assert_eq!(pair[0] + 1, pair[1], "duplicate or gap: {indices:?}");
    }
}

/// The full campaign: a seeded single-link fault plan cannot lose, double
/// or reorder a message; outages fail over and enter/exit degraded mode.
#[test]
fn campaign_survives_a_seeded_link_fault_plan() {
    let outcome = LinkCampaignRunner::new(link_plan(42, 1)).run();
    assert!(outcome.is_ok(), "{}", outcome.report);
    assert_eq!(outcome.delivered, outcome.expected);
    assert!(outcome.failovers > 0);
    assert!(outcome.degraded_entries > 0);
    assert!(outcome.recovery_latency.is_some());
}

/// A clean cluster run never retransmits and never fails over.
#[test]
fn clean_cluster_run_is_quiet() {
    let outcome = LinkCampaignRunner::new(FaultPlan::empty()).run();
    assert!(outcome.is_ok(), "{}", outcome.report);
    assert_eq!(outcome.retransmissions, 0);
    assert_eq!(outcome.failovers, 0);
    assert_eq!(outcome.degraded_entries, 0);
}

/// Failover is observable through the cluster's health counters: after a
/// sustained outage node A runs on the secondary adapter.
#[test]
fn outage_moves_traffic_to_the_secondary_adapter() {
    let mut a = sender_node();
    a.set_degraded_schedule(ScheduleId(0));
    let mut cluster = AirCluster::new(a, receiver_node()).expect("lockstep");
    cluster.run_for(150);
    cluster
        .node_mut(Node::A)
        .machine_mut()
        .inject_link_outage(500);
    cluster.run_for(600);
    let health = cluster.link_health(Node::A);
    assert!(health.failovers > 0, "{health:?}");
    assert!(cluster
        .node(Node::A)
        .trace()
        .events()
        .iter()
        .any(|e| matches!(
            e,
            TraceEvent::LinkFailover {
                to: LinkRole::Secondary,
                ..
            }
        )));
    // After the probation the link reverts to the repaired primary.
    cluster.run_for(1500);
    let health = cluster.link_health(Node::A);
    assert_eq!(health.active, LinkRole::Primary, "{health:?}");
    assert!(health.reverts > 0, "{health:?}");
}
