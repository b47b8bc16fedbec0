//! Interpartition communication flows through the full system: sampling
//! and queuing semantics, message timing, overflow behaviour, and the
//! location-agnosticism of the APEX services (Sect. 2.1).

use air_core::prototype::ids::{P1, P2, P3, P4};
use air_core::prototype::PrototypeHarness;
use air_hw::link::LinkEndpoint;
use air_model::prototype::MTF;
use air_model::Ticks;
use air_ports::wire::Frame;
use air_ports::{ChannelConfig, Destination, PortAddr, QueuingPortConfig};

const M: u64 = MTF.as_u64();

#[test]
fn telemetry_queue_carries_every_frame_in_order() {
    let mut proto = PrototypeHarness::build();
    proto.system.run_for(6 * M);
    let console = proto.system.console_of(P3);
    // OBDH produces one frame per 650-tick activation; TTC drains them in
    // order. 6 MTFs = 12 activations; allow pipeline latency at the tail.
    let received: Vec<&str> = console
        .lines()
        .filter(|l| l.starts_with("rx frame-"))
        .collect();
    assert!(received.len() >= 10, "{console}");
    for (i, line) in received.iter().enumerate() {
        assert_eq!(*line, format!("rx frame-{i}"), "FIFO order");
    }
}

#[test]
fn sampling_consumer_sees_fresh_attitude_every_mtf() {
    let mut proto = PrototypeHarness::build();
    proto.system.run_for(5 * M);
    let console = proto.system.console_of(P4);
    // Each MTF, the payload reads the attitude written in the same MTF —
    // age < refresh period (1300) ⇒ Valid.
    let valid = console.matches("Valid").count();
    let invalid = console.matches("Invalid").count();
    assert!(valid >= 4, "{console}");
    assert_eq!(invalid, 0, "{console}");
    // Sequence numbers advance.
    assert!(console.contains("read seq=0"));
    assert!(console.contains("read seq=3"));
}

#[test]
fn staleness_is_reported_when_the_producer_dies() {
    // Stop the AOCS control process: the payload keeps reading the last
    // attitude message, which goes Invalid once older than the refresh
    // period.
    let mut proto = PrototypeHarness::build();
    proto.system.run_for(2 * M);
    let control = proto
        .system
        .partition(P1)
        .process_id("aocs-control")
        .unwrap();
    proto.system.partition_mut(P1).stop(control).unwrap();
    proto.system.run_for(3 * M);
    let console = proto.system.console_of(P4);
    assert!(console.contains("Invalid"), "{console}");
}

#[test]
fn queue_overflow_is_contained_and_counted() {
    // Stop the TTC consumer: OBDH keeps producing into the 8-deep channel
    // until the destination fills; overflows are counted, nothing crashes,
    // and no deadlines are missed anywhere.
    let mut proto = PrototypeHarness::build();
    proto.system.run_for(M);
    let downlink = proto
        .system
        .partition(P3)
        .process_id("ttc-downlink")
        .unwrap();
    proto.system.partition_mut(P3).stop(downlink).unwrap();
    proto.system.run_for(10 * M);
    let dropped = proto.system.ipc_mut().registry().dropped_deliveries();
    assert!(dropped > 0, "destination queue must have overflowed");
    assert_eq!(proto.system.trace().deadline_miss_count(), 0);
}

#[test]
fn messages_carry_source_timestamps_end_to_end() {
    let mut proto = PrototypeHarness::build();
    proto.system.run_for(2 * M);
    // Read the attitude sampling port directly: its written_at must be the
    // AOCS write instant (inside P1's window of some MTF), not the routing
    // or read instant.
    let (msg, _) = proto
        .system
        .ipc_mut()
        .registry_mut()
        .sampling_port_mut(P4, "att-in")
        .unwrap()
        .read(Ticks(2 * M))
        .unwrap();
    let phase = msg.written_at.as_u64() % M;
    assert!(phase < 200, "written inside P1's window, got phase {phase}");
}

#[test]
fn remote_channel_frames_leave_on_the_link() {
    // Add a remote destination channel to a fresh prototype-like system:
    // frames appear on the machine link, with valid wire encoding.
    let mut proto = PrototypeHarness::build();
    {
        let reg = proto.system.ipc_mut().registry_mut();
        reg.create_queuing_port(P2, QueuingPortConfig::source("gs-tx", 64, 8))
            .unwrap();
        reg.add_channel(ChannelConfig {
            id: 77,
            source: PortAddr::new(P2, "gs-tx"),
            destinations: vec![Destination::Remote {
                addr: PortAddr::new(P2, "gs-rx"),
            }],
        })
        .unwrap();
        reg.queuing_port_mut(P2, "gs-tx")
            .unwrap()
            .send(&b"ground frame"[..], Ticks(0))
            .unwrap();
    }
    // Run past the next partition boundary so the PMK routes.
    proto.system.run_for(250);
    let now = proto.system.now().as_u64();
    let bytes = proto
        .system
        .machine_mut()
        .link
        .receive(LinkEndpoint::B, now + 100)
        .expect("a frame must have been transmitted");
    let frame = Frame::decode(&bytes).expect("well-formed wire frame");
    assert_eq!(frame.channel, 77);
    assert_eq!(&frame.payload[..], b"ground frame");
}

#[test]
fn incoming_link_frames_are_delivered_into_local_ports() {
    let mut proto = PrototypeHarness::build();
    // Wire a channel whose local destination is P3's existing queue... use
    // a dedicated inbound channel instead.
    {
        let reg = proto.system.ipc_mut().registry_mut();
        reg.create_queuing_port(P2, QueuingPortConfig::source("unused-src", 64, 1))
            .unwrap();
        reg.create_queuing_port(P4, QueuingPortConfig::destination("gs-in", 64, 8))
            .unwrap();
        reg.add_channel(ChannelConfig {
            id: 88,
            source: PortAddr::new(P2, "unused-src"),
            destinations: vec![Destination::Local(PortAddr::new(P4, "gs-in"))],
        })
        .unwrap();
    }
    // A remote peer sends a frame for channel 88.
    let frame = Frame::new(88, Ticks(5), &b"uplink command"[..]);
    proto
        .system
        .machine_mut()
        .link
        .send(LinkEndpoint::B, 0, frame.encode());
    proto.system.run_for(300); // the Link interrupt fires and delivers
    let msg = proto
        .system
        .ipc_mut()
        .registry_mut()
        .queuing_port_mut(P4, "gs-in")
        .unwrap()
        .receive()
        .unwrap();
    assert_eq!(&msg.payload[..], b"uplink command");
    assert_eq!(msg.written_at, Ticks(5), "source timestamp preserved");
    assert_eq!(proto.system.ipc_mut().frames_received(), 1);
}

#[test]
fn corrupt_link_frame_is_rejected_and_reported() {
    let mut proto = PrototypeHarness::build();
    let mut bytes = Frame::new(1, Ticks(0), &b"zap"[..]).encode();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    proto
        .system
        .machine_mut()
        .link
        .send(LinkEndpoint::B, 0, bytes);
    proto.system.run_for(10);
    assert_eq!(proto.system.ipc_mut().frames_rejected(), 1);
    assert_eq!(
        proto
            .system
            .hm()
            .log()
            .entries_for(air_hm::ErrorId::HardwareFault)
            .count(),
        1
    );
}
