//! Interpartition communication between **physically separated**
//! partitions (Sect. 2.1).
//!
//! "For physically separated partitions, this implies data transmission
//! through a communication infrastructure" — here, two onboard-computer
//! nodes joined by the deterministic inter-node link. Node A runs the
//! data producer; node B runs the consumer. The channel is configured as
//! `Remote` on A and terminates locally on B; the PMK carries the frames
//! (with integrity checking) and the APEX applications never notice the
//! difference — the location-agnosticism the paper requires.
//!
//! This example drives the two PMK IPC instances directly over one link,
//! including a lossy-link episode showing corrupt/dropped-frame handling.
//!
//! ```text
//! cargo run --example remote_partitions
//! ```

use air_hw::link::LinkEndpoint;
use air_hw::redundant::RedundantLink;
use air_model::{PartitionId, Ticks};
use air_pmk::PmkIpc;
use air_ports::{ChannelConfig, Destination, PortAddr, PortRegistry, QueuingPortConfig};

const NODE_A_OBDH: PartitionId = PartitionId(0);
const NODE_B_GROUND_IF: PartitionId = PartitionId(0);
const CHANNEL: u32 = 42;

fn node_a() -> PmkIpc {
    let mut reg = PortRegistry::new();
    reg.create_queuing_port(NODE_A_OBDH, QueuingPortConfig::source("tm-tx", 128, 16))
        .expect("fresh registry");
    reg.add_channel(ChannelConfig {
        id: CHANNEL,
        source: PortAddr::new(NODE_A_OBDH, "tm-tx"),
        destinations: vec![Destination::Remote {
            addr: PortAddr::new(NODE_B_GROUND_IF, "tm-rx"),
        }],
    })
    .expect("valid channel");
    PmkIpc::with_registry(reg)
}

fn node_b() -> PmkIpc {
    let mut reg = PortRegistry::new();
    // The channel table is global integration data: node B knows channel
    // 42 terminates at its ground-interface partition.
    reg.create_queuing_port(
        PartitionId(9),
        QueuingPortConfig::source("placeholder-src", 128, 1),
    )
    .expect("fresh registry");
    reg.create_queuing_port(
        NODE_B_GROUND_IF,
        QueuingPortConfig::destination("tm-rx", 128, 16),
    )
    .expect("fresh registry");
    reg.add_channel(ChannelConfig {
        id: CHANNEL,
        source: PortAddr::new(PartitionId(9), "placeholder-src"),
        destinations: vec![Destination::Local(PortAddr::new(NODE_B_GROUND_IF, "tm-rx"))],
    })
    .expect("valid channel");
    PmkIpc::with_registry(reg)
}

fn main() {
    // 5-tick propagation delay; no failover in this single-link demo.
    let mut link = RedundantLink::new(5, 5, 0, 1_000_000);
    let mut a = node_a();
    let mut b = node_b();

    // Phase 1: clean transfer of 10 telemetry frames.
    for seq in 0..10u32 {
        let t = Ticks(u64::from(seq) * 10);
        a.registry_mut()
            .queuing_port_mut(NODE_A_OBDH, "tm-tx")
            .unwrap()
            .send(format!("TM frame {seq}").into_bytes(), t)
            .unwrap();
        a.route(&mut link, t);
    }

    // The receiving node polls its end of the link. (In the one-node
    // simulator this is wired through the machine's Link interrupt; here
    // we poll explicitly for both directions of the demo.)
    let mut received = Vec::new();
    for t in 0..200u64 {
        // Shuttle endpoint-B deliveries into a receive-side link so node
        // B's PMK (which reads endpoint A of *its* link) sees them.
        while let Some(bytes) = link.receive(LinkEndpoint::B, t) {
            let mut inbound = RedundantLink::new(0, 0, 0, 1_000_000);
            inbound.send(LinkEndpoint::B, t, bytes);
            let errors = b.receive(&mut inbound, Ticks(t));
            assert!(errors.is_empty(), "{errors:?}");
        }
        while let Ok(msg) = b
            .registry_mut()
            .queuing_port_mut(NODE_B_GROUND_IF, "tm-rx")
            .unwrap()
            .receive()
        {
            let latency = t - msg.written_at.as_u64();
            received.push((String::from_utf8_lossy(&msg.payload).into_owned(), latency));
        }
    }
    println!("phase 1: {} frames received", received.len());
    for (text, latency) in &received {
        println!("  {text} (link latency {latency} ticks)");
    }
    assert_eq!(received.len(), 10);
    assert!(
        received.iter().all(|(_, l)| *l >= 5),
        "latency >= link delay"
    );

    // Phase 2: a degraded link dropping every 3rd frame.
    link.set_drop_every(3);
    for seq in 10..16u32 {
        let t = Ticks(1000 + u64::from(seq));
        a.registry_mut()
            .queuing_port_mut(NODE_A_OBDH, "tm-tx")
            .unwrap()
            .send(format!("TM frame {seq}").into_bytes(), t)
            .unwrap();
        a.route(&mut link, t);
    }
    let mut phase2 = 0;
    for t in 1000..1200u64 {
        while let Some(bytes) = link.receive(LinkEndpoint::B, t) {
            let mut inbound = RedundantLink::new(0, 0, 0, 1_000_000);
            inbound.send(LinkEndpoint::B, t, bytes);
            b.receive(&mut inbound, Ticks(t));
        }
        while b
            .registry_mut()
            .queuing_port_mut(NODE_B_GROUND_IF, "tm-rx")
            .unwrap()
            .receive()
            .is_ok()
        {
            phase2 += 1;
        }
    }
    println!(
        "phase 2 (lossy link): sent 6, received {phase2}, link dropped {}",
        link.dropped()
    );
    assert_eq!(phase2, 4);
    assert_eq!(link.dropped(), 2);

    // Phase 3: a corrupted frame is rejected, never delivered.
    let mut inbound = RedundantLink::new(0, 0, 0, 1_000_000);
    let mut bytes = air_ports::wire::Frame::new(CHANNEL, Ticks(2000), &b"tampered"[..]).encode();
    bytes[6] ^= 0x40;
    inbound.send(LinkEndpoint::B, 2000, bytes);
    let errors = b.receive(&mut inbound, Ticks(2000));
    println!("phase 3: corrupt frame -> {errors:?}");
    assert_eq!(errors.len(), 1);
    assert_eq!(b.frames_rejected(), 1);

    println!("remote_partitions OK");
}
