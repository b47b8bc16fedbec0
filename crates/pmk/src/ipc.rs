//! PMK-side interpartition transport.
//!
//! "Applications access the interpartition communication services through
//! the APEX interface… The AIR PMK deals with these specifics, being
//! obliged to message delivery guarantees" (Sect. 2.1). The transport
//! drives the [`PortRegistry`] router at partition boundaries, carries
//! remote frames over the machine's [`RedundantLink`], validates incoming
//! frames, and reports corrupt ones to health monitoring instead of
//! delivering them.
//!
//! With the reliable transport enabled
//! ([`PmkIpc::enable_reliable_transport`]), every outbound frame goes
//! through a go-back-N [`ArqEndpoint`]: sequenced, acknowledged
//! cumulatively, retransmitted on deterministic timeouts — and each
//! timeout round feeds the redundant link's consecutive-loss counter, so
//! sustained loss fails traffic over to the standby link and surfaces as
//! [`LinkTransportEvent`]s for the trace and health monitoring.

use air_hw::link::LinkEndpoint;
use air_hw::redundant::{LinkRole, RedundantLink};
use air_hw::Machine;
use air_model::Ticks;
use air_ports::transport::{ArqConfig, ArqEndpoint, ArqEvent, DataDisposition};
use air_ports::wire::{Frame, FrameError};
use air_ports::{PortError, PortRegistry};

/// The PMK interpartition-communication component.
#[derive(Debug, Default)]
pub struct PmkIpc {
    registry: PortRegistry,
    /// Reused frame scratch for the tick-path route: reaches its
    /// steady-state capacity once, then routing allocates nothing.
    frames: Vec<Frame>,
    frames_sent: u64,
    frames_received: u64,
    frames_rejected: u64,
    /// Highest sequence number seen on an incoming sequenced frame.
    last_seq_seen: u64,
    sequence_gaps: u64,
    /// The reliable-transport endpoint; `None` keeps the legacy
    /// best-effort behaviour (detection without recovery).
    arq: Option<ArqEndpoint>,
    /// Transport events pending collection by the simulation loop.
    transport_events: Vec<LinkTransportEvent>,
}

impl PmkIpc {
    /// Creates a transport over an empty port registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a transport over a pre-wired registry.
    pub fn with_registry(registry: PortRegistry) -> Self {
        Self {
            registry,
            ..Self::default()
        }
    }

    /// The port registry (APEX port services go through here).
    pub fn registry(&self) -> &PortRegistry {
        &self.registry
    }

    /// Mutable port-registry access for the APEX services.
    pub fn registry_mut(&mut self) -> &mut PortRegistry {
        &mut self.registry
    }

    /// Link frames transmitted (first transmissions; retransmissions are
    /// counted separately by [`PmkIpc::retransmissions`]).
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent
    }

    /// Link frames received and delivered.
    pub fn frames_received(&self) -> u64 {
        self.frames_received
    }

    /// Link frames rejected (corruption / unknown channel).
    pub fn frames_rejected(&self) -> u64 {
        self.frames_rejected
    }

    /// Switches the transport to reliable delivery: go-back-N ARQ with
    /// the given tuning. Outbound frames are sequenced and retransmitted
    /// until acknowledged; inbound frames are filtered to an exactly-once
    /// in-order stream; timeout rounds feed the redundant link's failover
    /// counter.
    pub fn enable_reliable_transport(&mut self, config: ArqConfig) {
        self.arq = Some(ArqEndpoint::new(config));
    }

    /// Whether the reliable transport is active.
    pub fn reliable_transport_enabled(&self) -> bool {
        self.arq.is_some()
    }

    /// The ARQ tuning, when the reliable transport is active.
    pub fn arq_config(&self) -> Option<&ArqConfig> {
        self.arq.as_ref().map(ArqEndpoint::config)
    }

    /// Sequence gaps observed on incoming sequenced frames — each one is
    /// evidence of frames lost in transit (legacy detection-only path).
    pub fn sequence_gaps(&self) -> u64 {
        self.sequence_gaps
    }

    /// Frames retransmitted by the reliable transport.
    pub fn retransmissions(&self) -> u64 {
        self.arq.as_ref().map_or(0, ArqEndpoint::retransmissions)
    }

    /// Inbound duplicate frames suppressed by the reliable transport.
    pub fn duplicates_suppressed(&self) -> u64 {
        self.arq.as_ref().map_or(0, ArqEndpoint::duplicates)
    }

    /// Inbound out-of-order frames discarded by the reliable transport
    /// (go-back-N redelivers them in order).
    pub fn out_of_order_discarded(&self) -> u64 {
        self.arq.as_ref().map_or(0, ArqEndpoint::out_of_order)
    }

    /// Acknowledgement frames sent by the reliable transport.
    pub fn acks_sent(&self) -> u64 {
        self.arq.as_ref().map_or(0, ArqEndpoint::acks_sent)
    }

    /// Whether every frame offered to the reliable transport has been
    /// acknowledged (vacuously true without ARQ).
    pub fn transport_drained(&self) -> bool {
        self.arq.as_ref().is_none_or(ArqEndpoint::is_drained)
    }

    /// Drains the transport events (retransmissions, failovers, recovery)
    /// recorded since the last call, in occurrence order.
    pub fn take_transport_events(&mut self) -> Vec<LinkTransportEvent> {
        std::mem::take(&mut self.transport_events)
    }

    /// Routes pending messages: local deliveries happen inside the
    /// registry; remote frames are encoded and transmitted on `link`.
    /// Called by the PMK at partition preemption points — transfers happen
    /// at partition boundaries, outside any partition's window.
    pub fn route(&mut self, link: &mut RedundantLink, now: Ticks) {
        if self.arq.is_some() && link.poll_revert(now.as_u64()) {
            self.transport_events.push(LinkTransportEvent::Failover {
                to: LinkRole::Primary,
            });
        }
        self.registry.route_into(now, &mut self.frames);
        for frame in self.frames.drain(..) {
            if let Some(arq) = &mut self.arq {
                arq.offer(frame);
                self.frames_sent += 1;
                continue;
            }
            link.send(LinkEndpoint::A, now.as_u64(), frame.encode());
            self.frames_sent += 1;
        }
        let Some(arq) = &mut self.arq else {
            return;
        };
        let batch = arq.poll_transmit(now.as_u64());
        if batch.timeout_round {
            // One timeout round = one unit of loss evidence. Failover
            // happens *before* the retransmissions leave, so the round
            // that trips the threshold already travels the standby link.
            if let Some(active) = link.record_loss(now.as_u64()) {
                arq.mark_degraded();
                self.transport_events
                    .push(LinkTransportEvent::Failover { to: active });
            }
        }
        for bytes in batch.frames {
            link.send(LinkEndpoint::A, now.as_u64(), bytes);
        }
        self.collect_arq_events();
    }

    /// Drains deliverable frames from `link`, decoding and delivering each
    /// to its local destination ports. Corrupt or unroutable frames are
    /// counted and returned for health-monitoring reporting.
    pub fn receive(&mut self, link: &mut RedundantLink, now: Ticks) -> Vec<IncomingFrameError> {
        let mut errors = Vec::new();
        while let Some(bytes) = link.receive(LinkEndpoint::A, now.as_u64()) {
            match Frame::decode(&bytes) {
                Ok(frame) => self.accept_frame(frame, link, now, &mut errors),
                Err(e) => {
                    // Corruption burns the frame; with ARQ the receiver
                    // never advances, so the sender's timeout redelivers.
                    self.frames_rejected += 1;
                    errors.push(IncomingFrameError::Corrupt(e));
                }
            }
        }
        if let Some(arq) = &mut self.arq {
            if let Some(ack) = arq.take_ack(now) {
                link.send(LinkEndpoint::A, now.as_u64(), ack.encode());
            }
        }
        self.collect_arq_events();
        errors
    }

    fn accept_frame(
        &mut self,
        frame: Frame,
        link: &mut RedundantLink,
        now: Ticks,
        errors: &mut Vec<IncomingFrameError>,
    ) {
        if let Some(arq) = &mut self.arq {
            if frame.is_ack() {
                if arq.on_ack(frame.link_seq) > 0 {
                    link.record_delivery();
                }
                return;
            }
            if frame.link_seq != 0 {
                match arq.on_data(&frame) {
                    DataDisposition::Deliver => {}
                    DataDisposition::Duplicate | DataDisposition::OutOfOrder => return,
                }
                self.deliver(&frame, now, errors);
                return;
            }
            // Unsequenced sender against a reliable receiver: deliver
            // best-effort (and let the lint warn about the sender).
            self.deliver(&frame, now, errors);
            return;
        }
        // Legacy path: gap detection without recovery. A jump in the
        // sequence stream means frames vanished in transit; the carrying
        // frame is still good and is delivered, the gap itself goes to
        // health monitoring. Unsequenced frames (seq 0) are exempt.
        if frame.link_seq != 0 {
            let expected = self.last_seq_seen + 1;
            if frame.link_seq > expected {
                self.sequence_gaps += 1;
                errors.push(IncomingFrameError::SequenceGap {
                    expected,
                    got: frame.link_seq,
                });
            }
            if frame.link_seq >= expected {
                self.last_seq_seen = frame.link_seq;
            }
        }
        self.deliver(&frame, now, errors);
    }

    fn deliver(&mut self, frame: &Frame, now: Ticks, errors: &mut Vec<IncomingFrameError>) {
        match self.registry.deliver_frame(frame, now) {
            Ok(()) => self.frames_received += 1,
            Err(e) => {
                self.frames_rejected += 1;
                errors.push(IncomingFrameError::Unroutable(e));
            }
        }
    }

    fn collect_arq_events(&mut self) {
        let Some(arq) = &mut self.arq else {
            return;
        };
        for event in arq.take_events() {
            self.transport_events.push(match event {
                ArqEvent::Retransmitted { seq, retries } => {
                    LinkTransportEvent::Retransmitted { seq, retries }
                }
                ArqEvent::Exhausted { seq } => LinkTransportEvent::DeliveryExhausted { seq },
                ArqEvent::Recovered => LinkTransportEvent::Recovered,
                // `ArqEvent` is non-exhaustive; unknown future events are
                // not the PMK's to interpret.
                _ => continue,
            });
        }
    }

    /// Convenience: one full transport round against a machine — route
    /// outgoing, then receive incoming.
    pub fn service(&mut self, machine: &mut Machine) -> Vec<IncomingFrameError> {
        let now = Ticks(machine.clock.now());
        self.route(&mut machine.link, now);
        self.receive(&mut machine.link, now)
    }
}

/// A reliable-transport occurrence the simulation loop turns into trace
/// events and health-monitoring reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum LinkTransportEvent {
    /// A timeout round retransmitted the in-flight window.
    Retransmitted {
        /// Sequence of the window head.
        seq: u64,
        /// Its retry count after this round.
        retries: u32,
    },
    /// The redundant link switched its active side (threshold failover,
    /// or revertive switching back to the primary).
    Failover {
        /// The newly active role.
        to: LinkRole,
    },
    /// A degraded transport saw a clean acknowledgement streak and is
    /// healthy again.
    Recovered,
    /// A frame exhausted its retry budget without acknowledgement — the
    /// link is effectively down (retries continue at the capped
    /// interval).
    DeliveryExhausted {
        /// Sequence of the starved frame.
        seq: u64,
    },
}

/// A problem with an incoming link frame, reported to health monitoring
/// as a (module-level) hardware/communication fault.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IncomingFrameError {
    /// The frame failed integrity checks.
    Corrupt(FrameError),
    /// The frame decoded but no local channel/destination accepts it.
    Unroutable(PortError),
    /// The sequence stream jumped: frames between `expected` and `got`
    /// were lost in transit. The frame carrying `got` was delivered.
    SequenceGap {
        /// The sequence number the receiver was waiting for.
        expected: u64,
        /// The sequence number that actually arrived.
        got: u64,
    },
}

impl std::fmt::Display for IncomingFrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IncomingFrameError::Corrupt(e) => write!(f, "corrupt link frame: {e}"),
            IncomingFrameError::Unroutable(e) => write!(f, "unroutable link frame: {e}"),
            IncomingFrameError::SequenceGap { expected, got } => write!(
                f,
                "link frame loss: sequence gap (expected {expected}, got {got})"
            ),
        }
    }
}

impl std::error::Error for IncomingFrameError {}

#[cfg(test)]
mod tests {
    use super::*;
    use air_model::PartitionId;
    use air_ports::{ChannelConfig, Destination, PortAddr, QueuingPortConfig};

    fn p(m: u32) -> PartitionId {
        PartitionId(m)
    }

    /// A redundant pair behaving like the old single link (no failover).
    fn raw_link(latency: u64) -> RedundantLink {
        RedundantLink::new(latency, latency, 0, 1000)
    }

    /// Builds sender-side IPC with a remote queuing channel (id 5).
    fn sender() -> PmkIpc {
        let mut reg = PortRegistry::new();
        reg.create_queuing_port(p(0), QueuingPortConfig::source("tx", 64, 8))
            .unwrap();
        reg.add_channel(ChannelConfig {
            id: 5,
            source: PortAddr::new(p(0), "tx"),
            destinations: vec![Destination::Remote {
                addr: PortAddr::new(p(0), "rx"),
            }],
        })
        .unwrap();
        PmkIpc::with_registry(reg)
    }

    /// Builds receiver-side IPC where channel 5 delivers to P2's "rx".
    fn receiver() -> PmkIpc {
        let mut reg = PortRegistry::new();
        reg.create_queuing_port(p(9), QueuingPortConfig::source("unused", 64, 8))
            .unwrap();
        reg.create_queuing_port(p(2), QueuingPortConfig::destination("rx", 64, 8))
            .unwrap();
        reg.add_channel(ChannelConfig {
            id: 5,
            source: PortAddr::new(p(9), "unused"),
            destinations: vec![Destination::Local(PortAddr::new(p(2), "rx"))],
        })
        .unwrap();
        PmkIpc::with_registry(reg)
    }

    #[test]
    fn end_to_end_over_the_link() {
        let mut link = raw_link(3);
        let mut tx = sender();
        let mut rx = receiver();

        tx.registry_mut()
            .queuing_port_mut(p(0), "tx")
            .unwrap()
            .send(&b"telemetry"[..], Ticks(10))
            .unwrap();
        tx.route(&mut link, Ticks(10));
        assert_eq!(tx.frames_sent(), 1);

        // The frame is addressed A→B; the receiving node polls endpoint B.
        // For the test we model the peer by receiving at B through a
        // directional shim: re-send what B would see back to A.
        let bytes = link.receive(LinkEndpoint::B, 13).expect("latency 3");
        let mut back = raw_link(0);
        back.send(LinkEndpoint::B, 13, bytes);
        let errors = rx.receive(&mut back, Ticks(13));
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(rx.frames_received(), 1);
        let msg = rx
            .registry_mut()
            .queuing_port_mut(p(2), "rx")
            .unwrap()
            .receive()
            .unwrap();
        assert_eq!(&msg.payload[..], b"telemetry");
        assert_eq!(msg.written_at, Ticks(10), "source timestamp preserved");
    }

    #[test]
    fn corrupt_frames_rejected_not_delivered() {
        let mut rx = receiver();
        let mut link = raw_link(0);
        let mut bytes = Frame::new(5, Ticks(0), &b"data"[..]).encode();
        *bytes.last_mut().unwrap() ^= 0xff;
        link.send(LinkEndpoint::B, 0, bytes);
        let errors = rx.receive(&mut link, Ticks(0));
        assert_eq!(errors.len(), 1);
        assert!(matches!(errors[0], IncomingFrameError::Corrupt(_)));
        assert_eq!(rx.frames_rejected(), 1);
        assert_eq!(
            rx.registry_mut()
                .queuing_port_mut(p(2), "rx")
                .unwrap()
                .len(),
            0
        );
    }

    #[test]
    fn sequencing_stamps_outgoing_frames() {
        let mut link = raw_link(0);
        let mut tx = sender();
        tx.enable_reliable_transport(ArqConfig::default());
        for _ in 0..2 {
            tx.registry_mut()
                .queuing_port_mut(p(0), "tx")
                .unwrap()
                .send(&b"x"[..], Ticks(0))
                .unwrap();
            tx.route(&mut link, Ticks(0));
        }
        let first = Frame::decode(&link.receive(LinkEndpoint::B, 0).unwrap()).unwrap();
        let second = Frame::decode(&link.receive(LinkEndpoint::B, 0).unwrap()).unwrap();
        assert_eq!(first.link_seq, 1);
        assert_eq!(second.link_seq, 2);
    }

    #[test]
    fn sequence_gap_detected_and_frame_still_delivered() {
        let mut rx = receiver();
        let mut link = raw_link(0);
        // Frames 1 and 3 arrive; 2 was lost in transit.
        for seq in [1u64, 3] {
            link.send(
                LinkEndpoint::B,
                0,
                Frame::new(5, Ticks(0), &b"data"[..])
                    .with_link_seq(seq)
                    .encode(),
            );
        }
        let errors = rx.receive(&mut link, Ticks(0));
        assert_eq!(errors.len(), 1);
        assert_eq!(
            errors[0],
            IncomingFrameError::SequenceGap {
                expected: 2,
                got: 3
            }
        );
        assert_eq!(rx.sequence_gaps(), 1);
        // Gap frames are delivered, not rejected: both made it to the port.
        assert_eq!(rx.frames_received(), 2);
        assert_eq!(rx.frames_rejected(), 0);
        assert_eq!(
            rx.registry_mut()
                .queuing_port_mut(p(2), "rx")
                .unwrap()
                .len(),
            2
        );
        // The stream resynchronises: 4 follows 3 without complaint.
        link.send(
            LinkEndpoint::B,
            0,
            Frame::new(5, Ticks(0), &b"data"[..])
                .with_link_seq(4)
                .encode(),
        );
        assert!(rx.receive(&mut link, Ticks(0)).is_empty());
    }

    #[test]
    fn unsequenced_frames_exempt_from_gap_tracking() {
        let mut rx = receiver();
        let mut link = raw_link(0);
        for _ in 0..3 {
            link.send(
                LinkEndpoint::B,
                0,
                Frame::new(5, Ticks(0), &b"data"[..]).encode(),
            );
        }
        assert!(rx.receive(&mut link, Ticks(0)).is_empty());
        assert_eq!(rx.sequence_gaps(), 0);
        assert_eq!(rx.frames_received(), 3);
    }

    #[test]
    fn unknown_channel_rejected() {
        let mut rx = receiver();
        let mut link = raw_link(0);
        link.send(
            LinkEndpoint::B,
            0,
            Frame::new(99, Ticks(0), &b"data"[..]).encode(),
        );
        let errors = rx.receive(&mut link, Ticks(0));
        assert!(matches!(errors[0], IncomingFrameError::Unroutable(_)));
    }

    /// Shuttles every B-side frame of `from` into `to`'s A-side inbox.
    fn shuttle(from: &mut RedundantLink, to: &mut RedundantLink, now: u64) {
        while let Some(bytes) = from.receive(LinkEndpoint::B, now) {
            to.send(LinkEndpoint::B, now, bytes);
        }
    }

    #[test]
    fn arq_recovers_a_dropped_frame() {
        let mut tx = sender();
        let mut rx = receiver();
        tx.enable_reliable_transport(ArqConfig {
            timeout_ticks: 5,
            ..ArqConfig::default()
        });
        rx.enable_reliable_transport(ArqConfig::default());
        let mut tx_link = raw_link(0);
        let mut rx_link = raw_link(0);

        tx.registry_mut()
            .queuing_port_mut(p(0), "tx")
            .unwrap()
            .send(&b"telemetry"[..], Ticks(0))
            .unwrap();
        tx.route(&mut tx_link, Ticks(0));
        // The first transmission is lost in transit.
        assert!(tx_link.drop_in_flight(LinkEndpoint::B));

        for t in 1..20u64 {
            tx.route(&mut tx_link, Ticks(t));
            shuttle(&mut tx_link, &mut rx_link, t);
            rx.receive(&mut rx_link, Ticks(t));
            shuttle(&mut rx_link, &mut tx_link, t);
            tx.receive(&mut tx_link, Ticks(t));
        }
        assert_eq!(rx.frames_received(), 1, "retransmission delivered");
        assert!(tx.transport_drained(), "ack made it back");
        assert!(tx.retransmissions() >= 1);
        assert!(tx
            .take_transport_events()
            .iter()
            .any(|e| matches!(e, LinkTransportEvent::Retransmitted { seq: 1, .. })));
    }

    #[test]
    fn arq_suppresses_duplicates_from_ack_loss() {
        let mut tx = sender();
        let mut rx = receiver();
        tx.enable_reliable_transport(ArqConfig {
            timeout_ticks: 5,
            ..ArqConfig::default()
        });
        rx.enable_reliable_transport(ArqConfig::default());
        let mut tx_link = raw_link(0);
        let mut rx_link = raw_link(0);

        tx.registry_mut()
            .queuing_port_mut(p(0), "tx")
            .unwrap()
            .send(&b"once"[..], Ticks(0))
            .unwrap();
        tx.route(&mut tx_link, Ticks(0));
        shuttle(&mut tx_link, &mut rx_link, 0);
        rx.receive(&mut rx_link, Ticks(0));
        // The ACK is destroyed → the sender times out and retransmits.
        assert!(rx_link.drop_in_flight_where(LinkEndpoint::B, air_ports::wire::bytes_look_like_ack));
        for t in 1..20u64 {
            tx.route(&mut tx_link, Ticks(t));
            shuttle(&mut tx_link, &mut rx_link, t);
            rx.receive(&mut rx_link, Ticks(t));
            shuttle(&mut rx_link, &mut tx_link, t);
            tx.receive(&mut tx_link, Ticks(t));
        }
        assert_eq!(rx.frames_received(), 1, "exactly once");
        assert!(rx.duplicates_suppressed() >= 1);
        assert!(tx.transport_drained(), "re-ack releases the window");
    }

    #[test]
    fn sustained_loss_fails_over_and_reverts() {
        let mut tx = sender();
        tx.enable_reliable_transport(ArqConfig {
            timeout_ticks: 4,
            backoff_cap: 0,
            ..ArqConfig::default()
        });
        // Threshold 2 loss rounds; revert after 30 ticks on the secondary.
        let mut link = RedundantLink::new(0, 0, 2, 30);
        link.link_mut(LinkRole::Primary).begin_outage(1_000);

        tx.registry_mut()
            .queuing_port_mut(p(0), "tx")
            .unwrap()
            .send(&b"x"[..], Ticks(0))
            .unwrap();
        let mut failed_over_at = None;
        for t in 0..60u64 {
            tx.route(&mut link, Ticks(t));
            for e in tx.take_transport_events() {
                if let LinkTransportEvent::Failover { to } = e {
                    if to == LinkRole::Secondary && failed_over_at.is_none() {
                        failed_over_at = Some(t);
                    }
                    if to == LinkRole::Primary {
                        assert!(failed_over_at.is_some());
                        return; // revert observed — done
                    }
                }
            }
        }
        panic!("expected failover then revert within 60 ticks");
    }
}
