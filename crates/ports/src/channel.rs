//! Channel wiring and the message router.
//!
//! At integration time, channels connect one source port to one or more
//! destination ports. "Applications access the interpartition communication
//! services through the APEX interface, in a way which is agnostic of
//! whether the partitions are local or remote" (Sect. 2.1) — the registry
//! routes local destinations by direct copy and emits link frames for
//! remote ones; the PMK carries the frames.
//!
//! ## Routing table
//!
//! The router runs from the PMK's clock-tick handling, so its cost bounds
//! the tick cost of the whole system. Port addresses are therefore
//! **interned**: each `⟨partition, name⟩` pair maps to a dense [`PortKey`]
//! (`u32`) at port-creation time, and [`PortRegistry::add_channel`]
//! compiles the channel description into a private `CompiledChannel`
//! holding the source key and the destination keys as plain index
//! arrays. The steady-state [`PortRegistry::route_into`] walk touches no
//! `String`, no hash map, and performs **zero heap allocations** for local-only
//! delivery — payloads move as reference-counted [`Payload`] handoffs and
//! frames go into a caller-provided scratch buffer.
//!
//! Names and channel ids resolve by binary search over sorted tables, so
//! the APEX-side lookups and the delivery of each incoming frame hash
//! nothing either.

use air_model::{PartitionId, Ticks};

use crate::error::PortError;
use crate::payload::Payload;
use crate::queuing::{QueuingPort, QueuingPortConfig};
use crate::sampling::{Direction, SamplingPort, SamplingPortConfig};
use crate::wire::Frame;

/// A fully-qualified port address: partition plus port name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PortAddr {
    /// The owning partition.
    pub partition: PartitionId,
    /// The port name within the partition.
    pub port: String,
}

impl PortAddr {
    /// Creates a port address.
    pub fn new(partition: PartitionId, port: impl Into<String>) -> Self {
        Self {
            partition,
            port: port.into(),
        }
    }
}

impl std::fmt::Display for PortAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.partition, self.port)
    }
}

/// Dense handle of a port within a [`PortRegistry`].
///
/// Assigned at port-creation time, contiguous from zero; the compiled
/// routing table refers to ports exclusively through these keys so the
/// per-tick route walk does no string hashing.
pub type PortKey = u32;

/// One destination of a channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Destination {
    /// A port on the same processing platform: served by direct
    /// memory-to-memory delivery.
    Local(PortAddr),
    /// A port on a physically separated platform: served by a link frame.
    Remote {
        /// The remote port address (resolved by the peer node's registry).
        addr: PortAddr,
    },
}

/// Integration-time channel description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelConfig {
    /// Unique channel identifier (also the wire-frame channel field).
    pub id: u32,
    /// The source port.
    pub source: PortAddr,
    /// The destination ports (sampling channels may multicast; queuing
    /// channels have exactly one destination).
    pub destinations: Vec<Destination>,
}

#[derive(Debug)]
enum PortInstance {
    Sampling(SamplingPort),
    Queuing(QueuingPort),
}

/// A channel compiled down to dense port keys — what the router walks.
#[derive(Debug)]
struct CompiledChannel {
    /// The channel id (also the wire-frame channel field).
    id: u32,
    /// Source port key; `None` for inbound gateways (source on a remote
    /// node).
    source: Option<PortKey>,
    /// Whether the source is a sampling port (false: queuing).
    sampling: bool,
    /// Local destination port keys, delivered by direct copy.
    local_dests: Vec<PortKey>,
    /// Number of remote destinations, each served by one link frame.
    remote_count: u32,
    /// Write stamp of the last sampling message already routed, so the
    /// router only propagates fresh writes.
    last_routed: Option<Ticks>,
}

/// The registry of all ports and channels on one processing platform.
///
/// # Examples
///
/// ```
/// use air_ports::{ChannelConfig, Destination, PortAddr, PortRegistry,
///                 SamplingPortConfig};
/// use air_model::{PartitionId, Ticks};
///
/// let aocs = PartitionId(0);
/// let payload = PartitionId(3);
/// let mut reg = PortRegistry::new();
/// reg.create_sampling_port(aocs, SamplingPortConfig::source("att-out", 64))?;
/// reg.create_sampling_port(
///     payload,
///     SamplingPortConfig::destination("att-in", 64, Ticks(100)),
/// )?;
/// reg.add_channel(ChannelConfig {
///     id: 1,
///     source: PortAddr::new(aocs, "att-out"),
///     destinations: vec![Destination::Local(PortAddr::new(payload, "att-in"))],
/// })?;
///
/// reg.sampling_port_mut(aocs, "att-out")?.write(&b"q"[..], Ticks(5))?;
/// let frames = reg.route(Ticks(5));
/// assert!(frames.is_empty()); // local-only channel: no link traffic
/// let (msg, _) = reg.sampling_port_mut(payload, "att-in")?.read(Ticks(6))?;
/// assert_eq!(&msg.payload[..], b"q");
/// # Ok::<(), air_ports::PortError>(())
/// ```
#[derive(Debug, Default)]
pub struct PortRegistry {
    /// Port storage, indexed by [`PortKey`].
    ports: Vec<PortInstance>,
    /// Name resolution: `(partition, port name, key)` sorted by partition
    /// then name. Only used on the integration/APEX side, never by the
    /// router.
    names: Vec<(PartitionId, String, PortKey)>,
    /// Integration-time channel descriptions, kept for inspection.
    channels: Vec<ChannelConfig>,
    /// The routing table the per-tick walk uses, parallel to `channels`.
    compiled: Vec<CompiledChannel>,
    /// `(channel id, index into channels/compiled)`, sorted by id.
    channel_index: Vec<(u32, usize)>,
    /// Local deliveries dropped because a destination queue was full.
    dropped_deliveries: u64,
}

impl PortRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn insert_port(
        &mut self,
        partition: PartitionId,
        name: &str,
        instance: PortInstance,
    ) -> Result<PortKey, PortError> {
        let Err(slot) = self.name_slot(partition, name) else {
            return Err(PortError::DuplicatePort {
                name: name.to_owned(),
            });
        };
        let key = self.ports.len() as PortKey;
        self.names.insert(slot, (partition, name.to_owned(), key));
        self.ports.push(instance);
        Ok(key)
    }

    /// Creates a sampling port owned by `partition`.
    ///
    /// # Errors
    ///
    /// [`PortError::DuplicatePort`] if the partition already has a port of
    /// this name.
    pub fn create_sampling_port(
        &mut self,
        partition: PartitionId,
        config: SamplingPortConfig,
    ) -> Result<(), PortError> {
        let name = config.name.clone();
        self.insert_port(
            partition,
            &name,
            PortInstance::Sampling(SamplingPort::new(config)),
        )?;
        Ok(())
    }

    /// Creates a queuing port owned by `partition`.
    ///
    /// # Errors
    ///
    /// [`PortError::DuplicatePort`] if the partition already has a port of
    /// this name.
    pub fn create_queuing_port(
        &mut self,
        partition: PartitionId,
        config: QueuingPortConfig,
    ) -> Result<(), PortError> {
        let name = config.name.clone();
        self.insert_port(
            partition,
            &name,
            PortInstance::Queuing(QueuingPort::new(config)),
        )?;
        Ok(())
    }

    /// Where `(partition, name)` is, or would be inserted, in `names`.
    fn name_slot(&self, partition: PartitionId, name: &str) -> Result<usize, usize> {
        self.names
            .binary_search_by(|(p, n, _)| (*p, n.as_str()).cmp(&(partition, name)))
    }

    /// The interned key of `partition`'s port `name`, if it exists.
    pub fn port_key(&self, partition: PartitionId, name: &str) -> Option<PortKey> {
        let slot = self.name_slot(partition, name).ok()?;
        Some(self.names[slot].2)
    }

    /// Where channel `id` is, or would be inserted, in `channel_index`.
    fn channel_slot(&self, id: u32) -> Result<usize, usize> {
        self.channel_index.binary_search_by_key(&id, |&(id, _)| id)
    }

    fn key_of(&self, addr: &PortAddr) -> Option<PortKey> {
        self.port_key(addr.partition, &addr.port)
    }

    /// Mutable access to a sampling port, for the APEX read/write services.
    ///
    /// # Errors
    ///
    /// [`PortError::UnknownPort`] when no such sampling port exists.
    pub fn sampling_port_mut(
        &mut self,
        partition: PartitionId,
        name: &str,
    ) -> Result<&mut SamplingPort, PortError> {
        match self.port_key(partition, name) {
            Some(key) => match &mut self.ports[key as usize] {
                PortInstance::Sampling(p) => Ok(p),
                PortInstance::Queuing(_) => Err(PortError::UnknownPort {
                    name: name.to_owned(),
                }),
            },
            None => Err(PortError::UnknownPort {
                name: name.to_owned(),
            }),
        }
    }

    /// Mutable access to a queuing port, for the APEX send/receive services.
    ///
    /// # Errors
    ///
    /// [`PortError::UnknownPort`] when no such queuing port exists.
    pub fn queuing_port_mut(
        &mut self,
        partition: PartitionId,
        name: &str,
    ) -> Result<&mut QueuingPort, PortError> {
        match self.port_key(partition, name) {
            Some(key) => match &mut self.ports[key as usize] {
                PortInstance::Queuing(p) => Ok(p),
                PortInstance::Sampling(_) => Err(PortError::UnknownPort {
                    name: name.to_owned(),
                }),
            },
            None => Err(PortError::UnknownPort {
                name: name.to_owned(),
            }),
        }
    }

    /// Whether `partition` owns a port called `name` (of either kind).
    pub fn has_port(&self, partition: PartitionId, name: &str) -> bool {
        self.port_key(partition, name).is_some()
    }

    /// Whether port `key` is a sampling port, and its direction.
    fn kind_of(&self, key: PortKey) -> (bool, Direction) {
        match &self.ports[key as usize] {
            PortInstance::Sampling(s) => (true, s.config().direction),
            PortInstance::Queuing(q) => (false, q.config().direction),
        }
    }

    /// Registers a channel after validating its wiring: the source must be
    /// an existing source-direction port; local destinations must exist,
    /// have destination direction, and match the source's kind; queuing
    /// channels are point-to-point.
    ///
    /// Accepted channels are immediately compiled into the dense routing
    /// table the router walks — port keys only, no names.
    ///
    /// # Errors
    ///
    /// [`PortError::BadChannel`] describing the exact wiring mistake.
    pub fn add_channel(&mut self, config: ChannelConfig) -> Result<(), PortError> {
        let bad = |reason: String| PortError::BadChannel { reason };
        let Err(slot) = self.channel_slot(config.id) else {
            return Err(bad(format!("duplicate channel id {}", config.id)));
        };
        if config.destinations.is_empty() {
            return Err(bad("channel has no destinations".to_owned()));
        }
        // A channel whose source port does not exist on this node is an
        // **inbound gateway**: its source lives on a remote node (the
        // channel table is global integration data) and this node only
        // hosts destination(s); incoming link frames with this channel id
        // are delivered here.
        let source = self.key_of(&config.source);
        let src_kind = source.map(|key| self.kind_of(key));
        let src_sampling = src_kind.map(|(sampling, _)| sampling);
        match src_kind {
            Some((_, direction)) if direction != Direction::Source => {
                return Err(bad(format!(
                    "source port {} is not a source-direction port",
                    config.source
                )));
            }
            None if !config
                .destinations
                .iter()
                .any(|d| matches!(d, Destination::Local(_))) =>
            {
                return Err(bad(format!(
                    "gateway channel {} (remote source {}) has no local destination",
                    config.id, config.source
                )));
            }
            _ => {}
        }
        if src_sampling == Some(false) && config.destinations.len() > 1 {
            return Err(bad("queuing channels are point-to-point".to_owned()));
        }
        let mut local_dests = Vec::new();
        let mut remote_count = 0u32;
        for dest in &config.destinations {
            let Destination::Local(addr) = dest else {
                remote_count += 1;
                continue; // remote addresses resolve on the peer node
            };
            let Some(key) = self.key_of(addr) else {
                return Err(bad(format!("destination port {addr} does not exist")));
            };
            let (sampling, direction) = self.kind_of(key);
            if src_sampling.is_some_and(|src| src != sampling) {
                return Err(bad(format!(
                    "destination port {addr} kind differs from the source's"
                )));
            }
            if direction != Direction::Destination {
                return Err(bad(format!(
                    "destination port {addr} is not a destination-direction port"
                )));
            }
            if src_sampling.is_some() && addr.partition == config.source.partition {
                return Err(bad(format!(
                    "channel {} loops inside partition {}",
                    config.id, addr.partition
                )));
            }
            local_dests.push(key);
        }
        self.compiled.push(CompiledChannel {
            id: config.id,
            source,
            sampling: src_sampling.unwrap_or(true),
            local_dests,
            remote_count,
            last_routed: None,
        });
        self.channel_index
            .insert(slot, (config.id, self.channels.len()));
        self.channels.push(config);
        Ok(())
    }

    /// The registered channels.
    pub fn channels(&self) -> &[ChannelConfig] {
        &self.channels
    }

    /// Local deliveries dropped on full destination queues.
    pub fn dropped_deliveries(&self) -> u64 {
        self.dropped_deliveries
    }

    /// Routes pending messages across all channels: local destinations are
    /// delivered immediately; frames for remote destinations are returned
    /// for the PMK to transmit over the link.
    ///
    /// Convenience wrapper over [`route_into`](Self::route_into); callers
    /// on the tick path should prefer `route_into` with a reused buffer.
    pub fn route(&mut self, now: Ticks) -> Vec<Frame> {
        let mut frames = Vec::new();
        self.route_into(now, &mut frames);
        frames
    }

    /// Routes pending messages, appending frames for remote destinations
    /// to `frames` (which the caller typically reuses tick over tick).
    ///
    /// The PMK invokes this from its clock-tick handling, after the active
    /// partition's execution — message transfer happens at partition
    /// boundaries, never *into* another partition's window.
    ///
    /// Steady-state this walk performs **no heap allocation** for
    /// local-only channels: it iterates the compiled key arrays, payloads
    /// are handed off by reference count, and destination queues were
    /// allocated at their configured capacity up front.
    pub fn route_into(&mut self, _now: Ticks, frames: &mut Vec<Frame>) {
        let Self {
            ports,
            compiled,
            dropped_deliveries,
            ..
        } = self;
        for ch in compiled.iter_mut() {
            let Some(src) = ch.source else {
                continue; // inbound gateway: nothing originates here
            };
            if ch.sampling {
                let PortInstance::Sampling(port) = &ports[src as usize] else {
                    continue;
                };
                let Some(msg) = port.last_written() else {
                    continue;
                };
                if ch.last_routed == Some(msg.written_at) {
                    continue; // already propagated this write
                }
                ch.last_routed = Some(msg.written_at);
                let payload = msg.payload.clone();
                let written_at = msg.written_at;
                fan_out(ports, ch, &payload, written_at, dropped_deliveries, frames);
            } else {
                loop {
                    let msg = match &mut ports[src as usize] {
                        PortInstance::Queuing(port) => port.take_outgoing(),
                        PortInstance::Sampling(_) => None,
                    };
                    let Some(msg) = msg else {
                        break;
                    };
                    fan_out(
                        ports,
                        ch,
                        &msg.payload,
                        msg.written_at,
                        dropped_deliveries,
                        frames,
                    );
                }
            }
        }
    }

    /// Delivers an incoming link frame to this node's local destination
    /// ports of the frame's channel.
    ///
    /// # Errors
    ///
    /// [`PortError::BadChannel`] when the channel id is unknown here.
    pub fn deliver_frame(&mut self, frame: &Frame, now: Ticks) -> Result<(), PortError> {
        let Ok(slot) = self.channel_slot(frame.channel) else {
            return Err(PortError::BadChannel {
                reason: format!("unknown channel {} in link frame", frame.channel),
            });
        };
        let ci = self.channel_index[slot].1;
        let _ = now;
        let Self {
            ports,
            compiled,
            dropped_deliveries,
            ..
        } = self;
        deliver_local(
            ports,
            &compiled[ci],
            &frame.payload,
            frame.written_at,
            dropped_deliveries,
        );
        Ok(())
    }
}

/// Delivers one message to a compiled channel's local destinations,
/// counting failed deliveries (full queues) into `dropped`.
fn deliver_local(
    ports: &mut [PortInstance],
    ch: &CompiledChannel,
    payload: &Payload,
    written_at: Ticks,
    dropped: &mut u64,
) {
    for &key in &ch.local_dests {
        let delivered = match &mut ports[key as usize] {
            PortInstance::Sampling(p) => p.deliver(payload.clone(), written_at).is_ok(),
            PortInstance::Queuing(p) => p.deliver(payload.clone(), written_at).is_ok(),
        };
        if !delivered {
            *dropped += 1;
        }
    }
}

/// Fans one message out to a compiled channel's destinations. Local ports
/// are stamped with the **source write instant** so sampling validity and
/// latency measurements survive routing and the link; each remote
/// destination costs one link frame.
fn fan_out(
    ports: &mut [PortInstance],
    ch: &CompiledChannel,
    payload: &Payload,
    written_at: Ticks,
    dropped: &mut u64,
    frames: &mut Vec<Frame>,
) {
    deliver_local(ports, ch, payload, written_at, dropped);
    for _ in 0..ch.remote_count {
        frames.push(Frame::new(ch.id, written_at, payload.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(m: u32) -> PartitionId {
        PartitionId(m)
    }

    fn sampling_pair() -> PortRegistry {
        let mut reg = PortRegistry::new();
        reg.create_sampling_port(p(0), SamplingPortConfig::source("out", 32))
            .unwrap();
        reg.create_sampling_port(p(1), SamplingPortConfig::destination("in", 32, Ticks(100)))
            .unwrap();
        reg.add_channel(ChannelConfig {
            id: 1,
            source: PortAddr::new(p(0), "out"),
            destinations: vec![Destination::Local(PortAddr::new(p(1), "in"))],
        })
        .unwrap();
        reg
    }

    #[test]
    fn sampling_route_local() {
        let mut reg = sampling_pair();
        reg.sampling_port_mut(p(0), "out")
            .unwrap()
            .write(&b"v1"[..], Ticks(10))
            .unwrap();
        assert!(reg.route(Ticks(10)).is_empty());
        let (m, _) = reg
            .sampling_port_mut(p(1), "in")
            .unwrap()
            .read(Ticks(11))
            .unwrap();
        assert_eq!(&m.payload[..], b"v1");
    }

    #[test]
    fn sampling_route_propagates_only_fresh_writes() {
        let mut reg = sampling_pair();
        reg.sampling_port_mut(p(0), "out")
            .unwrap()
            .write(&b"v1"[..], Ticks(10))
            .unwrap();
        reg.route(Ticks(10));
        // Destination consumes nothing (sampling reads don't consume) —
        // but re-routing must not count as a fresh delivery.
        let before = reg.sampling_port_mut(p(1), "in").unwrap().writes();
        reg.route(Ticks(20));
        let after = reg.sampling_port_mut(p(1), "in").unwrap().writes();
        assert_eq!(before, after, "no duplicate propagation");
        // A fresh write routes again.
        reg.sampling_port_mut(p(0), "out")
            .unwrap()
            .write(&b"v2"[..], Ticks(30))
            .unwrap();
        reg.route(Ticks(30));
        let (m, _) = reg
            .sampling_port_mut(p(1), "in")
            .unwrap()
            .read(Ticks(30))
            .unwrap();
        assert_eq!(&m.payload[..], b"v2");
    }

    #[test]
    fn sampling_multicast() {
        let mut reg = PortRegistry::new();
        reg.create_sampling_port(p(0), SamplingPortConfig::source("out", 32))
            .unwrap();
        for m in [1u32, 2] {
            reg.create_sampling_port(p(m), SamplingPortConfig::destination("in", 32, Ticks(100)))
                .unwrap();
        }
        reg.add_channel(ChannelConfig {
            id: 1,
            source: PortAddr::new(p(0), "out"),
            destinations: vec![
                Destination::Local(PortAddr::new(p(1), "in")),
                Destination::Local(PortAddr::new(p(2), "in")),
            ],
        })
        .unwrap();
        reg.sampling_port_mut(p(0), "out")
            .unwrap()
            .write(&b"x"[..], Ticks(0))
            .unwrap();
        reg.route(Ticks(0));
        for m in [1u32, 2] {
            let (msg, _) = reg
                .sampling_port_mut(p(m), "in")
                .unwrap()
                .read(Ticks(0))
                .unwrap();
            assert_eq!(&msg.payload[..], b"x");
        }
    }

    #[test]
    fn queuing_route_drains_source_fifo() {
        let mut reg = PortRegistry::new();
        reg.create_queuing_port(p(0), QueuingPortConfig::source("tx", 16, 8))
            .unwrap();
        reg.create_queuing_port(p(1), QueuingPortConfig::destination("rx", 16, 8))
            .unwrap();
        reg.add_channel(ChannelConfig {
            id: 2,
            source: PortAddr::new(p(0), "tx"),
            destinations: vec![Destination::Local(PortAddr::new(p(1), "rx"))],
        })
        .unwrap();
        for i in 0..3u8 {
            reg.queuing_port_mut(p(0), "tx")
                .unwrap()
                .send(vec![i], Ticks(0))
                .unwrap();
        }
        reg.route(Ticks(0));
        let rx = reg.queuing_port_mut(p(1), "rx").unwrap();
        assert_eq!(rx.len(), 3);
        for i in 0..3u8 {
            assert_eq!(rx.receive().unwrap().payload[0], i);
        }
    }

    #[test]
    fn full_destination_counts_drops() {
        let mut reg = PortRegistry::new();
        reg.create_queuing_port(p(0), QueuingPortConfig::source("tx", 16, 8))
            .unwrap();
        reg.create_queuing_port(p(1), QueuingPortConfig::destination("rx", 16, 1))
            .unwrap();
        reg.add_channel(ChannelConfig {
            id: 2,
            source: PortAddr::new(p(0), "tx"),
            destinations: vec![Destination::Local(PortAddr::new(p(1), "rx"))],
        })
        .unwrap();
        for i in 0..3u8 {
            reg.queuing_port_mut(p(0), "tx")
                .unwrap()
                .send(vec![i], Ticks(0))
                .unwrap();
        }
        reg.route(Ticks(0));
        assert_eq!(reg.dropped_deliveries(), 2);
        assert_eq!(reg.queuing_port_mut(p(1), "rx").unwrap().len(), 1);
    }

    #[test]
    fn remote_destination_emits_frames() {
        let mut reg = PortRegistry::new();
        reg.create_queuing_port(p(0), QueuingPortConfig::source("tx", 16, 8))
            .unwrap();
        reg.add_channel(ChannelConfig {
            id: 9,
            source: PortAddr::new(p(0), "tx"),
            destinations: vec![Destination::Remote {
                addr: PortAddr::new(p(0), "rx"),
            }],
        })
        .unwrap();
        reg.queuing_port_mut(p(0), "tx")
            .unwrap()
            .send(&b"hello"[..], Ticks(4))
            .unwrap();
        let frames = reg.route(Ticks(4));
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].channel, 9);
        assert_eq!(frames[0].written_at, Ticks(4));
        assert_eq!(&frames[0].payload[..], b"hello");
    }

    #[test]
    fn deliver_frame_to_local_destinations() {
        // Receiving node: channel 9's destination lives here.
        let mut reg = PortRegistry::new();
        reg.create_queuing_port(p(0), QueuingPortConfig::source("dummy-src", 16, 8))
            .unwrap();
        reg.create_queuing_port(p(2), QueuingPortConfig::destination("rx", 16, 8))
            .unwrap();
        reg.add_channel(ChannelConfig {
            id: 9,
            source: PortAddr::new(p(0), "dummy-src"),
            destinations: vec![Destination::Local(PortAddr::new(p(2), "rx"))],
        })
        .unwrap();
        let frame = Frame::new(9, Ticks(4), &b"hello"[..]);
        reg.deliver_frame(&frame, Ticks(6)).unwrap();
        assert_eq!(
            &reg.queuing_port_mut(p(2), "rx")
                .unwrap()
                .receive()
                .unwrap()
                .payload[..],
            b"hello"
        );
        // Unknown channel id.
        let bogus = Frame::new(77, Ticks(4), &b"x"[..]);
        assert!(matches!(
            reg.deliver_frame(&bogus, Ticks(6)),
            Err(PortError::BadChannel { .. })
        ));
    }

    #[test]
    fn channel_validation_rejects_bad_wiring() {
        let mut reg = PortRegistry::new();
        reg.create_sampling_port(p(0), SamplingPortConfig::source("out", 32))
            .unwrap();
        reg.create_sampling_port(p(1), SamplingPortConfig::destination("in", 32, Ticks(10)))
            .unwrap();
        reg.create_queuing_port(p(2), QueuingPortConfig::destination("qin", 16, 4))
            .unwrap();

        // A nonexistent source with a local destination is a *gateway*
        // (the source lives on a remote node) — accepted, see
        // `gateway_channel_without_local_source`. But a gateway whose
        // destination port is missing is still rejected:
        assert!(reg
            .add_channel(ChannelConfig {
                id: 99,
                source: PortAddr::new(p(9), "ghost"),
                destinations: vec![Destination::Local(PortAddr::new(p(1), "missing"))],
            })
            .is_err());
        // Destination used as source.
        assert!(reg
            .add_channel(ChannelConfig {
                id: 1,
                source: PortAddr::new(p(1), "in"),
                destinations: vec![Destination::Local(PortAddr::new(p(1), "in"))],
            })
            .is_err());
        // Kind mismatch: sampling source into a queuing destination.
        assert!(reg
            .add_channel(ChannelConfig {
                id: 1,
                source: PortAddr::new(p(0), "out"),
                destinations: vec![Destination::Local(PortAddr::new(p(2), "qin"))],
            })
            .is_err());
        // No destinations.
        assert!(reg
            .add_channel(ChannelConfig {
                id: 1,
                source: PortAddr::new(p(0), "out"),
                destinations: vec![],
            })
            .is_err());
        // A valid one, then a duplicate id.
        reg.add_channel(ChannelConfig {
            id: 1,
            source: PortAddr::new(p(0), "out"),
            destinations: vec![Destination::Local(PortAddr::new(p(1), "in"))],
        })
        .unwrap();
        assert!(reg
            .add_channel(ChannelConfig {
                id: 1,
                source: PortAddr::new(p(0), "out"),
                destinations: vec![Destination::Local(PortAddr::new(p(1), "in"))],
            })
            .is_err());
    }

    #[test]
    fn self_loop_rejected() {
        let mut reg = PortRegistry::new();
        reg.create_sampling_port(p(0), SamplingPortConfig::source("out", 32))
            .unwrap();
        reg.create_sampling_port(p(0), SamplingPortConfig::destination("in", 32, Ticks(10)))
            .unwrap();
        let err = reg
            .add_channel(ChannelConfig {
                id: 1,
                source: PortAddr::new(p(0), "out"),
                destinations: vec![Destination::Local(PortAddr::new(p(0), "in"))],
            })
            .unwrap_err();
        assert!(matches!(err, PortError::BadChannel { .. }));
    }

    #[test]
    fn gateway_channel_without_local_source() {
        // The receiving node of a cross-node channel: no local source
        // port, a local destination — accepted as an inbound gateway.
        let mut reg = PortRegistry::new();
        reg.create_queuing_port(p(2), QueuingPortConfig::destination("rx", 16, 4))
            .unwrap();
        reg.add_channel(ChannelConfig {
            id: 9,
            source: PortAddr::new(p(0), "on-the-other-node"),
            destinations: vec![Destination::Local(PortAddr::new(p(2), "rx"))],
        })
        .unwrap();
        // Frames for it deliver; route() skips it (nothing to send).
        let frame = Frame::new(9, Ticks(1), &b"in"[..]);
        reg.deliver_frame(&frame, Ticks(2)).unwrap();
        assert_eq!(reg.queuing_port_mut(p(2), "rx").unwrap().len(), 1);
        assert!(reg.route(Ticks(3)).is_empty());
        // A gateway with no local destination is a misconfiguration.
        let err = reg
            .add_channel(ChannelConfig {
                id: 10,
                source: PortAddr::new(p(0), "also-remote"),
                destinations: vec![Destination::Remote {
                    addr: PortAddr::new(p(1), "elsewhere"),
                }],
            })
            .unwrap_err();
        assert!(matches!(err, PortError::BadChannel { .. }));
    }

    #[test]
    fn duplicate_port_names_rejected_per_partition() {
        let mut reg = PortRegistry::new();
        reg.create_sampling_port(p(0), SamplingPortConfig::source("x", 8))
            .unwrap();
        assert!(matches!(
            reg.create_queuing_port(p(0), QueuingPortConfig::source("x", 8, 1)),
            Err(PortError::DuplicatePort { .. })
        ));
        // Same name in another partition is fine.
        assert!(reg
            .create_sampling_port(p(1), SamplingPortConfig::source("x", 8))
            .is_ok());
        assert!(reg.has_port(p(0), "x"));
        assert!(!reg.has_port(p(2), "x"));
    }

    #[test]
    fn port_keys_are_dense_and_stable() {
        let mut reg = PortRegistry::new();
        reg.create_sampling_port(p(0), SamplingPortConfig::source("a", 8))
            .unwrap();
        reg.create_queuing_port(p(1), QueuingPortConfig::source("b", 8, 1))
            .unwrap();
        reg.create_sampling_port(p(0), SamplingPortConfig::source("c", 8))
            .unwrap();
        assert_eq!(reg.port_key(p(0), "a"), Some(0));
        assert_eq!(reg.port_key(p(1), "b"), Some(1));
        assert_eq!(reg.port_key(p(0), "c"), Some(2));
        assert_eq!(reg.port_key(p(1), "a"), None);
    }

    #[test]
    fn route_into_reuses_the_frame_buffer() {
        let mut reg = PortRegistry::new();
        reg.create_queuing_port(p(0), QueuingPortConfig::source("tx", 16, 8))
            .unwrap();
        reg.add_channel(ChannelConfig {
            id: 9,
            source: PortAddr::new(p(0), "tx"),
            destinations: vec![Destination::Remote {
                addr: PortAddr::new(p(0), "rx"),
            }],
        })
        .unwrap();
        let mut frames = Vec::with_capacity(4);
        for round in 0..3 {
            reg.queuing_port_mut(p(0), "tx")
                .unwrap()
                .send(vec![round], Ticks(u64::from(round)))
                .unwrap();
            frames.clear();
            reg.route_into(Ticks(u64::from(round)), &mut frames);
            assert_eq!(frames.len(), 1);
            assert_eq!(frames[0].payload[0], round);
        }
    }
}
