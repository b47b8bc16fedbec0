//! # air-ports — AIR interpartition communication
//!
//! "Notwithstanding spatial partitioning requirements, typical spacecraft
//! partitioned onboard applications need to exchange data. For example,
//! some payload subsystems may need to read AOCS data or transmit data to
//! FDIR." (Sect. 2.1.) Applications reach these services through the APEX
//! interface "in a way which is agnostic of whether the partitions are
//! local or remote to one another"; the PMK owns the transport and the
//! delivery guarantees.
//!
//! This crate provides the ARINC 653 port machinery:
//!
//! * **sampling ports** ([`sampling`]) — single-message, overwrite
//!   semantics with a refresh period defining message validity;
//! * **queuing ports** ([`queuing`]) — bounded FIFO semantics;
//! * **channels** and the **router** ([`channel`]) — the integration-time
//!   wiring from one source port to its destination port(s), with local
//!   destinations served by direct copy ("memory-to-memory copies not
//!   violating spatial separation requirements") and remote destinations
//!   handed to the PMK as frames;
//! * the **wire format** for frames crossing the inter-node link
//!   ([`wire`]);
//! * the **reliable transport** over that link — go-back-N ARQ with
//!   cumulative ACKs, deterministic tick-based timeouts and exponential
//!   backoff ([`transport`]);
//! * **space packets** for the routed mesh — CCSDS-flavoured APID/TC/TM
//!   framing riding inside ARQ frames ([`spacepacket`]);
//! * **mesh routing** — the one next-hop function of the mesh, a
//!   live shortest-path router, and the standard line/star/ring
//!   topologies ([`routing`]);
//! * **PUS-flavoured services** — the command-verification state machine
//!   (accept/start/complete reports) and the event-report publisher
//!   ([`pus`]).

#![warn(missing_docs)]

pub mod channel;
pub mod error;
pub mod message;
pub mod payload;
pub mod pus;
pub mod queuing;
pub mod routing;
pub mod sampling;
pub mod spacepacket;
pub mod transport;
pub mod wire;

pub use channel::{ChannelConfig, Destination, PortAddr, PortRegistry};
pub use error::PortError;
pub use message::{Message, Validity};
pub use payload::Payload;
pub use pus::{AckStage, CommandVerifier, EventReporter, EventSeverity};
pub use queuing::{QueuingPort, QueuingPortConfig};
pub use routing::{MeshTopology, NodeId};
pub use sampling::{SamplingPort, SamplingPortConfig};
pub use spacepacket::{PacketKind, SpacePacket};
pub use transport::{ArqConfig, ArqEndpoint, ArqEvent, DataDisposition};
