//! The analysable snapshot of a whole system description.
//!
//! Both front ends normalise to [`SystemModel`]: configuration documents
//! (via [`SystemModel::from_config`]) and programmatic
//! `SystemBuilder`-style descriptions (by filling the public fields
//! directly). The analyses in this crate read only this type.

use air_hm::{ErrorId, ErrorLevel, ProcessRecoveryAction};
use air_model::partition::Partition;
use air_model::process::ProcessAttributes;
use air_model::{PartitionId, Schedule};
use air_ports::transport::ArqConfig;
use air_ports::{ChannelConfig, QueuingPortConfig, SamplingPortConfig};
use air_tools::config::{
    ApidDirective, ConfigDoc, FlowDirective, LinkDirective, MemoryRegion, MeshNodeDirective,
    RouteDirective, Spans,
};

/// Everything the static analyses need to know about a system, with no
/// behaviour attached: the integration-time description, flattened.
#[derive(Debug, Clone, Default)]
pub struct SystemModel {
    /// Declared partitions, in declaration order.
    pub partitions: Vec<Partition>,
    /// Declared scheduling tables, in declaration order (the first is the
    /// initial schedule).
    pub schedules: Vec<Schedule>,
    /// Declared processes with their owning partition.
    pub processes: Vec<(PartitionId, ProcessAttributes)>,
    /// Declared sampling ports with their owning partition.
    pub sampling_ports: Vec<(PartitionId, SamplingPortConfig)>,
    /// Declared queuing ports with their owning partition.
    pub queuing_ports: Vec<(PartitionId, QueuingPortConfig)>,
    /// Declared interpartition channels.
    pub channels: Vec<ChannelConfig>,
    /// Declared physical memory regions (empty when the description
    /// leaves layout to the integrator defaults).
    pub memory: Vec<MemoryRegion>,
    /// Whether health monitoring was configured explicitly — coverage
    /// diagnostics only fire for explicit configurations.
    pub hm_declared: bool,
    /// Module-level error classification entries.
    pub hm_levels: Vec<(ErrorId, ErrorLevel)>,
    /// Partition error-handler entries.
    pub handlers: Vec<(PartitionId, ErrorId, ProcessRecoveryAction)>,
    /// Redundant-link parameters (`link` directive), when the node is
    /// declared part of a cluster.
    pub link: Option<LinkDirective>,
    /// Reliable-transport tuning (`arq` directive), when declared.
    pub arq: Option<ArqConfig>,
    /// Mesh identity (`node` directive), when the node is part of an
    /// N-node routed mesh.
    pub mesh_node: Option<MeshNodeDirective>,
    /// Static routing entries (`route` directives).
    pub routes: Vec<RouteDirective>,
    /// APID origination claims (`apid` directives).
    pub apids: Vec<ApidDirective>,
    /// Declared end-to-end flows (`flow` directives) the timing stage
    /// certifies worst-case latency bounds for.
    pub flows: Vec<FlowDirective>,
    /// Whether channels with a non-local source port are legitimate
    /// (multi-node integrations with gateways). `false` for a
    /// single-node configuration document, where an unknown source port
    /// is a typo.
    pub gateways_allowed: bool,
    /// Source spans for diagnostics, by
    /// [`air_tools::config::SpanKey`].
    pub spans: Spans,
}

impl SystemModel {
    /// Builds the snapshot of a parsed configuration document.
    ///
    /// Health-monitoring coverage checks run exactly when the document
    /// declares `hm`/`handler` directives. Gateway channels (whose
    /// source port lives on the counterpart node) are legitimate exactly
    /// when the document declares a `link` — a node without an
    /// inter-node link has nowhere for such frames to come from.
    pub fn from_config(doc: &ConfigDoc) -> Self {
        Self {
            partitions: doc.partitions.clone(),
            schedules: doc.schedules.clone(),
            processes: doc.processes.clone(),
            sampling_ports: doc.sampling_ports.clone(),
            queuing_ports: doc.queuing_ports.clone(),
            channels: doc.channels.clone(),
            memory: doc.memory.clone(),
            hm_declared: !doc.hm_levels.is_empty() || !doc.handlers.is_empty(),
            hm_levels: doc.hm_levels.clone(),
            handlers: doc.handlers.clone(),
            link: doc.link,
            arq: doc.arq,
            mesh_node: doc.mesh_node.clone(),
            routes: doc.routes.clone(),
            apids: doc.apids.clone(),
            flows: doc.flows.clone(),
            gateways_allowed: doc.link.is_some(),
            spans: doc.spans.clone(),
        }
    }

    /// Whether `partition` is declared.
    pub(crate) fn knows_partition(&self, partition: PartitionId) -> bool {
        self.partitions.iter().any(|p| p.id() == partition)
    }
}
