//! The mesh fabric: one point-to-point inter-node link per topology
//! edge.
//!
//! A mesh of N emulated nodes is wired at integration time from
//! [`InterNodeLink`]s — the same latency-modelled, fault-injectable
//! pipes the two-node cluster uses — one per undirected edge. The
//! fabric owns the links and the adjacency; nodes address each other by
//! index and the fabric resolves which link and which endpoint carries
//! the hop. Edges are normalised `(low, high)` with the low-index node
//! on [`LinkEndpoint::A`], and adjacency lists are kept sorted, so every
//! iteration order a simulation can observe is deterministic.

use crate::link::{InterNodeLink, LinkEndpoint};

/// Tuning for the per-edge health monitors.
///
/// The evidence model mirrors [`crate::redundant::RedundantLink`]: loss
/// evidence arrives from *above* (the reliable transport reports each
/// retransmission timeout round), because the physical layer cannot
/// distinguish a lost frame from a silent peer. While an edge is down
/// the monitor paces probe frames; a streak of clean probe echoes
/// restores the edge (probationary recovery).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeMonitorConfig {
    /// Consecutive loss rounds that declare the edge dead.
    pub down_threshold: u32,
    /// Ticks between probe frames while the edge is down.
    pub probe_interval: u64,
    /// Consecutive clean probe echoes that restore the edge.
    pub recovery_threshold: u32,
}

impl Default for EdgeMonitorConfig {
    fn default() -> Self {
        Self {
            down_threshold: 3,
            probe_interval: 16,
            recovery_threshold: 2,
        }
    }
}

/// A health transition reported by [`MeshFabric::record_edge_loss`] or
/// [`MeshFabric::record_edge_delivery`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeHealthEvent {
    /// The loss streak crossed the threshold: the edge is now dead.
    Down,
    /// The probe streak crossed the threshold: the edge recovered.
    Up,
}

/// Read-only snapshot of one edge monitor, for status reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeHealth {
    /// Whether the monitor currently believes the edge carries traffic.
    pub live: bool,
    /// Consecutive loss rounds since the last clean delivery.
    pub consecutive_losses: u32,
    /// Consecutive clean probe echoes since the edge went down.
    pub clean_probes: u32,
    /// Times the edge was declared dead.
    pub downs: u64,
    /// Times the edge was declared recovered.
    pub ups: u64,
}

/// Per-edge loss-streak/probation state machine (one per fabric edge).
#[derive(Debug, Clone)]
struct EdgeMonitor {
    live: bool,
    consecutive_losses: u32,
    clean_probes: u32,
    downs: u64,
    ups: u64,
    last_probe_at: u64,
}

impl EdgeMonitor {
    fn new() -> Self {
        Self {
            live: true,
            consecutive_losses: 0,
            clean_probes: 0,
            downs: 0,
            ups: 0,
            last_probe_at: 0,
        }
    }

    fn record_loss(&mut self, cfg: &EdgeMonitorConfig, now: u64) -> Option<EdgeHealthEvent> {
        if !self.live {
            // A probe that went unanswered restarts the recovery streak.
            self.clean_probes = 0;
            return None;
        }
        self.consecutive_losses += 1;
        if cfg.down_threshold == 0 || self.consecutive_losses < cfg.down_threshold {
            return None;
        }
        self.live = false;
        self.clean_probes = 0;
        self.downs += 1;
        self.last_probe_at = now;
        Some(EdgeHealthEvent::Down)
    }

    fn record_delivery(&mut self, cfg: &EdgeMonitorConfig) -> Option<EdgeHealthEvent> {
        if self.live {
            self.consecutive_losses = 0;
            return None;
        }
        self.clean_probes += 1;
        if self.clean_probes < cfg.recovery_threshold {
            return None;
        }
        self.live = true;
        self.consecutive_losses = 0;
        self.clean_probes = 0;
        self.ups += 1;
        Some(EdgeHealthEvent::Up)
    }

    fn probe_due(&mut self, cfg: &EdgeMonitorConfig, now: u64) -> bool {
        if self.live || now < self.last_probe_at.saturating_add(cfg.probe_interval) {
            return false;
        }
        self.last_probe_at = now;
        true
    }
}

/// Why a fabric could not be built from an edge list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeshTopologyError {
    /// An edge names a node index at or beyond the node count.
    EdgeOutOfRange {
        /// The offending edge.
        edge: (usize, usize),
        /// The declared node count.
        nodes: usize,
    },
    /// An edge connects a node to itself.
    SelfEdge {
        /// The node with the self-edge.
        node: usize,
    },
    /// The same undirected edge appears twice.
    DuplicateEdge {
        /// The duplicated edge, normalised `(low, high)`.
        edge: (usize, usize),
    },
}

impl std::fmt::Display for MeshTopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeshTopologyError::EdgeOutOfRange { edge, nodes } => {
                write!(
                    f,
                    "edge ({}, {}) exceeds the {nodes}-node fabric",
                    edge.0, edge.1
                )
            }
            MeshTopologyError::SelfEdge { node } => {
                write!(f, "node {node} cannot be linked to itself")
            }
            MeshTopologyError::DuplicateEdge { edge } => {
                write!(f, "edge ({}, {}) declared twice", edge.0, edge.1)
            }
        }
    }
}

/// The links and adjacency of an N-node mesh.
#[derive(Debug)]
pub struct MeshFabric {
    nodes: usize,
    /// Normalised `(low, high)` node pairs, sorted; `links[i]` carries
    /// `edges[i]`.
    edges: Vec<(usize, usize)>,
    links: Vec<InterNodeLink>,
    /// Per node: `(peer, edge index)` pairs sorted by peer.
    adjacency: Vec<Vec<(usize, usize)>>,
    /// Per-edge health monitors, present once installed.
    monitors: Vec<EdgeMonitor>,
    monitor_config: EdgeMonitorConfig,
}

impl MeshFabric {
    /// Builds a fabric over `nodes` nodes from an undirected `edges`
    /// list, every link modelling `latency_ticks` of flight time.
    pub fn new(
        nodes: usize,
        edges: &[(usize, usize)],
        latency_ticks: u64,
    ) -> Result<Self, MeshTopologyError> {
        let mut normalised: Vec<(usize, usize)> = Vec::with_capacity(edges.len());
        for &(a, b) in edges {
            if a == b {
                return Err(MeshTopologyError::SelfEdge { node: a });
            }
            if a >= nodes || b >= nodes {
                return Err(MeshTopologyError::EdgeOutOfRange {
                    edge: (a, b),
                    nodes,
                });
            }
            let edge = if a < b { (a, b) } else { (b, a) };
            normalised.push(edge);
        }
        normalised.sort_unstable();
        if let Some(window) = normalised.windows(2).find(|w| w[0] == w[1]) {
            return Err(MeshTopologyError::DuplicateEdge { edge: window[0] });
        }
        let links = normalised
            .iter()
            .map(|_| InterNodeLink::new(latency_ticks))
            .collect();
        let mut adjacency = vec![Vec::new(); nodes];
        for (idx, &(a, b)) in normalised.iter().enumerate() {
            adjacency[a].push((b, idx));
            adjacency[b].push((a, idx));
        }
        for list in &mut adjacency {
            list.sort_unstable();
        }
        Ok(Self {
            nodes,
            edges: normalised,
            links,
            adjacency,
            monitors: Vec::new(),
            monitor_config: EdgeMonitorConfig::default(),
        })
    }

    /// Installs one health monitor per edge. Before this call every
    /// health query treats all edges as live and all evidence is
    /// discarded; installing twice resets all monitor state.
    pub fn install_monitors(&mut self, config: EdgeMonitorConfig) {
        self.monitor_config = config;
        self.monitors = self.edges.iter().map(|_| EdgeMonitor::new()).collect();
    }

    /// Whether health monitors are installed.
    pub fn monitored(&self) -> bool {
        !self.monitors.is_empty()
    }

    /// Records one loss round on edge `index` (a retransmission timeout
    /// reported by the transport above). Returns the health transition
    /// if the streak crossed the dead threshold.
    pub fn record_edge_loss(&mut self, index: usize, now: u64) -> Option<EdgeHealthEvent> {
        let cfg = self.monitor_config;
        self.monitors.get_mut(index)?.record_loss(&cfg, now)
    }

    /// Records a clean delivery (acknowledgement or probe echo) on edge
    /// `index`. Returns the health transition if the probe streak
    /// restored a dead edge.
    pub fn record_edge_delivery(&mut self, index: usize) -> Option<EdgeHealthEvent> {
        let cfg = self.monitor_config;
        self.monitors.get_mut(index)?.record_delivery(&cfg)
    }

    /// Whether a probe frame is due on the dead edge `index` at `now`.
    /// Consuming: a `true` answer arms the next probe one interval out.
    pub fn edge_probe_due(&mut self, index: usize, now: u64) -> bool {
        let cfg = self.monitor_config;
        self.monitors
            .get_mut(index)
            .is_some_and(|m| m.probe_due(&cfg, now))
    }

    /// The earliest tick at which a dead edge's next probe falls due
    /// (`None`: no monitors, or every edge live). Read-only: the probe is
    /// still claimed through [`MeshFabric::edge_probe_due`].
    pub fn next_probe(&self) -> Option<u64> {
        let interval = self.monitor_config.probe_interval;
        self.monitors
            .iter()
            .filter(|m| !m.live)
            .map(|m| m.last_probe_at.saturating_add(interval))
            .min()
    }

    /// Whether edge `index` is currently believed live. Unmonitored
    /// fabrics (and out-of-range indices on them) report live.
    pub fn edge_live(&self, index: usize) -> bool {
        self.monitors.get(index).is_none_or(|m| m.live)
    }

    /// Snapshot of the monitor on edge `index`, if installed.
    pub fn edge_health(&self, index: usize) -> Option<EdgeHealth> {
        self.monitors.get(index).map(|m| EdgeHealth {
            live: m.live,
            consecutive_losses: m.consecutive_losses,
            clean_probes: m.clean_probes,
            downs: m.downs,
            ups: m.ups,
        })
    }

    /// Number of nodes the fabric wires.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of links (undirected edges).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The normalised, sorted edge list; index positions match
    /// [`MeshFabric::link_mut`].
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// `node`'s neighbours as sorted `(peer, edge index)` pairs.
    pub fn neighbors(&self, node: usize) -> &[(usize, usize)] {
        static EMPTY: [(usize, usize); 0] = [];
        self.adjacency.get(node).map_or(&EMPTY[..], Vec::as_slice)
    }

    /// The edge index between `a` and `b`, if they are linked.
    pub fn edge_between(&self, a: usize, b: usize) -> Option<usize> {
        let edge = if a < b { (a, b) } else { (b, a) };
        self.edges.binary_search(&edge).ok()
    }

    /// The link carrying edge `index` — the hook fault campaigns use for
    /// in-flight drops, tampering and outages.
    pub fn link_mut(&mut self, index: usize) -> Option<&mut InterNodeLink> {
        self.links.get_mut(index)
    }

    /// The link carrying edge `index`, read-only.
    pub fn link(&self, index: usize) -> Option<&InterNodeLink> {
        self.links.get(index)
    }

    /// Which endpoint `node` occupies on edge `(a, b)`: the low index
    /// sits on [`LinkEndpoint::A`].
    fn endpoint_of(edge: (usize, usize), node: usize) -> LinkEndpoint {
        if node == edge.0 {
            LinkEndpoint::A
        } else {
            LinkEndpoint::B
        }
    }

    /// Sends `payload` from `from` to its direct neighbour `to`; returns
    /// `false` (payload discarded) when no edge links the pair.
    pub fn send(&mut self, from: usize, to: usize, now: u64, payload: Vec<u8>) -> bool {
        let Some(idx) = self.edge_between(from, to) else {
            return false;
        };
        let edge = self.edges[idx];
        let endpoint = Self::endpoint_of(edge, from);
        if let Some(link) = self.links.get_mut(idx) {
            link.send(endpoint, now, payload);
            true
        } else {
            false
        }
    }

    /// Receives the next deliverable payload at `node` from neighbour
    /// `peer`, if any has arrived by `now`.
    pub fn receive_from(&mut self, node: usize, peer: usize, now: u64) -> Option<Vec<u8>> {
        let idx = self.edge_between(node, peer)?;
        let edge = self.edges[idx];
        let endpoint = Self::endpoint_of(edge, node);
        self.links.get_mut(idx)?.receive(endpoint, now)
    }

    /// The earliest tick at which any link delivers a frame in flight
    /// (`None`: the fabric is empty).
    pub fn next_delivery(&self) -> Option<u64> {
        self.links
            .iter()
            .filter_map(InterNodeLink::next_delivery)
            .min()
    }

    /// Total frames handed to all links.
    pub fn sent(&self) -> u64 {
        self.links.iter().map(InterNodeLink::sent).sum()
    }

    /// Total frames delivered by all links.
    pub fn delivered(&self) -> u64 {
        self.links.iter().map(InterNodeLink::delivered).sum()
    }

    /// Total frames destroyed in flight across all links.
    pub fn dropped(&self) -> u64 {
        self.links.iter().map(InterNodeLink::dropped).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_normalises_edges() {
        let fabric = MeshFabric::new(3, &[(1, 0), (2, 1)], 1).expect("valid");
        assert_eq!(fabric.edges(), &[(0, 1), (1, 2)]);
        assert_eq!(fabric.neighbors(1), &[(0, 0), (2, 1)]);
        assert_eq!(fabric.edge_between(2, 1), Some(1));
        assert_eq!(fabric.edge_between(0, 2), None);
        assert_eq!(fabric.node_count(), 3);
        assert_eq!(fabric.edge_count(), 2);
    }

    #[test]
    fn rejects_bad_topologies() {
        assert!(matches!(
            MeshFabric::new(2, &[(0, 0)], 1),
            Err(MeshTopologyError::SelfEdge { node: 0 })
        ));
        assert!(matches!(
            MeshFabric::new(2, &[(0, 3)], 1),
            Err(MeshTopologyError::EdgeOutOfRange { .. })
        ));
        assert!(matches!(
            MeshFabric::new(3, &[(0, 1), (1, 0)], 1),
            Err(MeshTopologyError::DuplicateEdge { edge: (0, 1) })
        ));
    }

    #[test]
    fn delivers_point_to_point_with_latency() {
        let mut fabric = MeshFabric::new(3, &[(0, 1), (1, 2)], 2).expect("valid");
        assert_eq!(fabric.next_delivery(), None);
        assert!(fabric.send(0, 1, 10, b"hop".to_vec()));
        assert!(!fabric.send(0, 2, 10, b"no edge".to_vec()));
        assert!(fabric.send(2, 1, 11, b"later".to_vec()));
        assert_eq!(fabric.next_delivery(), Some(12));
        assert_eq!(fabric.receive_from(1, 2, 13), Some(b"later".to_vec()));
        assert_eq!(fabric.receive_from(1, 0, 11), None);
        assert_eq!(fabric.receive_from(1, 0, 12), Some(b"hop".to_vec()));
        // The reverse direction of the same edge.
        assert!(fabric.send(1, 0, 12, b"back".to_vec()));
        assert_eq!(fabric.receive_from(0, 1, 14), Some(b"back".to_vec()));
        assert_eq!(fabric.next_delivery(), None);
        assert_eq!(fabric.sent(), 3);
        assert_eq!(fabric.delivered(), 3);
    }

    #[test]
    fn monitors_declare_edges_dead_and_recover_on_probes() {
        let mut fabric = MeshFabric::new(3, &[(0, 1), (1, 2)], 1).expect("valid");
        // Unmonitored: everything reads live, evidence is discarded.
        assert!(!fabric.monitored());
        assert_eq!(fabric.next_probe(), None);
        assert!(fabric.edge_live(0));
        assert_eq!(fabric.record_edge_loss(0, 5), None);
        assert_eq!(fabric.edge_health(0), None);

        fabric.install_monitors(EdgeMonitorConfig {
            down_threshold: 2,
            probe_interval: 10,
            recovery_threshold: 2,
        });
        assert!(fabric.monitored());
        assert!(fabric.edge_live(0) && fabric.edge_live(1));

        // A clean delivery resets the streak.
        assert_eq!(fabric.record_edge_loss(0, 5), None);
        assert_eq!(fabric.record_edge_delivery(0), None);
        assert_eq!(fabric.record_edge_loss(0, 6), None);
        assert_eq!(fabric.record_edge_loss(0, 7), Some(EdgeHealthEvent::Down));
        assert!(!fabric.edge_live(0));
        assert!(fabric.edge_live(1));

        // Probes pace at the configured interval from the down tick.
        assert_eq!(fabric.next_probe(), Some(17));
        assert!(!fabric.edge_probe_due(0, 7));
        assert!(!fabric.edge_probe_due(0, 16));
        assert!(fabric.edge_probe_due(0, 17));
        assert!(!fabric.edge_probe_due(0, 18), "next probe re-armed");
        assert_eq!(fabric.next_probe(), Some(27));
        assert!(!fabric.edge_probe_due(1, 17), "live edges never probe");

        // A lost probe restarts the recovery streak.
        assert_eq!(fabric.record_edge_delivery(0), None);
        assert_eq!(fabric.record_edge_loss(0, 27), None);
        assert_eq!(fabric.record_edge_delivery(0), None);
        assert_eq!(fabric.record_edge_delivery(0), Some(EdgeHealthEvent::Up));
        assert!(fabric.edge_live(0));
        assert_eq!(fabric.next_probe(), None, "live edges never probe");
        let health = fabric.edge_health(0).expect("monitored");
        assert_eq!((health.downs, health.ups), (1, 1));
        assert_eq!(health.consecutive_losses, 0);
    }

    #[test]
    fn fault_hooks_reach_individual_links() {
        let mut fabric = MeshFabric::new(3, &[(0, 1), (1, 2)], 1).expect("valid");
        fabric.send(1, 2, 5, b"doomed".to_vec());
        let idx = fabric.edge_between(1, 2).expect("edge");
        assert!(fabric
            .link_mut(idx)
            .expect("link")
            .drop_in_flight(LinkEndpoint::B));
        assert_eq!(fabric.receive_from(2, 1, 20), None);
        assert_eq!(fabric.dropped(), 1);
    }
}
