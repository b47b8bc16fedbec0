//! Static next-hop routing for the N-node mesh.
//!
//! Routing is integration-time configuration, exactly like channel
//! wiring: every node carries a table mapping each reachable destination
//! to the neighbour the packet should leave through. There is no
//! discovery protocol and no dynamic convergence — the tables are
//! declared (`route` directives in `.air` configurations), checked
//! statically by `air-lint` (unreachable destinations, routing loops),
//! and then trusted at run time. The standard topologies (line, star,
//! ring) come with deterministic shortest-path table builders; ring
//! ties break clockwise.
//!
//! The *dynamic* layer sits on top without changing that contract:
//! [`AlternateTables`] precompute, per `(node, destination)`, a ranked
//! candidate list of next hops from the full graph (k-alternates), and a
//! [`LiveRouter`] selects among them under a live-edge mask. Selection
//! is purely a function of `(topology, mask)` — every node sees the same
//! mask, every rebuild ranks candidates by live shortest-path distance
//! with the precomputed preference as tie-break, and a packet only ever
//! moves to a node strictly closer to its destination, so routes are
//! loop-free and byte-for-byte reproducible for any fault schedule.

use std::collections::BTreeMap;

/// Initial hop budget stamped on every originated mesh packet; a relay
/// drops a packet whose budget runs out (the bound `airlint` checks
/// rerouted paths against).
pub const MESH_TTL: u8 = 16;
/// Per-hop propagation latency of a mesh edge, in ticks (the fabric
/// latency `airlint --timing` assumes for members with no `link`
/// directive).
pub const MESH_LATENCY: u64 = 2;
/// Per-hop store-and-forward slack, in ticks: decode, table lookup and
/// ARQ service ordering inside a relay's tick loop.
pub const MESH_HOP_SLACK: u64 = 4;

/// A mesh node identity, as declared by a `node` directive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u16);

impl NodeId {
    /// The raw identifier.
    pub fn as_u16(self) -> u16 {
        self.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// Why a route could not be added to a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// A route toward this destination already exists.
    DuplicateDestination {
        /// The destination declared twice.
        dst: NodeId,
    },
    /// The destination is the table's own node.
    SelfRoute {
        /// The node routing to itself.
        node: NodeId,
    },
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::DuplicateDestination { dst } => {
                write!(f, "duplicate route toward {dst}")
            }
            RouteError::SelfRoute { node } => {
                write!(f, "{node} cannot declare a route toward itself")
            }
        }
    }
}

/// One node's static next-hop table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingTable {
    node: NodeId,
    routes: BTreeMap<NodeId, NodeId>,
}

impl RoutingTable {
    /// An empty table owned by `node`.
    pub fn new(node: NodeId) -> Self {
        Self {
            node,
            routes: BTreeMap::new(),
        }
    }

    /// The owning node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Declares that packets for `dst` leave through neighbour `via`.
    /// A direct neighbour route has `dst == via`.
    pub fn add_route(&mut self, dst: NodeId, via: NodeId) -> Result<(), RouteError> {
        if dst == self.node {
            return Err(RouteError::SelfRoute { node: self.node });
        }
        if self.routes.contains_key(&dst) {
            return Err(RouteError::DuplicateDestination { dst });
        }
        self.routes.insert(dst, via);
        Ok(())
    }

    /// The neighbour packets for `dst` leave through, if routed.
    pub fn next_hop(&self, dst: NodeId) -> Option<NodeId> {
        self.routes.get(&dst).copied()
    }

    /// All `(destination, next hop)` entries in destination order.
    pub fn routes(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.routes.iter().map(|(d, v)| (*d, *v))
    }

    /// The distinct neighbours this table forwards through, ascending.
    pub fn neighbors(&self) -> Vec<NodeId> {
        let mut vias: Vec<NodeId> = self.routes.values().copied().collect();
        vias.sort_unstable();
        vias.dedup();
        vias
    }

    /// Number of routed destinations.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Whether the table routes nothing.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }
}

/// The standard mesh shapes the campaigns and benches quantify over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeshTopology {
    /// A chain `0 — 1 — … — n-1`; the diameter grows with `n`.
    Line,
    /// Node 0 is the hub; every other node is a leaf (leaf→leaf is 2 hops).
    Star,
    /// A cycle; shortest-path ties (even `n`, antipodal pairs) break
    /// clockwise.
    Ring,
}

impl MeshTopology {
    /// Stable lower-case name for logs and JSON.
    pub fn label(self) -> &'static str {
        match self {
            MeshTopology::Line => "line",
            MeshTopology::Star => "star",
            MeshTopology::Ring => "ring",
        }
    }

    /// The undirected edge set over `n` nodes, each pair normalised
    /// `(low, high)` and the list sorted — the deterministic ground truth
    /// the fabric and the routing tables are both built from.
    pub fn edges(self, n: usize) -> Vec<(usize, usize)> {
        let mut edges = Vec::new();
        if n < 2 {
            return edges;
        }
        match self {
            MeshTopology::Line => {
                for i in 0..n - 1 {
                    edges.push((i, i + 1));
                }
            }
            MeshTopology::Star => {
                for i in 1..n {
                    edges.push((0, i));
                }
            }
            MeshTopology::Ring => {
                for i in 0..n {
                    let j = (i + 1) % n;
                    let (a, b) = if i < j { (i, j) } else { (j, i) };
                    edges.push((a, b));
                }
                edges.sort_unstable();
                edges.dedup();
            }
        }
        edges
    }

    /// Deterministic shortest-path next-hop tables for every node,
    /// indexed by node. Node `i` carries [`NodeId`] `i`.
    ///
    /// # Panics
    ///
    /// Never — table construction over the built-in topologies cannot
    /// produce duplicate or self routes.
    pub fn routing_tables(self, n: usize) -> Vec<RoutingTable> {
        let mut tables: Vec<RoutingTable> = (0..n)
            .map(|i| RoutingTable::new(NodeId(i as u16)))
            .collect();
        for (i, table) in tables.iter_mut().enumerate() {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let via = match self {
                    MeshTopology::Line => {
                        if j > i {
                            i + 1
                        } else {
                            i - 1
                        }
                    }
                    MeshTopology::Star => {
                        if i == 0 {
                            j
                        } else {
                            0
                        }
                    }
                    MeshTopology::Ring => {
                        let cw = (j + n - i) % n;
                        let ccw = n - cw;
                        if cw <= ccw {
                            (i + 1) % n
                        } else {
                            (i + n - 1) % n
                        }
                    }
                };
                table
                    .add_route(NodeId(j as u16), NodeId(via as u16))
                    .expect("built-in topology tables are duplicate-free"); // lint: allow(panic) -- each (i, j) pair visited once, i != j
            }
        }
        tables
    }
}

/// Breadth-first distances from `dst` over the edges for which
/// `usable(edge_index)` holds. `usize::MAX` marks unreachable nodes.
/// Neighbour expansion is in ascending `(peer, edge)` order, so the
/// result is deterministic for any adjacency.
fn bfs_distances(
    adjacency: &[Vec<(usize, usize)>],
    dst: usize,
    usable: impl Fn(usize) -> bool,
) -> Vec<usize> {
    let mut dist = vec![usize::MAX; adjacency.len()];
    if dst >= adjacency.len() {
        return dist;
    }
    dist[dst] = 0;
    let mut frontier = vec![dst];
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &at in &frontier {
            for &(peer, edge) in &adjacency[at] {
                if usable(edge) && dist[peer] == usize::MAX {
                    dist[peer] = dist[at] + 1;
                    next.push(peer);
                }
            }
        }
        frontier = next;
    }
    dist
}

/// Sorted per-node adjacency (`(peer, edge index)` pairs) over a
/// normalised edge list.
fn build_adjacency(nodes: usize, edges: &[(usize, usize)]) -> Vec<Vec<(usize, usize)>> {
    let mut adjacency = vec![Vec::new(); nodes];
    for (idx, &(a, b)) in edges.iter().enumerate() {
        if a < nodes && b < nodes {
            adjacency[a].push((b, idx));
            adjacency[b].push((a, idx));
        }
    }
    for list in &mut adjacency {
        list.sort_unstable();
    }
    adjacency
}

/// Precomputed k-alternate next-hop candidates.
///
/// For every `(node, destination)` pair the table holds the node's
/// neighbours ranked by `(shortest-path distance from the neighbour to
/// the destination in the full graph, neighbour id)` — the primary
/// shortest-path hop first, detour hops after it — truncated to the
/// first `k`. The ranking is computed once at integration time; run-time
/// reroute decisions only *select* among these candidates, they never
/// re-rank, which keeps the selection order stable across reruns.
#[derive(Debug, Clone)]
pub struct AlternateTables {
    /// `candidates[node][dst]` = ranked next-hop candidates.
    candidates: Vec<BTreeMap<NodeId, Vec<NodeId>>>,
}

impl AlternateTables {
    /// Builds the ranked candidate lists over `nodes` nodes and a
    /// normalised `edges` list, keeping at most `k` alternates per
    /// destination (`k = usize::MAX` keeps every neighbour).
    pub fn build(nodes: usize, edges: &[(usize, usize)], k: usize) -> Self {
        let adjacency = build_adjacency(nodes, edges);
        let mut candidates: Vec<BTreeMap<NodeId, Vec<NodeId>>> =
            (0..nodes).map(|_| BTreeMap::new()).collect();
        for dst in 0..nodes {
            let dist = bfs_distances(&adjacency, dst, |_| true);
            for (node, per_node) in candidates.iter_mut().enumerate() {
                if node == dst || dist[node] == usize::MAX {
                    continue;
                }
                let mut ranked: Vec<(usize, usize)> = adjacency[node]
                    .iter()
                    .filter(|&&(peer, _)| dist[peer] != usize::MAX)
                    .map(|&(peer, _)| (dist[peer], peer))
                    .collect();
                ranked.sort_unstable();
                ranked.truncate(k);
                per_node.insert(
                    NodeId(dst as u16),
                    ranked
                        .into_iter()
                        .map(|(_, peer)| NodeId(peer as u16))
                        .collect(),
                );
            }
        }
        Self { candidates }
    }

    /// The ranked candidates for packets at `node` heading to `dst`
    /// (empty when unrouted).
    pub fn candidates(&self, node: usize, dst: NodeId) -> &[NodeId] {
        static EMPTY: [NodeId; 0] = [];
        self.candidates
            .get(node)
            .and_then(|per_node| per_node.get(&dst))
            .map_or(&EMPTY[..], Vec::as_slice)
    }
}

/// Deterministic dynamic next-hop selection under a live-edge mask.
///
/// The router owns the precomputed [`AlternateTables`] plus the current
/// mask of live edges. Whenever the mask changes it rebuilds its
/// next-hop view: for each destination a breadth-first pass over the
/// *live* subgraph computes distances, and each node picks the first
/// precomputed candidate whose edge is live and whose distance is
/// exactly one less than its own — i.e. a live shortest-path hop,
/// preferring the integration-time ranking among equals. Distance
/// strictly decreases along every selected path, so selected routes are
/// loop-free for any mask, and two routers fed the same mask history
/// produce identical tables.
#[derive(Debug, Clone)]
pub struct LiveRouter {
    nodes: usize,
    edges: Vec<(usize, usize)>,
    adjacency: Vec<Vec<(usize, usize)>>,
    alts: AlternateTables,
    live: u64,
    /// `next[node][dst]` = selected next hop under the current mask.
    next: Vec<BTreeMap<NodeId, NodeId>>,
    rebuilds: u64,
}

impl LiveRouter {
    /// Builds a router over `nodes` nodes and an `edges` list (pairs are
    /// normalised and sorted internally, matching the fabric's edge
    /// indexing). All edges start live.
    pub fn new(nodes: usize, edges: &[(usize, usize)]) -> Self {
        let mut normalised: Vec<(usize, usize)> = edges
            .iter()
            .map(|&(a, b)| if a < b { (a, b) } else { (b, a) })
            .collect();
        normalised.sort_unstable();
        normalised.dedup();
        let adjacency = build_adjacency(nodes, &normalised);
        let alts = AlternateTables::build(nodes, &normalised, usize::MAX);
        let live = if normalised.len() >= 64 {
            u64::MAX
        } else {
            (1u64 << normalised.len()) - 1
        };
        let mut router = Self {
            nodes,
            edges: normalised,
            adjacency,
            alts,
            live,
            next: Vec::new(),
            rebuilds: 0,
        };
        router.rebuild();
        router.rebuilds = 0;
        router
    }

    /// Number of edges the router tracks.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The normalised, sorted edge list (indices match the mask bits).
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Whether edge `index` is currently live in the mask.
    pub fn is_live(&self, index: usize) -> bool {
        index < self.edges.len() && self.live & (1u64 << (index as u32 & 63)) != 0
    }

    /// The current live-edge bitmask.
    pub fn live_mask(&self) -> u64 {
        self.live
    }

    /// Marks edge `index` live or dead. Returns whether the mask changed
    /// (a change rebuilds the next-hop view).
    pub fn set_edge_live(&mut self, index: usize, live: bool) -> bool {
        if index >= self.edges.len() {
            return false;
        }
        let bit = 1u64 << (index as u32 & 63);
        let updated = if live {
            self.live | bit
        } else {
            self.live & !bit
        };
        if updated == self.live {
            return false;
        }
        self.live = updated;
        self.rebuild();
        true
    }

    /// The precomputed candidate ranking (full-graph k-alternates).
    pub fn alternates(&self) -> &AlternateTables {
        &self.alts
    }

    /// The selected next hop for packets at `node` heading to `dst`
    /// under the current mask, or `None` when `dst` is unreachable over
    /// live edges.
    pub fn next_hop(&self, node: usize, dst: NodeId) -> Option<NodeId> {
        self.next.get(node)?.get(&dst).copied()
    }

    /// Materialises `node`'s selected next hops as a [`RoutingTable`]
    /// under the current mask — the drop-in replacement a mesh node
    /// installs at a reroute boundary.
    pub fn routing_table(&self, node: usize) -> RoutingTable {
        let mut table = RoutingTable::new(NodeId(node as u16));
        if let Some(per_node) = self.next.get(node) {
            for (dst, via) in per_node {
                // Entries are unique per destination and never self-routes,
                // so insertion cannot fail; ignore the impossible error to
                // stay panic-free.
                let _ = table.add_route(*dst, *via);
            }
        }
        table
    }

    /// Whether `dst` is reachable from `node` over live edges.
    pub fn reachable(&self, node: usize, dst: NodeId) -> bool {
        node < self.nodes && (NodeId(node as u16) == dst || self.next_hop(node, dst).is_some())
    }

    /// Times the next-hop view was rebuilt by a mask change.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    fn rebuild(&mut self) {
        let mut next: Vec<BTreeMap<NodeId, NodeId>> =
            (0..self.nodes).map(|_| BTreeMap::new()).collect();
        for dst in 0..self.nodes {
            let dist = bfs_distances(&self.adjacency, dst, |edge| {
                self.live & (1u64 << (edge as u32 & 63)) != 0
            });
            let dst_id = NodeId(dst as u16);
            for (node, per_node) in next.iter_mut().enumerate() {
                if node == dst || dist[node] == usize::MAX {
                    continue;
                }
                let selected = self
                    .alts
                    .candidates(node, dst_id)
                    .iter()
                    .find(|cand| {
                        let peer = cand.as_u16() as usize;
                        dist[peer].saturating_add(1) == dist[node]
                            && self.edge_is_live_between(node, peer)
                    })
                    .copied();
                if let Some(via) = selected {
                    per_node.insert(dst_id, via);
                }
            }
        }
        self.next = next;
        self.rebuilds += 1;
    }

    fn edge_is_live_between(&self, a: usize, b: usize) -> bool {
        let edge = if a < b { (a, b) } else { (b, a) };
        match self.edges.binary_search(&edge) {
            Ok(idx) => self.live & (1u64 << (idx as u32 & 63)) != 0,
            Err(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rejects_duplicates_and_self_routes() {
        let mut t = RoutingTable::new(NodeId(0));
        assert_eq!(t.add_route(NodeId(2), NodeId(1)), Ok(()));
        assert_eq!(
            t.add_route(NodeId(2), NodeId(3)),
            Err(RouteError::DuplicateDestination { dst: NodeId(2) })
        );
        assert_eq!(
            t.add_route(NodeId(0), NodeId(1)),
            Err(RouteError::SelfRoute { node: NodeId(0) })
        );
        assert_eq!(t.next_hop(NodeId(2)), Some(NodeId(1)));
        assert_eq!(t.next_hop(NodeId(9)), None);
        assert_eq!(t.neighbors(), vec![NodeId(1)]);
    }

    #[test]
    fn line_routes_walk_the_chain() {
        let tables = MeshTopology::Line.routing_tables(5);
        assert_eq!(tables[0].next_hop(NodeId(4)), Some(NodeId(1)));
        assert_eq!(tables[2].next_hop(NodeId(0)), Some(NodeId(1)));
        assert_eq!(tables[2].next_hop(NodeId(4)), Some(NodeId(3)));
        assert_eq!(MeshTopology::Line.edges(5).len(), 4);
    }

    #[test]
    fn star_routes_through_the_hub() {
        let tables = MeshTopology::Star.routing_tables(5);
        assert_eq!(tables[1].next_hop(NodeId(4)), Some(NodeId(0)));
        assert_eq!(tables[0].next_hop(NodeId(3)), Some(NodeId(3)));
        assert_eq!(MeshTopology::Star.edges(5).len(), 4);
    }

    #[test]
    fn ring_ties_break_clockwise() {
        let tables = MeshTopology::Ring.routing_tables(4);
        // Antipodal 0→2: clockwise and counter-clockwise are both 2 hops;
        // clockwise (via 1) must win.
        assert_eq!(tables[0].next_hop(NodeId(2)), Some(NodeId(1)));
        assert_eq!(tables[0].next_hop(NodeId(3)), Some(NodeId(3)));
        assert_eq!(
            MeshTopology::Ring.edges(4),
            vec![(0, 1), (0, 3), (1, 2), (2, 3)]
        );
    }

    #[test]
    fn alternate_tables_rank_shortest_first() {
        // Ring of 5: node 0's candidates toward 1 are [1 (dist 0), 4 (dist 2)].
        let edges = MeshTopology::Ring.edges(5);
        let alts = AlternateTables::build(5, &edges, usize::MAX);
        assert_eq!(alts.candidates(0, NodeId(1)), &[NodeId(1), NodeId(4)]);
        // k = 1 keeps only the primary hop.
        let primary_only = AlternateTables::build(5, &edges, 1);
        assert_eq!(primary_only.candidates(0, NodeId(1)), &[NodeId(1)]);
        // Unknown destinations have no candidates.
        assert!(alts.candidates(0, NodeId(9)).is_empty());
    }

    #[test]
    fn live_router_matches_static_tables_when_all_edges_live() {
        // With every edge live the two routers agree on every entry but
        // one kind: on an even ring the antipode of each node is as far
        // clockwise as counter-clockwise. The static tables go clockwise;
        // the live router takes its lower-id neighbour, which is the
        // counter-clockwise one for every node but 0 and n - 1. Both walks
        // take n / 2 hops.
        fn walk(
            n: usize,
            mut at: usize,
            dst: usize,
            hop: impl Fn(usize) -> Option<NodeId>,
        ) -> usize {
            let mut hops = 0;
            while at != dst {
                at = hop(at).expect("complete tables").as_u16() as usize;
                hops += 1;
                assert!(hops < n, "{at}->{dst} loops");
            }
            hops
        }
        for topo in [MeshTopology::Line, MeshTopology::Star, MeshTopology::Ring] {
            for n in 2..=16usize {
                let router = LiveRouter::new(n, &topo.edges(n));
                let tables = topo.routing_tables(n);
                let mut departures = 0;
                for src in 0..n {
                    for dst in 0..n {
                        if src == dst {
                            continue;
                        }
                        let to = NodeId(dst as u16);
                        let antipode = topo == MeshTopology::Ring
                            && n % 2 == 0
                            && (dst + n - src) % n == n / 2;
                        if !antipode {
                            assert_eq!(
                                router.next_hop(src, to),
                                tables[src].next_hop(to),
                                "{} {n}: {src}->{dst}",
                                topo.label()
                            );
                            continue;
                        }
                        if router.next_hop(src, to) != tables[src].next_hop(to) {
                            departures += 1;
                        }
                        let live = walk(n, src, dst, |at| router.next_hop(at, to));
                        let fixed = walk(n, src, dst, |at| tables[at].next_hop(to));
                        assert_eq!((live, fixed), (n / 2, n / 2), "ring {n}: {src}->{dst}");
                    }
                }
                let expected = if topo == MeshTopology::Ring && n % 2 == 0 {
                    n - 2
                } else {
                    0
                };
                assert_eq!(departures, expected, "{} {n}", topo.label());
            }
        }
        // Ring 6: node 2 reaches its antipode 5 via 1 live, via 3 static.
        let router = LiveRouter::new(6, &MeshTopology::Ring.edges(6));
        assert_eq!(router.next_hop(2, NodeId(5)), Some(NodeId(1)));
        let tables = MeshTopology::Ring.routing_tables(6);
        assert_eq!(tables[2].next_hop(NodeId(5)), Some(NodeId(3)));
    }

    #[test]
    fn live_router_reroutes_around_a_dead_edge() {
        // Ring of 5: kill edge (0, 1); 0→1 must go the long way via 4.
        let edges = MeshTopology::Ring.edges(5);
        let mut router = LiveRouter::new(5, &edges);
        let idx = edges.iter().position(|&e| e == (0, 1)).expect("edge");
        assert!(router.is_live(idx));
        assert!(router.set_edge_live(idx, false));
        assert!(!router.set_edge_live(idx, false), "idempotent");
        assert!(!router.is_live(idx));
        assert_eq!(router.next_hop(0, NodeId(1)), Some(NodeId(4)));
        assert_eq!(router.next_hop(1, NodeId(0)), Some(NodeId(2)));
        // Restoring the edge restores the primary hop.
        assert!(router.set_edge_live(idx, true));
        assert_eq!(router.next_hop(0, NodeId(1)), Some(NodeId(1)));
        assert_eq!(router.rebuilds(), 2);
    }

    #[test]
    fn live_router_drops_unreachable_destinations() {
        // Line of 4: kill the bridge (1, 2); the halves cannot see each
        // other but intra-half routes survive.
        let edges = MeshTopology::Line.edges(4);
        let mut router = LiveRouter::new(4, &edges);
        let idx = edges.iter().position(|&e| e == (1, 2)).expect("edge");
        router.set_edge_live(idx, false);
        assert_eq!(router.next_hop(0, NodeId(3)), None);
        assert!(!router.reachable(0, NodeId(3)));
        assert!(router.reachable(0, NodeId(1)));
        assert!(router.reachable(2, NodeId(3)));
        assert!(router.reachable(2, NodeId(2)), "self is always reachable");
    }

    #[test]
    fn live_router_is_loop_free_under_every_single_edge_loss() {
        for topo in [MeshTopology::Line, MeshTopology::Star, MeshTopology::Ring] {
            for n in 3..=9usize {
                let edges = topo.edges(n);
                for dead in 0..edges.len() {
                    let mut router = LiveRouter::new(n, &edges);
                    router.set_edge_live(dead, false);
                    for src in 0..n {
                        for dst in 0..n {
                            if src == dst {
                                continue;
                            }
                            let mut at = src;
                            let mut hops = 0;
                            while at != dst {
                                let Some(via) = router.next_hop(at, NodeId(dst as u16)) else {
                                    break; // genuinely severed
                                };
                                at = via.as_u16() as usize;
                                hops += 1;
                                assert!(
                                    hops < n,
                                    "{}: {src}->{dst} loops with edge {dead} dead",
                                    topo.label()
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_topology_walk_terminates() {
        for topo in [MeshTopology::Line, MeshTopology::Star, MeshTopology::Ring] {
            for n in 2..=9usize {
                let tables = topo.routing_tables(n);
                for src in 0..n {
                    for dst in 0..n {
                        if src == dst {
                            continue;
                        }
                        let mut at = src;
                        let mut hops = 0;
                        while at != dst {
                            let via = tables[at]
                                .next_hop(NodeId(dst as u16))
                                .expect("complete tables");
                            at = via.as_u16() as usize;
                            hops += 1;
                            assert!(hops <= n, "{}: {src}->{dst} loops", topo.label());
                        }
                    }
                }
            }
        }
    }
}
