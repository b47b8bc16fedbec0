//! Next-hop routing for the N-node mesh.
//!
//! One function picks every hop the mesh simulator takes: the
//! [`LiveRouter`]. For each destination a node forwards to a neighbour
//! on a shortest path over the edges currently live; among several such
//! neighbours it takes the one closest to the destination in the full
//! graph, then the lower id. A static campaign is one whose router never
//! marks an edge dead; a self-healing campaign marks edges dead and live
//! as its health monitors decide, and the router rebuilds its view at
//! each change. Selection is a function of the topology and the live
//! edges alone, and a packet only ever moves to a node strictly closer to
//! its destination, so routes are loop-free and reproducible byte for
//! byte under any fault schedule.
//!
//! The `route` directives of `.air` configurations are a declared layer
//! beside this one: `air-lint` checks them statically (unreachable
//! destinations, routing loops, certified flow latencies), but the
//! simulator never reads them. Its mesh nodes are built from a
//! [`MeshTopology`], not from configuration documents, so nothing at run
//! time holds a declared table to the router's choice.

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

/// The standard mesh shapes the campaigns and benches quantify over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeshTopology {
    /// A chain `0 — 1 — … — n-1`; the diameter grows with `n`.
    Line,
    /// Node 0 is the hub; every other node is a leaf (leaf→leaf is 2 hops).
    Star,
    /// A cycle; on an even ring each node's antipode is as far one way
    /// as the other, and the router sends it through the lower-id
    /// neighbour.
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
    /// the fabric and the router are both built from.
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
}

/// The distance of a node with no path to the destination.
const UNREACHABLE: usize = usize::MAX;

/// Breadth-first distances to `dst` over the edges for which
/// `usable(edge_index)` holds, written into `dist` (one slot per node;
/// [`UNREACHABLE`] where no path exists).
fn bfs_distances(
    adjacency: &[Vec<(usize, usize)>],
    dst: usize,
    usable: impl Fn(usize) -> bool,
    dist: &mut [usize],
) {
    dist.fill(UNREACHABLE);
    dist[dst] = 0;
    let mut frontier = vec![dst];
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &at in &frontier {
            for &(peer, edge) in &adjacency[at] {
                if usable(edge) && dist[peer] == UNREACHABLE {
                    dist[peer] = dist[at] + 1;
                    next.push(peer);
                }
            }
        }
        frontier = next;
    }
}

/// The mesh's next-hop function under a set of live edges.
///
/// The router keeps one live flag per edge and, in a flat
/// `nodes × nodes` array, the hop each node takes toward each
/// destination. Whenever a flag changes it rebuilds that array: for each
/// destination a breadth-first pass over the live edges computes
/// distances, and each node picks, among its live neighbours exactly one
/// hop closer, the one with the smallest `(full-graph distance, id)`.
/// The full-graph distances are computed once, at construction. Distance
/// strictly decreases along every selected path, so routes are loop-free
/// for any set of live edges, and two routers fed the same toggles
/// answer identically.
#[derive(Debug, Clone)]
pub struct LiveRouter {
    nodes: usize,
    edges: Vec<(usize, usize)>,
    /// Per node: `(peer, edge index)` pairs.
    adjacency: Vec<Vec<(usize, usize)>>,
    /// `full[dst * nodes + node]`: hops from `node` to `dst` with every
    /// edge live (the tie-break).
    full: Vec<usize>,
    /// One flag per edge, indexed like `edges`.
    live: Vec<bool>,
    /// `next[node * nodes + dst]`: the selected hop under `live`.
    next: Vec<Option<NodeId>>,
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
        let mut adjacency = vec![Vec::new(); nodes];
        for (idx, &(a, b)) in normalised.iter().enumerate() {
            if a < nodes && b < nodes {
                adjacency[a].push((b, idx));
                adjacency[b].push((a, idx));
            }
        }
        let mut full = vec![UNREACHABLE; nodes * nodes];
        for dst in 0..nodes {
            let dist = &mut full[dst * nodes..(dst + 1) * nodes];
            bfs_distances(&adjacency, dst, |_| true, dist);
        }
        let mut router = Self {
            nodes,
            live: vec![true; normalised.len()],
            edges: normalised,
            adjacency,
            full,
            next: vec![None; nodes * nodes],
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

    /// The normalised, sorted edge list (the indices
    /// [`LiveRouter::set_edge_live`] takes).
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Whether edge `index` is currently live.
    pub fn is_live(&self, index: usize) -> bool {
        self.live.get(index) == Some(&true)
    }

    /// Marks edge `index` live or dead. Returns whether its flag changed
    /// (a change rebuilds the next-hop view).
    pub fn set_edge_live(&mut self, index: usize, live: bool) -> bool {
        match self.live.get_mut(index) {
            Some(flag) if *flag != live => *flag = live,
            _ => return false,
        }
        self.rebuild();
        true
    }

    /// The selected next hop for packets at `node` heading to `dst`
    /// under the current live edges, or `None` when `dst` is unreachable
    /// over them (or either index is out of range).
    pub fn next_hop(&self, node: usize, dst: NodeId) -> Option<NodeId> {
        let dst = usize::from(dst.as_u16());
        if node >= self.nodes || dst >= self.nodes {
            return None;
        }
        self.next[node * self.nodes + dst]
    }

    /// Whether `dst` is reachable from `node` over live edges.
    pub fn reachable(&self, node: usize, dst: NodeId) -> bool {
        node < self.nodes && (NodeId(node as u16) == dst || self.next_hop(node, dst).is_some())
    }

    /// Times the next-hop view was rebuilt by a live-flag change.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    fn rebuild(&mut self) {
        let n = self.nodes;
        let mut dist = vec![UNREACHABLE; n];
        for dst in 0..n {
            bfs_distances(&self.adjacency, dst, |edge| self.live[edge], &mut dist);
            let full = &self.full[dst * n..(dst + 1) * n];
            for (node, &own) in dist.iter().enumerate() {
                self.next[node * n + dst] = if node == dst || own == UNREACHABLE {
                    None
                } else {
                    self.adjacency[node]
                        .iter()
                        .filter(|&&(peer, edge)| {
                            self.live[edge] && dist[peer].saturating_add(1) == own
                        })
                        .min_by_key(|&&(peer, _)| (full[peer], peer))
                        .map(|&(peer, _)| NodeId(peer as u16))
                };
            }
        }
        self.rebuilds += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOPOLOGIES: [MeshTopology; 3] =
        [MeshTopology::Line, MeshTopology::Star, MeshTopology::Ring];

    /// Hops between `a` and `b` on an `n`-node `topo`, in closed form.
    fn distance(topo: MeshTopology, n: usize, a: usize, b: usize) -> usize {
        match topo {
            MeshTopology::Line => a.abs_diff(b),
            MeshTopology::Star if a == b => 0,
            MeshTopology::Star if a == 0 || b == 0 => 1,
            MeshTopology::Star => 2,
            MeshTopology::Ring => a.abs_diff(b).min(n - a.abs_diff(b)),
        }
    }

    #[test]
    fn line_routes_walk_the_chain() {
        let router = LiveRouter::new(5, &MeshTopology::Line.edges(5));
        assert_eq!(router.next_hop(0, NodeId(4)), Some(NodeId(1)));
        assert_eq!(router.next_hop(2, NodeId(0)), Some(NodeId(1)));
        assert_eq!(router.next_hop(2, NodeId(4)), Some(NodeId(3)));
        assert_eq!(MeshTopology::Line.edges(5).len(), 4);
    }

    #[test]
    fn star_routes_through_the_hub() {
        let router = LiveRouter::new(5, &MeshTopology::Star.edges(5));
        assert_eq!(router.next_hop(1, NodeId(4)), Some(NodeId(0)));
        assert_eq!(router.next_hop(0, NodeId(3)), Some(NodeId(3)));
        assert_eq!(MeshTopology::Star.edges(5).len(), 4);
    }

    #[test]
    fn even_ring_antipodes_take_the_lower_id_neighbour() {
        assert_eq!(
            MeshTopology::Ring.edges(4),
            vec![(0, 1), (0, 3), (1, 2), (2, 3)]
        );
        for n in (4..=16usize).step_by(2) {
            let router = LiveRouter::new(n, &MeshTopology::Ring.edges(n));
            for src in 0..n {
                let antipode = NodeId(((src + n / 2) % n) as u16);
                let lower = ((src + 1) % n).min((src + n - 1) % n);
                assert_eq!(
                    router.next_hop(src, antipode),
                    Some(NodeId(lower as u16)),
                    "ring {n}: {src}->{antipode}"
                );
            }
        }
        // Ring 6: node 2 reaches its antipode 5 through 1, not 3.
        let router = LiveRouter::new(6, &MeshTopology::Ring.edges(6));
        assert_eq!(router.next_hop(2, NodeId(5)), Some(NodeId(1)));
    }

    #[test]
    fn live_ties_prefer_the_neighbour_nearer_in_the_full_graph() {
        // Node 0 reaches 3 through 1 (1-5-3) or through 2 (2-3, or 2-4-3
        // once (2, 3) is dead). With (2, 3) dead both neighbours are two
        // live hops from 3, and 2 wins although 1 has the lower id:
        // 2 is one hop from 3 in the full graph, 1 is two.
        let edges = [(0, 1), (0, 2), (1, 5), (3, 5), (2, 3), (2, 4), (3, 4)];
        let mut router = LiveRouter::new(6, &edges);
        assert_eq!(router.next_hop(0, NodeId(3)), Some(NodeId(2)));
        let dead = router
            .edges()
            .iter()
            .position(|&e| e == (2, 3))
            .expect("edge");
        assert!(router.set_edge_live(dead, false));
        assert_eq!(router.next_hop(0, NodeId(3)), Some(NodeId(2)));
        assert_eq!(router.next_hop(2, NodeId(3)), Some(NodeId(4)));
    }

    #[test]
    fn every_all_live_hop_is_on_a_shortest_path() {
        for topo in TOPOLOGIES {
            for n in 2..=16usize {
                let edges = topo.edges(n);
                let router = LiveRouter::new(n, &edges);
                for src in 0..n {
                    for dst in 0..n {
                        if src == dst {
                            continue;
                        }
                        let via = router
                            .next_hop(src, NodeId(dst as u16))
                            .expect("every pair is connected")
                            .as_u16() as usize;
                        let label = topo.label();
                        assert!(
                            edges.contains(&(src.min(via), src.max(via))),
                            "{label} {n}: {src}->{dst} leaves through non-neighbour {via}"
                        );
                        assert_eq!(
                            distance(topo, n, via, dst) + 1,
                            distance(topo, n, src, dst),
                            "{label} {n}: {src}->{dst} via {via} is off every shortest path"
                        );
                    }
                }
            }
        }
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
        for topo in TOPOLOGIES {
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
    fn edges_beyond_the_sixty_fourth_keep_their_own_liveness() {
        // Ring of 70: edge 64 is (63, 64), far from node 0. Killing it
        // must leave edge 0, (0, 1), and the direct hop over it alone.
        let edges = MeshTopology::Ring.edges(70);
        let mut router = LiveRouter::new(70, &edges);
        assert_eq!(edges[0], (0, 1));
        assert!(router.set_edge_live(64, false));
        assert!(!router.is_live(64));
        assert!(router.is_live(0));
        assert_eq!(router.next_hop(0, NodeId(1)), Some(NodeId(1)));
        assert!(router.reachable(0, NodeId(1)));
    }

    #[test]
    fn router_differential_digest_is_pinned() {
        // Line, star and ring over 3..=16 nodes, each under a seeded
        // sequence of edge toggles (including out-of-range indices). The
        // digest folds every toggle's return value, then every
        // `next_hop` and `reachable` answer over all (node, destination)
        // pairs plus one out-of-range index on each side, and the rebuild
        // count. The value was recorded with the router that kept the
        // next hops in per-node maps and the live edges in a `u64` mask;
        // any change to the selection rule moves it.
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |value: u64| {
            for byte in value.to_le_bytes() {
                digest ^= u64::from(byte);
                digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for topo in TOPOLOGIES {
            for n in 3..=16usize {
                let edges = topo.edges(n);
                let mut router = LiveRouter::new(n, &edges);
                let mut rng = air_model::testkit::TestRng::new(0x0D1F_0000 + n as u64);
                for step in 0..=24 {
                    if step > 0 {
                        let index = rng.below_usize(edges.len() + 1);
                        let live = rng.chance(2, 5);
                        fold(u64::from(router.set_edge_live(index, live)));
                    }
                    for src in 0..=n {
                        for dst in 0..=n {
                            let to = NodeId(dst as u16);
                            fold(router.next_hop(src, to).map_or(u64::MAX, |v| v.0.into()));
                            fold(u64::from(router.reachable(src, to)));
                        }
                    }
                    fold(router.rebuilds());
                }
            }
        }
        assert_eq!(
            digest, 0xa3b4_5f09_d9ed_6672,
            "router digest moved: {digest:#018x}"
        );
    }

    #[test]
    fn every_topology_walk_terminates() {
        for topo in TOPOLOGIES {
            for n in 2..=9usize {
                let router = LiveRouter::new(n, &topo.edges(n));
                for src in 0..n {
                    for dst in 0..n {
                        let mut at = src;
                        let mut hops = 0;
                        while at != dst {
                            let via = router
                                .next_hop(at, NodeId(dst as u16))
                                .expect("every pair is connected");
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
