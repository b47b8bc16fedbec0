//! Mesh-level cross-analysis (AIR090–AIR094): the node descriptions of
//! an N-node routed mesh must agree on identities, routes and APID
//! ownership. Each document declares who it is (`node`), how packets
//! leave it (`route … via=…`, with a direct neighbour written as
//! `route N<k> via=N<k>`), and which packet streams it originates
//! (`apid`). A missing identity, a destination with no local route, a
//! routing walk that revisits a node, a route into an undeclared node,
//! or two nodes claiming the same APID are integration faults no
//! single-document lint can see.
//!
//! Soundness caveat: the analysis is static. It proves the declared
//! tables are loop-free and complete; what happens beyond a single edge
//! loss under transient faults is the mesh campaign's job.
//!
//! On top of the structural checks, a second pass (AIR100–AIR102)
//! reasons about *self-healing*: what the mesh can still do after a
//! single edge loss. It runs only when the structural pass found no
//! errors — a mesh with identity conflicts or routing loops has bigger
//! problems than its failover posture. AIR102 measures detours against
//! the hop budget the runtime stamps on every packet,
//! `air_ports::routing::MESH_TTL` — the same constant, not a copy.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use air_ports::routing::MESH_TTL;
use air_tools::config::SpanKey;

use crate::diag::{Code, Diagnostic, LintReport};
use crate::model::SystemModel;

/// The display label of cluster member `index`: `node A`, `node B`, …
/// (past 26 members, `node #27` and onward).
pub(crate) fn node_label(index: usize) -> String {
    if index < 26 {
        let letter = char::from(b'A' + index as u8);
        format!("node {letter}")
    } else {
        format!("node #{}", index + 1)
    }
}

/// Runs every mesh cross-check over the member snapshots, in code order.
pub(crate) fn analyze_mesh(models: &[SystemModel], report: &mut LintReport) {
    // AIR094 — identities: every member declares exactly one `node`, and
    // no two members claim the same id. Members with a usable identity
    // feed the remaining checks even when others are broken.
    let mut owner_of: BTreeMap<u16, usize> = BTreeMap::new();
    for (i, m) in models.iter().enumerate() {
        let Some(node) = &m.mesh_node else {
            report.push(Diagnostic::new(
                Code::MeshNodeIdentityConflict,
                format!(
                    "{} declares no 'node' directive but is cross-checked as a \
                     mesh member; every member needs a mesh identity",
                    node_label(i)
                ),
            ));
            continue;
        };
        if let Some(&prev) = owner_of.get(&node.id.0) {
            report.push(
                Diagnostic::new(
                    Code::MeshNodeIdentityConflict,
                    format!(
                        "{} claims node identity {} already declared by {}; \
                         routing by destination id becomes ambiguous",
                        node_label(i),
                        node.id,
                        node_label(prev)
                    ),
                )
                .with_line(m.spans.get(&SpanKey::Node)),
            );
        } else {
            owner_of.insert(node.id.0, i);
        }
    }
    let declared: BTreeSet<u16> = owner_of.keys().copied().collect();

    // AIR093 — every route endpoint must be a declared node, and a node
    // needs no route to itself.
    for (&id, &i) in &owner_of {
        let m = &models[i];
        for r in &m.routes {
            let line = m.spans.get(&SpanKey::Route(r.dst.0));
            if r.dst.0 == id {
                report.push(
                    Diagnostic::new(
                        Code::MeshRouteToUndeclaredNode,
                        format!(
                            "{} ({}) declares a route to itself; local delivery \
                             never takes a hop",
                            node_label(i),
                            r.dst
                        ),
                    )
                    .with_line(line),
                );
                continue;
            }
            for endpoint in [r.dst, r.via] {
                if !declared.contains(&endpoint.0) {
                    report.push(
                        Diagnostic::new(
                            Code::MeshRouteToUndeclaredNode,
                            format!(
                                "{} routes {} via {} but no mesh member declares \
                                 node {endpoint}",
                                node_label(i),
                                r.dst,
                                r.via
                            ),
                        )
                        .with_line(line),
                    );
                }
            }
        }
    }

    // AIR090 — completeness: every member must know a next hop toward
    // every other declared node (a direct neighbour is `route N<k>
    // via=N<k>`), else packets for it die with NoRoute.
    for (&id, &i) in &owner_of {
        let m = &models[i];
        for &dst in &declared {
            if dst != id && !m.routes.iter().any(|r| r.dst.0 == dst) {
                report.push(
                    Diagnostic::new(
                        Code::MeshUnreachableNode,
                        format!(
                            "{} (N{id}) has no route toward N{dst}; packets for \
                             N{dst} would be dropped with NoRoute",
                            node_label(i)
                        ),
                    )
                    .with_line(m.spans.get(&SpanKey::Node)),
                );
            }
        }
    }

    // AIR091 — loop freedom: walking the declared tables from every
    // (origin, destination) pair must reach the destination without
    // revisiting a node. Dead ends are already AIR090/AIR093 findings;
    // the walk just stops there. Each distinct cycle is reported once.
    let mut seen_cycles: BTreeSet<(u16, Vec<u16>)> = BTreeSet::new();
    for &origin in &declared {
        for &dst in &declared {
            if dst == origin {
                continue;
            }
            let mut path = vec![origin];
            let mut cur = origin;
            while cur != dst {
                let Some(via) = next_hop(models, &owner_of, cur, dst) else {
                    break; // dead end — flagged by AIR090/AIR093 above
                };
                if let Some(start) = path.iter().position(|&n| n == via) {
                    let mut cycle: Vec<u16> = path[start..].to_vec();
                    cycle.sort_unstable();
                    if seen_cycles.insert((dst, cycle)) {
                        let rendering: Vec<String> = path[start..]
                            .iter()
                            .chain(std::iter::once(&via))
                            .map(|n| format!("N{n}"))
                            .collect();
                        let closer = owner_of
                            .get(&cur)
                            .and_then(|&i| models[i].spans.get(&SpanKey::Route(dst)));
                        report.push(
                            Diagnostic::new(
                                Code::MeshRoutingLoop,
                                format!(
                                    "packets for N{dst} loop through {}; the TTL \
                                     budget, not the topology, bounds their lifetime",
                                    rendering.join(" -> ")
                                ),
                            )
                            .with_line(closer),
                        );
                    }
                    break;
                }
                path.push(via);
                cur = via;
            }
        }
    }

    // AIR092 — APID ownership: an application process identifier may be
    // originated by exactly one mesh node.
    let mut claims: BTreeMap<u16, Vec<usize>> = BTreeMap::new();
    for (i, m) in models.iter().enumerate() {
        for a in &m.apids {
            let owners = claims.entry(a.apid).or_default();
            if !owners.contains(&i) {
                owners.push(i);
            }
        }
    }
    for (apid, owners) in &claims {
        if let [first, rest @ ..] = owners.as_slice() {
            for &i in rest {
                let name = models[i]
                    .apids
                    .iter()
                    .find(|a| a.apid == *apid)
                    .map_or("", |a| a.name.as_str());
                report.push(
                    Diagnostic::new(
                        Code::MeshApidCollision,
                        format!(
                            "{} originates APID {apid} ({name}) already claimed \
                             by {}; receivers cannot attribute its packets",
                            node_label(i),
                            node_label(*first)
                        ),
                    )
                    .with_line(models[i].spans.get(&SpanKey::Apid(*apid))),
                );
            }
        }
    }

    // AIR100–AIR102 — self-healing posture; only meaningful once the
    // structural checks pass.
    if !report.has_errors() {
        analyze_self_healing(models, &owner_of, report);
    }
}

/// The declared next hop from `node` toward `dst`: the `via` of the
/// first route toward `dst` in the document describing `node`. `None`
/// when no member describes `node` or its table has no such route.
pub(crate) fn next_hop(
    models: &[SystemModel],
    owner_of: &BTreeMap<u16, usize>,
    node: u16,
    dst: u16,
) -> Option<u16> {
    let &i = owner_of.get(&node)?;
    models[i]
        .routes
        .iter()
        .find(|r| r.dst.0 == dst)
        .map(|r| r.via.0)
}

/// The undirected physical edges around each node.
pub(crate) type Adjacency = BTreeMap<u16, BTreeSet<u16>>;

/// The undirected edge between `u` and `v`, normalized `(low, high)`.
fn edge(u: u16, v: u16) -> (u16, u16) {
    if u < v {
        (u, v)
    } else {
        (v, u)
    }
}

/// BFS hop distances from `start` over `adjacency`, skipping the optional
/// `cut` edge (normalized `(low, high)`).
fn distances(adjacency: &Adjacency, start: u16, cut: Option<(u16, u16)>) -> BTreeMap<u16, usize> {
    let mut dist: BTreeMap<u16, usize> = BTreeMap::new();
    dist.insert(start, 0);
    let mut frontier = VecDeque::from([start]);
    while let Some(n) = frontier.pop_front() {
        let d = dist[&n];
        let Some(neighbours) = adjacency.get(&n) else {
            continue;
        };
        for &next in neighbours {
            if Some(edge(n, next)) == cut || dist.contains_key(&next) {
                continue;
            }
            dist.insert(next, d + 1);
            frontier.push_back(next);
        }
    }
    dist
}

/// The reroutes of a packet walking `path` (its nodes, origin first,
/// destination last) when one edge of it dies: for each hop `u -> v`,
/// `(hops spent before it, (u, v), hops spent plus the shortest detour
/// from u to the destination that avoids the edge)`. Hops with no detour
/// at all are skipped.
pub(crate) fn detours<'a>(
    adjacency: &'a Adjacency,
    path: &'a [u16],
) -> impl Iterator<Item = (usize, (u16, u16), usize)> + 'a {
    let dst = path.last().copied().unwrap_or_default();
    path.windows(2)
        .enumerate()
        .filter_map(move |(spent, pair)| {
            let (u, v) = (pair[0], pair[1]);
            let detour = distances(adjacency, u, Some(edge(u, v)))
                .get(&dst)
                .copied()?;
            Some((spent, (u, v), spent + detour))
        })
}

/// Undirected physical edges recovered from direct-neighbour routes
/// (`route N<k> via=N<k>`), normalized `(low, high)`, plus the adjacency
/// view. With `include_undeclared`, edges into nodes no member document
/// describes are kept — the timing stage certifies hub documents whose
/// spokes are off the command line under a symmetric assumption; the
/// self-healing pass drops such edges (it reasons only about described
/// members).
pub(crate) type EdgesAndAdjacency = (BTreeSet<(u16, u16)>, Adjacency);

pub(crate) fn direct_adjacency(
    models: &[SystemModel],
    owner_of: &BTreeMap<u16, usize>,
    include_undeclared: bool,
) -> EdgesAndAdjacency {
    let mut edges: BTreeSet<(u16, u16)> = BTreeSet::new();
    for (&id, &i) in owner_of {
        for r in &models[i].routes {
            if r.dst == r.via
                && r.dst.0 != id
                && (include_undeclared || owner_of.contains_key(&r.dst.0))
            {
                edges.insert(edge(id, r.dst.0));
            }
        }
    }
    let mut adjacency = Adjacency::new();
    for &(a, b) in &edges {
        adjacency.entry(a).or_default().insert(b);
        adjacency.entry(b).or_default().insert(a);
    }
    (edges, adjacency)
}

/// Self-healing cross-checks (AIR100–AIR102): what survives a single
/// edge loss. The physical topology is recovered from direct-neighbour
/// routes (`route N<k> via=N<k>` declares the edge to N<k>), taken as
/// undirected — either endpoint declaring the adjacency is enough.
///
/// - AIR100: an edge whose loss disconnects the mesh (a bridge) leaves
///   the smaller side with no possible reroute.
/// - AIR101: a node one edge loss isolates (degree one) should name a
///   `fallback=` spare; a fallback into an undeclared node is no
///   fallback at all.
/// - AIR102: the worst-case rerouted path — hops already spent when the
///   edge dies plus the shortest detour that avoids it — must stay
///   under the TTL budget, else the detour itself kills the packet.
fn analyze_self_healing(
    models: &[SystemModel],
    owner_of: &BTreeMap<u16, usize>,
    report: &mut LintReport,
) {
    let declared: Vec<u16> = owner_of.keys().copied().collect();
    if declared.len() < 2 {
        return;
    }

    // Undirected physical edges, normalized `(low, high)`.
    let (edges, adjacency) = direct_adjacency(models, owner_of, false);

    // A mesh that is disconnected before any fault is AIR090 territory;
    // single-edge-loss analysis assumes a connected baseline.
    let all: BTreeSet<u16> = declared.iter().copied().collect();
    let baseline: BTreeSet<u16> = distances(&adjacency, declared[0], None)
        .keys()
        .copied()
        .collect();
    if baseline != all {
        return;
    }

    // AIR100 — bridges: removing the edge splits the mesh; report the
    // smaller (stranded) side.
    for &(a, b) in &edges {
        let reached: BTreeSet<u16> = distances(&adjacency, a, Some((a, b)))
            .keys()
            .copied()
            .collect();
        if reached == all {
            continue;
        }
        let cut_off: BTreeSet<u16> = all.difference(&reached).copied().collect();
        let stranded = if cut_off.len() <= reached.len() {
            &cut_off
        } else {
            &reached
        };
        let rendering: Vec<String> = stranded.iter().map(|n| format!("N{n}")).collect();
        report.push(
            Diagnostic::new(
                Code::UnreachableAfterSingleEdgeLoss,
                format!(
                    "losing edge N{a}-N{b} alone strands {}; no alternate next \
                     hop can exist — the mesh needs a second edge-disjoint path",
                    rendering.join(", ")
                ),
            )
            .with_line(models[owner_of[&a]].spans.get(&SpanKey::Route(b))),
        );
    }

    // AIR101 — a degree-one node is isolated by its single edge's loss
    // and should declare a hot spare; a dangling fallback is worse than
    // none because it looks handled.
    for (&id, &i) in owner_of {
        let degree = adjacency.get(&id).map_or(0, BTreeSet::len);
        let Some(node) = &models[i].mesh_node else {
            continue;
        };
        let line = models[i].spans.get(&SpanKey::Node);
        match node.fallback {
            Some(spare) if !owner_of.contains_key(&spare.0) => {
                report.push(
                    Diagnostic::new(
                        Code::NoFallbackForCutNode,
                        format!(
                            "{} ({}) declares fallback {spare} but no mesh member \
                             declares that node; the failover would promote nobody",
                            node_label(i),
                            node.id,
                        ),
                    )
                    .with_line(line),
                );
            }
            None if degree <= 1 => {
                report.push(
                    Diagnostic::new(
                        Code::NoFallbackForCutNode,
                        format!(
                            "a single edge loss isolates {} ({}) and its document \
                             declares no `fallback=` spare; its role dies with the edge",
                            node_label(i),
                            node.id,
                        ),
                    )
                    .with_line(line),
                );
            }
            _ => {}
        }
    }

    // AIR102 — walk every declared (origin, destination) path; for each
    // edge the packet would cross after h hops, the rerouted total is
    // h + the shortest detour avoiding that edge. Report the single
    // worst case when it meets the TTL budget.
    struct WorstDetour {
        total: usize,
        origin: u16,
        dst: u16,
        edge: (u16, u16),
        hops_spent: usize,
    }
    let mut worst: Option<WorstDetour> = None;
    for &origin in &declared {
        for &dst in &declared {
            if dst == origin {
                continue;
            }
            let mut path = vec![origin];
            let mut cur = origin;
            while cur != dst {
                let Some(via) = next_hop(models, owner_of, cur, dst) else {
                    break;
                };
                let has_edge = adjacency.get(&cur).is_some_and(|n| n.contains(&via));
                if !has_edge || path.contains(&via) {
                    break; // flagged by the structural pass
                }
                path.push(via);
                cur = via;
            }
            if cur != dst {
                continue;
            }
            // A hop with no detour at all is AIR100's finding.
            for (hops_spent, (u, v), total) in detours(&adjacency, &path) {
                if total >= usize::from(MESH_TTL) && worst.as_ref().is_none_or(|w| total > w.total)
                {
                    worst = Some(WorstDetour {
                        total,
                        origin,
                        dst,
                        edge: (u, v),
                        hops_spent,
                    });
                }
            }
        }
    }
    if let Some(WorstDetour {
        total,
        origin,
        dst,
        edge: (u, v),
        hops_spent,
    }) = worst
    {
        report.push(
            Diagnostic::new(
                Code::RerouteTtlExhaustible,
                format!(
                    "the worst rerouted path meets the {MESH_TTL}-hop \
                     TTL budget: N{origin}->N{dst} loses edge N{u}-N{v} after \
                     {hops_spent} hops and the shortest detour brings the total \
                     to {total}; packets on that detour die of TtlExpired"
                ),
            )
            .with_line(models[owner_of[&u]].spans.get(&SpanKey::Route(dst))),
        );
    }
}

/// The N-ary generalisation of the pair channel cross-check (AIR080):
/// every channel id a member sends over its link must land in an inbound
/// gateway of at least one other member, and every gateway must be fed
/// by at least one other member.
pub(crate) fn analyze_channels_n(models: &[SystemModel], report: &mut LintReport) {
    let outbound: Vec<BTreeSet<u32>> = models.iter().map(crate::cluster::outbound_ids).collect();
    let gateways: Vec<BTreeSet<u32>> = models
        .iter()
        .map(crate::cluster::inbound_gateway_ids)
        .collect();
    for (i, m) in models.iter().enumerate() {
        for id in &outbound[i] {
            let matched = gateways
                .iter()
                .enumerate()
                .any(|(j, g)| j != i && g.contains(id));
            if !matched {
                report.push(
                    Diagnostic::new(
                        Code::UnmatchedRemoteChannel,
                        format!(
                            "{} sends channel {id} into the mesh but no other \
                             member declares a gateway channel with that id; its \
                             frames would be dropped on arrival",
                            node_label(i)
                        ),
                    )
                    .with_line(m.spans.get(&SpanKey::Channel(*id))),
                );
            }
        }
        for id in &gateways[i] {
            let fed = outbound
                .iter()
                .enumerate()
                .any(|(j, o)| j != i && o.contains(id));
            if !fed {
                report.push(
                    Diagnostic::new(
                        Code::UnmatchedRemoteChannel,
                        format!(
                            "{} channel {id} expects frames from the mesh but no \
                             other member sends on that id; the gateway's \
                             destinations would starve",
                            node_label(i)
                        ),
                    )
                    .with_line(m.spans.get(&SpanKey::Channel(*id))),
                );
            }
        }
    }
}
