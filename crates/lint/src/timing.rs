//! End-to-end timing certification (AIR110–AIR117): a statically
//! certified worst-case TC→TM latency for every declared `flow`.
//!
//! The paper's title promises *robustness and timeliness*; per-node
//! schedulability (Eq. 21–23, AIR012) bounds response times inside one
//! module, but nothing there says a telecommand injected at one mesh
//! node produces its completion telemetry back at the commander within
//! a deadline once routing hops, go-back-N retransmissions and
//! reroute/failover penalties are composed. This stage closes that gap:
//! for a `flow N<src>:<apid> -> N<dst> deadline=D` declaration it
//! certifies
//!
//! ```text
//! certified = term(src) + term(dst)
//!           + (fwd_hops + rev_hops) × per_hop
//!           + FAILOVER_PENALTY_BUDGET
//! ```
//!
//! where `term(n)` is a full major time frame (the worst release phase
//! under `MtfLocked` integration) plus the node's worst process response
//! time under the supply bound function, `per_hop` is the ARQ worst-case
//! repair delay plus the link propagation latency plus a fixed
//! store-and-forward slack, `fwd_hops`/`rev_hops` are the worst-case hop
//! counts — the declared table walk *or* the longest
//! spent-plus-detour path after a single edge loss, whichever is larger,
//! capped by the packet TTL budget — and the failover penalty covers
//! time a packet spends on a dead edge before the health monitors
//! detect the loss, parked without a live route, and waiting out the
//! probe-recovery streak. Relays forward at the transport layer, below
//! partition scheduling, so only the endpoints contribute node terms.
//!
//! The per-hop terms and the TTL cap are the simulator's own constants
//! (`MESH_LATENCY`, `MESH_HOP_SLACK` and `MESH_TTL` in
//! `air_ports::routing`), not copies. Soundness rests on two checks:
//! `air-core` recomputes the failover penalty from the real scenario
//! timings and monitor tuning, and a 50-seed property test replays
//! adversarial partition campaigns and hard-fails if any observed
//! completion latency exceeds the certified bound.
//!
//! Members the cross-check set does not describe (a hub document
//! declaring routes to spokes whose documents are not on the command
//! line) are assumed *configuration-symmetric* to the flow source: same
//! MTF, same worst response time, same ARQ and link parameters, and a
//! reverse path of the forward length. A node term certified under that
//! assumption is only as good as the assumption — lint the full member
//! set to discharge it.

use std::collections::{BTreeMap, BTreeSet};

use air_model::Ticks;
use air_ports::routing::{MESH_HOP_SLACK, MESH_LATENCY, MESH_TTL};
use air_ports::transport::ArqConfig;
use air_tools::config::SpanKey;

use crate::diag::{Code, Diagnostic, LintReport};
use crate::mesh::{detours, next_hop, node_label};
use crate::model::SystemModel;

/// Worst-case reroute/failover penalty one in-flight packet can absorb
/// across a whole partition campaign: loss detection on a dying edge
/// (the first `down_threshold` ARQ backoff rounds), the time parked
/// without a live route, and the probe-recovery streak — summed over
/// every fault pulse a scenario throws. Mirrors the self-healing layer
/// of `air_core::mesh`/`air_hw::mesh` — air-lint deliberately does not
/// depend on those crates (the dependency runs the other way), so the
/// budget is declared here and pinned against the real scenario
/// generators and monitor tuning by an air-core test.
pub const FAILOVER_PENALTY_BUDGET: u64 = 2048;

/// One certified flow: the declared endpoints and deadline, the bound
/// decomposition, and the rendered critical path.
#[derive(Debug, Clone)]
pub struct FlowBound {
    /// Source (commander) node id.
    pub src: u16,
    /// Telecommand APID.
    pub apid: u16,
    /// Destination (executor) node id.
    pub dst: u16,
    /// Declared deadline, when present.
    pub deadline: Option<u64>,
    /// Certified worst-case latency including the failover penalty;
    /// `None` when the flow is unroutable or an ARQ term is unbounded.
    pub certified: Option<u64>,
    /// The fault-free composition (no reroute/failover penalty).
    pub fault_free: Option<u64>,
    /// Hop-by-hop worst-case decomposition, for humans and `--json`.
    pub critical_path: String,
}

impl FlowBound {
    /// The flow's display label, `N<src>:<apid> -> N<dst>`.
    pub fn label(&self) -> String {
        format!("N{}:{} -> N{}", self.src, self.apid, self.dst)
    }

    /// `deadline - certified`, when both exist (negative = blown),
    /// clamped to the `i64` range.
    pub fn slack(&self) -> Option<i64> {
        let (d, c) = (self.deadline?, self.certified?);
        let slack = i128::from(d) - i128::from(c);
        Some(slack.clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64)
    }
}

/// How far the declared tables carry a packet from `from` toward `to`.
enum Walk {
    /// Reached the destination through these intermediate hops.
    Reached { path: Vec<u16> },
    /// A node on the path has no route toward the destination.
    DeadEnd { at: u16 },
    /// A node on the path is opaque: no member document describes it.
    Opaque { at: u16 },
    /// The tables walk the packet in a circle.
    Loop { at: u16 },
}

/// Per-member worst-case node term: a full major time frame of release
/// phase plus the worst bounded process response time.
fn node_term(m: &SystemModel) -> (u64, u64) {
    let mtf = m
        .schedules
        .iter()
        .map(|s| s.mtf().as_u64())
        .max()
        .unwrap_or(0);
    let wcrt = crate::temporal::analyses(m)
        .iter()
        .flat_map(|(_, result)| &result.processes)
        .filter_map(|verdict| verdict.wcrt)
        .max()
        .map_or(0, Ticks::as_u64);
    (mtf, wcrt)
}

/// Certifies every declared flow across `models` and pushes AIR110–117
/// findings; returns the bound table (one entry per distinct flow) for
/// `--timing` rendering and `--json` emission.
pub(crate) fn analyze(models: &[SystemModel], report: &mut LintReport) -> Vec<FlowBound> {
    // Mesh identities. A flow-free member set certifies nothing.
    if models.iter().all(|m| m.flows.is_empty()) {
        return Vec::new();
    }
    let mut owner_of: BTreeMap<u16, usize> = BTreeMap::new();
    for (i, m) in models.iter().enumerate() {
        if let Some(node) = &m.mesh_node {
            owner_of.entry(node.id.0).or_insert(i);
        }
    }

    // The node universe: declared identities plus every route endpoint
    // (a hub's spokes exist even when their documents are absent), and
    // the undirected physical adjacency recovered from direct-neighbour
    // routes (`route N<k> via=N<k>`), shared with the self-healing pass.
    let mut universe: BTreeSet<u16> = owner_of.keys().copied().collect();
    for &i in owner_of.values() {
        for r in &models[i].routes {
            universe.insert(r.dst.0);
            universe.insert(r.via.0);
        }
    }
    let (_edges, adjacency) = crate::mesh::direct_adjacency(models, &owner_of, true);

    // Declared-table walk from `from` toward `to`.
    let walk = |from: u16, to: u16| -> Walk {
        let mut path = vec![from];
        let mut cur = from;
        while cur != to {
            if !owner_of.contains_key(&cur) {
                return Walk::Opaque { at: cur };
            }
            let Some(via) = next_hop(models, &owner_of, cur, to) else {
                return Walk::DeadEnd { at: cur };
            };
            if path.contains(&via) || path.len() > universe.len() {
                return Walk::Loop { at: cur };
            }
            path.push(via);
            cur = via;
        }
        Walk::Reached { path }
    };

    // Worst-case hop count along `path`: the baseline length, or the
    // longest spent-plus-detour total after a single edge loss mid-path,
    // capped by the TTL budget (a delivered packet never takes more
    // forwards than its hop budget allows).
    // A hop with no detour parks the packet, which later re-takes the
    // baseline — covered by the failover penalty, not by hops.
    let worst_hops = |path: &[u16]| -> u64 {
        let baseline = path.len() - 1;
        let worst = detours(&adjacency, path)
            .map(|(_, _, total)| total)
            .fold(baseline, usize::max);
        (worst as u64).min(u64::from(MESH_TTL))
    };

    // Flows, first declaring member wins.
    let mut seen: BTreeSet<(u16, u16, u16)> = BTreeSet::new();
    let mut bounds = Vec::new();
    for (i, m) in models.iter().enumerate() {
        for flow in &m.flows {
            if !seen.insert((flow.src.0, flow.apid, flow.dst.0)) {
                continue;
            }
            let line = m
                .spans
                .get(&SpanKey::Flow(flow.src.0, flow.apid, flow.dst.0));
            let label = format!("N{}:{} -> N{}", flow.src.0, flow.apid, flow.dst.0);
            let who = if models.len() > 1 {
                format!("{} flow {label}", node_label(i))
            } else {
                format!("flow {label}")
            };

            // AIR115 — a bound without a budget certifies nothing; the
            // bound is still computed and emitted for tooling.
            if flow.deadline.is_none() {
                report.push(
                    Diagnostic::new(
                        Code::FlowDeadlineMissing,
                        format!(
                            "{who} declares no deadline; a certified bound needs \
                             a budget to be checked against — add `deadline=`"
                        ),
                    )
                    .with_line(line),
                );
            }

            // The forward path. The flow source must be a described
            // member — its tables originate the walk.
            let Some(&src_member) = owner_of.get(&flow.src.0) else {
                report.push(
                    Diagnostic::new(
                        Code::FlowUnroutable,
                        format!(
                            "{who}: no member document declares node N{}; the \
                             commander's tables are unknown and no path can be \
                             certified",
                            flow.src.0
                        ),
                    )
                    .with_line(line),
                );
                bounds.push(FlowBound {
                    src: flow.src.0,
                    apid: flow.apid,
                    dst: flow.dst.0,
                    deadline: flow.deadline,
                    certified: None,
                    fault_free: None,
                    critical_path: "unroutable: undeclared source".into(),
                });
                continue;
            };
            let fwd = walk(flow.src.0, flow.dst.0);
            let fwd_path = match fwd {
                Walk::Reached { ref path } => path.clone(),
                Walk::DeadEnd { at } | Walk::Loop { at } | Walk::Opaque { at } => {
                    let why = match fwd {
                        Walk::DeadEnd { .. } => "has no route toward the destination",
                        Walk::Loop { .. } => "walks the packet in a circle",
                        _ => "is not described by any member document",
                    };
                    report.push(
                        Diagnostic::new(
                            Code::FlowUnroutable,
                            format!("{who}: the declared tables reach N{at}, which {why}"),
                        )
                        .with_line(line),
                    );
                    bounds.push(FlowBound {
                        src: flow.src.0,
                        apid: flow.apid,
                        dst: flow.dst.0,
                        deadline: flow.deadline,
                        certified: None,
                        fault_free: None,
                        critical_path: format!("unroutable at N{at}"),
                    });
                    continue;
                }
            };

            // The reverse path: real when the destination is described,
            // otherwise symmetric to the forward walk.
            let dst_member = owner_of.get(&flow.dst.0).copied();
            let symmetric = dst_member.is_none();
            let rev_path = match dst_member {
                None => {
                    let mut p = fwd_path.clone();
                    p.reverse();
                    p
                }
                Some(_) => match walk(flow.dst.0, flow.src.0) {
                    Walk::Reached { path } => path,
                    Walk::DeadEnd { at } | Walk::Loop { at } | Walk::Opaque { at } => {
                        report.push(
                            Diagnostic::new(
                                Code::FlowUnroutable,
                                format!(
                                    "{who}: the completion report cannot return — \
                                     the reverse walk from N{} stops at N{at}",
                                    flow.dst.0
                                ),
                            )
                            .with_line(line),
                        );
                        bounds.push(FlowBound {
                            src: flow.src.0,
                            apid: flow.apid,
                            dst: flow.dst.0,
                            deadline: flow.deadline,
                            certified: None,
                            fault_free: None,
                            critical_path: format!("return path unroutable at N{at}"),
                        });
                        continue;
                    }
                },
            };

            // Members the flow transits (described ones only).
            let mut on_path_members: Vec<usize> = Vec::new();
            for &n in fwd_path.iter().chain(rev_path.iter()) {
                if let Some(&idx) = owner_of.get(&n) {
                    if !on_path_members.contains(&idx) {
                        on_path_members.push(idx);
                    }
                }
            }

            // AIR112 — every described on-path member must bound its
            // retransmission term.
            let mut arq_unbounded = false;
            for &idx in &on_path_members {
                if models[idx].arq.is_none() {
                    arq_unbounded = true;
                    report.push(
                        Diagnostic::new(
                            Code::FlowArqUnbounded,
                            format!(
                                "{who} transits {} (N{}), whose document declares \
                                 no `arq`; a frame lost there is never repaired in \
                                 bounded time and no latency can be certified",
                                node_label(idx),
                                models[idx].mesh_node.as_ref().map_or(0, |n| n.id.0)
                            ),
                        )
                        .with_line(line),
                    );
                }
            }
            if arq_unbounded {
                bounds.push(FlowBound {
                    src: flow.src.0,
                    apid: flow.apid,
                    dst: flow.dst.0,
                    deadline: flow.deadline,
                    certified: None,
                    fault_free: None,
                    critical_path: "unbounded ARQ term on path".into(),
                });
                continue;
            }

            // AIR117 — the per-hop term is tick-denominated; members
            // disagreeing on the link latency disagree on the unit. The
            // bound takes the worst declared value.
            let latencies: BTreeSet<u64> = on_path_members
                .iter()
                .filter_map(|&idx| models[idx].link.as_ref().map(|l| l.primary_latency))
                .collect();
            if latencies.len() > 1 {
                let rendered: Vec<String> = latencies.iter().map(|l| l.to_string()).collect();
                report.push(
                    Diagnostic::new(
                        Code::FlowClockGranularityMismatch,
                        format!(
                            "{who} crosses members declaring link latencies {} \
                             ticks; the certified bound takes the worst, but the \
                             members' tick bases should agree",
                            rendered.join(" vs ")
                        ),
                    )
                    .with_line(line),
                );
            }
            let link_latency = latencies.iter().max().copied().unwrap_or(MESH_LATENCY);

            // The per-hop worst case: one full ARQ repair plus the wire.
            let arq_worst = on_path_members
                .iter()
                .filter_map(|&idx| models[idx].arq.as_ref())
                .map(ArqConfig::worst_case_delay)
                .max()
                .unwrap_or(0);
            let per_hop = arq_worst
                .saturating_add(link_latency)
                .saturating_add(MESH_HOP_SLACK);

            // Node terms at the endpoints; an undescribed destination is
            // assumed configuration-symmetric to the source.
            let (src_mtf, src_wcrt) = node_term(&models[src_member]);
            let (dst_mtf, dst_wcrt) = match dst_member {
                Some(idx) => node_term(&models[idx]),
                None => (src_mtf, src_wcrt),
            };

            let fwd_hops = worst_hops(&fwd_path);
            let rev_hops = worst_hops(&rev_path);
            let src_term = src_mtf.saturating_add(src_wcrt);
            let dst_term = dst_mtf.saturating_add(dst_wcrt);
            let fault_free = src_term
                .saturating_add(dst_term)
                .saturating_add((fwd_hops + rev_hops).saturating_mul(per_hop));
            let certified = fault_free.saturating_add(FAILOVER_PENALTY_BUDGET);
            let critical_path = format!(
                "src N{} term {} (mtf {src_mtf} + wcrt {src_wcrt}) -> {fwd_hops} \
                 hop{} x {per_hop} -> dst N{} term {} (mtf {dst_mtf} + wcrt \
                 {dst_wcrt}{}) -> {rev_hops} hop{} x {per_hop} back -> reroute \
                 penalty {FAILOVER_PENALTY_BUDGET} = certified {certified} \
                 (fault-free {fault_free})",
                flow.src.0,
                src_term,
                if fwd_hops == 1 { "" } else { "s" },
                flow.dst.0,
                dst_term,
                if symmetric { ", assumed symmetric" } else { "" },
                if rev_hops == 1 { "" } else { "s" },
            );

            // AIR114 — a declared fallback the commander cannot reach is
            // a dead end exactly when the failover it exists for fires.
            if let Some(spare) = dst_member
                .and_then(|idx| models[idx].mesh_node.as_ref())
                .and_then(|n| n.fallback)
            {
                let reaches = matches!(walk(flow.src.0, spare.0), Walk::Reached { .. });
                if !reaches {
                    report.push(
                        Diagnostic::new(
                            Code::FlowOverDeadEndFallback,
                            format!(
                                "{who}: N{} falls back to {spare} but the declared \
                                 tables never walk a packet from N{} to {spare}; \
                                 after a failover the flow dead-ends",
                                flow.dst.0, flow.src.0
                            ),
                        )
                        .with_line(line),
                    );
                }
            }

            if let Some(deadline) = flow.deadline {
                // AIR116 — one window wait alone can blow the budget.
                for (node, mtf) in [(flow.src.0, src_mtf), (flow.dst.0, dst_mtf)] {
                    if deadline < mtf {
                        report.push(
                            Diagnostic::new(
                                Code::FlowDeadlineBelowMtf,
                                format!(
                                    "{who} declares deadline={deadline} but N{node} \
                                     runs a {mtf}-tick major time frame; a single \
                                     window wait alone exceeds the budget"
                                ),
                            )
                            .with_line(line),
                        );
                    }
                }
                if fault_free > deadline {
                    // AIR110 — exceeded even without a single fault.
                    report.push(
                        Diagnostic::new(
                            Code::FlowDeadlineExceeded,
                            format!(
                                "{who} certifies {certified} ticks worst case \
                                 ({fault_free} fault-free) against deadline=\
                                 {deadline}; critical path: {critical_path}"
                            ),
                        )
                        .with_line(line),
                    );
                } else if certified > deadline {
                    // AIR113 — fits fault-free, but the slack cannot
                    // absorb one reroute/failover window.
                    report.push(
                        Diagnostic::new(
                            Code::FlowFailoverBudgetBlown,
                            format!(
                                "{who} fits its deadline fault-free ({fault_free} \
                                 of {deadline} ticks) but the {}-tick slack cannot \
                                 absorb the {FAILOVER_PENALTY_BUDGET}-tick \
                                 reroute/failover penalty; one mid-flight edge \
                                 loss can miss the deadline",
                                deadline - fault_free
                            ),
                        )
                        .with_line(line),
                    );
                }
            }

            bounds.push(FlowBound {
                src: flow.src.0,
                apid: flow.apid,
                dst: flow.dst.0,
                deadline: flow.deadline,
                certified: Some(certified),
                fault_free: Some(fault_free),
                critical_path,
            });
        }
    }
    bounds
}
