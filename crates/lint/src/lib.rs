//! `air-lint`: whole-system static analysis of AIR configurations.
//!
//! The paper insists that timing and partitioning faults "can be
//! predicted and avoided using offline tools that verify the fulfilment
//! of the timing requirements" (Sect. 5), and that the formal model
//! exists to enable "automated aids to the definition of system
//! parameters" (Abstract). This crate is that offline tool: it takes a
//! complete system description — a parsed configuration document or a
//! programmatic [`SystemModel`] snapshot — and, without executing a
//! single tick, emits structured [`Diagnostic`]s, each with a stable
//! code (`AIR000`…), a severity, a message, and (when the description
//! came from text) the source line.
//!
//! Seven analyses run over one snapshot ([`lint`]):
//!
//! 1. **temporal** — window overlap / out-of-MTF placement, Eq. (21)–(23)
//!    fulfilment, and deadline-vs-supply schedulability;
//! 2. **mode graph** — change actions naming unknown partitions, missing
//!    switch authority, unreachable schedules and schedule traps;
//! 3. **ports** — dangling or nonexistent endpoints, direction / kind /
//!    message-size mismatches, zero queue depths, duplicate endpoints;
//! 4. **spatial** — memory-map overlaps between partitions and write
//!    permission on shared read-only regions;
//! 5. **health monitoring** — error ids with no action at any level and
//!    unreachable log-then-act thresholds;
//! 6. **reliable transport** — ARQ timers that cannot serve the major
//!    time frame, identically-configured redundant link adapters, and
//!    remote senders riding the raw datagram substrate;
//! 7. **timing** — the certified worst-case latency of every declared
//!    `flow` against its deadline (AIR110–AIR117);
//!
//! plus structural identifier checks (duplicates, contiguity). Three
//! more entry points build on it: [`lint_explored`] adds the bounded
//! mode/HM exploration ([`explore_with`]); [`lint_members`] cross-checks
//! the members of a multi-node integration (remote channels must pair up
//! with inbound gateways on a peer; routed-mesh identities, routes and
//! APIDs must agree) — mismatches a single-node lint cannot see; and
//! [`lint_timing`] certifies the flows across a member set and returns
//! the bound table. [`parse_members`] turns member texts into the
//! snapshots these take.
//!
//! # Examples
//!
//! ```
//! use air_lint::{lint_config_text, Code};
//!
//! let report = lint_config_text(
//!     "partition P0 name=SOLO\n\
//!      schedule chi0 name=ops mtf=100\n\
//!        require P0 cycle=100 duration=60\n\
//!        window P0 offset=0 duration=60\n\
//!        window P0 offset=50 duration=50\n",
//! );
//! assert!(report.has_errors());
//! assert!(report.has_code(Code::WindowsOverlap));
//! ```

#![warn(missing_docs)]

pub mod diag;
pub mod explore;
pub mod model;

mod cluster;
mod hm;
mod mesh;
mod modes;
mod ports;
mod spatial;
mod structure;
mod temporal;
mod timing;
mod transport;

use air_tools::config::ConfigError;

pub use diag::{Code, Diagnostic, LintReport, Severity};
pub use explore::{
    explore_with, transition_system_for, Counterexample, Exploration, ExploreConfig,
};
pub use model::SystemModel;
pub use timing::{FlowBound, FAILOVER_PENALTY_BUDGET};

/// Runs every analysis over `model` and returns the sorted report.
pub fn lint(model: &SystemModel) -> LintReport {
    let mut report = LintReport::new();
    structure::analyze(model, &mut report);
    temporal::analyze(model, &mut report);
    modes::analyze(model, &mut report);
    ports::analyze(model, &mut report);
    spatial::analyze(model, &mut report);
    hm::analyze(model, &mut report);
    transport::analyze(model, &mut report);
    timing::analyze(std::slice::from_ref(model), &mut report);
    report.finish();
    report
}

/// Runs every static analysis plus a bounded mode/HM exploration
/// ([`explore_with`], AIR081–AIR087 and AIR095–AIR098) under `config`,
/// returning one merged, sorted report.
pub fn lint_explored(model: &SystemModel, config: &ExploreConfig) -> LintReport {
    let mut report = lint(model);
    for d in explore_with(model, config).report.diagnostics() {
        report.push(d.clone());
    }
    report.finish();
    report
}

/// Cross-checks the member snapshots of an N-node cluster or routed
/// mesh.
///
/// Channel pairing (AIR080) always runs: for exactly two members
/// without `node` directives it is the classic pair check; for more
/// members (or once mesh identities appear) every outbound channel id
/// must land in a gateway of *some* other member and vice versa. When
/// any member declares a `node` directive, the mesh cross-checks
/// (AIR090–AIR094, AIR100–AIR102) and the flow certification
/// (AIR110–AIR117) run too. Per-member findings are *not* included —
/// lint each member with [`lint`] separately.
pub fn lint_members(members: &[SystemModel]) -> LintReport {
    let mut report = LintReport::new();
    let meshy = members.iter().any(|m| m.mesh_node.is_some());
    match members {
        [a, b] if !meshy => cluster::analyze_pair(a, b, &mut report),
        _ => mesh::analyze_channels_n(members, &mut report),
    }
    if meshy {
        mesh::analyze_mesh(members, &mut report);
        timing::analyze(members, &mut report);
    }
    report.finish();
    report
}

/// A timing-certification run: the AIR110–AIR117 findings plus the
/// certified bound table itself, one [`FlowBound`] per declared flow.
#[derive(Debug, Clone)]
pub struct TimingReport {
    /// The timing diagnostics (AIR110–AIR117 only).
    pub report: LintReport,
    /// Certified worst-case bounds, in declaration order (first
    /// declaring member wins a duplicate).
    pub bounds: Vec<FlowBound>,
}

/// Certifies every declared `flow` across the member snapshots and
/// returns the bound table with the AIR110–AIR117 findings. A single
/// member is certified alone: destinations its document routes to but
/// does not describe are assumed configuration-symmetric to the source.
pub fn lint_timing(members: &[SystemModel]) -> TimingReport {
    let mut report = LintReport::new();
    let bounds = timing::analyze(members, &mut report);
    report.finish();
    TimingReport { report, bounds }
}

/// Member configuration texts, each parsed once, as [`parse_members`]
/// returns them: one parse serves every member's own report and the
/// member-set analyses ([`lint_members`], [`lint_timing`]).
#[derive(Debug)]
pub struct Members(Vec<Result<SystemModel, ConfigError>>);

impl Members {
    /// Member `i` on its own: its snapshot, or the `AIR000` report of
    /// its parse failure, carrying the offending line.
    ///
    /// # Panics
    ///
    /// When `i` is not below the number of parsed texts.
    pub fn member(&self, i: usize) -> Result<&SystemModel, LintReport> {
        self.0[i].as_ref().map_err(|e| {
            let mut report = LintReport::new();
            report.push(parse_error(e, None));
            report
        })
    }

    /// Every member's snapshot, in order. When any member failed to
    /// parse, the report of those failures instead — one `AIR000` each,
    /// naming the member (`node A`, `node B`, …) and carrying the
    /// offending line — since the member-set analyses need every member.
    pub fn into_models(self) -> Result<Vec<SystemModel>, LintReport> {
        let mut report = LintReport::new();
        for (i, parsed) in self.0.iter().enumerate() {
            if let Err(e) = parsed {
                report.push(parse_error(e, Some(i)));
            }
        }
        if report.is_empty() {
            return Ok(self.0.into_iter().flatten().collect());
        }
        report.finish();
        Err(report)
    }
}

/// Parses member configuration texts into snapshots, each text once.
pub fn parse_members<T: AsRef<str>>(texts: &[T]) -> Members {
    Members(
        texts
            .iter()
            .map(|text| {
                air_tools::config::parse(text.as_ref()).map(|doc| SystemModel::from_config(&doc))
            })
            .collect(),
    )
}

/// The `AIR000` diagnostic for a configuration text that failed to
/// parse: a lone file's carries the parser's message as is, member `i`
/// of a set prefixes it with the member label (`node A`, `node B`, …).
fn parse_error(e: &ConfigError, member: Option<usize>) -> Diagnostic {
    let message = match member {
        None => e.message.clone(),
        Some(i) => format!("{}: {}", mesh::node_label(i), e.message),
    };
    Diagnostic::new(Code::ParseError, message).with_line(Some(e.line))
}

/// Parses configuration text and lints it; a parse failure becomes a
/// single `AIR000` diagnostic carrying the offending line.
pub fn lint_config_text(text: &str) -> LintReport {
    match parse_members(&[text]).member(0) {
        Ok(model) => lint(model),
        Err(report) => report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The member-set report of `texts`: the cross-checks, or the parse
    /// failures that suppress them.
    fn cross_check<T: AsRef<str>>(texts: &[T]) -> LintReport {
        match parse_members(texts).into_models() {
            Ok(models) => lint_members(&models),
            Err(report) => report,
        }
    }

    #[test]
    fn fig8_prototype_text_lints_clean() {
        let report = lint_config_text(&air_tools::config::fig8_config_text());
        assert!(!report.has_errors(), "{report}");
    }

    #[test]
    fn parse_failure_is_air000_with_line() {
        let report = lint_config_text("partition P0 name=a\nbogus directive\n");
        assert!(report.has_errors());
        let d = &report.diagnostics()[0];
        assert_eq!(d.code, Code::ParseError);
        assert_eq!(d.line, Some(2));
    }

    #[test]
    fn empty_text_reports_no_schedules() {
        let report = lint_config_text("");
        assert!(report.has_code(Code::NoSchedules));
    }

    const NODE_A: &str = "\
partition P0 name=OBDH
schedule chi0 name=ops mtf=100
  require P0 cycle=100 duration=100
  window P0 offset=0 duration=100
queuing P0 name=tm dir=source size=64 depth=8
link primary_latency=3 secondary_latency=6
arq window=8 timeout=24
channel 50 from=P0:tm to=remote:P0:tm
";

    const NODE_B: &str = "\
partition P0 name=GROUND-IF
schedule chi0 name=ops mtf=100
  require P0 cycle=100 duration=100
  window P0 offset=0 duration=100
queuing P0 name=tm dir=destination size=64 depth=8
link primary_latency=3 secondary_latency=6
arq window=8 timeout=24
channel 50 from=P0:tm-remote-source to=P0:tm
";

    #[test]
    fn matched_cluster_pair_lints_clean() {
        assert!(
            !lint_config_text(NODE_A).has_errors(),
            "{}",
            lint_config_text(NODE_A)
        );
        assert!(
            !lint_config_text(NODE_B).has_errors(),
            "{}",
            lint_config_text(NODE_B)
        );
        let pair = cross_check(&[NODE_A, NODE_B]);
        assert!(pair.is_empty(), "{pair}");
    }

    #[test]
    fn unmatched_remote_channel_is_air080_in_both_directions() {
        // Node B's gateway listens on channel 51 while node A sends on 50:
        // one finding for the orphaned sender, one for the starved gateway.
        let node_b = NODE_B.replace("channel 50", "channel 51");
        let pair = cross_check(&[NODE_A, node_b.as_str()]);
        assert!(pair.has_errors());
        assert_eq!(
            pair.diagnostics()
                .iter()
                .filter(|d| d.code == Code::UnmatchedRemoteChannel)
                .count(),
            2,
            "{pair}"
        );
    }

    #[test]
    fn cluster_parse_failures_name_the_node() {
        let pair = cross_check(&[NODE_A, "bogus directive\n"]);
        assert!(pair.has_errors());
        let d = &pair.diagnostics()[0];
        assert_eq!(d.code, Code::ParseError);
        assert!(d.message.starts_with("node B:"), "{d}");
    }

    /// A minimal clean mesh member: identity `N<id>`, routes toward the
    /// other two members of a 3-node line N0–N1–N2, one owned APID.
    fn mesh_member_with_routes(id: u16, routes: &str) -> String {
        format!(
            "partition P0 name=SW{id}\n\
             schedule chi0 name=ops mtf=100\n\
               require P0 cycle=100 duration=100\n\
               window P0 offset=0 duration=100\n\
             link primary_latency=3 secondary_latency=6\n\
             arq window=8 timeout=24\n\
             node N{id} name=NODE{id}\n\
             {routes}\
             apid {} name=STREAM{id} kind=tm\n",
            100 + id
        )
    }

    fn mesh_member(id: u16) -> String {
        // A triangle: every pair is directly adjacent, so the set is
        // also clean under the self-healing checks (no bridges, no
        // degree-one nodes, detours far inside the TTL budget).
        let routes = match id {
            0 => "route N1 via=N1\nroute N2 via=N2\n",
            1 => "route N0 via=N0\nroute N2 via=N2\n",
            _ => "route N0 via=N0\nroute N1 via=N1\n",
        };
        mesh_member_with_routes(id, routes)
    }

    /// The three members of a line mesh N0-N1-N2: both edges are
    /// bridges and both ends are degree-one.
    fn line_mesh() -> Vec<String> {
        let mut texts: Vec<String> = (0..3).map(mesh_member).collect();
        texts[0] = texts[0].replace("route N2 via=N2", "route N2 via=N1");
        texts[2] = texts[2].replace("route N0 via=N0", "route N0 via=N1");
        texts
    }

    #[test]
    fn clean_three_node_mesh_cross_checks_clean() {
        let texts: Vec<String> = (0..3).map(mesh_member).collect();
        for t in &texts {
            assert!(!lint_config_text(t).has_errors(), "{}", lint_config_text(t));
        }
        let report = cross_check(&texts);
        assert!(report.is_empty(), "{report}");
    }

    #[test]
    fn missing_route_is_air090() {
        let mut texts: Vec<String> = (0..3).map(mesh_member).collect();
        texts[0] = texts[0].replace("route N2 via=N2\n", "");
        let report = cross_check(&texts);
        assert!(report.has_code(Code::MeshUnreachableNode), "{report}");
    }

    #[test]
    fn routing_loop_is_air091_once() {
        let mut texts: Vec<String> = (0..3).map(mesh_member).collect();
        // N0 and N1 point packets for N2 at each other.
        texts[0] = texts[0].replace("route N2 via=N2", "route N2 via=N1");
        texts[1] = texts[1].replace("route N2 via=N2", "route N2 via=N0");
        let report = cross_check(&texts);
        let loops = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == Code::MeshRoutingLoop)
            .count();
        assert_eq!(loops, 1, "{report}");
    }

    #[test]
    fn apid_collision_is_air092() {
        let mut texts: Vec<String> = (0..3).map(mesh_member).collect();
        texts[2] = texts[2].replace("apid 102", "apid 100");
        let report = cross_check(&texts);
        assert!(report.has_code(Code::MeshApidCollision), "{report}");
    }

    #[test]
    fn route_to_undeclared_node_is_air093() {
        let mut texts: Vec<String> = (0..3).map(mesh_member).collect();
        texts[0] = texts[0].replace("route N2 via=N2", "route N7 via=N1");
        let report = cross_check(&texts);
        assert!(report.has_code(Code::MeshRouteToUndeclaredNode), "{report}");
        // Dropping the N2 route also leaves N2 unreachable from node A.
        assert!(report.has_code(Code::MeshUnreachableNode), "{report}");
    }

    #[test]
    fn identity_conflicts_are_air094() {
        let mut texts: Vec<String> = (0..3).map(mesh_member).collect();
        texts[2] = texts[2].replace("node N2 name=NODE2", "node N0 name=IMPOSTOR");
        let report = cross_check(&texts);
        assert!(report.has_code(Code::MeshNodeIdentityConflict), "{report}");

        let mut texts: Vec<String> = (0..3).map(mesh_member).collect();
        texts[1] = texts[1].replace("node N1 name=NODE1\n", "");
        let report = cross_check(&texts);
        assert!(report.has_code(Code::MeshNodeIdentityConflict), "{report}");
    }

    #[test]
    fn bridges_and_leaves_are_air100_and_air101() {
        let report = cross_check(&line_mesh());
        assert!(
            report.has_code(Code::UnreachableAfterSingleEdgeLoss),
            "{report}"
        );
        assert!(report.has_code(Code::NoFallbackForCutNode), "{report}");
        assert!(!report.has_errors(), "{report}");
    }

    #[test]
    fn declared_fallback_suppresses_air101() {
        let mut texts = line_mesh();
        texts[0] = texts[0].replace("name=NODE0", "name=NODE0 fallback=N1");
        texts[2] = texts[2].replace("name=NODE2", "name=NODE2 fallback=N1");
        let report = cross_check(&texts);
        assert!(!report.has_code(Code::NoFallbackForCutNode), "{report}");
        // The bridges are still bridges.
        assert!(
            report.has_code(Code::UnreachableAfterSingleEdgeLoss),
            "{report}"
        );
    }

    #[test]
    fn dangling_fallback_is_air101() {
        let mut texts: Vec<String> = (0..3).map(mesh_member).collect();
        texts[1] = texts[1].replace("name=NODE1", "name=NODE1 fallback=N9");
        let report = cross_check(&texts);
        assert!(report.has_code(Code::NoFallbackForCutNode), "{report}");
    }

    #[test]
    fn self_healing_checks_wait_for_a_sound_mesh() {
        // A structural error (missing route) suppresses AIR100–AIR102:
        // the line mesh would otherwise warn about its bridges.
        let mut texts = line_mesh();
        texts[0] = texts[0].replace("route N2 via=N1\n", "");
        let report = cross_check(&texts);
        assert!(report.has_errors(), "{report}");
        assert!(
            !report.has_code(Code::UnreachableAfterSingleEdgeLoss),
            "{report}"
        );
        assert!(!report.has_code(Code::NoFallbackForCutNode), "{report}");
    }

    #[test]
    fn antipodal_ring_detours_are_air102() {
        // On a 12-ring the worst detour is n + path - 2 = 16 hops,
        // exactly the TTL budget.
        let n: u16 = 12;
        let texts: Vec<String> = (0..n)
            .map(|i| {
                let mut routes = String::new();
                for dst in 0..n {
                    if dst == i {
                        continue;
                    }
                    let d = (dst + n - i) % n;
                    let via = if d <= n / 2 {
                        (i + 1) % n
                    } else {
                        (i + n - 1) % n
                    };
                    routes.push_str(&format!("route N{dst} via=N{via}\n"));
                }
                mesh_member_with_routes(i, &routes)
            })
            .collect();
        let report = cross_check(&texts);
        assert!(report.has_code(Code::RerouteTtlExhaustible), "{report}");
        assert!(!report.has_errors(), "{report}");
        // An 11-ring's worst detour is 14 hops — inside the budget.
        let n: u16 = 11;
        let texts: Vec<String> = (0..n)
            .map(|i| {
                let mut routes = String::new();
                for dst in 0..n {
                    if dst == i {
                        continue;
                    }
                    let d = (dst + n - i) % n;
                    let via = if d <= n / 2 {
                        (i + 1) % n
                    } else {
                        (i + n - 1) % n
                    };
                    routes.push_str(&format!("route N{dst} via=N{via}\n"));
                }
                mesh_member_with_routes(i, &routes)
            })
            .collect();
        let report = cross_check(&texts);
        assert!(!report.has_code(Code::RerouteTtlExhaustible), "{report}");
    }

    #[test]
    fn mesh_parse_failures_name_the_member() {
        let texts = [mesh_member(0), "bogus directive\n".into(), mesh_member(2)];
        let report = cross_check(&texts);
        assert!(report.has_errors());
        let d = &report.diagnostics()[0];
        assert_eq!(d.code, Code::ParseError);
        assert!(d.message.starts_with("node B:"), "{d}");
    }

    #[test]
    fn arq_timeout_beyond_mtf_is_air076() {
        let text = NODE_A.replace("arq window=8 timeout=24", "arq window=8 timeout=400");
        let report = lint_config_text(&text);
        assert!(report.has_code(Code::ArqExceedsMtf), "{report}");
        assert!(report.has_errors());
    }

    #[test]
    fn identical_adapters_are_air077() {
        let text = NODE_A.replace("secondary_latency=6", "secondary_latency=3");
        let report = lint_config_text(&text);
        assert!(report.has_code(Code::IdenticalRedundantLinks), "{report}");
        assert!(!report.has_errors(), "{report}");
    }

    #[test]
    fn remote_sender_without_arq_is_air078() {
        let text = NODE_A.replace("arq window=8 timeout=24\n", "");
        let report = lint_config_text(&text);
        assert!(report.has_code(Code::UnsequencedRemoteSender), "{report}");
        assert!(!report.has_errors(), "{report}");
    }

    #[test]
    fn gateway_channels_need_a_link_directive() {
        // Without `link`, an unknown source port is a typo (AIR031), not
        // a gateway.
        let text = NODE_B
            .replace("link primary_latency=3 secondary_latency=6\n", "")
            .replace("arq window=8 timeout=24\n", "");
        let report = lint_config_text(&text);
        assert!(report.has_code(Code::UnknownSourcePort), "{report}");
    }
}
