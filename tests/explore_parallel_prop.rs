//! Engine-equivalence property: the parallel expansion of each frontier
//! slice and the partial-order reduction change *how* the state space is
//! walked, never *what* is found.
//!
//! For 50 generated configurations ([`air_core::fuzz::generate_config_text`]
//! — the same corpus the fuzz farm draws from), the exploration is run
//! sequentially (1 worker) and in parallel (4 workers): the state counts
//! and the full counterexample lists (codes, subjects *and* witnesses)
//! must be identical. The partial-order reduction is cross-checked the
//! same way: POR on and off must reach the same states and report the same
//! `(code, subject)` finding set — POR may pick different representative
//! witnesses of the same length, so witness texts are not compared there.
//!
//! The whole search graph of the two explored examples — states,
//! parents, the derived edges and the cap counters — is pinned by digest
//! on 1 and 2 workers, once with the state cap falling mid-level.
//!
//! Finally, the graph stores no edges, so the edges AIR097 and AIR084 read
//! are re-derived by stepping only their events; over the same 50
//! configurations those subsets must equal, in order, the matching
//! filters of the whole derived edge sequence.

use std::collections::BTreeSet;

use air_core::fuzz::generate_config_text;
use air_lint::{explore_with, ExploreConfig, SystemModel};
use air_model::explore::search::{search, SearchConfig, SearchGraph};
use air_model::explore::TransitionSystem;

const SEEDS: u64 = 50;
const DEPTH: usize = 3;

fn model_of(seed: u64) -> SystemModel {
    let text = generate_config_text(seed);
    let doc = air_tools::config::parse(&text)
        .unwrap_or_else(|e| panic!("seed {seed}: unparsable generation: {e:?}"));
    SystemModel::from_config(&doc)
}

#[test]
fn parallel_and_sequential_exploration_agree() {
    for seed in 0..SEEDS {
        let model = model_of(seed);
        let sequential = explore_with(
            &model,
            &ExploreConfig {
                depth: DEPTH,
                workers: 1,
                ..ExploreConfig::default()
            },
        );
        let parallel = explore_with(
            &model,
            &ExploreConfig {
                depth: DEPTH,
                workers: 4,
                ..ExploreConfig::default()
            },
        );
        assert_eq!(
            sequential.states_explored, parallel.states_explored,
            "seed {seed}: state counts diverge"
        );
        assert_eq!(
            sequential.counterexamples, parallel.counterexamples,
            "seed {seed}: finding sets diverge between 1 and 4 workers"
        );
        assert_eq!(sequential.cap_hit, parallel.cap_hit, "seed {seed}");
    }
}

#[test]
fn partial_order_reduction_preserves_states_and_findings() {
    for seed in 0..SEEDS {
        let model = model_of(seed);
        let with_por = explore_with(
            &model,
            &ExploreConfig {
                depth: DEPTH,
                por: true,
                ..ExploreConfig::default()
            },
        );
        let without_por = explore_with(
            &model,
            &ExploreConfig {
                depth: DEPTH,
                por: false,
                ..ExploreConfig::default()
            },
        );
        assert_eq!(
            with_por.states_explored, without_por.states_explored,
            "seed {seed}: POR dropped or added reachable states"
        );
        let keys = |ex: &air_lint::Exploration| -> BTreeSet<(air_lint::Code, u32)> {
            ex.counterexamples
                .iter()
                .map(|c| (c.code, c.subject))
                .collect()
        };
        assert_eq!(
            keys(&with_por),
            keys(&without_por),
            "seed {seed}: POR changed the (code, subject) finding set"
        );
        // Witnesses may differ in representative but never in length:
        // BFS minimality is engine-independent.
        for (a, b) in with_por
            .counterexamples
            .iter()
            .zip(without_por.counterexamples.iter())
        {
            assert_eq!(
                a.witness.events.len(),
                b.witness.events.len(),
                "seed {seed}: POR changed the minimal witness length for {}",
                a.code
            );
        }
    }
}

/// FNV-1a over the `Debug` text of the values written into it: a digest
/// that depends only on the values, never on the host or the run.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &byte in s.as_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// `(states, edges, cap_hit, frontier_at_cap, dropped_states, digest)` of
/// a search graph over `ts`, the digest covering every state, parent and
/// edge.
fn graph_summary(
    ts: &TransitionSystem,
    graph: &SearchGraph,
) -> (usize, usize, bool, usize, usize, u64) {
    use std::fmt::Write;
    let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
    for key in &graph.states {
        write!(fnv, "{key:?};").unwrap();
    }
    for parent in &graph.parents {
        write!(fnv, "{parent:?};").unwrap();
    }
    let edges = graph.edges(ts);
    for edge in &edges {
        write!(fnv, "{edge:?};").unwrap();
    }
    (
        graph.states.len(),
        edges.len(),
        graph.cap_hit,
        graph.frontier_at_cap,
        graph.dropped_states,
        fnv.0,
    )
}

fn example_model(name: &str) -> SystemModel {
    let path = format!("{}/../../examples/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let doc =
        air_tools::config::parse(&text).unwrap_or_else(|e| panic!("{name}: parse failure: {e:?}"));
    SystemModel::from_config(&doc)
}

/// The whole search graph — states, parents, edges and the cap counters —
/// is pinned for the two explored examples, on 1 and 2 workers, and for a
/// hub run whose state cap falls in the middle of a BFS level.
#[test]
fn search_graphs_of_the_examples_are_pinned() {
    // `(example, depth, max_states)` and the pinned `graph_summary`.
    let runs = [
        (
            "constellation_hub.air",
            6,
            262_144,
            (27_130, 109_417, false, 0, 0, 0x1520_e1b5_6e24_e266),
        ),
        (
            "full_system.air",
            4,
            262_144,
            (38, 279, false, 0, 0, 0x965c_d8d6_6ce7_e36a),
        ),
        (
            "constellation_hub.air",
            8,
            50_000,
            (
                50_000,
                419_989,
                true,
                17_703,
                125_860,
                0x9834_42b2_504e_09fc,
            ),
        ),
    ];
    for (example, depth, max_states, pinned) in runs {
        let ts = air_lint::transition_system_for(&example_model(example))
            .unwrap_or_else(|| panic!("{example}: no transition system"));
        for workers in [1, 2] {
            let config = SearchConfig {
                depth,
                max_states,
                workers,
                por: true,
            };
            let summary = graph_summary(&ts, &search(&ts, &config));
            assert_eq!(
                summary, pinned,
                "{example} depth {depth} cap {max_states} workers {workers}"
            );
        }
    }
}

/// The `link_down` and restarting-request edges that AIR097 and AIR084
/// derive by stepping only their events are, in order, the matching
/// filters of the whole derived edge sequence: with the reduction on, with
/// it off, and with the state cap falling in the middle of a level.
#[test]
fn lint_edge_subsets_are_filters_of_the_whole_edge_sequence() {
    use air_lint::explore::{link_down_edges, restarting_request_edges};
    use air_model::explore::AbstractEvent;
    let (mut link_downs, mut restarts, mut capped) = (0, 0, 0);
    for seed in 0..SEEDS {
        let Some(ts) = air_lint::transition_system_for(&model_of(seed)) else {
            continue;
        };
        let config = |por, max_states| SearchConfig {
            depth: DEPTH + 1,
            max_states,
            por,
            ..SearchConfig::default()
        };
        let full = search(&ts, &config(true, 262_144));
        // A cap halfway into the deepest level of two or more states.
        let mut sizes = [0usize; DEPTH + 2];
        for index in 0..full.states.len() {
            sizes[full.witness_of(index).events.len()] += 1;
        }
        let mid_level = (1..sizes.len())
            .rev()
            .find(|&level| sizes[level] >= 2)
            .map(|level| sizes[..level].iter().sum::<usize>() + sizes[level] / 2);
        let mut graphs = vec![full, search(&ts, &config(false, 262_144))];
        if let Some(cap) = mid_level {
            let graph = search(&ts, &config(true, cap));
            assert!(graph.cap_hit, "seed {seed}: cap {cap} not hit");
            capped += 1;
            graphs.push(graph);
        }
        for graph in &graphs {
            let edges = graph.edges(&ts);
            let expected: Vec<_> = edges
                .iter()
                .filter(|e| e.event == AbstractEvent::LinkDown)
                .copied()
                .collect();
            assert_eq!(link_down_edges(&ts, graph), expected, "seed {seed}");
            link_downs += expected.len();
            let expected: Vec<_> = edges
                .iter()
                .filter(|e| {
                    e.restarted != 0 && matches!(e.event, AbstractEvent::ScheduleRequest { .. })
                })
                .copied()
                .collect();
            assert_eq!(
                restarting_request_edges(&ts, graph),
                expected,
                "seed {seed}"
            );
            restarts += expected.len();
        }
    }
    assert!(
        link_downs > 0 && restarts > 0 && capped > SEEDS / 2,
        "vacuous: {link_downs} link_down edges, {restarts} restarting \
         requests, {capped} capped runs"
    );
}

/// The default graph stores nothing: every lookup misses, and it derives
/// no edge.
#[test]
fn the_default_graph_answers_every_lookup_with_none() {
    let ts = air_lint::transition_system_for(&example_model("full_system.air"))
        .expect("full_system.air has a transition system");
    let graph = search(&ts, &SearchConfig::default());
    let empty = SearchGraph::default();
    assert!(graph.states.len() > 1);
    for &key in &graph.states {
        assert_eq!(empty.index_of(key), None);
    }
    assert!(empty.edges(&ts).is_empty());
}
