//! Benchmark-input guard: every example used to time exploration must
//! present a non-degenerate state space, or the published states/sec
//! numbers measure nothing.
//!
//! An earlier revision benched `full_system.air` when it still had a
//! single schedule and no link: one abstract state, zero events, and the
//! "exploration throughput" row timed hash-map boilerplate. This guard
//! pins the floor: each benched example must reach more than 16 distinct
//! abstract states within 3 events, and the hub must clear 10^4 states
//! by depth 8, the depth airbench's `explore_hub` workload explores (its
//! `model.states.d4`…`d8` and `model.states_per_s.d4`…`d8` metrics).

use air_lint::{explore_with, ExploreConfig, SystemModel};

/// The guarded examples: airbench's `explore_hub` workload times a
/// frozen copy of `constellation_hub.air`, and `full_system.air` is the
/// other example `tests/lint_corpus.rs` explores through `airlint`.
const BENCHED: &[&str] = &["full_system.air", "constellation_hub.air"];

fn model_of(example: &str) -> SystemModel {
    let path = format!("{}/../../examples/{example}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let doc = air_tools::config::parse(&text)
        .unwrap_or_else(|e| panic!("{example}: parse failure: {e:?}"));
    SystemModel::from_config(&doc)
}

#[test]
fn every_benched_example_is_nondegenerate_at_depth_3() {
    for example in BENCHED {
        let exploration = explore_with(
            &model_of(example),
            &ExploreConfig {
                depth: 3,
                ..ExploreConfig::default()
            },
        );
        assert!(
            exploration.states_explored > 16,
            "{example}: only {} states at depth 3 — degenerate benchmark \
             input",
            exploration.states_explored
        );
    }
}

#[test]
fn the_hub_example_reaches_bench_scale_by_depth_8() {
    let exploration = explore_with(
        &model_of("constellation_hub.air"),
        &ExploreConfig {
            depth: 8,
            ..ExploreConfig::default()
        },
    );
    assert!(
        exploration.states_explored >= 10_000,
        "constellation_hub.air: {} states at depth 8, need >= 10^4 for the \
         explore_hub workload",
        exploration.states_explored
    );
    assert!(!exploration.cap_hit, "raise the default cap for the bench");
}

#[test]
fn benched_examples_are_explorer_clean() {
    for example in BENCHED {
        let exploration = explore_with(
            &model_of(example),
            &ExploreConfig {
                depth: 3,
                ..ExploreConfig::default()
            },
        );
        assert!(
            exploration.report.is_empty(),
            "{example}: {}",
            exploration.report
        );
    }
}
