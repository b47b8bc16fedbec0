//! Fuzz-farm soundness gate: generated configurations through lint →
//! exploration → concrete replay of every counterexample witness, with
//! zero tolerated divergences (the `AIR099` defect class).
//!
//! Seeded sweeps up to a 256-case depth-4 soak; the in-crate unit test
//! holds the quickest `(1000, 16, 3)` run. Seeds are fixed so a failure
//! is reproducible by number alone: `run_fuzz(first_seed, cases, depth)`
//! replays any sweep.

use air_core::fuzz::{generate_config_text, run_fuzz};

/// The fixed seed base of the smoke and soak rows.
const FARM_SEED: u64 = 0x5eed_0a1b;

/// Runs one seeded sweep and asserts it is divergence-free and a real
/// exercise of the explorer.
fn assert_sweep(label: &str, first_seed: u64, cases: usize, depth: usize) {
    let report = run_fuzz(first_seed, cases, depth);
    assert_eq!(report.cases, cases, "{label}");
    let rendered: Vec<String> = report.divergences.iter().map(|d| d.to_string()).collect();
    assert!(
        rendered.is_empty(),
        "{label}: abstraction diverged from the concrete system:\n{}",
        rendered.join("\n")
    );
    // At least one finding per case on average: a generator too tame
    // to produce findings would pass vacuously.
    assert!(
        report.findings >= cases,
        "{label}: only {} findings across {cases} cases",
        report.findings
    );
    // Every finding's witness must step through the abstraction and
    // build a concrete twin; a skipped replay would hide a divergence.
    assert_eq!(
        report.replayed, report.findings,
        "{label}: not every witness was replayed"
    );
}

#[test]
fn farm_sweep_is_divergence_free() {
    // (label, first seed, cases, depth).
    let rows = [
        ("sweep", 0, 48, 3),
        ("smoke", FARM_SEED, 64, 3),
        ("soak", FARM_SEED + 64, 256, 4),
    ];
    for (label, first_seed, cases, depth) in rows {
        assert_sweep(label, first_seed, cases, depth);
    }
}

#[test]
fn minimized_witnesses_still_replay_to_their_violation() {
    // BFS witnesses are already length-minimal, so the explorer's own
    // witness is the minimized one. Depth 4 yields the longest witnesses
    // of the quick rows; each must replay to the state the abstraction
    // predicts.
    assert_sweep("deep", 500, 24, 4);
}

#[test]
fn distinct_seeds_generate_distinct_systems() {
    let mut texts: Vec<String> = (0..32).map(generate_config_text).collect();
    texts.sort();
    texts.dedup();
    assert!(
        texts.len() >= 24,
        "only {} distinct configurations out of 32 seeds",
        texts.len()
    );
}
