//! Properties of `air-lint` over the time fields of every corpus and
//! example configuration:
//!
//! - **tick scale** — multiplying every time field by k ∈ {10³, 10⁹}
//!   leaves the multiset of (code, severity, line) unchanged. Only an
//!   analysis whose cost does not grow with the tick unit finishes the
//!   k = 10⁹ case, so this also checks the analyses' complexity without a
//!   timing bound;
//! - **extremes** — the largest value the parser accepts (`u64::MAX`, or
//!   `u32::MAX` for the u32 ARQ and link fields) in any one time, ARQ or
//!   link field of any one line goes through parse, lint, the timing
//!   certificate and a depth-2 exploration and comes back as a report,
//!   never a panic or a stall (these tests run with overflow checks on);
//! - **AIR011 once** — a partition with many short cycles is reported
//!   once per schedule, not once per cycle.

use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};

use air_lint::{explore_with, lint, lint_config_text, lint_timing, Code, ExploreConfig, Severity};
use air_lint::{parse_members, LintReport};

/// The time fields of the grammar: `key=<ticks>`, the flow `deadline=`
/// included.
const TIME_FIELDS: [&str; 13] = [
    "mtf",
    "cycle",
    "duration",
    "offset",
    "period",
    "sporadic",
    "deadline",
    "wcet",
    "refresh",
    "timeout",
    "primary_latency",
    "secondary_latency",
    "revert",
];

/// The fields set to their largest accepted value, with that value.
const EXTREME_FIELDS: [(&str, u64); 17] = [
    ("mtf", u64::MAX),
    ("cycle", u64::MAX),
    ("duration", u64::MAX),
    ("offset", u64::MAX),
    ("period", u64::MAX),
    ("sporadic", u64::MAX),
    ("deadline", u64::MAX),
    ("wcet", u64::MAX),
    ("window", u64::MAX),
    ("timeout", u64::MAX),
    ("backoff_cap", u32::MAX as u64),
    ("max_retries", u32::MAX as u64),
    ("recovery_threshold", u32::MAX as u64),
    ("primary_latency", u64::MAX),
    ("secondary_latency", u64::MAX),
    ("failover_threshold", u32::MAX as u64),
    ("revert", u64::MAX),
];

/// The hub with the two fields no corpus or example file sets: an ARQ
/// `recovery_threshold` and a sporadic process.
fn uncovered_fields() -> (String, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/constellation_hub.air");
    let text = read(&path).replace("max_retries=8", "max_retries=8 recovery_threshold=4")
        + "process P1 name=tm sporadic=100 wcet=5\n";
    (
        "constellation_hub.air + recovery_threshold + sporadic".to_owned(),
        text,
    )
}

/// The timing certificate (AIR110–AIR117) adds tick constants that do
/// not scale with the configuration: `MESH_LATENCY`, `MESH_HOP_SLACK`,
/// the default ARQ and `FAILOVER_PENALTY_BUDGET`.
fn scale_invariant(code: Code) -> bool {
    !matches!(
        code,
        Code::FlowDeadlineExceeded
            | Code::FlowUnroutable
            | Code::FlowArqUnbounded
            | Code::FlowFailoverBudgetBlown
            | Code::FlowOverDeadEndFallback
            | Code::FlowDeadlineMissing
            | Code::FlowDeadlineBelowMtf
            | Code::FlowClockGranularityMismatch
    )
}

/// Every `.air` file of the golden corpus and the examples, sorted.
fn configs() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files: Vec<PathBuf> = ["tests/lint_corpus", "examples"]
        .iter()
        .flat_map(|dir| std::fs::read_dir(root.join(dir)).expect("config directory exists"))
        .map(|entry| entry.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "air"))
        .collect();
    files.sort();
    assert!(files.len() > 50, "only {} configs found", files.len());
    files
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Rewrites the value of every `key=<digits>` token on `line` whose key
/// `pick` accepts; comments are left alone.
fn rewrite_line(line: &str, pick: impl Fn(&str, &str) -> Option<String>) -> String {
    let (code, comment) = line.split_at(line.find('#').unwrap_or(line.len()));
    let code: Vec<String> = code
        .split(' ')
        .map(|token| match token.split_once('=') {
            Some((key, value))
                if value.bytes().all(|b| b.is_ascii_digit()) && !value.is_empty() =>
            {
                pick(key, value).map_or_else(|| token.to_owned(), |v| format!("{key}={v}"))
            }
            _ => token.to_owned(),
        })
        .collect();
    code.join(" ") + comment
}

/// `text` with every time field multiplied by `k`.
fn scaled(text: &str, k: u64) -> String {
    let scale = |key: &str, value: &str| {
        TIME_FIELDS.contains(&key).then(|| {
            let v: u64 = value.parse().expect("digits");
            (v.checked_mul(k).expect("scaled value fits u64")).to_string()
        })
    };
    text.lines()
        .map(|line| rewrite_line(line, scale) + "\n")
        .collect()
}

fn findings(report: &LintReport) -> Vec<(Code, Severity, Option<usize>)> {
    let mut out: Vec<_> = report
        .diagnostics()
        .iter()
        .filter(|d| scale_invariant(d.code))
        .map(|d| (d.code, d.severity(), d.line))
        .collect();
    out.sort();
    out
}

#[test]
fn scaling_every_time_field_keeps_every_finding() {
    for path in configs() {
        let text = read(&path);
        let base = findings(&lint_config_text(&text));
        for k in [1_000, 1_000_000_000] {
            let report = lint_config_text(&scaled(&text, k));
            assert_eq!(
                findings(&report),
                base,
                "{} scaled by {k}:\n{report}",
                path.display()
            );
        }
    }
}

#[test]
fn u64_max_in_any_time_field_never_panics() {
    let mut parsed = Vec::new();
    let explore = ExploreConfig {
        depth: 2,
        ..ExploreConfig::default()
    };
    let (mut variants, mut panicked) = (0, Vec::new());
    let sources = configs()
        .into_iter()
        .map(|path| (path.display().to_string(), read(&path)))
        .chain([uncovered_fields()]);
    for (name, text) in sources {
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            for (field, max) in EXTREME_FIELDS {
                let extreme = rewrite_line(line, |key, _| (key == field).then(|| max.to_string()));
                if extreme == *line {
                    continue;
                }
                variants += 1;
                let mut mutated = lines.clone();
                mutated[i] = &extreme;
                let mutated = mutated.join("\n");
                let Ok(models) = parse_members(&[&mutated]).into_models() else {
                    continue;
                };
                parsed.push(field);
                let model = &models[0];
                let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    lint(model);
                    lint_timing(&models);
                    explore_with(model, &explore);
                }));
                if run.is_err() {
                    panicked.push(format!("{name} line {} {field}", i + 1));
                }
            }
        }
    }
    assert!(variants > 300, "only {variants} variants");
    for (field, _) in EXTREME_FIELDS {
        assert!(parsed.contains(&field), "no variant of {field} parsed");
    }
    assert!(
        panicked.is_empty(),
        "u64::MAX panicked in:\n{}",
        panicked.join("\n")
    );
}

#[test]
fn saturated_arq_backoff_is_not_certified_clean() {
    // 64 doublings of the 24-tick timeout overflow u64: the per-hop ARQ
    // term must saturate and blow the 6000-tick deadline, not wrap to a
    // small certified bound.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/constellation_hub.air");
    let text = read(&path).replace(
        "arq window=8 timeout=24 backoff_cap=3 max_retries=8",
        "arq window=8 timeout=24 backoff_cap=64 max_retries=64",
    );
    let models = parse_members(&[&text])
        .into_models()
        .expect("the hub parses");
    let timing = lint_timing(&models);
    let (report, bounds) = (&timing.report, &timing.bounds);
    assert!(
        report
            .diagnostics()
            .iter()
            .any(|d| d.code == Code::FlowDeadlineExceeded),
        "{report}"
    );
    assert!(
        bounds.iter().all(|b| b.certified == Some(u64::MAX)),
        "{bounds:?}"
    );
    assert!(
        bounds.iter().all(|b| b.slack().is_some_and(|s| s < 0)),
        "{bounds:?}"
    );
}

#[test]
fn overflowing_window_is_a_parse_error_on_its_line() {
    let report = lint_config_text(
        "partition P0 name=A\n\
         schedule chi0 name=ops mtf=100\n\
         \x20 require P0 cycle=100 duration=10\n\
         \x20 window P0 offset=18446744073709551615 duration=10\n",
    );
    let d = &report.diagnostics()[0];
    assert_eq!((d.code, d.line), (Code::ParseError, Some(4)), "{report}");
}

#[test]
fn air011_is_reported_once_per_short_schedule_and_partition() {
    // At a 10⁷-tick MTF every 100-tick cycle but the first of both
    // partitions under both schedules gets no window: four short
    // (schedule, partition) pairs of 99 999 short cycles each.
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/lint_corpus/warn_explore_deadline_cross_mode.air");
    let text = read(&path).replace("mtf=100\n", "mtf=10000000\n");
    let report = lint_config_text(&text);
    let short: Vec<_> = report
        .diagnostics()
        .iter()
        .filter(|d| d.code == Code::InsufficientDurationInCycle)
        .collect();
    assert_eq!(short.len(), 4, "{report}");
    for d in short {
        assert!(
            d.message.ends_with("; 99999 cycles fall short"),
            "{}",
            d.message
        );
    }
}
