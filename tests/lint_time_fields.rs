//! Properties of `air-lint` over the time fields of every corpus and
//! example configuration:
//!
//! - **tick scale** — multiplying every time field by k ∈ {10³, 10⁹}
//!   leaves the multiset of (code, severity, line) unchanged. Only an
//!   analysis whose cost does not grow with the tick unit finishes the
//!   k = 10⁹ case, so this also checks the analyses' complexity without a
//!   timing bound;
//! - **extremes** — the largest value the parser accepts ([`Kind::max`])
//!   in any one numeric field of any one line goes through parse, lint,
//!   the timing certificate and a depth-2 exploration and comes back as a
//!   report, never a panic or a stall (these tests run with overflow
//!   checks on);
//! - **coverage** — every field of the grammar is set by some corpus or
//!   example file, so the sweeps above reach it;
//! - **id extremes** — the largest node id (`N65535`) or APID
//!   ([`APID_MAX`]) the parser accepts in any one id that a grammar row
//!   types as [`Kind::Node`], [`Kind::Apid`] or [`Kind::Source`] (today
//!   those of `node`, `route`, `apid` and `flow` lines) goes through
//!   parse, `lint`,
//!   `lint_members`, `lint_timing` and a depth-2 exploration and comes
//!   back as a report; one past it is an AIR000 on that line;
//! - **AIR011 once** — a partition with many short cycles is reported
//!   once per schedule, not once per cycle.

use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};

use air_lint::{explore_with, lint, lint_config_text, lint_timing, Code, ExploreConfig, Severity};
use air_lint::{lint_members, parse_members, LintReport, SystemModel};
use air_ports::spacepacket::APID_MAX;
use air_tools::config::{Directive, Field, Kind, DIRECTIVES};

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

/// The grammar row of `line`'s directive, if it has one.
fn row(line: &str) -> Option<&'static Directive> {
    let keyword = line.split('#').next()?.split_whitespace().next()?;
    DIRECTIVES.into_iter().find(|row| row.keyword == keyword)
}

/// Whether `value` is a decimal or `0x` hex number.
fn is_number(value: &str) -> bool {
    let (digits, radix) = value
        .strip_prefix("0x")
        .map_or((value, 10), |hex| (hex, 16));
    !digits.is_empty() && digits.chars().all(|c| c.is_digit(radix))
}

/// Rewrites the value of every `key=<number>` token on `line` whose field
/// in the line's row `pick` accepts; comments are left alone.
fn rewrite_line(line: &str, pick: impl Fn(&Field, &str) -> Option<String>) -> String {
    let Some(row) = row(line) else {
        return line.to_owned();
    };
    let (code, comment) = line.split_at(line.find('#').unwrap_or(line.len()));
    let code: Vec<String> = code
        .split(' ')
        .map(|token| match token.split_once('=') {
            Some((key, value)) if is_number(value) => {
                let field = row.fields.iter().find(|f| f.key == key);
                let picked = field.and_then(|field| pick(field, value));
                picked.map_or_else(|| token.to_owned(), |v| format!("{key}={v}"))
            }
            _ => token.to_owned(),
        })
        .collect();
    code.join(" ") + comment
}

/// `text` with every time field multiplied by `k`.
fn scaled(text: &str, k: u64) -> String {
    let scale = |field: &Field, value: &str| {
        (field.kind == Kind::Ticks).then(|| {
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
fn the_largest_value_of_any_numeric_field_never_panics() {
    let mut parsed = Vec::new();
    let explore = ExploreConfig {
        depth: 2,
        ..ExploreConfig::default()
    };
    let (mut variants, mut panicked) = (0, Vec::new());
    for path in configs() {
        let text = read(&path);
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            let Some(directive) = row(line) else {
                continue;
            };
            for field in directive.fields {
                let Some(max) = field.kind.max() else {
                    continue;
                };
                let pick = |f: &Field, _: &str| (f.key == field.key).then(|| max.to_string());
                let extreme = rewrite_line(line, pick);
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
                parsed.push((directive.keyword, field.key));
                let model = &models[0];
                let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    lint(model);
                    lint_timing(&models);
                    explore_with(model, &explore);
                }));
                if run.is_err() {
                    panicked.push(format!("{} line {} {}", path.display(), i + 1, field.key));
                }
            }
        }
    }
    assert!(variants > 300, "only {variants} variants");
    for directive in DIRECTIVES {
        for field in directive.fields.iter().filter(|f| f.kind.max().is_some()) {
            let parses = parsed.contains(&(directive.keyword, field.key));
            assert!(
                parses,
                "no variant of {} {}= parsed",
                directive.keyword, field.key
            );
        }
    }
    assert!(
        panicked.is_empty(),
        "the largest value panicked in:\n{}",
        panicked.join("\n")
    );
}

#[test]
fn every_field_of_the_grammar_is_set_by_some_config() {
    let texts: Vec<String> = configs().iter().map(|path| read(path)).collect();
    let lines: Vec<&str> = texts.iter().flat_map(|text| text.lines()).collect();
    let mut unset = Vec::new();
    for directive in DIRECTIVES {
        for field in directive.fields {
            let sets = |line: &&str| {
                let code = line.split('#').next().unwrap_or("");
                let prefix = format!("{}=", field.key);
                row(line).is_some_and(|r| r.keyword == directive.keyword)
                    && code.split_whitespace().any(|t| t.starts_with(&prefix))
            };
            if !lines.iter().any(sets) {
                unset.push(format!("{} {}=", directive.keyword, field.key));
            }
        }
    }
    assert!(unset.is_empty(), "no corpus or example file sets {unset:?}");
}

/// The kinds of id the mesh grammar carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Id {
    /// `N<id>`: a `node`, a `route` destination or `via=`, a `fallback=`
    /// and both ends of a `flow`.
    Node,
    /// An `apid` line's id and a flow source's `N<src>:<apid>`.
    Apid,
}

/// The largest id of each kind the parser accepts: node ids are `u16`,
/// and APID 2047 is the CCSDS idle packet's, so the last one is 2046.
fn id_max(kind: Id) -> u32 {
    match kind {
        Id::Node => u32::from(u16::MAX),
        Id::Apid => u32::from(APID_MAX),
    }
}

/// `line` once for every id it carries, that id set to `value(kind)`,
/// with the kind; comments are left alone. The line's row says which
/// tokens are ids: its [`Kind::Node`] and [`Kind::Apid`] positionals and
/// fields, and a [`Kind::Source`] positional's node and APID. A token that
/// does not spell an id of its kind is left as it is.
fn id_variants(line: &str, value: impl Fn(Id) -> u32) -> Vec<(Id, String)> {
    let Some(row) = row(line) else {
        return Vec::new();
    };
    let (code, comment) = line.split_at(line.find('#').unwrap_or(line.len()));
    let tokens: Vec<&str> = code.split(' ').collect();
    let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    let node = |s: &str| s.strip_prefix('N').is_some_and(digits);
    let (n, a) = (value(Id::Node), value(Id::Apid));
    let mut positionals = row.args.iter();
    let mut out = Vec::new();
    // The first non-empty token is the keyword.
    for (i, token) in tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_empty())
        .skip(1)
    {
        let (key, id, kind) = match token.split_once('=') {
            Some((key, id)) => {
                let field = row.fields.iter().find(|f| f.key == key);
                (format!("{key}="), id, field.map(|f| f.kind))
            }
            None => (String::new(), *token, positionals.next().copied()),
        };
        let rewritten = match kind {
            Some(Kind::Node) if node(id) => vec![(Id::Node, format!("{key}N{n}"))],
            Some(Kind::Apid) if digits(id) => vec![(Id::Apid, format!("{key}{a}"))],
            Some(Kind::Source) => match id.split_once(':') {
                Some((src, apid)) if node(src) && digits(apid) => vec![
                    (Id::Node, format!("N{n}:{apid}")),
                    (Id::Apid, format!("{src}:{a}")),
                ],
                _ => Vec::new(),
            },
            _ => Vec::new(),
        };
        for (kind, token) in rewritten {
            let mut line = tokens.clone();
            line[i] = &token;
            out.push((kind, line.join(" ") + comment));
        }
    }
    out
}

/// `lint`, `lint_members`, `lint_timing` and a depth-2 exploration of
/// every member: the whole pipeline past the parser.
fn run_pipeline(models: &[SystemModel]) {
    let explore = ExploreConfig {
        depth: 2,
        ..ExploreConfig::default()
    };
    for model in models {
        lint(model);
        explore_with(model, &explore);
    }
    lint_members(models);
    lint_timing(models);
}

#[test]
fn largest_node_id_and_apid_never_panic() {
    let (mut variants, mut parsed, mut panicked) = (0, Vec::new(), Vec::new());
    for path in configs() {
        let text = read(&path);
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            for (kind, extreme) in id_variants(line, id_max) {
                variants += 1;
                let mut mutated = lines.clone();
                mutated[i] = &extreme;
                let mutated = mutated.join("\n");
                let Ok(models) = parse_members(&[&mutated]).into_models() else {
                    continue;
                };
                parsed.push(kind);
                let run = std::panic::catch_unwind(AssertUnwindSafe(|| run_pipeline(&models)));
                if run.is_err() {
                    panicked.push(format!("{} line {}: {extreme}", path.display(), i + 1));
                }
            }
        }
    }
    assert!(variants > 300, "only {variants} variants");
    for kind in [Id::Node, Id::Apid] {
        assert!(parsed.contains(&kind), "no {kind:?} variant parsed");
    }
    assert!(
        panicked.is_empty(),
        "the largest id panicked in:\n{}",
        panicked.join("\n")
    );
}

#[test]
fn largest_node_id_across_a_member_set_never_panics() {
    // The five-node line mesh with its executor N4 renamed N65535 in
    // every member, and a flow from the ground node to it: routes, the
    // flow and the node itself agree, so the cross-member checks and the
    // flow certificate see the extreme id.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let rename = |token: &str| match token.split_once('=') {
        Some((key, "N4")) => format!("{key}=N65535"),
        _ if token == "N4" => "N65535".to_owned(),
        _ => token.to_owned(),
    };
    let mut texts: Vec<String> = (0..5)
        .map(|k| {
            read(&root.join(format!("mesh_n{k}.air")))
                .lines()
                .map(|line| line.split(' ').map(rename).collect::<Vec<_>>().join(" ") + "\n")
                .collect()
        })
        .collect();
    texts[0] += "flow N0:100 -> N65535 deadline=6000\n";
    let models = parse_members(&texts)
        .into_models()
        .unwrap_or_else(|report| panic!("the renamed mesh parses:\n{report}"));
    run_pipeline(&models);
    let bounds = lint_timing(&models).bounds;
    assert_eq!(bounds.len(), 1, "{bounds:?}");
    assert_eq!(bounds[0].dst, u16::MAX);
    assert!(bounds[0].certified.is_some(), "{bounds:?}");
}

#[test]
fn one_past_the_largest_id_is_a_parse_error_on_its_line() {
    let mut variants = 0;
    for path in configs() {
        let text = read(&path);
        if parse_members(&[&text]).into_models().is_err() {
            continue;
        }
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            for (kind, past) in id_variants(line, |kind| id_max(kind) + 1) {
                variants += 1;
                let mut mutated = lines.clone();
                mutated[i] = &past;
                let report = lint_config_text(&mutated.join("\n"));
                let found: Vec<_> = report
                    .diagnostics()
                    .iter()
                    .map(|d| (d.code, d.line))
                    .collect();
                assert_eq!(
                    found,
                    [(Code::ParseError, Some(i + 1))],
                    "{} line {} {kind:?}: {past}",
                    path.display(),
                    i + 1
                );
            }
        }
    }
    assert!(variants > 300, "only {variants} variants");
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
