//! Golden corpus for `air-lint`: every `.air` file under
//! `tests/lint_corpus/` is linted and its line-oriented JSON report is
//! compared byte-for-byte against the sibling `.expected` file, so the
//! exact diagnostic codes (and their lines) are pinned down.
//!
//! Conventions:
//!
//! - `clean_*` cases lint without errors, `warn_*` cases have findings
//!   but no errors, everything else must produce at least one error;
//! - a first line `#!explore depth=N [max_states=M]` (a comment to the
//!   parser) runs the case through [`lint_explored`] at
//!   that depth (and, when given, under that state cap), so the golden
//!   pins the exploration diagnostics (AIR081–AIR086, AIR095–AIR098)
//!   too;
//! - `<base>_pair_a.air` / `<base>_pair_b.air` describe the two nodes of
//!   a cluster, and `<base>_mesh_a.air`, `<base>_mesh_b.air`, … the
//!   members of an N-node routed mesh: a pair is a two-member set. Set
//!   members are excluded from the per-file loops; each set is checked
//!   against `<base>_pair.expected` / `<base>_mesh.expected`, the
//!   concatenation of every per-member report and the member-set
//!   cross-check (exactly what `airlint --json --cluster` prints for the
//!   member list).
//!
//! Every golden is checked twice: once through the library, and once
//! through the built `airlint` binary, which must print the golden byte
//! for byte and exit 1 exactly when it holds an Error-level line. The
//! binary must also exit 0 on every example invocation below, and its
//! `--json` reports on the examples must hash to a recorded digest.
//!
//! To regenerate a golden after an intentional change:
//! `cargo run -p air-lint --bin airlint -- --json tests/lint_corpus/<case>.air`
//! (add `--explore --depth N` — plus `--max-states M` when the marker
//! carries a `max_states=` token — for marked cases,
//! `--cluster <base>_pair_a.air <base>_pair_b.air` for pairs, or
//! `--cluster <base>_mesh_a.air <base>_mesh_b.air …` for mesh sets) and
//! review the diff by hand before committing it.

use std::collections::BTreeSet;
use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::process::Command;

use air_lint::{
    lint_config_text, lint_explored, lint_members, parse_members, Code, ExploreConfig, LintReport,
};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/lint_corpus")
}

/// Per-file corpus cases — cluster pair nodes and mesh members are
/// handled by [`cluster_pairs_match_goldens`] and
/// [`mesh_sets_match_goldens`] instead.
fn corpus_cases() -> Vec<PathBuf> {
    let mut cases: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("corpus directory exists")
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "air"))
        .filter(|p| !is_pair_node(p) && !is_mesh_member(p))
        .collect();
    cases.sort();
    cases
}

/// Multi-node corpus sets (cluster pairs and mesh sets, found by a first
/// member whose stem ends in `_pair_a` or `_mesh_a`), sorted: each set's
/// base name, its golden and its member files in letter order up to the
/// first gap.
fn member_sets() -> Vec<(String, PathBuf, Vec<PathBuf>)> {
    let mut sets = Vec::new();
    for entry in std::fs::read_dir(corpus_dir()).expect("corpus directory exists") {
        let path = entry.expect("readable entry").path();
        let Some(stem) = path.file_stem().map(|s| s.to_string_lossy().into_owned()) else {
            continue;
        };
        let first = stem.ends_with("_pair_a") || stem.ends_with("_mesh_a");
        if path.extension().is_none_or(|ext| ext != "air") || !first {
            continue;
        }
        let base = stem.trim_end_matches("_a").to_owned();
        let members = ('a'..='z')
            .map(|letter| path.with_file_name(format!("{base}_{letter}.air")))
            .take_while(|member| member.exists())
            .collect();
        let golden = path.with_file_name(format!("{base}.expected"));
        sets.push((base, golden, members));
    }
    sets.sort();
    sets
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn is_pair_node(path: &Path) -> bool {
    path.file_stem().is_some_and(|s| {
        let s = s.to_string_lossy();
        s.ends_with("_pair_a") || s.ends_with("_pair_b")
    })
}

/// Whether `path` is one member of a mesh set (`<base>_mesh_<letter>`).
fn is_mesh_member(path: &Path) -> bool {
    path.file_stem().is_some_and(|s| {
        let s = s.to_string_lossy();
        match s.rsplit_once('_') {
            Some((prefix, suffix)) => {
                prefix.ends_with("_mesh")
                    && suffix.len() == 1
                    && suffix.chars().all(|c| c.is_ascii_lowercase())
            }
            None => false,
        }
    })
}

/// Lints `text` honouring the `#!explore depth=N [max_states=M]`
/// first-line marker.
fn report_for(text: &str) -> LintReport {
    let Some(config) = explore_marker(text) else {
        return lint_config_text(text);
    };
    match parse_members(&[text]).member(0) {
        Ok(model) => lint_explored(model, &config),
        Err(report) => report,
    }
}

/// Parses the first-line marker into an [`ExploreConfig`]: `depth=` is
/// mandatory, `max_states=` optional, anything else is a corpus bug.
fn explore_marker(text: &str) -> Option<ExploreConfig> {
    let first = text.lines().next()?;
    let rest = first.strip_prefix("#!explore")?;
    let mut config = ExploreConfig::default();
    let mut saw_depth = false;
    for token in rest.split_whitespace() {
        if let Some(depth) = token.strip_prefix("depth=") {
            config.depth = depth.parse().expect("well-formed depth= token");
            saw_depth = true;
        } else if let Some(cap) = token.strip_prefix("max_states=") {
            config.max_states = cap.parse().expect("well-formed max_states= token");
        } else {
            panic!("unrecognised #!explore token '{token}'");
        }
    }
    assert!(saw_depth, "#!explore marker is missing its depth= token");
    Some(config)
}

#[test]
fn corpus_is_not_empty() {
    assert!(
        corpus_cases().len() >= 15,
        "expected at least 15 corpus cases, found {}",
        corpus_cases().len()
    );
}

#[test]
fn corpus_reports_match_goldens() {
    let mut failures = Vec::new();
    for case in corpus_cases() {
        let text = std::fs::read_to_string(&case).expect("readable corpus case");
        let golden_path = case.with_extension("expected");
        let golden = std::fs::read_to_string(&golden_path)
            .unwrap_or_else(|_| panic!("missing golden file {}", golden_path.display()));
        let actual = report_for(&text).to_json_lines();
        if actual != golden {
            failures.push(format!(
                "== {} ==\n--- expected\n{golden}--- actual\n{actual}",
                case.display()
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn cluster_pairs_match_goldens() {
    check_member_sets("_pair", 1);
}

#[test]
fn mesh_sets_match_goldens() {
    // The clean set plus one per AIR09x code.
    check_member_sets("_mesh", 6);
}

/// The one member-set loop: checks every set whose base name ends in
/// `kind` (`_pair` or `_mesh`; a pair is a two-member set) against its
/// golden and the naming convention, and demands at least `min_sets`.
fn check_member_sets(kind: &str, min_sets: usize) {
    let sets: Vec<_> = member_sets()
        .into_iter()
        .filter(|(base, ..)| base.ends_with(kind))
        .collect();
    assert!(
        sets.len() >= min_sets,
        "expected at least {min_sets} {kind} member sets, found {}",
        sets.len()
    );
    for (base, golden, members) in &sets {
        if kind == "_pair" {
            assert_eq!(members.len(), 2, "pair {base} needs exactly two nodes");
        } else {
            assert!(
                members.len() >= 2,
                "member set {base} needs at least two members"
            );
        }
        let texts: Vec<String> = members.iter().map(|m| read(m)).collect();
        let mut actual = String::new();
        for text in &texts {
            actual.push_str(&report_for(text).to_json_lines());
        }
        let cross = match parse_members(&texts).into_models() {
            Ok(models) => lint_members(&models),
            Err(report) => report,
        };
        actual.push_str(&cross.to_json_lines());
        assert_eq!(
            actual,
            read(golden),
            "member set {base} diverged from its golden"
        );
        // Member sets follow the same naming convention as per-file cases.
        if base.starts_with("clean_") {
            assert!(!cross.has_errors(), "member set {base} should be clean");
        } else if base.starts_with("warn_") {
            assert!(
                !cross.has_errors(),
                "member set {base} should have no errors"
            );
            assert!(!cross.is_empty(), "member set {base} should have findings");
        } else {
            assert!(cross.has_errors(), "member set {base} should report errors");
        }
    }
}

/// Runs the built `airlint` binary on `args`; returns its stdout and exit
/// status.
fn airlint(args: &[OsString]) -> (String, i32) {
    let output = Command::new(env!("CARGO_BIN_EXE_airlint"))
        .args(args)
        .output()
        .expect("airlint runs");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    (
        stdout,
        output.status.code().expect("airlint exited normally"),
    )
}

#[test]
fn airlint_binary_reproduces_every_golden() {
    let mut invocations: Vec<(Vec<OsString>, PathBuf)> = Vec::new();
    for case in corpus_cases() {
        let mut args: Vec<OsString> = vec!["--json".into()];
        if let Some(config) = explore_marker(&read(&case)) {
            args.extend([
                "--explore".into(),
                "--depth".into(),
                config.depth.to_string().into(),
                "--max-states".into(),
                config.max_states.to_string().into(),
            ]);
        }
        let golden = case.with_extension("expected");
        args.push(case.into());
        invocations.push((args, golden));
    }
    for (_, golden, members) in member_sets() {
        let mut args: Vec<OsString> = vec!["--json".into(), "--cluster".into()];
        args.extend(members.into_iter().map(OsString::from));
        invocations.push((args, golden));
    }

    let mut failures = Vec::new();
    for (args, golden) in &invocations {
        let golden = read(golden);
        let (stdout, status) = airlint(args);
        // Exit 1 exactly when an Error-level finding was printed.
        let want = i32::from(golden.contains("\"severity\":\"error\""));
        if stdout != golden || status != want {
            failures.push(format!(
                "== airlint {args:?} ==\nexit {status} (want {want})\n--- expected\n{golden}--- actual\n{stdout}"
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn airlint_timing_certifies_nothing_when_a_member_fails_to_parse() {
    // Member B of this set fails to parse; member A declares a flow that
    // would certify if it did.
    let members: Vec<OsString> = ["a", "b"]
        .into_iter()
        .map(|m| {
            corpus_dir()
                .join(format!("member_parse_error_mesh_{m}.air"))
                .into()
        })
        .collect();
    let (stdout, status) = airlint(&[vec!["--timing".into()], members].concat());
    assert_eq!(status, 1, "{stdout}");
    assert!(!stdout.lines().any(|l| l.starts_with("flow ")), "{stdout}");
}

fn examples_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples")
}

/// Every `examples/*.air` file, sorted.
fn example_configs() -> Vec<PathBuf> {
    let mut examples: Vec<PathBuf> = std::fs::read_dir(examples_dir())
        .expect("examples directory exists")
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "air"))
        .collect();
    examples.sort();
    examples
}

fn example(name: &str) -> OsString {
    examples_dir().join(name).into()
}

/// The two example cluster nodes and the five example mesh members.
fn example_member_sets() -> [Vec<OsString>; 2] {
    [
        vec![
            example("cluster_degraded_a.air"),
            example("cluster_degraded_b.air"),
        ],
        (0..5).map(|n| example(&format!("mesh_n{n}.air"))).collect(),
    ]
}

#[test]
fn airlint_binary_passes_every_example_invocation() {
    let examples = example_configs();
    let [cluster, mesh] = example_member_sets();

    let mut invocations: Vec<Vec<OsString>> = Vec::new();
    // Plain lint over every example at once.
    invocations.push(examples.iter().map(OsString::from).collect());
    // Timing certification, one file at a time: `--timing` treats its
    // files as one member set, and the examples are independent systems.
    for path in &examples {
        invocations.push(vec!["--timing".into(), path.into()]);
    }
    // The cluster and mesh cross-checks.
    invocations.push([vec!["--cluster".into()], cluster.to_vec()].concat());
    invocations.push([vec!["--cluster".into()], mesh].concat());

    for args in &invocations {
        let (stdout, status) = airlint(args);
        assert_eq!(status, 0, "airlint {args:?}:\n{stdout}");
    }
    // Bounded mode/HM exploration at depth 3, then again on two workers
    // and without the partial-order reduction. Two workers must print the
    // same bytes; the reduction may pick another witness of the same
    // length, so only each line's head (the file header, or severity and
    // code) must match.
    let explore: Vec<OsString> = vec!["--explore".into(), "--depth".into(), "3".into()];
    let explored = [
        vec![example("full_system.air")],
        vec![example("constellation_hub.air")],
        cluster.to_vec(),
    ];
    let head = |stdout: &str| -> Vec<String> {
        stdout
            .lines()
            .map(|l| l.split(": ").next().unwrap_or(l).to_owned())
            .collect()
    };
    for files in &explored {
        let args = [explore.clone(), files.clone()].concat();
        let (baseline, status) = airlint(&args);
        assert_eq!(status, 0, "airlint {args:?}:\n{baseline}");
        let workers: Vec<OsString> = vec!["--workers".into(), "2".into()];
        let args = [explore.clone(), workers, files.clone()].concat();
        let (stdout, status) = airlint(&args);
        assert_eq!(status, 0, "airlint {args:?}:\n{stdout}");
        assert_eq!(stdout, baseline, "airlint {args:?}");
        let args = [explore.clone(), vec!["--no-por".into()], files.clone()].concat();
        let (stdout, status) = airlint(&args);
        assert_eq!(status, 0, "airlint {args:?}:\n{stdout}");
        assert_eq!(head(&stdout), head(&baseline), "airlint {args:?}");
    }
    // The hub carries the one deadlined flow: it must certify within it.
    let (stdout, _) = airlint(&["--timing".into(), example("constellation_hub.air")]);
    assert!(
        stdout.contains("flow N0:100 -> N4  certified 4900  deadline 6000  slack 1100"),
        "{stdout}"
    );
}

/// Folds `bytes` into the 64-bit FNV-1a hash `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn airlint_json_over_the_examples_is_pinned() {
    // The `--json` reports on the examples: each file alone through the
    // timing stage and a depth-2 exploration, then the cluster pair and
    // the mesh set. The examples lint clean on their own; the mesh
    // cross-check's findings carry the members' `node` and `route`
    // lines. The digest pins every report's bytes, so a finding that
    // moves to another line, or any other change to these reports, fails
    // here as it would against a corpus golden. After an intentional
    // change, review the reports by hand and record the digest the
    // failure prints.
    const DIGEST: u64 = 0x338d_58be_a1f4_1ea8;
    let json = || -> Vec<OsString> { vec!["--json".into(), "--timing".into()] };
    let mut invocations: Vec<Vec<OsString>> = example_configs()
        .into_iter()
        .map(|path| {
            let explore = ["--explore", "--depth", "2"].map(OsString::from);
            [json(), explore.to_vec(), vec![path.into()]].concat()
        })
        .collect();
    for members in example_member_sets() {
        invocations.push([json(), vec!["--cluster".into()], members].concat());
    }
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for args in &invocations {
        let (stdout, _) = airlint(args);
        digest = fnv1a(digest, stdout.as_bytes());
    }
    assert_eq!(digest, DIGEST, "digest {digest:#018x}");
}

#[test]
fn corpus_exercises_every_registered_code() {
    // Codes the text corpus cannot reach: the parser rejects duplicate
    // partition/schedule ids before lint runs (AIR070/AIR071 guard the
    // programmatic path), AIR014 is the catch-all for model verification
    // violations that have no dedicated code yet, and AIR099 only exists
    // at fuzz-farm runtime — it marks an abstraction/replay divergence,
    // which by construction no committed config may exhibit.
    let exempt: BTreeSet<&str> = ["AIR014", "AIR070", "AIR071", "AIR099"].into();
    let mut covered = BTreeSet::new();
    for entry in std::fs::read_dir(corpus_dir()).expect("corpus directory exists") {
        let path = entry.expect("readable entry").path();
        if path.extension().is_some_and(|ext| ext == "expected") {
            let golden = std::fs::read_to_string(&path).expect("readable golden");
            for code in Code::ALL {
                if golden.contains(&format!("\"{code}\"")) {
                    covered.insert(code.as_str());
                }
            }
        }
    }
    let missing: Vec<&str> = Code::ALL
        .iter()
        .map(|c| c.as_str())
        .filter(|c| !covered.contains(c) && !exempt.contains(c))
        .collect();
    assert!(
        missing.is_empty(),
        "codes with no golden corpus case: {missing:?}"
    );
}

#[test]
fn example_configs_lint_clean() {
    let examples = example_configs();
    for path in &examples {
        let report = lint_config_text(&read(path));
        assert!(!report.has_errors(), "{}:\n{report}", path.display());
    }
    assert!(
        examples.len() >= 2,
        "expected at least 2 .air examples, found {}",
        examples.len()
    );
}

#[test]
fn example_fig8_matches_the_generator() {
    // `examples/fig8.air` is the emitted form of the Sect. 6 prototype;
    // regenerate with `cargo run -p air-tools --bin airtool -- fig8`
    // whenever the prototype tables change.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/fig8.air");
    let on_disk = std::fs::read_to_string(path).expect("examples/fig8.air exists");
    assert_eq!(
        on_disk,
        air_tools::config::fig8_config_text(),
        "examples/fig8.air drifted from fig8_config_text()"
    );
}

#[test]
fn every_error_case_has_errors() {
    // Corpus convention: `clean_*` cases lint without errors, `warn_*`
    // cases have no errors but at least one finding, and everything else
    // must produce at least one Error-level diagnostic.
    for case in corpus_cases() {
        let text = std::fs::read_to_string(&case).expect("readable corpus case");
        let report = report_for(&text);
        let name = case.file_stem().unwrap().to_string_lossy().into_owned();
        if name.starts_with("clean_") {
            assert!(!report.has_errors(), "{name} should be clean:\n{report}");
        } else if name.starts_with("warn_") {
            assert!(
                !report.has_errors(),
                "{name} should have no errors:\n{report}"
            );
            assert!(!report.is_empty(), "{name} should have findings");
        } else {
            assert!(
                report.has_errors(),
                "{name} should report errors:\n{report}"
            );
        }
    }
}
