//! `airlint`: lint AIR configuration files from the command line.
//!
//! ```text
//! airlint [--json] [--explore [--depth N] [--max-states M] [--workers W] [--no-por]] <config.air> [more.air ...]
//! airlint [--json] --cluster <node_a.air> <node_b.air> [more.air ...]
//! airlint --explain AIRnnn
//! ```
//!
//! `--cluster` takes two or more files describing the members of a
//! multi-node integration: each member is linted on its own, then the
//! set is cross-checked (AIR080 — remote channels must pair up with
//! inbound gateways on some peer; AIR090–AIR094 — routed-mesh identity,
//! routing and APID consistency, once `node` directives appear).
//!
//! `--explore` additionally walks the mode/HM configuration graph
//! breadth-first up to `--depth` events (default 4) and reports invariant
//! violations (AIR081–AIR086, AIR095–AIR098), each carrying a replayable
//! counterexample witness. `--max-states` bounds the stored state count
//! (hitting the cap is surfaced as the AIR098 warning), `--workers`
//! expands each slice of up to 1,024 frontier states on that many threads
//! (states are still committed on one, so the output never changes), and `--no-por`
//! disables the partial-order reduction (useful to cross-check that the
//! reduction changed nothing).
//!
//! `--timing` additionally certifies every declared `flow` directive: it
//! treats the given files as one member set, composes the per-node
//! worst-case window response times with the per-hop routing, ARQ and
//! reroute/failover terms, and prints one certified bound per flow
//! (AIR110–AIR117 findings appear in the lint reports themselves). With
//! `--json`, each bound is one JSON object
//! (`{"flow":…,"certified":…,"fault_free":…,"deadline":…,"slack":…,
//! "critical_path":…}`) after the diagnostic lines, so downstream
//! tooling can diff timing regressions; see DESIGN.md §15.
//!
//! `--explain` prints the registry entry (severity, description, example)
//! of a diagnostic code and exits.
//!
//! Human-readable findings go to stdout (or line-oriented JSON with
//! `--json`). Exit status: 0 when no `Error`-level finding was emitted,
//! 1 when at least one was, 2 on usage or I/O problems.

use std::process::ExitCode;

use air_lint::{
    lint, lint_explored, lint_members, lint_timing, parse_members, Code, ExploreConfig, FlowBound,
};

fn usage() {
    eprintln!(
        "usage: airlint [--json] [--timing] [--explore [--depth N] [--max-states M] \
         [--workers W] [--no-por]] <config.air>..."
    );
    eprintln!(
        "       airlint [--json] [--timing] --cluster <node_a.air> <node_b.air> [more.air ...]"
    );
    eprintln!("       airlint --explain AIRnnn");
}

/// One `--json` line for a certified flow bound.
fn flow_json(b: &FlowBound) -> String {
    let opt = |v: Option<u64>| v.map_or("null".to_owned(), |v| v.to_string());
    format!(
        "{{\"flow\":\"{}\",\"certified\":{},\"fault_free\":{},\"deadline\":{},\
         \"slack\":{},\"critical_path\":\"{}\"}}",
        b.label(),
        opt(b.certified),
        opt(b.fault_free),
        opt(b.deadline),
        b.slack().map_or("null".to_owned(), |s| s.to_string()),
        b.critical_path.replace('\\', "\\\\").replace('"', "\\\""),
    )
}

fn explain(code_text: &str) -> ExitCode {
    let Some(code) = Code::parse(code_text) else {
        eprintln!(
            "airlint: unknown diagnostic code '{code_text}' \
             (codes run AIR000..; see DESIGN.md for the registry)"
        );
        return ExitCode::from(2);
    };
    println!("{} ({})", code, code.severity());
    println!("  {}", code.title());
    println!("  example: {}", code.example());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut json = false;
    let mut cluster = false;
    let mut explore = false;
    let mut timing = false;
    let mut config = ExploreConfig::default();
    let mut files = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--cluster" => cluster = true,
            "--explore" => explore = true,
            "--timing" => timing = true,
            "--no-por" => config.por = false,
            "--depth" | "--max-states" | "--workers" => {
                let Some(value) = args.next() else {
                    eprintln!("airlint: {arg} needs a value");
                    return ExitCode::from(2);
                };
                let Ok(n) = value.parse::<usize>() else {
                    eprintln!("airlint: invalid {arg} value '{value}'");
                    return ExitCode::from(2);
                };
                match arg.as_str() {
                    "--depth" => config.depth = n,
                    "--max-states" => {
                        if n == 0 {
                            eprintln!("airlint: --max-states must be at least 1");
                            return ExitCode::from(2);
                        }
                        config.max_states = n;
                    }
                    _ => {
                        if n == 0 {
                            eprintln!("airlint: --workers must be at least 1");
                            return ExitCode::from(2);
                        }
                        config.workers = n;
                    }
                }
            }
            "--explain" => {
                let Some(code_text) = args.next() else {
                    eprintln!("airlint: --explain needs a code (e.g. AIR081)");
                    return ExitCode::from(2);
                };
                return explain(&code_text);
            }
            "--help" | "-h" => {
                println!(
                    "usage: airlint [--json] [--timing] [--explore [--depth N] \
                     [--max-states M] [--workers W] [--no-por]] <config.air>..."
                );
                println!("       airlint [--json] [--timing] --cluster <node_a.air> <node_b.air> [more.air ...]");
                println!("       airlint --explain AIRnnn");
                println!("exit status: 0 clean, 1 errors found, 2 usage/I/O failure");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("airlint: unknown option '{other}'");
                return ExitCode::from(2);
            }
            file => files.push(file.to_owned()),
        }
    }
    if files.is_empty() || (cluster && files.len() < 2) {
        if cluster {
            eprintln!(
                "airlint: --cluster takes at least two files, got {}",
                files.len()
            );
        }
        usage();
        return ExitCode::from(2);
    }

    let mut texts = Vec::new();
    for file in &files {
        match std::fs::read_to_string(file) {
            Ok(text) => texts.push(text),
            Err(e) => {
                eprintln!("airlint: {file}: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let members = parse_members(&texts);
    let mut any_error = false;
    for (i, file) in files.iter().enumerate() {
        let report = match members.member(i) {
            Ok(model) if explore => lint_explored(model, &config),
            Ok(model) => lint(model),
            Err(report) => report,
        };
        any_error |= report.has_errors();
        if json {
            print!("{}", report.to_json_lines());
        } else {
            println!("== {file} ==");
            println!("{report}");
        }
    }
    let set = members.into_models();
    if cluster {
        let report = match &set {
            Ok(models) => lint_members(models),
            Err(report) => report.clone(),
        };
        any_error |= report.has_errors();
        if json {
            print!("{}", report.to_json_lines());
        } else {
            println!("== cluster: {} ==", files.join(" + "));
            println!("{report}");
        }
    }
    if timing {
        let bounds = match &set {
            Ok(models) => {
                let certified = lint_timing(models);
                any_error |= certified.report.has_errors();
                certified.bounds
            }
            // A member that fails to parse suppresses certification; its
            // own report above already carries the AIR000.
            Err(_) => Vec::new(),
        };
        if json {
            for b in &bounds {
                println!("{}", flow_json(b));
            }
        } else {
            println!("== timing: certified worst-case flow latencies ==");
            if bounds.is_empty() {
                println!("(no `flow` directives declared)");
            }
            for b in &bounds {
                let shown = |v: Option<u64>| v.map_or("-".to_owned(), |v| v.to_string());
                println!(
                    "flow {}  certified {}  deadline {}  slack {}",
                    b.label(),
                    shown(b.certified),
                    shown(b.deadline),
                    b.slack().map_or("-".to_owned(), |s| s.to_string()),
                );
                println!("  {}", b.critical_path);
            }
        }
    }
    if any_error {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
