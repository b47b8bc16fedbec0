//! Seeded mutation fuzz of the whole `airlint` pipeline: no edit of a
//! well-formed configuration makes it panic.
//!
//! A fixed seed draws mutants of every golden-corpus and example file:
//! a deleted line, a line duplicated to a random place, the text truncated
//! at a char boundary, or two tokens of the text swapped. Each mutant goes
//! through the parser and, when it parses, through `lint`, `lint_members`,
//! `lint_timing` and a depth-3 exploration, all inside `catch_unwind`.
//! Every mutant must come back as a report or a typed `ConfigError`. The
//! seed and the mutant count are fixed, so a failure names a mutant that
//! any later run reproduces; the fix belongs in the program.

use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};

use air_lint::{explore_with, lint, lint_members, lint_timing, ExploreConfig, SystemModel};
use air_model::testkit::TestRng;

/// The seed of every draw.
const SEED: u64 = 0x00A1_2F0C_0FFE;

/// Mutants drawn from each file.
const MUTANTS_PER_FILE: usize = 32;

/// The edits a mutant is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mutation {
    DeleteLine,
    DuplicateLine,
    Truncate,
    SwapTokens,
}

const MUTATIONS: [Mutation; 4] = [
    Mutation::DeleteLine,
    Mutation::DuplicateLine,
    Mutation::Truncate,
    Mutation::SwapTokens,
];

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

/// `text` with `mutation` applied at places drawn from `rng`.
fn mutate(text: &str, mutation: Mutation, rng: &mut TestRng) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    match mutation {
        Mutation::DeleteLine => {
            if !lines.is_empty() {
                lines.remove(rng.below_usize(lines.len()));
            }
            lines.join("\n")
        }
        Mutation::DuplicateLine => {
            if !lines.is_empty() {
                let line = lines[rng.below_usize(lines.len())];
                lines.insert(rng.below_usize(lines.len() + 1), line);
            }
            lines.join("\n")
        }
        Mutation::Truncate => {
            let mut cut = rng.below_usize(text.len() + 1);
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            text[..cut].to_owned()
        }
        Mutation::SwapTokens => {
            let tokens: Vec<(usize, &str)> = text
                .split_whitespace()
                .map(|token| (token.as_ptr() as usize - text.as_ptr() as usize, token))
                .collect();
            if tokens.len() < 2 {
                return text.to_owned();
            }
            let a = rng.below_usize(tokens.len());
            let b = (a + 1 + rng.below_usize(tokens.len() - 1)) % tokens.len();
            let (first, second) = (tokens[a.min(b)], tokens[a.max(b)]);
            let end = |(at, token): (usize, &str)| at + token.len();
            [
                &text[..first.0],
                second.1,
                &text[end(first)..second.0],
                first.1,
                &text[end(second)..],
            ]
            .concat()
        }
    }
}

/// Parse, `lint`, `lint_members`, `lint_timing` and a depth-3
/// exploration of `text`; whether it parsed.
fn run_pipeline(text: &str) -> bool {
    let Ok(doc) = air_tools::config::parse(text) else {
        return false;
    };
    let models = [SystemModel::from_config(&doc)];
    lint(&models[0]);
    lint_members(&models);
    lint_timing(&models);
    explore_with(
        &models[0],
        &ExploreConfig {
            depth: 3,
            ..ExploreConfig::default()
        },
    );
    true
}

#[test]
fn seeded_mutants_of_every_config_never_panic() {
    let mut rng = TestRng::new(SEED);
    let mut panicked = Vec::new();
    // Per mutation: (mutants, parsed).
    let mut counts = [(0usize, 0usize); MUTATIONS.len()];
    for path in configs() {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for n in 0..MUTANTS_PER_FILE {
            let kind = n % MUTATIONS.len();
            let mutant = mutate(&text, MUTATIONS[kind], &mut rng);
            match std::panic::catch_unwind(AssertUnwindSafe(|| run_pipeline(&mutant))) {
                Ok(parsed) => {
                    counts[kind].0 += 1;
                    counts[kind].1 += usize::from(parsed);
                }
                Err(_) => panicked.push(format!(
                    "{} mutant {n} ({:?}):\n{mutant}",
                    path.display(),
                    MUTATIONS[kind]
                )),
            }
        }
    }
    assert!(
        panicked.is_empty(),
        "{} mutants panicked:\n{}",
        panicked.len(),
        panicked.join("\n----\n")
    );
    // Each kind must get past the parser in at least one mutant of twenty
    // and fail it in some, or the fuzz tests only one side of it.
    for (mutation, (mutants, parsed)) in MUTATIONS.iter().zip(counts) {
        assert!(
            parsed * 20 >= mutants && parsed < mutants,
            "{mutation:?}: {parsed} of {mutants} mutants parsed"
        );
    }
}
