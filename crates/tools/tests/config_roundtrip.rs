//! Every corpus and example configuration that parses survives the
//! emitter: `parse(emit(parse(x)))` is `parse(x)` but for its spans,
//! which name the lines of the text they were read from, and `emit` is a
//! fixed point of that round trip. A declaration the emitter drops, or
//! writes in a form the parser reads differently, fails here.

use std::path::{Path, PathBuf};

use air_tools::config::{emit, parse, ConfigDoc, Spans};

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

fn without_spans(doc: ConfigDoc) -> ConfigDoc {
    ConfigDoc {
        spans: Spans::default(),
        ..doc
    }
}

#[test]
fn parse_emit_parse_is_the_identity_on_every_config() {
    let mut round_trips = 0;
    for path in configs() {
        let text = std::fs::read_to_string(&path).expect("readable config");
        let Ok(doc) = parse(&text) else {
            continue;
        };
        let emitted = emit(&doc);
        let reparsed = parse(&emitted)
            .unwrap_or_else(|e| panic!("{}: emitted text fails: {e}\n{emitted}", path.display()));
        assert_eq!(emit(&reparsed), emitted, "{}", path.display());
        assert_eq!(
            without_spans(reparsed),
            without_spans(doc),
            "{}:\n{emitted}",
            path.display()
        );
        round_trips += 1;
    }
    assert!(round_trips > 100, "only {round_trips} configs parse");
}
