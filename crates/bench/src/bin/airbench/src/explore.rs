//! `explore_hub`: bounded exploration of a frozen copy of the
//! constellation hub at depth 8 on one worker (145,431 states). Nearly
//! all the work is `air-model` state generation, hashing and dedup, and
//! per-state cost grows with depth: the traced pass records the depth
//! curve that packed states should flatten.

use std::time::Instant;

use air_lint::{explore_with, lint, Exploration, ExploreConfig, SystemModel};

use crate::ledger::{Ledger, ROOT};
use crate::report::Outcome;
use crate::{inputs, secs, setup, Config, Timings};

const DEPTH: usize = 8;

/// The seeded hub text, parsed, then the gate `SystemBuilder::build`
/// applies: lint and a depth-2 exploration.
fn prepare_hub(seed: u64) -> (String, SystemModel) {
    let text = inputs::hub_text(seed);
    let doc = air_tools::config::parse(&text).expect("the frozen hub configuration parses");
    let model = SystemModel::from_config(&doc);
    drop(lint(&model));
    drop(explore(&model, 2));
    (text, model)
}

fn explore(model: &SystemModel, depth: usize) -> Exploration {
    explore_with(
        model,
        &ExploreConfig {
            depth,
            workers: 1,
            ..ExploreConfig::default()
        },
    )
}

/// What must not change between explorations of one input: the state
/// count and every finding with its witness.
fn verdict(e: &Exploration) -> (usize, Vec<String>) {
    let findings = e
        .counterexamples
        .iter()
        .map(|c| format!("{} {}", c.code, c.witness.render()))
        .collect();
    (e.states_explored, findings)
}

fn check(out: &mut Outcome, reference: &(usize, Vec<String>), e: &Exploration) {
    out.attempted += 1;
    let got = verdict(e);
    if got != *reference {
        out.mismatch(format!("{} states, reference {}", got.0, reference.0));
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let depth = if cfg.tiny { 3 } else { DEPTH };
    let prepare = || prepare_hub(cfg.seed);
    let ((text, model), mut setup_s) = setup(prepare);
    let mut out = Outcome::new();
    out.inputs_digest = inputs::digest(&text);
    let reference = verdict(&explore(&model, depth));

    if cfg.trace {
        traced(cfg, &text, depth, &reference, &mut out);
        return out;
    }
    let mut timings = Timings::new(vec![reference.0 as f64]);
    let start = Instant::now();
    while timings.count() == 0 || start.elapsed().as_secs_f64() < cfg.seconds {
        let t = Instant::now();
        let e = explore(&model, depth);
        timings.record(0, t.elapsed().as_secs_f64());
        check(&mut out, &reference, &e);
        setup_s.push(secs(|| drop(prepare())));
    }
    out.samples = vec![
        ("warmup", 1),
        ("explorations", timings.count()),
        ("states", reference.0),
    ];
    timings.report(&mut out);
    out.median_of("setup_s", setup_s);
    out
}

/// The depth curve's metric names.
const CURVE: [(usize, &str, &str); 5] = [
    (4, "model.states.d4", "model.states_per_s.d4"),
    (5, "model.states.d5", "model.states_per_s.d5"),
    (6, "model.states.d6", "model.states_per_s.d6"),
    (7, "model.states.d7", "model.states_per_s.d7"),
    (8, "model.states.d8", "model.states_per_s.d8"),
];

/// One traced operation: parse, model and lint, explore, each in a span.
/// Returns the exploration, the operation's seconds and the explore's.
fn traced_op(ledger: &mut Ledger, text: &str, depth: usize) -> (Exploration, f64, f64) {
    let root = ledger.open(ROOT, None);
    let (doc, _) = ledger.time("tools.parse", root, || air_tools::config::parse(text));
    let doc = doc.expect("the frozen hub configuration parses");
    let (model, _) = ledger.time("lint.model", root, || {
        let model = SystemModel::from_config(&doc);
        drop(lint(&model));
        model
    });
    let (e, explore_s) = ledger.time("model.explore", root, || explore(&model, depth));
    ledger.close(root);
    (e, ledger.span(root).secs(), explore_s)
}

fn traced(
    cfg: &Config,
    text: &str,
    depth: usize,
    reference: &(usize, Vec<String>),
    out: &mut Outcome,
) {
    let mut ledger = Ledger::new();
    // The depth curve below the workload's depth, three explorations per
    // depth (the shallow ones take milliseconds and are noisy alone).
    let curve: Vec<_> = CURVE.iter().filter(|c| c.0 < depth).collect();
    for &&(d, states, rate) in &curve {
        let runs: Vec<_> = (0..3).map(|_| traced_op(&mut ledger, text, d)).collect();
        out.value(states, runs[0].0.states_explored as f64);
        out.median_of(
            rate,
            runs.iter()
                .map(|(e, _, secs)| e.states_explored as f64 / secs)
                .collect(),
        );
    }
    let (mut plain, mut traced_s, mut explores) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while explores.is_empty() || start.elapsed().as_secs_f64() < cfg.seconds {
        for traced in crate::pair_order(explores.len()) {
            if traced {
                let (e, op_s, explore_s) = traced_op(&mut ledger, text, depth);
                check(out, reference, &e);
                traced_s.push(op_s);
                explores.push(explore_s);
            } else {
                let t = Instant::now();
                let doc =
                    air_tools::config::parse(text).expect("the frozen hub configuration parses");
                let model = SystemModel::from_config(&doc);
                drop(lint(&model));
                let e = explore(&model, depth);
                plain.push(t.elapsed().as_secs_f64());
                check(out, reference, &e);
            }
        }
    }
    out.samples = vec![
        ("warmup", 1),
        ("curve", 3 * curve.len()),
        ("pairs", explores.len()),
    ];
    crate::overhead(out, &plain, &traced_s);
    let ms = |v: Vec<f64>| v.into_iter().map(|s| s * 1e3).collect::<Vec<_>>();
    out.median_of("tools.parse_ms", ms(ledger.durations("tools.parse")));
    out.median_of("lint.model_ms", ms(ledger.durations("lint.model")));
    if let Some(&(_, states, rate)) = CURVE.iter().find(|c| c.0 == depth) {
        out.value(states, reference.0 as f64);
        out.median_of(
            rate,
            explores.iter().map(|s| reference.0 as f64 / s).collect(),
        );
    }
    out.median_of("model.explore_s", explores);
    out.value("model.counterexamples", reference.1.len() as f64);
    crate::finish_trace(cfg, "explore_hub", &ledger, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_order_does_not_move_the_state_count() {
        let states = |seed| explore(&prepare_hub(seed).1, 4).states_explored;
        assert_eq!(states(1), 2753);
        assert_eq!(states(2), 2753);
    }
}
