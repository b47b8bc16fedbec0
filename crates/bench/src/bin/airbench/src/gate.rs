//! `lint_gate`: generated configurations, each taken through parse →
//! lint model → every lint analysis → exploration at depth 2 (the gate
//! `SystemBuilder::build` applies). The same explorer as `explore_hub`,
//! but little and often: each config reaches about seven states, so
//! per-exploration set-up dominates and a deep-search speed-up that adds
//! set-up cost shows here as a loss.

use std::time::Instant;

use air_lint::{explore_with, lint, Exploration, ExploreConfig, LintReport, SystemModel};
use air_tools::config::ConfigError;

use crate::ledger::{Ledger, ROOT};
use crate::report::Outcome;
use crate::stats::percentile;
use crate::{inputs, secs, setup, Config, Timings};

const CONFIGS: usize = 4000;
/// The exploration depth of the build gate.
const GATE_DEPTH: usize = 2;

type Gated = Result<(LintReport, Exploration), ConfigError>;

fn explore_config() -> ExploreConfig {
    ExploreConfig {
        depth: GATE_DEPTH,
        ..ExploreConfig::default()
    }
}

fn gate(text: &str) -> Gated {
    let doc = air_tools::config::parse(text)?;
    let model = SystemModel::from_config(&doc);
    let report = lint(&model);
    Ok((report, explore_with(&model, &explore_config())))
}

/// What must not change between gatings of one config: the findings of
/// both stages and the state count, digested; plus the two counts the
/// per-layer metrics report.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Verdict {
    digest: u64,
    findings: usize,
    states: usize,
}

fn verdict(gated: &Gated) -> Verdict {
    match gated {
        Err(e) => Verdict {
            digest: inputs::digest(&e.to_string()),
            findings: 0,
            states: 0,
        },
        Ok((report, e)) => {
            let mut codes = String::new();
            for d in report.diagnostics() {
                codes.push_str(d.code.as_str());
            }
            for c in &e.counterexamples {
                codes.push_str(c.code.as_str());
            }
            codes.push_str(&e.states_explored.to_string());
            Verdict {
                digest: inputs::digest(&codes),
                findings: report.diagnostics().len() + e.counterexamples.len(),
                states: e.states_explored,
            }
        }
    }
}

fn check(out: &mut Outcome, reference: &[Verdict], i: usize, gated: &Gated) {
    out.attempted += 1;
    if verdict(gated) != reference[i] {
        out.mismatch(format!("config {i}: verdict changed"));
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let count = if cfg.tiny { 8 } else { CONFIGS };
    let prepare = || inputs::gate_configs(cfg.seed, count);
    let (texts, mut setup_s) = setup(prepare);
    let mut out = Outcome::new();
    out.inputs_digest = inputs::digest(&texts.concat());
    // The warm-up pass gives every config its reference verdict.
    let reference: Vec<Verdict> = texts.iter().map(|t| verdict(&gate(t))).collect();

    if cfg.trace {
        traced(cfg, &texts, &reference, &mut out);
        return out;
    }
    let mut timings = Timings::new(vec![1.0; texts.len()]);
    let (start, mut passes) = (Instant::now(), 0);
    while passes == 0 || start.elapsed().as_secs_f64() < cfg.seconds {
        for (i, text) in texts.iter().enumerate() {
            let t = Instant::now();
            let gated = gate(text);
            timings.record(i, t.elapsed().as_secs_f64());
            check(&mut out, &reference, i, &gated);
        }
        setup_s.push(secs(|| drop(prepare())));
        passes += 1;
    }
    out.samples = vec![("warmup", 1), ("passes", passes), ("configs", texts.len())];
    timings.report(&mut out);
    out.median_of("setup_s", setup_s);
    out
}

/// One traced gate: each stage in its own span. Returns the result and
/// the gate's seconds.
fn traced_gate(ledger: &mut Ledger, text: &str) -> (Gated, f64) {
    let root = ledger.open(ROOT, None);
    let (doc, _) = ledger.time("tools.parse", root, || air_tools::config::parse(text));
    let gated = doc.map(|doc| {
        let (model, _) = ledger.time("lint.model", root, || SystemModel::from_config(&doc));
        let (report, _) = ledger.time("lint.analyses", root, || lint(&model));
        let (e, _) = ledger.time("model.explore", root, || {
            explore_with(&model, &explore_config())
        });
        (report, e)
    });
    ledger.close(root);
    (gated, ledger.span(root).secs())
}

fn traced(cfg: &Config, texts: &[String], reference: &[Verdict], out: &mut Outcome) {
    let mut ledger = Ledger::new();
    // Seconds of every untraced and every traced pass.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while plain.is_empty() || start.elapsed().as_secs_f64() < cfg.seconds {
        // Whole passes take turns: a config gated twice in a row would
        // find the second gate's data cached.
        for traced_pass in crate::pair_order(plain.len()) {
            let mut pass_s = 0.0;
            for (i, text) in texts.iter().enumerate() {
                let (gated, secs) = if traced_pass {
                    traced_gate(&mut ledger, text)
                } else {
                    let t = Instant::now();
                    let gated = gate(text);
                    (gated, t.elapsed().as_secs_f64())
                };
                pass_s += secs;
                check(out, reference, i, &gated);
            }
            if traced_pass { &mut traced } else { &mut plain }.push(pass_s);
        }
    }
    out.samples = vec![
        ("warmup", 1),
        ("pass_pairs", plain.len()),
        ("configs", texts.len()),
    ];
    crate::overhead(out, &plain, &traced);
    for (span, p50, p99) in [
        (
            "tools.parse",
            "tools.parse_us.p50",
            Some("tools.parse_us.p99"),
        ),
        ("lint.model", "lint.model_us.p50", None),
        (
            "lint.analyses",
            "lint.analyses_us.p50",
            Some("lint.analyses_us.p99"),
        ),
        (
            "model.explore",
            "model.explore_us.p50",
            Some("model.explore_us.p99"),
        ),
    ] {
        let us: Vec<f64> = ledger.durations(span).iter().map(|s| s * 1e6).collect();
        if let Some(p99) = p99 {
            out.set(p99, percentile(&us, 99.0), us.clone());
        }
        out.set(p50, percentile(&us, 50.0), us);
    }
    out.value(
        "lint.findings",
        reference.iter().map(|v| v.findings).sum::<usize>() as f64,
    );
    out.value(
        "model.states_explored",
        reference.iter().map(|v| v.states).sum::<usize>() as f64,
    );
    crate::finish_trace(cfg, "lint_gate", &ledger, out);
}
