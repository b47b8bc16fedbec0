//! `--compare PARENT CHANGE`: the comparison rule of README.md over two
//! files of results of one workload (any text holding the JSON result
//! lines, e.g. the concatenated output of alternating runs).
//!
//! For each metric: both medians and the parent's quartiles; the pairs
//! (i-th parent run against i-th change run) the change wins; and a
//! verdict. A gain needs at least nine tenths of the pairs won and
//! medians further apart than the parent's interquartile range. An
//! end-to-end metric regresses when the change's median is worse than
//! the parent's by more than its bound; when the parent's own spread is
//! wider than the bound, the metric is unresolved instead of unchanged.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use crate::report::{END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles, regressed, relative_spread, Better};

/// Metric values of every JSON result line in `text`, in order.
fn results(text: &str) -> Vec<BTreeMap<String, f64>> {
    text.lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .map(|line| {
            let mut metrics = BTreeMap::new();
            let mut rest = line;
            while let Some(at) = rest.find("\": {\"value\": ") {
                let name = &rest[rest[..at].rfind('"').map_or(0, |q| q + 1)..at];
                let after = &rest[at + "\": {\"value\": ".len()..];
                let end = after.find(',').unwrap_or(after.len());
                if let Ok(v) = after[..end].parse::<f64>() {
                    metrics.insert(name.to_string(), v);
                }
                rest = &after[end..];
            }
            metrics
        })
        .collect()
}

/// Whether `a` is better than `b` in direction `better`.
fn beats(better: Better, a: f64, b: f64) -> bool {
    match better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    }
}

/// Pairs (i-th parent run, i-th change run) the change won.
fn wins(parent: &[f64], change: &[f64], better: Better) -> usize {
    parent
        .iter()
        .zip(change)
        .filter(|(p, c)| beats(better, **c, **p))
        .count()
}

/// The verdict for one metric, given both sides' values in run order.
fn verdict(parent: &[f64], change: &[f64], better: Better, bound: Option<f64>) -> &'static str {
    let (pm, cm) = (median(parent), median(change));
    let [q1, _, q3] = quartiles(parent);
    let pairs = parent.len().min(change.len());
    if bound.is_some_and(|bound| regressed(pm, cm, bound, better)) {
        return "REGRESSION";
    }
    let won = wins(parent, change, better);
    if beats(better, cm, pm) && pairs > 0 && won * 10 >= pairs * 9 && (cm - pm).abs() > q3 - q1 {
        return "gain";
    }
    match bound {
        Some(bound) if relative_spread(parent) > bound => "unresolved",
        _ => "no change",
    }
}

pub fn run(parent: &Path, change: &Path) -> ExitCode {
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let (parent, change) = match (read(parent), read(change)) {
        (Ok(a), Ok(b)) => (results(&a), results(&b)),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("airbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{} parent runs, {} change runs\n{:<28} {:>7} {:>14} {:>14} {:>14} {:>14} {:>6}  verdict",
        parent.len(),
        change.len(),
        "metric",
        "better",
        "parent p50",
        "parent p25",
        "parent p75",
        "change p50",
        "wins"
    );
    let mut regression = false;
    for def in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let side = |runs: &[BTreeMap<String, f64>]| -> Vec<f64> {
            runs.iter()
                .filter_map(|r| r.get(def.name).copied())
                .collect()
        };
        let (p, c) = (side(&parent), side(&change));
        if p.is_empty() || c.is_empty() {
            continue;
        }
        let [q1, q2, q3] = quartiles(&p);
        let v = verdict(&p, &c, def.better, def.bound);
        regression |= v == "REGRESSION";
        println!(
            "{:<28} {:>7} {q2:>14.6} {q1:>14.6} {q3:>14.6} {:>14.6} {:>3}/{:<2}  {v}",
            def.name,
            def.better.label(),
            median(&c),
            wins(&p, &c, def.better),
            p.len().min(c.len())
        );
    }
    if regression {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_parse() {
        let text = "noise\n{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
                    {\"work_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}, \
                    \"op_p50_ms\": {\"value\": 3, \"unit\": \"ms\"}}}\n";
        let r = results(text);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0]["work_per_s"], 12.5);
        assert_eq!(r[0]["op_p50_ms"], 3.0);
    }

    #[test]
    fn verdicts_follow_the_rule() {
        let parent = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ];
        let faster: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
        let slower: Vec<f64> = parent.iter().map(|v| v * 1.2).collect();
        assert_eq!(verdict(&parent, &faster, Better::Lower, Some(0.1)), "gain");
        assert_eq!(
            verdict(&parent, &slower, Better::Lower, Some(0.1)),
            "REGRESSION"
        );
        assert_eq!(
            verdict(&parent, &parent, Better::Lower, Some(0.1)),
            "no change"
        );
        let noisy = [50.0, 150.0, 100.0, 60.0, 140.0];
        assert_eq!(
            verdict(&noisy, &noisy, Better::Higher, Some(0.1)),
            "unresolved"
        );
    }
}
