//! The metric tables and the result every workload run prints.
//!
//! The two tables below are the benchmark's definition; `BENCHMARK.json`
//! at the repository root lists the same names, units, directions and
//! bounds (a test checks that they agree).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{median, quartiles, Better};

/// One metric's definition.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Reported by every workload with `--trace 0`. A work unit is a
/// simulated node-tick (`fleet_campaign`, `mesh_reroute`), an explored
/// state (`explore_hub`) or a gated config (`lint_gate`); an operation is
/// a fleet run, a verified campaign, an exploration or a config gate.
///
/// The host-time bounds are the widest allowed because the spread is
/// wide: on a two-vCPU virtual machine shared with other tenants, the
/// interquartile range of ten runs of one workload was 7–13% of the
/// median in a quiet hour and up to 41% while the host drifted.
pub const END_TO_END: [Def; 5] = [
    e2e("work_per_s", "1/s", Higher, 0.25),
    e2e("op_p50_ms", "ms", Lower, 0.25),
    e2e("op_p90_ms", "ms", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
];

/// Reported by every workload with `--trace 1`; a layer the workload
/// does not run reports 0.
pub const PER_LAYER: [Def; 69] = [
    layer("trace_overhead", "ratio", Lower),
    layer("unattributed_share", "ratio", Lower),
    layer("failed_share", "ratio", Lower),
    // fleet_campaign: executor phases, per fleet run.
    layer("fleet.build_s", "s", Lower),
    layer("fleet.tick_s", "s", Lower),
    layer("fleet.render_s", "s", Lower),
    layer("fleet.sync_s", "s", Lower),
    // fleet_campaign: every tick sorted into one class.
    layer("hm.event_ticks", "count", Lower),
    layer("hm.event_tick_ns.p50", "ns", Lower),
    layer("hm.event_tick_ns.p99", "ns", Lower),
    layer("pmk.switch_ticks", "count", Lower),
    layer("pmk.switch_tick_ns.p50", "ns", Lower),
    layer("pmk.switch_tick_ns.p99", "ns", Lower),
    layer("pal.plain_ticks", "count", Lower),
    layer("pal.plain_tick_ns.p50", "ns", Lower),
    layer("pal.plain_tick_ns.p99", "ns", Lower),
    // fleet_campaign: simulated counts per fleet.
    layer("pmk.partition_switches", "count", Lower),
    layer("pmk.schedule_switches", "count", Lower),
    layer("pal.deadline_misses", "count", Lower),
    layer("hm.log_entries", "count", Lower),
    layer("hw.faults_injected", "count", Higher),
    layer("hm.faults_detected", "count", Higher),
    layer("core.trace_events", "count", Lower),
    layer("core.trace_bytes", "B", Lower),
    layer("hm.detect_latency_ticks.p50", "ticks", Lower),
    layer("hm.detect_latency_ticks.p99", "ticks", Lower),
    // mesh_reroute: timings per campaign.
    layer("core.mesh_build_us.p50", "us", Lower),
    layer("core.mesh_render_s", "s", Lower),
    layer("core.verify_s", "s", Lower),
    layer("ports.steady_ticks", "count", Lower),
    layer("ports.steady_tick_ns.p50", "ns", Lower),
    layer("ports.steady_tick_ns.p99", "ns", Lower),
    layer("ports.reroute_ticks", "count", Lower),
    layer("ports.reroute_tick_ns.p50", "ns", Lower),
    layer("ports.reroute_tick_ns.p99", "ns", Lower),
    // mesh_reroute: simulated counts over all campaigns.
    layer("ports.retransmissions", "count", Lower),
    layer("ports.reroutes", "count", Lower),
    layer("ports.route_rebuilds", "count", Lower),
    layer("ports.parked", "count", Lower),
    layer("ports.duplicates_filtered", "count", Lower),
    layer("hw.edge_downs", "count", Lower),
    layer("hw.edge_ups", "count", Higher),
    layer("core.failovers", "count", Lower),
    layer("core.commands_lost", "count", Lower),
    layer("core.flow_latency_ticks.p50", "ticks", Lower),
    layer("core.flow_latency_ticks.p90", "ticks", Lower),
    // explore_hub.
    layer("tools.parse_ms", "ms", Lower),
    layer("lint.model_ms", "ms", Lower),
    layer("model.explore_s", "s", Lower),
    layer("model.counterexamples", "count", Lower),
    layer("model.states.d4", "count", Lower),
    layer("model.states.d5", "count", Lower),
    layer("model.states.d6", "count", Lower),
    layer("model.states.d7", "count", Lower),
    layer("model.states.d8", "count", Lower),
    layer("model.states_per_s.d4", "1/s", Higher),
    layer("model.states_per_s.d5", "1/s", Higher),
    layer("model.states_per_s.d6", "1/s", Higher),
    layer("model.states_per_s.d7", "1/s", Higher),
    layer("model.states_per_s.d8", "1/s", Higher),
    // lint_gate: per config.
    layer("tools.parse_us.p50", "us", Lower),
    layer("tools.parse_us.p99", "us", Lower),
    layer("lint.model_us.p50", "us", Lower),
    layer("lint.analyses_us.p50", "us", Lower),
    layer("lint.analyses_us.p99", "us", Lower),
    layer("model.explore_us.p50", "us", Lower),
    layer("model.explore_us.p99", "us", Lower),
    layer("lint.findings", "count", Lower),
    layer("model.states_explored", "count", Lower),
];

/// One reported metric: its value and the samples it was computed from.
pub struct Metric {
    pub value: f64,
    pub samples: Vec<f64>,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub inputs_digest: u64,
    /// `(label, count)` pairs for the header, e.g. `("warmup", 1)`.
    pub samples: Vec<(&'static str, usize)>,
    pub attempted: u64,
    pub failed: u64,
    /// False when an output differed from its reference: nondeterminism.
    pub correct: bool,
    /// One line per failed or mismatching operation (the first 20).
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, Metric>,
    /// `(layer, self seconds)` of the traced pass.
    pub ledger: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn new() -> Self {
        Self {
            correct: true,
            ..Self::default()
        }
    }

    /// Sets `name` to `value`, computed from `samples`. Panics on a name
    /// neither table defines.
    pub fn set(&mut self, name: &'static str, value: f64, samples: Vec<f64>) {
        assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|d| d.name == name),
            "undefined metric {name}"
        );
        assert!(value.is_finite(), "{name} is not finite");
        self.metrics.insert(name, Metric { value, samples });
    }

    /// Sets `name` to the median of `samples`.
    pub fn median_of(&mut self, name: &'static str, samples: Vec<f64>) {
        self.set(name, median(&samples), samples);
    }

    /// Sets `name` to a single measured value.
    pub fn value(&mut self, name: &'static str, value: f64) {
        self.set(name, value, vec![value]);
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    /// Records a mismatch against a reference output.
    pub fn mismatch(&mut self, what: String) {
        self.correct = false;
        self.fail(format!("nondeterministic: {what}"));
    }

    /// The human report followed, on the last line, by the JSON result:
    /// every end-to-end metric untraced, every per-layer metric traced
    /// (0 for a layer the workload does not run).
    pub fn render(&self, header: &str, traced: bool) -> String {
        let defs: &[Def] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut out = String::new();
        let _ = writeln!(out, "{header}");
        let counts: Vec<String> = self
            .samples
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        let _ = writeln!(
            out,
            "inputs_digest={:#018x} {}",
            self.inputs_digest,
            counts.join(" ")
        );
        let _ = writeln!(
            out,
            "attempted={} failed={} correct={}",
            self.attempted, self.failed, self.correct
        );
        for f in &self.failures {
            let _ = writeln!(out, "  FAILED {f}");
        }
        let _ = writeln!(
            out,
            "{:<30} {:>6} {:>7} {:>16} {:>16} {:>16}",
            "metric", "unit", "n", "value", "p25", "p75"
        );
        let mut json = Vec::new();
        for def in defs {
            let (value, samples) = self
                .metrics
                .get(def.name)
                .map_or((0.0, &[][..]), |m| (m.value, m.samples.as_slice()));
            let [p25, _, p75] = quartiles(samples);
            let _ = writeln!(
                out,
                "{:<30} {:>6} {:>7} {value:>16.6} {p25:>16.6} {p75:>16.6}",
                def.name,
                def.unit,
                samples.len()
            );
            json.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            ));
        }
        if !self.ledger.is_empty() {
            let total: f64 = self.ledger.iter().map(|(_, s)| s).sum();
            let _ = writeln!(out, "ledger (self time of the traced operations):");
            for (layer, secs) in &self.ledger {
                let _ = writeln!(
                    out,
                    "  {layer:<28} {secs:>12.6} s {:>6.1}%",
                    100.0 * secs / total
                );
            }
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = json.split_whitespace().collect();
        for d in &END_TO_END {
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\",\"bound\":{}}}",
                d.name,
                d.unit,
                d.better.label(),
                d.bound.unwrap_or_default()
            );
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for d in &PER_LAYER {
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"}}",
                d.name,
                d.unit,
                d.better.label()
            );
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            compact.matches("\"name\":").count(),
            4 + END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn render_ends_with_one_json_line_of_every_metric() {
        let mut o = Outcome::new();
        o.value("work_per_s", 2.5);
        o.median_of("op_p50_ms", vec![1.0, 3.0, 2.0]);
        o.attempted = 3;
        let text = o.render("header", false);
        let last = text.lines().last().expect("output");
        assert!(last.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(last.contains("\"work_per_s\": {\"value\": 2.5, \"unit\": \"1/s\"}"));
        assert!(last.contains("\"op_p50_ms\": {\"value\": 2, \"unit\": \"ms\"}"));
        assert_eq!(last.matches("\"unit\"").count(), END_TO_END.len());
    }
}
