//! Generated-configuration fuzz farm: abstraction-soundness at scale.
//!
//! The exploration stage of `air-lint` is only trustworthy if its abstract
//! transition system agrees with the concrete machine. This module mass-
//! produces that evidence: a seeded generator emits randomized-but-parsable
//! system configurations, each is pushed through lint → bounded exploration,
//! and every counterexample witness is replayed against a freshly built
//! *concrete* system. BFS witnesses are already length-minimal, so the
//! witness the explorer reports is the one replayed. The final concrete
//! state, projected back through
//! [`crate::replay::observe_abstract_state`], must equal the state the
//! abstract transition system predicts for the same event sequence — any
//! disagreement is an abstraction-soundness defect, reported under the
//! `AIR099` code and reproducible from its seed alone.
//!
//! The concrete twin is built *without* processes: process workloads would
//! raise their own spontaneous HM events (deadline misses on their own
//! clock) and the comparison would race them. Every abstract event is
//! driven by an explicit injection instead, so the twin's trajectory is
//! exactly the witness's, which is the property under test.

use air_lint::{explore_with, transition_system_for, ExploreConfig, SystemModel};
use air_model::explore::{AbstractState, ArqHealth, LinkState, Witness};
use air_model::schedule::ScheduleSet;
use air_model::testkit::TestRng;

use crate::builder::{PartitionConfig, SystemBuilder};
use crate::replay::{observe_abstract_state, replay_witness};

/// One abstract-vs-concrete disagreement (the `AIR099` defect class).
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The generator seed that produced the configuration.
    pub seed: u64,
    /// The diagnostic code of the finding whose witness diverged.
    pub finding: air_lint::Code,
    /// The counterexample witness that was replayed.
    pub witness: Witness,
    /// The state the abstract transition system predicts.
    pub predicted: AbstractState,
    /// The state the concrete system actually reached.
    pub observed: AbstractState,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "AIR099 seed {}: witness [{}] (from {}) predicted {} but the \
             concrete system reached {}",
            self.seed,
            self.witness.render(),
            self.finding,
            self.predicted,
            self.observed
        )
    }
}

/// Aggregate outcome of a fuzz run.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Configurations generated and explored.
    pub cases: usize,
    /// Exploration findings across all cases.
    pub findings: usize,
    /// Witnesses replayed against concrete twins.
    pub replayed: usize,
    /// Abstract-vs-concrete disagreements (must be empty).
    pub divergences: Vec<Divergence>,
}

/// Deterministically generates one parsable configuration text from
/// `seed`. The shapes cover the explorer's whole event alphabet: 2–4
/// partitions (the first always a schedule authority), 2–4 schedules with
/// varying windows and change actions, and optional process, link/degraded,
/// ARQ and mesh-route directives.
pub fn generate_config_text(seed: u64) -> String {
    let mut rng = TestRng::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    let n_parts = rng.range(2, 5) as usize;
    let n_scheds = rng.range(2, 5) as usize;
    let mtf = 120u64;
    let slice = mtf / n_parts as u64;
    let mut text = String::new();

    for p in 0..n_parts {
        let authority = p == 0 || rng.chance(1, 4);
        text.push_str(&format!(
            "partition P{p} name=GEN{p}{}\n",
            if authority { " authority=true" } else { "" }
        ));
    }

    for s in 0..n_scheds {
        text.push_str(&format!("schedule chi{s} name=gen{s} mtf={mtf}\n"));
        let mut windowed = Vec::new();
        for p in 0..n_parts {
            // The boot schedule always windows the authority so the
            // explorer has commands to play; otherwise windows are random.
            let include = (s == 0 && p == 0) || rng.chance(3, 4);
            if !include {
                continue;
            }
            let duration = rng.range(slice / 2, slice + 1);
            text.push_str(&format!("  require P{p} cycle={mtf} duration={duration}\n"));
            text.push_str(&format!(
                "  window P{p} offset={} duration={duration}\n",
                p as u64 * slice
            ));
            windowed.push(p);
        }
        // Change actions only for windowed partitions: the concrete
        // dispatcher applies actions at first dispatch under the new
        // schedule, so a windowless partition would never see its action.
        for &p in &windowed {
            if rng.chance(1, 4) {
                let action = match rng.below(3) {
                    0 => "stop",
                    1 => "warm_restart",
                    _ => "cold_restart",
                };
                text.push_str(&format!("  action P{p} {action}\n"));
            }
        }
    }

    // Processes feed the deadline-fault alphabet and the AIR095 check.
    for p in 0..n_parts {
        if rng.chance(1, 3) {
            let wcet = rng.range(5, slice.max(6));
            text.push_str(&format!(
                "process P{p} name=w{p} period={mtf} deadline={mtf} \
                 wcet={wcet} priority=1\n"
            ));
        }
    }

    if rng.chance(2, 3) {
        let degraded = if rng.chance(1, 2) {
            format!(" degraded=chi{}", rng.below(n_scheds as u64))
        } else {
            String::new()
        };
        text.push_str(&format!(
            "link primary_latency=3 secondary_latency=6 \
             failover_threshold=2{degraded}\n"
        ));
        if rng.chance(2, 3) {
            text.push_str("arq window=8 timeout=24\n");
        }
    }

    // A routed-mesh identity with a few next-hop edges exercises the
    // mesh-edge alphabet.
    if rng.chance(1, 3) {
        text.push_str("node N0 name=GENNODE\n");
        let edges = rng.range(1, 4);
        for n in 0..edges {
            text.push_str(&format!("route N{} via=N{}\n", n + 1, n + 1));
        }
    }

    text
}

/// Builds the concrete twin of `model`: same schedules and partitions,
/// no processes, with the degraded-schedule binding, ARQ tracking and
/// mesh edge count mirrored from the exploration options.
fn build_twin(model: &SystemModel) -> Option<crate::system::AirSystem> {
    let ts = transition_system_for(model)?;
    let schedules = ScheduleSet::try_new(model.schedules.clone()).ok()?;
    let mut builder = SystemBuilder::new(schedules).with_exploration_depth(0);
    for partition in &model.partitions {
        builder = builder.with_partition(PartitionConfig::new(partition.clone()));
    }
    let mut system = builder.build_unchecked().ok()?;
    let options = ts.options();
    if let Some(degraded) = options.degraded_schedule {
        system.set_degraded_schedule(degraded);
    }
    if options.arq {
        system.enable_arq_tracking();
    }
    system.configure_mesh_edges(options.mesh_edges);
    Some(system)
}

/// The abstract state `events` leads to from the initial state, or `None`
/// if any event is disabled along the way.
fn predict(model: &SystemModel, witness: &Witness) -> Option<AbstractState> {
    let ts = transition_system_for(model)?;
    let mut state = ts.initial_state();
    for &event in &witness.events {
        state = ts.step(&state, event)?.state;
    }
    Some(state)
}

/// Runs `count` generated configurations starting at `first_seed` through
/// lint → exploration (to `depth` events) → concrete replay of every
/// counterexample witness, and reports every abstraction divergence found.
pub fn run_fuzz(first_seed: u64, count: usize, depth: usize) -> FuzzReport {
    let config = ExploreConfig {
        depth,
        ..ExploreConfig::default()
    };
    let mut report = FuzzReport::default();
    for i in 0..count {
        let seed = first_seed.wrapping_add(i as u64);
        let text = generate_config_text(seed);
        let doc = match air_tools::config::parse(&text) {
            Ok(doc) => doc,
            // The generator must always emit parsable text; a parse
            // failure is itself a divergence-grade defect.
            Err(_) => {
                report.cases += 1;
                let empty = AbstractState {
                    schedule: air_model::ScheduleId(0),
                    modes: Default::default(),
                    link: LinkState::Absent,
                    arq: ArqHealth::Absent,
                    mesh_down: 0,
                    mesh_rerouted: 0,
                };
                report.divergences.push(Divergence {
                    seed,
                    finding: air_lint::Code::ParseError,
                    witness: Witness::default(),
                    predicted: empty.clone(),
                    observed: empty,
                });
                continue;
            }
        };
        let model = SystemModel::from_config(&doc);
        report.cases += 1;
        let exploration = explore_with(&model, &config);
        report.findings += exploration.counterexamples.len();
        for cx in &exploration.counterexamples {
            let Some(predicted) = predict(&model, &cx.witness) else {
                continue;
            };
            let Some(mut twin) = build_twin(&model) else {
                continue;
            };
            replay_witness(&mut twin, &cx.witness, 2);
            let observed = observe_abstract_state(&twin);
            report.replayed += 1;
            if observed != predicted {
                report.divergences.push(Divergence {
                    seed,
                    finding: cx.code,
                    witness: cx.witness.clone(),
                    predicted,
                    observed,
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_configs_always_parse() {
        for seed in 0..64 {
            let text = generate_config_text(seed);
            air_tools::config::parse(&text)
                .unwrap_or_else(|e| panic!("seed {seed} produced unparsable text: {e:?}\n{text}"));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(generate_config_text(7), generate_config_text(7));
        assert_ne!(generate_config_text(7), generate_config_text(8));
    }

    #[test]
    fn a_small_farm_run_finds_no_divergences() {
        let report = run_fuzz(1000, 16, 3);
        assert_eq!(report.cases, 16);
        let rendered: Vec<String> = report.divergences.iter().map(|d| d.to_string()).collect();
        assert!(rendered.is_empty(), "{}", rendered.join("\n"));
        // The generator shapes must actually exercise the explorer, and
        // every finding's witness must be replayed.
        assert!(
            report.findings >= 16,
            "{} findings across 16 cases",
            report.findings
        );
        assert_eq!(
            report.replayed, report.findings,
            "not every witness replayed"
        );
    }
}
