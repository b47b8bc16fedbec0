//! The linter's soundness property: **a configuration that lints clean
//! (zero Error-level findings) runs without temporal violations.**
//!
//! Configurations are synthesized from random requirements (via
//! `air_tools::synthesize_schedule`, which yields valid tables) and then
//! randomly mutated (window stretching/shifting/dropping, MTF shrinking)
//! so both clean and broken descriptions reach the linter. Every
//! description that `SystemBuilder::lint` passes with zero errors is
//! built through the checked `build()` path and executed for three major
//! time frames; the trace must show zero deadline misses. Failures print
//! the xorshift seed, so any run is reproducible by pinning it.

use air_core::workload::PeriodicCompute;
use air_core::{PartitionConfig, ProcessConfig, SystemBuilder};
use air_model::process::{Deadline, ProcessAttributes, Recurrence};
use air_model::schedule::{PartitionRequirement, Schedule, TimeWindow};
use air_model::testkit::TestRng;
use air_model::{Partition, PartitionId, ScheduleId, ScheduleSet, Ticks};
use air_ports::{ChannelConfig, Destination, PortAddr, SamplingPortConfig};
use air_tools::synthesize_schedule;

/// A synthesized system description, pre-builder.
struct Synth {
    requirements: Vec<PartitionRequirement>,
    mtf: Ticks,
    windows: Vec<TimeWindow>,
    /// Whether to wire a sampling channel from P0 to P1.
    with_channel: bool,
}

fn synthesize(rng: &mut TestRng) -> Option<Synth> {
    let n_partitions = rng.range(1, 5) as u32;
    // Cycles from a divisor-closed set so lcm stays small and Eq. (22)
    // holds by construction.
    let cycle_choices = [50u64, 100, 200];
    let mut requirements = Vec::new();
    for m in 0..n_partitions {
        let cycle = cycle_choices[rng.below_usize(cycle_choices.len())];
        // Keep total utilisation comfortably under 1 so synthesis succeeds
        // for most draws.
        let duration = rng.range(2, cycle / u64::from(n_partitions) + 1);
        requirements.push(PartitionRequirement::new(
            PartitionId(m),
            Ticks(cycle),
            Ticks(duration),
        ));
    }
    let schedule = synthesize_schedule(ScheduleId(0), &requirements).ok()?;
    Some(Synth {
        requirements,
        mtf: schedule.mtf(),
        windows: schedule.windows().to_vec(),
        with_channel: n_partitions >= 2 && rng.chance(1, 2),
    })
}

/// Randomly corrupts (or leaves alone) a synthesized description.
fn mutate(rng: &mut TestRng, synth: &mut Synth) {
    match rng.below_usize(8) {
        // 0..4: leave the description clean half the time.
        0..4 => {}
        4 => {
            // Stretch a window: may overlap its successor or cross the MTF.
            let i = rng.below_usize(synth.windows.len());
            synth.windows[i].duration += Ticks(rng.range(1, 50));
        }
        5 => {
            // Shift a window forward.
            let i = rng.below_usize(synth.windows.len());
            synth.windows[i].offset += Ticks(rng.range(1, 50));
        }
        6 => {
            // Drop a window: its partition may end up under-served.
            let i = rng.below_usize(synth.windows.len());
            synth.windows.remove(i);
        }
        _ => {
            // Shrink the MTF: Eq. (21)/(22) break for most draws.
            synth.mtf = Ticks(synth.mtf.as_u64().saturating_sub(rng.range(1, 60)).max(1));
        }
    }
}

fn builder_for(synth: &Synth) -> SystemBuilder {
    let schedule = Schedule::new(
        ScheduleId(0),
        "prop",
        synth.mtf,
        synth.requirements.clone(),
        synth.windows.clone(),
    );
    let mut builder = SystemBuilder::new(ScheduleSet::new(vec![schedule]));
    for q in &synth.requirements {
        let wcet = (q.duration.as_u64() / 2).max(1);
        let mut config =
            PartitionConfig::new(Partition::new(q.partition, format!("prop-{}", q.partition)))
                .with_process(ProcessConfig::new(
                    ProcessAttributes::new(format!("work-{}", q.partition))
                        .with_recurrence(Recurrence::Periodic(q.cycle))
                        .with_deadline(Deadline::Relative(q.cycle))
                        .with_wcet(Ticks(wcet)),
                    PeriodicCompute::new(wcet),
                ));
        if synth.with_channel {
            if q.partition == PartitionId(0) {
                config = config.with_sampling_port(SamplingPortConfig::source("prop-out", 16));
            } else if q.partition == PartitionId(1) {
                config = config.with_sampling_port(SamplingPortConfig::destination(
                    "prop-in",
                    16,
                    Ticks(1_000),
                ));
            }
        }
        builder = builder.with_partition(config);
    }
    if synth.with_channel {
        builder = builder.with_channel(ChannelConfig {
            id: 0,
            source: PortAddr::new(PartitionId(0), "prop-out"),
            destinations: vec![Destination::Local(PortAddr::new(PartitionId(1), "prop-in"))],
        });
    }
    builder
}

#[test]
fn clean_lint_implies_no_runtime_violations() {
    let mut clean_runs = 0usize;
    let mut rejected = 0usize;
    let mut seed = 0u64;
    // Keep drawing seeds until 50 clean configurations have actually been
    // executed; the cap bounds the test should generation drift.
    while clean_runs < 50 {
        seed += 1;
        assert!(
            seed <= 400,
            "only {clean_runs} clean configs in 400 seeds ({rejected} rejected)"
        );
        let mut rng = TestRng::new(seed);
        let Some(mut synth) = synthesize(&mut rng) else {
            continue;
        };
        mutate(&mut rng, &mut synth);
        let builder = builder_for(&synth);
        let report = builder.lint();
        if report.has_errors() {
            rejected += 1;
            continue;
        }
        let mtf = synth.mtf.as_u64();
        let mut system = builder
            .build()
            .unwrap_or_else(|e| panic!("seed {seed}: lint-clean config failed to build: {e}"));
        system.run_for(3 * mtf);
        assert_eq!(
            system.trace().deadline_miss_count(),
            0,
            "seed {seed}: lint-clean config missed deadlines over 3 MTFs"
        );
        clean_runs += 1;
    }
    // The mutation stage must actually produce broken descriptions, or the
    // property degenerates into "valid synthesis runs fine".
    assert!(
        rejected >= 10,
        "mutations produced only {rejected} lint-rejected configs"
    );
}
