//! The fleet determinism property: a machine's rendered trace log is a
//! pure function of its fault plan — the worker count, the shard
//! assignment and the batch size must all be invisible.
//!
//! For 50 base seeds, a small campaign fleet is executed sequentially
//! (the reference) and then with K ∈ {1, 4, 16} workers; every
//! per-machine rendered trace log must be byte-identical to the
//! reference, and the default configuration (64-tick batches, digests
//! only) must reproduce the reference's fleet digest. A link-campaign
//! fleet (two full nodes per machine) holds the same property over a
//! lighter seed sweep.

use air_fleet::workloads::{CampaignFleet, LinkFleet};
use air_fleet::{run_fleet, run_sequential, Capture, FleetConfig, FleetOutcome, FleetWorkload};

const WORKER_COUNTS: [usize; 3] = [1, 4, 16];

/// Asserts byte-identical per-machine logs between `got` and `reference`.
fn assert_logs_identical(seed: u64, workers: usize, got: &FleetOutcome, reference: &FleetOutcome) {
    assert_eq!(got.outcomes.len(), reference.outcomes.len());
    for (g, r) in got.outcomes.iter().zip(&reference.outcomes) {
        assert_eq!(g.index, r.index);
        let (g_log, r_log) = (
            g.trace_log.as_ref().expect("full capture"),
            r.trace_log.as_ref().expect("full capture"),
        );
        assert!(
            g_log == r_log,
            "seed {seed}, {workers} workers: machine {} diverged from the sequential run\n\
             --- sequential ---\n{r_log}\n--- fleet ---\n{g_log}",
            g.index
        );
        assert_eq!(g.digest, r.digest, "digest must follow the log bytes");
    }
}

fn holds_for<W: FleetWorkload>(workload: &W, machines: usize, seed: u64) {
    let reference = run_sequential(workload, machines, Capture::FullTrace);
    for workers in WORKER_COUNTS {
        // A deliberately odd batch size: batch boundaries must not align
        // with MTFs or horizons for the property to be meaningful.
        let config = FleetConfig::new(machines, workers)
            .with_batch_ticks(37)
            .with_capture(Capture::FullTrace);
        let fleet = run_fleet(workload, &config);
        assert_logs_identical(seed, workers, &fleet, &reference);
        // The default shape: 64-tick batches keeping digests only.
        let digests = run_fleet(workload, &FleetConfig::new(machines, workers));
        assert_eq!(
            digests.fleet_digest(),
            reference.fleet_digest(),
            "seed {seed}, {workers} workers: default-config fleet digest diverged"
        );
    }
}

#[test]
fn campaign_fleet_is_schedule_invariant_over_50_seeds() {
    for seed in 1..=50u64 {
        // 6 machines × 3 MTFs per seed keeps 50 × 4 executions tractable
        // while still crossing several batch and window boundaries.
        let fleet = CampaignFleet::new(seed, 1).with_horizon(180);
        holds_for(&fleet, 6, seed);
    }
}

#[test]
fn link_fleet_is_schedule_invariant() {
    // Link machines are two full nodes each (≈ 1500-tick horizons), so
    // the sweep is narrower; the property is the same.
    for seed in [1u64, 7, 42] {
        let fleet = LinkFleet::new(seed, 1);
        holds_for(&fleet, 4, seed);
    }
}
