//! Differential fault-injection tests over the campaign harness: removing
//! one fault class from a plan must leave every partition that class never
//! touched with a byte-identical event stream, and equal seeds must yield
//! byte-identical trace logs.
//!
//! The file also pins the EXPERIMENTS B7 table: the single-class sweeps
//! over seeds {1, 3, 7, 11, 42} with their exact detection counts and
//! latency triples, and the all-classes matrix on the same seeds.
//!
//! The restriction/comparison core is the reusable
//! [`air_model::testkit::isolation_divergence`] assertion — the executable
//! form of the paper's "a fault in partition A never perturbs partition B".

use air_core::campaign::{event_owner, standard_plan, CampaignOutcome, CampaignRunner};
use air_hw::inject::{FaultClass, FaultPlan};
use air_model::testkit::isolation_divergence;
use air_model::PartitionId;

const PARTITIONS: [PartitionId; 3] = [PartitionId(0), PartitionId(1), PartitionId(2)];

/// The campaign seeds of EXPERIMENTS B7.
const SEEDS: [u64; 5] = [1, 3, 7, 11, 42];

fn affected_by_class(outcome: &CampaignOutcome, class: FaultClass) -> Vec<PartitionId> {
    outcome
        .records
        .iter()
        .filter(|r| r.event.class == class)
        .filter_map(|r| r.affected)
        .collect()
}

#[test]
fn removing_a_fault_class_only_perturbs_its_victims() {
    let seed = 9;
    let plan = standard_plan(seed, 1);
    let full = CampaignRunner::new(plan.clone()).run();
    assert!(full.is_ok(), "{}", full.report);
    assert_eq!(full.detected(), full.injected());

    for &class in &FaultClass::ALL {
        let reduced_plan = plan.without_class(class);
        assert_eq!(reduced_plan.len(), plan.len() - 1);
        // Keep the horizon identical so both runs cover the same ticks.
        let reduced = CampaignRunner::new(reduced_plan)
            .with_horizon(plan.horizon() + 4 * air_core::campaign::CAMPAIGN_MTF)
            .run();
        assert!(reduced.is_ok(), "minus {class}: {}", reduced.report);

        // The differential invariant: a partition the removed class never
        // touched cannot tell the two campaigns apart.
        let victims = affected_by_class(&full, class);
        for &m in &PARTITIONS {
            if victims.contains(&m) {
                continue;
            }
            assert_eq!(
                isolation_divergence(&reduced.events, &full.events, m, event_owner),
                None,
                "removing {class} perturbed {m}"
            );
        }
    }
}

#[test]
fn unaffected_partitions_match_the_clean_baseline() {
    // A plan aimed solely at the control partition (process overruns):
    // the producer and consumer partitions must see exactly the clean
    // run's event stream.
    let plan = standard_plan(21, 1)
        .without_class(FaultClass::MmuTamper)
        .without_class(FaultClass::SpuriousTrap)
        .without_class(FaultClass::LinkDrop)
        .without_class(FaultClass::LinkBitFlip)
        .without_class(FaultClass::ClockInterference);
    let outcome = CampaignRunner::new(plan).run();
    assert!(outcome.is_ok(), "{}", outcome.report);
    assert_eq!(outcome.detected(), 1);
    let victims = affected_by_class(&outcome, FaultClass::ProcessOverrun);
    assert_eq!(victims, vec![PartitionId(0)]);
    for m in [PartitionId(1), PartitionId(2)] {
        assert_eq!(
            isolation_divergence(&outcome.clean_events, &outcome.events, m, event_owner),
            None,
            "an overrun in partition 0 perturbed {m}"
        );
    }
    // The victim itself, of course, diverges (miss + restart events).
    assert!(isolation_divergence(
        &outcome.clean_events,
        &outcome.events,
        PartitionId(0),
        event_owner
    )
    .is_some());
}

#[test]
fn equal_seeds_give_byte_identical_campaigns() {
    let a = CampaignRunner::new(standard_plan(33, 2)).run();
    let b = CampaignRunner::new(standard_plan(33, 2)).run();
    assert!(a.deterministic && b.deterministic);
    assert_eq!(a.trace_log, b.trace_log);
    assert_eq!(a.clean_trace_log, b.clean_trace_log);
    assert_eq!(a.hm_entries, b.hm_entries);
    // A different seed reshuffles the plan and leaves a different log.
    let c = CampaignRunner::new(standard_plan(34, 2)).run();
    assert_ne!(a.trace_log, c.trace_log);
}

#[test]
fn every_fault_of_a_two_per_class_plan_is_detected() {
    // All six classes interleaved, two faults each: every fault reaches
    // health monitoring and every robustness invariant holds.
    for seed in SEEDS {
        let outcome = CampaignRunner::new(standard_plan(seed, 2)).run();
        assert!(outcome.is_ok(), "seed {seed}: {}", outcome.report);
        assert_eq!(
            (outcome.detected(), outcome.injected()),
            (12, 12),
            "seed {seed}"
        );
    }
}

#[test]
fn single_class_sweeps_match_the_b7_table() {
    // Three faults of one class per seed isolate that class's detection
    // path. Same-class faults are 200 ticks apart, past the worst
    // detection + recovery latency (an overrun needs ~110 ticks to reach
    // its PAL deadline check): a fault striking a component that is
    // already faulty would merge into the ongoing episode.
    //
    // (class, min, median, max) detection latency in ticks.
    let table = [
        (FaultClass::MmuTamper, 3, 28, 60),
        (FaultClass::SpuriousTrap, 1, 1, 1),
        (FaultClass::LinkDrop, 3, 6, 9),
        (FaultClass::LinkBitFlip, 2, 2, 2),
        (FaultClass::ClockInterference, 1, 1, 1),
        (FaultClass::ProcessOverrun, 59, 85, 110),
    ];
    for (class, min, median, max) in table {
        let (mut injected, mut detected) = (0, 0);
        let mut latencies = Vec::new();
        for seed in SEEDS {
            let plan = FaultPlan::generate(seed, &[class], 3, 70, 200, 11);
            let outcome = CampaignRunner::new(plan).run();
            assert!(outcome.is_ok(), "{class} seed {seed}: {}", outcome.report);
            injected += outcome.injected();
            detected += outcome.detected();
            latencies.extend(outcome.latencies());
        }
        assert_eq!((detected, injected), (15, 15), "{class}");
        latencies.sort_unstable();
        // The median is element round((n - 1) / 2) of the sorted list.
        let n = latencies.len();
        let triple = (latencies[0], latencies[n / 2], latencies[n - 1]);
        assert_eq!(triple, (min, median, max), "{class} latency min/median/max");
    }
}
