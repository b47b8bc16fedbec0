//! Property test for the reliable transport (every class on five fixed
//! seeds, then 50 seeded xorshift cases): under *any* single-link fault plan — in-flight drops, header bit-flips,
//! sustained outages of the active adapter, acknowledgement destruction —
//! every queuing-port message offered on node A is delivered to node B
//! exactly once, in order, sampling-port staleness stays within the
//! refresh bound plus the ARQ worst-case delay, and the whole run is a
//! pure function of the seed (byte-identical trace logs on re-execution).
//!
//! Any failure prints its seed for replay.

use air_core::link_campaign::{link_plan, LinkCampaignRunner};
use air_hw::inject::{FaultClass, FaultPlan};
use air_model::testkit::TestRng;

/// Seeds every class and the mixed plan also run on, ahead of the drawn
/// cases.
const FIXED_SEEDS: [u64; 5] = [1, 3, 7, 11, 42];

#[test]
fn any_single_link_fault_plan_delivers_exactly_once_in_order() {
    let fixed = FaultClass::LINK
        .iter()
        .flat_map(|&class| FIXED_SEEDS.map(|seed| (class, seed)));
    // Then derive each case's plan from the xorshift stream: a fault class
    // and a fresh plan seed.
    let mut rng = TestRng::new(0xA1B2);
    let drawn: Vec<_> = (0..50)
        .map(|_| {
            let class = FaultClass::LINK[rng.below_usize(FaultClass::LINK.len())];
            (class, rng.range(1, 1 << 20))
        })
        .collect();
    for (case, (class, seed)) in fixed.chain(drawn).enumerate() {
        let plan = FaultPlan::generate(seed, &[class], 2, 150, 400, 37);
        let outcome = LinkCampaignRunner::new(plan).run();
        assert!(
            outcome.is_ok(),
            "case {case} (class {class}, seed {seed}): {} (deterministic: {})",
            outcome.report,
            outcome.deterministic,
        );
        assert_eq!(
            outcome.delivered, outcome.expected,
            "case {case} (class {class}, seed {seed}): \
             {}/{} messages delivered",
            outcome.delivered, outcome.expected,
        );
        if class == FaultClass::LinkOutage {
            assert!(
                outcome.failovers > 0,
                "case {case} (seed {seed}): outage plan never failed over"
            );
        }
    }
}

/// Mixed-class plans (the campaign's round-robin default) over the fixed
/// seeds and a second seed stream: same guarantees, plus visible
/// degraded-mode traversal.
#[test]
fn mixed_fault_plans_keep_the_guarantee() {
    let mut rng = TestRng::new(0xC3D4);
    let drawn: Vec<u64> = (0..8).map(|_| rng.range(1, 1 << 20)).collect();
    for (case, seed) in FIXED_SEEDS.into_iter().chain(drawn).enumerate() {
        let outcome = LinkCampaignRunner::new(link_plan(seed, 1)).run();
        assert!(
            outcome.is_ok(),
            "case {case} (seed {seed}): {}",
            outcome.report
        );
        assert_eq!(
            outcome.delivered, outcome.expected,
            "case {case} (seed {seed})"
        );
        assert!(outcome.degraded_entries > 0, "case {case} (seed {seed})");
        assert!(
            outcome.degraded_exits >= outcome.degraded_entries,
            "case {case} (seed {seed}): stuck in degraded mode"
        );
    }
}
