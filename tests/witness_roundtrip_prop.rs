//! Witness serialisation property: `Witness::parse(w.render()) == w` for
//! random event sequences over the explorer's *full* alphabet, plus a
//! malformed-input case for every parse arm.
//!
//! The witness text format is a contract: `airlint --explore` prints it,
//! the replay harness and the fuzz farm parse it back. A silent mismatch
//! between the two directions would corrupt counterexamples en route to
//! concrete replay, so the round trip is pinned property-style over seeded
//! random sequences rather than a handful of fixed strings.

use air_model::explore::{AbstractEvent, Witness};
use air_model::testkit::TestRng;
use air_model::{PartitionId, ScheduleId};

const SEEDS: u64 = 200;
const MAX_EVENTS: usize = 12;

/// One random event drawn uniformly from the full alphabet.
fn random_event(rng: &mut TestRng) -> AbstractEvent {
    let partition = PartitionId(u32::try_from(rng.below(4)).unwrap_or(0));
    let schedule = ScheduleId(u32::try_from(rng.below(4)).unwrap_or(0));
    let other = ScheduleId(u32::try_from(rng.below(4)).unwrap_or(0));
    let edge = rng.below(16) as u8;
    match rng.below(12) {
        0 => AbstractEvent::ScheduleRequest {
            by: partition,
            to: schedule,
        },
        1 => AbstractEvent::RaceRequest {
            by: partition,
            first: schedule,
            second: other,
        },
        2 => AbstractEvent::PartitionFault { partition },
        3 => AbstractEvent::DeadlineFault { partition },
        4 => AbstractEvent::ModuleFault,
        5 => AbstractEvent::LinkDown,
        6 => AbstractEvent::LinkUp,
        7 => AbstractEvent::ArqExhausted,
        8 => AbstractEvent::ArqRecovered,
        9 => AbstractEvent::MeshLinkDown { edge },
        10 => AbstractEvent::MeshLinkUp { edge },
        _ => AbstractEvent::MeshReroute { edge },
    }
}

#[test]
fn random_witnesses_round_trip_through_text() {
    for seed in 0..SEEDS {
        let mut rng = TestRng::new(seed);
        let events: Vec<AbstractEvent> = (0..rng.below_usize(MAX_EVENTS + 1))
            .map(|_| random_event(&mut rng))
            .collect();
        let witness = Witness { events };
        let rendered = witness.render();
        let reparsed = Witness::parse(&rendered)
            .unwrap_or_else(|e| panic!("seed {seed}: '{rendered}' failed to parse back: {e}"));
        assert_eq!(
            reparsed, witness,
            "seed {seed}: round trip changed the witness ('{rendered}')"
        );
    }
}

#[test]
fn empty_witness_round_trips() {
    let witness = Witness { events: vec![] };
    let rendered = witness.render();
    assert_eq!(Witness::parse(&rendered), Ok(witness));
}

#[test]
fn malformed_inputs_are_rejected_per_arm() {
    // One (or more) broken spelling per parse arm of the event grammar.
    let malformed = [
        // request: missing arrow, bad partition, bad schedule
        "request(P0)",
        "request(chi0->chi1)",
        "request(P0->P1)",
        "request(->chi1)",
        // race: single target, wrong separator, missing source
        "race(P0->chi1)",
        "race(P0:chi1,chi2)",
        "race(->chi1,chi2)",
        "race(P0->chi1,)",
        "race(P0->,chi2)",
        // partition fault: empty, schedule instead of partition
        "fault()",
        "fault(chi0)",
        // deadline fault: empty, schedule instead of partition
        "deadline()",
        "deadline(chi0)",
        // mesh edges: empty, non-numeric, negative, trailing junk
        "mesh_down()",
        "mesh_down(x)",
        "mesh_down(-1)",
        "mesh_up()",
        "mesh_up(edge)",
        "mesh_reroute()",
        "mesh_reroute(x)",
        // bare keywords with stray arguments
        "module_fault(P0)",
        "link_down(1)",
        "arq_exhausted(now)",
        // entirely unknown event
        "schedule_jump(P0)",
    ];
    for text in malformed {
        assert!(Witness::parse(text).is_err(), "'{text}' should be rejected");
    }
}

#[test]
fn whitespace_between_events_is_tolerated() {
    let witness = Witness::parse("link_down;  arq_exhausted ; mesh_down(3)").expect("parses");
    assert_eq!(witness.render(), "link_down; arq_exhausted; mesh_down(3)");
}
