//! Experiment E3 (Sect. 6): the injectable faulty process on P1 and the
//! exact detection pattern — "detected and reported every time (except the
//! first) that P1 is scheduled and dispatched to execute".

use air_core::prototype::ids::{P1, P4};
use air_core::prototype::PrototypeHarness;
use air_core::TraceEvent;
use air_hm::ErrorId;
use air_model::prototype::MTF;

const M: u64 = MTF.as_u64();

#[test]
fn no_fault_no_misses_over_twenty_mtfs() {
    let mut proto = PrototypeHarness::build();
    proto.system.run_for(20 * M);
    assert_eq!(proto.system.trace().deadline_miss_count(), 0);
    assert_eq!(proto.system.hm().log().len(), 0);
}

#[test]
fn detection_happens_each_p1_dispatch_except_the_first() {
    let mut proto = PrototypeHarness::build();
    proto.system.run_for(M); // one clean MTF
    proto.fault.activate();

    // The next activation of the faulty process releases at the start of
    // the next MTF (t = M) and overruns; its deadline (release + 650)
    // expires while P1 is inactive. P1's dispatches happen at k·M.
    proto.system.run_for(10 * M);
    let misses: Vec<u64> = proto
        .system
        .trace()
        .deadline_misses()
        .iter()
        .map(|e| e.at().as_u64())
        .collect();

    // First dispatch after activation (t = M): no pending miss.
    // Every subsequent dispatch (t = 2M .. 11M): exactly one detection.
    let expected: Vec<u64> = (2..=11).map(|k| k * M).collect();
    assert_eq!(misses, expected);
}

#[test]
fn detection_attributes_and_latency() {
    let mut proto = PrototypeHarness::build();
    proto.fault.activate();
    proto.system.run_for(4 * M);

    for event in proto.system.trace().deadline_misses() {
        let TraceEvent::DeadlineMiss {
            at,
            process,
            deadline,
        } = event
        else {
            unreachable!("filtered");
        };
        // Attribution: always the faulty process of P1.
        assert_eq!(process.partition, P1);
        let faulty = proto
            .system
            .partition(P1)
            .process_id("aocs-faulty")
            .unwrap();
        assert_eq!(process.process, faulty);
        // Detection is optimal under partition inactivity: it happens at
        // P1's first dispatch after the deadline passed, i.e. the next
        // multiple of the MTF after `deadline`.
        let expected_detection = (deadline.as_u64() / M + 1) * M;
        assert_eq!(at.as_u64(), expected_detection);
    }
}

#[test]
fn hm_log_and_error_handler_cooperate() {
    let mut proto = PrototypeHarness::build();
    proto.fault.activate();
    proto.system.run_for(5 * M);

    // Every detection went through health monitoring…
    let hm_entries = proto
        .system
        .hm()
        .log()
        .entries_for(ErrorId::DeadlineMissed)
        .count();
    assert_eq!(
        hm_entries as u64,
        proto.system.trace().deadline_miss_count()
    );
    // …and the P1 error handler's RestartProcess re-armed the process each
    // time: the faulty process is never left dormant.
    let faulty = proto
        .system
        .partition(P1)
        .process_id("aocs-faulty")
        .unwrap();
    let (status, _) = proto.system.partition(P1).process_status(faulty).unwrap();
    assert_ne!(status.state, air_model::ProcessState::Dormant);
}

#[test]
fn fault_recovery_returns_to_quiet() {
    let mut proto = PrototypeHarness::build();
    proto.fault.activate();
    proto.system.run_for(4 * M);
    proto.fault.deactivate();
    // One more detection may be pending (the last overrun's deadline was
    // already armed); after it, the restarted process completes normally
    // and misses stop.
    proto.system.run_for(2 * M);
    let count_after_recovery = proto.system.trace().deadline_miss_count();
    proto.system.run_for(6 * M);
    assert_eq!(
        proto.system.trace().deadline_miss_count(),
        count_after_recovery,
        "no further misses once the fault is cleared"
    );
}

#[test]
fn other_partitions_are_unaffected_by_p1_fault() {
    // Fault containment: the P1 malfunction never touches P2–P4 timing or
    // data flows.
    let mut proto = PrototypeHarness::build();
    proto.fault.activate();
    proto.system.run_for(6 * M);
    for e in proto.system.trace().deadline_misses() {
        let TraceEvent::DeadlineMiss { process, .. } = e else {
            unreachable!()
        };
        assert_eq!(process.partition, P1, "misses contained to P1");
    }
    // P4 still consumes valid attitude data produced by P1's (healthy)
    // control process.
    assert!(proto.system.console_of(P4).contains("Valid"));
}
