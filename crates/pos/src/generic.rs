//! Unit tests of the generic kind: round-robin rotation on the quantum
//! and the real-time services it refuses.

#[cfg(test)]
mod tests {
    use crate::*;

    fn generic_with(names: &[&str]) -> (PartitionOs, Vec<ProcessId>) {
        let mut pos = PartitionOs::new(PosKind::GenericNonRealTime);
        let ids = names
            .iter()
            .map(|n| pos.create_process(ProcessAttributes::new(*n)).unwrap())
            .collect();
        (pos, ids)
    }

    #[test]
    fn round_robin_rotation() {
        let (mut pos, ids) = generic_with(&["a", "b"]);
        pos.start(ids[0], Ticks(0)).unwrap();
        pos.start(ids[1], Ticks(0)).unwrap();
        // Quantum = 10: a runs at t=0..10, then b.
        assert_eq!(pos.select_heir(Ticks(0)), Some(ids[0]));
        pos.announce_ticks(Ticks(1));
        assert_eq!(pos.select_heir(Ticks(1)), Some(ids[0]));
        pos.announce_ticks(Ticks(10));
        assert_eq!(pos.select_heir(Ticks(10)), Some(ids[1]));
        pos.announce_ticks(Ticks(20));
        assert_eq!(pos.select_heir(Ticks(20)), Some(ids[0]));
    }

    #[test]
    fn rt_services_unsupported() {
        let (mut pos, ids) = generic_with(&["a"]);
        pos.start(ids[0], Ticks(0)).unwrap();
        assert_eq!(
            pos.periodic_wait(ids[0], Ticks(0)),
            Err(PosError::UnsupportedService("PERIODIC_WAIT"))
        );
        assert_eq!(
            pos.set_priority(ids[0], Priority(1)),
            Err(PosError::UnsupportedService("SET_PRIORITY"))
        );
        assert_eq!(pos.kind(), PosKind::GenericNonRealTime);
    }

    #[test]
    fn timed_wait_and_wake() {
        let (mut pos, ids) = generic_with(&["a", "b"]);
        pos.start(ids[0], Ticks(0)).unwrap();
        pos.start(ids[1], Ticks(0)).unwrap();
        pos.timed_wait(ids[0], Ticks(5), Ticks(0)).unwrap();
        assert_eq!(pos.select_heir(Ticks(0)), Some(ids[1]));
        pos.announce_ticks(Ticks(10));
        // a re-entered at the back of the queue, but b's quantum (10) has
        // expired, so the queue rotates and a takes over.
        assert_eq!(pos.select_heir(Ticks(10)), Some(ids[0]));
        assert_eq!(pos.take_wake_cause(ids[0]), Some(WakeCause::Timeout));
        pos.stop(ids[0]).unwrap();
        assert_eq!(pos.select_heir(Ticks(10)), Some(ids[1]));
    }

    #[test]
    fn suspend_resume_and_block_unblock() {
        let (mut pos, ids) = generic_with(&["a"]);
        pos.start(ids[0], Ticks(0)).unwrap();
        pos.suspend(ids[0]).unwrap();
        assert_eq!(pos.select_heir(Ticks(0)), None);
        pos.resume(ids[0], Ticks(1)).unwrap();
        assert_eq!(pos.select_heir(Ticks(1)), Some(ids[0]));

        pos.block(ids[0], None, Ticks(1)).unwrap();
        assert_eq!(pos.select_heir(Ticks(1)), None);
        pos.unblock(ids[0], Ticks(2)).unwrap();
        assert_eq!(pos.select_heir(Ticks(2)), Some(ids[0]));
        assert_eq!(pos.take_wake_cause(ids[0]), Some(WakeCause::Unblocked));
    }

    #[test]
    fn reset_empties_queue() {
        let (mut pos, ids) = generic_with(&["a", "b"]);
        pos.start(ids[0], Ticks(0)).unwrap();
        pos.start(ids[1], Ticks(0)).unwrap();
        pos.reset();
        assert_eq!(pos.select_heir(Ticks(0)), None);
        assert_eq!(pos.status(ids[0]).unwrap().state, ProcessState::Dormant);
    }
}
