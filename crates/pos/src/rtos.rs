//! Unit tests of the real-time kind: the Eq. 14 ready rule, delays,
//! suspensions, periodic release points and the process limit.

#[cfg(test)]
mod tests {
    use crate::*;
    use air_model::process::Recurrence;

    fn pos_with(names: &[(&str, u8)]) -> (PartitionOs, Vec<ProcessId>) {
        let mut pos = PartitionOs::new(PosKind::RealTime);
        let ids = names
            .iter()
            .map(|(n, prio)| {
                pos.create_process(ProcessAttributes::new(*n).with_base_priority(Priority(*prio)))
                    .unwrap()
            })
            .collect();
        (pos, ids)
    }

    #[test]
    fn create_start_run() {
        let (mut pos, ids) = pos_with(&[("a", 5), ("b", 3)]);
        assert_eq!(pos.process_count(), 2);
        pos.start(ids[0], Ticks(0)).unwrap();
        pos.start(ids[1], Ticks(0)).unwrap();
        // b has the more urgent priority (3 < 5).
        assert_eq!(pos.select_heir(Ticks(0)), Some(ids[1]));
        assert_eq!(pos.status(ids[1]).unwrap().state, ProcessState::Running);
        assert_eq!(pos.status(ids[0]).unwrap().state, ProcessState::Ready);
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut pos = PartitionOs::new(PosKind::RealTime);
        pos.create_process(ProcessAttributes::new("x")).unwrap();
        assert_eq!(
            pos.create_process(ProcessAttributes::new("x")),
            Err(PosError::DuplicateName)
        );
        assert_eq!(pos.process_by_name("x"), Some(ProcessId(0)));
        assert_eq!(pos.process_by_name("y"), None);
    }

    #[test]
    fn process_limit_enforced() {
        let mut pos = PartitionOs::new(PosKind::RealTime);
        let mut generic = PartitionOs::new(PosKind::GenericNonRealTime);
        for i in 0..MAX_PROCESSES {
            pos.create_process(ProcessAttributes::new(format!("p{i}")))
                .unwrap();
            generic
                .create_process(ProcessAttributes::new(format!("p{i}")))
                .unwrap();
        }
        assert_eq!(
            pos.create_process(ProcessAttributes::new("b")),
            Err(PosError::TooManyProcesses {
                limit: MAX_PROCESSES
            })
        );
        // The limit is the real-time kind's only.
        assert!(generic.create_process(ProcessAttributes::new("b")).is_ok());
    }

    #[test]
    fn start_requires_dormant() {
        let (mut pos, ids) = pos_with(&[("a", 5)]);
        pos.start(ids[0], Ticks(0)).unwrap();
        assert_eq!(
            pos.start(ids[0], Ticks(0)),
            Err(PosError::InvalidState(ids[0]))
        );
    }

    #[test]
    fn delayed_start_releases_at_instant() {
        let (mut pos, ids) = pos_with(&[("a", 5)]);
        assert_eq!(
            pos.delayed_start(ids[0], Ticks(10), Ticks(0)),
            Ok(Ticks(10))
        );
        assert_eq!(pos.select_heir(Ticks(5)), None);
        pos.announce_ticks(Ticks(9));
        assert_eq!(pos.select_heir(Ticks(9)), None);
        pos.announce_ticks(Ticks(10));
        assert_eq!(pos.select_heir(Ticks(10)), Some(ids[0]));
        assert_eq!(pos.take_wake_cause(ids[0]), Some(WakeCause::Released));
    }

    #[test]
    fn zero_delay_start_is_immediate() {
        let (mut pos, ids) = pos_with(&[("a", 5)]);
        assert_eq!(pos.delayed_start(ids[0], Ticks(0), Ticks(7)), Ok(Ticks(7)));
        assert_eq!(pos.select_heir(Ticks(7)), Some(ids[0]));
    }

    #[test]
    fn fifo_within_priority_and_preemption() {
        let (mut pos, ids) = pos_with(&[("a", 5), ("b", 5), ("urgent", 1)]);
        pos.start(ids[0], Ticks(0)).unwrap();
        pos.start(ids[1], Ticks(0)).unwrap();
        // a was admitted first: FIFO within priority 5.
        assert_eq!(pos.select_heir(Ticks(0)), Some(ids[0]));
        // urgent arrives and preempts.
        pos.start(ids[2], Ticks(1)).unwrap();
        assert_eq!(pos.select_heir(Ticks(1)), Some(ids[2]));
        // a remains the oldest ready at priority 5.
        pos.stop(ids[2]).unwrap();
        assert_eq!(pos.select_heir(Ticks(2)), Some(ids[0]));
    }

    #[test]
    fn suspend_resume() {
        let (mut pos, ids) = pos_with(&[("a", 5), ("b", 6)]);
        pos.start(ids[0], Ticks(0)).unwrap();
        pos.start(ids[1], Ticks(0)).unwrap();
        pos.suspend(ids[0]).unwrap();
        assert_eq!(pos.select_heir(Ticks(0)), Some(ids[1]));
        // Time does not wake a suspended process.
        pos.announce_ticks(Ticks(1_000_000));
        assert_eq!(pos.select_heir(Ticks(1_000_000)), Some(ids[1]));
        pos.resume(ids[0], Ticks(1_000_001)).unwrap();
        assert_eq!(pos.select_heir(Ticks(1_000_001)), Some(ids[0]));
        assert_eq!(pos.take_wake_cause(ids[0]), Some(WakeCause::Unblocked));
        assert_eq!(pos.take_wake_cause(ids[0]), None, "consumed");
    }

    #[test]
    fn resume_requires_suspended() {
        let (mut pos, ids) = pos_with(&[("a", 5)]);
        pos.start(ids[0], Ticks(0)).unwrap();
        assert_eq!(
            pos.resume(ids[0], Ticks(0)),
            Err(PosError::InvalidState(ids[0]))
        );
        pos.timed_wait(ids[0], Ticks(5), Ticks(0)).unwrap();
        // Waiting on a delay is not suspended.
        assert_eq!(
            pos.resume(ids[0], Ticks(0)),
            Err(PosError::InvalidState(ids[0]))
        );
    }

    #[test]
    fn timed_wait_wakes_with_timeout_cause() {
        let (mut pos, ids) = pos_with(&[("a", 5)]);
        pos.start(ids[0], Ticks(0)).unwrap();
        pos.timed_wait(ids[0], Ticks(3), Ticks(0)).unwrap();
        pos.announce_ticks(Ticks(2));
        assert_eq!(pos.select_heir(Ticks(2)), None);
        pos.announce_ticks(Ticks(3));
        assert_eq!(pos.select_heir(Ticks(3)), Some(ids[0]));
        assert_eq!(pos.take_wake_cause(ids[0]), Some(WakeCause::Timeout));
    }

    #[test]
    fn zero_timed_wait_yields() {
        let (mut pos, ids) = pos_with(&[("a", 5), ("b", 5)]);
        pos.start(ids[0], Ticks(0)).unwrap();
        pos.start(ids[1], Ticks(0)).unwrap();
        assert_eq!(pos.select_heir(Ticks(0)), Some(ids[0]));
        pos.timed_wait(ids[0], Ticks(0), Ticks(0)).unwrap();
        assert_eq!(pos.select_heir(Ticks(0)), Some(ids[1]), "a yielded");
    }

    #[test]
    fn periodic_wait_cycle() {
        let mut pos = PartitionOs::new(PosKind::RealTime);
        let p = pos
            .create_process(
                ProcessAttributes::new("per")
                    .with_base_priority(Priority(5))
                    .with_recurrence(Recurrence::Periodic(Ticks(100))),
            )
            .unwrap();
        pos.start(p, Ticks(0)).unwrap();
        assert_eq!(pos.select_heir(Ticks(0)), Some(p));
        // Finish the activation at t=30: next release is 0 + 100 = 100.
        let release = pos.periodic_wait(p, Ticks(30)).unwrap();
        assert_eq!(release, Ticks(100));
        pos.announce_ticks(Ticks(99));
        assert_eq!(pos.select_heir(Ticks(99)), None);
        pos.announce_ticks(Ticks(100));
        assert_eq!(pos.select_heir(Ticks(100)), Some(p));
        assert_eq!(pos.take_wake_cause(p), Some(WakeCause::Released));
        // Second activation finishing late at t=170: release = 200.
        assert_eq!(pos.periodic_wait(p, Ticks(170)).unwrap(), Ticks(200));
        // Overrun past a whole period: releases skip forward.
        pos.announce_ticks(Ticks(200));
        pos.select_heir(Ticks(200));
        assert_eq!(pos.periodic_wait(p, Ticks(450)).unwrap(), Ticks(500));
    }

    fn periodic(pos: &mut PartitionOs, name: &str, period: u64) -> ProcessId {
        let attrs = ProcessAttributes::new(name)
            .with_base_priority(Priority(5))
            .with_recurrence(Recurrence::Periodic(Ticks(period)));
        pos.create_process(attrs).unwrap()
    }

    #[test]
    fn next_release_matches_the_period_skipping_loop() {
        // The loop `periodic_wait` used to run, one step per period.
        let skip = |base: u64, period: u64, now: u64| {
            let mut release = base + period;
            while release <= now {
                release += period;
            }
            release
        };
        for base in 0..12 {
            for period in 1..9 {
                for now in base..base + 40 {
                    assert_eq!(
                        next_release(Ticks(base), Ticks(period), Ticks(now)),
                        Ticks(skip(base, period, now)),
                        "base {base}, period {period}, now {now}"
                    );
                }
            }
        }
        assert_eq!(
            next_release(Ticks(u64::MAX - 3), Ticks(10), Ticks(u64::MAX - 1)),
            Ticks::MAX,
            "saturates instead of wrapping"
        );
    }

    #[test]
    fn a_long_overrun_returns_the_next_release_at_once() {
        let mut pos = PartitionOs::new(PosKind::RealTime);
        let p = periodic(&mut pos, "fast", 1);
        pos.start(p, Ticks(5)).unwrap();
        pos.select_heir(Ticks(5));
        // 2·10⁹ missed periods: the loop took one step per period.
        let now = 5 + 2_000_000_000;
        assert_eq!(pos.periodic_wait(p, Ticks(now)), Ok(Ticks(now + 1)));
    }

    #[test]
    fn periodic_wait_rejects_a_zero_period() {
        let mut pos = PartitionOs::new(PosKind::RealTime);
        let p = periodic(&mut pos, "stuck", 0);
        pos.start(p, Ticks(0)).unwrap();
        assert_eq!(pos.select_heir(Ticks(0)), Some(p));
        assert_eq!(pos.periodic_wait(p, Ticks(3)), Err(PosError::ZeroPeriod(p)));
        assert_eq!(
            pos.status(p).unwrap().state,
            ProcessState::Running,
            "a rejected wait leaves the process as it was"
        );
    }

    #[test]
    fn periodic_wait_rejects_aperiodic() {
        let (mut pos, ids) = pos_with(&[("a", 5)]);
        pos.start(ids[0], Ticks(0)).unwrap();
        assert_eq!(
            pos.periodic_wait(ids[0], Ticks(0)),
            Err(PosError::NotPeriodic(ids[0]))
        );
    }

    #[test]
    fn set_priority_moves_to_back_of_new_level() {
        let (mut pos, ids) = pos_with(&[("a", 5), ("b", 5)]);
        pos.start(ids[0], Ticks(0)).unwrap();
        pos.start(ids[1], Ticks(0)).unwrap();
        // Re-setting a's priority to 5 re-stamps it behind b.
        pos.set_priority(ids[0], Priority(5)).unwrap();
        assert_eq!(pos.select_heir(Ticks(0)), Some(ids[1]));
        // Raising a's urgency wins regardless of stamps.
        pos.set_priority(ids[0], Priority(1)).unwrap();
        assert_eq!(pos.select_heir(Ticks(0)), Some(ids[0]));
    }

    #[test]
    fn block_unblock_with_timeout() {
        let (mut pos, ids) = pos_with(&[("a", 5)]);
        pos.start(ids[0], Ticks(0)).unwrap();
        pos.block(ids[0], Some(Ticks(10)), Ticks(0)).unwrap();
        pos.announce_ticks(Ticks(10));
        assert_eq!(pos.select_heir(Ticks(10)), Some(ids[0]));
        assert_eq!(pos.take_wake_cause(ids[0]), Some(WakeCause::Timeout));

        // And the explicit-unblock path.
        pos.block(ids[0], None, Ticks(10)).unwrap();
        pos.announce_ticks(Ticks(1_000));
        assert_eq!(pos.select_heir(Ticks(1_000)), None, "no timeout armed");
        pos.unblock(ids[0], Ticks(1_001)).unwrap();
        assert_eq!(pos.take_wake_cause(ids[0]), Some(WakeCause::Unblocked));
        assert_eq!(pos.select_heir(Ticks(1_001)), Some(ids[0]));
    }

    #[test]
    fn stop_clears_running() {
        let (mut pos, ids) = pos_with(&[("a", 5)]);
        pos.start(ids[0], Ticks(0)).unwrap();
        pos.select_heir(Ticks(0));
        pos.stop(ids[0]).unwrap();
        assert_eq!(pos.status(ids[0]).unwrap().state, ProcessState::Dormant);
        assert_eq!(pos.select_heir(Ticks(1)), None);
        assert_eq!(pos.stop(ids[0]), Err(PosError::InvalidState(ids[0])));
    }

    #[test]
    fn reset_returns_everything_to_dormant() {
        let (mut pos, ids) = pos_with(&[("a", 5), ("b", 6)]);
        pos.start(ids[0], Ticks(0)).unwrap();
        pos.delayed_start(ids[1], Ticks(5), Ticks(0)).unwrap();
        pos.reset();
        for &id in &ids {
            assert_eq!(pos.status(id).unwrap().state, ProcessState::Dormant);
        }
        assert_eq!(pos.select_heir(Ticks(100)), None);
        // Configuration survives the restart.
        assert_eq!(pos.process_count(), 2);
        pos.start(ids[0], Ticks(100)).unwrap();
        assert_eq!(pos.select_heir(Ticks(100)), Some(ids[0]));
    }

    #[test]
    fn unknown_process_errors() {
        let mut pos = PartitionOs::new(PosKind::RealTime);
        let ghost = ProcessId(9);
        assert_eq!(
            pos.start(ghost, Ticks(0)),
            Err(PosError::UnknownProcess(ghost))
        );
        assert_eq!(pos.status(ghost), None);
        assert_eq!(pos.attributes(ghost), None);
        assert_eq!(pos.take_wake_cause(ghost), None);
    }
}
