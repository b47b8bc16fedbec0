//! The AIR Partition Scheduler featuring mode-based schedules —
//! **Algorithm 1** of the paper.
//!
//! ```text
//! 1:  ticks ← ticks + 1
//! 2:  if schedules[cur].table[it].tick = (ticks − lastSwitch) mod schedules[cur].mtf then
//! 3:      if cur ≠ next ∧ (ticks − lastSwitch) mod schedules[cur].mtf = 0 then
//! 4:          cur ← next
//! 5:          lastSwitch ← ticks
//! 6:          it ← 0
//! 7:      end if
//! 8:      heirPartition ← schedules[cur].table[it].partition
//! 9:      it ← (it + 1) mod schedules[cur].numberPartitionPreemptionPoints
//! 10: end if
//! ```
//!
//! "Since the AIR Partition Scheduler code is invoked at every system clock
//! tick, its code needs to be as efficient as possible… in the best and
//! most frequent case, only two computations are performed" (Sect. 4.3):
//! incrementing the tick count and the line-2 comparison. This module keeps
//! that property: off preemption points, [`PartitionScheduler::tick`] does
//! one subtraction, one modulo and one comparison against a precompiled
//! table entry.

use std::fmt;

use air_model::schedule::PreemptionPoint;
use air_model::{PartitionId, Schedule, ScheduleSet, Ticks};

/// Errors from schedule-switch requests (`SET_MODULE_SCHEDULE` backend).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SchedulerError {
    /// The requested schedule id does not exist in the schedule set.
    UnknownSchedule(air_model::ScheduleId),
}

impl fmt::Display for SchedulerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulerError::UnknownSchedule(id) => {
                write!(f, "unknown schedule {id}")
            }
        }
    }
}

impl std::error::Error for SchedulerError {}

/// The schedule status reported by `GET_MODULE_SCHEDULE_STATUS`
/// (Sect. 4.2): "the time of the last schedule switch (0 if none ever
/// occurred); the identifier of the current schedule; the identifier of
/// the next schedule, which will be the same as the current schedule if no
/// schedule change is pending".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleStatus {
    /// Instant of the last effective switch; `Ticks::ZERO` if none ever
    /// occurred.
    pub last_switch: Ticks,
    /// The schedule currently in force.
    pub current: air_model::ScheduleId,
    /// The schedule that takes effect at the next MTF boundary.
    pub next: air_model::ScheduleId,
}

/// One compiled schedule: the preemption-point table Algorithm 1 iterates.
#[derive(Debug, Clone)]
struct CompiledSchedule {
    id: air_model::ScheduleId,
    mtf: Ticks,
    /// Preemption points sorted by MTF-relative tick; always contains a
    /// point at tick 0 so the MTF boundary is a table entry (required for
    /// line 3's switch check to be reachable).
    table: Vec<PreemptionPoint>,
}

impl CompiledSchedule {
    fn compile(schedule: &Schedule) -> Self {
        let mut table = schedule.preemption_points();
        if table.first().map(|p| p.tick) != Some(Ticks::ZERO) {
            // Insert an explicit MTF-boundary entry; the heir is whatever
            // the model says is active at instant 0 (None = idle gap).
            let heir = schedule.partition_active_at(Ticks::ZERO);
            table.insert(
                0,
                PreemptionPoint {
                    tick: Ticks::ZERO,
                    heir,
                },
            );
        }
        Self {
            id: schedule.id(),
            mtf: schedule.mtf(),
            table,
        }
    }
}

/// The outcome of a clock tick on which a partition preemption point was
/// reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreemptionEvent {
    /// The partition now holding the processing resources (`None`: idle
    /// gap until the next point).
    pub heir: Option<PartitionId>,
    /// Whether this tick made a pending schedule switch effective
    /// (always at an MTF boundary).
    pub switched_to: Option<air_model::ScheduleId>,
}

/// The AIR Partition Scheduler with mode-based schedules.
///
/// # Examples
///
/// ```
/// use air_pmk::PartitionScheduler;
/// use air_model::prototype;
///
/// let sys = prototype::fig8_system();
/// let mut sched = PartitionScheduler::new(&sys.schedules);
/// // P1 is dispatched at system start (the tick-0 point of χ1)…
/// assert_eq!(sched.initial_heir(), Some(prototype::P1));
/// // …and the best/most-frequent case does no scheduling work at all:
/// assert!(sched.tick(1).is_none());
/// // The next preemption point of χ1 is <P2, 200, 100>:
/// for t in 2..200 { assert!(sched.tick(t).is_none()); }
/// let event = sched.tick(200).expect("preemption point");
/// assert_eq!(event.heir, Some(prototype::P2));
/// ```
#[derive(Debug, Clone)]
pub struct PartitionScheduler {
    schedules: Vec<CompiledSchedule>,
    current: usize,
    next: usize,
    last_schedule_switch: u64,
    table_iterator: usize,
    /// Count of preemption points served (diagnostics).
    points_served: u64,
}

impl PartitionScheduler {
    /// Compiles `set` and starts under its initial schedule.
    ///
    /// The tick-0 preemption point is considered served at initialisation
    /// (the PMK dispatches [`initial_heir`](Self::initial_heir) before the
    /// first clock tick), so the table iterator starts at the next entry —
    /// matching the paper's prototype, where partition `P1` is already
    /// executing when the clock starts.
    pub fn new(set: &ScheduleSet) -> Self {
        let schedules: Vec<CompiledSchedule> = set.iter().map(CompiledSchedule::compile).collect();
        let table_iterator = 1 % schedules[0].table.len();
        Self {
            schedules,
            current: 0,
            next: 0,
            last_schedule_switch: 0,
            table_iterator,
            points_served: 0,
        }
    }

    /// The heir of the tick-0 preemption point of the initial schedule:
    /// the partition the PMK dispatches at system start.
    pub fn initial_heir(&self) -> Option<PartitionId> {
        self.schedules[0].table[0].heir
    }

    /// Requests a switch to `schedule` effective at the end of the current
    /// MTF (the `SET_MODULE_SCHEDULE` semantics of Sect. 4.2: "the
    /// immediate result is only that of storing the identifier").
    ///
    /// # Errors
    ///
    /// [`SchedulerError::UnknownSchedule`] when the id is not configured.
    pub fn request_schedule(
        &mut self,
        schedule: air_model::ScheduleId,
    ) -> Result<(), SchedulerError> {
        let idx = self
            .schedules
            .iter()
            .position(|s| s.id == schedule)
            .ok_or(SchedulerError::UnknownSchedule(schedule))?;
        self.next = idx;
        Ok(())
    }

    /// The `GET_MODULE_SCHEDULE_STATUS` data (Sect. 4.2).
    pub fn status(&self) -> ScheduleStatus {
        ScheduleStatus {
            last_switch: Ticks(self.last_schedule_switch),
            current: self.schedules[self.current].id,
            next: self.schedules[self.next].id,
        }
    }

    /// The MTF of the schedule currently in force.
    pub fn current_mtf(&self) -> Ticks {
        self.schedules[self.current].mtf
    }

    /// Preemption points served since construction.
    pub fn points_served(&self) -> u64 {
        self.points_served
    }

    /// Algorithm 1, lines 2–10, for the (already incremented) global tick
    /// count `ticks` — line 1 lives with the system clock
    /// ([`air_hw::SystemClock::advance`]).
    ///
    /// Returns `Some` exactly when a partition preemption point is reached;
    /// the caller (the tick ISR) then invokes the Partition Dispatcher.
    /// The scheduler expects to see every tick exactly once, in order,
    /// starting from tick 1.
    #[inline]
    pub fn tick(&mut self, ticks: u64) -> Option<PreemptionEvent> {
        let cur = &self.schedules[self.current];
        let phase = (ticks - self.last_schedule_switch) % cur.mtf.as_u64();
        // Line 2: the single comparison of the best/most-frequent case.
        if cur.table[self.table_iterator].tick.as_u64() != phase {
            return None;
        }
        // Line 3: a pending switch becomes effective at the MTF boundary.
        let mut switched_to = None;
        if self.current != self.next && phase == 0 {
            self.current = self.next; // line 4
            self.last_schedule_switch = ticks; // line 5
            self.table_iterator = 0; // line 6
            switched_to = Some(self.schedules[self.current].id);
        }
        let cur = &self.schedules[self.current];
        // Line 8: the heir partition.
        let heir = cur.table[self.table_iterator].heir;
        // Line 9: advance the table iterator.
        self.table_iterator = (self.table_iterator + 1) % cur.table.len();
        self.points_served += 1;
        Some(PreemptionEvent { heir, switched_to })
    }
}

/// The window-scanning alternative scheduler: at every tick it searches
/// the window list for the window containing the current MTF phase.
///
/// Functionally equivalent to [`PartitionScheduler`] for static (single-
/// schedule) systems; kept purely as the baseline for the B1 bench, which
/// quantifies why Algorithm 1's table-iterator form is the right one for
/// code "invoked at every system clock tick" (Sect. 4.3).
#[derive(Debug, Clone)]
pub struct NaiveWindowScanScheduler {
    schedule: Schedule,
    last_heir: Option<PartitionId>,
}

impl NaiveWindowScanScheduler {
    /// Creates the scanner over one static schedule.
    pub fn new(schedule: Schedule) -> Self {
        Self {
            schedule,
            last_heir: None,
        }
    }

    /// Scans the window list for the current phase; returns `Some` when the
    /// heir changed relative to the previous tick.
    pub fn tick(&mut self, ticks: u64) -> Option<Option<PartitionId>> {
        let phase = Ticks(ticks % self.schedule.mtf().as_u64());
        let heir = self.schedule.partition_active_at(phase);
        if heir != self.last_heir {
            self.last_heir = heir;
            Some(heir)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use air_model::prototype::{self, CHI_1, CHI_2, P1, P2, P3, P4};

    /// Drives the scheduler across `n` ticks starting at 1, collecting
    /// (tick, heir) pairs for every preemption point.
    fn run(
        sched: &mut PartitionScheduler,
        from: u64,
        to: u64,
    ) -> Vec<(u64, Option<PartitionId>, Option<air_model::ScheduleId>)> {
        let mut events = Vec::new();
        for t in from..=to {
            if let Some(ev) = sched.tick(t) {
                events.push((t, ev.heir, ev.switched_to));
            }
        }
        events
    }

    #[test]
    fn fig8_chi1_sequence_over_one_mtf() {
        let sys = prototype::fig8_system();
        let mut sched = PartitionScheduler::new(&sys.schedules);
        // Tick counts are absolute; the MTF phase at tick t is t mod 1300.
        // Points of χ1: 0→P1, 200→P2, 300→P3, 400→P4, 1000→P2, 1100→P3,
        // 1200→P4.
        let events = run(&mut sched, 1, 1300);
        assert_eq!(
            events,
            vec![
                (200, Some(P2), None),
                (300, Some(P3), None),
                (400, Some(P4), None),
                (1000, Some(P2), None),
                (1100, Some(P3), None),
                (1200, Some(P4), None),
                (1300, Some(P1), None), // phase 0 of the second MTF
            ]
        );
    }

    #[test]
    fn tick_zero_equivalent_served_every_mtf() {
        let sys = prototype::fig8_system();
        let mut sched = PartitionScheduler::new(&sys.schedules);
        let events = run(&mut sched, 1, 3 * 1300);
        let boundary_heirs: Vec<_> = events
            .iter()
            .filter(|(t, _, _)| t % 1300 == 0)
            .map(|&(_, h, _)| h)
            .collect();
        assert_eq!(boundary_heirs, vec![Some(P1), Some(P1), Some(P1)]);
        assert_eq!(sched.points_served(), events.len() as u64);
    }

    #[test]
    fn switch_takes_effect_only_at_mtf_boundary() {
        let sys = prototype::fig8_system();
        let mut sched = PartitionScheduler::new(&sys.schedules);
        // Run into the middle of the first MTF, then request χ2.
        run(&mut sched, 1, 500);
        sched.request_schedule(CHI_2).unwrap();
        let st = sched.status();
        assert_eq!(st.current, CHI_1);
        assert_eq!(st.next, CHI_2);
        assert_eq!(st.last_switch, Ticks(0));

        // The remainder of the MTF still follows χ1 (1000→P2).
        let events = run(&mut sched, 501, 1299);
        assert_eq!(events[0], (1000, Some(P2), None));

        // At tick 1300 (phase 0) the switch becomes effective and χ2's
        // first window (P1) is dispatched.
        let ev = sched.tick(1300).expect("boundary is a preemption point");
        assert_eq!(ev.switched_to, Some(CHI_2));
        assert_eq!(ev.heir, Some(P1));
        let st = sched.status();
        assert_eq!(st.current, CHI_2);
        assert_eq!(st.next, CHI_2);
        assert_eq!(st.last_switch, Ticks(1300));

        // And the following points follow χ2: 200→P4, 300→P3, 400→P2…
        let events = run(&mut sched, 1301, 1300 + 1300);
        assert_eq!(
            events,
            vec![
                (1500, Some(P4), None),
                (1600, Some(P3), None),
                (1700, Some(P2), None),
                (2300, Some(P4), None),
                (2400, Some(P3), None),
                (2500, Some(P2), None),
                (2600, Some(P1), None),
            ]
        );
    }

    #[test]
    fn successive_requests_last_one_wins() {
        // Sect. 6: "successive requests to change schedule are correctly
        // handled at the end of the current MTF".
        let sys = prototype::fig8_system();
        let mut sched = PartitionScheduler::new(&sys.schedules);
        run(&mut sched, 1, 100);
        sched.request_schedule(CHI_2).unwrap();
        sched.request_schedule(CHI_1).unwrap(); // cancels: next == current
        let ev = {
            run(&mut sched, 101, 1299);
            sched.tick(1300).unwrap()
        };
        assert_eq!(ev.switched_to, None, "request back to χ1 cancels");
        assert_eq!(sched.status().current, CHI_1);

        sched.request_schedule(CHI_2).unwrap();
        run(&mut sched, 1301, 2599);
        let ev = sched.tick(2600).unwrap();
        assert_eq!(ev.switched_to, Some(CHI_2));
    }

    #[test]
    fn unknown_schedule_rejected() {
        let sys = prototype::fig8_system();
        let mut sched = PartitionScheduler::new(&sys.schedules);
        let ghost = air_model::ScheduleId(9);
        assert_eq!(
            sched.request_schedule(ghost),
            Err(SchedulerError::UnknownSchedule(ghost))
        );
    }

    #[test]
    fn switch_preserves_phase_origin() {
        // After a switch at tick 1300, phase is measured from the switch:
        // χ2's 200-point fires at absolute tick 1500, not 1400-something.
        let sys = prototype::fig8_system();
        let mut sched = PartitionScheduler::new(&sys.schedules);
        sched.request_schedule(CHI_2).unwrap();
        run(&mut sched, 1, 1300);
        assert_eq!(sched.status().last_switch, Ticks(1300));
        let events = run(&mut sched, 1301, 1599);
        assert_eq!(events, vec![(1500, Some(P4), None)]);
    }

    #[test]
    fn naive_scanner_agrees_with_algorithm1_on_heirs() {
        // Conformance between the table-iterator scheduler and the naive
        // window scan on the static χ1 system.
        let chi1 = prototype::fig8_chi1();
        let set = air_model::ScheduleSet::new(vec![chi1.clone()]);
        let mut fast = PartitionScheduler::new(&set);
        let mut naive = NaiveWindowScanScheduler::new(chi1);
        let mut fast_heir = fast.initial_heir();
        for t in 1..=5 * 1300u64 {
            if let Some(ev) = fast.tick(t) {
                fast_heir = ev.heir;
            }
            if let Some(h) = naive.tick(t) {
                assert_eq!(h, fast_heir, "divergence at tick {t}");
            }
            // Every tick the heirs agree, whether or not a point fired.
            let phase = Ticks(t % 1300);
            let expected = prototype::fig8_chi1().partition_active_at(phase);
            assert_eq!(fast_heir, expected, "model divergence at tick {t}");
        }
    }

    #[test]
    fn schedule_with_idle_gap_compiles_boundary_point() {
        use air_model::schedule::{PartitionRequirement, TimeWindow};
        // One window [10, 20) in an MTF of 100: no window at 0 and none
        // ending at the MTF — the compiler must still synthesise a
        // boundary point so switches stay reachable.
        let s = Schedule::new(
            air_model::ScheduleId(0),
            "gap",
            Ticks(100),
            vec![PartitionRequirement::new(P1, Ticks(100), Ticks(10))],
            vec![TimeWindow::new(P1, Ticks(10), Ticks(10))],
        );
        let set = air_model::ScheduleSet::new(vec![s]);
        let mut sched = PartitionScheduler::new(&set);
        let events = run(&mut sched, 1, 200);
        assert_eq!(
            events,
            vec![
                (10, Some(P1), None),
                (20, None, None),
                (100, None, None), // synthesised boundary point, idle
                (110, Some(P1), None),
                (120, None, None),
                (200, None, None),
            ]
        );
    }
}
