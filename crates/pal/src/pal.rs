//! The per-partition PAL instance: deadline bookkeeping plus the surrogate
//! clock-tick announcement (Fig. 6 and Fig. 7 of the paper).

use air_model::ids::ProcessId;
use air_model::{PartitionId, Ticks};

use crate::announce::check_deadlines;
use crate::deadline::{DeadlineRegistry, LinkedListRegistry};

/// Counters exposed by a PAL instance for diagnostics and experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PalStats {
    /// Surrogate announcements performed (one per dispatch of the owning
    /// partition).
    pub announcements: u64,
    /// Total elapsed ticks announced to the POS.
    pub ticks_announced: u64,
    /// Deadline violations detected and reported to health monitoring.
    pub violations_detected: u64,
    /// Deadline register/update operations (START, DELAYED_START,
    /// PERIODIC_WAIT, REPLENISH…).
    pub registrations: u64,
    /// Deadline unregister operations (STOP paths).
    pub unregistrations: u64,
}

/// One partition's AIR POS Adaptation Layer.
///
/// The PAL "keeps the appropriate data structures containing \[deadline\]
/// information" and "provides private interfaces for these APEX services
/// to register/update and unregister deadlines" (Sect. 5.2); on each
/// dispatch of the partition, the PMK calls
/// [`announce_clock_ticks`](Pal::announce_clock_ticks) with the ticks that
/// elapsed since the partition last ran.
///
/// The deadlines live in the paper's sorted [`LinkedListRegistry`]
/// (Sect. 5.3): O(1) earliest-peek and removal in the ISR, O(n) insertion
/// in the partition's own window, where `n` is the partition's armed
/// deadlines — one per process.
///
/// # Examples
///
/// ```
/// use air_pal::Pal;
/// use air_model::{ids::ProcessId, PartitionId, Ticks};
///
/// let mut pal = Pal::new(PartitionId(0));
/// pal.register_deadline(ProcessId(0), Ticks(50));
///
/// let mut announced = 0;
/// let mut missed = Vec::new();
/// pal.announce_clock_ticks(
///     60,                         // elapsed ticks to announce
///     Ticks(60),                  // current time
///     |elapsed| announced = elapsed,
///     |pid, d| missed.push((pid, d)),
/// );
/// assert_eq!(announced, 60);
/// assert_eq!(missed, vec![(ProcessId(0), Ticks(50))]);
/// ```
pub struct Pal {
    partition: PartitionId,
    registry: LinkedListRegistry,
    stats: PalStats,
}

impl std::fmt::Debug for Pal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pal")
            .field("partition", &self.partition)
            .field("armed_deadlines", &self.registry.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Pal {
    /// Creates a PAL for `partition` with no deadlines armed.
    pub fn new(partition: PartitionId) -> Self {
        Self {
            partition,
            registry: LinkedListRegistry::new(),
            stats: PalStats::default(),
        }
    }

    /// The partition this PAL belongs to.
    pub fn partition(&self) -> PartitionId {
        self.partition
    }

    /// Current statistics.
    pub fn stats(&self) -> PalStats {
        self.stats
    }

    /// Number of currently armed deadlines.
    pub fn armed_deadlines(&self) -> usize {
        self.registry.len()
    }

    /// The deadline currently armed for `process`, if any.
    pub fn deadline_of(&self, process: ProcessId) -> Option<Ticks> {
        self.registry.deadline_of(process)
    }

    /// The earliest armed deadline (the ISR-side O(1) query).
    pub fn earliest_deadline(&self) -> Option<(Ticks, ProcessId)> {
        self.registry.peek_earliest()
    }

    /// Registers or updates (`REPLENISH`, Fig. 6) the absolute deadline of
    /// `process` — the PAL-provided private interface of Sect. 5.2.
    pub fn register_deadline(&mut self, process: ProcessId, deadline: Ticks) {
        self.stats.registrations += 1;
        self.registry.register(process, deadline);
    }

    /// Unregisters the deadline of `process` (STOP / partition shutdown
    /// paths); returns the deadline it held.
    pub fn unregister_deadline(&mut self, process: ProcessId) -> Option<Ticks> {
        self.stats.unregistrations += 1;
        self.registry.unregister(process)
    }

    /// Removes every armed deadline (partition restart).
    pub fn clear_deadlines(&mut self) {
        while self.registry.pop_earliest().is_some() {}
    }

    /// The surrogate clock tick announcement routine (Fig. 7b /
    /// Algorithm 3): announces `elapsed_ticks` to the native POS routine
    /// (`announce_to_pos`), then verifies deadlines against `now`,
    /// reporting each violation through `report_violation`
    /// (`HM_DEADLINEVIOLATED`). Returns the number of violations.
    pub fn announce_clock_ticks<P, V>(
        &mut self,
        elapsed_ticks: u64,
        now: Ticks,
        announce_to_pos: P,
        mut report_violation: V,
    ) -> usize
    where
        P: FnOnce(u64),
        V: FnMut(ProcessId, Ticks),
    {
        // Algorithm 3 line 1: *POS_CLOCKTICKANNOUNCE(elapsedTicks).
        announce_to_pos(elapsed_ticks);
        self.stats.announcements += 1;
        self.stats.ticks_announced += elapsed_ticks;

        // Lines 2–8: the deadline-verification loop.
        let violations = check_deadlines(&mut self.registry, now, |pid, deadline| {
            report_violation(pid, deadline);
        });
        self.stats.violations_detected += violations as u64;
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(q: u32) -> ProcessId {
        ProcessId(q)
    }

    #[test]
    fn announce_reports_and_counts() {
        let mut pal = Pal::new(PartitionId(1));
        pal.register_deadline(pid(0), Ticks(10));
        pal.register_deadline(pid(1), Ticks(20));
        pal.register_deadline(pid(2), Ticks(1000));

        let mut pos_calls = Vec::new();
        let mut misses = Vec::new();
        let n = pal.announce_clock_ticks(
            30,
            Ticks(30),
            |e| pos_calls.push(e),
            |p, d| misses.push((p, d)),
        );
        assert_eq!(n, 2);
        assert_eq!(pos_calls, vec![30]);
        assert_eq!(misses, vec![(pid(0), Ticks(10)), (pid(1), Ticks(20))]);

        let stats = pal.stats();
        assert_eq!(stats.announcements, 1);
        assert_eq!(stats.ticks_announced, 30);
        assert_eq!(stats.violations_detected, 2);
        assert_eq!(stats.registrations, 3);
        assert_eq!(pal.armed_deadlines(), 1);
    }

    #[test]
    fn pos_is_announced_even_without_deadlines() {
        // Fig. 7: the announcement wraps the POS routine; deadline checking
        // is an addition, not a replacement.
        let mut pal = Pal::new(PartitionId(0));
        let mut announced = 0;
        pal.announce_clock_ticks(5, Ticks(5), |e| announced = e, |_, _| {});
        assert_eq!(announced, 5);
        assert_eq!(pal.stats().announcements, 1);
    }

    #[test]
    fn unregister_and_clear() {
        let mut pal = Pal::new(PartitionId(0));
        pal.register_deadline(pid(0), Ticks(10));
        pal.register_deadline(pid(1), Ticks(20));
        assert_eq!(pal.unregister_deadline(pid(0)), Some(Ticks(10)));
        assert_eq!(pal.unregister_deadline(pid(0)), None);
        pal.clear_deadlines();
        assert_eq!(pal.armed_deadlines(), 0);
        assert_eq!(pal.earliest_deadline(), None);
        assert_eq!(pal.stats().unregistrations, 2);
    }
}
