//! Multicore partition scheduling: future-work item (iv) of the paper —
//! "parallelism between partition time windows on a multicore platform".
//!
//! The model extension is conservative, in the spirit of the paper's
//! single-core semantics: each core runs its own cyclic scheduling table,
//! and a partition may hold windows on several cores, but **never two
//! cores at the same instant** — a partition is a single sequential
//! containment domain unless the application model says otherwise, and
//! its POS process scheduler (Eq. 14) selects exactly one running process
//! at any time. Partitions explicitly marked *parallel-capable* are
//! exempted from the exclusivity condition (an SMP-aware POS).

use std::fmt;

use crate::ids::PartitionId;
use crate::partition::Partition;
use crate::schedule::Schedule;
use crate::time::{lcm, Ticks};
use crate::verify::{verify_schedule, Report};

/// Identifies a processor core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CoreId(pub u32);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// A multicore schedule: one cyclic table per core.
///
/// # Examples
///
/// ```
/// use air_model::multicore::MulticoreSchedule;
/// use air_model::schedule::{PartitionRequirement, Schedule, TimeWindow};
/// use air_model::{PartitionId, ScheduleId, Ticks};
///
/// let p0 = PartitionId(0);
/// let p1 = PartitionId(1);
/// let core0 = Schedule::new(
///     ScheduleId(0), "core0", Ticks(100),
///     vec![PartitionRequirement::new(p0, Ticks(100), Ticks(50))],
///     vec![TimeWindow::new(p0, Ticks(0), Ticks(50))],
/// );
/// let core1 = Schedule::new(
///     ScheduleId(1), "core1", Ticks(100),
///     vec![PartitionRequirement::new(p1, Ticks(100), Ticks(100))],
///     vec![TimeWindow::new(p1, Ticks(0), Ticks(100))],
/// );
/// let mc = MulticoreSchedule::new(vec![core0, core1]);
/// assert!(mc.verify(&[]).is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MulticoreSchedule {
    cores: Vec<Schedule>,
    /// Partitions allowed to hold windows on several cores simultaneously.
    parallel_capable: Vec<PartitionId>,
}

/// A violation of the multicore exclusivity condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelismViolation {
    /// The doubly-scheduled partition.
    pub partition: PartitionId,
    /// The first core involved.
    pub core_a: CoreId,
    /// The second core involved.
    pub core_b: CoreId,
    /// An instant (within the hyperperiod) at which both schedule it.
    pub at: Ticks,
}

impl fmt::Display for ParallelismViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} is scheduled on {} and {} simultaneously at {}",
            self.partition, self.core_a, self.core_b, self.at
        )
    }
}

/// The outcome of multicore verification: the per-core reports plus the
/// cross-core exclusivity violations.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MulticoreReport {
    /// Per-core Eq. (21)–(23) reports, in core order.
    pub per_core: Vec<Report>,
    /// Cross-core double-scheduling violations.
    pub parallelism: Vec<ParallelismViolation>,
}

impl MulticoreReport {
    /// Whether everything holds.
    pub fn is_ok(&self) -> bool {
        self.per_core.iter().all(Report::is_ok) && self.parallelism.is_empty()
    }
}

impl MulticoreSchedule {
    /// Creates a multicore schedule from per-core tables.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is empty.
    pub fn new(cores: Vec<Schedule>) -> Self {
        assert!(!cores.is_empty(), "at least one core is required");
        Self {
            cores,
            parallel_capable: Vec::new(),
        }
    }

    /// Marks `partition` as parallel-capable (exempt from exclusivity).
    #[must_use]
    pub fn with_parallel_capable(mut self, partition: PartitionId) -> Self {
        self.parallel_capable.push(partition);
        self
    }

    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// The table of `core`.
    pub fn core(&self, core: CoreId) -> Option<&Schedule> {
        self.cores.get(core.0 as usize)
    }

    /// The hyperperiod: lcm of the per-core MTFs.
    pub fn hyperperiod(&self) -> Ticks {
        Ticks(self.cores.iter().map(|s| s.mtf().as_u64()).fold(1, lcm))
    }

    /// The partition active on `core` at absolute instant `t`.
    pub fn partition_active_at(&self, core: CoreId, t: Ticks) -> Option<PartitionId> {
        let schedule = self.core(core)?;
        schedule.partition_active_at(t % schedule.mtf())
    }

    /// Verifies every core's table (Eq. 21–23) and the cross-core
    /// exclusivity condition over one hyperperiod. One violation is
    /// reported per (partition, core pair) — the earliest instant.
    pub fn verify(&self, known_partitions: &[Partition]) -> MulticoreReport {
        let per_core = self
            .cores
            .iter()
            .map(|s| verify_schedule(s, known_partitions))
            .collect::<Vec<_>>();

        let mut parallelism = Vec::new();
        let hyper = self.hyperperiod().as_u64();
        for a in 0..self.cores.len() {
            for b in a + 1..self.cores.len() {
                let mut reported: Vec<PartitionId> = Vec::new();
                for t in 0..hyper {
                    let pa = self.partition_active_at(CoreId(a as u32), Ticks(t));
                    let pb = self.partition_active_at(CoreId(b as u32), Ticks(t));
                    if let (Some(pa), Some(pb)) = (pa, pb) {
                        if pa == pb
                            && !self.parallel_capable.contains(&pa)
                            && !reported.contains(&pa)
                        {
                            reported.push(pa);
                            parallelism.push(ParallelismViolation {
                                partition: pa,
                                core_a: CoreId(a as u32),
                                core_b: CoreId(b as u32),
                                at: Ticks(t),
                            });
                        }
                    }
                }
            }
        }
        MulticoreReport {
            per_core,
            parallelism,
        }
    }

    /// Aggregate utilisation: total window time per hyperperiod over all
    /// cores, divided by `cores × hyperperiod` (1.0 = fully packed).
    pub fn utilization(&self) -> f64 {
        let total: f64 = self.cores.iter().map(Schedule::utilization).sum();
        total / self.cores.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{PartitionRequirement, TimeWindow};
    use crate::ScheduleId;

    fn table(id: u32, mtf: u64, entries: &[(u32, u64, u64)]) -> Schedule {
        Schedule::new(
            ScheduleId(id),
            format!("core{id}"),
            Ticks(mtf),
            entries
                .iter()
                .map(|&(m, _, _)| {
                    // One requirement per distinct partition; duration is
                    // the sum of its windows.
                    PartitionRequirement::new(
                        PartitionId(m),
                        Ticks(mtf),
                        Ticks(
                            entries
                                .iter()
                                .filter(|&&(mm, _, _)| mm == m)
                                .map(|&(_, _, c)| c)
                                .sum(),
                        ),
                    )
                })
                .collect::<Vec<_>>()
                .into_iter()
                .fold(Vec::new(), |mut acc, q| {
                    if !acc
                        .iter()
                        .any(|x: &PartitionRequirement| x.partition == q.partition)
                    {
                        acc.push(q);
                    }
                    acc
                }),
            entries
                .iter()
                .map(|&(m, o, c)| TimeWindow::new(PartitionId(m), Ticks(o), Ticks(c)))
                .collect(),
        )
    }

    #[test]
    fn disjoint_partitions_across_cores_are_fine() {
        let mc = MulticoreSchedule::new(vec![
            table(0, 100, &[(0, 0, 50), (1, 50, 50)]),
            table(1, 100, &[(2, 0, 60), (3, 60, 40)]),
        ]);
        let report = mc.verify(&[]);
        assert!(report.is_ok(), "{report:?}");
        assert_eq!(mc.hyperperiod(), Ticks(100));
    }

    #[test]
    fn double_scheduling_is_caught() {
        // Partition 0 on both cores with overlapping windows [0,50)∩[40,90).
        let mc = MulticoreSchedule::new(vec![
            table(0, 100, &[(0, 0, 50)]),
            table(1, 100, &[(0, 40, 50)]),
        ]);
        let report = mc.verify(&[]);
        assert!(!report.is_ok());
        assert_eq!(report.parallelism.len(), 1);
        let v = &report.parallelism[0];
        assert_eq!(v.partition, PartitionId(0));
        assert_eq!(v.at, Ticks(40), "earliest overlap instant");
    }

    #[test]
    fn migration_without_overlap_is_fine() {
        // Partition 0 migrates: core 0 in [0,50), core 1 in [50,100).
        let mc = MulticoreSchedule::new(vec![
            table(0, 100, &[(0, 0, 50)]),
            table(1, 100, &[(0, 50, 50)]),
        ]);
        assert!(mc.verify(&[]).is_ok());
    }

    #[test]
    fn parallel_capable_partitions_are_exempt() {
        let mc = MulticoreSchedule::new(vec![
            table(0, 100, &[(0, 0, 50)]),
            table(1, 100, &[(0, 40, 50)]),
        ])
        .with_parallel_capable(PartitionId(0));
        assert!(mc.verify(&[]).is_ok());
    }

    #[test]
    fn different_mtfs_verified_over_the_hyperperiod() {
        // Core 0: MTF 60, partition 0 in [0,30). Core 1: MTF 40,
        // partition 0 in [20,40). First overlap: t=80..?
        // core0 pattern: active on t mod 60 < 30; core1: t mod 40 >= 20.
        // t=20: c0 active (20<30), c1 active (20>=20) → overlap at 20.
        let mc = MulticoreSchedule::new(vec![
            table(0, 60, &[(0, 0, 30)]),
            table(1, 40, &[(0, 20, 20)]),
        ]);
        assert_eq!(mc.hyperperiod(), Ticks(120));
        let report = mc.verify(&[]);
        assert_eq!(report.parallelism.len(), 1);
        assert_eq!(report.parallelism[0].at, Ticks(20));
    }

    #[test]
    fn per_core_condition_failures_still_reported() {
        // Core 1's table is invalid (window beyond MTF).
        let bad = Schedule::new(
            ScheduleId(1),
            "bad",
            Ticks(100),
            vec![PartitionRequirement::new(
                PartitionId(1),
                Ticks(100),
                Ticks(50),
            )],
            vec![TimeWindow::new(PartitionId(1), Ticks(80), Ticks(50))],
        );
        let mc = MulticoreSchedule::new(vec![table(0, 100, &[(0, 0, 50)]), bad]);
        let report = mc.verify(&[]);
        assert!(!report.is_ok());
        assert!(report.per_core[0].is_ok());
        assert!(!report.per_core[1].is_ok());
    }

    #[test]
    fn utilization_averages_cores() {
        let mc = MulticoreSchedule::new(vec![
            table(0, 100, &[(0, 0, 100)]), // fully packed
            table(1, 100, &[(1, 0, 50)]),  // half packed
        ]);
        assert!((mc.utilization() - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn empty_core_set_rejected() {
        let _ = MulticoreSchedule::new(vec![]);
    }
}
