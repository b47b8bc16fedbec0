//! Partition scheduling tables: Eq. (4)–(5) and their mode-based
//! generalisation Eq. (17)–(20).
//!
//! Partitions are scheduled on a fixed cyclic basis over a **major time
//! frame** (MTF). With mode-based schedules (Sect. 4) the system holds a
//! *set* of partition scheduling tables
//! `χ = {χ_1 … χ_{n(χ)}}` (Eq. 17), each
//! `χ_i = ⟨MTF_i, Q_i, ω_i⟩` (Eq. 18) carrying:
//!
//! * `Q_i` — per-schedule partition timing requirements
//!   `Q_{i,m} = ⟨P, η, d⟩` (Eq. 19): which partitions participate, their
//!   activation cycle `η` and assigned duration `d` per cycle;
//! * `ω_i` — the time windows `ω_{i,j} = ⟨P, O, c⟩` (Eq. 20): partition,
//!   offset from the MTF start, and duration.
//!
//! A single statically-scheduled system is the special case `n(χ) = 1`.

use std::collections::BTreeMap;
use std::fmt;

use crate::ids::{PartitionId, ScheduleId};
use crate::time::Ticks;

/// A time window `ω_{i,j} = ⟨P^ω_{i,j}, O_{i,j}, c_{i,j}⟩` (Eq. 20).
///
/// The window grants the CPU to `partition` during
/// `[offset, offset + duration)` relative to the start of each MTF.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimeWindow {
    /// The partition active during this window (`P^ω_{i,j}`).
    pub partition: PartitionId,
    /// Offset `O_{i,j}` relative to the beginning of the major time frame.
    pub offset: Ticks,
    /// Duration `c_{i,j}` of the window.
    pub duration: Ticks,
}

impl TimeWindow {
    /// Creates a window assigning `[offset, offset+duration)` to `partition`.
    pub const fn new(partition: PartitionId, offset: Ticks, duration: Ticks) -> Self {
        Self {
            partition,
            offset,
            duration,
        }
    }

    /// The first instant after the window: `O + c`.
    #[inline]
    pub fn end(&self) -> Ticks {
        self.offset + self.duration
    }

    /// Whether the MTF-relative instant `t` falls inside the window.
    #[inline]
    pub fn contains(&self, t: Ticks) -> bool {
        self.offset <= t && t < self.end()
    }
}

impl fmt::Display for TimeWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "<{}, {}, {}>",
            self.partition, self.offset.0, self.duration.0
        )
    }
}

/// Per-schedule timing requirement `Q_{i,m} = ⟨P^χ_{i,m}, η_{i,m}, d_{i,m}⟩`
/// (Eq. 19): partition `P` must receive duration `d` within every activation
/// cycle `η` under schedule `χ_i`.
///
/// Partitions without strict time requirements (e.g. those running
/// non-real-time operating systems) have `d = 0` (Sect. 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PartitionRequirement {
    /// The partition this requirement applies to.
    pub partition: PartitionId,
    /// Activation cycle `η_{i,m}`.
    pub cycle: Ticks,
    /// Assigned duration `d_{i,m}` per cycle.
    pub duration: Ticks,
}

impl PartitionRequirement {
    /// Creates a requirement: `partition` needs `duration` per `cycle`.
    pub const fn new(partition: PartitionId, cycle: Ticks, duration: Ticks) -> Self {
        Self {
            partition,
            cycle,
            duration,
        }
    }
}

impl fmt::Display for PartitionRequirement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "<{}, eta={}, d={}>",
            self.partition, self.cycle.0, self.duration.0
        )
    }
}

/// Restart action applied to a partition when the module switches to a
/// schedule (Sect. 4: `ScheduleChangeAction`), performed the first time the
/// partition is dispatched after the switch (Sect. 4.3, Algorithm 2 line 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ScheduleChangeAction {
    /// No restart occurs; the partition continues where it was.
    #[default]
    None,
    /// The partition is restarted from a preserved context.
    WarmRestart,
    /// The partition is restarted from scratch.
    ColdRestart,
    /// The partition is stopped (set idle) under the new schedule.
    Stop,
}

impl fmt::Display for ScheduleChangeAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ScheduleChangeAction::None => "none",
            ScheduleChangeAction::WarmRestart => "warm restart",
            ScheduleChangeAction::ColdRestart => "cold restart",
            ScheduleChangeAction::Stop => "stop",
        };
        f.write_str(s)
    }
}

/// A partition scheduling table `χ_i = ⟨MTF_i, Q_i, ω_i⟩` (Eq. 18).
///
/// Construct one with [`Schedule::new`] and validate it with
/// [`crate::verify::verify_schedule`]; the [`crate::verify`] module keeps
/// construction and validation separate so that *invalid* integrator
/// configurations can be represented, inspected and reported on.
///
/// # Examples
///
/// ```
/// use air_model::{Schedule, ScheduleId, PartitionId, PartitionRequirement,
///                 TimeWindow, Ticks};
///
/// let p0 = PartitionId(0);
/// let chi = Schedule::new(
///     ScheduleId(0),
///     "ops",
///     Ticks(100),
///     vec![PartitionRequirement::new(p0, Ticks(100), Ticks(40))],
///     vec![TimeWindow::new(p0, Ticks(0), Ticks(40))],
/// );
/// assert_eq!(chi.partition_active_at(Ticks(39)), Some(p0));
/// assert_eq!(chi.partition_active_at(Ticks(40)), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    id: ScheduleId,
    name: String,
    /// The major time frame `MTF_i`.
    mtf: Ticks,
    /// Per-partition requirements `Q_i`, ordered by partition id.
    requirements: Vec<PartitionRequirement>,
    /// Time windows `ω_i`, ordered by offset.
    windows: Vec<TimeWindow>,
    /// Per-partition actions applied when switching *to* this schedule.
    change_actions: BTreeMap<PartitionId, ScheduleChangeAction>,
}

impl Schedule {
    /// Creates a scheduling table. Windows are sorted by offset and
    /// requirements by partition id; no validity conditions are enforced
    /// here (see [`crate::verify`]).
    pub fn new(
        id: ScheduleId,
        name: impl Into<String>,
        mtf: Ticks,
        requirements: Vec<PartitionRequirement>,
        windows: Vec<TimeWindow>,
    ) -> Self {
        let mut requirements = requirements;
        requirements.sort_by_key(|q| q.partition);
        let mut windows = windows;
        windows.sort_by_key(|w| w.offset);
        Self {
            id,
            name: name.into(),
            mtf,
            requirements,
            windows,
            change_actions: BTreeMap::new(),
        }
    }

    /// Sets the restart action applied to `partition` when the module
    /// switches to this schedule.
    #[must_use]
    pub fn with_change_action(
        mut self,
        partition: PartitionId,
        action: ScheduleChangeAction,
    ) -> Self {
        self.change_actions.insert(partition, action);
        self
    }

    /// This schedule's identifier.
    pub fn id(&self) -> ScheduleId {
        self.id
    }

    /// The schedule's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The major time frame `MTF_i`.
    pub fn mtf(&self) -> Ticks {
        self.mtf
    }

    /// The per-partition timing requirements `Q_i`, sorted by partition.
    pub fn requirements(&self) -> &[PartitionRequirement] {
        &self.requirements
    }

    /// The time windows `ω_i`, sorted by offset.
    pub fn windows(&self) -> &[TimeWindow] {
        &self.windows
    }

    /// The requirement for `partition`, if it participates in this schedule.
    pub fn requirement_for(&self, partition: PartitionId) -> Option<&PartitionRequirement> {
        self.requirements.iter().find(|q| q.partition == partition)
    }

    /// The restart action applied to `partition` on switching to this
    /// schedule ([`ScheduleChangeAction::None`] when not configured).
    pub fn change_action_for(&self, partition: PartitionId) -> ScheduleChangeAction {
        self.change_actions
            .get(&partition)
            .copied()
            .unwrap_or_default()
    }

    /// Iterates over the explicitly-configured schedule-change actions,
    /// for integration-time inspection (static analysis of mode graphs).
    pub fn change_actions(&self) -> impl Iterator<Item = (PartitionId, ScheduleChangeAction)> + '_ {
        self.change_actions.iter().map(|(p, a)| (*p, *a))
    }

    /// Iterates over the partitions with at least one requirement entry.
    pub fn partitions(&self) -> impl Iterator<Item = PartitionId> + '_ {
        self.requirements.iter().map(|q| q.partition)
    }

    /// The windows assigned to `partition`, in offset order.
    pub fn windows_for(&self, partition: PartitionId) -> impl Iterator<Item = &TimeWindow> + '_ {
        self.windows
            .iter()
            .filter(move |w| w.partition == partition)
    }

    /// The partition scheduled at MTF-relative instant `t`, or `None` if `t`
    /// falls in a gap between windows (the processor idles).
    ///
    /// This is the model-side oracle the runtime partition scheduler is
    /// checked against.
    ///
    /// # Panics
    ///
    /// Panics if `t >= MTF` — callers must reduce absolute time modulo the
    /// MTF first (`t % mtf`), which is what Algorithm 1 does with
    /// `(ticks - lastScheduleSwitch) mod MTF`.
    pub fn partition_active_at(&self, t: Ticks) -> Option<PartitionId> {
        assert!(
            t < self.mtf,
            "instant {t} outside the MTF {}; reduce modulo the MTF first",
            self.mtf
        );
        // A linear scan with early exit is fine for the table sizes of
        // real systems (tens of windows).
        self.effective_windows()
            .take_while(|&(_, start, _)| start <= t)
            .find(|&(_, _, end)| t < end)
            .map(|(partition, ..)| partition)
    }

    /// The instants each window actually holds the processor, in offset
    /// order, as `(partition, start, end)` with `start < end ≤ MTF`. This
    /// is the one home of the overlap rule: an instant belongs to the
    /// first window (in offset order) that covers it, and window time past
    /// the MTF is dropped. The intervals are disjoint and ascending.
    pub fn effective_windows(&self) -> impl Iterator<Item = (PartitionId, Ticks, Ticks)> + '_ {
        let mut covered = Ticks::ZERO;
        self.windows.iter().filter_map(move |w| {
            let start = w.offset.max(covered);
            let end = Ticks(w.offset.0.saturating_add(w.duration.0)).min(self.mtf);
            covered = covered.max(end);
            (start < end).then_some((w.partition, start, end))
        })
    }

    /// The **partition preemption points** of this table: the sorted set of
    /// MTF-relative instants where the active partition may change — each
    /// window's start and end (deduplicated, end-of-MTF folded to 0).
    ///
    /// Algorithm 1's scheduling table is exactly this sequence; the
    /// scheduler only does work when `(ticks - lastSwitch) mod MTF` hits one
    /// of these points (Sect. 4.3).
    pub fn preemption_points(&self) -> Vec<PreemptionPoint> {
        let mut points: BTreeMap<Ticks, Option<PartitionId>> = BTreeMap::new();
        // End of each window: processor idles unless another window starts.
        for w in &self.windows {
            let end = w.end() % self.mtf;
            points.entry(end).or_insert(None);
        }
        // Start of each window: that partition becomes the heir.
        for w in &self.windows {
            points.insert(w.offset, Some(w.partition));
        }
        points
            .into_iter()
            .map(|(tick, heir)| PreemptionPoint { tick, heir })
            .collect()
    }

    /// Total window time granted to `partition` across the whole MTF
    /// (the left side of Eq. 8).
    pub fn total_assigned(&self, partition: PartitionId) -> Ticks {
        self.windows_for(partition).map(|w| w.duration).sum()
    }

    /// Window time granted to `partition` within its `k`-th cycle,
    /// `[k·η, (k+1)·η)` — the left side of Eq. (23). Windows are attributed
    /// to the cycle containing their **offset**, as the paper's summation
    /// condition `O_{i,j} ∈ [kη; (k+1)η[` prescribes.
    pub fn assigned_in_cycle(&self, partition: PartitionId, cycle: Ticks, k: u64) -> Ticks {
        self.assigned_per_cycle(partition, cycle)
            .find(|&(j, _)| j == k)
            .map_or(Ticks::ZERO, |(_, assigned)| assigned)
    }

    /// Window time granted to `partition` per cycle of length `cycle`, as
    /// `(k, assigned)` in ascending `k`, for the cycles at least one of its
    /// windows starts in (every other cycle gets nothing). A window counts
    /// toward the cycle containing its offset, as in
    /// [`Self::assigned_in_cycle`]; sums saturate. Nothing for a zero cycle.
    pub fn assigned_per_cycle(
        &self,
        partition: PartitionId,
        cycle: Ticks,
    ) -> impl Iterator<Item = (u64, Ticks)> + '_ {
        let mut windows = self
            .windows_for(partition)
            .filter_map(move |w| Some((w.offset.0.checked_div(cycle.0)?, w.duration)))
            .peekable();
        std::iter::from_fn(move || {
            let (k, mut assigned) = windows.next()?;
            while let Some((_, d)) = windows.next_if(|&(j, _)| j == k) {
                assigned = Ticks(assigned.0.saturating_add(d.0));
            }
            Some((k, assigned))
        })
    }

    /// Processor utilisation of the table: fraction of the MTF covered by
    /// windows, in `[0, 1]` for a valid table.
    pub fn utilization(&self) -> f64 {
        let used: Ticks = self.windows.iter().map(|w| w.duration).sum();
        used.as_u64() as f64 / self.mtf.as_u64() as f64
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} '{}': MTF={}, {} windows, {} partitions",
            self.id,
            self.name,
            self.mtf,
            self.windows.len(),
            self.requirements.len()
        )
    }
}

/// One entry of the preemption-point table derived from a [`Schedule`]:
/// at MTF-relative `tick`, `heir` becomes active (`None` = idle gap).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreemptionPoint {
    /// MTF-relative instant of the preemption point.
    pub tick: Ticks,
    /// The partition taking over, or `None` for an idle gap.
    pub heir: Option<PartitionId>,
}

/// The set of partition scheduling tables `χ` available in the system
/// (Eq. 17), indexed by [`ScheduleId`].
///
/// The initial schedule (the one in force at system initialisation) is the
/// first one added; `n(χ) = 1` recovers the original statically-scheduled
/// AIR system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleSet {
    schedules: Vec<Schedule>,
}

/// Why a [`ScheduleSet`] could not be formed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScheduleSetError {
    /// No scheduling table was supplied (a system holds at least one).
    Empty,
    /// Two tables share the same [`ScheduleId`].
    DuplicateId(ScheduleId),
}

impl core::fmt::Display for ScheduleSetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ScheduleSetError::Empty => {
                f.write_str("a system holds at least one partition scheduling table")
            }
            ScheduleSetError::DuplicateId(id) => write!(f, "duplicate schedule id {id}"),
        }
    }
}

impl std::error::Error for ScheduleSetError {}

impl ScheduleSet {
    /// Creates a schedule set from the given tables.
    ///
    /// # Panics
    ///
    /// Panics if `schedules` is empty or if two tables share an id —
    /// misconfigurations that cannot be represented meaningfully. Use
    /// [`ScheduleSet::try_new`] to surface these as diagnosable errors
    /// instead.
    pub fn new(schedules: Vec<Schedule>) -> Self {
        match Self::try_new(schedules) {
            Ok(set) => set,
            Err(e) => panic!("{e}"),
        }
    }

    /// Creates a schedule set, reporting degenerate inputs as errors
    /// instead of panicking (for integration tools and static analysis).
    ///
    /// # Errors
    ///
    /// [`ScheduleSetError`] when `schedules` is empty or two tables share
    /// an id.
    pub fn try_new(schedules: Vec<Schedule>) -> Result<Self, ScheduleSetError> {
        if schedules.is_empty() {
            return Err(ScheduleSetError::Empty);
        }
        for (i, s) in schedules.iter().enumerate() {
            if schedules[i + 1..].iter().any(|other| s.id() == other.id()) {
                return Err(ScheduleSetError::DuplicateId(s.id()));
            }
        }
        Ok(Self { schedules })
    }

    /// Number of schedules `n(χ)`.
    pub fn len(&self) -> usize {
        self.schedules.len()
    }

    /// Whether the set is empty (never true for a constructed set).
    pub fn is_empty(&self) -> bool {
        self.schedules.is_empty()
    }

    /// The schedule in force at system initialisation.
    pub fn initial(&self) -> &Schedule {
        &self.schedules[0]
    }

    /// Looks up a schedule by id.
    pub fn get(&self, id: ScheduleId) -> Option<&Schedule> {
        self.schedules.iter().find(|s| s.id() == id)
    }

    /// Iterates over the schedules in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Schedule> {
        self.schedules.iter()
    }

    /// All partitions that participate in at least one schedule.
    pub fn all_partitions(&self) -> Vec<PartitionId> {
        let mut ids: Vec<PartitionId> =
            self.schedules.iter().flat_map(|s| s.partitions()).collect();
        ids.sort();
        ids.dedup();
        ids
    }
}

impl<'a> IntoIterator for &'a ScheduleSet {
    type Item = &'a Schedule;
    type IntoIter = std::slice::Iter<'a, Schedule>;

    fn into_iter(self) -> Self::IntoIter {
        self.schedules.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_partition_table() -> Schedule {
        let p0 = PartitionId(0);
        let p1 = PartitionId(1);
        Schedule::new(
            ScheduleId(0),
            "test",
            Ticks(100),
            vec![
                PartitionRequirement::new(p0, Ticks(50), Ticks(20)),
                PartitionRequirement::new(p1, Ticks(100), Ticks(30)),
            ],
            vec![
                TimeWindow::new(p0, Ticks(0), Ticks(20)),
                TimeWindow::new(p1, Ticks(20), Ticks(30)),
                TimeWindow::new(p0, Ticks(50), Ticks(20)),
            ],
        )
    }

    #[test]
    fn window_contains_and_end() {
        let w = TimeWindow::new(PartitionId(0), Ticks(10), Ticks(5));
        assert_eq!(w.end(), Ticks(15));
        assert!(!w.contains(Ticks(9)));
        assert!(w.contains(Ticks(10)));
        assert!(w.contains(Ticks(14)));
        assert!(!w.contains(Ticks(15)));
    }

    #[test]
    fn active_partition_lookup() {
        let s = two_partition_table();
        assert_eq!(s.partition_active_at(Ticks(0)), Some(PartitionId(0)));
        assert_eq!(s.partition_active_at(Ticks(19)), Some(PartitionId(0)));
        assert_eq!(s.partition_active_at(Ticks(20)), Some(PartitionId(1)));
        assert_eq!(s.partition_active_at(Ticks(49)), Some(PartitionId(1)));
        assert_eq!(s.partition_active_at(Ticks(50)), Some(PartitionId(0)));
        // Gap [70, 100): idle.
        assert_eq!(s.partition_active_at(Ticks(70)), None);
        assert_eq!(s.partition_active_at(Ticks(99)), None);
    }

    #[test]
    fn effective_windows_resolve_overlaps_first_window_wins() {
        // Seeded tables with overlapping and past-MTF windows: every instant
        // lies in exactly the effective interval of the first window (in
        // offset order) that contains it, and in none when no window does.
        let mut rng = crate::testkit::TestRng::new(23);
        for _ in 0..200 {
            let mtf = rng.range(1, 60);
            let windows: Vec<TimeWindow> = (0..rng.range(1, 6))
                .map(|_| {
                    let p = PartitionId(rng.below(3) as u32);
                    TimeWindow::new(p, Ticks(rng.below(mtf + 5)), Ticks(rng.below(30)))
                })
                .collect();
            let s = Schedule::new(ScheduleId(0), "overlap", Ticks(mtf), vec![], windows);
            let effective: Vec<_> = s.effective_windows().collect();
            assert!(
                effective.windows(2).all(|w| w[0].2 <= w[1].1),
                "{effective:?}"
            );
            for t in (0..mtf).map(Ticks) {
                let first = s
                    .windows()
                    .iter()
                    .find(|w| w.contains(t))
                    .map(|w| w.partition);
                let owners: Vec<_> = effective
                    .iter()
                    .filter(|&&(_, start, end)| start <= t && t < end)
                    .map(|&(p, ..)| p)
                    .collect();
                assert_eq!(
                    owners,
                    first.into_iter().collect::<Vec<_>>(),
                    "t={t} in {s:?}"
                );
                assert_eq!(s.partition_active_at(t), first);
            }
        }
    }

    #[test]
    fn assigned_per_cycle_groups_windows_by_offset() {
        let p0 = PartitionId(0);
        let s = Schedule::new(
            ScheduleId(0),
            "cycles",
            Ticks(200),
            vec![],
            vec![
                TimeWindow::new(p0, Ticks(10), Ticks(5)),
                TimeWindow::new(p0, Ticks(40), Ticks(20)),
                TimeWindow::new(PartitionId(1), Ticks(60), Ticks(10)),
                TimeWindow::new(p0, Ticks(160), Ticks(7)),
            ],
        );
        let per_cycle: Vec<_> = s.assigned_per_cycle(p0, Ticks(50)).collect();
        assert_eq!(per_cycle, vec![(0, Ticks(25)), (3, Ticks(7))]);
        assert_eq!(s.assigned_in_cycle(p0, Ticks(50), 1), Ticks::ZERO);
        assert_eq!(s.assigned_per_cycle(p0, Ticks::ZERO).count(), 0);
    }

    #[test]
    #[should_panic(expected = "outside the MTF")]
    fn active_partition_beyond_mtf_panics() {
        let s = two_partition_table();
        let _ = s.partition_active_at(Ticks(100));
    }

    #[test]
    fn windows_are_sorted_on_construction() {
        let p0 = PartitionId(0);
        let s = Schedule::new(
            ScheduleId(0),
            "unsorted",
            Ticks(100),
            vec![],
            vec![
                TimeWindow::new(p0, Ticks(60), Ticks(10)),
                TimeWindow::new(p0, Ticks(0), Ticks(10)),
            ],
        );
        assert_eq!(s.windows()[0].offset, Ticks(0));
        assert_eq!(s.windows()[1].offset, Ticks(60));
    }

    #[test]
    fn preemption_points_cover_starts_and_gap_ends() {
        let s = two_partition_table();
        let pts = s.preemption_points();
        let as_pairs: Vec<(u64, Option<u32>)> = pts
            .iter()
            .map(|p| (p.tick.as_u64(), p.heir.map(|h| h.as_u32())))
            .collect();
        assert_eq!(
            as_pairs,
            vec![
                (0, Some(0)),
                (20, Some(1)),
                (50, Some(0)),
                (70, None), // gap until end of MTF
            ]
        );
    }

    #[test]
    fn budgets_per_cycle() {
        let s = two_partition_table();
        let p0 = PartitionId(0);
        assert_eq!(s.total_assigned(p0), Ticks(40));
        assert_eq!(s.assigned_in_cycle(p0, Ticks(50), 0), Ticks(20));
        assert_eq!(s.assigned_in_cycle(p0, Ticks(50), 1), Ticks(20));
        assert_eq!(s.total_assigned(PartitionId(1)), Ticks(30));
        assert!((s.utilization() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn change_actions_default_to_none() {
        let s = two_partition_table()
            .with_change_action(PartitionId(1), ScheduleChangeAction::WarmRestart);
        assert_eq!(
            s.change_action_for(PartitionId(0)),
            ScheduleChangeAction::None
        );
        assert_eq!(
            s.change_action_for(PartitionId(1)),
            ScheduleChangeAction::WarmRestart
        );
    }

    #[test]
    fn schedule_set_lookup() {
        let s0 = two_partition_table();
        let mut s1 = two_partition_table();
        s1.id = ScheduleId(1);
        let set = ScheduleSet::new(vec![s0, s1]);
        assert_eq!(set.len(), 2);
        assert_eq!(set.initial().id(), ScheduleId(0));
        assert!(set.get(ScheduleId(1)).is_some());
        assert!(set.get(ScheduleId(7)).is_none());
        assert_eq!(set.all_partitions(), vec![PartitionId(0), PartitionId(1)]);
    }

    #[test]
    #[should_panic(expected = "duplicate schedule id")]
    fn duplicate_ids_rejected() {
        let _ = ScheduleSet::new(vec![two_partition_table(), two_partition_table()]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_set_rejected() {
        let _ = ScheduleSet::new(vec![]);
    }
}
