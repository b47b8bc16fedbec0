//! Process-level schedulability analysis under partition supply — the
//! "deeper studies on schedulability analysis for TSP systems" the paper
//! calls for (Sect. 8, future work item (i)).
//!
//! The two-level scheme makes process schedulability a *hierarchical*
//! problem: a process only executes when (a) its partition holds a window
//! and (b) no higher-priority process of the same partition is ready.
//! The analysis composes:
//!
//! * the partition's **worst-case supply bound function** `sbf(Δ)` — the
//!   least execution time the scheduling table guarantees the partition in
//!   *any* interval of length Δ. The table is cyclic, so the supply is the
//!   partition's window intervals within one MTF with prefix sums, and the
//!   minimum over start phases is exact at the window ends alone (the
//!   periodic-resource argument of Shin & Lee);
//! * the classic fixed-priority **demand** of a process and its
//!   higher-priority interferers, `dem_i(Δ) = C_i + Σ_{j∈hp(i)} ⌈Δ/T_j⌉·C_j`
//!   (the ARINC 653-mandated preemptive priority policy, Eq. 14).
//!
//! The worst-case response time of process `i` is the least Δ with
//! `sbf(Δ) ≥ dem_i(Δ)`, found as the fixed point of `R ← sbf⁻¹(dem_i(R))`;
//! the process is schedulable iff that Δ exists and does not exceed `D_i`.
//! Nothing here is per tick: the cost depends on the windows and the
//! processes, not on the MTF or the tick unit.
//!
//! This is a *sufficient* test (it assumes worst-case alignment of
//! releases against the emptiest window pattern), matching the
//! compositional analyses the paper cites (Easwaran et al.; Mok & Feng)
//! while honouring the ARINC priority policy they deviate from.

use air_model::process::ProcessAttributes;
use air_model::time::gcd;
use air_model::{PartitionId, Schedule, Ticks};

/// Verdict for one process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessVerdict {
    /// The process name (from its attributes).
    pub name: String,
    /// The computed worst-case response time, if the analysis converged
    /// within its horizon.
    pub wcrt: Option<Ticks>,
    /// Whether `wcrt ≤ D` (always `false` when `wcrt` is `None` and the
    /// process has a finite deadline).
    pub schedulable: bool,
}

/// The analysis result for a partition's task set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisResult {
    /// The analysed partition.
    pub partition: PartitionId,
    /// Per-process verdicts, in input order.
    pub processes: Vec<ProcessVerdict>,
}

impl AnalysisResult {
    /// Whether every process with a finite deadline is schedulable.
    pub fn all_schedulable(&self) -> bool {
        self.processes.iter().all(|p| p.schedulable)
    }
}

/// Errors from the analysis inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AnalysisError {
    /// A process lacks a WCET (`C` is "essential for further scheduling
    /// analyses", Sect. 3.3).
    MissingWcet {
        /// The process without a WCET.
        name: String,
    },
    /// A process with a finite deadline is not periodic/sporadic — no
    /// interference bound exists for it.
    Unbounded {
        /// The offending process.
        name: String,
    },
    /// The partition has no windows in the schedule: nothing can run.
    NoSupply,
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisError::MissingWcet { name } => {
                write!(f, "process '{name}' has no WCET (C) configured")
            }
            AnalysisError::Unbounded { name } => write!(
                f,
                "process '{name}' has a deadline but no bounded inter-arrival time"
            ),
            AnalysisError::NoSupply => f.write_str("the partition has no windows in this schedule"),
        }
    }
}

impl std::error::Error for AnalysisError {}

/// The cyclic supply pattern of a partition: the MTF-relative intervals
/// where it holds the processor, with prefix sums, so every query costs
/// O(log windows) whatever the MTF.
#[derive(Debug, Clone)]
pub struct SupplyPattern {
    mtf: u64,
    per_mtf: u64,
    /// Disjoint supply intervals inside `[0, MTF)`, sorted, as `(start,
    /// end, supply in [0, start))`.
    intervals: Vec<(u64, u64, u64)>,
}

impl SupplyPattern {
    /// Extracts `partition`'s supply pattern from `schedule`: its share
    /// of [`Schedule::effective_windows`], the instants the dispatcher
    /// actually gives it.
    pub fn of(schedule: &Schedule, partition: PartitionId) -> Self {
        let (mut intervals, mut per_mtf) = (Vec::new(), 0);
        for (p, start, end) in schedule.effective_windows() {
            if p == partition {
                intervals.push((start.as_u64(), end.as_u64(), per_mtf));
                per_mtf += (end - start).as_u64();
            }
        }
        Self {
            mtf: schedule.mtf().as_u64(),
            per_mtf,
            intervals,
        }
    }

    /// Supply granted in `[0, t)`, `t ≤ MTF`.
    fn supplied_by(&self, t: u64) -> u64 {
        let i = self.intervals.partition_point(|&(start, ..)| start < t);
        i.checked_sub(1).map_or(0, |j| {
            let (start, end, before) = self.intervals[j];
            before + (t.min(end) - start)
        })
    }

    /// Supply granted in `[start_phase, start_phase + len)`,
    /// `start_phase < MTF`.
    pub fn supply(&self, start_phase: u64, len: u64) -> u64 {
        let Some(whole) = len.checked_div(self.mtf) else {
            return 0;
        };
        let (rem, to_mtf_end) = (len % self.mtf, self.mtf - start_phase);
        let from = self.supplied_by(start_phase);
        let part = if rem <= to_mtf_end {
            self.supplied_by(start_phase + rem) - from
        } else {
            self.per_mtf - from + self.supplied_by(rem - to_mtf_end)
        };
        whole * self.per_mtf + part
    }

    /// The least `len` with `supply(start_phase, len) ≥ amount`, or `None`
    /// when no `len` within `u64` reaches it.
    fn time_to_supply(&self, start_phase: u64, amount: u64) -> Option<u64> {
        if amount == 0 {
            return Some(0);
        }
        // The target on the supply axis from the MTF origin: whole MTFs,
        // then the interval where the rest is reached.
        let target = u128::from(amount) + u128::from(self.supplied_by(start_phase));
        let whole = (target - 1).checked_div(u128::from(self.per_mtf))?;
        let rest = u64::try_from(target - whole * u128::from(self.per_mtf)).ok()?;
        let j = self
            .intervals
            .partition_point(|&(.., before)| before < rest);
        let (start, _, before) = self.intervals[j.checked_sub(1)?];
        let end = whole.checked_mul(u128::from(self.mtf))? + u128::from(start + (rest - before));
        u64::try_from(end - u128::from(start_phase)).ok()
    }

    /// The start phases the bound minimises over. Under arbitrary phasing
    /// these are the window ends: a phase inside a window slides right to
    /// its end, a phase in a gap slides left to the previous end, and
    /// neither slide gains supply in any interval length.
    fn phases(&self, phasing: Phasing) -> Vec<u64> {
        let ends = self.intervals.iter().map(|&(_, end, _)| end % self.mtf);
        match phasing {
            Phasing::Arbitrary if !self.intervals.is_empty() => ends.collect(),
            Phasing::Arbitrary | Phasing::MtfLocked => vec![0],
        }
    }

    /// One hyperperiod of the MTF and the interferers' `(T, C)`, when it
    /// fits `u64` and they demand at least the whole supply in it: then
    /// demand minus supply never shrinks from one hyperperiod to the
    /// next, so a response not found within one is never found.
    fn saturated_within(&self, interferers: &[(u64, u64)]) -> Option<u64> {
        let l = interferers.iter().try_fold(self.mtf, |l, &(t, _)| {
            (l / gcd(l, t.max(1))).checked_mul(t.max(1))
        })?;
        let demand = interferers.iter().try_fold(0u128, |d, &(t, c)| {
            d.checked_add(u128::from(l / t.max(1)) * u128::from(c))
        });
        let supply = u128::from(l / self.mtf) * u128::from(self.per_mtf);
        demand.is_none_or(|d| d >= supply).then_some(l)
    }

    /// The worst-case supply bound function: the least supply in any
    /// interval of length `delta`, over every start phase.
    pub fn sbf(&self, delta: u64) -> u64 {
        self.phases(Phasing::Arbitrary)
            .into_iter()
            .map(|phase| self.supply(phase, delta))
            .min()
            .unwrap_or(0)
    }

    /// The MTF this pattern repeats over.
    pub fn mtf(&self) -> u64 {
        self.mtf
    }

    /// Supply per whole MTF.
    pub fn per_mtf(&self) -> u64 {
        self.per_mtf
    }
}

/// Analyses `processes` of `partition` under `schedule`.
///
/// Processes without a finite deadline are reported schedulable by
/// definition (Eq. 24's guard: deadline violation does not apply); they
/// still interfere with lower-priority processes if periodic with a WCET.
///
/// # Errors
///
/// [`AnalysisError`] when a deadline-bearing process lacks a WCET or a
/// bounded inter-arrival time, or the partition has no supply at all.
///
/// # Examples
///
/// ```
/// use air_model::process::{Deadline, Priority, ProcessAttributes, Recurrence};
/// use air_model::prototype::{fig8_chi1, P1};
/// use air_model::Ticks;
/// use air_tools::schedulability::analyze_partition;
///
/// let processes = vec![
///     ProcessAttributes::new("ctl")
///         .with_recurrence(Recurrence::Periodic(Ticks(1300)))
///         .with_deadline(Deadline::relative(Ticks(1300)))
///         .with_base_priority(Priority(1))
///         .with_wcet(Ticks(100)),
/// ];
/// let result = analyze_partition(&fig8_chi1(), P1, &processes)?;
/// assert!(result.all_schedulable());
/// # Ok::<(), air_tools::schedulability::AnalysisError>(())
/// ```
pub fn analyze_partition(
    schedule: &Schedule,
    partition: PartitionId,
    processes: &[ProcessAttributes],
) -> Result<AnalysisResult, AnalysisError> {
    analyze_partition_with_phasing(schedule, partition, processes, Phasing::Arbitrary)
}

/// Release phasing assumption of the analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phasing {
    /// Releases may fall anywhere relative to the MTF: the supply bound is
    /// the worst over all phases (safe for sporadic processes).
    Arbitrary,
    /// Releases align with the MTF origin (the prototype's pattern: every
    /// period is a multiple of the partition cycle and processes are
    /// started at an MTF boundary) — tighter, exact for that pattern.
    MtfLocked,
}

/// As [`analyze_partition`], under an explicit [`Phasing`] assumption.
///
/// # Errors
///
/// As [`analyze_partition`].
pub fn analyze_partition_with_phasing(
    schedule: &Schedule,
    partition: PartitionId,
    processes: &[ProcessAttributes],
    phasing: Phasing,
) -> Result<AnalysisResult, AnalysisError> {
    if schedule.mtf().is_zero() || schedule.windows_for(partition).next().is_none() {
        return Err(AnalysisError::NoSupply);
    }
    // Analysis horizon: the largest deadline plus one MTF of slack (a
    // response beyond its deadline is a failure regardless of exact value).
    let max_deadline = processes
        .iter()
        .filter_map(|p| p.deadline().capacity())
        .map(Ticks::as_u64)
        .max()
        .unwrap_or(0);
    let horizon = max_deadline.saturating_add(schedule.mtf().as_u64());
    let pattern = SupplyPattern::of(schedule, partition);
    let phases = pattern.phases(phasing);
    // sbf⁻¹: the least Δ whose bound reaches `amount` is the latest of the
    // phases' own (the bound is their minimum).
    let sbf_inverse = |amount: u64| {
        phases.iter().try_fold(0, |latest: u64, &phase| {
            Some(latest.max(pattern.time_to_supply(phase, amount)?))
        })
    };

    let mut verdicts = Vec::with_capacity(processes.len());
    for p in processes {
        let name = p.name().to_owned();
        let Some(deadline) = p.deadline().capacity() else {
            verdicts.push(ProcessVerdict {
                name,
                wcrt: None,
                schedulable: true,
            });
            continue;
        };
        let Some(c) = p.wcet() else {
            return Err(AnalysisError::MissingWcet { name });
        };
        if p.recurrence().min_interarrival().is_none() {
            return Err(AnalysisError::Unbounded { name });
        }
        // Higher-priority interferers (strictly more urgent; equal
        // priority is FIFO and, worst case, ahead in the queue — count
        // one activation of each equal-priority peer as blocking).
        let interferers: Vec<(u64, u64)> = processes
            .iter()
            .filter(|j| j.name() != p.name() && j.base_priority() <= p.base_priority())
            .filter_map(|j| {
                Some((
                    j.recurrence().min_interarrival()?.as_u64(),
                    j.wcet()?.as_u64(),
                ))
            })
            .collect();
        // `None` once the demand leaves `u64`, where no supply reaches.
        let demand = |delta: u64| {
            interferers.iter().try_fold(c.as_u64(), |d, &(t, cj)| {
                d.checked_add(delta.div_ceil(t.max(1)).checked_mul(cj)?)
            })
        };
        let horizon = pattern
            .saturated_within(&interferers)
            .map_or(horizon, |l| horizon.min(l));
        // The least Δ ≥ 1 with sbf(Δ) ≥ dem(Δ), as the fixed point of
        // R ← sbf⁻¹(dem(R)) from R = 1 (the horizon is at least one MTF):
        // each step stays at or below the answer and moves until the supply
        // meets the demand.
        let mut r = 1;
        let wcrt = loop {
            match demand(r).and_then(sbf_inverse) {
                Some(next) if next <= r => break Some(r),
                Some(next) if next <= horizon => r = next,
                _ => break None,
            }
        };
        verdicts.push(ProcessVerdict {
            name,
            wcrt: wcrt.map(Ticks),
            schedulable: wcrt.is_some_and(|r| r <= deadline.as_u64()),
        });
    }
    Ok(AnalysisResult {
        partition,
        processes: verdicts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use air_model::process::{Deadline, Priority, Recurrence};
    use air_model::prototype::{fig8_chi1, P1, P2};
    use air_model::schedule::{PartitionRequirement, TimeWindow};
    use air_model::testkit::TestRng;
    use air_model::ScheduleId;

    fn attrs(name: &str, t: u64, d: u64, prio: u8, c: u64) -> ProcessAttributes {
        ProcessAttributes::new(name)
            .with_recurrence(Recurrence::Periodic(Ticks(t)))
            .with_deadline(Deadline::relative(Ticks(d)))
            .with_base_priority(Priority(prio))
            .with_wcet(Ticks(c))
    }

    #[test]
    fn sbf_of_a_single_window() {
        // Window [0, 40) in MTF 100: the worst Δ-interval starts at 40.
        let s = Schedule::new(
            ScheduleId(0),
            "w",
            Ticks(100),
            vec![PartitionRequirement::new(P1, Ticks(100), Ticks(40))],
            vec![TimeWindow::new(P1, Ticks(0), Ticks(40))],
        );
        let pattern = SupplyPattern::of(&s, P1);
        let sbf: Vec<u64> = (0..=200).map(|delta| pattern.sbf(delta)).collect();
        assert_eq!(sbf[0], 0);
        assert_eq!(sbf[60], 0, "a 60-interval can miss the window entirely");
        assert_eq!(sbf[61], 1, "61 starting at 40 reaches tick 100");
        assert_eq!(sbf[100], 40, "one full MTF always supplies 40");
        assert_eq!(sbf[160], 40, "the worst 160-interval spans one window");
        assert_eq!(sbf[200], 80);
        // Monotone non-decreasing.
        for w in sbf.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn sbf_of_fig8_p2_split_windows() {
        // P2's χ1 supply: [200,300) and [1000,1100) per 1300. The longest
        // supply-free gap is [300, 1000): 700 ticks.
        let pattern = SupplyPattern::of(&fig8_chi1(), P2);
        assert_eq!(pattern.sbf(1300), 200);
        assert_eq!(pattern.sbf(700), 0);
        assert_eq!(pattern.sbf(701), 1);
    }

    #[test]
    fn prototype_p1_under_both_phasing_assumptions() {
        let processes = vec![
            attrs("aocs-control", 1300, 1300, 1, 100),
            attrs("aocs-faulty", 1300, 650, 5, 20),
        ];
        // Arbitrary phasing: safe but pessimistic — a release just after
        // P1's single window closes waits almost a whole MTF, so the
        // faulty process's 650 deadline is conservatively rejected.
        let result = analyze_partition(&fig8_chi1(), P1, &processes).unwrap();
        assert!(result.processes[0].schedulable, "{result:?}");
        assert!(!result.processes[1].schedulable, "{result:?}");
        assert!(result.processes[1].wcrt.unwrap() > Ticks(650));
        // MTF-locked phasing (the prototype's actual pattern: releases at
        // MTF boundaries, inside the window): both fit comfortably —
        // control responds in 100, faulty right behind it in 120.
        let locked =
            analyze_partition_with_phasing(&fig8_chi1(), P1, &processes, Phasing::MtfLocked)
                .unwrap();
        assert!(locked.all_schedulable(), "{locked:?}");
        assert_eq!(locked.processes[0].wcrt, Some(Ticks(100)));
        assert_eq!(locked.processes[1].wcrt, Some(Ticks(120)));
    }

    #[test]
    fn overload_is_caught() {
        // 120 ticks of demand per 200-tick window per MTF is fine; with a
        // deadline tighter than the supply pattern allows it is not.
        let processes = vec![attrs("tight", 1300, 90, 1, 100)];
        let result = analyze_partition(&fig8_chi1(), P1, &processes).unwrap();
        assert!(!result.all_schedulable());
        // WCRT exists (the work completes) but exceeds the deadline.
        let v = &result.processes[0];
        assert!(v.wcrt.is_some());
        assert!(v.wcrt.unwrap() > Ticks(90));
    }

    #[test]
    fn demand_beyond_supply_never_converges() {
        // More demand per MTF than the partition's whole supply: no WCRT.
        let processes = vec![attrs("impossible", 200, 200, 1, 250)];
        let result = analyze_partition(&fig8_chi1(), P1, &processes).unwrap();
        assert_eq!(result.processes[0].wcrt, None);
        assert!(!result.all_schedulable());
    }

    #[test]
    fn interference_ordering_matters() {
        // Low-priority victim under a heavy high-priority interferer.
        let processes = vec![attrs("hp", 650, 650, 1, 80), attrs("lp", 1300, 300, 9, 50)];
        let result = analyze_partition(&fig8_chi1(), P1, &processes).unwrap();
        let lp = &result.processes[1];
        // lp needs 50 after hp's 80 → 130 of P1 supply; P1's window is
        // [0,200), but worst-case release right after the window makes the
        // response exceed 300.
        assert!(!lp.schedulable, "{result:?}");
    }

    #[test]
    fn saturating_interference_ends_the_search_after_one_hyperperiod() {
        // P1 holds the whole MTF and "hp" takes all of it: "lp" never
        // runs, and under a u64::MAX deadline only the hyperperiod bound
        // ends the search.
        let s = Schedule::new(
            ScheduleId(0),
            "full",
            Ticks(100),
            vec![],
            vec![TimeWindow::new(P1, Ticks(0), Ticks(100))],
        );
        let processes = vec![
            attrs("hp", 100, 100, 1, 100),
            attrs("lp", 100, u64::MAX, 2, 1),
        ];
        for phasing in [Phasing::Arbitrary, Phasing::MtfLocked] {
            let result = analyze_partition_with_phasing(&s, P1, &processes, phasing).unwrap();
            assert_eq!(result.processes[0].wcrt, Some(Ticks(100)));
            assert_eq!(result.processes[1].wcrt, None);
        }
    }

    #[test]
    fn u64_extremes_are_answered_without_overflow() {
        // Two windows cover a u64::MAX MTF but for a 5-tick gap: "big"
        // needs exactly one MTF of supply, and "small" behind it would
        // need a response past u64.
        let max = u64::MAX;
        let s = Schedule::new(
            ScheduleId(0),
            "huge",
            Ticks(max),
            vec![],
            vec![
                TimeWindow::new(P1, Ticks(0), Ticks(max / 2)),
                TimeWindow::new(P1, Ticks(max / 2 + 5), Ticks(max - (max / 2 + 5))),
            ],
        );
        let pattern = SupplyPattern::of(&s, P1);
        assert_eq!(pattern.per_mtf(), max - 5);
        assert_eq!(pattern.sbf(max), max - 5);
        assert_eq!(pattern.supply(max / 2, max), max - 5);
        let processes = vec![
            attrs("big", max, max, 1, max - 5),
            attrs("small", max, max, 2, 1),
        ];
        for phasing in [Phasing::Arbitrary, Phasing::MtfLocked] {
            let result = analyze_partition_with_phasing(&s, P1, &processes, phasing).unwrap();
            assert_eq!(result.processes[0].wcrt, Some(Ticks(max)), "{phasing:?}");
            assert_eq!(result.processes[1].wcrt, None, "{phasing:?}");
        }
    }

    #[test]
    fn deadline_free_processes_are_trivially_schedulable() {
        let processes = vec![ProcessAttributes::new("background")];
        let result = analyze_partition(&fig8_chi1(), P1, &processes).unwrap();
        assert!(result.all_schedulable());
        assert_eq!(result.processes[0].wcrt, None);
    }

    #[test]
    fn input_validation() {
        let no_wcet = vec![ProcessAttributes::new("x")
            .with_recurrence(Recurrence::Periodic(Ticks(100)))
            .with_deadline(Deadline::relative(Ticks(100)))];
        assert!(matches!(
            analyze_partition(&fig8_chi1(), P1, &no_wcet),
            Err(AnalysisError::MissingWcet { .. })
        ));
        let aperiodic = vec![ProcessAttributes::new("x")
            .with_deadline(Deadline::relative(Ticks(100)))
            .with_wcet(Ticks(10))];
        assert!(matches!(
            analyze_partition(&fig8_chi1(), P1, &aperiodic),
            Err(AnalysisError::Unbounded { .. })
        ));
        assert!(matches!(
            analyze_partition(&fig8_chi1(), air_model::PartitionId(9), &[]),
            Err(AnalysisError::NoSupply)
        ));
    }

    #[test]
    fn analysis_is_safe_against_simulation() {
        // Safety direction: when the (phase-locked) analysis declares the
        // prototype's P1 set schedulable, the simulation observes no miss
        // over a long run; the phase-free analysis may only be *more*
        // conservative, never less.
        use air_core::prototype::PrototypeHarness;
        let processes = vec![
            attrs("aocs-control", 1300, 1300, 1, 100),
            attrs("aocs-faulty", 1300, 650, 5, 20),
        ];
        let locked =
            analyze_partition_with_phasing(&fig8_chi1(), P1, &processes, Phasing::MtfLocked)
                .unwrap();
        assert!(locked.all_schedulable());
        let mut proto = PrototypeHarness::build();
        proto.system.run_for(20 * 1300);
        assert_eq!(proto.system.trace().deadline_miss_count(), 0);
        // Conservatism ordering: arbitrary-phasing WCRTs dominate locked.
        let free = analyze_partition(&fig8_chi1(), P1, &processes).unwrap();
        for (l, f) in locked.processes.iter().zip(free.processes.iter()) {
            if let (Some(lw), Some(fw)) = (l.wcrt, f.wcrt) {
                assert!(fw >= lw, "{lw} vs {fw}");
            }
        }
    }

    /// The per-tick analysis the interval representation replaced: one
    /// availability entry per tick of the MTF, `sbf` as a vector over
    /// every Δ up to the horizon, and a linear scan for the WCRT.
    mod per_tick {
        use super::*;

        /// Per-MTF supply and prefix sums of the per-tick availability
        /// over two MTFs.
        fn prefix(schedule: &Schedule, partition: PartitionId) -> (u64, Vec<u64>) {
            let mtf = schedule.mtf().as_u64();
            let pattern: Vec<u64> = (0..mtf)
                .map(|t| u64::from(schedule.partition_active_at(Ticks(t)) == Some(partition)))
                .collect();
            let mut prefix = vec![0u64];
            for v in pattern.iter().chain(&pattern) {
                prefix.push(prefix[prefix.len() - 1] + v);
            }
            (prefix[mtf as usize], prefix)
        }

        fn supply(mtf: u64, per_mtf: u64, prefix: &[u64], phase: u64, len: u64) -> u64 {
            let (p, rem) = (phase as usize, (len % mtf) as usize);
            len / mtf * per_mtf + prefix[p + rem] - prefix[p]
        }

        pub(super) fn sbf(schedule: &Schedule, partition: PartitionId, horizon: u64) -> Vec<u64> {
            let mtf = schedule.mtf().as_u64();
            let (per_mtf, prefix) = prefix(schedule, partition);
            (0..=horizon)
                .map(|delta| {
                    (0..mtf)
                        .map(|phase| supply(mtf, per_mtf, &prefix, phase, delta))
                        .min()
                        .unwrap_or(0)
                })
                .collect()
        }

        pub(super) fn analyze(
            schedule: &Schedule,
            partition: PartitionId,
            processes: &[ProcessAttributes],
            phasing: Phasing,
        ) -> Vec<ProcessVerdict> {
            let mtf = schedule.mtf().as_u64();
            let max_deadline = processes
                .iter()
                .filter_map(|p| p.deadline().capacity())
                .map(Ticks::as_u64)
                .max()
                .unwrap_or(0);
            let horizon = max_deadline + mtf;
            let sbf: Vec<u64> = match phasing {
                Phasing::Arbitrary => sbf(schedule, partition, horizon),
                Phasing::MtfLocked => {
                    let (per_mtf, prefix) = prefix(schedule, partition);
                    (0..=horizon)
                        .map(|delta| supply(mtf, per_mtf, &prefix, 0, delta))
                        .collect()
                }
            };
            processes
                .iter()
                .map(|p| {
                    let Some(deadline) = p.deadline().capacity() else {
                        return ProcessVerdict {
                            name: p.name().to_owned(),
                            wcrt: None,
                            schedulable: true,
                        };
                    };
                    let c = p.wcet().unwrap().as_u64();
                    let demand = |delta: u64| -> u64 {
                        processes
                            .iter()
                            .filter(|j| {
                                j.name() != p.name() && j.base_priority() <= p.base_priority()
                            })
                            .map(|j| {
                                let t = j.recurrence().min_interarrival().unwrap().as_u64();
                                delta.div_ceil(t.max(1)) * j.wcet().unwrap().as_u64()
                            })
                            .sum::<u64>()
                            + c
                    };
                    let wcrt = (1..=horizon).find(|&delta| sbf[delta as usize] >= demand(delta));
                    ProcessVerdict {
                        name: p.name().to_owned(),
                        wcrt: wcrt.map(Ticks),
                        schedulable: wcrt.is_some_and(|r| r <= deadline.as_u64()),
                    }
                })
                .collect()
        }
    }

    /// A random table of 1–5 windows (of P1 and P2, sometimes overlapping
    /// or running past the MTF) and 1–4 P1 processes, every time value
    /// multiplied by `scale`.
    fn random_case(rng: &mut TestRng, scale: u64) -> (Schedule, Vec<ProcessAttributes>) {
        let mtf = rng.range(1, 401);
        let windows = (0..rng.range(1, 6))
            .map(|_| {
                let partition = if rng.chance(2, 3) { P1 } else { P2 };
                let offset = rng.below(mtf);
                let overrun = rng.below(2) * mtf / 4;
                let duration = rng.range(1, mtf - offset + 1 + overrun);
                TimeWindow::new(partition, Ticks(offset * scale), Ticks(duration * scale))
            })
            .collect();
        let schedule = Schedule::new(ScheduleId(0), "r", Ticks(mtf * scale), vec![], windows);
        let processes = (0..rng.range(1, 5))
            .map(|i| {
                let t = rng.range(1, 2 * mtf + 1);
                let wcet = if rng.chance(1, 5) {
                    0
                } else {
                    rng.range(1, t.min(mtf) + 1)
                };
                ProcessAttributes::new(format!("p{i}"))
                    .with_recurrence(if rng.chance(1, 2) {
                        Recurrence::Periodic(Ticks(t * scale))
                    } else {
                        Recurrence::Sporadic(Ticks(t * scale))
                    })
                    .with_deadline(Deadline::relative(Ticks(rng.range(1, 2 * mtf + 1) * scale)))
                    .with_base_priority(Priority(rng.range(1, 4) as u8))
                    .with_wcet(Ticks(wcet * scale))
            })
            .collect();
        (schedule, processes)
    }

    #[test]
    fn interval_analysis_matches_the_per_tick_oracle() {
        const SCALE: u64 = 1_000_003;
        for seed in 1..=300 {
            let (schedule, processes) = random_case(&mut TestRng::new(seed), 1);
            let mtf = schedule.mtf().as_u64();
            let pattern = SupplyPattern::of(&schedule, P1);
            let oracle = per_tick::sbf(&schedule, P1, 2 * mtf);
            for (delta, &expected) in (0u64..).zip(&oracle) {
                assert_eq!(pattern.sbf(delta), expected, "seed {seed}: sbf({delta})");
            }
            let (scaled, scaled_processes) = random_case(&mut TestRng::new(seed), SCALE);
            for phasing in [Phasing::Arbitrary, Phasing::MtfLocked] {
                let ours = analyze_partition_with_phasing(&schedule, P1, &processes, phasing);
                let Ok(ours) = ours else {
                    assert_eq!(ours, Err(AnalysisError::NoSupply), "seed {seed}");
                    continue;
                };
                let expected = per_tick::analyze(&schedule, P1, &processes, phasing);
                assert_eq!(ours.processes, expected, "seed {seed} {phasing:?}");
                // A process without any demand responds at the one-tick
                // floor on every scale.
                let idle = |p: &ProcessAttributes| {
                    processes
                        .iter()
                        .filter(|j| j.name() == p.name() || j.base_priority() <= p.base_priority())
                        .all(|j| j.wcet() == Some(Ticks::ZERO))
                };
                let scaled =
                    analyze_partition_with_phasing(&scaled, P1, &scaled_processes, phasing)
                        .unwrap();
                for ((p, v), s) in processes.iter().zip(&expected).zip(&scaled.processes) {
                    let wcrt = match v.wcrt {
                        Some(_) if idle(p) => Some(Ticks(1)),
                        wcrt => wcrt.map(|r| Ticks(r.as_u64() * SCALE)),
                    };
                    assert_eq!(s.wcrt, wcrt, "seed {seed} {phasing:?} {}", p.name());
                    assert_eq!(s.schedulable, v.schedulable, "seed {seed}");
                }
            }
        }
    }
}
