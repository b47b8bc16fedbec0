//! Verification of integrator-defined system parameters: the conditions of
//! Eq. (6)/(21), Eq. (7)/(22) and Eq. (8)–(9)/(23).
//!
//! "Temporal analysis in TSP systems has not been addressed in the
//! literature to the full extent needed to aid design, integration and
//! deployment" (Sect. 1) — the formal model "allows for the verification of
//! the integrator-defined system parameters, such as partition scheduling
//! according to the respective temporal requirements". This module is that
//! verifier: it takes scheduling tables as configured and returns either a
//! clean bill of health or a precise, per-condition list of
//! [`Violation`]s.
//!
//! Three families of conditions are checked per schedule `χ_i`:
//!
//! 1. **Window well-formedness** (Eq. 21): windows do not intersect —
//!    `O_{i,j} + c_{i,j} ≤ O_{i,j+1}` — and are fully contained in one MTF —
//!    `O_{i,n} + c_{i,n} ≤ MTF_i`.
//! 2. **MTF/lcm relation** (Eq. 22): `MTF_i = k · lcm(η)` for a natural `k`
//!    — necessary but not sufficient for system-wide schedulability.
//! 3. **Per-cycle duration** (Eq. 23): every partition receives its
//!    assigned duration `d` within **each** of its `MTF/η` cycles, not
//!    merely on average over the MTF (which would be the weaker Eq. 8).
//!
//! A brute-force re-check ([`verify_schedule_brute_force`]) validates the
//! analytic conditions tick-by-tick; the property-test suite keeps the two
//! in agreement.
//!
//! The campaigns' robustness and reliability findings land in the same
//! [`Report`]; [`check_exactly_once`] is the delivery oracle the link
//! and mesh campaigns share.

use std::fmt;

use crate::ids::{PartitionId, ScheduleId};
use crate::partition::Partition;
use crate::schedule::{Schedule, ScheduleSet};
use crate::time::{gcd, Ticks};

/// One violated verification condition, pinpointing schedule, partition and
/// the numbers involved so integration tooling can render actionable
/// reports.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Violation {
    /// The MTF is zero — no schedule can repeat over it.
    ZeroMtf {
        /// Offending schedule.
        schedule: ScheduleId,
    },
    /// A window has zero duration; such windows cannot grant time and are
    /// almost certainly configuration mistakes.
    ZeroWindowDuration {
        /// Offending schedule.
        schedule: ScheduleId,
        /// Index of the window within the table.
        window_index: usize,
    },
    /// Two consecutive windows overlap: Eq. (21) first clause violated.
    WindowsOverlap {
        /// Offending schedule.
        schedule: ScheduleId,
        /// Index of the first of the overlapping pair.
        first_index: usize,
        /// End of the first window.
        first_end: Ticks,
        /// Offset of the second window, strictly before `first_end`.
        second_offset: Ticks,
    },
    /// The last window runs past the MTF: Eq. (21) second clause violated.
    WindowBeyondMtf {
        /// Offending schedule.
        schedule: ScheduleId,
        /// Index of the offending window.
        window_index: usize,
        /// End of the offending window.
        window_end: Ticks,
        /// The schedule's MTF.
        mtf: Ticks,
    },
    /// A window names a partition with no requirement entry in `Q_i`
    /// (Eq. 20 demands `P^ω_{i,j} ∈ Q_i`).
    WindowForUnknownPartition {
        /// Offending schedule.
        schedule: ScheduleId,
        /// Index of the offending window.
        window_index: usize,
        /// The partition the window names.
        partition: PartitionId,
    },
    /// A requirement entry's partition is not in the system partition set.
    RequirementForUnknownPartition {
        /// Offending schedule.
        schedule: ScheduleId,
        /// The unknown partition.
        partition: PartitionId,
    },
    /// A partition has a requirement with `d > 0` but no window at all;
    /// Eq. (23) is then violated for every cycle — reported once, distinctly,
    /// for clearer diagnostics.
    PartitionWithoutWindows {
        /// Offending schedule.
        schedule: ScheduleId,
        /// The partition lacking windows.
        partition: PartitionId,
    },
    /// A partition's cycle is zero while its duration is positive.
    ZeroCycle {
        /// Offending schedule.
        schedule: ScheduleId,
        /// The partition with the degenerate cycle.
        partition: PartitionId,
    },
    /// A partition's cycle does not divide the MTF; its cycles would not
    /// align with MTF repetitions and Eq. (23)'s cycle enumeration breaks.
    CycleDoesNotDivideMtf {
        /// Offending schedule.
        schedule: ScheduleId,
        /// The partition with the misaligned cycle.
        partition: PartitionId,
        /// The partition's cycle `η`.
        cycle: Ticks,
        /// The schedule's MTF.
        mtf: Ticks,
    },
    /// Eq. (22) violated: the MTF is not a natural multiple of the lcm of
    /// all partition cycles.
    MtfNotMultipleOfLcm {
        /// Offending schedule.
        schedule: ScheduleId,
        /// lcm of all participating partitions' cycles.
        lcm: Ticks,
        /// The schedule's MTF.
        mtf: Ticks,
    },
    /// Eq. (23) violated: within cycle `k`, the first short one,
    /// `partition` receives `assigned < required`.
    InsufficientDurationInCycle {
        /// Offending schedule.
        schedule: ScheduleId,
        /// The under-served partition.
        partition: PartitionId,
        /// The first short cycle's index `k ∈ [0, MTF/η)`.
        cycle_index: u64,
        /// Window time attributed to that cycle.
        assigned: Ticks,
        /// Required duration `d`.
        required: Ticks,
        /// How many cycles of the MTF fall short, this one included.
        short_cycles: u64,
    },
    /// Robustness: an injected fault never surfaced as a health-monitor
    /// event — detection coverage is broken (Sect. 2.4's claim is that
    /// every such event is "detected and handled").
    FaultUndetected {
        /// Injection instant.
        at: Ticks,
        /// Human-readable fault description (class and target).
        fault: String,
    },
    /// Robustness: a health-monitor event matched no injected fault —
    /// either a false positive or a real fault the campaign did not plan.
    SpuriousDetection {
        /// Detection instant.
        at: Ticks,
        /// The unexplained health-monitor entry.
        detail: String,
    },
    /// Robustness: one injected fault produced more than one
    /// health-monitor decision ("exactly one" is the campaign invariant).
    DuplicateDetection {
        /// Injection instant of the over-reported fault.
        at: Ticks,
        /// Human-readable fault description.
        fault: String,
        /// How many health-monitor events matched it.
        count: u64,
    },
    /// Robustness: a fault aimed at one partition perturbed the behaviour
    /// of another — the partitioning (temporal or spatial) leaked.
    IsolationBreach {
        /// The partition that should have been unaffected.
        partition: PartitionId,
        /// What diverged from the clean run.
        detail: String,
    },
    /// Robustness: a log-N-then-act recovery action escalated at the wrong
    /// occurrence count.
    EscalationMiscount {
        /// What fired when, versus what was configured.
        detail: String,
    },
    /// Reliability: a queuing-port message offered to the reliable
    /// transport was never delivered — the ARQ no-loss guarantee broke.
    MessageLost {
        /// Sender-side message index (0-based) that never arrived.
        seq: u64,
    },
    /// Reliability: a queuing-port message was delivered more than once —
    /// duplicate suppression broke.
    DuplicateDelivery {
        /// Sender-side message index delivered repeatedly.
        seq: u64,
    },
    /// Reliability: messages arrived out of order despite the in-order
    /// delivery guarantee.
    OutOfOrderDelivery {
        /// The message index expected next.
        expected: u64,
        /// The message index actually observed.
        got: u64,
    },
    /// Reliability: packets exhausted their hop budget under dynamic
    /// rerouting — either the loop-freedom argument of the live routing
    /// tables failed, or the topology's worst-case detour exceeds the
    /// TTL (the condition AIR102 warns about statically).
    RoutingLoop {
        /// How many TTL-expiry drops the run recorded.
        drops: u64,
    },
    /// Reliability: the ground node closed a campaign without a complete
    /// verification-report round trip at one stage.
    IncompleteAckRoundTrip {
        /// The verification stage (acceptance/start/completion).
        stage: &'static str,
        /// Reports received at the ground node.
        got: u64,
        /// Reports expected (the closed command budget).
        expected: u64,
    },
    /// Reliability: a sampling-port reading exceeded its staleness budget
    /// (refresh period plus the ARQ worst-case delay).
    StaleSample {
        /// Observation instant.
        at: Ticks,
        /// Observed age of the sample.
        age: Ticks,
        /// The configured staleness bound.
        bound: Ticks,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::ZeroMtf { schedule } => {
                write!(f, "{schedule}: MTF is zero")
            }
            Violation::ZeroWindowDuration {
                schedule,
                window_index,
            } => write!(f, "{schedule}: window #{window_index} has zero duration"),
            Violation::WindowsOverlap {
                schedule,
                first_index,
                first_end,
                second_offset,
            } => write!(
                f,
                "{schedule}: window #{first_index} ends at {first_end} after the next window starts at {second_offset} (Eq. 21)"
            ),
            Violation::WindowBeyondMtf {
                schedule,
                window_index,
                window_end,
                mtf,
            } => write!(
                f,
                "{schedule}: window #{window_index} ends at {window_end}, beyond the MTF {mtf} (Eq. 21)"
            ),
            Violation::WindowForUnknownPartition {
                schedule,
                window_index,
                partition,
            } => write!(
                f,
                "{schedule}: window #{window_index} names {partition} which has no requirement entry (Eq. 20)"
            ),
            Violation::RequirementForUnknownPartition {
                schedule,
                partition,
            } => write!(
                f,
                "{schedule}: requirement names {partition} which is not a configured partition"
            ),
            Violation::PartitionWithoutWindows {
                schedule,
                partition,
            } => write!(
                f,
                "{schedule}: {partition} requires time but has no windows"
            ),
            Violation::ZeroCycle {
                schedule,
                partition,
            } => write!(
                f,
                "{schedule}: {partition} has a zero activation cycle with positive duration"
            ),
            Violation::CycleDoesNotDivideMtf {
                schedule,
                partition,
                cycle,
                mtf,
            } => write!(
                f,
                "{schedule}: cycle {cycle} of {partition} does not divide the MTF {mtf}"
            ),
            Violation::MtfNotMultipleOfLcm { schedule, lcm, mtf } => write!(
                f,
                "{schedule}: MTF {mtf} is not a natural multiple of lcm(cycles) = {lcm} (Eq. 22)"
            ),
            Violation::InsufficientDurationInCycle {
                schedule,
                partition,
                cycle_index,
                assigned,
                required,
                short_cycles,
            } => {
                write!(
                    f,
                    "{schedule}: {partition} gets {assigned} in cycle {cycle_index}, needs {required} (Eq. 23)"
                )?;
                if *short_cycles > 1 {
                    write!(f, "; {short_cycles} cycles fall short")?;
                }
                Ok(())
            }
            Violation::FaultUndetected { at, fault } => {
                write!(f, "fault injected at {at} never detected: {fault}")
            }
            Violation::SpuriousDetection { at, detail } => {
                write!(f, "health-monitor event at {at} matches no injected fault: {detail}")
            }
            Violation::DuplicateDetection { at, fault, count } => write!(
                f,
                "fault injected at {at} detected {count} times (expected exactly one): {fault}"
            ),
            Violation::IsolationBreach { partition, detail } => {
                write!(f, "isolation breach: {partition} perturbed by a foreign fault: {detail}")
            }
            Violation::EscalationMiscount { detail } => {
                write!(f, "log-N-then-act escalation miscount: {detail}")
            }
            Violation::MessageLost { seq } => {
                write!(f, "reliable transport lost message #{seq}")
            }
            Violation::DuplicateDelivery { seq } => {
                write!(f, "reliable transport delivered message #{seq} more than once")
            }
            Violation::OutOfOrderDelivery { expected, got } => write!(
                f,
                "reliable transport delivered message #{got} while #{expected} was expected"
            ),
            Violation::RoutingLoop { drops } => write!(
                f,
                "dynamic rerouting exhausted the hop budget of {drops} packet(s)"
            ),
            Violation::IncompleteAckRoundTrip {
                stage,
                got,
                expected,
            } => write!(
                f,
                "verification {stage} round trip incomplete: {got}/{expected} reports reached the ground node"
            ),
            Violation::StaleSample { at, age, bound } => write!(
                f,
                "sampling reading at {at} is {age} old, beyond the staleness bound {bound}"
            ),
        }
    }
}

/// The outcome of verifying one or more scheduling tables.
///
/// `Report::is_ok()` means every checked condition holds; otherwise
/// [`Report::violations`] lists every failure found (verification does not
/// stop at the first problem — integration reports need the full picture).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Report {
    violations: Vec<Violation>,
}

impl Report {
    /// A report with no violations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether all verified conditions hold.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// The violations found, in discovery order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Merges another report's findings into this one, dropping violations
    /// already present.
    ///
    /// Deduplication matters when the same schedule is verified along
    /// several analysis paths (per-schedule lint plus every route the mode
    /// explorer reaches it by): identical findings must not inflate the
    /// count.
    pub fn merge(&mut self, other: Report) {
        for v in other.violations {
            if !self.violations.contains(&v) {
                self.violations.push(v);
            }
        }
    }

    /// Records an externally discovered violation — the entry point for
    /// checkers living outside this module (e.g. the fault-injection
    /// campaign's robustness invariants), so their findings flow into the
    /// same report type integration tooling already consumes.
    pub fn record(&mut self, v: Violation) {
        self.violations.push(v);
    }

    fn push(&mut self, v: Violation) {
        self.violations.push(v);
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_ok() {
            return f.write_str("all verification conditions hold");
        }
        writeln!(f, "{} violation(s):", self.violations.len())?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

/// The exactly-once delivery oracle of the reliable-transport campaigns.
///
/// Walks `delivered`, the sender-side sequence numbers in arrival order,
/// against a closed budget of sequence numbers `0..budget`:
///
/// * a seq at or past the budget is a [`Violation::SpuriousDetection`];
/// * a repeat of an earlier arrival is a [`Violation::DuplicateDelivery`];
/// * with `in_order`, a first arrival other than the successor of the
///   previous first arrival is a [`Violation::OutOfOrderDelivery`];
/// * a seq that never arrived is a [`Violation::MessageLost`], unless
///   `excused(seq)` holds.
pub fn check_exactly_once(
    delivered: impl IntoIterator<Item = u64>,
    budget: u64,
    in_order: bool,
    excused: impl Fn(u64) -> bool,
    report: &mut Report,
) {
    let mut seen = vec![0u64; budget as usize];
    let mut next_expected = 0u64;
    for seq in delivered {
        if seq >= budget {
            report.record(Violation::SpuriousDetection {
                at: Ticks::ZERO,
                detail: format!("delivered seq {seq} beyond the budget of {budget}"),
            });
            continue;
        }
        seen[seq as usize] += 1;
        if seen[seq as usize] > 1 {
            report.record(Violation::DuplicateDelivery { seq });
            continue;
        }
        if in_order && seq != next_expected {
            report.record(Violation::OutOfOrderDelivery {
                expected: next_expected,
                got: seq,
            });
        }
        next_expected = seq + 1;
    }
    for (seq, &count) in (0u64..).zip(&seen) {
        if count == 0 && !excused(seq) {
            report.record(Violation::MessageLost { seq });
        }
    }
}

/// Verifies one scheduling table against Eq. (21), (22) and (23).
///
/// `known_partitions` is the system partition set `P`; pass an empty slice
/// to skip the membership check (useful for standalone table analysis).
///
/// # Examples
///
/// ```
/// use air_model::prototype;
/// use air_model::verify::verify_schedule;
///
/// let sys = prototype::fig8_system();
/// let report = verify_schedule(sys.schedules.initial(), &sys.partitions);
/// assert!(report.is_ok());
/// ```
pub fn verify_schedule(schedule: &Schedule, known_partitions: &[Partition]) -> Report {
    let mut report = Report::new();
    let sid = schedule.id();
    let mtf = schedule.mtf();

    if mtf.is_zero() {
        report.push(Violation::ZeroMtf { schedule: sid });
        // Every other condition divides by or compares to the MTF.
        return report;
    }

    check_window_geometry(schedule, &mut report);
    check_partition_membership(schedule, known_partitions, &mut report);
    check_mtf_lcm(schedule, &mut report);
    check_per_cycle_durations(schedule, &mut report);

    report
}

/// Verifies every table in a schedule set; the per-schedule reports are
/// concatenated.
pub fn verify_schedule_set(set: &ScheduleSet, known_partitions: &[Partition]) -> Report {
    let mut report = Report::new();
    for schedule in set {
        report.merge(verify_schedule(schedule, known_partitions));
    }
    report
}

/// Window ordering, disjointness and MTF containment: Eq. (21).
fn check_window_geometry(schedule: &Schedule, report: &mut Report) {
    let sid = schedule.id();
    let windows = schedule.windows();
    for (j, w) in windows.iter().enumerate() {
        if w.duration.is_zero() {
            report.push(Violation::ZeroWindowDuration {
                schedule: sid,
                window_index: j,
            });
        }
        if w.end() > schedule.mtf() {
            report.push(Violation::WindowBeyondMtf {
                schedule: sid,
                window_index: j,
                window_end: w.end(),
                mtf: schedule.mtf(),
            });
        }
        if let Some(next) = windows.get(j + 1) {
            if w.end() > next.offset {
                report.push(Violation::WindowsOverlap {
                    schedule: sid,
                    first_index: j,
                    first_end: w.end(),
                    second_offset: next.offset,
                });
            }
        }
    }
}

/// Windows name partitions in `Q_i`; requirements name partitions in `P`.
fn check_partition_membership(
    schedule: &Schedule,
    known_partitions: &[Partition],
    report: &mut Report,
) {
    let sid = schedule.id();
    for (j, w) in schedule.windows().iter().enumerate() {
        if schedule.requirement_for(w.partition).is_none() {
            report.push(Violation::WindowForUnknownPartition {
                schedule: sid,
                window_index: j,
                partition: w.partition,
            });
        }
    }
    if !known_partitions.is_empty() {
        for q in schedule.requirements() {
            if !known_partitions.iter().any(|p| p.id() == q.partition) {
                report.push(Violation::RequirementForUnknownPartition {
                    schedule: sid,
                    partition: q.partition,
                });
            }
        }
    }
}

/// Eq. (22): `MTF_i = k_i × lcm over Q_i of η`, `k_i ∈ ℕ`.
fn check_mtf_lcm(schedule: &Schedule, report: &mut Report) {
    let sid = schedule.id();
    let cycles: Vec<Ticks> = schedule
        .requirements()
        .iter()
        .filter(|q| !q.duration.is_zero())
        .map(|q| q.cycle)
        .collect();
    if cycles.is_empty() {
        return; // no strict timing requirements constrain the MTF
    }
    if cycles.iter().any(|c| c.is_zero()) {
        // Reported per-partition by check_per_cycle_durations.
        return;
    }
    // An lcm past u64 exceeds the MTF: then some cycle does not divide
    // the MTF, and check_per_cycle_durations reports that cycle.
    let Some(l) = cycles
        .iter()
        .try_fold(1, |l, c| (l / gcd(l, c.as_u64())).checked_mul(c.as_u64()))
        .map(Ticks)
    else {
        return;
    };
    if !(schedule.mtf() % l).is_zero() {
        report.push(Violation::MtfNotMultipleOfLcm {
            schedule: sid,
            lcm: l,
            mtf: schedule.mtf(),
        });
    }
}

/// Eq. (23): for every participating partition and every cycle `k` within
/// the MTF, the windows whose offset falls in `[kη, (k+1)η)` sum to at
/// least `d`. A partition with short cycles gets one violation, naming the
/// first and counting all; the work is per window, not per cycle.
fn check_per_cycle_durations(schedule: &Schedule, report: &mut Report) {
    let sid = schedule.id();
    for q in schedule.requirements() {
        if q.duration.is_zero() {
            continue; // no strict requirement (e.g. non-real-time partition)
        }
        if q.cycle.is_zero() {
            report.push(Violation::ZeroCycle {
                schedule: sid,
                partition: q.partition,
            });
            continue;
        }
        if !(schedule.mtf() % q.cycle).is_zero() {
            report.push(Violation::CycleDoesNotDivideMtf {
                schedule: sid,
                partition: q.partition,
                cycle: q.cycle,
                mtf: schedule.mtf(),
            });
            continue;
        }
        if schedule.windows_for(q.partition).next().is_none() {
            report.push(Violation::PartitionWithoutWindows {
                schedule: sid,
                partition: q.partition,
            });
            continue;
        }
        // Only the cycles some window starts in get time; a gap before one
        // of them, or after the last, is a run of short cycles.
        let cycles_in_mtf = schedule.mtf() / q.cycle;
        let mut short_cycles = cycles_in_mtf;
        let mut first_short = None;
        let mut next = 0;
        for (k, got) in schedule
            .assigned_per_cycle(q.partition, q.cycle)
            .take_while(|&(k, _)| k < cycles_in_mtf)
        {
            if k > next {
                first_short = first_short.or(Some((next, Ticks::ZERO)));
            }
            if got < q.duration {
                first_short = first_short.or(Some((k, got)));
            } else {
                short_cycles -= 1;
            }
            next = k + 1;
        }
        if next < cycles_in_mtf {
            first_short = first_short.or(Some((next, Ticks::ZERO)));
        }
        if let Some((cycle_index, assigned)) = first_short {
            report.push(Violation::InsufficientDurationInCycle {
                schedule: sid,
                partition: q.partition,
                cycle_index,
                assigned,
                required: q.duration,
                short_cycles,
            });
        }
    }
}

/// Brute-force duration check: simulates the table tick-by-tick over one
/// MTF and verifies that every partition with `d > 0` accumulates at least
/// `d` ticks in each of its cycles.
///
/// Quadratic in the MTF and only meant as an oracle for testing the
/// analytic verifier ([`verify_schedule`]); the two must agree on any table
/// whose windows are geometrically well-formed.
pub fn verify_schedule_brute_force(schedule: &Schedule) -> bool {
    let mtf = schedule.mtf();
    if mtf.is_zero() {
        return false;
    }
    for q in schedule.requirements() {
        if q.duration.is_zero() {
            continue;
        }
        if q.cycle.is_zero() || !(mtf % q.cycle).is_zero() {
            return false;
        }
        let cycles = mtf / q.cycle;
        for k in 0..cycles {
            let lo = (q.cycle * k).as_u64();
            let hi = (q.cycle * (k + 1)).as_u64();
            let mut got = 0u64;
            for t in lo..hi {
                if schedule.partition_active_at(Ticks(t)) == Some(q.partition) {
                    got += 1;
                }
            }
            // The analytic condition attributes whole windows to the cycle
            // containing their offset; for tables whose windows do not
            // straddle cycle boundaries (the well-formed case) both
            // computations coincide.
            if got < q.duration.as_u64() {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{PartitionId, ScheduleId};
    use crate::schedule::{PartitionRequirement, TimeWindow};

    fn p(m: u32) -> PartitionId {
        PartitionId(m)
    }

    fn schedule(mtf: u64, reqs: Vec<(u32, u64, u64)>, wins: Vec<(u32, u64, u64)>) -> Schedule {
        Schedule::new(
            ScheduleId(0),
            "t",
            Ticks(mtf),
            reqs.into_iter()
                .map(|(m, eta, d)| PartitionRequirement::new(p(m), Ticks(eta), Ticks(d)))
                .collect(),
            wins.into_iter()
                .map(|(m, o, c)| TimeWindow::new(p(m), Ticks(o), Ticks(c)))
                .collect(),
        )
    }

    #[test]
    fn valid_single_partition_schedule() {
        let s = schedule(100, vec![(0, 100, 40)], vec![(0, 0, 40)]);
        let r = verify_schedule(&s, &[]);
        assert!(r.is_ok(), "{r}");
        assert!(verify_schedule_brute_force(&s));
    }

    #[test]
    fn zero_mtf_detected() {
        let s = schedule(0, vec![], vec![]);
        let r = verify_schedule(&s, &[]);
        assert_eq!(r.violations().len(), 1);
        assert!(matches!(r.violations()[0], Violation::ZeroMtf { .. }));
        assert!(!verify_schedule_brute_force(&s));
    }

    #[test]
    fn overlap_detected() {
        let s = schedule(
            100,
            vec![(0, 100, 30), (1, 100, 30)],
            vec![(0, 0, 40), (1, 30, 30)],
        );
        let r = verify_schedule(&s, &[]);
        assert!(r
            .violations()
            .iter()
            .any(|v| matches!(v, Violation::WindowsOverlap { .. })));
    }

    #[test]
    fn window_beyond_mtf_detected() {
        let s = schedule(100, vec![(0, 100, 40)], vec![(0, 80, 40)]);
        let r = verify_schedule(&s, &[]);
        assert!(r
            .violations()
            .iter()
            .any(|v| matches!(v, Violation::WindowBeyondMtf { .. })));
    }

    #[test]
    fn zero_duration_window_detected() {
        let s = schedule(100, vec![(0, 100, 0)], vec![(0, 0, 0)]);
        let r = verify_schedule(&s, &[]);
        assert!(r
            .violations()
            .iter()
            .any(|v| matches!(v, Violation::ZeroWindowDuration { .. })));
    }

    #[test]
    fn window_for_partition_outside_q_detected() {
        // Window names partition 1 which has no requirement entry (Eq. 20).
        let s = schedule(100, vec![(0, 100, 10)], vec![(0, 0, 10), (1, 10, 10)]);
        let r = verify_schedule(&s, &[]);
        assert!(r.violations().iter().any(|v| matches!(
            v,
            Violation::WindowForUnknownPartition {
                partition: PartitionId(1),
                ..
            }
        )));
    }

    #[test]
    fn requirement_for_unconfigured_partition_detected() {
        let s = schedule(100, vec![(5, 100, 10)], vec![(5, 0, 10)]);
        let known = vec![Partition::new(p(0), "only-p0")];
        let r = verify_schedule(&s, &known);
        assert!(r.violations().iter().any(|v| matches!(
            v,
            Violation::RequirementForUnknownPartition {
                partition: PartitionId(5),
                ..
            }
        )));
    }

    #[test]
    fn mtf_lcm_condition_eq22() {
        // Cycles 40 and 60 → lcm 120; MTF 100 is not a multiple.
        let s = schedule(
            100,
            vec![(0, 40, 1), (1, 60, 1)],
            vec![(0, 0, 1), (1, 1, 1)],
        );
        let r = verify_schedule(&s, &[]);
        assert!(r
            .violations()
            .iter()
            .any(|v| matches!(v, Violation::MtfNotMultipleOfLcm { .. })));
    }

    #[test]
    fn mtf_may_be_k_times_lcm() {
        // lcm(50) = 50; MTF = 100 = 2×50 is acceptable (k=2 in Eq. 22).
        let s = schedule(100, vec![(0, 50, 10)], vec![(0, 0, 10), (0, 50, 10)]);
        let r = verify_schedule(&s, &[]);
        assert!(r.is_ok(), "{r}");
    }

    #[test]
    fn per_cycle_duration_eq23_catches_back_loading() {
        // Partition needs 10 per 50-tick cycle; all 20 ticks in cycle 1.
        // Eq. (8) (the average condition) would pass; Eq. (23) must fail.
        let s = schedule(100, vec![(0, 50, 10)], vec![(0, 50, 10), (0, 60, 10)]);
        let r = verify_schedule(&s, &[]);
        let bad: Vec<_> = r
            .violations()
            .iter()
            .filter(|v| {
                matches!(
                    v,
                    Violation::InsufficientDurationInCycle { cycle_index: 0, .. }
                )
            })
            .collect();
        assert_eq!(bad.len(), 1, "{r}");
        assert!(!verify_schedule_brute_force(&s));
    }

    #[test]
    fn per_cycle_duration_reports_each_partition_once() {
        // Cycles 0 and 2 of four get nothing, cycle 1 too little: one
        // violation names cycle 0 and counts three.
        let s = schedule(200, vec![(0, 50, 10)], vec![(0, 50, 5), (0, 160, 10)]);
        let r = verify_schedule(&s, &[]);
        let bad: Vec<_> = r
            .violations()
            .iter()
            .filter(|v| matches!(v, Violation::InsufficientDurationInCycle { .. }))
            .collect();
        assert_eq!(bad.len(), 1, "{r}");
        assert!(matches!(
            bad[0],
            Violation::InsufficientDurationInCycle {
                cycle_index: 0,
                assigned: Ticks(0),
                short_cycles: 3,
                ..
            }
        ));
        assert!(
            bad[0]
                .to_string()
                .ends_with("(Eq. 23); 3 cycles fall short"),
            "{r}"
        );
    }

    #[test]
    fn partition_without_windows_detected() {
        let s = schedule(100, vec![(0, 100, 10), (1, 100, 10)], vec![(0, 0, 10)]);
        let r = verify_schedule(&s, &[]);
        assert!(r.violations().iter().any(|v| matches!(
            v,
            Violation::PartitionWithoutWindows {
                partition: PartitionId(1),
                ..
            }
        )));
    }

    #[test]
    fn zero_duration_requirement_is_unconstrained() {
        // Non-real-time partition with d = 0 and no windows: fine.
        let s = schedule(100, vec![(0, 100, 40), (1, 100, 0)], vec![(0, 0, 40)]);
        let r = verify_schedule(&s, &[]);
        assert!(r.is_ok(), "{r}");
    }

    #[test]
    fn zero_cycle_with_positive_duration_detected() {
        let s = schedule(100, vec![(0, 0, 10)], vec![(0, 0, 10)]);
        let r = verify_schedule(&s, &[]);
        assert!(r
            .violations()
            .iter()
            .any(|v| matches!(v, Violation::ZeroCycle { .. })));
    }

    #[test]
    fn cycle_not_dividing_mtf_detected() {
        let s = schedule(100, vec![(0, 30, 5)], vec![(0, 0, 5)]);
        let r = verify_schedule(&s, &[]);
        assert!(r
            .violations()
            .iter()
            .any(|v| matches!(v, Violation::CycleDoesNotDivideMtf { .. })));
    }

    #[test]
    fn report_display_lists_everything() {
        let s = schedule(100, vec![(0, 50, 30)], vec![(0, 0, 30)]);
        // Cycle 1 ([50,100)) gets nothing → one violation.
        let r = verify_schedule(&s, &[]);
        assert!(!r.is_ok());
        let text = r.to_string();
        assert!(text.contains("Eq. 23"), "{text}");
    }

    #[test]
    fn report_merge_deduplicates_identical_violations() {
        let bad = schedule(0, vec![], vec![]);
        let mut r = verify_schedule(&bad, &[]);
        let baseline = r.violations().len();
        assert!(baseline > 0, "empty schedule must have violations");
        // Verifying the same schedule again yields identical findings;
        // merging must not double-report them.
        r.merge(verify_schedule(&bad, &[]));
        assert_eq!(r.violations().len(), baseline);
    }

    #[test]
    fn report_merge_keeps_distinct_violations() {
        let s0 = ScheduleId(0);
        let s1 = ScheduleId(1);
        let mut r = Report::new();
        r.record(Violation::ZeroMtf { schedule: s0 });
        let mut other = Report::new();
        other.record(Violation::ZeroMtf { schedule: s0 });
        other.record(Violation::ZeroMtf { schedule: s1 });
        r.merge(other);
        assert_eq!(
            r.violations(),
            &[
                Violation::ZeroMtf { schedule: s0 },
                Violation::ZeroMtf { schedule: s1 },
            ]
        );
    }

    fn exactly_once(delivered: &[u64], budget: u64) -> Vec<Violation> {
        let mut report = Report::new();
        check_exactly_once(
            delivered.iter().copied(),
            budget,
            true,
            |_| false,
            &mut report,
        );
        report.violations().to_vec()
    }

    #[test]
    fn a_late_first_delivery_is_out_of_order_not_a_duplicate() {
        let found = exactly_once(&[0, 2, 1], 3);
        assert!(found.iter().any(|v| matches!(
            v,
            Violation::OutOfOrderDelivery {
                expected: 3,
                got: 1
            }
        )));
        assert!(!found
            .iter()
            .any(|v| matches!(v, Violation::DuplicateDelivery { .. })));
    }

    #[test]
    fn a_repeat_is_a_duplicate() {
        assert_eq!(
            exactly_once(&[0, 1, 1], 2),
            vec![Violation::DuplicateDelivery { seq: 1 }]
        );
    }

    #[test]
    fn a_missing_seq_is_lost_unless_excused() {
        assert_eq!(
            exactly_once(&[0, 2], 3),
            vec![
                Violation::OutOfOrderDelivery {
                    expected: 1,
                    got: 2
                },
                Violation::MessageLost { seq: 1 },
            ]
        );
        let mut report = Report::new();
        check_exactly_once([0, 2], 3, false, |seq| seq == 1, &mut report);
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn a_seq_past_the_budget_is_spurious() {
        let found = exactly_once(&[0, 1, 2], 2);
        assert!(matches!(
            found.as_slice(),
            [Violation::SpuriousDetection { .. }]
        ));
    }

    #[test]
    fn brute_force_agrees_on_valid_two_cycle_table() {
        let s = schedule(
            100,
            vec![(0, 50, 10), (1, 100, 20)],
            vec![(0, 0, 10), (1, 10, 20), (0, 50, 10)],
        );
        assert!(verify_schedule(&s, &[]).is_ok());
        assert!(verify_schedule_brute_force(&s));
    }
}
