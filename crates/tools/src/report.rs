//! Human-readable verification reports over the model conditions.

use air_model::partition::Partition;
use air_model::verify::{verify_schedule, Report};
use air_model::{Schedule, ScheduleSet};

/// Produces a full verification report for a schedule set: per schedule,
/// the Eq. (21)–(23) verdicts, the per-partition per-cycle budgets, and a
/// PASS/FAIL summary — the offline check Sect. 5 prescribes for avoiding
/// planning-caused deadline violations.
///
/// # Examples
///
/// ```
/// use air_model::prototype::fig8_system;
/// use air_tools::verification_report;
///
/// let sys = fig8_system();
/// let text = verification_report(&sys.schedules, &sys.partitions);
/// assert!(text.contains("PASS"));
/// assert!(!text.contains("FAIL"));
/// ```
pub fn verification_report(set: &ScheduleSet, partitions: &[Partition]) -> String {
    let mut out = String::new();
    for schedule in set {
        out.push_str(&schedule_section(schedule, partitions));
        out.push('\n');
    }
    out
}

fn schedule_section(schedule: &Schedule, partitions: &[Partition]) -> String {
    let report: Report = verify_schedule(schedule, partitions);
    let mut out = String::new();
    out.push_str(&format!(
        "=== {} '{}' (MTF {}) — {} ===\n",
        schedule.id(),
        schedule.name(),
        schedule.mtf(),
        if report.is_ok() { "PASS" } else { "FAIL" }
    ));
    out.push_str(&format!(
        "utilization: {:.1}%\n",
        schedule.utilization() * 100.0
    ));
    for q in schedule.requirements() {
        if q.duration.is_zero() {
            out.push_str(&format!(
                "  {}: no strict requirement (d = 0)\n",
                q.partition
            ));
            continue;
        }
        if q.cycle.is_zero() || !(schedule.mtf() % q.cycle).is_zero() {
            continue; // reported as a violation below
        }
        let cycles = schedule.mtf() / q.cycle;
        for k in 0..cycles {
            let assigned = schedule.assigned_in_cycle(q.partition, q.cycle, k);
            out.push_str(&format!(
                "  {} cycle {k} [{}..{}): assigned {} >= required {} : {}\n",
                q.partition,
                (q.cycle * k).as_u64(),
                (q.cycle * (k + 1)).as_u64(),
                assigned.as_u64(),
                q.duration.as_u64(),
                if assigned >= q.duration {
                    "ok"
                } else {
                    "VIOLATED"
                }
            ));
        }
    }
    if !report.is_ok() {
        out.push_str("violations:\n");
        for v in report.violations() {
            out.push_str(&format!("  - {v}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use air_model::prototype::fig8_system;
    use air_model::schedule::{PartitionRequirement, TimeWindow};
    use air_model::{PartitionId, ScheduleId, Ticks};

    #[test]
    fn fig8_report_shows_eq25_budget_line() {
        let sys = fig8_system();
        let text = verification_report(&sys.schedules, &sys.partitions);
        // The Eq. (25) worked example: P1 (our P0), cycle 0, 200 >= 200.
        assert!(
            text.contains("P0 cycle 0 [0..1300): assigned 200 >= required 200 : ok"),
            "{text}"
        );
        assert!(text.contains("utilization: 100.0%"));
    }

    #[test]
    fn failing_schedule_reports_fail_and_violations() {
        let p0 = PartitionId(0);
        let bad = Schedule::new(
            ScheduleId(0),
            "bad",
            Ticks(100),
            vec![PartitionRequirement::new(p0, Ticks(50), Ticks(30))],
            vec![TimeWindow::new(p0, Ticks(0), Ticks(30))],
        );
        let set = ScheduleSet::new(vec![bad]);
        let text = verification_report(&set, &[]);
        assert!(text.contains("FAIL"), "{text}");
        assert!(text.contains("VIOLATED"), "{text}");
        assert!(text.contains("Eq. 23"), "{text}");
    }
}
