//! Utilisation and occupancy summaries over scheduling tables.

use std::collections::BTreeMap;

use air_model::{PartitionId, Schedule, ScheduleSet, Ticks};

/// Per-partition occupancy of one schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionOccupancy {
    /// The partition.
    pub partition: PartitionId,
    /// Total window time per MTF.
    pub assigned_per_mtf: Ticks,
    /// Required time per MTF (`d · MTF/η`).
    pub required_per_mtf: Ticks,
    /// Number of windows per MTF.
    pub window_count: usize,
    /// Assigned minus required: the partition's slack per MTF.
    pub slack_per_mtf: Ticks,
}

/// Summary of one schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleSummary {
    /// The schedule id.
    pub schedule: air_model::ScheduleId,
    /// The MTF.
    pub mtf: Ticks,
    /// Fraction of the MTF covered by windows.
    pub utilization: f64,
    /// Per-partition figures, sorted by partition.
    pub partitions: Vec<PartitionOccupancy>,
}

/// Computes the occupancy summary of `schedule`.
///
/// # Examples
///
/// ```
/// use air_model::prototype::fig8_chi1;
/// use air_tools::analysis::summarize;
///
/// let summary = summarize(&fig8_chi1());
/// assert_eq!(summary.utilization, 1.0);
/// // χ1 gives the paper's P4 a generous 700 per MTF against required 100.
/// assert_eq!(summary.partitions[3].slack_per_mtf.as_u64(), 600);
/// ```
pub fn summarize(schedule: &Schedule) -> ScheduleSummary {
    let mut per: BTreeMap<PartitionId, PartitionOccupancy> = BTreeMap::new();
    for q in schedule.requirements() {
        let assigned = schedule.total_assigned(q.partition);
        let required = if q.cycle.is_zero() || (schedule.mtf() % q.cycle) != Ticks(0) {
            q.duration
        } else {
            q.duration * (schedule.mtf() / q.cycle)
        };
        per.insert(
            q.partition,
            PartitionOccupancy {
                partition: q.partition,
                assigned_per_mtf: assigned,
                required_per_mtf: required,
                window_count: schedule.windows_for(q.partition).count(),
                slack_per_mtf: assigned.saturating_sub(required),
            },
        );
    }
    ScheduleSummary {
        schedule: schedule.id(),
        mtf: schedule.mtf(),
        utilization: schedule.utilization(),
        partitions: per.into_values().collect(),
    }
}

/// Summaries for every schedule of a set.
pub fn summarize_set(set: &ScheduleSet) -> Vec<ScheduleSummary> {
    set.iter().map(summarize).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use air_model::prototype::{fig8_system, P2};

    #[test]
    fn fig8_summary_numbers() {
        let sys = fig8_system();
        let summaries = summarize_set(&sys.schedules);
        assert_eq!(summaries.len(), 2);
        let chi1 = &summaries[0];
        assert_eq!(chi1.mtf, Ticks(1300));
        // P2 (cycle 650, d 100): required 200 per MTF, assigned 200.
        let p2 = chi1.partitions.iter().find(|p| p.partition == P2).unwrap();
        assert_eq!(p2.required_per_mtf, Ticks(200));
        assert_eq!(p2.assigned_per_mtf, Ticks(200));
        assert_eq!(p2.slack_per_mtf, Ticks(0));
        assert_eq!(p2.window_count, 2);
    }

    #[test]
    fn zero_duration_partitions_have_zero_required() {
        use air_model::schedule::{PartitionRequirement, Schedule, TimeWindow};
        use air_model::{PartitionId, ScheduleId};
        let p0 = PartitionId(0);
        let p1 = PartitionId(1);
        let s = Schedule::new(
            ScheduleId(0),
            "t",
            Ticks(100),
            vec![
                PartitionRequirement::new(p0, Ticks(100), Ticks(40)),
                PartitionRequirement::new(p1, Ticks(100), Ticks(0)),
            ],
            vec![
                TimeWindow::new(p0, Ticks(0), Ticks(40)),
                TimeWindow::new(p1, Ticks(40), Ticks(10)),
            ],
        );
        let summary = summarize(&s);
        let p1_row = summary
            .partitions
            .iter()
            .find(|p| p.partition == p1)
            .unwrap();
        assert_eq!(p1_row.required_per_mtf, Ticks(0));
        assert_eq!(p1_row.assigned_per_mtf, Ticks(10));
        assert_eq!(p1_row.slack_per_mtf, Ticks(10));
        assert!((summary.utilization - 0.5).abs() < 1e-12);
    }
}
