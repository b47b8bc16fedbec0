//! Temporal analysis (AIR001–AIR015): scheduling-table structure per
//! Eq. (20)–(23), plus deadline-vs-supply schedulability of every
//! declared process under the supply bound function, and the process
//! recurrences themselves: a zero period or minimum inter-arrival time
//! gives a process no next release point (AIR015).
//!
//! Table structure reuses the model verifier
//! ([`air_model::verify::verify_schedule`]); schedulability reuses
//! [`air_tools::schedulability`] under the `MtfLocked` phasing (the
//! integration pattern where processes start at an MTF boundary).
//! Processes that cannot be analysed — finite deadline but no WCET, or
//! aperiodic releases — are reported as inconclusive (AIR013) and
//! excluded from the interference set, which under-approximates
//! interference; AIR012/AIR013 are warnings, not errors, because actual
//! execution may stay below the declared worst case.

use std::collections::BTreeSet;

use air_model::process::{Deadline, ProcessAttributes, Recurrence};
use air_model::verify::{verify_schedule, Violation};
use air_model::{PartitionId, Schedule};
use air_tools::config::SpanKey;
use air_tools::schedulability::{analyze_partition_with_phasing, AnalysisResult, Phasing};

use crate::diag::{Code, Diagnostic, LintReport};
use crate::model::SystemModel;

/// The supply-bound analysis of every `(schedule, partition)` pair: each
/// partition's analysable deadline-bearing processes under every schedule
/// that gives it windows, by partition id and then schedule. AIR012
/// reports from it, the exploration stage flags deadline starvation
/// *across* modes from it (AIR095), and the timing stage takes each
/// node's worst response time from it.
pub(crate) fn analyses(model: &SystemModel) -> Vec<(&Schedule, AnalysisResult)> {
    let partition_ids: BTreeSet<PartitionId> =
        model.processes.iter().map(|(pid, _)| *pid).collect();
    let mut results = Vec::new();
    for pid in partition_ids {
        let task_set: Vec<ProcessAttributes> = model
            .processes
            .iter()
            .filter(|(p, a)| *p == pid && a.deadline() != Deadline::Infinite && analysable(a))
            .map(|(_, a)| a.clone())
            .collect();
        if task_set.is_empty() {
            continue;
        }
        // A schedule without windows for the partition has no result:
        // the partition takes no part in that mode (or AIR007 fired).
        results.extend(model.schedules.iter().filter_map(|schedule| {
            analyze_partition_with_phasing(schedule, pid, &task_set, Phasing::MtfLocked)
                .ok()
                .map(|result| (schedule, result))
        }));
    }
    results
}

pub(crate) fn analyze(model: &SystemModel, report: &mut LintReport) {
    for schedule in &model.schedules {
        let verdict = verify_schedule(schedule, &model.partitions);
        for violation in verdict.violations() {
            report.push(to_diagnostic(model, schedule, violation));
        }
    }
    schedulability(model, report);
}

fn window_span(model: &SystemModel, schedule: &Schedule, index: usize) -> Option<usize> {
    let w = schedule.windows().get(index)?;
    model
        .spans
        .get(&SpanKey::Window(schedule.id(), w.partition, w.offset))
}

fn require_span(model: &SystemModel, schedule: &Schedule, partition: PartitionId) -> Option<usize> {
    model
        .spans
        .get(&SpanKey::Requirement(schedule.id(), partition))
        .or_else(|| model.spans.get(&SpanKey::Schedule(schedule.id())))
}

fn to_diagnostic(model: &SystemModel, schedule: &Schedule, violation: &Violation) -> Diagnostic {
    let schedule_span = model.spans.get(&SpanKey::Schedule(schedule.id()));
    match violation {
        Violation::ZeroMtf { .. } => {
            Diagnostic::new(Code::ZeroMtf, violation.to_string()).with_line(schedule_span)
        }
        Violation::ZeroWindowDuration { window_index, .. } => Diagnostic::new(
            Code::ZeroWindowDuration,
            violation.to_string(),
        )
        .with_line(window_span(model, schedule, *window_index)),
        Violation::WindowsOverlap { first_index, .. } => Diagnostic::new(
            Code::WindowsOverlap,
            violation.to_string(),
        )
        .with_line(window_span(model, schedule, first_index + 1)),
        Violation::WindowBeyondMtf { window_index, .. } => Diagnostic::new(
            Code::WindowBeyondMtf,
            violation.to_string(),
        )
        .with_line(window_span(model, schedule, *window_index)),
        Violation::WindowForUnknownPartition { window_index, .. } => {
            Diagnostic::new(Code::WindowForUnknownPartition, violation.to_string())
                .with_line(window_span(model, schedule, *window_index))
        }
        Violation::RequirementForUnknownPartition { partition, .. } => {
            Diagnostic::new(Code::RequirementForUnknownPartition, violation.to_string())
                .with_line(require_span(model, schedule, *partition))
        }
        Violation::PartitionWithoutWindows { partition, .. } => {
            Diagnostic::new(Code::PartitionWithoutWindows, violation.to_string())
                .with_line(require_span(model, schedule, *partition))
        }
        Violation::ZeroCycle { partition, .. } => {
            Diagnostic::new(Code::ZeroCycle, violation.to_string())
                .with_line(require_span(model, schedule, *partition))
        }
        Violation::CycleDoesNotDivideMtf { partition, .. } => {
            Diagnostic::new(Code::CycleDoesNotDivideMtf, violation.to_string())
                .with_line(require_span(model, schedule, *partition))
        }
        Violation::MtfNotMultipleOfLcm { .. } => {
            Diagnostic::new(Code::MtfNotMultipleOfLcm, violation.to_string())
                .with_line(schedule_span)
        }
        Violation::InsufficientDurationInCycle { partition, .. } => {
            Diagnostic::new(Code::InsufficientDurationInCycle, violation.to_string())
                .with_line(require_span(model, schedule, *partition))
        }
        // Campaign-time violations never come out of the static verifier,
        // but the enum is shared; surface them faithfully if they do.
        other => Diagnostic::new(Code::OtherModelViolation, other.to_string()),
    }
}

/// Whether the analysis can bound this process's response time. Shared
/// with the end-to-end timing stage, whose node terms take the worst
/// bounded response time over exactly this set.
pub(crate) fn analysable(attrs: &ProcessAttributes) -> bool {
    attrs.wcet().is_some()
        && matches!(
            attrs.recurrence(),
            Recurrence::Periodic(_) | Recurrence::Sporadic(_)
        )
}

fn schedulability(model: &SystemModel, report: &mut LintReport) {
    for (pid, attrs) in &model.processes {
        let what = match attrs.recurrence() {
            Recurrence::Periodic(t) if t.is_zero() => "period",
            Recurrence::Sporadic(t) if t.is_zero() => "minimum inter-arrival time",
            _ => continue,
        };
        report.push(
            Diagnostic::new(
                Code::ZeroPeriod,
                format!(
                    "process '{}' of {pid} has a zero {what}; it has no next release point",
                    attrs.name()
                ),
            )
            .with_line(model.spans.get(&SpanKey::Process(*pid, attrs.name()))),
        );
    }

    // Inconclusive processes: a finite deadline that no test can bound.
    for (pid, attrs) in &model.processes {
        if attrs.deadline() == Deadline::Infinite || analysable(attrs) {
            continue;
        }
        let why = if attrs.wcet().is_none() {
            "no WCET"
        } else {
            "aperiodic releases"
        };
        report.push(
            Diagnostic::new(
                Code::ProcessAnalysisInconclusive,
                format!(
                    "process '{}' of {pid} has a finite deadline but {why}; \
                     its response time cannot be bounded",
                    attrs.name()
                ),
            )
            .with_line(model.spans.get(&SpanKey::Process(*pid, attrs.name()))),
        );
    }

    // Deadline-vs-supply per partition and per schedule it appears in.
    for (schedule, result) in analyses(model) {
        let pid = result.partition;
        for verdict in result.processes.iter().filter(|v| !v.schedulable) {
            let wcrt = verdict
                .wcrt
                .map_or("unbounded".to_owned(), |t| format!("{}", t.as_u64()));
            report.push(
                Diagnostic::new(
                    Code::ProcessUnschedulable,
                    format!(
                        "process '{}' of {pid} may miss its deadline under \
                         {}: worst-case response time {wcrt}",
                        verdict.name,
                        schedule.id()
                    ),
                )
                .with_line(model.spans.get(&SpanKey::Process(pid, &verdict.name))),
            );
        }
    }
}
