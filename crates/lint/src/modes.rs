//! Mode-graph analysis (AIR020–AIR024): schedule-change actions, switch
//! authority, and reachability of every schedule from the initial one.
//!
//! A schedule switch is requested through `SET_MODULE_SCHEDULE` by a
//! partition holding the authority bit, so the mode graph has an edge
//! from schedule `T` to every other schedule exactly when some authority
//! partition is given a window under `T` (it must run to call the
//! service).

use std::collections::BTreeSet;

use air_model::schedule::ScheduleChangeAction;
use air_model::{PartitionId, Schedule};
use air_tools::config::SpanKey;

use crate::diag::{Code, Diagnostic, LintReport};
use crate::model::SystemModel;

pub(crate) fn analyze(model: &SystemModel, report: &mut LintReport) {
    for schedule in &model.schedules {
        for (pid, action) in schedule.change_actions() {
            if action != ScheduleChangeAction::None && !model.knows_partition(pid) {
                report.push(
                    Diagnostic::new(
                        Code::ActionForUnknownPartition,
                        format!(
                            "{} declares a change action for undeclared {pid}",
                            schedule.id()
                        ),
                    )
                    .with_line(model.spans.get(&SpanKey::Action(schedule.id(), pid))),
                );
            }
        }
    }

    let authorities: Vec<PartitionId> = model
        .partitions
        .iter()
        .filter(|p| p.may_set_module_schedule())
        .map(|p| p.id())
        .collect();

    if model.schedules.len() > 1 {
        if authorities.is_empty() {
            report.push(Diagnostic::new(
                Code::NoScheduleAuthority,
                format!(
                    "{} schedules are declared but no partition holds the \
                     schedule-change authority; no mode switch can ever be requested",
                    model.schedules.len()
                ),
            ));
        } else {
            reachability(model, &authorities, report);
        }
    }

    for p in &model.partitions {
        let windowed = model
            .schedules
            .iter()
            .any(|s| s.windows_for(p.id()).next().is_some());
        if !windowed && !model.schedules.is_empty() {
            report.push(
                Diagnostic::new(
                    Code::PartitionNeverScheduled,
                    format!("{} ({}) has no window in any schedule", p.id(), p.name()),
                )
                .with_line(model.spans.get(&SpanKey::Partition(p.id()))),
            );
        }
    }
}

/// Whether some authority partition gets CPU time under `schedule` (and
/// could therefore request a switch away from it).
fn can_switch_from(schedule: &Schedule, authorities: &[PartitionId]) -> bool {
    authorities
        .iter()
        .any(|a| schedule.windows_for(*a).next().is_some())
}

fn reachability(model: &SystemModel, authorities: &[PartitionId], report: &mut LintReport) {
    // BFS over "T -> every other schedule" edges, from the initial table.
    let mut reached: BTreeSet<usize> = BTreeSet::new();
    let mut frontier = vec![0usize];
    reached.insert(0);
    while let Some(i) = frontier.pop() {
        if can_switch_from(&model.schedules[i], authorities) {
            for j in 0..model.schedules.len() {
                if reached.insert(j) {
                    frontier.push(j);
                }
            }
        }
    }

    for (i, schedule) in model.schedules.iter().enumerate() {
        let span = model.spans.get(&SpanKey::Schedule(schedule.id()));
        if !reached.contains(&i) {
            report.push(
                Diagnostic::new(
                    Code::UnreachableSchedule,
                    format!(
                        "{} can never come into force: no authority partition \
                         runs under any schedule that could switch to it",
                        schedule.id()
                    ),
                )
                .with_line(span),
            );
        } else if !can_switch_from(schedule, authorities) {
            report.push(
                Diagnostic::new(
                    Code::ScheduleTrap,
                    format!(
                        "{} gives no window to any authority partition; once in \
                         force it can never be left",
                        schedule.id()
                    ),
                )
                .with_line(span),
            );
        }
    }
}
