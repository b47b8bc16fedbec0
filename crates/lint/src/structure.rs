//! System-structure checks: identifier uniqueness and contiguity
//! (AIR070–AIR075).

use std::collections::BTreeSet;

use air_tools::config::SpanKey;

use crate::diag::{Code, Diagnostic, LintReport};
use crate::model::SystemModel;

pub(crate) fn analyze(model: &SystemModel, report: &mut LintReport) {
    let mut seen = BTreeSet::new();
    for p in &model.partitions {
        if !seen.insert(p.id()) {
            report.push(
                Diagnostic::new(
                    Code::DuplicatePartitionId,
                    format!("partition id {} is declared more than once", p.id()),
                )
                .with_line(model.spans.get(&SpanKey::Partition(p.id()))),
            );
        }
    }

    let mut seen = BTreeSet::new();
    for s in &model.schedules {
        if !seen.insert(s.id()) {
            report.push(
                Diagnostic::new(
                    Code::DuplicateScheduleId,
                    format!("schedule id {} is declared more than once", s.id()),
                )
                .with_line(model.spans.get(&SpanKey::Schedule(s.id()))),
            );
        }
    }

    if model.schedules.is_empty() {
        report.push(Diagnostic::new(
            Code::NoSchedules,
            "a system holds at least one partition scheduling table",
        ));
    }

    for (i, p) in model.partitions.iter().enumerate() {
        if p.id().as_usize() != i {
            report.push(
                Diagnostic::new(
                    Code::NonContiguousPartitionIds,
                    format!(
                        "partition {} is declared at position {i}; ids must be \
                         contiguous from P0 in declaration order",
                        p.id()
                    ),
                )
                .with_line(model.spans.get(&SpanKey::Partition(p.id()))),
            );
            break; // one finding is enough; later ids are all shifted
        }
    }

    let mut seen = BTreeSet::new();
    for (pid, attrs) in &model.processes {
        if !seen.insert((*pid, attrs.name())) {
            report.push(
                Diagnostic::new(
                    Code::DuplicateProcessName,
                    format!("{pid} declares two processes named '{}'", attrs.name()),
                )
                .with_line(model.spans.get(&SpanKey::Process(*pid, attrs.name()))),
            );
        }
        if !model.knows_partition(*pid) {
            report.push(
                Diagnostic::new(
                    Code::UnknownPartitionReference,
                    format!("process '{}' belongs to undeclared {pid}", attrs.name()),
                )
                .with_line(model.spans.get(&SpanKey::Process(*pid, attrs.name()))),
            );
        }
    }

    for (pid, error, _) in &model.handlers {
        if !model.knows_partition(*pid) {
            report.push(
                Diagnostic::new(
                    Code::UnknownPartitionReference,
                    format!("handler for '{error}' belongs to undeclared {pid}"),
                )
                .with_line(model.spans.get(&SpanKey::Handler(*pid, *error))),
            );
        }
    }

    for region in &model.memory {
        if !model.knows_partition(region.partition) {
            report.push(
                Diagnostic::new(
                    Code::UnknownPartitionReference,
                    format!(
                        "memory region at {:#x} belongs to undeclared {}",
                        region.base, region.partition
                    ),
                )
                .with_line(
                    model
                        .spans
                        .get(&SpanKey::Memory(region.partition, region.base)),
                ),
            );
        }
    }
}
