//! Spatial-partitioning analysis (AIR050–AIR053): the declared physical
//! memory map must keep partitions disjoint (Sect. 2.1's spatial
//! segregation) except where sharing is declared on both sides — and a
//! shared region must carry the same write permission everywhere, so no
//! partition can scribble over what another reads as constant.

use air_tools::config::{MemoryRegion, SpanKey};

use crate::diag::{Code, Diagnostic, LintReport};
use crate::model::SystemModel;

/// MMU page granularity (the PMK maps in 4 KiB pages).
const PAGE_SIZE: u64 = 4096;

pub(crate) fn analyze(model: &SystemModel, report: &mut LintReport) {
    for region in &model.memory {
        let line = model
            .spans
            .get(&SpanKey::Memory(region.partition, region.base));
        if region.size == 0 {
            report.push(
                Diagnostic::new(
                    Code::ZeroSizeRegion,
                    format!(
                        "memory region of {} at {:#x} has zero size",
                        region.partition, region.base
                    ),
                )
                .with_line(line),
            );
        }
        if region.base % PAGE_SIZE != 0 || region.size % PAGE_SIZE != 0 {
            report.push(
                Diagnostic::new(
                    Code::MisalignedRegion,
                    format!(
                        "memory region of {} at {:#x} (size {:#x}) is not \
                         {PAGE_SIZE}-byte page-aligned",
                        region.partition, region.base, region.size
                    ),
                )
                .with_line(line),
            );
        }
    }

    for (i, a) in model.memory.iter().enumerate() {
        for b in &model.memory[i + 1..] {
            if a.partition == b.partition || !overlaps(a, b) {
                continue;
            }
            let line = model.spans.get(&SpanKey::Memory(b.partition, b.base));
            if a.shared && b.shared {
                if a.writable != b.writable {
                    report.push(
                        Diagnostic::new(
                            Code::SharedPermissionConflict,
                            format!(
                                "shared region at {:#x}: {} maps it {} while {} maps \
                                 it {}",
                                a.base,
                                a.partition,
                                perm(a),
                                b.partition,
                                perm(b)
                            ),
                        )
                        .with_line(line),
                    );
                }
            } else {
                report.push(
                    Diagnostic::new(
                        Code::MemoryOverlap,
                        format!(
                            "memory of {} ({:#x}+{:#x}) overlaps memory of {} \
                             ({:#x}+{:#x}) without both being shared",
                            a.partition, a.base, a.size, b.partition, b.base, b.size
                        ),
                    )
                    .with_line(line),
                );
            }
        }
    }
}

fn overlaps(a: &MemoryRegion, b: &MemoryRegion) -> bool {
    a.size != 0
        && b.size != 0
        && a.base < b.base.saturating_add(b.size)
        && b.base < a.base.saturating_add(a.size)
}

fn perm(r: &MemoryRegion) -> &'static str {
    if r.writable {
        "writable"
    } else {
        "read-only"
    }
}
