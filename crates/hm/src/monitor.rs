//! The AIR Health Monitor: the event sink of the whole architecture.
//!
//! The PMK (memory violations, hardware faults), the PAL (deadline
//! violations, Algorithm 3 line 6 `HM_DEADLINEVIOLATED`) and the APEX
//! (`RAISE_APPLICATION_ERROR`) all report errors here. The monitor
//! classifies each report through the [`crate::table::HmTables`], tracks
//! per-(source, error) occurrence counts to implement the log-N-then-act
//! policy, records a log entry, and returns the [`HmDecision`] its caller
//! must enforce.

use std::collections::HashMap;

use air_model::ids::GlobalProcessId;
use air_model::{PartitionId, Ticks};

use crate::action::{ModuleRecoveryAction, PartitionRecoveryAction, ProcessRecoveryAction};
use crate::error_id::{ErrorId, ErrorLevel, ErrorSource};
use crate::log::{HmLog, HmLogEntry};
use crate::table::HmTables;

/// The decision returned for a reported error: what the caller (PMK, POS or
/// APEX glue) must now do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HmDecision {
    /// Invoke the partition's application error handler; if it does not
    /// exist, apply the given default process-level action. `occurrences`
    /// counts how many times this (source, error) pair has been reported,
    /// for resolving log-N-times-then-act policies.
    InvokeErrorHandler {
        /// The faulty process.
        process: GlobalProcessId,
        /// Fallback when no handler is installed.
        fallback: ProcessRecoveryAction,
        /// Occurrences of this (source, error) so far, this one included.
        occurrences: u64,
    },
    /// Apply a partition-level recovery action.
    PartitionAction {
        /// The affected partition.
        partition: PartitionId,
        /// The action to apply.
        action: PartitionRecoveryAction,
    },
    /// Apply a module-level recovery action.
    ModuleAction {
        /// The action to apply.
        action: ModuleRecoveryAction,
    },
}

/// The health monitor state: tables, log, occurrence counters.
///
/// # Examples
///
/// ```
/// use air_hm::{HealthMonitor, HmDecision, HmTables, ErrorId, ErrorSource};
/// use air_model::ids::{GlobalProcessId, PartitionId, ProcessId};
/// use air_model::Ticks;
///
/// let mut hm = HealthMonitor::new(HmTables::standard());
/// let faulty = GlobalProcessId::new(PartitionId(0), ProcessId(1));
/// let decision = hm.report(
///     Ticks(1300),
///     ErrorId::DeadlineMissed,
///     ErrorSource::Process(faulty),
///     "deadline 1300 missed",
/// );
/// assert!(matches!(decision, HmDecision::InvokeErrorHandler { .. }));
/// assert_eq!(hm.log().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    tables: HmTables,
    log: HmLog,
    occurrences: HashMap<(ErrorSourceKey, ErrorId), u64>,
}

/// Hashable key form of [`ErrorSource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ErrorSourceKey {
    Process(GlobalProcessId),
    Partition(PartitionId),
    Module,
}

impl From<ErrorSource> for ErrorSourceKey {
    fn from(value: ErrorSource) -> Self {
        match value {
            ErrorSource::Process(gp) => ErrorSourceKey::Process(gp),
            ErrorSource::Partition(p) => ErrorSourceKey::Partition(p),
            ErrorSource::Module => ErrorSourceKey::Module,
        }
    }
}

impl HealthMonitor {
    /// Creates a monitor over the given tables with a default-capacity log.
    pub fn new(tables: HmTables) -> Self {
        Self {
            tables,
            log: HmLog::new(),
            occurrences: HashMap::new(),
        }
    }

    /// Read access to the event log.
    pub fn log(&self) -> &HmLog {
        &self.log
    }

    /// The configured tables.
    pub fn tables(&self) -> &HmTables {
        &self.tables
    }

    /// Occurrences recorded so far for `(source, error)`.
    pub fn occurrences(&self, source: ErrorSource, error: ErrorId) -> u64 {
        self.occurrences
            .get(&(source.into(), error))
            .copied()
            .unwrap_or(0)
    }

    /// Reports an error: classifies it, logs it, bumps the occurrence
    /// counter, and returns the decision to enforce.
    ///
    /// An error is handled at the level the system table classifies it at,
    /// unless its source is too coarse for that level: a process-level
    /// error reported with a partition source is escalated to partition
    /// level — there is no process to hand it to (e.g. a deadline miss
    /// detected after its partition was stopped) — and a process- or
    /// partition-level error reported with a module source is escalated to
    /// module level, as there is no partition to act on (e.g. a spurious
    /// trap under a table that classifies hardware faults at partition
    /// level). The escalation needs no counterpart in the lint explorer:
    /// a model made by the system builder declares no HM levels, so the
    /// explorer already assumes module faults are possible, and the HM
    /// levels of an `.air` file never reach a running system.
    pub fn report(
        &mut self,
        time: Ticks,
        error: ErrorId,
        source: ErrorSource,
        detail: impl Into<String>,
    ) -> HmDecision {
        let classified = self.tables.system.level_of(error);
        let level = match (classified, &source) {
            (ErrorLevel::Process, ErrorSource::Process(_)) => ErrorLevel::Process,
            (ErrorLevel::Process, ErrorSource::Partition(_)) => ErrorLevel::Partition,
            (_, ErrorSource::Module) => ErrorLevel::Module,
            (other, _) => other,
        };

        self.log.record(HmLogEntry {
            time,
            error,
            source,
            level,
            detail: detail.into(),
        });
        let count = self
            .occurrences
            .entry((source.into(), error))
            .and_modify(|c| *c += 1)
            .or_insert(1);
        let count = *count;

        match (level, source) {
            (ErrorLevel::Process, ErrorSource::Process(process)) => {
                let table = self.tables.partition_table(process.partition);
                HmDecision::InvokeErrorHandler {
                    process,
                    fallback: table.default_process_action(),
                    occurrences: count,
                }
            }
            (ErrorLevel::Module, _) | (_, ErrorSource::Module) => HmDecision::ModuleAction {
                action: self.tables.system.module_action(),
            },
            (
                _,
                ErrorSource::Process(GlobalProcessId { partition, .. })
                | ErrorSource::Partition(partition),
            ) => {
                let action = self.tables.partition_table(partition).action_for(error);
                HmDecision::PartitionAction { partition, action }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::EscalatedProcessAction;
    use crate::table::{PartitionHmTable, SystemHmTable};
    use air_model::ids::ProcessId;

    fn proc(m: u32, q: u32) -> GlobalProcessId {
        GlobalProcessId::new(PartitionId(m), ProcessId(q))
    }

    #[test]
    fn deadline_miss_from_process_invokes_handler() {
        let mut hm = HealthMonitor::new(HmTables::standard());
        let d = hm.report(
            Ticks(10),
            ErrorId::DeadlineMissed,
            ErrorSource::Process(proc(0, 1)),
            "miss",
        );
        assert_eq!(
            d,
            HmDecision::InvokeErrorHandler {
                process: proc(0, 1),
                fallback: ProcessRecoveryAction::Ignore,
                occurrences: 1,
            }
        );
    }

    #[test]
    fn memory_violation_applies_partition_action() {
        let tables = HmTables::standard().with_partition_table(
            PartitionId(2),
            PartitionHmTable::standard()
                .with_action(ErrorId::MemoryViolation, PartitionRecoveryAction::Stop),
        );
        let mut hm = HealthMonitor::new(tables);
        let d = hm.report(
            Ticks(5),
            ErrorId::MemoryViolation,
            ErrorSource::Process(proc(2, 0)),
            "cross-partition store",
        );
        assert_eq!(
            d,
            HmDecision::PartitionAction {
                partition: PartitionId(2),
                action: PartitionRecoveryAction::Stop,
            }
        );
    }

    #[test]
    fn module_errors_use_module_action() {
        let mut tables = HmTables::standard();
        tables.system =
            SystemHmTable::standard().with_module_action(ModuleRecoveryAction::Shutdown);
        let mut hm = HealthMonitor::new(tables);
        let d = hm.report(
            Ticks(1),
            ErrorId::PowerFail,
            ErrorSource::Module,
            "brownout",
        );
        assert_eq!(
            d,
            HmDecision::ModuleAction {
                action: ModuleRecoveryAction::Shutdown
            }
        );
    }

    #[test]
    fn process_error_with_partition_source_escalates() {
        let mut hm = HealthMonitor::new(HmTables::standard());
        let d = hm.report(
            Ticks(9),
            ErrorId::DeadlineMissed,
            ErrorSource::Partition(PartitionId(1)),
            "miss in stopped partition",
        );
        assert!(matches!(
            d,
            HmDecision::PartitionAction {
                partition: PartitionId(1),
                ..
            }
        ));
    }

    #[test]
    fn partition_level_error_with_module_source_escalates_to_module() {
        // A table may classify hardware faults at partition level, yet a
        // spurious trap is reported with a module source: there is no
        // partition to act on, so the module action applies.
        let mut tables = HmTables::standard();
        tables.system =
            SystemHmTable::standard().with_level(ErrorId::HardwareFault, ErrorLevel::Partition);
        let mut hm = HealthMonitor::new(tables);
        let d = hm.report(
            Ticks(3),
            ErrorId::HardwareFault,
            ErrorSource::Module,
            "spurious trap",
        );
        assert_eq!(
            d,
            HmDecision::ModuleAction {
                action: ModuleRecoveryAction::Reset
            }
        );
        let entry = hm.log().entries().next().unwrap();
        assert_eq!(entry.level, ErrorLevel::Module);
        // A partition-scoped report of the same error keeps its level.
        let d = hm.report(
            Ticks(4),
            ErrorId::HardwareFault,
            ErrorSource::Partition(PartitionId(1)),
            "bus error",
        );
        assert!(matches!(
            d,
            HmDecision::PartitionAction {
                partition: PartitionId(1),
                ..
            }
        ));
    }

    #[test]
    fn occurrence_counts_accompany_the_decision() {
        let policy = ProcessRecoveryAction::LogThenAct {
            threshold: 2,
            then: EscalatedProcessAction::StopProcess,
        };
        let tables = HmTables::standard().with_partition_table(
            PartitionId(0),
            PartitionHmTable::standard().with_default_process_action(policy),
        );
        let mut hm = HealthMonitor::new(tables);
        for t in 1..=3u64 {
            let d = hm.report(
                Ticks(t),
                ErrorId::DeadlineMissed,
                ErrorSource::Process(proc(0, 0)),
                "miss",
            );
            let HmDecision::InvokeErrorHandler {
                fallback,
                occurrences,
                ..
            } = d
            else {
                panic!("expected handler invocation");
            };
            // The raw policy passes through; APEX resolves it against the
            // occurrence count (below threshold: log + replenish; above:
            // the escalation).
            assert_eq!(fallback, policy);
            assert_eq!(occurrences, t);
        }
        assert_eq!(
            hm.occurrences(ErrorSource::Process(proc(0, 0)), ErrorId::DeadlineMissed),
            3
        );
    }

    #[test]
    fn occurrence_counters_are_per_source_and_error() {
        let mut hm = HealthMonitor::new(HmTables::standard());
        hm.report(
            Ticks(1),
            ErrorId::DeadlineMissed,
            ErrorSource::Process(proc(0, 0)),
            "",
        );
        hm.report(
            Ticks(2),
            ErrorId::DeadlineMissed,
            ErrorSource::Process(proc(0, 1)),
            "",
        );
        hm.report(
            Ticks(3),
            ErrorId::NumericError,
            ErrorSource::Process(proc(0, 0)),
            "",
        );
        assert_eq!(
            hm.occurrences(ErrorSource::Process(proc(0, 0)), ErrorId::DeadlineMissed),
            1
        );
        assert_eq!(
            hm.occurrences(ErrorSource::Process(proc(0, 1)), ErrorId::DeadlineMissed),
            1
        );
        assert_eq!(
            hm.occurrences(ErrorSource::Process(proc(0, 0)), ErrorId::NumericError),
            1
        );
        assert_eq!(hm.log().len(), 3);
    }
}
