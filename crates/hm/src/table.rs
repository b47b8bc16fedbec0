//! Integration-time health-monitoring tables.
//!
//! ARINC 653 structures error handling around tables resolved at system
//! integration time: a **system (module) HM table** assigning each error an
//! error level, and per-partition **partition HM tables** selecting the
//! recovery action for errors handled at partition level. Process-level
//! errors go to the application error handler; when a partition has none,
//! a per-partition default action applies.

use std::collections::BTreeMap;

use air_model::PartitionId;

use crate::action::{ModuleRecoveryAction, PartitionRecoveryAction, ProcessRecoveryAction};
use crate::error_id::{ErrorId, ErrorLevel};

/// The system (module) HM table: classifies each error identifier into the
/// level at which it is handled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemHmTable {
    levels: BTreeMap<ErrorId, ErrorLevel>,
    /// Action for errors classified at module level.
    module_action: ModuleRecoveryAction,
}

impl SystemHmTable {
    /// The conventional default classification: application-visible errors
    /// at process level, containment breaches at partition level, platform
    /// failures at module level.
    pub fn standard() -> Self {
        let mut levels = BTreeMap::new();
        levels.insert(ErrorId::DeadlineMissed, ErrorLevel::Process);
        levels.insert(ErrorId::ApplicationError, ErrorLevel::Process);
        levels.insert(ErrorId::NumericError, ErrorLevel::Process);
        levels.insert(ErrorId::IllegalRequest, ErrorLevel::Process);
        levels.insert(ErrorId::StackOverflow, ErrorLevel::Process);
        levels.insert(ErrorId::MemoryViolation, ErrorLevel::Partition);
        levels.insert(ErrorId::HardwareFault, ErrorLevel::Module);
        levels.insert(ErrorId::PowerFail, ErrorLevel::Module);
        levels.insert(ErrorId::ConfigError, ErrorLevel::Module);
        levels.insert(ErrorId::LinkDegraded, ErrorLevel::Module);
        Self {
            levels,
            module_action: ModuleRecoveryAction::Reset,
        }
    }

    /// Overrides the level of `error`.
    #[must_use]
    pub fn with_level(mut self, error: ErrorId, level: ErrorLevel) -> Self {
        self.levels.insert(error, level);
        self
    }

    /// Sets the module-level recovery action.
    #[must_use]
    pub fn with_module_action(mut self, action: ModuleRecoveryAction) -> Self {
        self.module_action = action;
        self
    }

    /// The level assigned to `error` (defaults to partition level for
    /// unlisted errors: contain first, escalate by configuration).
    pub fn level_of(&self, error: ErrorId) -> ErrorLevel {
        self.levels
            .get(&error)
            .copied()
            .unwrap_or(ErrorLevel::Partition)
    }

    /// The module-level recovery action.
    pub fn module_action(&self) -> ModuleRecoveryAction {
        self.module_action
    }
}

impl Default for SystemHmTable {
    fn default() -> Self {
        Self::standard()
    }
}

/// One partition's HM table: the partition-level recovery action per error,
/// and the default process-level action used when the application installed
/// no error handler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionHmTable {
    actions: BTreeMap<ErrorId, PartitionRecoveryAction>,
    default_partition_action: PartitionRecoveryAction,
    /// Applied to process-level errors when no error handler exists.
    default_process_action: ProcessRecoveryAction,
}

impl PartitionHmTable {
    /// A table that warm-restarts the partition on any partition-level
    /// error and ignores (logs) unhandled process-level errors.
    pub fn standard() -> Self {
        Self {
            actions: BTreeMap::new(),
            default_partition_action: PartitionRecoveryAction::WarmRestart,
            default_process_action: ProcessRecoveryAction::Ignore,
        }
    }

    /// Overrides the partition-level action for `error`.
    #[must_use]
    pub fn with_action(mut self, error: ErrorId, action: PartitionRecoveryAction) -> Self {
        self.actions.insert(error, action);
        self
    }

    /// Sets the default partition-level action.
    #[must_use]
    pub fn with_default_partition_action(mut self, action: PartitionRecoveryAction) -> Self {
        self.default_partition_action = action;
        self
    }

    /// Sets the process-level action used when no error handler exists.
    #[must_use]
    pub fn with_default_process_action(mut self, action: ProcessRecoveryAction) -> Self {
        self.default_process_action = action;
        self
    }

    /// The partition-level action for `error`.
    pub fn action_for(&self, error: ErrorId) -> PartitionRecoveryAction {
        self.actions
            .get(&error)
            .copied()
            .unwrap_or(self.default_partition_action)
    }

    /// The default process-level action (no error handler installed).
    pub fn default_process_action(&self) -> ProcessRecoveryAction {
        self.default_process_action
    }
}

impl Default for PartitionHmTable {
    fn default() -> Self {
        Self::standard()
    }
}

/// The complete HM configuration of a module: system table plus one
/// partition table per partition.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HmTables {
    /// The module-wide classification table.
    pub system: SystemHmTable,
    partition_tables: BTreeMap<PartitionId, PartitionHmTable>,
}

impl HmTables {
    /// Standard tables with no per-partition overrides.
    pub fn standard() -> Self {
        Self::default()
    }

    /// Installs (or replaces) the table of `partition`.
    #[must_use]
    pub fn with_partition_table(mut self, partition: PartitionId, table: PartitionHmTable) -> Self {
        self.partition_tables.insert(partition, table);
        self
    }

    /// The table of `partition`; a standard table when none was installed.
    pub fn partition_table(&self, partition: PartitionId) -> PartitionHmTable {
        self.partition_tables
            .get(&partition)
            .cloned()
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_classification_matches_the_paper() {
        let t = SystemHmTable::standard();
        // Sect. 5: "ARINC 653 classifies process deadline violation as a
        // process level error".
        assert_eq!(t.level_of(ErrorId::DeadlineMissed), ErrorLevel::Process);
        assert_eq!(t.level_of(ErrorId::MemoryViolation), ErrorLevel::Partition);
        assert_eq!(t.level_of(ErrorId::HardwareFault), ErrorLevel::Module);
    }

    #[test]
    fn level_override() {
        let t =
            SystemHmTable::standard().with_level(ErrorId::DeadlineMissed, ErrorLevel::Partition);
        assert_eq!(t.level_of(ErrorId::DeadlineMissed), ErrorLevel::Partition);
    }

    #[test]
    fn partition_table_defaults_and_overrides() {
        let t = PartitionHmTable::standard()
            .with_action(ErrorId::MemoryViolation, PartitionRecoveryAction::Stop);
        assert_eq!(
            t.action_for(ErrorId::MemoryViolation),
            PartitionRecoveryAction::Stop
        );
        assert_eq!(
            t.action_for(ErrorId::NumericError),
            PartitionRecoveryAction::WarmRestart
        );
    }

    #[test]
    fn hm_tables_fall_back_to_standard_per_partition() {
        let tables = HmTables::standard().with_partition_table(
            PartitionId(1),
            PartitionHmTable::standard()
                .with_default_partition_action(PartitionRecoveryAction::ColdRestart),
        );
        assert_eq!(
            tables
                .partition_table(PartitionId(1))
                .action_for(ErrorId::MemoryViolation),
            PartitionRecoveryAction::ColdRestart
        );
        assert_eq!(
            tables
                .partition_table(PartitionId(0))
                .action_for(ErrorId::MemoryViolation),
            PartitionRecoveryAction::WarmRestart
        );
    }
}
