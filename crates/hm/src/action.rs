//! Recovery actions per error level.
//!
//! For a process-level error such as a deadline violation, the paper
//! (Sect. 5) lists the possible recovery actions verbatim; they are the
//! variants of [`ProcessRecoveryAction`]. "The actual action to be
//! performed is defined by the application programmer, through an
//! appropriate error handler" — the APEX error-handler machinery selects
//! among these.

use std::fmt;

/// Recovery actions for **process-level** errors (Sect. 5's list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProcessRecoveryAction {
    /// "Ignoring the error (logging it, but taking no action)."
    #[default]
    Ignore,
    /// "Logging the error a certain number of times before acting upon
    /// it" — after `threshold` occurrences, `then` is applied.
    LogThenAct {
        /// Occurrences to merely log before escalating.
        threshold: u32,
        /// The escalation applied from occurrence `threshold + 1` on.
        then: EscalatedProcessAction,
    },
    /// "Stopping the faulty process, and reinitializing it from the entry
    /// address."
    RestartProcess,
    /// Stopping the faulty process and starting another (recovery) process.
    StartOtherProcess,
    /// "Stopping the faulty process, assuming that the partition will
    /// detect this and recover."
    StopProcess,
    /// "Restarting … the partition."
    RestartPartition,
    /// "… or stopping the partition."
    StopPartition,
}

/// The subset of process recovery actions that make sense as an escalation
/// target of [`ProcessRecoveryAction::LogThenAct`] (everything but another
/// log-then-act, which would never terminate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EscalatedProcessAction {
    /// Stop the process and reinitialise it from its entry address.
    RestartProcess,
    /// Stop the faulty process and start another process.
    StartOtherProcess,
    /// Stop the process.
    StopProcess,
    /// Restart the whole partition.
    RestartPartition,
    /// Stop the whole partition.
    StopPartition,
}

impl From<EscalatedProcessAction> for ProcessRecoveryAction {
    fn from(value: EscalatedProcessAction) -> Self {
        match value {
            EscalatedProcessAction::RestartProcess => ProcessRecoveryAction::RestartProcess,
            EscalatedProcessAction::StartOtherProcess => ProcessRecoveryAction::StartOtherProcess,
            EscalatedProcessAction::StopProcess => ProcessRecoveryAction::StopProcess,
            EscalatedProcessAction::RestartPartition => ProcessRecoveryAction::RestartPartition,
            EscalatedProcessAction::StopPartition => ProcessRecoveryAction::StopPartition,
        }
    }
}

impl fmt::Display for ProcessRecoveryAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProcessRecoveryAction::Ignore => f.write_str("ignore (log only)"),
            ProcessRecoveryAction::LogThenAct { threshold, then } => {
                write!(f, "log {threshold} times then {then:?}")
            }
            ProcessRecoveryAction::RestartProcess => f.write_str("restart process"),
            ProcessRecoveryAction::StartOtherProcess => f.write_str("start other process"),
            ProcessRecoveryAction::StopProcess => f.write_str("stop process"),
            ProcessRecoveryAction::RestartPartition => f.write_str("restart partition"),
            ProcessRecoveryAction::StopPartition => f.write_str("stop partition"),
        }
    }
}

/// Recovery actions for **partition-level** errors, "defined at system
/// integration time" (Sect. 2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PartitionRecoveryAction {
    /// Log only.
    Ignore,
    /// Restart the partition in warm-start mode.
    #[default]
    WarmRestart,
    /// Restart the partition in cold-start mode.
    ColdRestart,
    /// Set the partition idle (shut it down).
    Stop,
}

impl fmt::Display for PartitionRecoveryAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PartitionRecoveryAction::Ignore => "ignore",
            PartitionRecoveryAction::WarmRestart => "warm restart",
            PartitionRecoveryAction::ColdRestart => "cold restart",
            PartitionRecoveryAction::Stop => "stop",
        };
        f.write_str(s)
    }
}

/// Recovery actions for **module-level** errors: "errors detected at
/// system level may lead the entire system to be stopped or reinitialized"
/// (Sect. 2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ModuleRecoveryAction {
    /// Log only.
    Ignore,
    /// Shut the module down.
    Shutdown,
    /// Reinitialise (reset) the module.
    #[default]
    Reset,
}

impl fmt::Display for ModuleRecoveryAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ModuleRecoveryAction::Ignore => "ignore",
            ModuleRecoveryAction::Shutdown => "shutdown",
            ModuleRecoveryAction::Reset => "reset",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalation_converts_into_plain_action() {
        let esc = EscalatedProcessAction::RestartPartition;
        assert_eq!(
            ProcessRecoveryAction::from(esc),
            ProcessRecoveryAction::RestartPartition
        );
    }

    #[test]
    fn defaults_are_conservative() {
        assert_eq!(
            ProcessRecoveryAction::default(),
            ProcessRecoveryAction::Ignore
        );
        assert_eq!(
            PartitionRecoveryAction::default(),
            PartitionRecoveryAction::WarmRestart
        );
        assert_eq!(ModuleRecoveryAction::default(), ModuleRecoveryAction::Reset);
    }

    #[test]
    fn display_mentions_threshold() {
        let a = ProcessRecoveryAction::LogThenAct {
            threshold: 3,
            then: EscalatedProcessAction::StopProcess,
        };
        assert!(a.to_string().contains('3'));
    }
}
