//! Error identifiers, sources and levels (ARINC 653 health monitoring
//! vocabulary, Sect. 2.4 and 5 of the paper).

use std::fmt;

use air_model::ids::GlobalProcessId;
use air_model::PartitionId;

/// The errors health monitoring classifies and handles.
///
/// ARINC 653 "classifies process deadline violation as a process level
/// error (an error that impacts one or more processes in the partition, or
/// the entire partition)" (Sect. 5) — [`ErrorId::DeadlineMissed`] is the
/// one this paper's mechanisms revolve around.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum ErrorId {
    /// A process exceeded its deadline (detected by the PAL deadline
    /// violation monitor, Sect. 5).
    DeadlineMissed,
    /// An application raised an error explicitly
    /// (`RAISE_APPLICATION_ERROR`).
    ApplicationError,
    /// Arithmetic error (overflow, divide by zero) in application code.
    NumericError,
    /// An APEX service was invoked with an illegal request in the current
    /// state.
    IllegalRequest,
    /// A process overflowed its stack.
    StackOverflow,
    /// A memory protection violation — an MMU fault against the spatial
    /// partitioning mappings (Sect. 2.1).
    MemoryViolation,
    /// A hardware device fault.
    HardwareFault,
    /// Imminent power failure.
    PowerFail,
    /// A configuration error detected during initialisation.
    ConfigError,
    /// The inter-node link degraded past its failover threshold (the
    /// reliable transport failed over to the redundant link, or delivery
    /// retries are exhausted) — the trigger for the Sect. 4 mode-based
    /// switch to a degraded schedule.
    LinkDegraded,
}

impl ErrorId {
    /// All identifiers, for table construction and exhaustive testing.
    pub const ALL: [ErrorId; 10] = [
        ErrorId::DeadlineMissed,
        ErrorId::ApplicationError,
        ErrorId::NumericError,
        ErrorId::IllegalRequest,
        ErrorId::StackOverflow,
        ErrorId::MemoryViolation,
        ErrorId::HardwareFault,
        ErrorId::PowerFail,
        ErrorId::ConfigError,
        ErrorId::LinkDegraded,
    ];
}

impl fmt::Display for ErrorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorId::DeadlineMissed => "deadline missed",
            ErrorId::ApplicationError => "application error",
            ErrorId::NumericError => "numeric error",
            ErrorId::IllegalRequest => "illegal request",
            ErrorId::StackOverflow => "stack overflow",
            ErrorId::MemoryViolation => "memory violation",
            ErrorId::HardwareFault => "hardware fault",
            ErrorId::PowerFail => "power fail",
            ErrorId::ConfigError => "configuration error",
            ErrorId::LinkDegraded => "link degraded",
        };
        f.write_str(s)
    }
}

/// Where an error was detected: determines which HM table applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorSource {
    /// Raised by / attributed to a specific process.
    Process(GlobalProcessId),
    /// Attributed to a whole partition (e.g. a memory violation during the
    /// partition's window, or an error in partition initialisation).
    Partition(PartitionId),
    /// Attributed to the module (whole computing platform).
    Module,
}

impl ErrorSource {
    /// The partition the error is contained in, if any.
    pub fn partition(&self) -> Option<PartitionId> {
        match self {
            ErrorSource::Process(gp) => Some(gp.partition),
            ErrorSource::Partition(p) => Some(*p),
            ErrorSource::Module => None,
        }
    }
}

impl fmt::Display for ErrorSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrorSource::Process(gp) => write!(f, "process {gp}"),
            ErrorSource::Partition(p) => write!(f, "partition {p}"),
            ErrorSource::Module => f.write_str("module"),
        }
    }
}

/// The level at which an error is handled (Sect. 2.4): process-level errors
/// invoke the application error handler; partition-level errors trigger the
/// integration-time response action; module-level errors may stop or
/// reinitialise the whole system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ErrorLevel {
    /// Handled inside the partition by the application error handler.
    Process,
    /// Handled by the partition-level response action.
    Partition,
    /// Handled at whole-module scope.
    Module,
}

impl fmt::Display for ErrorLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorLevel::Process => "process",
            ErrorLevel::Partition => "partition",
            ErrorLevel::Module => "module",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use air_model::ids::ProcessId;

    #[test]
    fn all_covers_every_variant_once() {
        let mut sorted = ErrorId::ALL.to_vec();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), ErrorId::ALL.len());
    }

    #[test]
    fn source_partition_extraction() {
        let gp = GlobalProcessId::new(PartitionId(2), ProcessId(0));
        assert_eq!(ErrorSource::Process(gp).partition(), Some(PartitionId(2)));
        assert_eq!(
            ErrorSource::Partition(PartitionId(1)).partition(),
            Some(PartitionId(1))
        );
        assert_eq!(ErrorSource::Module.partition(), None);
    }

    #[test]
    fn levels_order_by_severity_scope() {
        assert!(ErrorLevel::Process < ErrorLevel::Partition);
        assert!(ErrorLevel::Partition < ErrorLevel::Module);
    }

    #[test]
    fn display_strings() {
        assert_eq!(ErrorId::DeadlineMissed.to_string(), "deadline missed");
        assert_eq!(ErrorLevel::Module.to_string(), "module");
        assert_eq!(
            ErrorSource::Partition(PartitionId(0)).to_string(),
            "partition P0"
        );
    }
}
