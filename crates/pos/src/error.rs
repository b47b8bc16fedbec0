//! POS service errors.

use std::fmt;

use air_model::ids::ProcessId;

/// Errors returned by [`crate::PartitionOs`] services; the APEX layer
/// maps them onto ARINC 653 return codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum PosError {
    /// The process identifier does not name a created process.
    UnknownProcess(ProcessId),
    /// The operation is invalid in the process's current state (e.g.
    /// starting a non-dormant process, resuming a process that is not
    /// suspended).
    InvalidState(ProcessId),
    /// The operation only applies to periodic processes.
    NotPeriodic(ProcessId),
    /// The periodic process has a zero period: it has no next release
    /// point.
    ZeroPeriod(ProcessId),
    /// The POS does not offer this service (generic non-real-time POS
    /// asked for a real-time service, Sect. 2.5).
    UnsupportedService(&'static str),
    /// The per-partition process limit was reached.
    TooManyProcesses {
        /// The configured limit.
        limit: usize,
    },
    /// A process with this name already exists in the partition.
    DuplicateName,
}

impl fmt::Display for PosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PosError::UnknownProcess(p) => write!(f, "unknown process {p}"),
            PosError::InvalidState(p) => {
                write!(f, "operation invalid in the current state of {p}")
            }
            PosError::NotPeriodic(p) => write!(f, "{p} is not a periodic process"),
            PosError::ZeroPeriod(p) => write!(f, "{p} has a zero period"),
            PosError::UnsupportedService(name) => {
                write!(f, "service {name} is not provided by this POS")
            }
            PosError::TooManyProcesses { limit } => {
                write!(f, "partition process limit of {limit} reached")
            }
            PosError::DuplicateName => f.write_str("a process with this name already exists"),
        }
    }
}

impl std::error::Error for PosError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        assert_eq!(
            PosError::UnknownProcess(ProcessId(3)).to_string(),
            "unknown process tau3"
        );
        assert!(PosError::UnsupportedService("PERIODIC_WAIT")
            .to_string()
            .contains("PERIODIC_WAIT"));
    }

    #[test]
    fn is_send_sync_error() {
        fn check<E: std::error::Error + Send + Sync + 'static>() {}
        check::<PosError>();
    }
}
