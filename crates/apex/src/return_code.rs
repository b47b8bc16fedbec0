//! ARINC 653 return codes and the APEX error type.

use std::fmt;

use air_ports::PortError;
use air_pos::PosError;

/// The ARINC 653 `RETURN_CODE` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReturnCode {
    /// The request is valid and was performed.
    NoError,
    /// The system is in a state that renders the request useless (e.g.
    /// starting an already-started process).
    NoAction,
    /// The request cannot be performed now (resource busy/empty/full).
    NotAvailable,
    /// A parameter is invalid.
    InvalidParam,
    /// A parameter is incompatible with the system configuration.
    InvalidConfig,
    /// The request is invalid in the current operating mode.
    InvalidMode,
    /// A time-bounded wait expired.
    TimedOut,
}

impl fmt::Display for ReturnCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ReturnCode::NoError => "NO_ERROR",
            ReturnCode::NoAction => "NO_ACTION",
            ReturnCode::NotAvailable => "NOT_AVAILABLE",
            ReturnCode::InvalidParam => "INVALID_PARAM",
            ReturnCode::InvalidConfig => "INVALID_CONFIG",
            ReturnCode::InvalidMode => "INVALID_MODE",
            ReturnCode::TimedOut => "TIMED_OUT",
        };
        f.write_str(s)
    }
}

/// An APEX service failure: the return code plus the service that raised
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApexError {
    /// The ARINC 653 return code.
    pub code: ReturnCode,
    /// The APEX service name (e.g. `"START"`).
    pub service: &'static str,
}

impl ApexError {
    /// Creates an error for `service` with `code`.
    pub const fn new(service: &'static str, code: ReturnCode) -> Self {
        Self { code, service }
    }
}

impl fmt::Display for ApexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} returned {}", self.service, self.code)
    }
}

impl std::error::Error for ApexError {}

/// Shorthand result type for APEX services.
pub type ApexResult<T> = Result<T, ApexError>;

/// Maps a POS error onto the ARINC 653 return code for `service`.
pub(crate) fn from_pos(service: &'static str, err: PosError) -> ApexError {
    let code = match err {
        PosError::UnknownProcess(_) => ReturnCode::InvalidParam,
        PosError::InvalidState(_) => ReturnCode::NoAction,
        PosError::NotPeriodic(_) => ReturnCode::InvalidMode,
        PosError::UnsupportedService(_) => ReturnCode::NotAvailable,
        PosError::TooManyProcesses { .. } | PosError::DuplicateName | PosError::ZeroPeriod(_) => {
            ReturnCode::InvalidConfig
        }
        _ => ReturnCode::InvalidParam,
    };
    ApexError::new(service, code)
}

/// Maps a port error onto the ARINC 653 return code for `service`.
pub(crate) fn from_port(service: &'static str, err: PortError) -> ApexError {
    let code = match err {
        PortError::UnknownPort { .. }
        | PortError::DuplicatePort { .. }
        | PortError::BadChannel { .. } => ReturnCode::InvalidConfig,
        PortError::WrongDirection => ReturnCode::InvalidMode,
        PortError::MessageTooLarge { .. } | PortError::EmptyMessage => ReturnCode::InvalidParam,
        PortError::QueueFull | PortError::NoMessage => ReturnCode::NotAvailable,
        _ => ReturnCode::InvalidParam,
    };
    ApexError::new(service, code)
}

#[cfg(test)]
mod tests {
    use super::*;
    use air_model::ids::ProcessId;

    #[test]
    fn pos_error_mapping() {
        assert_eq!(
            from_pos("START", PosError::UnknownProcess(ProcessId(0))).code,
            ReturnCode::InvalidParam
        );
        assert_eq!(
            from_pos("START", PosError::InvalidState(ProcessId(0))).code,
            ReturnCode::NoAction
        );
        assert_eq!(
            from_pos("PERIODIC_WAIT", PosError::NotPeriodic(ProcessId(0))).code,
            ReturnCode::InvalidMode
        );
        assert_eq!(
            from_pos("SET_PRIORITY", PosError::UnsupportedService("X")).code,
            ReturnCode::NotAvailable
        );
    }

    #[test]
    fn port_error_mapping() {
        assert_eq!(
            from_port("SEND_QUEUING_MESSAGE", PortError::QueueFull).code,
            ReturnCode::NotAvailable
        );
        assert_eq!(
            from_port("READ_SAMPLING_MESSAGE", PortError::NoMessage).code,
            ReturnCode::NotAvailable
        );
        assert_eq!(
            from_port(
                "WRITE_SAMPLING_MESSAGE",
                PortError::MessageTooLarge { len: 9, max: 4 }
            )
            .code,
            ReturnCode::InvalidParam
        );
    }

    #[test]
    fn display() {
        let e = ApexError::new("START", ReturnCode::NoAction);
        assert_eq!(e.to_string(), "START returned NO_ACTION");
    }
}
