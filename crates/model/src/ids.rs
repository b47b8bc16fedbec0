//! Identifier newtypes for the entities of an AIR system.
//!
//! Identifiers are small integers assigned at system integration time (they
//! index configuration tables), wrapped in dedicated types so that a
//! partition index can never be passed where a process index is expected
//! ([C-NEWTYPE]).
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// Returns the raw index value.
            #[inline]
            pub const fn as_u32(self) -> u32 {
                self.0
            }

            /// Returns the identifier as a `usize`, for indexing tables.
            #[inline]
            pub const fn as_usize(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(value: u32) -> Self {
                Self(value)
            }
        }

        impl From<$name> for u32 {
            fn from(value: $name) -> u32 {
                value.0
            }
        }
    };
}

id_type!(
    /// Identifies a partition `P_m` within the system's partition set `P`.
    ///
    /// The paper numbers partitions from 1 (`P_1 … P_4` in the prototype);
    /// this type is zero-based as is idiomatic for table indices, and the
    /// pretty-printer follows the paper's convention (`P1` is `PartitionId(0)`
    /// displayed as `P0`; the prototype preset uses explicit labels).
    PartitionId,
    "P"
);

id_type!(
    /// Identifies a process `τ_{m,q}` *within its partition*.
    ///
    /// Process management scope is restricted to the partition (Sect. 3.3),
    /// so a `ProcessId` is only meaningful together with a [`PartitionId`].
    ProcessId,
    "tau"
);

id_type!(
    /// Identifies a partition scheduling table `χ_i` in the schedule set `χ`.
    ScheduleId,
    "chi"
);

id_type!(
    /// Identifies an interpartition communication port (APEX sampling or
    /// queuing port) within its owning partition.
    PortId,
    "port"
);

/// A fully-qualified process name: the pair `(m, q)` of Eq. (10).
///
/// # Examples
///
/// ```
/// use air_model::ids::{GlobalProcessId, PartitionId, ProcessId};
///
/// let gp = GlobalProcessId::new(PartitionId(0), ProcessId(2));
/// assert_eq!(gp.to_string(), "P0/tau2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalProcessId {
    /// The owning partition `P_m`.
    pub partition: PartitionId,
    /// The process index `q` within the partition's task set `τ_m`.
    pub process: ProcessId,
}

impl GlobalProcessId {
    /// Creates a fully-qualified process identifier.
    pub const fn new(partition: PartitionId, process: ProcessId) -> Self {
        Self { partition, process }
    }
}

impl fmt::Display for GlobalProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.partition, self.process)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_distinct_types() {
        // This is a compile-time property; here we just exercise conversions.
        let p: PartitionId = 3u32.into();
        assert_eq!(u32::from(p), 3);
        assert_eq!(p.as_usize(), 3);
        assert_eq!(p.to_string(), "P3");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(ProcessId(1) < ProcessId(2));
        assert!(ScheduleId(0) < ScheduleId(1));
    }

    #[test]
    fn global_process_id_display_and_order() {
        let a = GlobalProcessId::new(PartitionId(0), ProcessId(1));
        let b = GlobalProcessId::new(PartitionId(1), ProcessId(0));
        assert!(a < b);
        assert_eq!(a.to_string(), "P0/tau1");
    }
}
