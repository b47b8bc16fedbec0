//! The deadline-violation set `V(t)`: Eq. (24) of the paper.
//!
//! ```text
//! V(t) = ⋃_{m=1}^{n(P)} { τ_{m,q} ∈ τ_m | D_{m,q} ≠ ∞ ∧ D′_{m,q}(t) < t }
//! ```
//!
//! The `D ≠ ∞` condition "translates the fact that the notion of deadline
//! violation does not apply to non-real-time processes" (Sect. 5.1). This
//! module computes `V(t)` over a model snapshot; the runtime detector in
//! `air-pal` is checked against it in the integration suite.

use crate::ids::GlobalProcessId;
use crate::process::{Deadline, ProcessStatus};
use crate::time::Ticks;

/// A snapshot row: one process's static deadline and current status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessSnapshot {
    /// Fully-qualified process identifier `(m, q)`.
    pub id: GlobalProcessId,
    /// The static relative deadline `D_{m,q}`.
    pub deadline: Deadline,
    /// The process status `S_{m,q}(t)` at the snapshot instant.
    pub status: ProcessStatus,
}

/// Computes `V(t)` (Eq. 24): the processes that, at instant `t`, have a
/// finite deadline whose armed absolute deadline time has passed.
///
/// Processes whose deadline is not currently armed (dormant, or between
/// activations) have `status.absolute_deadline = None` and are never in
/// `V(t)`.
///
/// # Examples
///
/// ```
/// use air_model::violation::{violated_at, ProcessSnapshot};
/// use air_model::ids::{GlobalProcessId, PartitionId, ProcessId};
/// use air_model::process::{Deadline, Priority, ProcessState, ProcessStatus};
/// use air_model::Ticks;
///
/// let late = ProcessSnapshot {
///     id: GlobalProcessId::new(PartitionId(0), ProcessId(0)),
///     deadline: Deadline::relative(Ticks(10)),
///     status: ProcessStatus {
///         absolute_deadline: Some(Ticks(99)),
///         current_priority: Priority(1),
///         state: ProcessState::Ready,
///     },
/// };
/// assert_eq!(violated_at([late], Ticks(100)).len(), 1);
/// ```
pub fn violated_at<I>(snapshot: I, t: Ticks) -> Vec<GlobalProcessId>
where
    I: IntoIterator<Item = ProcessSnapshot>,
{
    snapshot
        .into_iter()
        .filter(|p| p.deadline.is_finite() && p.status.has_violated_deadline_at(t))
        .map(|p| p.id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{PartitionId, ProcessId};
    use crate::process::{Priority, ProcessState};

    fn snap(m: u32, q: u32, deadline: Deadline, armed: Option<u64>) -> ProcessSnapshot {
        ProcessSnapshot {
            id: GlobalProcessId::new(PartitionId(m), ProcessId(q)),
            deadline,
            status: ProcessStatus {
                absolute_deadline: armed.map(Ticks),
                current_priority: Priority(5),
                state: ProcessState::Ready,
            },
        }
    }

    #[test]
    fn infinite_deadline_never_violates() {
        // Even with a (bogus) armed absolute deadline, D = ∞ excludes the
        // process from V(t): the Eq. 24 guard.
        let rows = [snap(0, 0, Deadline::Infinite, Some(1))];
        assert!(violated_at(rows, Ticks(100)).is_empty());
    }

    #[test]
    fn unarmed_deadline_never_violates() {
        let rows = [snap(0, 0, Deadline::relative(Ticks(10)), None)];
        assert!(violated_at(rows, Ticks(100)).is_empty());
    }

    #[test]
    fn strict_inequality_at_boundary() {
        let rows = [snap(0, 0, Deadline::relative(Ticks(10)), Some(100))];
        // D′ = t is not a violation; D′ < t is.
        assert!(violated_at(rows, Ticks(100)).is_empty());
        assert_eq!(violated_at(rows, Ticks(101)).len(), 1);
    }

    #[test]
    fn union_over_partitions() {
        let rows = [
            snap(0, 0, Deadline::relative(Ticks(10)), Some(50)),
            snap(1, 0, Deadline::relative(Ticks(10)), Some(60)),
            snap(2, 0, Deadline::relative(Ticks(10)), Some(500)),
        ];
        let v = violated_at(rows, Ticks(100));
        assert_eq!(v.len(), 2);
        assert!(v.contains(&GlobalProcessId::new(PartitionId(0), ProcessId(0))));
        assert!(v.contains(&GlobalProcessId::new(PartitionId(1), ProcessId(0))));
    }
}
