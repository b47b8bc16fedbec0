//! Intra-partition heir selection: Eq. (14)–(15) of the paper.
//!
//! Inside each partition, processes compete for the CPU during the
//! partition's time windows under a preemptive priority-driven policy, the
//! algorithm mandated by ARINC 653. The heir process is
//!
//! ```text
//! heir_m(t) = τ_{m,h} ∈ Ready_m(t) |
//!     (p′_h < p′_q) ∨ (p′_h = p′_q ∧ h older than q)   ∀ τ_q ∈ Ready_m(t)
//! ```
//!
//! i.e. the highest-priority schedulable process; ties broken by antiquity
//! in the ready state (FIFO within priority). This module provides the rule
//! as a pure function so both the model-side analyses and the `air-pos`
//! RTOS scheduler share one implementation, and conformance between them is
//! trivially exact.

use crate::ids::ProcessId;
use crate::process::{Priority, ProcessState};

/// A view of one process as needed by the heir-selection rule.
///
/// `ready_since` orders processes by antiquity in the ready state: smaller
/// means the process entered `ready` earlier. The paper assumes processes
/// are "sorted in decreasing order of antiquity"; we realise that with a
/// monotonically increasing admission stamp issued by the POS whenever a
/// process (re-)enters the ready state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadyCandidate {
    /// The process identifier `q` within the partition.
    pub id: ProcessId,
    /// Current priority `p′_{m,q}(t)`.
    pub current_priority: Priority,
    /// Current state `St_{m,q}(t)`.
    pub state: ProcessState,
    /// Admission stamp: when the process last entered the ready state
    /// (smaller = older = preferred among equal priorities).
    pub ready_since: u64,
}

impl ReadyCandidate {
    /// Whether the candidate belongs to `Ready_m(t)` (Eq. 15).
    #[inline]
    pub fn is_schedulable(&self) -> bool {
        self.state.is_schedulable()
    }

    /// `true` when `self` beats `other` under Eq. (14):
    /// strictly more urgent priority, or equal priority and older.
    ///
    /// Ties on both priority *and* antiquity are broken by the process
    /// index, matching the paper's `h < q` clause.
    #[inline]
    pub fn beats(&self, other: &ReadyCandidate) -> bool {
        if self.current_priority != other.current_priority {
            return self
                .current_priority
                .is_more_urgent_than(other.current_priority);
        }
        if self.ready_since != other.ready_since {
            return self.ready_since < other.ready_since;
        }
        self.id < other.id
    }
}

/// Selects `heir_m(t)` among `candidates` per Eq. (14): the schedulable
/// process with the most urgent current priority, ties broken by antiquity
/// in the ready state, then by process index.
///
/// Returns `None` when `Ready_m(t)` is empty (the partition idles for the
/// remainder of its window).
///
/// # Examples
///
/// ```
/// use air_model::ready::{select_heir, ReadyCandidate};
/// use air_model::process::{Priority, ProcessState};
/// use air_model::ids::ProcessId;
///
/// let candidates = [
///     ReadyCandidate { id: ProcessId(0), current_priority: Priority(5),
///                      state: ProcessState::Ready, ready_since: 10 },
///     ReadyCandidate { id: ProcessId(1), current_priority: Priority(2),
///                      state: ProcessState::Ready, ready_since: 20 },
/// ];
/// assert_eq!(select_heir(candidates.iter().copied()), Some(ProcessId(1)));
/// ```
pub fn select_heir<I>(candidates: I) -> Option<ProcessId>
where
    I: IntoIterator<Item = ReadyCandidate>,
{
    let mut best: Option<ReadyCandidate> = None;
    for c in candidates {
        if !c.is_schedulable() {
            continue;
        }
        match &best {
            None => best = Some(c),
            Some(b) if c.beats(b) => best = Some(c),
            Some(_) => {}
        }
    }
    best.map(|c| c.id)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(id: u32, prio: u8, state: ProcessState, since: u64) -> ReadyCandidate {
        ReadyCandidate {
            id: ProcessId(id),
            current_priority: Priority(prio),
            state,
            ready_since: since,
        }
    }

    #[test]
    fn empty_ready_set_yields_none() {
        assert_eq!(select_heir(std::iter::empty()), None);
        // Only unschedulable states present.
        let cs = [
            cand(0, 1, ProcessState::Dormant, 0),
            cand(1, 1, ProcessState::Waiting, 0),
        ];
        assert_eq!(select_heir(cs.iter().copied()), None);
    }

    #[test]
    fn highest_priority_wins() {
        let cs = [
            cand(0, 9, ProcessState::Ready, 0),
            cand(1, 1, ProcessState::Ready, 100),
            cand(2, 5, ProcessState::Running, 50),
        ];
        assert_eq!(select_heir(cs.iter().copied()), Some(ProcessId(1)));
    }

    #[test]
    fn running_process_competes_with_ready_ones() {
        // Eq. 15: Ready_m(t) includes the running process.
        let cs = [
            cand(0, 5, ProcessState::Running, 0),
            cand(1, 5, ProcessState::Ready, 10),
        ];
        // Equal priority: the older (the running one, admitted earlier) wins.
        assert_eq!(select_heir(cs.iter().copied()), Some(ProcessId(0)));
    }

    #[test]
    fn preemption_by_more_urgent_arrival() {
        let cs = [
            cand(0, 5, ProcessState::Running, 0),
            cand(1, 2, ProcessState::Ready, 10),
        ];
        assert_eq!(select_heir(cs.iter().copied()), Some(ProcessId(1)));
    }

    #[test]
    fn fifo_within_priority() {
        let cs = [
            cand(3, 4, ProcessState::Ready, 30),
            cand(1, 4, ProcessState::Ready, 10),
            cand(2, 4, ProcessState::Ready, 20),
        ];
        assert_eq!(select_heir(cs.iter().copied()), Some(ProcessId(1)));
    }

    #[test]
    fn index_breaks_exact_ties() {
        // Same priority and same admission stamp → the paper's h < q clause.
        let cs = [
            cand(7, 4, ProcessState::Ready, 10),
            cand(2, 4, ProcessState::Ready, 10),
        ];
        assert_eq!(select_heir(cs.iter().copied()), Some(ProcessId(2)));
    }

    #[test]
    fn waiting_and_dormant_excluded() {
        let cs = [
            cand(0, 0, ProcessState::Waiting, 0),
            cand(1, 0, ProcessState::Dormant, 0),
            cand(2, 200, ProcessState::Ready, 0),
        ];
        assert_eq!(select_heir(cs.iter().copied()), Some(ProcessId(2)));
    }
}
