//! Process control blocks: the runtime state behind `S_{m,q}(t)` (Eq. 12).

use air_model::ids::ProcessId;
use air_model::process::{Priority, ProcessAttributes, ProcessState, ProcessStatus};
use air_model::Ticks;

/// Why a process is in the waiting state (the events of Eq. 13's
/// commentary: "a delay, a semaphore, a period, etc. — or another process
/// resumes it").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitReason {
    /// A `TIMED_WAIT` delay, until the given instant.
    Delay {
        /// Wake-up instant.
        until: Ticks,
    },
    /// A delayed start, becoming ready (released) at the given instant.
    DelayedStart {
        /// The release point.
        release: Ticks,
    },
    /// A `PERIODIC_WAIT`, releasing at the next release point.
    NextRelease {
        /// The release point.
        release: Ticks,
    },
    /// Suspended by `SUSPEND`; only `RESUME` wakes it.
    Suspended,
    /// Blocked on a synchronisation object, with an optional timeout.
    Synchronisation {
        /// Timeout instant, if the wait is bounded.
        timeout: Option<Ticks>,
    },
}

/// How a waiting process woke up — APEX distinguishes `TIMED_OUT` results
/// from successful unblocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeCause {
    /// The wait's timeout or scheduled instant arrived.
    Timeout,
    /// Another process (or APEX service) unblocked/resumed it.
    Unblocked,
    /// A periodic release point arrived.
    Released,
}

/// The runtime control block of one process.
#[derive(Debug, Clone)]
pub(crate) struct ProcessControlBlock {
    /// The process identifier within its partition.
    pub id: ProcessId,
    /// Static attributes (Eq. 11, minus status).
    pub attributes: ProcessAttributes,
    /// Current state `St_{m,q}(t)`.
    pub state: ProcessState,
    /// Current priority `p′_{m,q}(t)`.
    pub current_priority: Priority,
    /// Why the process waits, when `state == Waiting`.
    pub wait_reason: Option<WaitReason>,
    /// How the process last woke, not yet consumed by APEX.
    pub pending_wake_cause: Option<WakeCause>,
    /// Admission stamp for FIFO-within-priority (Eq. 14 antiquity).
    pub ready_since: u64,
    /// The last release point of a periodic process (its period phase).
    pub last_release: Option<Ticks>,
}

impl ProcessControlBlock {
    /// Creates a dormant PCB for `attrs`.
    pub fn new(id: ProcessId, attributes: ProcessAttributes) -> Self {
        let base = attributes.base_priority();
        Self {
            id,
            attributes,
            state: ProcessState::Dormant,
            current_priority: base,
            wait_reason: None,
            pending_wake_cause: None,
            ready_since: 0,
            last_release: None,
        }
    }

    /// The model-level status tuple (Eq. 12), without `D′`: the PAL owns
    /// the deadline, and APEX's `GET_PROCESS_STATUS` reads it from there.
    pub fn status(&self) -> ProcessStatus {
        ProcessStatus {
            absolute_deadline: None,
            current_priority: self.current_priority,
            state: self.state,
        }
    }

    /// The instant at which this waiting process should wake
    /// spontaneously, if its wait is time-bounded.
    pub fn wake_at(&self) -> Option<Ticks> {
        match self.wait_reason? {
            WaitReason::Delay { until } => Some(until),
            WaitReason::DelayedStart { release } => Some(release),
            WaitReason::NextRelease { release } => Some(release),
            WaitReason::Suspended => None,
            WaitReason::Synchronisation { timeout } => timeout,
        }
    }

    /// Resets the PCB to dormant, clearing all transient state (STOP and
    /// partition restart paths).
    pub fn make_dormant(&mut self) {
        self.state = ProcessState::Dormant;
        self.current_priority = self.attributes.base_priority();
        self.wait_reason = None;
        self.pending_wake_cause = None;
        self.last_release = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use air_model::process::Recurrence;

    fn pcb() -> ProcessControlBlock {
        ProcessControlBlock::new(
            ProcessId(0),
            ProcessAttributes::new("t")
                .with_base_priority(Priority(7))
                .with_recurrence(Recurrence::Periodic(Ticks(100))),
        )
    }

    #[test]
    fn new_pcb_is_dormant_at_base_priority() {
        let p = pcb();
        assert_eq!(p.state, ProcessState::Dormant);
        assert_eq!(p.current_priority, Priority(7));
        assert_eq!(p.status().absolute_deadline, None);
    }

    #[test]
    fn wake_at_per_reason() {
        let mut p = pcb();
        p.wait_reason = Some(WaitReason::Delay { until: Ticks(5) });
        assert_eq!(p.wake_at(), Some(Ticks(5)));
        p.wait_reason = Some(WaitReason::Suspended);
        assert_eq!(p.wake_at(), None);
        p.wait_reason = Some(WaitReason::Synchronisation { timeout: None });
        assert_eq!(p.wake_at(), None);
        p.wait_reason = Some(WaitReason::Synchronisation {
            timeout: Some(Ticks(9)),
        });
        assert_eq!(p.wake_at(), Some(Ticks(9)));
        p.wait_reason = None;
        assert_eq!(p.wake_at(), None);
    }

    #[test]
    fn make_dormant_clears_transients() {
        let mut p = pcb();
        p.state = ProcessState::Waiting;
        p.current_priority = Priority(1);
        p.wait_reason = Some(WaitReason::Suspended);
        p.last_release = Some(Ticks(3));
        p.make_dormant();
        assert_eq!(p.state, ProcessState::Dormant);
        assert_eq!(p.current_priority, Priority(7));
        assert_eq!(p.wait_reason, None);
        assert_eq!(p.last_release, None);
    }
}
