//! # air-pos — partition operating systems
//!
//! "AIR foresees the possibility that each partition runs a different
//! operating system, henceforth called Partition Operating System (POS)"
//! (Sect. 2). This crate provides one process table, [`PartitionOs`],
//! whose [`PosKind`] picks the kernel it behaves as:
//!
//! * [`PosKind::RealTime`] — the RTEMS-like POS the prototype's four
//!   partitions run (Sect. 6): a preemptive, priority-driven process
//!   scheduler with FIFO ordering within equal priorities, implementing
//!   exactly the heir rule of Eq. (14)/(15) via
//!   [`air_model::ready::select_heir`]; delays, suspensions, and periodic
//!   release points;
//! * [`PosKind::GenericNonRealTime`] — the embedded-Linux stand-in of
//!   Sect. 2.5: a round-robin kernel with no deadline or priority support.
//!   Its ready rule is the same heir rule with one priority for every
//!   process, so admission order alone decides, and a quantum rotation
//!   sends the oldest ready process to the back. The real-time-only
//!   services return [`PosError::UnsupportedService`], mirroring "the lack
//!   of relevant functions" porting issues the paper discusses (in the
//!   other direction).
//!
//! The process-management scope is **restricted to the partition**
//! (Sect. 3.3): nothing in this crate knows about other partitions,
//! schedules, or global time beyond the tick counts announced to it — the
//! PMK and PAL own those.

#![warn(missing_docs)]

pub mod error;
pub mod pcb;

use std::collections::HashMap;

use air_model::ids::ProcessId;
use air_model::partition::PosKind;
use air_model::process::{Priority, ProcessAttributes, ProcessState, ProcessStatus};
use air_model::ready::{select_heir, ReadyCandidate};
use air_model::Ticks;

pub use error::PosError;
use pcb::ProcessControlBlock;
pub use pcb::{WaitReason, WakeCause};

/// Per-partition process limit of the real-time kind (ARINC 653 systems fix
/// this at configuration time). The generic kind has none.
pub const MAX_PROCESSES: usize = 32;

/// Round-robin quantum of the generic kind, in ticks.
pub const QUANTUM: u64 = 10;

/// The first release point after `now`: one period past `base` (the
/// previous release), or — when the process overran past that instant —
/// the first later multiple of `period` from `base` (the deadline monitor
/// has already caught the overrun). Closed form, saturating at
/// [`Ticks::MAX`]; `period` must be non-zero.
fn next_release(base: Ticks, period: Ticks, now: Ticks) -> Ticks {
    let (base, period, now) = (base.as_u64(), period.as_u64(), now.as_u64());
    let next = base.saturating_add(period);
    if next > now {
        return Ticks(next);
    }
    let periods = (now - base) / period + 1;
    Ticks(base.saturating_add(period.saturating_mul(periods)))
}

/// The partition operating system the AIR stack drives.
///
/// The APEX Core Layer invokes its services (optionally through the PAL,
/// Sect. 2.3: "an optimized implementation may invoke directly the native
/// (RT)OS service primitives"); the PMK invokes
/// [`announce_ticks`](PartitionOs::announce_ticks) and
/// [`select_heir`](PartitionOs::select_heir) when the partition is
/// dispatched and while it executes.
///
/// Every state-changing service returns [`PosError`] on an invalid
/// transition (ARINC 653 `INVALID_MODE` / `NO_ACTION` analogues) so the
/// APEX layer can map it to a return code.
///
/// # Examples
///
/// ```
/// use air_pos::PartitionOs;
/// use air_model::partition::PosKind;
/// use air_model::process::{Priority, ProcessAttributes};
/// use air_model::Ticks;
///
/// let mut pos = PartitionOs::new(PosKind::RealTime);
/// let p = pos.create_process(
///     ProcessAttributes::new("ctl").with_base_priority(Priority(5)),
/// )?;
/// pos.start(p, Ticks(0))?;
/// assert_eq!(pos.select_heir(Ticks(0)), Some(p));
/// # Ok::<(), air_pos::PosError>(())
/// ```
#[derive(Debug)]
pub struct PartitionOs {
    kind: PosKind,
    processes: Vec<ProcessControlBlock>,
    names: HashMap<String, ProcessId>,
    /// Monotonic admission stamp source: the antiquity of Eq. 14.
    next_stamp: u64,
    /// The process in the running state, if any.
    running: Option<ProcessId>,
    /// Ticks announced since the generic kind's last rotation or yield.
    slice_used: u64,
    /// The last announced instant, for the slice accounting.
    last_now: Ticks,
}

impl PartitionOs {
    /// Creates an empty POS of `kind`.
    pub fn new(kind: PosKind) -> Self {
        Self {
            kind,
            processes: Vec::new(),
            names: HashMap::new(),
            next_stamp: 0,
            running: None,
            slice_used: 0,
            last_now: Ticks::ZERO,
        }
    }

    fn pcb(&self, id: ProcessId) -> Result<&ProcessControlBlock, PosError> {
        self.processes
            .get(id.as_usize())
            .ok_or(PosError::UnknownProcess(id))
    }

    fn pcb_mut(&mut self, id: ProcessId) -> Result<&mut ProcessControlBlock, PosError> {
        self.processes
            .get_mut(id.as_usize())
            .ok_or(PosError::UnknownProcess(id))
    }

    fn stamp(&mut self) -> u64 {
        let s = self.next_stamp;
        self.next_stamp += 1;
        s
    }

    /// Moves a PCB to ready with a fresh admission stamp.
    fn make_ready(pcb: &mut ProcessControlBlock, stamp: u64) {
        pcb.state = ProcessState::Ready;
        pcb.wait_reason = None;
        pcb.ready_since = stamp;
    }

    /// Clears `running` when `process` leaves the CPU.
    fn release_cpu(&mut self, process: ProcessId) {
        if self.running == Some(process) {
            self.running = None;
        }
    }

    fn is_generic(&self) -> bool {
        self.kind == PosKind::GenericNonRealTime
    }

    /// The heir under this kind's ready rule: Eq. 14 over (current
    /// priority, admission stamp); the generic kind gives every process
    /// one priority, so the oldest ready process wins.
    fn heir(&self) -> Option<ProcessId> {
        let generic = self.is_generic();
        select_heir(self.processes.iter().map(|p| ReadyCandidate {
            id: p.id,
            current_priority: if generic {
                Priority::LOWEST
            } else {
                p.current_priority
            },
            state: p.state,
            ready_since: p.ready_since,
        }))
    }

    /// The kind of POS (real-time or generic), for configuration checks.
    pub fn kind(&self) -> PosKind {
        self.kind
    }

    /// Creates a process from `attrs`, returning its identifier. Processes
    /// are created dormant (Eq. 13).
    pub fn create_process(&mut self, attrs: ProcessAttributes) -> Result<ProcessId, PosError> {
        if !self.is_generic() && self.processes.len() >= MAX_PROCESSES {
            return Err(PosError::TooManyProcesses {
                limit: MAX_PROCESSES,
            });
        }
        if self.names.contains_key(attrs.name()) {
            return Err(PosError::DuplicateName);
        }
        let id = ProcessId(self.processes.len() as u32);
        self.names.insert(attrs.name().to_owned(), id);
        self.processes.push(ProcessControlBlock::new(id, attrs));
        Ok(id)
    }

    /// Starts a dormant process: ready immediately, current priority reset
    /// to base.
    pub fn start(&mut self, process: ProcessId, now: Ticks) -> Result<(), PosError> {
        let stamp = self.stamp();
        let pcb = self.pcb_mut(process)?;
        if pcb.state != ProcessState::Dormant {
            return Err(PosError::InvalidState(process));
        }
        pcb.current_priority = pcb.attributes.base_priority();
        pcb.last_release = Some(now);
        Self::make_ready(pcb, stamp);
        Ok(())
    }

    /// Starts a dormant process after `delay` ticks: it waits until
    /// `now + delay`, then becomes ready. Returns that release point (`now`
    /// for a zero delay, which is a plain [`start`](PartitionOs::start)).
    pub fn delayed_start(
        &mut self,
        process: ProcessId,
        delay: Ticks,
        now: Ticks,
    ) -> Result<Ticks, PosError> {
        if delay.is_zero() {
            return self.start(process, now).map(|()| now);
        }
        let pcb = self.pcb_mut(process)?;
        if pcb.state != ProcessState::Dormant {
            return Err(PosError::InvalidState(process));
        }
        let release = now + delay;
        pcb.current_priority = pcb.attributes.base_priority();
        pcb.state = ProcessState::Waiting;
        pcb.wait_reason = Some(WaitReason::DelayedStart { release });
        Ok(release)
    }

    /// Stops a process: dormant, ineligible for resources.
    pub fn stop(&mut self, process: ProcessId) -> Result<(), PosError> {
        let pcb = self.pcb_mut(process)?;
        if pcb.state == ProcessState::Dormant {
            return Err(PosError::InvalidState(process));
        }
        pcb.make_dormant();
        self.release_cpu(process);
        Ok(())
    }

    /// Moves a started process to the waiting state for `reason`.
    fn wait(&mut self, process: ProcessId, reason: WaitReason) -> Result<(), PosError> {
        let pcb = self.pcb_mut(process)?;
        if !pcb.state.is_schedulable() {
            return Err(PosError::InvalidState(process));
        }
        pcb.state = ProcessState::Waiting;
        pcb.wait_reason = Some(reason);
        self.release_cpu(process);
        Ok(())
    }

    /// Suspends a started process until [`resume`](PartitionOs::resume).
    pub fn suspend(&mut self, process: ProcessId) -> Result<(), PosError> {
        self.wait(process, WaitReason::Suspended)
    }

    /// Resumes a suspended process.
    pub fn resume(&mut self, process: ProcessId, _now: Ticks) -> Result<(), PosError> {
        self.wake(process, |reason| reason == WaitReason::Suspended)
    }

    /// Makes a process waiting for a reason `matches` accepts ready again,
    /// woken by another process.
    fn wake(
        &mut self,
        process: ProcessId,
        matches: impl Fn(WaitReason) -> bool,
    ) -> Result<(), PosError> {
        let stamp = self.stamp();
        let pcb = self.pcb_mut(process)?;
        if !pcb.wait_reason.is_some_and(matches) {
            return Err(PosError::InvalidState(process));
        }
        pcb.pending_wake_cause = Some(WakeCause::Unblocked);
        Self::make_ready(pcb, stamp);
        Ok(())
    }

    /// Changes the current priority of a started process. Real-time kind
    /// only.
    pub fn set_priority(&mut self, process: ProcessId, priority: Priority) -> Result<(), PosError> {
        if self.is_generic() {
            return Err(PosError::UnsupportedService("SET_PRIORITY"));
        }
        let stamp = self.stamp();
        let pcb = self.pcb_mut(process)?;
        if pcb.state == ProcessState::Dormant {
            return Err(PosError::InvalidState(process));
        }
        pcb.current_priority = priority;
        // ARINC: the process moves to the newest position of its new
        // priority, i.e. it loses its antiquity.
        if pcb.state.is_schedulable() {
            pcb.ready_since = stamp;
        }
        Ok(())
    }

    /// Suspends a periodic process until its next release point; returns
    /// that release point. Real-time kind only.
    pub fn periodic_wait(&mut self, process: ProcessId, now: Ticks) -> Result<Ticks, PosError> {
        if self.is_generic() {
            return Err(PosError::UnsupportedService("PERIODIC_WAIT"));
        }
        let pcb = self.pcb(process)?;
        if !pcb.state.is_schedulable() {
            return Err(PosError::InvalidState(process));
        }
        let Some(period) = pcb.attributes.recurrence().period() else {
            return Err(PosError::NotPeriodic(process));
        };
        if period.is_zero() {
            return Err(PosError::ZeroPeriod(process));
        }
        let release = next_release(pcb.last_release.unwrap_or(now), period, now);
        self.wait(process, WaitReason::NextRelease { release })?;
        Ok(release)
    }

    /// Puts the running process to sleep for `delay` ticks (`TIMED_WAIT`).
    /// A zero delay is a yield: the process moves behind every ready
    /// process of its priority, and the generic kind's slice restarts.
    pub fn timed_wait(
        &mut self,
        process: ProcessId,
        delay: Ticks,
        now: Ticks,
    ) -> Result<(), PosError> {
        let stamp = self.stamp();
        let pcb = self.pcb_mut(process)?;
        if !pcb.state.is_schedulable() {
            return Err(PosError::InvalidState(process));
        }
        if delay.is_zero() {
            Self::make_ready(pcb, stamp);
            self.slice_used = 0;
        } else {
            pcb.state = ProcessState::Waiting;
            pcb.wait_reason = Some(WaitReason::Delay { until: now + delay });
        }
        self.release_cpu(process);
        Ok(())
    }

    /// Blocks a process on a synchronisation object (APEX buffers,
    /// semaphores, events…), optionally with a timeout instant.
    pub fn block(
        &mut self,
        process: ProcessId,
        timeout: Option<Ticks>,
        _now: Ticks,
    ) -> Result<(), PosError> {
        self.wait(process, WaitReason::Synchronisation { timeout })
    }

    /// Unblocks a process blocked via [`block`](PartitionOs::block).
    pub fn unblock(&mut self, process: ProcessId, _now: Ticks) -> Result<(), PosError> {
        self.wake(process, |reason| {
            matches!(reason, WaitReason::Synchronisation { .. })
        })
    }

    /// Consumes the wake cause recorded when `process` last left the
    /// waiting state (timeout vs explicit unblock) — APEX uses it to
    /// return `TIMED_OUT` versus success.
    pub fn take_wake_cause(&mut self, process: ProcessId) -> Option<WakeCause> {
        self.pcb_mut(process).ok()?.pending_wake_cause.take()
    }

    /// Announces that time advanced to `now`: charges the elapsed ticks to
    /// the current slice and wakes every sleeper whose wake-up instant has
    /// arrived (delays, timeouts, periodic releases), in process order.
    /// Called from the PAL surrogate announcement (Algorithm 3 line 1).
    pub fn announce_ticks(&mut self, now: Ticks) {
        let elapsed = now.saturating_sub(self.last_now);
        self.last_now = now;
        self.slice_used = self.slice_used.saturating_add(elapsed.as_u64());

        for idx in 0..self.processes.len() {
            let Some(wake_at) = self.processes[idx].wake_at() else {
                continue;
            };
            if wake_at > now {
                continue;
            }
            let stamp = self.stamp();
            let pcb = &mut self.processes[idx];
            let cause = match pcb.wait_reason {
                Some(WaitReason::NextRelease { release })
                | Some(WaitReason::DelayedStart { release }) => {
                    pcb.last_release = Some(release);
                    WakeCause::Released
                }
                _ => WakeCause::Timeout,
            };
            pcb.pending_wake_cause = Some(cause);
            Self::make_ready(pcb, stamp);
        }
    }

    /// Selects the heir process per the kind's ready rule and marks it
    /// running. Returns `None` when no process is schedulable.
    ///
    /// For the generic kind, once the slice has used up [`QUANTUM`] ticks
    /// and another process is ready, the oldest ready process is
    /// re-stamped (sent to the back of the round-robin queue) first.
    pub fn select_heir(&mut self, _now: Ticks) -> Option<ProcessId> {
        let mut heir = self.heir();
        if self.is_generic()
            && self.slice_used >= QUANTUM
            && self
                .processes
                .iter()
                .filter(|p| p.state.is_schedulable())
                .count()
                > 1
        {
            if let Some(oldest) = heir {
                let stamp = self.stamp();
                self.processes[oldest.as_usize()].ready_since = stamp;
                self.slice_used = 0;
                heir = self.heir();
            }
        }
        for pcb in &mut self.processes {
            if Some(pcb.id) == heir {
                pcb.state = ProcessState::Running;
            } else if pcb.state == ProcessState::Running {
                // Preempted: back to ready, antiquity preserved (it was the
                // oldest of its priority and remains so).
                pcb.state = ProcessState::Ready;
            }
        }
        self.running = heir;
        heir
    }

    /// The process currently marked running, if any (used by the APEX
    /// preemption-lock path to keep the CPU with the locker).
    pub fn running(&self) -> Option<ProcessId> {
        self.running
    }

    /// Current status of `process` (Eq. 12). The POS keeps no deadline, so
    /// `absolute_deadline` is `None`: the PAL owns `D′`.
    pub fn status(&self, process: ProcessId) -> Option<ProcessStatus> {
        self.pcb(process).ok().map(|p| p.status())
    }

    /// Static attributes of `process`.
    pub fn attributes(&self, process: ProcessId) -> Option<&ProcessAttributes> {
        self.pcb(process).ok().map(|p| &p.attributes)
    }

    /// Looks a process up by its configured name.
    pub fn process_by_name(&self, name: &str) -> Option<ProcessId> {
        self.names.get(name).copied()
    }

    /// Number of created processes.
    pub fn process_count(&self) -> usize {
        self.processes.len()
    }

    /// Partition restart: every process returns to dormant, pending state
    /// is discarded. Creation survives (the configuration is static).
    pub fn reset(&mut self) {
        for pcb in &mut self.processes {
            pcb.make_dormant();
        }
        self.running = None;
        self.slice_used = 0;
    }
}

// The unit tests, one module per kind.
mod generic;
mod rtos;
