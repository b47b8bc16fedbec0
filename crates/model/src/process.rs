//! Processes (tasks) and their status: Eq. 10–13 of the paper.
//!
//! Each partition `P_m` contains a task set `τ_m = {τ_{m,1} … τ_{m,n(τ_m)}}`
//! (Eq. 10), and each process is the tuple
//! `τ_{m,q} = ⟨T_{m,q}, D_{m,q}, p_{m,q}, C_{m,q}, S_{m,q}(t)⟩` (Eq. 11):
//! period (or minimum inter-arrival time), relative deadline, base priority,
//! worst-case execution time, and time-varying status. The status
//! `S_{m,q}(t) = ⟨D′, p′, St⟩` (Eq. 12) carries the absolute deadline time,
//! the current priority, and the process state (Eq. 13).

use std::fmt;

use crate::time::Ticks;

/// Priority of a process. **Lower numerical values are greater priorities**,
/// following the paper's convention for Eq. (14).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Priority(pub u8);

impl Priority {
    /// The most urgent priority.
    pub const HIGHEST: Priority = Priority(0);
    /// The least urgent priority.
    pub const LOWEST: Priority = Priority(u8::MAX);

    /// `true` if `self` is more urgent than `other`
    /// (i.e. numerically smaller).
    #[inline]
    pub const fn is_more_urgent_than(self, other: Priority) -> bool {
        self.0 < other.0
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "prio{}", self.0)
    }
}

impl From<u8> for Priority {
    fn from(value: u8) -> Self {
        Priority(value)
    }
}

/// A relative deadline `D_{m,q}`; `D = ∞` means the process has no deadline
/// (Eq. 11: "If `D_{m,q} = ∞`, then `τ_{m,q}` has no deadlines").
///
/// # Examples
///
/// ```
/// use air_model::{Deadline, Ticks};
///
/// let hard = Deadline::relative(Ticks(650));
/// assert_eq!(hard.absolute_from(Ticks(100)), Some(Ticks(750)));
/// assert_eq!(Deadline::NONE.absolute_from(Ticks(100)), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Deadline {
    /// A finite relative deadline (the ARINC 653 `TIME_CAPACITY`).
    Relative(Ticks),
    /// No deadline (`D = ∞`); the notion of deadline violation does not
    /// apply (the `D_{m,q} ≠ ∞` condition in Eq. 24).
    Infinite,
}

impl Deadline {
    /// Shorthand for [`Deadline::Infinite`].
    pub const NONE: Deadline = Deadline::Infinite;

    /// Creates a finite relative deadline of `capacity` ticks.
    pub const fn relative(capacity: Ticks) -> Self {
        Deadline::Relative(capacity)
    }

    /// Whether the deadline is finite (the process is subject to deadline
    /// violation monitoring).
    #[inline]
    pub const fn is_finite(self) -> bool {
        matches!(self, Deadline::Relative(_))
    }

    /// Computes the absolute deadline `D′ = now + D`, or `None` for `D = ∞`.
    #[inline]
    pub fn absolute_from(self, now: Ticks) -> Option<Ticks> {
        match self {
            Deadline::Relative(d) => Some(now + d),
            Deadline::Infinite => None,
        }
    }

    /// The finite capacity, if any.
    #[inline]
    pub fn capacity(self) -> Option<Ticks> {
        match self {
            Deadline::Relative(d) => Some(d),
            Deadline::Infinite => None,
        }
    }
}

impl Default for Deadline {
    /// Defaults to `Infinite`: a process has no deadline unless one is
    /// configured, matching non-real-time processes.
    fn default() -> Self {
        Deadline::Infinite
    }
}

impl fmt::Display for Deadline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Deadline::Relative(d) => write!(f, "D={d}"),
            Deadline::Infinite => f.write_str("D=inf"),
        }
    }
}

/// Activation pattern of a process: the interpretation of `T_{m,q}`.
///
/// For a periodic process `T` is the period; for sporadic/aperiodic ones it
/// is "the lower bound for the time between consecutive activations"
/// (Sect. 3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Recurrence {
    /// Strictly periodic activation with period `T`; consecutive release
    /// points are separated by exactly `T`.
    Periodic(Ticks),
    /// Sporadic activation with minimum inter-arrival time `T`.
    Sporadic(Ticks),
    /// Aperiodic activation (single-shot or externally triggered); ARINC 653
    /// encodes this as `PERIOD = INFINITE_TIME_VALUE`.
    Aperiodic,
}

impl Recurrence {
    /// The period for periodic processes, `None` otherwise.
    #[inline]
    pub fn period(self) -> Option<Ticks> {
        match self {
            Recurrence::Periodic(t) => Some(t),
            _ => None,
        }
    }

    /// The lower bound between consecutive activations, if bounded.
    #[inline]
    pub fn min_interarrival(self) -> Option<Ticks> {
        match self {
            Recurrence::Periodic(t) | Recurrence::Sporadic(t) => Some(t),
            Recurrence::Aperiodic => None,
        }
    }

    /// Whether the process is periodic (eligible for `PERIODIC_WAIT`).
    #[inline]
    pub const fn is_periodic(self) -> bool {
        matches!(self, Recurrence::Periodic(_))
    }
}

impl fmt::Display for Recurrence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Recurrence::Periodic(t) => write!(f, "periodic T={t}"),
            Recurrence::Sporadic(t) => write!(f, "sporadic T>={t}"),
            Recurrence::Aperiodic => f.write_str("aperiodic"),
        }
    }
}

/// The process state `St_{m,q}(t)` (Eq. 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProcessState {
    /// Ineligible for resources: not yet started, or stopped.
    #[default]
    Dormant,
    /// Able to be executed.
    Ready,
    /// Currently executing (at most one per partition at any time).
    Running,
    /// Waiting for an event: a delay, a semaphore, the next period, or a
    /// resume after suspension.
    Waiting,
}

impl ProcessState {
    /// Whether the process belongs to `Ready_m(t)` (Eq. 15): schedulable,
    /// i.e. ready or already running.
    #[inline]
    pub const fn is_schedulable(self) -> bool {
        matches!(self, ProcessState::Ready | ProcessState::Running)
    }
}

impl fmt::Display for ProcessState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProcessState::Dormant => "dormant",
            ProcessState::Ready => "ready",
            ProcessState::Running => "running",
            ProcessState::Waiting => "waiting",
        };
        f.write_str(s)
    }
}

/// Static attributes of a process `τ_{m,q}` (Eq. 11, without the status).
///
/// The worst-case execution time `C` "is not originally a process attribute
/// in the ARINC 653 specification. It is though added to the system model,
/// since it is essential for further scheduling analyses" (Sect. 3.3).
///
/// # Examples
///
/// ```
/// use air_model::{ProcessAttributes, Recurrence, Deadline, Ticks};
/// use air_model::process::Priority;
///
/// let attrs = ProcessAttributes::new("aocs-control")
///     .with_recurrence(Recurrence::Periodic(Ticks(1300)))
///     .with_deadline(Deadline::relative(Ticks(1300)))
///     .with_base_priority(Priority(10))
///     .with_wcet(Ticks(150));
/// assert!(attrs.deadline().is_finite());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProcessAttributes {
    name: String,
    recurrence: Recurrence,
    deadline: Deadline,
    base_priority: Priority,
    /// Worst-case execution time `C_{m,q}`; `None` when unknown (it is a
    /// model-side attribute used by analyses, not required at runtime).
    wcet: Option<Ticks>,
    /// Stack size in bytes, used by spatial-partitioning sizing.
    stack_size: u32,
}

impl ProcessAttributes {
    /// Default stack size allotted to a process, in bytes.
    pub const DEFAULT_STACK_SIZE: u32 = 4096;

    /// Creates attributes for an aperiodic, deadline-free process with the
    /// lowest priority — every property is then refined with the builder
    /// methods.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            recurrence: Recurrence::Aperiodic,
            deadline: Deadline::Infinite,
            base_priority: Priority::LOWEST,
            wcet: None,
            stack_size: Self::DEFAULT_STACK_SIZE,
        }
    }

    /// Sets the activation pattern (`T_{m,q}`).
    #[must_use]
    pub fn with_recurrence(mut self, recurrence: Recurrence) -> Self {
        self.recurrence = recurrence;
        self
    }

    /// Sets the relative deadline (`D_{m,q}`, the ARINC `TIME_CAPACITY`).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }

    /// Sets the base priority (`p_{m,q}`; lower value = more urgent).
    #[must_use]
    pub fn with_base_priority(mut self, priority: Priority) -> Self {
        self.base_priority = priority;
        self
    }

    /// Sets the worst-case execution time (`C_{m,q}`).
    #[must_use]
    pub fn with_wcet(mut self, wcet: Ticks) -> Self {
        self.wcet = Some(wcet);
        self
    }

    /// Sets the stack size in bytes.
    #[must_use]
    pub fn with_stack_size(mut self, bytes: u32) -> Self {
        self.stack_size = bytes;
        self
    }

    /// The process name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The activation pattern.
    pub fn recurrence(&self) -> Recurrence {
        self.recurrence
    }

    /// The relative deadline.
    pub fn deadline(&self) -> Deadline {
        self.deadline
    }

    /// The base priority.
    pub fn base_priority(&self) -> Priority {
        self.base_priority
    }

    /// The worst-case execution time, if specified.
    pub fn wcet(&self) -> Option<Ticks> {
        self.wcet
    }

    /// The stack size in bytes.
    pub fn stack_size(&self) -> u32 {
        self.stack_size
    }
}

/// Time-varying status `S_{m,q}(t) = ⟨D′, p′, St⟩` (Eq. 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcessStatus {
    /// Absolute deadline time `D′_{m,q}(t)`; `None` when no deadline is
    /// armed (dormant process, or `D = ∞`).
    pub absolute_deadline: Option<Ticks>,
    /// Current priority `p′_{m,q}(t)` (may differ from base priority after
    /// `SET_PRIORITY`).
    pub current_priority: Priority,
    /// Current state `St_{m,q}(t)`.
    pub state: ProcessState,
}

impl ProcessStatus {
    /// The status of a process that has never been started.
    pub fn dormant(base_priority: Priority) -> Self {
        Self {
            absolute_deadline: None,
            current_priority: base_priority,
            state: ProcessState::Dormant,
        }
    }

    /// Whether the process has, at instant `t`, violated its deadline:
    /// the per-process condition of Eq. (24), `D ≠ ∞ ∧ D′(t) < t`.
    #[inline]
    pub fn has_violated_deadline_at(&self, t: Ticks) -> bool {
        matches!(self.absolute_deadline, Some(d) if d < t)
    }
}

impl fmt::Display for ProcessStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.absolute_deadline {
            Some(d) => write!(f, "{} {} D'={}", self.state, self.current_priority, d),
            None => write!(f, "{} {}", self.state, self.current_priority),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_ordering_lower_is_more_urgent() {
        assert!(Priority(1).is_more_urgent_than(Priority(2)));
        assert!(!Priority(2).is_more_urgent_than(Priority(2)));
        assert!(Priority::HIGHEST.is_more_urgent_than(Priority::LOWEST));
    }

    #[test]
    fn deadline_absolute_computation() {
        assert_eq!(
            Deadline::relative(Ticks(50)).absolute_from(Ticks(100)),
            Some(Ticks(150))
        );
        assert_eq!(Deadline::Infinite.absolute_from(Ticks(100)), None);
        assert_eq!(Deadline::relative(Ticks(50)).capacity(), Some(Ticks(50)));
        assert_eq!(Deadline::Infinite.capacity(), None);
    }

    #[test]
    fn recurrence_accessors() {
        assert_eq!(Recurrence::Periodic(Ticks(10)).period(), Some(Ticks(10)));
        assert_eq!(Recurrence::Sporadic(Ticks(10)).period(), None);
        assert_eq!(
            Recurrence::Sporadic(Ticks(10)).min_interarrival(),
            Some(Ticks(10))
        );
        assert_eq!(Recurrence::Aperiodic.min_interarrival(), None);
        assert!(Recurrence::Periodic(Ticks(1)).is_periodic());
        assert!(!Recurrence::Aperiodic.is_periodic());
    }

    #[test]
    fn schedulable_states_match_eq15() {
        assert!(ProcessState::Ready.is_schedulable());
        assert!(ProcessState::Running.is_schedulable());
        assert!(!ProcessState::Dormant.is_schedulable());
        assert!(!ProcessState::Waiting.is_schedulable());
    }

    #[test]
    fn violation_condition_matches_eq24() {
        let mut st = ProcessStatus::dormant(Priority(5));
        assert!(!st.has_violated_deadline_at(Ticks(100)));
        st.absolute_deadline = Some(Ticks(99));
        assert!(st.has_violated_deadline_at(Ticks(100)));
        // At exactly D′ = t the deadline is not yet violated (strict <).
        st.absolute_deadline = Some(Ticks(100));
        assert!(!st.has_violated_deadline_at(Ticks(100)));
    }

    #[test]
    fn attribute_builder_chain() {
        let a = ProcessAttributes::new("telemetry")
            .with_recurrence(Recurrence::Periodic(Ticks(650)))
            .with_deadline(Deadline::relative(Ticks(650)))
            .with_base_priority(Priority(3))
            .with_wcet(Ticks(40))
            .with_stack_size(8192);
        assert_eq!(a.name(), "telemetry");
        assert_eq!(a.recurrence().period(), Some(Ticks(650)));
        assert_eq!(a.deadline().capacity(), Some(Ticks(650)));
        assert_eq!(a.base_priority(), Priority(3));
        assert_eq!(a.wcet(), Some(Ticks(40)));
        assert_eq!(a.stack_size(), 8192);
    }

    #[test]
    fn default_deadline_is_infinite() {
        assert_eq!(Deadline::default(), Deadline::Infinite);
        assert!(!ProcessAttributes::new("x").deadline().is_finite());
    }
}
