//! Partitions and their operating modes (Eq. 1–3 and 16 of the paper).
//!
//! After the introduction of mode-based schedules (Sect. 4.1) a partition is
//! `P_m = ⟨τ_m, M_m(t)⟩` — the *timing requirements moved into the schedule*
//! (see [`crate::schedule::PartitionRequirement`]). This module models the
//! partition itself: its identity, criticality, the kind of operating system
//! it hosts, and its ARINC 653 operating mode automaton.

use std::fmt;

use crate::ids::PartitionId;

/// The ARINC 653 operating mode `M_m(t)` of a partition (Eq. 3).
///
/// ```text
/// M_m(t) ∈ {normal, idle, coldStart, warmStart}
/// ```
///
/// * [`Normal`](OperatingMode::Normal) — operational, process scheduler
///   active;
/// * [`Idle`](OperatingMode::Idle) — shut down, no processes execute;
/// * [`ColdStart`](OperatingMode::ColdStart) / [`WarmStart`](OperatingMode::WarmStart)
///   — initialising, process scheduling disabled; they differ only in the
///   initial context (a warm start preserves state surviving the restart
///   cause, e.g. a power transient).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OperatingMode {
    /// Partition operational; its process scheduler is active.
    Normal,
    /// Partition shut down; no processes are executed.
    #[default]
    Idle,
    /// Initialising after power-on or integrator command; no prior context.
    ColdStart,
    /// Initialising while preserving context from before the restart.
    WarmStart,
}

impl OperatingMode {
    /// Whether the partition's process scheduler runs in this mode.
    ///
    /// Only `Normal` schedules processes; in both start modes and in `Idle`
    /// process scheduling is disabled (Sect. 3.1).
    #[inline]
    pub const fn schedules_processes(self) -> bool {
        matches!(self, OperatingMode::Normal)
    }

    /// Whether the partition is in one of the initialisation modes.
    #[inline]
    pub const fn is_starting(self) -> bool {
        matches!(self, OperatingMode::ColdStart | OperatingMode::WarmStart)
    }

    /// Validates an ARINC 653 mode transition requested via
    /// `SET_PARTITION_MODE`.
    ///
    /// The specification forbids exactly one transition: a partition in
    /// `coldStart` cannot move to `warmStart` (there is no preserved context
    /// to warm-start from). Every other transition is permitted — including
    /// re-entering the current mode, which acts as a restart.
    pub fn can_transition_to(self, target: OperatingMode) -> bool {
        !(matches!(self, OperatingMode::ColdStart) && matches!(target, OperatingMode::WarmStart))
    }
}

impl fmt::Display for OperatingMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OperatingMode::Normal => "normal",
            OperatingMode::Idle => "idle",
            OperatingMode::ColdStart => "coldStart",
            OperatingMode::WarmStart => "warmStart",
        };
        f.write_str(s)
    }
}

/// Why a partition entered a start mode; ARINC 653 `START_CONDITION`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StartCondition {
    /// Initial power-on of the module.
    #[default]
    NormalStart,
    /// Restart commanded by the partition itself.
    PartitionRestart,
    /// Restart decided by health monitoring after an error.
    HmModuleRestart,
    /// Restart decided by partition-level health monitoring.
    HmPartitionRestart,
}

impl fmt::Display for StartCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StartCondition::NormalStart => "normal start",
            StartCondition::PartitionRestart => "partition restart",
            StartCondition::HmModuleRestart => "HM module restart",
            StartCondition::HmPartitionRestart => "HM partition restart",
        };
        f.write_str(s)
    }
}

/// The kind of operating system a partition hosts (Sect. 2.2 and 2.5).
///
/// AIR foresees heterogeneous partition operating systems: hard real-time
/// kernels (RTEMS in the prototype) and generic non-real-time ones (an
/// embedded Linux variant). Non-real-time partitions carry no process
/// deadlines and may be given `d_m = 0` requirements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PosKind {
    /// A real-time POS with a preemptive priority-driven process scheduler
    /// (the ARINC 653-mandated policy, Eq. 14).
    #[default]
    RealTime,
    /// A generic non-real-time POS (e.g. embedded Linux) whose clock
    /// interactions are paravirtualised (Sect. 2.5).
    GenericNonRealTime,
}

impl fmt::Display for PosKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PosKind::RealTime => f.write_str("real-time"),
            PosKind::GenericNonRealTime => f.write_str("generic non-real-time"),
        }
    }
}

/// Criticality classification of a partition's application.
///
/// System partitions may bypass the APEX interface and call POS-kernel
/// functions directly (Sect. 2, Fig. 1); application partitions may not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PartitionKind {
    /// A standard application partition restricted to the APEX interface.
    #[default]
    Application,
    /// A system partition (administration/management functions) that may
    /// bypass APEX, subject to increased verification (Sect. 2).
    System,
}

/// Static description of a partition `P_m` (Eq. 16): identity and properties
/// that do **not** vary between schedules.
///
/// The task set `τ_m` lives with the runtime (process control blocks in
/// `air-pos`); the model keeps the static process attributes in
/// [`crate::process::ProcessAttributes`], associated to a partition by the
/// configuration layer.
///
/// # Examples
///
/// ```
/// use air_model::{Partition, PartitionId};
///
/// let aocs = Partition::new(PartitionId(0), "AOCS");
/// assert_eq!(aocs.name(), "AOCS");
/// assert!(!aocs.is_system());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Partition {
    id: PartitionId,
    name: String,
    kind: PartitionKind,
    pos_kind: PosKind,
    /// Whether this partition is authorised to request schedule switches
    /// via `SET_MODULE_SCHEDULE` (Sect. 4.2: "must be invoked by an
    /// authorized partition").
    may_set_module_schedule: bool,
}

impl Partition {
    /// Creates an application partition hosting a real-time POS.
    pub fn new(id: PartitionId, name: impl Into<String>) -> Self {
        Self {
            id,
            name: name.into(),
            kind: PartitionKind::Application,
            pos_kind: PosKind::RealTime,
            may_set_module_schedule: false,
        }
    }

    /// Marks the partition as a system partition (may bypass APEX).
    #[must_use]
    pub fn system(mut self) -> Self {
        self.kind = PartitionKind::System;
        self
    }

    /// Sets the kind of operating system the partition hosts.
    #[must_use]
    pub fn with_pos_kind(mut self, pos_kind: PosKind) -> Self {
        self.pos_kind = pos_kind;
        self
    }

    /// Authorises the partition to request module schedule switches.
    #[must_use]
    pub fn with_schedule_authority(mut self) -> Self {
        self.may_set_module_schedule = true;
        self
    }

    /// The partition's identifier within `P`.
    pub fn id(&self) -> PartitionId {
        self.id
    }

    /// The partition's human-readable name (e.g. `"AOCS"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The partition's criticality classification.
    pub fn kind(&self) -> PartitionKind {
        self.kind
    }

    /// The kind of operating system the partition hosts.
    pub fn pos_kind(&self) -> PosKind {
        self.pos_kind
    }

    /// Whether this is a system partition.
    pub fn is_system(&self) -> bool {
        self.kind == PartitionKind::System
    }

    /// Whether the partition may request a module schedule switch.
    pub fn may_set_module_schedule(&self) -> bool {
        self.may_set_module_schedule
    }
}

impl fmt::Display for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name, self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mode_is_idle() {
        assert_eq!(OperatingMode::default(), OperatingMode::Idle);
    }

    #[test]
    fn only_normal_schedules_processes() {
        assert!(OperatingMode::Normal.schedules_processes());
        assert!(!OperatingMode::Idle.schedules_processes());
        assert!(!OperatingMode::ColdStart.schedules_processes());
        assert!(!OperatingMode::WarmStart.schedules_processes());
    }

    #[test]
    fn start_modes() {
        assert!(OperatingMode::ColdStart.is_starting());
        assert!(OperatingMode::WarmStart.is_starting());
        assert!(!OperatingMode::Normal.is_starting());
        assert!(!OperatingMode::Idle.is_starting());
    }

    #[test]
    fn cold_start_cannot_warm_start() {
        assert!(!OperatingMode::ColdStart.can_transition_to(OperatingMode::WarmStart));
        assert!(OperatingMode::ColdStart.can_transition_to(OperatingMode::Normal));
        assert!(OperatingMode::ColdStart.can_transition_to(OperatingMode::Idle));
        assert!(OperatingMode::ColdStart.can_transition_to(OperatingMode::ColdStart));
        assert!(OperatingMode::Normal.can_transition_to(OperatingMode::WarmStart));
        assert!(OperatingMode::Idle.can_transition_to(OperatingMode::WarmStart));
        assert!(OperatingMode::WarmStart.can_transition_to(OperatingMode::WarmStart));
    }

    #[test]
    fn builder_flags() {
        let p = Partition::new(PartitionId(3), "FDIR")
            .system()
            .with_schedule_authority()
            .with_pos_kind(PosKind::GenericNonRealTime);
        assert!(p.is_system());
        assert!(p.may_set_module_schedule());
        assert_eq!(p.pos_kind(), PosKind::GenericNonRealTime);
        assert_eq!(p.to_string(), "FDIR (P3)");
    }

    #[test]
    fn modes_display_like_the_paper() {
        assert_eq!(OperatingMode::ColdStart.to_string(), "coldStart");
        assert_eq!(OperatingMode::Normal.to_string(), "normal");
    }
}
