//! Finite abstraction of the mode/HM lifecycle for exhaustive exploration.
//!
//! The runtime system moves through a *graph* of configurations: schedule
//! switches requested by authority partitions (Sect. 4.1), restart/stop
//! change actions applied on switch (Algorithm 2), HM-driven partition and
//! module recoveries, and degraded-mode entry/exit on link failover. Each
//! mechanism is individually verified elsewhere; this module abstracts their
//! *composition* into a finite transition system that a bounded model checker
//! (`air-lint --explore`) can walk exhaustively.
//!
//! # The state tuple
//!
//! An [`AbstractState`] is `(active schedule, per-partition mode, link
//! health, ARQ health, mesh edge mask, mesh reroute mask)`:
//!
//! * the active schedule is the one in force after the last committed switch;
//! * each partition is either [`AbstractMode::Running`] (operating mode
//!   `Normal`, or transiently restarting towards it) or
//!   [`AbstractMode::Stopped`] (`Idle` after a `Stop` change action);
//! * the link is [`LinkState::Absent`] (no degraded schedule configured),
//!   [`LinkState::Nominal`], or [`LinkState::Degraded`] carrying the schedule
//!   to restore on recovery;
//! * the ARQ transport is [`ArqHealth::Absent`] (not modelled),
//!   [`ArqHealth::Nominal`], or [`ArqHealth::Exhausted`] after a go-back-N
//!   retransmit budget ran out ([`AbstractEvent::ArqExhausted`]);
//! * the mesh edge mask records which of the node's routed mesh links are
//!   currently down, one bit per distinct next-hop edge;
//! * the mesh reroute mask records which of those down edges the router
//!   has installed a detour around ([`AbstractEvent::MeshReroute`]); a
//!   bit clears with its edge's recovery.
//!
//! The engine never stores the tuple itself: [`TransitionSystem::new`]
//! precomputes each schedule's window mask and change-action effect, and
//! every transition runs on a 128-bit [`StateKey`]
//! ([`TransitionSystem::key_events`], [`TransitionSystem::step_key`]). The
//! [`AbstractState`] methods pack, step and unpack, for replay, fuzzing
//! and tests.
//!
//! The alphabet also carries events that deliberately leave the tuple
//! unchanged — process-level deadline faults
//! ([`AbstractEvent::DeadlineFault`]) and racing operator requests
//! ([`AbstractEvent::RaceRequest`], where the second request wins the MTF
//! boundary) — so witnesses can demonstrate that the concrete system
//! tolerates them without drifting from the abstraction.
//!
//! # Soundness caveats
//!
//! The abstraction folds several runtime steps into one atomic transition:
//! a schedule request, its commit at the next MTF boundary, and the
//! switched-to schedule's change actions (applied at each partition's first
//! dispatch) all happen "at once" here. Pending-but-unapplied change actions
//! are therefore not part of the abstract state; a change action targeting a
//! partition with no window in the new schedule never fires at runtime and is
//! likewise skipped here. Process-level HM recoveries do not alter the tuple
//! and are abstracted away entirely. See DESIGN.md §10 for the full
//! discussion.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use crate::ids::{PartitionId, ScheduleId};
use crate::schedule::{Schedule, ScheduleChangeAction, ScheduleSet};

pub mod search;

/// Maximum number of distinct mesh edges the abstraction can model (the
/// width of [`AbstractState::mesh_down`] and of the key's mesh masks).
pub const MAX_MESH_EDGES: u8 = 16;

/// Abstract operating mode of one partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AbstractMode {
    /// The partition executes when its windows come up (`Normal`, or a
    /// restart in flight that ends in `Normal`).
    Running,
    /// The partition was stopped (`Idle`) and executes nothing.
    Stopped,
}

/// Abstract health of the inter-node link, for configurations that bind a
/// degraded schedule to link failover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LinkState {
    /// No degraded schedule is configured; link events do not occur.
    Absent,
    /// The link is healthy (primary or secondary adapter serving).
    Nominal,
    /// The link failed over; `nominal` is the schedule saved at entry, to be
    /// restored when the link recovers.
    Degraded {
        /// Schedule in force when degraded mode was entered.
        nominal: ScheduleId,
    },
}

/// Abstract health of the go-back-N ARQ transport, for configurations that
/// pair an `arq` directive with an inter-node link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ArqHealth {
    /// No ARQ transport is configured; ARQ events do not occur.
    Absent,
    /// The transport delivers within its retransmit budget.
    Nominal,
    /// The retransmit budget was exhausted (`ArqEvent::Exhausted`); delivery
    /// guarantees are void until the transport resynchronises.
    Exhausted,
}

/// One point in the abstract configuration graph.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AbstractState {
    /// The partition schedule currently in force.
    pub schedule: ScheduleId,
    /// Operating mode of every declared partition.
    pub modes: BTreeMap<PartitionId, AbstractMode>,
    /// Health of the inter-node link.
    pub link: LinkState,
    /// Health of the ARQ transport over that link.
    pub arq: ArqHealth,
    /// Bitmask of mesh edges currently down (bit `i` = edge `i`); always 0
    /// when the node has no routed mesh edges.
    pub mesh_down: u16,
    /// Bitmask of down mesh edges the router has rerouted around (bit `i`
    /// = edge `i`); a subset of [`mesh_down`](Self::mesh_down) — the bit
    /// clears with the edge's recovery.
    pub mesh_rerouted: u16,
}

impl AbstractState {
    /// Returns the abstract mode of `partition` (absent partitions are
    /// treated as stopped).
    pub fn mode_of(&self, partition: PartitionId) -> AbstractMode {
        self.modes
            .get(&partition)
            .copied()
            .unwrap_or(AbstractMode::Stopped)
    }
}

impl fmt::Display for AbstractState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.schedule)?;
        for (p, mode) in &self.modes {
            let tag = match mode {
                AbstractMode::Running => "run",
                AbstractMode::Stopped => "stop",
            };
            write!(f, " {p}={tag}")?;
        }
        match self.link {
            LinkState::Absent => {}
            LinkState::Nominal => write!(f, " link=nominal")?,
            LinkState::Degraded { nominal } => {
                write!(f, " link=degraded[{nominal}]")?;
            }
        }
        match self.arq {
            ArqHealth::Absent => {}
            ArqHealth::Nominal => write!(f, " arq=nominal")?,
            ArqHealth::Exhausted => write!(f, " arq=exhausted")?,
        }
        if self.mesh_down != 0 {
            write!(f, " mesh_down={:#06x}", self.mesh_down)?;
        }
        if self.mesh_rerouted != 0 {
            write!(f, " mesh_rerouted={:#06x}", self.mesh_rerouted)?;
        }
        Ok(())
    }
}

/// One event of the abstract alphabet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AbstractEvent {
    /// Authority partition `by` issues `SET_MODULE_SCHEDULE(to)`; the switch
    /// commits at the next MTF boundary and the target's change actions are
    /// folded into the same transition.
    ScheduleRequest {
        /// The requesting (authority) partition.
        by: PartitionId,
        /// The schedule switched to.
        to: ScheduleId,
    },
    /// A partition-level HM fault on `partition`; the standard recovery is a
    /// warm restart, which leaves the abstract tuple unchanged.
    PartitionFault {
        /// The faulting partition.
        partition: PartitionId,
    },
    /// A module-level HM fault; the `Reset` recovery cold-restarts every
    /// partition.
    ModuleFault,
    /// The link fails over; the module enters the configured degraded
    /// schedule, saving the one in force.
    LinkDown,
    /// The link recovers; the saved schedule is restored.
    LinkUp,
    /// A process in `partition` misses its deadline; the process-level HM
    /// recovery (ignore, log-then-act, or process restart) leaves the
    /// abstract tuple unchanged. Only emitted for partitions whose effective
    /// deadline recovery cannot stop the partition.
    DeadlineFault {
        /// The partition hosting the missed deadline.
        partition: PartitionId,
    },
    /// The ARQ retransmit budget runs out (`ArqEvent::Exhausted`); delivery
    /// guarantees are void until the transport resynchronises.
    ArqExhausted,
    /// The ARQ transport resynchronises after an exhaustion. Requires a
    /// healthy link, so exhaustion is unrecoverable when no degraded
    /// schedule gives the link a repair path (AIR096).
    ArqRecovered,
    /// Mesh edge `edge` (one next-hop link of the routed mesh) goes down.
    MeshLinkDown {
        /// Edge index, `< TransitionSystem::options().mesh_edges`.
        edge: u8,
    },
    /// Mesh edge `edge` comes back up; any reroute around it is
    /// dismantled with it.
    MeshLinkUp {
        /// Edge index, `< TransitionSystem::options().mesh_edges`.
        edge: u8,
    },
    /// The router installs a detour around down mesh edge `edge` (the
    /// abstract face of `PacketRerouted`/route-table refresh). Enabled
    /// only while the edge is down and not yet rerouted.
    MeshReroute {
        /// Edge index, `< TransitionSystem::options().mesh_edges`.
        edge: u8,
    },
    /// Two racing `SET_MODULE_SCHEDULE` requests from `by` inside one MTF:
    /// first `first`, then `second`. The scheduler keeps only the latest
    /// pending request, so `second` wins the boundary — the transition is
    /// identical to `ScheduleRequest { by, to: second }`, but the witness
    /// records that the race was exercised.
    RaceRequest {
        /// The requesting (authority) partition.
        by: PartitionId,
        /// The overwritten first request.
        first: ScheduleId,
        /// The request that wins the MTF boundary.
        second: ScheduleId,
    },
}

impl fmt::Display for AbstractEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbstractEvent::ScheduleRequest { by, to } => {
                write!(f, "request({by}->{to})")
            }
            AbstractEvent::PartitionFault { partition } => {
                write!(f, "fault({partition})")
            }
            AbstractEvent::ModuleFault => write!(f, "module_fault"),
            AbstractEvent::LinkDown => write!(f, "link_down"),
            AbstractEvent::LinkUp => write!(f, "link_up"),
            AbstractEvent::DeadlineFault { partition } => {
                write!(f, "deadline({partition})")
            }
            AbstractEvent::ArqExhausted => write!(f, "arq_exhausted"),
            AbstractEvent::ArqRecovered => write!(f, "arq_recovered"),
            AbstractEvent::MeshLinkDown { edge } => {
                write!(f, "mesh_down({edge})")
            }
            AbstractEvent::MeshLinkUp { edge } => write!(f, "mesh_up({edge})"),
            AbstractEvent::MeshReroute { edge } => {
                write!(f, "mesh_reroute({edge})")
            }
            AbstractEvent::RaceRequest { by, first, second } => {
                write!(f, "race({by}->{first},{second})")
            }
        }
    }
}

/// A counterexample witness: the event sequence leading from the initial
/// state to a state of interest.
///
/// Witnesses render to a compact, stable text form so diagnostics can carry
/// them and `air-core` can parse them back for concrete replay:
///
/// ```
/// use air_model::explore::Witness;
///
/// let w = Witness::parse("request(P0->chi1); link_down").unwrap();
/// assert_eq!(w.render(), "request(P0->chi1); link_down");
/// assert_eq!(w.events.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Witness {
    /// The events, in occurrence order.
    pub events: Vec<AbstractEvent>,
}

impl Witness {
    /// Renders the witness in its stable text form (`"; "`-separated events,
    /// `"(initial state)"` when empty).
    pub fn render(&self) -> String {
        if self.events.is_empty() {
            return "(initial state)".to_string();
        }
        let parts: Vec<String> = self.events.iter().map(|e| e.to_string()).collect();
        parts.join("; ")
    }

    /// Parses the text form produced by [`Witness::render`].
    ///
    /// # Errors
    ///
    /// Returns [`WitnessParseError`] when a segment is not a recognised
    /// event.
    pub fn parse(text: &str) -> Result<Self, WitnessParseError> {
        let trimmed = text.trim();
        if trimmed.is_empty() || trimmed == "(initial state)" {
            return Ok(Self::default());
        }
        let mut events = Vec::new();
        for raw in trimmed.split(';') {
            events.push(parse_event(raw.trim())?);
        }
        Ok(Self { events })
    }
}

impl fmt::Display for Witness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Error parsing a [`Witness`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessParseError {
    /// The offending segment.
    pub segment: String,
}

impl fmt::Display for WitnessParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unrecognised witness event `{}`", self.segment)
    }
}

impl Error for WitnessParseError {}

fn parse_event(raw: &str) -> Result<AbstractEvent, WitnessParseError> {
    let err = || WitnessParseError {
        segment: raw.to_string(),
    };
    match raw {
        "module_fault" => return Ok(AbstractEvent::ModuleFault),
        "link_down" => return Ok(AbstractEvent::LinkDown),
        "link_up" => return Ok(AbstractEvent::LinkUp),
        "arq_exhausted" => return Ok(AbstractEvent::ArqExhausted),
        "arq_recovered" => return Ok(AbstractEvent::ArqRecovered),
        _ => {}
    }
    if let Some(inner) = raw
        .strip_prefix("request(")
        .and_then(|s| s.strip_suffix(')'))
    {
        let (by, to) = inner.split_once("->").ok_or_else(err)?;
        let by = parse_id(by.trim(), "P").ok_or_else(err)?;
        let to = parse_id(to.trim(), "chi").ok_or_else(err)?;
        return Ok(AbstractEvent::ScheduleRequest {
            by: PartitionId(by),
            to: ScheduleId(to),
        });
    }
    if let Some(inner) = raw.strip_prefix("fault(").and_then(|s| s.strip_suffix(')')) {
        let m = parse_id(inner.trim(), "P").ok_or_else(err)?;
        return Ok(AbstractEvent::PartitionFault {
            partition: PartitionId(m),
        });
    }
    if let Some(inner) = raw
        .strip_prefix("deadline(")
        .and_then(|s| s.strip_suffix(')'))
    {
        let m = parse_id(inner.trim(), "P").ok_or_else(err)?;
        return Ok(AbstractEvent::DeadlineFault {
            partition: PartitionId(m),
        });
    }
    if let Some(inner) = raw
        .strip_prefix("mesh_down(")
        .and_then(|s| s.strip_suffix(')'))
    {
        let edge: u8 = inner.trim().parse().map_err(|_| err())?;
        return Ok(AbstractEvent::MeshLinkDown { edge });
    }
    if let Some(inner) = raw
        .strip_prefix("mesh_up(")
        .and_then(|s| s.strip_suffix(')'))
    {
        let edge: u8 = inner.trim().parse().map_err(|_| err())?;
        return Ok(AbstractEvent::MeshLinkUp { edge });
    }
    if let Some(inner) = raw
        .strip_prefix("mesh_reroute(")
        .and_then(|s| s.strip_suffix(')'))
    {
        let edge: u8 = inner.trim().parse().map_err(|_| err())?;
        return Ok(AbstractEvent::MeshReroute { edge });
    }
    if let Some(inner) = raw.strip_prefix("race(").and_then(|s| s.strip_suffix(')')) {
        let (by, targets) = inner.split_once("->").ok_or_else(err)?;
        let by = parse_id(by.trim(), "P").ok_or_else(err)?;
        let (first, second) = targets.split_once(',').ok_or_else(err)?;
        let first = parse_id(first.trim(), "chi").ok_or_else(err)?;
        let second = parse_id(second.trim(), "chi").ok_or_else(err)?;
        return Ok(AbstractEvent::RaceRequest {
            by: PartitionId(by),
            first: ScheduleId(first),
            second: ScheduleId(second),
        });
    }
    Err(err())
}

fn parse_id(text: &str, prefix: &str) -> Option<u32> {
    text.strip_prefix(prefix)?.parse().ok()
}

/// Which environment events the transition system models, beyond the
/// always-present schedule requests.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExploreOptions {
    /// Schedule entered on link failover; `None` disables link events.
    pub degraded_schedule: Option<ScheduleId>,
    /// Whether a module-level fault (HM `Reset` recovery) can occur.
    pub module_faults: bool,
    /// Whether partition-level faults (HM warm-restart recovery) can occur.
    pub partition_faults: bool,
    /// Partitions whose processes can miss deadlines with a process-level
    /// recovery (one that cannot stop the partition). Sorted and
    /// deduplicated by [`TransitionSystem::new`].
    pub deadline_faults: Vec<PartitionId>,
    /// Whether the ARQ transport is modelled (exhaustion/resync events).
    pub arq: bool,
    /// Number of distinct routed mesh edges (next hops) the node has; each
    /// can independently go down and come back. More than
    /// [`MAX_MESH_EDGES`] is rejected by [`TransitionSystem::new`].
    pub mesh_edges: u8,
}

/// Error constructing a [`TransitionSystem`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransitionSystemError {
    /// The schedule set is empty; there is no initial state.
    NoSchedules,
    /// The configured degraded schedule is not in the schedule set.
    UnknownDegradedSchedule(ScheduleId),
    /// The mode domain needs `bits` bits of a [`StateKey`] — one per
    /// declared partition, two per undeclared change-action target — but
    /// the key holds [`MAX_MODE_BITS`].
    ModeDomainTooWide {
        /// Bits the domain needs.
        bits: usize,
    },
    /// More mesh edges than the key's [`MAX_MESH_EDGES`]-bit masks hold.
    TooManyMeshEdges {
        /// The configured edge count.
        edges: u8,
    },
    /// More schedules than the key's schedule index field holds
    /// ([`MAX_SCHEDULES`]).
    TooManySchedules {
        /// The number of schedules in the set.
        schedules: usize,
    },
}

impl fmt::Display for TransitionSystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransitionSystemError::NoSchedules => {
                write!(f, "cannot explore a system with no schedules")
            }
            TransitionSystemError::UnknownDegradedSchedule(id) => {
                write!(f, "degraded schedule {id} is not declared")
            }
            TransitionSystemError::ModeDomainTooWide { bits } => write!(
                f,
                "the partition modes need {bits} state bits, more than the \
                 {MAX_MODE_BITS} a packed state holds (one per declared \
                 partition, two per undeclared change-action target)"
            ),
            TransitionSystemError::TooManyMeshEdges { edges } => write!(
                f,
                "{edges} mesh edges exceed the {MAX_MESH_EDGES} a packed \
                 state tracks"
            ),
            TransitionSystemError::TooManySchedules { schedules } => write!(
                f,
                "{schedules} schedules exceed the {MAX_SCHEDULES} a packed \
                 state indexes"
            ),
        }
    }
}

impl Error for TransitionSystemError {}

/// An [`AbstractState`] packed into 128 bits: the explorer's only state
/// representation.
///
/// | bits | field |
/// |---|---|
/// | 0–15 | [`mesh_down`](AbstractState::mesh_down) |
/// | 16–31 | [`mesh_rerouted`](AbstractState::mesh_rerouted) |
/// | 32 | ARQ exhausted |
/// | 33–48 | saved schedule index + 1 while the link is degraded, else 0 |
/// | 49–63 | index of the active schedule |
/// | 64–127 | mode word |
///
/// Schedule indices are positions in the [`ScheduleSet`]. In the mode
/// word, bit `slot` is set when the partition in that slot of the mode
/// domain ([`TransitionSystem::slot_of`]) is not running; the presence
/// bits of undeclared change-action targets follow the slots (such a
/// partition joins the mode map only when an action first reaches it,
/// and is not running while absent). Whether a link or an ARQ transport
/// exists at all is a system constant ([`ExploreOptions`]), not key state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct StateKey(pub(crate) u128);

impl StateKey {
    /// The mesh bits (0–31); clearing them gives the mesh-free projection.
    const MESH_BITS: u128 = 0xFFFF_FFFF;
    const ARQ_BIT: u128 = 1 << 32;
    const SAVED_SHIFT: u32 = 33;
    const SCHEDULE_SHIFT: u32 = 49;
    const SCHEDULE_FIELD: u128 = 0x7FFF;
    const MODES_SHIFT: u32 = 64;

    /// Bitmask of mesh edges currently down.
    pub fn mesh_down(self) -> u16 {
        self.0 as u16
    }

    /// Bitmask of down mesh edges the router has rerouted around.
    pub fn mesh_rerouted(self) -> u16 {
        (self.0 >> 16) as u16
    }

    /// Whether the ARQ retransmit budget is exhausted.
    pub fn arq_exhausted(self) -> bool {
        self.0 & Self::ARQ_BIT != 0
    }

    /// Index of the schedule saved at link failover, while the link is
    /// degraded.
    pub fn saved_schedule(self) -> Option<usize> {
        ((self.0 >> Self::SAVED_SHIFT) as u16)
            .checked_sub(1)
            .map(usize::from)
    }

    /// Index of the schedule in force.
    pub fn schedule(self) -> usize {
        ((self.0 >> Self::SCHEDULE_SHIFT) & Self::SCHEDULE_FIELD) as usize
    }

    /// The mode word: bit `slot` set = that partition is not running.
    pub fn modes(self) -> u64 {
        (self.0 >> Self::MODES_SHIFT) as u64
    }

    /// The key with both mesh masks cleared.
    pub fn without_mesh(self) -> Self {
        Self(self.0 & !Self::MESH_BITS)
    }

    fn with_mesh(self, down: u16, rerouted: u16) -> Self {
        Self((self.0 & !Self::MESH_BITS) | u128::from(down) | (u128::from(rerouted) << 16))
    }

    fn with_arq_exhausted(self, exhausted: bool) -> Self {
        if exhausted {
            Self(self.0 | Self::ARQ_BIT)
        } else {
            Self(self.0 & !Self::ARQ_BIT)
        }
    }

    /// `saved` is the schedule index + 1, or 0 for a nominal link.
    fn with_saved(self, saved: u16) -> Self {
        Self((self.0 & !(0xFFFF << Self::SAVED_SHIFT)) | (u128::from(saved) << Self::SAVED_SHIFT))
    }

    fn with_schedule(self, index: usize) -> Self {
        let field = Self::SCHEDULE_FIELD << Self::SCHEDULE_SHIFT;
        let index = (index as u128) << Self::SCHEDULE_SHIFT;
        Self((self.0 & !field) | (index & field))
    }

    fn with_modes(self, modes: u64) -> Self {
        let modes = u128::from(modes) << Self::MODES_SHIFT;
        Self(u128::from(self.0 as u64) | modes)
    }
}

/// The result of applying one event to a [`StateKey`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyTransition {
    /// The successor key.
    pub key: StateKey,
    /// Slot mask of the partitions a restart (warm or cold) was applied
    /// to during this transition — by a change action or an HM recovery.
    pub restarted: u64,
}

/// The result of applying one event to a state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transition {
    /// The successor state.
    pub state: AbstractState,
    /// Partitions that a restart (warm or cold) was applied to during this
    /// transition — by a change action or an HM recovery — in id order.
    pub restarted: Vec<PartitionId>,
}

/// Widest mode domain a [`StateKey`] holds, in bits.
pub const MAX_MODE_BITS: usize = 64;

/// Most schedules a [`StateKey`] indexes.
pub const MAX_SCHEDULES: usize = 1 << 15;

/// One schedule's precomputed effect on the mode word.
#[derive(Debug, Clone, Copy)]
struct ScheduleTable {
    /// Slot bits of the partitions holding a window.
    windows: u64,
    /// Mode-word bits the change actions leave alone …
    keep: u64,
    /// … and the bits they set (stops, and presence of undeclared targets).
    set: u64,
    /// Slot bits of the partitions the change actions restart.
    restart: u64,
}

/// The finite transition system over (schedule, partition modes, link,
/// ARQ, mesh edges), stepped on packed [`StateKey`]s.
#[derive(Debug, Clone)]
pub struct TransitionSystem {
    schedules: ScheduleSet,
    options: ExploreOptions,
    /// Schedule ids in set order: the schedule indices of a key.
    schedule_ids: Vec<ScheduleId>,
    /// The mode domain in slot order (ascending id), each partition with
    /// its presence bit in the mode word — `None` for declared
    /// partitions, which are always present.
    slots: Vec<(PartitionId, Option<u64>)>,
    /// Per schedule index, in set order.
    tables: Vec<ScheduleTable>,
    /// Slot bits of the declared partitions.
    declared: u64,
    /// Slot bits of the authorities inside the mode domain.
    authorities: u64,
    /// Slot bits of the deadline-fault partitions.
    deadline: u64,
    degraded: Option<usize>,
    initial: StateKey,
}

impl TransitionSystem {
    /// Builds the transition system and precomputes, per schedule, the
    /// window mask and the change actions' effect on the mode word.
    ///
    /// `partitions` is the full declared partition set (the domain of the
    /// per-partition mode map, joined by undeclared partitions that a
    /// change action targets in a schedule where they own a window);
    /// `authorities` the subset holding `SET_MODULE_SCHEDULE` authority.
    ///
    /// # Errors
    ///
    /// Returns [`TransitionSystemError`] when the schedule set is empty,
    /// the degraded schedule in `options` is not declared, or the system
    /// does not fit a [`StateKey`] (mode domain, mesh edges, schedules).
    pub fn new(
        schedules: ScheduleSet,
        partitions: Vec<PartitionId>,
        authorities: Vec<PartitionId>,
        options: ExploreOptions,
    ) -> Result<Self, TransitionSystemError> {
        if schedules.is_empty() {
            return Err(TransitionSystemError::NoSchedules);
        }
        let degraded = match options.degraded_schedule {
            Some(id) => Some(
                schedules
                    .iter()
                    .position(|s| s.id() == id)
                    .ok_or(TransitionSystemError::UnknownDegradedSchedule(id))?,
            ),
            None => None,
        };
        if options.mesh_edges > MAX_MESH_EDGES {
            return Err(TransitionSystemError::TooManyMeshEdges {
                edges: options.mesh_edges,
            });
        }
        if schedules.len() > MAX_SCHEDULES {
            return Err(TransitionSystemError::TooManySchedules {
                schedules: schedules.len(),
            });
        }
        let mut partitions = partitions;
        partitions.sort_unstable();
        partitions.dedup();
        let mut options = options;
        options.deadline_faults.sort_unstable();
        options.deadline_faults.dedup();
        options
            .deadline_faults
            .retain(|p| partitions.binary_search(p).is_ok());

        // The mode domain: declared partitions plus undeclared ones that a
        // restart or stop action reaches (it owns a window there).
        let mut undeclared: Vec<PartitionId> = schedules
            .iter()
            .flat_map(|s| {
                s.change_actions().filter(move |&(p, action)| {
                    action != ScheduleChangeAction::None && s.windows_for(p).next().is_some()
                })
            })
            .map(|(p, _)| p)
            .filter(|p| partitions.binary_search(p).is_err())
            .collect();
        undeclared.sort_unstable();
        undeclared.dedup();
        let bits = partitions.len() + 2 * undeclared.len();
        if bits > MAX_MODE_BITS {
            return Err(TransitionSystemError::ModeDomainTooWide { bits });
        }
        let mut domain: Vec<PartitionId> = partitions.iter().chain(&undeclared).copied().collect();
        domain.sort_unstable();
        let slots = domain
            .iter()
            .map(|p| {
                let presence = undeclared
                    .binary_search(p)
                    .ok()
                    .map(|k| 1u64 << (domain.len() + k));
                (*p, presence)
            })
            .collect();

        let mut ts = Self {
            schedule_ids: schedules.iter().map(Schedule::id).collect(),
            schedules,
            options,
            slots,
            tables: Vec::new(),
            declared: 0,
            authorities: 0,
            deadline: 0,
            degraded,
            initial: StateKey::default(),
        };
        ts.tables = ts.schedules.iter().map(|s| ts.schedule_table(s)).collect();
        let mask_of = |ids: &[PartitionId]| {
            ids.iter()
                .filter_map(|&p| ts.slot_of(p))
                .fold(0u64, |mask, slot| mask | 1 << slot)
        };
        (ts.declared, ts.authorities, ts.deadline) = (
            mask_of(&partitions),
            mask_of(&authorities),
            mask_of(&ts.options.deadline_faults),
        );
        // Every presence bit set selects every undeclared slot: absent
        // undeclared partitions are not running.
        ts.initial = StateKey::default().with_modes(ts.undeclared_present(!0));
        Ok(ts)
    }

    /// The schedule set explored over.
    pub fn schedules(&self) -> &ScheduleSet {
        &self.schedules
    }

    /// The declared partitions, in id order.
    pub fn partitions(&self) -> Vec<PartitionId> {
        self.partitions_of(self.declared).collect()
    }

    /// Slot mask of the authority partitions.
    pub fn authority_mask(&self) -> u64 {
        self.authorities
    }

    /// The environment-event options the system was built with (after
    /// canonicalisation by [`TransitionSystem::new`]).
    pub fn options(&self) -> &ExploreOptions {
        &self.options
    }

    /// The mode-word slot of `partition` (its bit in every partition mask
    /// of this system), or `None` outside the mode domain.
    pub fn slot_of(&self, partition: PartitionId) -> Option<usize> {
        self.slots
            .binary_search_by_key(&partition, |&(p, _)| p)
            .ok()
    }

    /// The partitions in slot mask `mask`, in id order.
    fn partitions_of(&self, mut mask: u64) -> impl Iterator<Item = PartitionId> + '_ {
        std::iter::from_fn(move || {
            while mask != 0 {
                let slot = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                if let Some(&(p, _)) = self.slots.get(slot) {
                    return Some(p);
                }
            }
            None
        })
    }

    /// Slot bits of the undeclared partitions whose presence bit is set in
    /// `modes`.
    fn undeclared_present(&self, modes: u64) -> u64 {
        self.slots
            .iter()
            .enumerate()
            .filter(|&(_, &(_, presence))| presence.is_some_and(|bit| modes & bit != 0))
            .fold(0, |mask, (slot, _)| mask | 1 << slot)
    }

    /// The index of schedule `id` in the set (as stored in a key).
    pub fn schedule_index(&self, id: ScheduleId) -> Option<usize> {
        self.schedule_ids.iter().position(|&s| s == id)
    }

    /// The id of the schedule at `index` (the default id out of range).
    pub fn schedule_id(&self, index: usize) -> ScheduleId {
        self.schedule_ids.get(index).copied().unwrap_or_default()
    }

    /// Slot mask of the partitions holding a window under the schedule at
    /// `index` (0 out of range).
    pub fn window_mask(&self, index: usize) -> u64 {
        self.tables.get(index).map_or(0, |t| t.windows)
    }

    /// Packs `state`, or `None` when it lies outside this system's key
    /// space (an unknown schedule or partition, a link or ARQ health the
    /// options do not model, a mesh bit past the edge count, or a
    /// declared partition missing from the mode map).
    pub fn pack(&self, state: &AbstractState) -> Option<StateKey> {
        let schedule = self.schedule_index(state.schedule)?;
        let saved = match (self.degraded.is_some(), state.link) {
            (false, LinkState::Absent) | (true, LinkState::Nominal) => 0,
            (true, LinkState::Degraded { nominal }) => {
                u16::try_from(self.schedule_index(nominal)? + 1).ok()?
            }
            _ => return None,
        };
        let exhausted = match (self.options.arq, state.arq) {
            (false, ArqHealth::Absent) | (true, ArqHealth::Nominal) => false,
            (true, ArqHealth::Exhausted) => true,
            _ => return None,
        };
        let edges = u32::from(state.mesh_down | state.mesh_rerouted);
        if edges >> self.options.mesh_edges != 0 {
            return None;
        }
        let mut word = 0u64;
        let mut present = 0;
        for (slot, &(p, presence)) in self.slots.iter().enumerate() {
            match (state.modes.get(&p), presence) {
                // A declared partition is always in the mode map.
                (None, None) => return None,
                (None, Some(_)) => word |= 1 << slot,
                (Some(&mode), presence) => {
                    present += 1;
                    if mode == AbstractMode::Stopped {
                        word |= 1 << slot;
                    }
                    word |= presence.unwrap_or(0);
                }
            }
        }
        if present != state.modes.len() {
            // A partition outside the mode domain.
            return None;
        }
        Some(
            StateKey::default()
                .with_mesh(state.mesh_down, state.mesh_rerouted)
                .with_arq_exhausted(exhausted)
                .with_saved(saved)
                .with_schedule(schedule)
                .with_modes(word),
        )
    }

    /// Unpacks a key produced by this system.
    pub fn unpack(&self, key: StateKey) -> AbstractState {
        let word = key.modes();
        let modes = self
            .slots
            .iter()
            .enumerate()
            .filter(|&(_, &(_, presence))| presence.is_none_or(|bit| word & bit != 0))
            .map(|(slot, &(p, _))| {
                let mode = if (word >> slot) & 1 == 0 {
                    AbstractMode::Running
                } else {
                    AbstractMode::Stopped
                };
                (p, mode)
            })
            .collect();
        let link = match (self.degraded.is_some(), key.saved_schedule()) {
            (false, _) => LinkState::Absent,
            (true, None) => LinkState::Nominal,
            (true, Some(nominal)) => LinkState::Degraded {
                nominal: self.schedule_id(nominal),
            },
        };
        let arq = match (self.options.arq, key.arq_exhausted()) {
            (false, _) => ArqHealth::Absent,
            (true, false) => ArqHealth::Nominal,
            (true, true) => ArqHealth::Exhausted,
        };
        AbstractState {
            schedule: self.schedule_id(key.schedule()),
            modes,
            link,
            arq,
            mesh_down: key.mesh_down(),
            mesh_rerouted: key.mesh_rerouted(),
        }
    }

    /// The initial key: the boot schedule, every declared partition
    /// running, link and ARQ nominal, all mesh edges up.
    pub fn initial_key(&self) -> StateKey {
        self.initial
    }

    /// The initial state: the boot schedule, every partition running, link
    /// and ARQ nominal (or absent when unconfigured), all mesh edges up.
    pub fn initial_state(&self) -> AbstractState {
        self.unpack(self.initial)
    }

    /// Enumerates the events enabled in `state`, in a canonical
    /// deterministic order: schedule requests sorted by (requester, target),
    /// then racing request pairs, then deadline faults, then partition
    /// faults, then module fault, then link events, then ARQ events, then
    /// mesh edge events. A state outside the key space enables nothing.
    pub fn enabled_events(&self, state: &AbstractState) -> Vec<AbstractEvent> {
        let mut events = Vec::new();
        if let Some(key) = self.pack(state) {
            self.key_events(key, &mut events);
        }
        events
    }

    /// Applies `event` to `state`, returning the successor (or `None` when
    /// the event is not enabled there).
    pub fn step(&self, state: &AbstractState, event: AbstractEvent) -> Option<Transition> {
        let t = self.step_key(self.pack(state)?, event)?;
        Some(Transition {
            state: self.unpack(t.key),
            restarted: self.partitions_of(t.restarted).collect(),
        })
    }

    /// Appends the events enabled in `key` to `out`, in the canonical order
    /// of [`enabled_events`](Self::enabled_events).
    pub fn key_events(&self, key: StateKey, out: &mut Vec<AbstractEvent>) {
        let current = key.schedule();
        let stopped = key.modes();
        let ids = &self.schedule_ids;
        for by in self.partitions_of(self.commanders(key)) {
            self.requests_by(by, current, out);
            for (i, &first) in ids.iter().enumerate() {
                if i == current {
                    continue;
                }
                for (j, &second) in ids.iter().enumerate() {
                    if j != current && j != i {
                        out.push(AbstractEvent::RaceRequest { by, first, second });
                    }
                }
            }
        }
        for partition in self.partitions_of(self.deadline & !stopped) {
            out.push(AbstractEvent::DeadlineFault { partition });
        }
        if self.options.partition_faults {
            for partition in self.partitions_of(self.declared & !stopped) {
                out.push(AbstractEvent::PartitionFault { partition });
            }
        }
        if self.options.module_faults {
            out.push(AbstractEvent::ModuleFault);
        }
        let link = self.degraded.is_some();
        let degraded = key.saved_schedule().is_some();
        if link {
            out.push(if degraded {
                AbstractEvent::LinkUp
            } else {
                AbstractEvent::LinkDown
            });
        }
        if self.options.arq {
            if !key.arq_exhausted() {
                out.push(AbstractEvent::ArqExhausted);
            } else if link && !degraded {
                // Resync needs a healthy link; with no degraded schedule
                // the abstraction has no repair path, making exhaustion
                // terminal.
                out.push(AbstractEvent::ArqRecovered);
            }
        }
        let (down, rerouted) = (key.mesh_down(), key.mesh_rerouted());
        for edge in 0..self.options.mesh_edges {
            if down & (1 << edge) == 0 {
                out.push(AbstractEvent::MeshLinkDown { edge });
            } else {
                out.push(AbstractEvent::MeshLinkUp { edge });
                if rerouted & (1 << edge) == 0 {
                    out.push(AbstractEvent::MeshReroute { edge });
                }
            }
        }
    }

    /// Appends the [`ScheduleRequest`](AbstractEvent::ScheduleRequest)
    /// events enabled in `key` to `out`, and no other event: the requests
    /// of [`key_events`](Self::key_events), in its order.
    pub fn schedule_requests(&self, key: StateKey, out: &mut Vec<AbstractEvent>) {
        for by in self.partitions_of(self.commanders(key)) {
            self.requests_by(by, key.schedule(), out);
        }
    }

    /// Slot bits of the authorities running with a window in `key`.
    fn commanders(&self, key: StateKey) -> u64 {
        self.authorities & self.window_mask(key.schedule()) & !key.modes()
    }

    /// Appends `by`'s requests for every schedule but the `current` one,
    /// in set order.
    fn requests_by(&self, by: PartitionId, current: usize, out: &mut Vec<AbstractEvent>) {
        for (i, &to) in self.schedule_ids.iter().enumerate() {
            if i != current {
                out.push(AbstractEvent::ScheduleRequest { by, to });
            }
        }
    }

    /// Applies `event` to `key`, returning the successor (or `None` when
    /// the event is not enabled there). The only transition function.
    pub fn step_key(&self, key: StateKey, event: AbstractEvent) -> Option<KeyTransition> {
        let current = key.schedule();
        let unchanged = KeyTransition { key, restarted: 0 };
        let (down, rerouted) = (key.mesh_down(), key.mesh_rerouted());
        match event {
            AbstractEvent::ScheduleRequest { by, to } => {
                let to = self.schedule_index(to)?;
                if !self.may_command(key, by) || to == current {
                    return None;
                }
                Some(self.switch(key, to))
            }
            AbstractEvent::RaceRequest { by, first, second } => {
                let first = self.schedule_index(first)?;
                let second = self.schedule_index(second)?;
                if !self.may_command(key, by)
                    || first == current
                    || second == current
                    || first == second
                {
                    return None;
                }
                // Last request wins the MTF boundary (Sect. 4.1): the
                // transition is exactly a committed switch to `second`.
                Some(self.switch(key, second))
            }
            AbstractEvent::PartitionFault { partition } => {
                if !self.options.partition_faults {
                    return None;
                }
                // Standard recovery: warm restart; the key is unchanged.
                let bit = self.running_bit(key, partition)?;
                Some(KeyTransition {
                    key,
                    restarted: bit,
                })
            }
            AbstractEvent::ModuleFault => {
                if !self.options.module_faults {
                    return None;
                }
                // Module `Reset` recovery cold-restarts every partition in
                // the mode map.
                let modes = key.modes();
                let restarted = self.declared | self.undeclared_present(modes);
                Some(KeyTransition {
                    key: key.with_modes(modes & !restarted),
                    restarted,
                })
            }
            AbstractEvent::LinkDown => {
                let degraded = self.degraded?;
                if key.saved_schedule().is_some() {
                    return None;
                }
                let saved = key.with_saved(u16::try_from(current + 1).ok()?);
                Some(if degraded == current {
                    KeyTransition {
                        key: saved,
                        restarted: 0,
                    }
                } else {
                    self.switch(saved, degraded)
                })
            }
            AbstractEvent::LinkUp => {
                let nominal = key.saved_schedule()?;
                let up = key.with_saved(0);
                Some(if nominal == current {
                    KeyTransition {
                        key: up,
                        restarted: 0,
                    }
                } else {
                    self.switch(up, nominal)
                })
            }
            AbstractEvent::DeadlineFault { partition } => {
                // Process-level recovery only; the key is unchanged.
                let bit = self.running_bit(key, partition)?;
                (self.deadline & bit != 0).then_some(unchanged)
            }
            AbstractEvent::ArqExhausted => {
                if !self.options.arq || key.arq_exhausted() {
                    return None;
                }
                Some(KeyTransition {
                    key: key.with_arq_exhausted(true),
                    restarted: 0,
                })
            }
            AbstractEvent::ArqRecovered => {
                if !self.options.arq
                    || !key.arq_exhausted()
                    || self.degraded.is_none()
                    || key.saved_schedule().is_some()
                {
                    return None;
                }
                Some(KeyTransition {
                    key: key.with_arq_exhausted(false),
                    restarted: 0,
                })
            }
            AbstractEvent::MeshLinkDown { edge } => {
                if edge >= self.options.mesh_edges || down & (1 << edge) != 0 {
                    return None;
                }
                Some(KeyTransition {
                    key: key.with_mesh(down | (1 << edge), rerouted),
                    restarted: 0,
                })
            }
            AbstractEvent::MeshLinkUp { edge } => {
                if edge >= self.options.mesh_edges || down & (1 << edge) == 0 {
                    return None;
                }
                // Recovery dismantles any detour around the edge.
                let keep = !(1 << edge);
                Some(KeyTransition {
                    key: key.with_mesh(down & keep, rerouted & keep),
                    restarted: 0,
                })
            }
            AbstractEvent::MeshReroute { edge } => {
                if edge >= self.options.mesh_edges
                    || down & (1 << edge) == 0
                    || rerouted & (1 << edge) != 0
                {
                    return None;
                }
                Some(KeyTransition {
                    key: key.with_mesh(down, rerouted | (1 << edge)),
                    restarted: 0,
                })
            }
        }
    }

    /// The slot bit of `partition` when it is running in `key`.
    fn running_bit(&self, key: StateKey, partition: PartitionId) -> Option<u64> {
        let bit = 1u64 << self.slot_of(partition)?;
        (key.modes() & bit == 0).then_some(bit)
    }

    /// Whether authority `by` is running with a window in `key`.
    fn may_command(&self, key: StateKey, by: PartitionId) -> bool {
        let commanders = self.commanders(key);
        self.slot_of(by)
            .is_some_and(|slot| (commanders >> slot) & 1 != 0)
    }

    /// Commits a switch to the schedule at `to`, applying its change
    /// actions to the mode word.
    fn switch(&self, key: StateKey, to: usize) -> KeyTransition {
        let Some(table) = self.tables.get(to) else {
            return KeyTransition { key, restarted: 0 };
        };
        KeyTransition {
            key: key
                .with_schedule(to)
                .with_modes((key.modes() & table.keep) | table.set),
            restarted: table.restart,
        }
    }

    /// Folds `schedule`'s change actions into one mode-word update.
    ///
    /// A change action fires at the partition's first dispatch under the
    /// new schedule, so a partition with no window there never sees its
    /// action; the abstraction skips it too. A schedule holds at most one
    /// action per partition, so the actions commute.
    fn schedule_table(&self, schedule: &Schedule) -> ScheduleTable {
        let mut table = ScheduleTable {
            windows: 0,
            keep: !0,
            set: 0,
            restart: 0,
        };
        for (slot, &(p, _)) in self.slots.iter().enumerate() {
            if schedule.windows_for(p).next().is_some() {
                table.windows |= 1 << slot;
            }
        }
        for (partition, action) in schedule.change_actions() {
            let Some(slot) = self.slot_of(partition) else {
                continue;
            };
            let bit = 1u64 << slot;
            if table.windows & bit == 0 {
                continue;
            }
            let presence = self.slots.get(slot).and_then(|s| s.1).unwrap_or(0);
            match action {
                ScheduleChangeAction::None => {}
                ScheduleChangeAction::WarmRestart | ScheduleChangeAction::ColdRestart => {
                    table.keep &= !bit;
                    table.set |= presence;
                    table.restart |= bit;
                }
                ScheduleChangeAction::Stop => table.set |= bit | presence,
            }
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{PartitionRequirement, TimeWindow};
    use crate::time::Ticks;

    const P0: PartitionId = PartitionId(0);
    const P1: PartitionId = PartitionId(1);
    const CHI0: ScheduleId = ScheduleId(0);
    const CHI1: ScheduleId = ScheduleId(1);

    fn win(p: PartitionId, offset: u64, duration: u64) -> TimeWindow {
        TimeWindow::new(p, Ticks(offset), Ticks(duration))
    }

    fn req(p: PartitionId) -> PartitionRequirement {
        PartitionRequirement::new(p, Ticks(100), Ticks(40))
    }

    /// chi0 windows both partitions; chi1 windows both but stops P1 on
    /// entry (a load-shedding schedule).
    fn two_schedule_system(options: ExploreOptions) -> TransitionSystem {
        let chi0 = Schedule::new(
            CHI0,
            "nominal",
            Ticks(100),
            vec![req(P0), req(P1)],
            vec![win(P0, 0, 40), win(P1, 40, 40)],
        );
        let chi1 = Schedule::new(
            CHI1,
            "shed",
            Ticks(100),
            vec![req(P0), req(P1)],
            vec![win(P0, 0, 40), win(P1, 40, 40)],
        )
        .with_change_action(P1, ScheduleChangeAction::Stop);
        let schedules = match ScheduleSet::try_new(vec![chi0, chi1]) {
            Ok(s) => s,
            Err(e) => unreachable!("valid set: {e}"),
        };
        match TransitionSystem::new(schedules, vec![P0, P1], vec![P0], options) {
            Ok(ts) => ts,
            Err(e) => unreachable!("valid system: {e}"),
        }
    }

    #[test]
    fn initial_state_runs_everything() {
        let ts = two_schedule_system(ExploreOptions::default());
        let s0 = ts.initial_state();
        assert_eq!(s0.schedule, CHI0);
        assert_eq!(s0.mode_of(P0), AbstractMode::Running);
        assert_eq!(s0.mode_of(P1), AbstractMode::Running);
        assert_eq!(s0.link, LinkState::Absent);
    }

    #[test]
    fn switch_applies_stop_action() {
        let ts = two_schedule_system(ExploreOptions::default());
        let s0 = ts.initial_state();
        let t = ts
            .step(&s0, AbstractEvent::ScheduleRequest { by: P0, to: CHI1 })
            .unwrap();
        assert_eq!(t.state.schedule, CHI1);
        assert_eq!(t.state.mode_of(P1), AbstractMode::Stopped);
        assert_eq!(t.state.mode_of(P0), AbstractMode::Running);
        assert!(t.restarted.is_empty());
    }

    #[test]
    fn non_authority_cannot_switch() {
        let ts = two_schedule_system(ExploreOptions::default());
        let s0 = ts.initial_state();
        assert!(ts
            .step(&s0, AbstractEvent::ScheduleRequest { by: P1, to: CHI1 })
            .is_none());
    }

    #[test]
    fn module_fault_restarts_stopped_partitions() {
        let ts = two_schedule_system(ExploreOptions {
            module_faults: true,
            ..ExploreOptions::default()
        });
        let s0 = ts.initial_state();
        let stopped = ts
            .step(&s0, AbstractEvent::ScheduleRequest { by: P0, to: CHI1 })
            .unwrap()
            .state;
        let t = ts.step(&stopped, AbstractEvent::ModuleFault).unwrap();
        assert_eq!(t.state.mode_of(P1), AbstractMode::Running);
        assert_eq!(t.restarted, vec![P0, P1]);
    }

    #[test]
    fn partition_fault_is_a_self_loop() {
        let ts = two_schedule_system(ExploreOptions {
            partition_faults: true,
            ..ExploreOptions::default()
        });
        let s0 = ts.initial_state();
        let t = ts
            .step(&s0, AbstractEvent::PartitionFault { partition: P0 })
            .unwrap();
        assert_eq!(t.state, s0);
        assert_eq!(t.restarted, vec![P0]);
    }

    #[test]
    fn link_round_trip_restores_nominal() {
        let ts = two_schedule_system(ExploreOptions {
            degraded_schedule: Some(CHI1),
            ..ExploreOptions::default()
        });
        let s0 = ts.initial_state();
        assert_eq!(s0.link, LinkState::Nominal);
        let down = ts.step(&s0, AbstractEvent::LinkDown).unwrap().state;
        assert_eq!(down.schedule, CHI1);
        assert_eq!(down.link, LinkState::Degraded { nominal: CHI0 });
        assert_eq!(down.mode_of(P1), AbstractMode::Stopped);
        let up = ts.step(&down, AbstractEvent::LinkUp).unwrap().state;
        assert_eq!(up.schedule, CHI0);
        assert_eq!(up.link, LinkState::Nominal);
        // chi0 has no restart action for P1, so it stays stopped.
        assert_eq!(up.mode_of(P1), AbstractMode::Stopped);
    }

    #[test]
    fn enabled_events_are_canonical() {
        let ts = two_schedule_system(ExploreOptions {
            degraded_schedule: Some(CHI1),
            module_faults: true,
            partition_faults: true,
            ..ExploreOptions::default()
        });
        let s0 = ts.initial_state();
        let events = ts.enabled_events(&s0);
        assert_eq!(
            events,
            vec![
                AbstractEvent::ScheduleRequest { by: P0, to: CHI1 },
                AbstractEvent::PartitionFault { partition: P0 },
                AbstractEvent::PartitionFault { partition: P1 },
                AbstractEvent::ModuleFault,
                AbstractEvent::LinkDown,
            ]
        );
        for e in events {
            assert!(ts.step(&s0, e).is_some(), "enabled event {e} must step");
        }
    }

    #[test]
    fn full_alphabet_is_canonical_and_steppable() {
        let ts = two_schedule_system(ExploreOptions {
            degraded_schedule: Some(CHI1),
            module_faults: true,
            partition_faults: true,
            deadline_faults: vec![P1, P0, P1],
            arq: true,
            mesh_edges: 2,
        });
        let s0 = ts.initial_state();
        let events = ts.enabled_events(&s0);
        assert_eq!(
            events,
            vec![
                AbstractEvent::ScheduleRequest { by: P0, to: CHI1 },
                AbstractEvent::DeadlineFault { partition: P0 },
                AbstractEvent::DeadlineFault { partition: P1 },
                AbstractEvent::PartitionFault { partition: P0 },
                AbstractEvent::PartitionFault { partition: P1 },
                AbstractEvent::ModuleFault,
                AbstractEvent::LinkDown,
                AbstractEvent::ArqExhausted,
                AbstractEvent::MeshLinkDown { edge: 0 },
                AbstractEvent::MeshLinkDown { edge: 1 },
            ]
        );
        for e in events {
            assert!(ts.step(&s0, e).is_some(), "enabled event {e} must step");
        }
    }

    #[test]
    fn deadline_fault_is_a_self_loop() {
        let ts = two_schedule_system(ExploreOptions {
            deadline_faults: vec![P0],
            ..ExploreOptions::default()
        });
        let s0 = ts.initial_state();
        let t = ts
            .step(&s0, AbstractEvent::DeadlineFault { partition: P0 })
            .unwrap();
        assert_eq!(t.state, s0);
        assert!(t.restarted.is_empty());
        // Not listed => not enabled.
        assert!(ts
            .step(&s0, AbstractEvent::DeadlineFault { partition: P1 })
            .is_none());
    }

    #[test]
    fn arq_exhaustion_recovers_only_on_a_nominal_link() {
        let ts = two_schedule_system(ExploreOptions {
            degraded_schedule: Some(CHI1),
            arq: true,
            ..ExploreOptions::default()
        });
        let s0 = ts.initial_state();
        assert_eq!(s0.arq, ArqHealth::Nominal);
        let ex = ts.step(&s0, AbstractEvent::ArqExhausted).unwrap().state;
        assert_eq!(ex.arq, ArqHealth::Exhausted);
        let down = ts.step(&ex, AbstractEvent::LinkDown).unwrap().state;
        // Degraded link: the transport cannot resync yet.
        assert!(ts.step(&down, AbstractEvent::ArqRecovered).is_none());
        let up = ts.step(&down, AbstractEvent::LinkUp).unwrap().state;
        let rec = ts.step(&up, AbstractEvent::ArqRecovered).unwrap().state;
        assert_eq!(rec.arq, ArqHealth::Nominal);
    }

    #[test]
    fn arq_without_degraded_schedule_is_terminal() {
        let ts = two_schedule_system(ExploreOptions {
            arq: true,
            ..ExploreOptions::default()
        });
        let s0 = ts.initial_state();
        assert_eq!(s0.link, LinkState::Absent);
        let ex = ts.step(&s0, AbstractEvent::ArqExhausted).unwrap().state;
        assert!(ts.step(&ex, AbstractEvent::ArqRecovered).is_none());
        assert!(!ts
            .enabled_events(&ex)
            .contains(&AbstractEvent::ArqRecovered));
    }

    #[test]
    fn mesh_edges_toggle_independently() {
        let ts = two_schedule_system(ExploreOptions {
            mesh_edges: 3,
            ..ExploreOptions::default()
        });
        let s0 = ts.initial_state();
        let d1 = ts
            .step(&s0, AbstractEvent::MeshLinkDown { edge: 1 })
            .unwrap()
            .state;
        assert_eq!(d1.mesh_down, 0b010);
        assert!(ts
            .step(&d1, AbstractEvent::MeshLinkDown { edge: 1 })
            .is_none());
        let d2 = ts
            .step(&d1, AbstractEvent::MeshLinkDown { edge: 2 })
            .unwrap()
            .state;
        assert_eq!(d2.mesh_down, 0b110);
        let back = ts
            .step(&d2, AbstractEvent::MeshLinkUp { edge: 1 })
            .unwrap()
            .state;
        assert_eq!(back.mesh_down, 0b100);
        assert!(ts
            .step(&s0, AbstractEvent::MeshLinkDown { edge: 3 })
            .is_none());
    }

    #[test]
    fn mesh_reroute_needs_a_down_edge_and_clears_with_recovery() {
        let ts = two_schedule_system(ExploreOptions {
            mesh_edges: 2,
            ..ExploreOptions::default()
        });
        let s0 = ts.initial_state();
        // No detour around a healthy edge.
        assert!(ts
            .step(&s0, AbstractEvent::MeshReroute { edge: 0 })
            .is_none());
        let down = ts
            .step(&s0, AbstractEvent::MeshLinkDown { edge: 0 })
            .unwrap()
            .state;
        assert!(ts
            .enabled_events(&down)
            .contains(&AbstractEvent::MeshReroute { edge: 0 }));
        let rerouted = ts
            .step(&down, AbstractEvent::MeshReroute { edge: 0 })
            .unwrap()
            .state;
        assert_eq!(rerouted.mesh_rerouted, 0b01);
        // At most one detour per outage.
        assert!(ts
            .step(&rerouted, AbstractEvent::MeshReroute { edge: 0 })
            .is_none());
        // Recovery dismantles the detour with the outage.
        let back = ts
            .step(&rerouted, AbstractEvent::MeshLinkUp { edge: 0 })
            .unwrap()
            .state;
        assert_eq!(back, s0);
    }

    #[test]
    fn race_request_commits_the_second_target() {
        let chi2 = Schedule::new(
            ScheduleId(2),
            "alt",
            Ticks(100),
            vec![req(P0), req(P1)],
            vec![win(P0, 0, 40), win(P1, 40, 40)],
        );
        let base = two_schedule_system(ExploreOptions::default());
        let mut schedules: Vec<Schedule> = base.schedules().iter().cloned().collect();
        schedules.push(chi2);
        let ts = TransitionSystem::new(
            ScheduleSet::try_new(schedules).unwrap(),
            vec![P0, P1],
            vec![P0],
            ExploreOptions::default(),
        )
        .unwrap();
        let s0 = ts.initial_state();
        let race = AbstractEvent::RaceRequest {
            by: P0,
            first: ScheduleId(2),
            second: CHI1,
        };
        let plain = ts
            .step(&s0, AbstractEvent::ScheduleRequest { by: P0, to: CHI1 })
            .unwrap();
        let raced = ts.step(&s0, race).unwrap();
        assert_eq!(raced.state, plain.state);
        assert!(ts.enabled_events(&s0).contains(&race));
        // Racing the active schedule, or itself, is not a race.
        assert!(ts
            .step(
                &s0,
                AbstractEvent::RaceRequest {
                    by: P0,
                    first: CHI0,
                    second: CHI1
                }
            )
            .is_none());
        assert!(ts
            .step(
                &s0,
                AbstractEvent::RaceRequest {
                    by: P0,
                    first: CHI1,
                    second: CHI1
                }
            )
            .is_none());
    }

    #[test]
    fn unknown_degraded_schedule_is_rejected() {
        let chi0 = Schedule::new(
            CHI0,
            "only",
            Ticks(100),
            vec![req(P0)],
            vec![win(P0, 0, 40)],
        );
        let schedules = ScheduleSet::try_new(vec![chi0]).unwrap();
        let err = TransitionSystem::new(
            schedules,
            vec![P0],
            vec![P0],
            ExploreOptions {
                degraded_schedule: Some(ScheduleId(9)),
                ..ExploreOptions::default()
            },
        )
        .unwrap_err();
        assert_eq!(
            err,
            TransitionSystemError::UnknownDegradedSchedule(ScheduleId(9))
        );
    }

    #[test]
    fn witness_round_trips() {
        let w = Witness {
            events: vec![
                AbstractEvent::ScheduleRequest { by: P0, to: CHI1 },
                AbstractEvent::LinkDown,
                AbstractEvent::PartitionFault { partition: P1 },
                AbstractEvent::ModuleFault,
                AbstractEvent::LinkUp,
            ],
        };
        let text = w.render();
        assert_eq!(
            text,
            "request(P0->chi1); link_down; fault(P1); module_fault; link_up"
        );
        assert_eq!(Witness::parse(&text).unwrap(), w);
    }

    #[test]
    fn empty_witness_round_trips() {
        let w = Witness::default();
        assert_eq!(w.render(), "(initial state)");
        assert_eq!(Witness::parse(&w.render()).unwrap(), w);
        assert_eq!(Witness::parse("").unwrap(), w);
    }

    #[test]
    fn witness_parse_rejects_garbage() {
        let err = Witness::parse("request(P0->chi1); explode").unwrap_err();
        assert_eq!(err.segment, "explode");
        assert!(Witness::parse("request(chi1->P0)").is_err());
        assert!(Witness::parse("fault(tau3)").is_err());
    }

    #[test]
    fn extended_witness_round_trips() {
        let w = Witness {
            events: vec![
                AbstractEvent::DeadlineFault { partition: P1 },
                AbstractEvent::ArqExhausted,
                AbstractEvent::MeshLinkDown { edge: 3 },
                AbstractEvent::RaceRequest {
                    by: P0,
                    first: CHI1,
                    second: ScheduleId(2),
                },
                AbstractEvent::MeshLinkUp { edge: 3 },
                AbstractEvent::ArqRecovered,
            ],
        };
        let text = w.render();
        assert_eq!(
            text,
            "deadline(P1); arq_exhausted; mesh_down(3); \
             race(P0->chi1,chi2); mesh_up(3); arq_recovered"
        );
        assert_eq!(Witness::parse(&text).unwrap(), w);
    }

    const P7: PartitionId = PartitionId(7);

    /// chi1 windows the undeclared P7 and restarts it; chi2 windows it and
    /// stops it (its stop of P1 never fires: P1 has no window there).
    fn undeclared_target_system() -> TransitionSystem {
        let chi0 = Schedule::new(
            CHI0,
            "ops",
            Ticks(100),
            vec![req(P0), req(P1)],
            vec![win(P0, 0, 40), win(P1, 40, 40)],
        );
        let chi1 = Schedule::new(
            CHI1,
            "spare",
            Ticks(100),
            vec![req(P0), req(P1)],
            vec![win(P0, 0, 40), win(P1, 40, 20), win(P7, 60, 20)],
        )
        .with_change_action(P7, ScheduleChangeAction::WarmRestart);
        let chi2 = Schedule::new(
            ScheduleId(2),
            "quiet",
            Ticks(100),
            vec![req(P0)],
            vec![win(P0, 0, 40), win(P7, 40, 20)],
        )
        .with_change_action(P7, ScheduleChangeAction::Stop)
        .with_change_action(P1, ScheduleChangeAction::Stop);
        TransitionSystem::new(
            ScheduleSet::try_new(vec![chi0, chi1, chi2]).unwrap(),
            vec![P0, P1],
            vec![P0],
            ExploreOptions {
                module_faults: true,
                partition_faults: true,
                ..ExploreOptions::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn undeclared_action_target_joins_the_mode_map() {
        let ts = undeclared_target_system();
        let s0 = ts.initial_state();
        assert_eq!(s0.to_string(), "chi0 P0=run P1=run");
        // Before any action reaches P7, a module reset leaves it out.
        let reset = ts.step(&s0, AbstractEvent::ModuleFault).unwrap();
        assert_eq!(reset.state, s0);
        assert_eq!(reset.restarted, vec![P0, P1]);
        let quiet = ts
            .step(
                &s0,
                AbstractEvent::ScheduleRequest {
                    by: P0,
                    to: ScheduleId(2),
                },
            )
            .unwrap();
        assert_eq!(quiet.state.to_string(), "chi2 P0=run P1=run P7=stop");
        assert!(quiet.restarted.is_empty());
        // Once inserted, the reset restarts P7 with everyone else.
        let reset = ts.step(&quiet.state, AbstractEvent::ModuleFault).unwrap();
        assert_eq!(reset.state.to_string(), "chi2 P0=run P1=run P7=run");
        assert_eq!(reset.restarted, vec![P0, P1, P7]);
        let spare = ts
            .step(&s0, AbstractEvent::ScheduleRequest { by: P0, to: CHI1 })
            .unwrap();
        assert_eq!(spare.state.to_string(), "chi1 P0=run P1=run P7=run");
        assert_eq!(spare.restarted, vec![P7]);
        // A present P7 can fault; an absent one cannot.
        let fault = AbstractEvent::PartitionFault { partition: P7 };
        assert_eq!(ts.step(&spare.state, fault).unwrap().restarted, vec![P7]);
        assert!(ts.step(&s0, fault).is_none());
        // Two mode-domain bits for P7, one per declared partition.
        assert_eq!(ts.slot_of(P7), Some(2));
        assert_eq!(ts.slot_of(PartitionId(3)), None);
    }

    #[test]
    fn key_fields_sit_at_their_documented_bits() {
        let ts = undeclared_target_system();
        let key = ts.pack(&AbstractState {
            schedule: ScheduleId(2),
            modes: [
                (P0, AbstractMode::Running),
                (P1, AbstractMode::Stopped),
                (P7, AbstractMode::Running),
            ]
            .into_iter()
            .collect(),
            link: LinkState::Absent,
            arq: ArqHealth::Absent,
            mesh_down: 0,
            mesh_rerouted: 0,
        });
        // Schedule index 2 at bit 49; P1 (slot 1) stopped; P7 (slot 2)
        // present (bit 3 of the mode word, after the three slots).
        assert_eq!(key, Some(StateKey((2 << 49) | (0b1010 << 64))));
        let degraded = two_schedule_system(ExploreOptions {
            degraded_schedule: Some(CHI1),
            arq: true,
            mesh_edges: 16,
            ..ExploreOptions::default()
        });
        let mut state = degraded.initial_state();
        state.link = LinkState::Degraded { nominal: CHI1 };
        state.arq = ArqHealth::Exhausted;
        state.mesh_down = 0x8001;
        state.mesh_rerouted = 0x8000;
        let key = degraded.pack(&state).unwrap();
        let expected = 0x8001 | (0x8000 << 16) | (1 << 32) | (2 << 33);
        assert_eq!(key, StateKey(expected));
        assert_eq!(key.saved_schedule(), Some(1));
        assert_eq!(degraded.unpack(key), state);
        // Outside the key space: an unknown schedule or partition, or a
        // mesh bit past the edge count.
        state.schedule = ScheduleId(9);
        assert_eq!(degraded.pack(&state), None);
        let plain = two_schedule_system(ExploreOptions::default());
        let mut state = plain.initial_state();
        state.modes.insert(P7, AbstractMode::Running);
        assert_eq!(plain.pack(&state), None);
    }

    #[test]
    fn packing_limits_are_typed_errors() {
        let wide = |n: u32| {
            let ids: Vec<PartitionId> = (0..n).map(PartitionId).collect();
            let chi0 = Schedule::new(
                CHI0,
                "wide",
                Ticks(100),
                vec![req(P0)],
                vec![win(P0, 0, 40)],
            );
            TransitionSystem::new(
                ScheduleSet::try_new(vec![chi0]).unwrap(),
                ids,
                vec![P0],
                ExploreOptions::default(),
            )
        };
        assert!(wide(64).is_ok());
        assert_eq!(
            wide(65).unwrap_err(),
            TransitionSystemError::ModeDomainTooWide { bits: 65 }
        );
        let err = TransitionSystem::new(
            two_schedule_system(ExploreOptions::default())
                .schedules()
                .clone(),
            vec![P0, P1],
            vec![P0],
            ExploreOptions {
                mesh_edges: 17,
                ..ExploreOptions::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, TransitionSystemError::TooManyMeshEdges { edges: 17 });
    }

    /// A random system: up to 64 mode bits (declared partitions with
    /// sparse ids, plus undeclared change-action targets at two bits
    /// each), 1–4 schedules with random windows and change actions, and
    /// the full event alphabet with up to 16 mesh edges.
    fn random_system(rng: &mut crate::testkit::TestRng) -> TransitionSystem {
        let undeclared = rng.below(4) as usize;
        let declared = 1 + rng.below_usize(64 - 2 * undeclared);
        let mut ids: Vec<u32> = (0..100).collect();
        let mut pick = Vec::new();
        for _ in 0..declared + undeclared {
            pick.push(ids.swap_remove(rng.below_usize(ids.len())));
        }
        let (declared_ids, extra) = pick.split_at(declared);
        let partitions: Vec<PartitionId> = declared_ids.iter().map(|&i| PartitionId(i)).collect();
        let everyone: Vec<PartitionId> = pick.iter().map(|&i| PartitionId(i)).collect();
        let schedules: Vec<Schedule> = (0..rng.range(1, 5))
            .map(|sid| {
                let windows: Vec<TimeWindow> = everyone
                    .iter()
                    .filter(|_| rng.chance(2, 3))
                    .map(|&p| win(p, 0, 10))
                    .collect();
                let mut schedule = Schedule::new(
                    ScheduleId(sid as u32),
                    "random",
                    Ticks(100),
                    Vec::new(),
                    windows,
                );
                for &p in &everyone {
                    let action = match rng.below(6) {
                        0 => ScheduleChangeAction::WarmRestart,
                        1 => ScheduleChangeAction::ColdRestart,
                        2 => ScheduleChangeAction::Stop,
                        3 => ScheduleChangeAction::None,
                        _ => continue,
                    };
                    schedule = schedule.with_change_action(p, action);
                }
                schedule
            })
            .collect();
        let count = schedules.len() as u64;
        let authorities: Vec<PartitionId> = everyone
            .iter()
            .copied()
            .filter(|_| rng.chance(1, 3))
            .collect();
        let deadline_faults: Vec<PartitionId> = partitions
            .iter()
            .copied()
            .filter(|_| rng.chance(1, 4))
            .collect();
        let options = ExploreOptions {
            degraded_schedule: rng
                .chance(1, 2)
                .then(|| ScheduleId(rng.below(count) as u32)),
            module_faults: rng.chance(1, 2),
            partition_faults: rng.chance(1, 2),
            deadline_faults,
            arq: rng.chance(1, 2),
            mesh_edges: rng.below(17) as u8,
        };
        let ts = TransitionSystem::new(
            ScheduleSet::try_new(schedules).unwrap(),
            partitions,
            authorities,
            options,
        )
        .unwrap();
        // Undeclared partitions join the domain only through an action.
        for &i in extra {
            let acted = ts
                .schedules()
                .iter()
                .any(|s| s.change_action_for(PartitionId(i)) != ScheduleChangeAction::None);
            assert!(acted || ts.slot_of(PartitionId(i)).is_none());
        }
        ts
    }

    #[test]
    fn schedule_requests_are_the_request_events_of_key_events() {
        for seed in 0..60 {
            let mut rng = crate::testkit::TestRng::new(seed);
            let ts = random_system(&mut rng);
            let graph = search::search(
                &ts,
                &search::SearchConfig {
                    depth: 3,
                    max_states: 2048,
                    ..search::SearchConfig::default()
                },
            );
            let (mut all, mut requests) = (Vec::new(), Vec::new());
            for &key in &graph.states {
                all.clear();
                requests.clear();
                ts.key_events(key, &mut all);
                all.retain(|e| matches!(e, AbstractEvent::ScheduleRequest { .. }));
                ts.schedule_requests(key, &mut requests);
                assert_eq!(requests, all, "seed {seed}");
            }
        }
    }

    #[test]
    fn packing_round_trips_over_random_reachable_states() {
        for seed in 0..60 {
            let mut rng = crate::testkit::TestRng::new(seed);
            let ts = random_system(&mut rng);
            let graph = search::search(
                &ts,
                &search::SearchConfig {
                    depth: 3,
                    max_states: 2048,
                    ..search::SearchConfig::default()
                },
            );
            for (index, &key) in graph.states.iter().enumerate() {
                let state = graph.state(&ts, index);
                assert_eq!(ts.pack(&state), Some(key), "seed {seed}: {state}");
            }
            // A random walk goes deeper than the search.
            let mut state = ts.initial_state();
            for _ in 0..64 {
                let events = ts.enabled_events(&state);
                if events.is_empty() {
                    break;
                }
                let event = events[rng.below_usize(events.len())];
                state = ts.step(&state, event).unwrap().state;
                let key = ts.pack(&state).unwrap();
                assert_eq!(ts.unpack(key), state, "seed {seed}");
            }
        }
    }
}
