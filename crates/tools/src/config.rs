//! Integration configuration files.
//!
//! "Spatial partitioning requirements (specified in AIR and ARINC 653
//! configuration files with the assistance of development tools support)"
//! (Sect. 2.1) — ARINC 653 systems are integrated from configuration
//! documents, not code. This module provides a small, line-based
//! configuration format with a strict parser (precise line-numbered
//! errors), an emitter, and conversion into the model types, so whole
//! systems round-trip through text:
//!
//! ```text
//! # the Fig. 8 prototype (excerpt)
//! partition P0 name=AOCS authority=true
//! partition P1 name=OBDH
//!
//! schedule chi0 name=chi1 mtf=1300
//!   require P0 cycle=1300 duration=200
//!   window  P0 offset=0 duration=200
//!   action  P1 warm_restart
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use air_hm::{ErrorId, ErrorLevel, EscalatedProcessAction, ProcessRecoveryAction};
use air_model::partition::{Partition, PosKind};
use air_model::process::{Deadline, Priority, ProcessAttributes, Recurrence};
use air_model::schedule::{
    PartitionRequirement, Schedule, ScheduleChangeAction, ScheduleSet, ScheduleSetError, TimeWindow,
};
use air_model::{PartitionId, ScheduleId, Ticks};
use air_ports::routing::NodeId;
use air_ports::sampling::Direction;
use air_ports::spacepacket::{PacketKind, APID_MAX};
use air_ports::transport::ArqConfig;
use air_ports::{ChannelConfig, Destination, PortAddr, QueuingPortConfig, SamplingPortConfig};

/// Source spans: a map from stable entity keys (see [`span_key`]) to the
/// 1-based line number where the entity was declared. Threaded from the
/// parser into diagnostics so static-analysis findings point back at the
/// configuration text.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Spans {
    map: BTreeMap<String, usize>,
}

impl Spans {
    /// Records that `key` was declared on `line`.
    pub fn set(&mut self, key: impl Into<String>, line: usize) {
        self.map.insert(key.into(), line);
    }

    /// The declaration line of `key`, if recorded.
    pub fn get(&self, key: &str) -> Option<usize> {
        self.map.get(key).copied()
    }

    /// Whether any span was recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Builders for the stable span keys shared by the parser and the linter.
pub mod span_key {
    use air_hm::ErrorId;
    use air_model::{PartitionId, ScheduleId, Ticks};

    /// Key of a `partition` declaration.
    pub fn partition(id: PartitionId) -> String {
        format!("partition:{id}")
    }

    /// Key of a `schedule` declaration.
    pub fn schedule(id: ScheduleId) -> String {
        format!("schedule:{id}")
    }

    /// Key of a `window` line (windows are keyed by schedule, partition
    /// and offset — stable under the model's sort-by-offset).
    pub fn window(schedule: ScheduleId, partition: PartitionId, offset: Ticks) -> String {
        format!("window:{schedule}:{partition}:{}", offset.as_u64())
    }

    /// Key of a `require` line.
    pub fn requirement(schedule: ScheduleId, partition: PartitionId) -> String {
        format!("require:{schedule}:{partition}")
    }

    /// Key of an `action` line.
    pub fn action(schedule: ScheduleId, partition: PartitionId) -> String {
        format!("action:{schedule}:{partition}")
    }

    /// Key of a `sampling`/`queuing` port declaration.
    pub fn port(partition: PartitionId, name: &str) -> String {
        format!("port:{partition}:{name}")
    }

    /// Key of a `process` declaration.
    pub fn process(partition: PartitionId, name: &str) -> String {
        format!("process:{partition}:{name}")
    }

    /// Key of a `memory` declaration.
    pub fn memory(partition: PartitionId, base: u64) -> String {
        format!("memory:{partition}:{base:#x}")
    }

    /// Key of a `channel` declaration.
    pub fn channel(id: u32) -> String {
        format!("channel:{id}")
    }

    /// Key of an `hm` level declaration.
    pub fn hm(error: ErrorId) -> String {
        format!("hm:{}", super::error_id_token(error))
    }

    /// Key of the `link` declaration (at most one per document).
    pub fn link() -> String {
        "link".into()
    }

    /// Key of the `arq` declaration (at most one per document).
    pub fn arq() -> String {
        "arq".into()
    }

    /// Key of a `handler` declaration.
    pub fn handler(partition: PartitionId, error: ErrorId) -> String {
        format!("handler:{partition}:{}", super::error_id_token(error))
    }

    /// Key of the `node` declaration (at most one per document).
    pub fn node() -> String {
        "node".into()
    }

    /// Key of a `route` declaration, keyed by destination node.
    pub fn route(dst: u16) -> String {
        format!("route:N{dst}")
    }

    /// Key of an `apid` declaration.
    pub fn apid(apid: u16) -> String {
        format!("apid:{apid}")
    }

    /// Key of a `flow` declaration, keyed by source node, APID and
    /// destination node.
    pub fn flow(src: u16, apid: u16, dst: u16) -> String {
        format!("flow:N{src}:{apid}:N{dst}")
    }
}

/// The configuration-file token of an [`ErrorId`] (snake_case).
pub fn error_id_token(error: ErrorId) -> &'static str {
    match error {
        ErrorId::DeadlineMissed => "deadline_missed",
        ErrorId::ApplicationError => "application_error",
        ErrorId::NumericError => "numeric_error",
        ErrorId::IllegalRequest => "illegal_request",
        ErrorId::StackOverflow => "stack_overflow",
        ErrorId::MemoryViolation => "memory_violation",
        ErrorId::HardwareFault => "hardware_fault",
        ErrorId::PowerFail => "power_fail",
        ErrorId::ConfigError => "config_error",
        ErrorId::LinkDegraded => "link_degraded",
        // `ErrorId` is non-exhaustive; a new id needs a token here before
        // it can appear in configuration files.
        _ => "unknown_error",
    }
}

fn error_id_from_token(token: &str) -> Option<ErrorId> {
    ErrorId::ALL
        .into_iter()
        .find(|e| error_id_token(*e) == token)
}

/// A physical memory region assigned to a partition (`memory` directive):
/// the spatial-partitioning map static analysis operates on these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryRegion {
    /// The owning partition.
    pub partition: PartitionId,
    /// Physical base address.
    pub base: u64,
    /// Region size in bytes.
    pub size: u64,
    /// Whether the partition may write the region.
    pub writable: bool,
    /// Whether the partition may execute from the region.
    pub executable: bool,
    /// Whether the region is deliberately shared between partitions
    /// (shared regions may coincide; exclusive ones may not).
    pub shared: bool,
}

/// The redundant-link description of a `link` directive: the physical
/// parameters a node's adapters are integrated with. The defaults mirror
/// the hardware layer's (`failover_threshold=4`, `revert=400`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkDirective {
    /// Primary adapter propagation latency in ticks.
    pub primary_latency: u64,
    /// Secondary (redundant) adapter latency; `None` means no secondary
    /// adapter is fitted and failover is unavailable.
    pub secondary_latency: Option<u64>,
    /// Consecutive timeout rounds before failing over to the secondary.
    pub failover_threshold: u32,
    /// Probation ticks on the secondary before reverting to the primary.
    pub revert_ticks: u64,
    /// Schedule the module switches to while the link is degraded
    /// (`degraded=chi<n>`); `None` means failover does not change the
    /// schedule.
    pub degraded: Option<ScheduleId>,
}

/// The mesh identity of a `node` directive: which node of an N-node
/// routed mesh this configuration document describes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeshNodeDirective {
    /// This node's mesh identity.
    pub id: NodeId,
    /// Human-readable node name (e.g. `GROUND`, `RELAY1`).
    pub name: String,
    /// Hot-spare declaration: the node promoted to this node's role when
    /// a mesh partition cuts it off (`fallback=N<k>`).
    pub fallback: Option<NodeId>,
}

/// One static routing entry of a `route` directive: packets for `dst`
/// leave through neighbour `via`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteDirective {
    /// Final destination node.
    pub dst: NodeId,
    /// Next-hop neighbour toward `dst`.
    pub via: NodeId,
}

/// One application-process identifier claim of an `apid` directive: the
/// node declares it originates packets under this APID.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApidDirective {
    /// The 11-bit application process identifier.
    pub apid: u16,
    /// Human-readable stream name (e.g. `CMD`, `HM_EVENTS`).
    pub name: String,
    /// Whether the stream carries telecommands or telemetry.
    pub kind: PacketKind,
}

/// One declared end-to-end flow of a `flow` directive: telecommands
/// under `apid` injected at `src` must produce their completion
/// telemetry back at `src` after round-tripping through `dst` within
/// `deadline` ticks. The timing stage of `air-lint` certifies a
/// worst-case latency bound for every declared flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowDirective {
    /// Node the telecommand is injected at (the commander).
    pub src: NodeId,
    /// APID of the telecommand stream.
    pub apid: u16,
    /// Node that executes the command and emits the telemetry response.
    pub dst: NodeId,
    /// End-to-end deadline in ticks; `None` parses but fails the timing
    /// lint (AIR115) — every certified flow needs a declared budget.
    pub deadline: Option<u64>,
}

/// A parsed configuration document.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ConfigDoc {
    /// Declared partitions, in declaration order.
    pub partitions: Vec<Partition>,
    /// Declared schedules, in declaration order.
    pub schedules: Vec<Schedule>,
    /// Declared sampling ports with their owning partition.
    pub sampling_ports: Vec<(PartitionId, SamplingPortConfig)>,
    /// Declared queuing ports with their owning partition.
    pub queuing_ports: Vec<(PartitionId, QueuingPortConfig)>,
    /// Declared processes with their owning partition.
    pub processes: Vec<(PartitionId, ProcessAttributes)>,
    /// Declared physical memory regions.
    pub memory: Vec<MemoryRegion>,
    /// Declared interpartition channels (local and/or remote
    /// destinations).
    pub channels: Vec<ChannelConfig>,
    /// Redundant-link parameters (`link` directive), when the node is
    /// part of a cluster.
    pub link: Option<LinkDirective>,
    /// Reliable-transport tuning (`arq` directive); `None` leaves the
    /// runtime defaults in force.
    pub arq: Option<ArqConfig>,
    /// Mesh identity (`node` directive), when the node is part of an
    /// N-node routed mesh.
    pub mesh_node: Option<MeshNodeDirective>,
    /// Static routing entries (`route` directives), in declaration order.
    pub routes: Vec<RouteDirective>,
    /// Application-process identifier claims (`apid` directives), in
    /// declaration order.
    pub apids: Vec<ApidDirective>,
    /// Declared end-to-end flows (`flow` directives), in declaration
    /// order.
    pub flows: Vec<FlowDirective>,
    /// Explicit module-level HM classification (`hm` directives).
    pub hm_levels: Vec<(ErrorId, ErrorLevel)>,
    /// Partition error-handler entries (`handler` directives).
    pub handlers: Vec<(PartitionId, ErrorId, ProcessRecoveryAction)>,
    /// Source spans of every declaration, for diagnostics.
    pub spans: Spans,
}

impl ConfigDoc {
    /// Converts the declared schedules into a [`ScheduleSet`].
    ///
    /// # Panics
    ///
    /// Panics if no schedule was declared (`ScheduleSet` requires ≥ 1) —
    /// callers should check [`ConfigDoc::schedules`] first, or use
    /// [`ConfigDoc::try_schedule_set`].
    pub fn schedule_set(&self) -> ScheduleSet {
        ScheduleSet::new(self.schedules.clone())
    }

    /// Converts the declared schedules into a [`ScheduleSet`], reporting
    /// degenerate declarations as an error instead of panicking.
    ///
    /// # Errors
    ///
    /// [`ScheduleSetError`] when no schedule was declared. (Duplicate ids
    /// are already rejected by [`parse`].)
    pub fn try_schedule_set(&self) -> Result<ScheduleSet, ScheduleSetError> {
        ScheduleSet::try_new(self.schedules.clone())
    }
}

/// A configuration parse error with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

fn err(line: usize, message: impl Into<String>) -> ConfigError {
    ConfigError {
        line,
        message: message.into(),
    }
}

/// Pairs a line holds inline; a longer line keeps the rest on the heap.
const INLINE_PAIRS: usize = 16;

/// A line's `key=value` pairs, in line order, each key set once. The first
/// [`INLINE_PAIRS`] are held inline, so a common line allocates nothing,
/// and a lookup scans them: a line holds a handful of pairs.
struct Fields<'a> {
    inline: [(&'a str, &'a str); INLINE_PAIRS],
    len: usize,
    spilled: Vec<(&'a str, &'a str)>,
}

impl<'a> Fields<'a> {
    /// The value of `key`, if the line sets it.
    fn get(&self, key: &str) -> Option<&'a str> {
        self.inline[..self.len]
            .iter()
            .chain(&self.spilled)
            .find(|&&(k, _)| k == key)
            .map(|&(_, value)| value)
    }
}

/// Parses `key=value` pairs from the remaining tokens, reporting the first
/// token, in line order, that is no pair or repeats a key.
fn parse_kv<'a>(
    line_no: usize,
    tokens: impl Iterator<Item = &'a str>,
) -> Result<Fields<'a>, ConfigError> {
    let mut fields = Fields {
        inline: [("", ""); INLINE_PAIRS],
        len: 0,
        spilled: Vec::new(),
    };
    // The keys of a line past its inline pairs, so that no line's
    // duplicate check grows quadratically.
    let mut keys: BTreeSet<&str> = BTreeSet::new();
    for token in tokens {
        let Some((key, value)) = token.split_once('=') else {
            return Err(err(line_no, format!("expected key=value, found '{token}'")));
        };
        let duplicate = if fields.len < INLINE_PAIRS {
            fields.inline[..fields.len].iter().any(|&(k, _)| k == key)
        } else {
            if keys.is_empty() {
                keys.extend(fields.inline.iter().map(|&(k, _)| k));
            }
            !keys.insert(key)
        };
        if duplicate {
            return Err(err(line_no, format!("duplicate key '{key}'")));
        }
        if fields.len < INLINE_PAIRS {
            fields.inline[fields.len] = (key, value);
            fields.len += 1;
        } else {
            fields.spilled.push((key, value));
        }
    }
    Ok(fields)
}

fn parse_pid(line_no: usize, token: &str) -> Result<PartitionId, ConfigError> {
    let digits = token.strip_prefix('P').ok_or_else(|| {
        err(
            line_no,
            format!("expected partition id 'P<n>', found '{token}'"),
        )
    })?;
    digits
        .parse::<u32>()
        .map(PartitionId)
        .map_err(|_| err(line_no, format!("invalid partition number '{digits}'")))
}

fn parse_node_id(line_no: usize, token: &str) -> Result<NodeId, ConfigError> {
    let digits = token
        .strip_prefix('N')
        .ok_or_else(|| err(line_no, format!("expected node id 'N<n>', found '{token}'")))?;
    digits
        .parse::<u16>()
        .map(NodeId)
        .map_err(|_| err(line_no, format!("invalid node number '{digits}'")))
}

fn parse_u64(line_no: usize, map: &Fields<'_>, key: &str) -> Result<u64, ConfigError> {
    let raw = map
        .get(key)
        .ok_or_else(|| err(line_no, format!("missing '{key}='")))?;
    raw.parse::<u64>()
        .map_err(|_| err(line_no, format!("invalid number '{raw}' for '{key}'")))
}

/// Parses an optional decimal number, returning `None` when absent.
fn parse_u64_opt(line_no: usize, map: &Fields<'_>, key: &str) -> Result<Option<u64>, ConfigError> {
    match map.get(key) {
        None => Ok(None),
        Some(_) => parse_u64(line_no, map, key).map(Some),
    }
}

/// Parses a number that may be written in hex (`0x…`) or decimal.
fn parse_addr(line_no: usize, map: &Fields<'_>, key: &str) -> Result<u64, ConfigError> {
    let raw = map
        .get(key)
        .ok_or_else(|| err(line_no, format!("missing '{key}='")))?;
    let parsed = match raw.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse::<u64>(),
    };
    parsed.map_err(|_| err(line_no, format!("invalid number '{raw}' for '{key}'")))
}

/// Parses `P<n>:<port>` into a [`PortAddr`].
fn parse_port_addr(line_no: usize, token: &str) -> Result<PortAddr, ConfigError> {
    let (pid_tok, port) = token
        .split_once(':')
        .ok_or_else(|| err(line_no, format!("expected 'P<n>:<port>', found '{token}'")))?;
    if port.is_empty() {
        return Err(err(line_no, format!("empty port name in '{token}'")));
    }
    Ok(PortAddr::new(parse_pid(line_no, pid_tok)?, port))
}

/// Parses one channel destination: `P<n>:<port>` (local) or
/// `remote:P<n>:<port>` (carried over the inter-node link).
fn parse_destination(line_no: usize, token: &str) -> Result<Destination, ConfigError> {
    match token.strip_prefix("remote:") {
        Some(rest) => Ok(Destination::Remote {
            addr: parse_port_addr(line_no, rest)?,
        }),
        None => Ok(Destination::Local(parse_port_addr(line_no, token)?)),
    }
}

fn parse_error_id(line_no: usize, token: &str) -> Result<ErrorId, ConfigError> {
    error_id_from_token(token).ok_or_else(|| err(line_no, format!("unknown error id '{token}'")))
}

fn parse_direction(line_no: usize, map: &Fields<'_>) -> Result<Direction, ConfigError> {
    match map.get("dir") {
        Some("source") => Ok(Direction::Source),
        Some("destination") => Ok(Direction::Destination),
        Some(other) => Err(err(line_no, format!("unknown direction '{other}'"))),
        None => Err(err(line_no, "missing 'dir='")),
    }
}

/// Parses a `handler` action token, e.g. `restart_process` or
/// `log_then_act=3/restart_partition`.
fn parse_recovery_action(
    line_no: usize,
    token: &str,
) -> Result<ProcessRecoveryAction, ConfigError> {
    if let Some(rest) = token.strip_prefix("log_then_act=") {
        let (count, then_tok) = rest.split_once('/').ok_or_else(|| {
            err(
                line_no,
                format!("expected 'log_then_act=<n>/<action>', found '{token}'"),
            )
        })?;
        let threshold = count
            .parse::<u32>()
            .map_err(|_| err(line_no, format!("invalid log count '{count}'")))?;
        let then = match then_tok {
            "restart_process" => EscalatedProcessAction::RestartProcess,
            "start_other_process" => EscalatedProcessAction::StartOtherProcess,
            "stop_process" => EscalatedProcessAction::StopProcess,
            "restart_partition" => EscalatedProcessAction::RestartPartition,
            "stop_partition" => EscalatedProcessAction::StopPartition,
            other => {
                return Err(err(line_no, format!("unknown escalation '{other}'")));
            }
        };
        return Ok(ProcessRecoveryAction::LogThenAct { threshold, then });
    }
    match token {
        "ignore" => Ok(ProcessRecoveryAction::Ignore),
        "restart_process" => Ok(ProcessRecoveryAction::RestartProcess),
        "start_other_process" => Ok(ProcessRecoveryAction::StartOtherProcess),
        "stop_process" => Ok(ProcessRecoveryAction::StopProcess),
        "restart_partition" => Ok(ProcessRecoveryAction::RestartPartition),
        "stop_partition" => Ok(ProcessRecoveryAction::StopPartition),
        other => Err(err(line_no, format!("unknown handler action '{other}'"))),
    }
}

/// Parses a configuration document.
///
/// Grammar (one directive per line; `#` starts a comment; indentation is
/// free):
///
/// * `partition P<n> name=<str> [pos=real_time|generic] [system=true]
///   [authority=true]`
/// * `schedule chi<n> name=<str> mtf=<ticks>` opening a schedule section,
///   whose body consists of
///   * `require P<n> cycle=<ticks> duration=<ticks>`
///   * `window P<n> offset=<ticks> duration=<ticks>`
///   * `action P<n> none|warm_restart|cold_restart|stop`
/// * `sampling P<n> name=<str> dir=source|destination size=<bytes>
///   [refresh=<ticks>]` (refresh applies to destinations)
/// * `queuing P<n> name=<str> dir=source|destination size=<bytes>
///   depth=<messages>`
/// * `process P<n> name=<str> [period=<ticks>|sporadic=<ticks>]
///   [deadline=<ticks>] [wcet=<ticks>] [priority=<0-255>]`
/// * `memory P<n> base=<addr> size=<bytes> perm=ro|rw|rx|rwx
///   [shared=true]` (numbers may be hex `0x…`)
/// * `channel <id> from=P<n>:<port> to=<dest>[,<dest>…]` where `<dest>`
///   is `P<n>:<port>` (local) or `remote:P<n>:<port>` (gateway to the
///   counterpart node of a cluster)
/// * `link primary_latency=<ticks> [secondary_latency=<ticks>]
///   [failover_threshold=<rounds>] [revert=<ticks>] [degraded=chi<n>]`
///   (at most one; `degraded` names the schedule entered on failover)
/// * `arq window=<frames> timeout=<ticks> [backoff_cap=<n>]
///   [max_retries=<n>] [recovery_threshold=<n>]` (at most one)
/// * `node N<n> name=<str> [fallback=N<k>]` (at most one; declares this
///   document's mesh identity within an N-node routed mesh, and
///   optionally the hot-spare node promoted when a partition cuts this
///   node off)
/// * `route N<dst> via=N<next>` (static routing entry: packets for
///   `N<dst>` leave through neighbour `N<next>`; one entry per
///   destination)
/// * `apid <id> name=<str> kind=tc|tm` (this node originates packets
///   under APID `<id>`, which must fit the 11-bit space-packet field)
/// * `flow N<src>:<apid> -> N<dst> [deadline=<ticks>]` (end-to-end flow:
///   telecommands under `<apid>` injected at `N<src>` must complete
///   their round trip through `N<dst>` within `deadline` ticks; the
///   timing lint certifies a worst-case bound per flow)
/// * `hm <error_id> level=process|partition|module`
/// * `handler P<n> <error_id> ignore|restart_process|start_other_process|
///   stop_process|restart_partition|stop_partition|
///   log_then_act=<n>/<escalation>`
///
/// where `<error_id>` is one of `deadline_missed`, `application_error`,
/// `numeric_error`, `illegal_request`, `stack_overflow`,
/// `memory_violation`, `hardware_fault`, `power_fail`, `config_error`,
/// `link_degraded`.
///
/// Duplicate partition or schedule identifiers are rejected with the line
/// number of the second declaration.
///
/// # Errors
///
/// [`ConfigError`] with the offending line number and a description.
///
/// # Examples
///
/// ```
/// use air_tools::config::parse;
///
/// let doc = parse(
///     "partition P0 name=SOLO\n\
///      schedule chi0 name=only mtf=100\n\
///        require P0 cycle=100 duration=40\n\
///        window P0 offset=0 duration=40\n",
/// )?;
/// assert_eq!(doc.partitions.len(), 1);
/// assert_eq!(doc.schedules[0].mtf().as_u64(), 100);
/// # Ok::<(), air_tools::config::ConfigError>(())
/// ```
pub fn parse(text: &str) -> Result<ConfigDoc, ConfigError> {
    let mut doc = ConfigDoc::default();
    // Accumulator for the schedule section currently open.
    struct OpenSchedule {
        id: ScheduleId,
        name: String,
        mtf: Ticks,
        requirements: Vec<PartitionRequirement>,
        windows: Vec<TimeWindow>,
        actions: Vec<(PartitionId, ScheduleChangeAction)>,
    }
    let mut open: Option<OpenSchedule> = None;
    let mut seen_partitions: BTreeSet<u32> = BTreeSet::new();
    let mut seen_schedules: BTreeSet<u32> = BTreeSet::new();

    let close = |doc: &mut ConfigDoc, open: &mut Option<OpenSchedule>| {
        if let Some(s) = open.take() {
            let mut schedule = Schedule::new(s.id, s.name, s.mtf, s.requirements, s.windows);
            for (p, a) in s.actions {
                schedule = schedule.with_change_action(p, a);
            }
            doc.schedules.push(schedule);
        }
    };

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let Some(directive) = tokens.next() else {
            continue;
        };
        match directive {
            "partition" => {
                close(&mut doc, &mut open);
                let id_tok = tokens
                    .next()
                    .ok_or_else(|| err(line_no, "partition needs an id"))?;
                let id = parse_pid(line_no, id_tok)?;
                if !seen_partitions.insert(id.as_u32()) {
                    return Err(err(line_no, format!("duplicate partition id {id}")));
                }
                doc.spans.set(span_key::partition(id), line_no);
                let kv = parse_kv(line_no, tokens)?;
                let name = kv
                    .get("name")
                    .ok_or_else(|| err(line_no, "missing 'name='"))?;
                let mut partition = Partition::new(id, name);
                match kv.get("pos") {
                    None | Some("real_time") => {}
                    Some("generic") => {
                        partition = partition.with_pos_kind(PosKind::GenericNonRealTime);
                    }
                    Some(other) => {
                        return Err(err(line_no, format!("unknown pos kind '{other}'")));
                    }
                }
                if kv.get("system") == Some("true") {
                    partition = partition.system();
                }
                if kv.get("authority") == Some("true") {
                    partition = partition.with_schedule_authority();
                }
                doc.partitions.push(partition);
            }
            "schedule" => {
                close(&mut doc, &mut open);
                let id_tok = tokens
                    .next()
                    .ok_or_else(|| err(line_no, "schedule needs an id"))?;
                let digits = id_tok.strip_prefix("chi").ok_or_else(|| {
                    err(
                        line_no,
                        format!("expected schedule id 'chi<n>', found '{id_tok}'"),
                    )
                })?;
                let id = digits
                    .parse::<u32>()
                    .map(ScheduleId)
                    .map_err(|_| err(line_no, format!("invalid schedule number '{digits}'")))?;
                if !seen_schedules.insert(id.as_u32()) {
                    return Err(err(line_no, format!("duplicate schedule id {id}")));
                }
                doc.spans.set(span_key::schedule(id), line_no);
                let kv = parse_kv(line_no, tokens)?;
                let name = kv
                    .get("name")
                    .ok_or_else(|| err(line_no, "missing 'name='"))?
                    .to_string();
                let mtf = Ticks(parse_u64(line_no, &kv, "mtf")?);
                open = Some(OpenSchedule {
                    id,
                    name,
                    mtf,
                    requirements: Vec::new(),
                    windows: Vec::new(),
                    actions: Vec::new(),
                });
            }
            "require" | "window" | "action" => {
                let section = open
                    .as_mut()
                    .ok_or_else(|| err(line_no, format!("'{directive}' outside a schedule")))?;
                let pid_tok = tokens
                    .next()
                    .ok_or_else(|| err(line_no, format!("'{directive}' needs a partition id")))?;
                let pid = parse_pid(line_no, pid_tok)?;
                match directive {
                    "require" => {
                        let kv = parse_kv(line_no, tokens)?;
                        doc.spans
                            .set(span_key::requirement(section.id, pid), line_no);
                        section.requirements.push(PartitionRequirement::new(
                            pid,
                            Ticks(parse_u64(line_no, &kv, "cycle")?),
                            Ticks(parse_u64(line_no, &kv, "duration")?),
                        ));
                    }
                    "window" => {
                        let kv = parse_kv(line_no, tokens)?;
                        let offset = parse_u64(line_no, &kv, "offset")?;
                        let duration = parse_u64(line_no, &kv, "duration")?;
                        if offset.checked_add(duration).is_none() {
                            return Err(err(line_no, "window offset + duration overflows"));
                        }
                        doc.spans
                            .set(span_key::window(section.id, pid, Ticks(offset)), line_no);
                        section
                            .windows
                            .push(TimeWindow::new(pid, Ticks(offset), Ticks(duration)));
                    }
                    "action" => {
                        let which = tokens
                            .next()
                            .ok_or_else(|| err(line_no, "'action' needs an action name"))?;
                        let action = match which {
                            "none" => ScheduleChangeAction::None,
                            "warm_restart" => ScheduleChangeAction::WarmRestart,
                            "cold_restart" => ScheduleChangeAction::ColdRestart,
                            "stop" => ScheduleChangeAction::Stop,
                            other => {
                                return Err(err(
                                    line_no,
                                    format!("unknown schedule-change action '{other}'"),
                                ));
                            }
                        };
                        doc.spans.set(span_key::action(section.id, pid), line_no);
                        section.actions.push((pid, action));
                    }
                    _ => unreachable!(),
                }
            }
            "sampling" | "queuing" => {
                close(&mut doc, &mut open);
                let pid_tok = tokens
                    .next()
                    .ok_or_else(|| err(line_no, format!("'{directive}' needs a partition id")))?;
                let pid = parse_pid(line_no, pid_tok)?;
                let kv = parse_kv(line_no, tokens)?;
                let name = kv
                    .get("name")
                    .ok_or_else(|| err(line_no, "missing 'name='"))?
                    .to_string();
                let dir = parse_direction(line_no, &kv)?;
                let size = parse_u64(line_no, &kv, "size")? as usize;
                doc.spans.set(span_key::port(pid, &name), line_no);
                if directive == "sampling" {
                    let refresh = parse_u64_opt(line_no, &kv, "refresh")?;
                    if refresh.is_some() && dir == Direction::Source {
                        return Err(err(line_no, "'refresh=' only applies to dir=destination"));
                    }
                    let config = SamplingPortConfig {
                        name,
                        max_message_size: size,
                        refresh_period: refresh.map_or(Ticks::MAX, Ticks),
                        direction: dir,
                    };
                    doc.sampling_ports.push((pid, config));
                } else {
                    let depth = parse_u64(line_no, &kv, "depth")? as usize;
                    let config = QueuingPortConfig {
                        name,
                        max_message_size: size,
                        max_nb_messages: depth,
                        direction: dir,
                    };
                    doc.queuing_ports.push((pid, config));
                }
            }
            "process" => {
                close(&mut doc, &mut open);
                let pid_tok = tokens
                    .next()
                    .ok_or_else(|| err(line_no, "'process' needs a partition id"))?;
                let pid = parse_pid(line_no, pid_tok)?;
                let kv = parse_kv(line_no, tokens)?;
                let name = kv
                    .get("name")
                    .ok_or_else(|| err(line_no, "missing 'name='"))?
                    .to_string();
                doc.spans.set(span_key::process(pid, &name), line_no);
                let mut attrs = ProcessAttributes::new(name);
                match (
                    parse_u64_opt(line_no, &kv, "period")?,
                    parse_u64_opt(line_no, &kv, "sporadic")?,
                ) {
                    (Some(_), Some(_)) => {
                        return Err(err(line_no, "'period=' and 'sporadic=' are exclusive"));
                    }
                    (Some(t), None) => {
                        attrs = attrs.with_recurrence(Recurrence::Periodic(Ticks(t)));
                    }
                    (None, Some(t)) => {
                        attrs = attrs.with_recurrence(Recurrence::Sporadic(Ticks(t)));
                    }
                    (None, None) => {}
                }
                if let Some(d) = parse_u64_opt(line_no, &kv, "deadline")? {
                    attrs = attrs.with_deadline(Deadline::Relative(Ticks(d)));
                }
                if let Some(c) = parse_u64_opt(line_no, &kv, "wcet")? {
                    attrs = attrs.with_wcet(Ticks(c));
                }
                if let Some(p) = parse_u64_opt(line_no, &kv, "priority")? {
                    let p = u8::try_from(p)
                        .map_err(|_| err(line_no, format!("priority '{p}' out of range")))?;
                    attrs = attrs.with_base_priority(Priority(p));
                }
                doc.processes.push((pid, attrs));
            }
            "memory" => {
                close(&mut doc, &mut open);
                let pid_tok = tokens
                    .next()
                    .ok_or_else(|| err(line_no, "'memory' needs a partition id"))?;
                let pid = parse_pid(line_no, pid_tok)?;
                let kv = parse_kv(line_no, tokens)?;
                let base = parse_addr(line_no, &kv, "base")?;
                let size = parse_addr(line_no, &kv, "size")?;
                let (writable, executable) = match kv.get("perm") {
                    Some("ro") => (false, false),
                    Some("rw") => (true, false),
                    Some("rx") => (false, true),
                    Some("rwx") => (true, true),
                    Some(other) => {
                        return Err(err(line_no, format!("unknown permission '{other}'")));
                    }
                    None => return Err(err(line_no, "missing 'perm='")),
                };
                let shared = kv.get("shared") == Some("true");
                doc.spans.set(span_key::memory(pid, base), line_no);
                doc.memory.push(MemoryRegion {
                    partition: pid,
                    base,
                    size,
                    writable,
                    executable,
                    shared,
                });
            }
            "channel" => {
                close(&mut doc, &mut open);
                let id_tok = tokens
                    .next()
                    .ok_or_else(|| err(line_no, "'channel' needs an id"))?;
                let id = id_tok
                    .parse::<u32>()
                    .map_err(|_| err(line_no, format!("invalid channel id '{id_tok}'")))?;
                let kv = parse_kv(line_no, tokens)?;
                let from = kv
                    .get("from")
                    .ok_or_else(|| err(line_no, "missing 'from='"))?;
                let source = parse_port_addr(line_no, from)?;
                let to = kv.get("to").ok_or_else(|| err(line_no, "missing 'to='"))?;
                let mut destinations = Vec::new();
                for part in to.split(',').filter(|p| !p.is_empty()) {
                    destinations.push(parse_destination(line_no, part)?);
                }
                doc.spans.set(span_key::channel(id), line_no);
                doc.channels.push(ChannelConfig {
                    id,
                    source,
                    destinations,
                });
            }
            "link" => {
                close(&mut doc, &mut open);
                if doc.link.is_some() {
                    return Err(err(line_no, "duplicate 'link' directive"));
                }
                let kv = parse_kv(line_no, tokens)?;
                doc.spans.set(span_key::link(), line_no);
                doc.link =
                    Some(LinkDirective {
                        primary_latency: parse_u64(line_no, &kv, "primary_latency")?,
                        secondary_latency: parse_u64_opt(line_no, &kv, "secondary_latency")?,
                        failover_threshold: parse_u64_opt(line_no, &kv, "failover_threshold")?
                            .map_or(Ok(4), |t| {
                                u32::try_from(t).map_err(|_| {
                                    err(line_no, format!("failover_threshold '{t}' out of range"))
                                })
                            })?,
                        revert_ticks: parse_u64_opt(line_no, &kv, "revert")?.unwrap_or(400),
                        degraded: kv
                            .get("degraded")
                            .map(|raw| {
                                raw.strip_prefix("chi")
                                    .and_then(|d| d.parse().ok())
                                    .map(ScheduleId)
                                    .ok_or_else(|| {
                                        err(
                                            line_no,
                                            format!(
                                                "expected schedule id 'chi<n>' \
                                             for 'degraded', found '{raw}'"
                                            ),
                                        )
                                    })
                            })
                            .transpose()?,
                    });
            }
            "arq" => {
                close(&mut doc, &mut open);
                if doc.arq.is_some() {
                    return Err(err(line_no, "duplicate 'arq' directive"));
                }
                let kv = parse_kv(line_no, tokens)?;
                doc.spans.set(span_key::arq(), line_no);
                let defaults = ArqConfig::default();
                let small = |key: &str, fallback: u32| -> Result<u32, ConfigError> {
                    parse_u64_opt(line_no, &kv, key)?.map_or(Ok(fallback), |t| {
                        u32::try_from(t)
                            .map_err(|_| err(line_no, format!("{key} '{t}' out of range")))
                    })
                };
                doc.arq = Some(ArqConfig {
                    window: parse_u64(line_no, &kv, "window")? as usize,
                    timeout_ticks: parse_u64(line_no, &kv, "timeout")?,
                    backoff_cap: small("backoff_cap", defaults.backoff_cap)?,
                    max_retries: small("max_retries", defaults.max_retries)?,
                    recovery_threshold: small("recovery_threshold", defaults.recovery_threshold)?,
                });
            }
            "node" => {
                close(&mut doc, &mut open);
                if doc.mesh_node.is_some() {
                    return Err(err(line_no, "duplicate 'node' directive"));
                }
                let id_tok = tokens
                    .next()
                    .ok_or_else(|| err(line_no, "'node' needs an id"))?;
                let id = parse_node_id(line_no, id_tok)?;
                let kv = parse_kv(line_no, tokens)?;
                let name = kv
                    .get("name")
                    .ok_or_else(|| err(line_no, "missing 'name='"))?;
                let fallback = match kv.get("fallback") {
                    Some(tok) => {
                        let spare = parse_node_id(line_no, tok)?;
                        if spare == id {
                            return Err(err(line_no, "'fallback' cannot name the node itself"));
                        }
                        Some(spare)
                    }
                    None => None,
                };
                doc.spans.set(span_key::node(), line_no);
                doc.mesh_node = Some(MeshNodeDirective {
                    id,
                    name: (*name).to_string(),
                    fallback,
                });
            }
            "route" => {
                close(&mut doc, &mut open);
                let dst_tok = tokens
                    .next()
                    .ok_or_else(|| err(line_no, "'route' needs a destination node"))?;
                let dst = parse_node_id(line_no, dst_tok)?;
                let kv = parse_kv(line_no, tokens)?;
                let via_tok = kv
                    .get("via")
                    .ok_or_else(|| err(line_no, "missing 'via='"))?;
                let via = parse_node_id(line_no, via_tok)?;
                if doc.routes.iter().any(|r| r.dst == dst) {
                    return Err(err(
                        line_no,
                        format!("duplicate route for destination {dst}"),
                    ));
                }
                doc.spans.set(span_key::route(dst.0), line_no);
                doc.routes.push(RouteDirective { dst, via });
            }
            "apid" => {
                close(&mut doc, &mut open);
                let id_tok = tokens
                    .next()
                    .ok_or_else(|| err(line_no, "'apid' needs an id"))?;
                let apid = id_tok
                    .parse::<u16>()
                    .ok()
                    .filter(|a| *a <= APID_MAX)
                    .ok_or_else(|| {
                        err(
                            line_no,
                            format!("invalid apid '{id_tok}' (11-bit field, max {APID_MAX})"),
                        )
                    })?;
                if doc.apids.iter().any(|a| a.apid == apid) {
                    return Err(err(line_no, format!("duplicate apid {apid}")));
                }
                let kv = parse_kv(line_no, tokens)?;
                let name = kv
                    .get("name")
                    .ok_or_else(|| err(line_no, "missing 'name='"))?;
                let kind = match kv.get("kind") {
                    Some("tc") => PacketKind::Tc,
                    Some("tm") => PacketKind::Tm,
                    Some(other) => {
                        return Err(err(line_no, format!("unknown apid kind '{other}'")));
                    }
                    None => return Err(err(line_no, "missing 'kind='")),
                };
                doc.spans.set(span_key::apid(apid), line_no);
                doc.apids.push(ApidDirective {
                    apid,
                    name: (*name).to_string(),
                    kind,
                });
            }
            "flow" => {
                close(&mut doc, &mut open);
                let src_tok = tokens
                    .next()
                    .ok_or_else(|| err(line_no, "'flow' needs a source 'N<src>:<apid>'"))?;
                let (src_part, apid_part) = src_tok.split_once(':').ok_or_else(|| {
                    err(
                        line_no,
                        format!("expected 'N<src>:<apid>', got '{src_tok}'"),
                    )
                })?;
                let src = parse_node_id(line_no, src_part)?;
                let apid = apid_part
                    .parse::<u16>()
                    .ok()
                    .filter(|a| *a <= APID_MAX)
                    .ok_or_else(|| {
                        err(
                            line_no,
                            format!("invalid apid '{apid_part}' (11-bit field, max {APID_MAX})"),
                        )
                    })?;
                match tokens.next() {
                    Some("->") => {}
                    _ => return Err(err(line_no, "'flow' needs '->' before the destination")),
                }
                let dst_tok = tokens
                    .next()
                    .ok_or_else(|| err(line_no, "'flow' needs a destination node"))?;
                let dst = parse_node_id(line_no, dst_tok)?;
                let kv = parse_kv(line_no, tokens)?;
                let deadline = parse_u64_opt(line_no, &kv, "deadline")?;
                if doc
                    .flows
                    .iter()
                    .any(|f| f.src == src && f.apid == apid && f.dst == dst)
                {
                    return Err(err(
                        line_no,
                        format!("duplicate flow {src}:{apid} -> {dst}"),
                    ));
                }
                doc.spans.set(span_key::flow(src.0, apid, dst.0), line_no);
                doc.flows.push(FlowDirective {
                    src,
                    apid,
                    dst,
                    deadline,
                });
            }
            "hm" => {
                close(&mut doc, &mut open);
                let err_tok = tokens
                    .next()
                    .ok_or_else(|| err(line_no, "'hm' needs an error id"))?;
                let error = parse_error_id(line_no, err_tok)?;
                let kv = parse_kv(line_no, tokens)?;
                let level = match kv.get("level") {
                    Some("process") => ErrorLevel::Process,
                    Some("partition") => ErrorLevel::Partition,
                    Some("module") => ErrorLevel::Module,
                    Some(other) => {
                        return Err(err(line_no, format!("unknown error level '{other}'")));
                    }
                    None => return Err(err(line_no, "missing 'level='")),
                };
                doc.spans.set(span_key::hm(error), line_no);
                doc.hm_levels.push((error, level));
            }
            "handler" => {
                close(&mut doc, &mut open);
                let pid_tok = tokens
                    .next()
                    .ok_or_else(|| err(line_no, "'handler' needs a partition id"))?;
                let pid = parse_pid(line_no, pid_tok)?;
                let err_tok = tokens
                    .next()
                    .ok_or_else(|| err(line_no, "'handler' needs an error id"))?;
                let error = parse_error_id(line_no, err_tok)?;
                let action_tok = tokens
                    .next()
                    .ok_or_else(|| err(line_no, "'handler' needs an action"))?;
                let action = parse_recovery_action(line_no, action_tok)?;
                doc.spans.set(span_key::handler(pid, error), line_no);
                doc.handlers.push((pid, error, action));
            }
            other => {
                return Err(err(line_no, format!("unknown directive '{other}'")));
            }
        }
    }
    close(&mut doc, &mut open);
    Ok(doc)
}

/// Emits a document in the format [`parse`] reads (round-trip stable).
pub fn emit(doc: &ConfigDoc) -> String {
    let mut out = String::from("# AIR system configuration\n");
    for p in &doc.partitions {
        out.push_str(&format!("partition {} name={}", p.id(), p.name()));
        if p.pos_kind() == PosKind::GenericNonRealTime {
            out.push_str(" pos=generic");
        }
        if p.is_system() {
            out.push_str(" system=true");
        }
        if p.may_set_module_schedule() {
            out.push_str(" authority=true");
        }
        out.push('\n');
    }
    for (pid, cfg) in &doc.sampling_ports {
        out.push_str(&format!(
            "sampling {pid} name={} dir={} size={}",
            cfg.name,
            direction_token(cfg.direction),
            cfg.max_message_size
        ));
        if cfg.direction == Direction::Destination && cfg.refresh_period != Ticks::MAX {
            out.push_str(&format!(" refresh={}", cfg.refresh_period.as_u64()));
        }
        out.push('\n');
    }
    for (pid, cfg) in &doc.queuing_ports {
        out.push_str(&format!(
            "queuing {pid} name={} dir={} size={} depth={}\n",
            cfg.name,
            direction_token(cfg.direction),
            cfg.max_message_size,
            cfg.max_nb_messages
        ));
    }
    for (pid, attrs) in &doc.processes {
        out.push_str(&format!("process {pid} name={}", attrs.name()));
        match attrs.recurrence() {
            Recurrence::Periodic(t) => out.push_str(&format!(" period={}", t.as_u64())),
            Recurrence::Sporadic(t) => out.push_str(&format!(" sporadic={}", t.as_u64())),
            Recurrence::Aperiodic => {}
        }
        if let Deadline::Relative(d) = attrs.deadline() {
            out.push_str(&format!(" deadline={}", d.as_u64()));
        }
        if let Some(c) = attrs.wcet() {
            out.push_str(&format!(" wcet={}", c.as_u64()));
        }
        if attrs.base_priority() != Priority::LOWEST {
            out.push_str(&format!(" priority={}", attrs.base_priority().0));
        }
        out.push('\n');
    }
    for r in &doc.memory {
        let perm = match (r.writable, r.executable) {
            (false, false) => "ro",
            (true, false) => "rw",
            (false, true) => "rx",
            (true, true) => "rwx",
        };
        out.push_str(&format!(
            "memory {} base={:#x} size={:#x} perm={perm}",
            r.partition, r.base, r.size
        ));
        if r.shared {
            out.push_str(" shared=true");
        }
        out.push('\n');
    }
    for (pid, error, action) in &doc.handlers {
        out.push_str(&format!(
            "handler {pid} {} {}\n",
            error_id_token(*error),
            recovery_action_token(*action)
        ));
    }
    for (error, level) in &doc.hm_levels {
        let level = match level {
            ErrorLevel::Process => "process",
            ErrorLevel::Partition => "partition",
            ErrorLevel::Module => "module",
        };
        out.push_str(&format!("hm {} level={level}\n", error_id_token(*error)));
    }
    for s in &doc.schedules {
        out.push_str(&format!(
            "schedule {} name={} mtf={}\n",
            s.id(),
            s.name(),
            s.mtf().as_u64()
        ));
        for q in s.requirements() {
            out.push_str(&format!(
                "  require {} cycle={} duration={}\n",
                q.partition,
                q.cycle.as_u64(),
                q.duration.as_u64()
            ));
        }
        for w in s.windows() {
            out.push_str(&format!(
                "  window {} offset={} duration={}\n",
                w.partition,
                w.offset.as_u64(),
                w.duration.as_u64()
            ));
        }
        for q in s.requirements() {
            let action = s.change_action_for(q.partition);
            if action != ScheduleChangeAction::None {
                let name = match action {
                    ScheduleChangeAction::None => unreachable!(),
                    ScheduleChangeAction::WarmRestart => "warm_restart",
                    ScheduleChangeAction::ColdRestart => "cold_restart",
                    ScheduleChangeAction::Stop => "stop",
                };
                out.push_str(&format!("  action {} {name}\n", q.partition));
            }
        }
    }
    if let Some(link) = &doc.link {
        out.push_str(&format!("link primary_latency={}", link.primary_latency));
        if let Some(s) = link.secondary_latency {
            out.push_str(&format!(" secondary_latency={s}"));
        }
        out.push_str(&format!(
            " failover_threshold={} revert={}",
            link.failover_threshold, link.revert_ticks
        ));
        if let Some(degraded) = link.degraded {
            out.push_str(&format!(" degraded={degraded}"));
        }
        out.push('\n');
    }
    if let Some(arq) = &doc.arq {
        out.push_str(&format!(
            "arq window={} timeout={} backoff_cap={} max_retries={} \
             recovery_threshold={}\n",
            arq.window, arq.timeout_ticks, arq.backoff_cap, arq.max_retries, arq.recovery_threshold
        ));
    }
    for c in &doc.channels {
        let dests: Vec<String> = c
            .destinations
            .iter()
            .map(|d| match d {
                Destination::Local(addr) => addr.to_string(),
                Destination::Remote { addr } => format!("remote:{addr}"),
            })
            .collect();
        out.push_str(&format!(
            "channel {} from={} to={}\n",
            c.id,
            c.source,
            dests.join(",")
        ));
    }
    if let Some(node) = &doc.mesh_node {
        match node.fallback {
            Some(spare) => out.push_str(&format!(
                "node {} name={} fallback={spare}\n",
                node.id, node.name
            )),
            None => out.push_str(&format!("node {} name={}\n", node.id, node.name)),
        }
    }
    for r in &doc.routes {
        out.push_str(&format!("route {} via={}\n", r.dst, r.via));
    }
    for a in &doc.apids {
        let kind = match a.kind {
            PacketKind::Tc => "tc",
            PacketKind::Tm => "tm",
        };
        out.push_str(&format!("apid {} name={} kind={kind}\n", a.apid, a.name));
    }
    for f in &doc.flows {
        out.push_str(&format!("flow {}:{} -> {}", f.src, f.apid, f.dst));
        if let Some(d) = f.deadline {
            out.push_str(&format!(" deadline={d}"));
        }
        out.push('\n');
    }
    out
}

fn direction_token(direction: Direction) -> &'static str {
    match direction {
        Direction::Source => "source",
        Direction::Destination => "destination",
    }
}

fn recovery_action_token(action: ProcessRecoveryAction) -> String {
    match action {
        ProcessRecoveryAction::Ignore => "ignore".into(),
        ProcessRecoveryAction::LogThenAct { threshold, then } => {
            let then = match then {
                EscalatedProcessAction::RestartProcess => "restart_process",
                EscalatedProcessAction::StartOtherProcess => "start_other_process",
                EscalatedProcessAction::StopProcess => "stop_process",
                EscalatedProcessAction::RestartPartition => "restart_partition",
                EscalatedProcessAction::StopPartition => "stop_partition",
            };
            format!("log_then_act={threshold}/{then}")
        }
        ProcessRecoveryAction::RestartProcess => "restart_process".into(),
        ProcessRecoveryAction::StartOtherProcess => "start_other_process".into(),
        ProcessRecoveryAction::StopProcess => "stop_process".into(),
        ProcessRecoveryAction::RestartPartition => "restart_partition".into(),
        ProcessRecoveryAction::StopPartition => "stop_partition".into(),
    }
}

/// The Fig. 8 prototype as a configuration document (the text an
/// integrator would write for the Sect. 6 system).
pub fn fig8_config_text() -> String {
    let sys = air_model::prototype::fig8_system();
    emit(&ConfigDoc {
        partitions: sys.partitions,
        schedules: sys.schedules.iter().cloned().collect(),
        ..ConfigDoc::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use air_model::prototype::{fig8_system, CHI_1, P1, P4};
    use air_model::verify::verify_schedule_set;

    #[test]
    fn parse_minimal_document() {
        let doc = parse(
            "# comment\n\
             partition P0 name=AOCS authority=true\n\
             partition P1 name=PAYLOAD pos=generic system=true\n\
             \n\
             schedule chi0 name=ops mtf=100\n\
             \trequire P0 cycle=50 duration=20\n\
             \trequire P1 cycle=100 duration=30   # inline comment\n\
             \twindow P0 offset=0 duration=20\n\
             \twindow P1 offset=20 duration=30\n\
             \twindow P0 offset=50 duration=20\n\
             \taction P1 cold_restart\n",
        )
        .unwrap();
        assert_eq!(doc.partitions.len(), 2);
        assert!(doc.partitions[0].may_set_module_schedule());
        assert!(doc.partitions[1].is_system());
        assert_eq!(doc.partitions[1].pos_kind(), PosKind::GenericNonRealTime);
        let s = &doc.schedules[0];
        assert_eq!(s.mtf(), Ticks(100));
        assert_eq!(s.windows().len(), 3);
        assert_eq!(
            s.change_action_for(PartitionId(1)),
            ScheduleChangeAction::ColdRestart
        );
        // The parsed tables verify.
        assert!(verify_schedule_set(&doc.schedule_set(), &doc.partitions).is_ok());
    }

    #[test]
    fn fig8_round_trips_through_text() {
        let text = fig8_config_text();
        let doc = parse(&text).unwrap();
        let sys = fig8_system();
        assert_eq!(doc.partitions, sys.partitions);
        let parsed: Vec<Schedule> = doc.schedules.clone();
        let original: Vec<Schedule> = sys.schedules.iter().cloned().collect();
        assert_eq!(parsed, original);
        // And emit is stable: emit(parse(emit(x))) == emit(x).
        assert_eq!(emit(&doc), text);
    }

    #[test]
    fn fig8_config_text_content() {
        let text = fig8_config_text();
        assert!(
            text.contains("partition P0 name=AOCS authority=true"),
            "{text}"
        );
        assert!(text.contains("schedule chi0 name=chi1 mtf=1300"), "{text}");
        assert!(text.contains("window P3 offset=400 duration=600"), "{text}");
        let _ = (CHI_1, P1, P4);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let cases = [
            ("bogus P0", 1, "unknown directive"),
            ("partition X0 name=a", 1, "expected partition id"),
            ("partition P0", 1, "missing 'name='"),
            ("partition P0 name=a pos=weird", 1, "unknown pos kind"),
            ("window P0 offset=0 duration=5", 1, "outside a schedule"),
            (
                "schedule chi0 name=s mtf=10\nwindow P0 offset=x duration=5",
                2,
                "invalid number",
            ),
            (
                "schedule chi0 name=s mtf=10\naction P0 explode",
                2,
                "unknown schedule-change action",
            ),
            ("schedule zeta0 name=s mtf=10", 1, "expected schedule id"),
            ("partition P0 name=a name=b", 1, "duplicate key"),
        ];
        for (text, line, needle) in cases {
            let e = parse(text).unwrap_err();
            assert_eq!(e.line, line, "{text}");
            assert!(e.message.contains(needle), "{text}: {e}");
        }
    }

    #[test]
    fn key_value_errors_name_the_first_bad_token() {
        // Padding of distinct pairs puts the second half of each case past
        // the inline pairs.
        let pad: String = (0..20).map(|i| format!(" k{i}=1")).collect();
        let cases = [
            (
                "partition P0 name=a b name=c".to_owned(),
                "expected key=value, found 'b'",
            ),
            (
                "partition P0 name=a name=c b".to_owned(),
                "duplicate key 'name'",
            ),
            (
                format!("partition P0 name=a{pad} k3=2 b"),
                "duplicate key 'k3'",
            ),
            (
                format!("partition P0 name=a{pad} b k3=2"),
                "expected key=value, found 'b'",
            ),
            (
                format!("partition P0{pad} name=a name=b"),
                "duplicate key 'name'",
            ),
        ];
        for (text, message) in cases {
            let e = parse(&text).unwrap_err();
            assert_eq!((e.line, e.message.as_str()), (1, message), "{text}");
        }
        let doc = parse(&format!("partition P0{pad} name=last")).unwrap();
        assert_eq!(doc.partitions[0].name(), "last");
    }

    #[test]
    fn schedule_without_requirements_or_windows_is_representable() {
        // The parser is lenient; the *verifier* decides validity.
        let doc = parse("schedule chi0 name=empty mtf=50\n").unwrap();
        assert_eq!(doc.schedules.len(), 1);
        assert!(doc.schedules[0].windows().is_empty());
    }

    #[test]
    fn two_schedules_close_properly() {
        let doc = parse(
            "schedule chi0 name=a mtf=10\n\
             require P0 cycle=10 duration=5\n\
             window P0 offset=0 duration=5\n\
             schedule chi1 name=b mtf=20\n\
             require P0 cycle=20 duration=5\n\
             window P0 offset=10 duration=5\n",
        )
        .unwrap();
        assert_eq!(doc.schedules.len(), 2);
        assert_eq!(doc.schedules[0].id(), ScheduleId(0));
        assert_eq!(doc.schedules[1].id(), ScheduleId(1));
        assert_eq!(doc.schedules[1].windows()[0].offset, Ticks(10));
    }

    #[test]
    fn parsed_fig8_drives_a_real_system() {
        // The full integration path: text → model → verified → runnable.
        let doc = parse(&fig8_config_text()).unwrap();
        let report = verify_schedule_set(&doc.schedule_set(), &doc.partitions);
        assert!(report.is_ok(), "{report}");
        assert_eq!(doc.schedule_set().get(CHI_1).unwrap().mtf(), Ticks(1300));
    }

    #[test]
    fn mesh_directives_parse_emit_and_span() {
        let text = "\
partition P0 name=GSW
node N2 name=RELAY1
route N0 via=N1
route N4 via=N3
apid 100 name=CMD kind=tc
apid 202 name=HM_EVENTS kind=tm
";
        let doc = parse(text).unwrap();
        let node = doc.mesh_node.as_ref().unwrap();
        assert_eq!(node.id, NodeId(2));
        assert_eq!(node.name, "RELAY1");
        assert_eq!(node.fallback, None);
        assert_eq!(
            doc.routes,
            vec![
                RouteDirective {
                    dst: NodeId(0),
                    via: NodeId(1)
                },
                RouteDirective {
                    dst: NodeId(4),
                    via: NodeId(3)
                },
            ]
        );
        assert_eq!(doc.apids.len(), 2);
        assert_eq!(doc.apids[0].apid, 100);
        assert_eq!(doc.apids[0].kind, PacketKind::Tc);
        assert_eq!(doc.apids[1].kind, PacketKind::Tm);
        // Spans point at the declaration lines.
        assert_eq!(doc.spans.get(&span_key::node()), Some(2));
        assert_eq!(doc.spans.get(&span_key::route(4)), Some(4));
        assert_eq!(doc.spans.get(&span_key::apid(202)), Some(6));
        // Round-trip: emit(parse(emit(doc))) == emit(doc).
        let emitted = emit(&doc);
        let reparsed = parse(&emitted).unwrap();
        assert_eq!(reparsed.mesh_node, doc.mesh_node);
        assert_eq!(reparsed.routes, doc.routes);
        assert_eq!(reparsed.apids, doc.apids);
        assert_eq!(emit(&reparsed), emitted);
    }

    #[test]
    fn flow_directives_parse_emit_and_span() {
        let text = "\
node N0 name=HUB
flow N0:100 -> N4 deadline=5000
flow N0:101 -> N2
";
        let doc = parse(text).unwrap();
        assert_eq!(
            doc.flows,
            vec![
                FlowDirective {
                    src: NodeId(0),
                    apid: 100,
                    dst: NodeId(4),
                    deadline: Some(5000),
                },
                FlowDirective {
                    src: NodeId(0),
                    apid: 101,
                    dst: NodeId(2),
                    deadline: None,
                },
            ]
        );
        assert_eq!(doc.spans.get(&span_key::flow(0, 100, 4)), Some(2));
        assert_eq!(doc.spans.get(&span_key::flow(0, 101, 2)), Some(3));
        let emitted = emit(&doc);
        assert!(emitted.contains("flow N0:100 -> N4 deadline=5000"));
        assert!(emitted.contains("flow N0:101 -> N2\n"));
        let reparsed = parse(&emitted).unwrap();
        assert_eq!(reparsed.flows, doc.flows);
        assert_eq!(emit(&reparsed), emitted);
    }

    #[test]
    fn flow_directive_errors_carry_lines() {
        let cases = [
            ("flow", 1, "'flow' needs a source"),
            ("flow N0 -> N1", 1, "expected 'N<src>:<apid>'"),
            ("flow X0:100 -> N1", 1, "expected node id"),
            ("flow N0:9999 -> N1", 1, "invalid apid"),
            ("flow N0:100 N1", 1, "needs '->'"),
            ("flow N0:100 ->", 1, "'flow' needs a destination node"),
            ("flow N0:100 -> P1", 1, "expected node id"),
            (
                "flow N0:100 -> N1\nflow N0:100 -> N1 deadline=9",
                2,
                "duplicate flow N0:100 -> N1",
            ),
        ];
        for (text, line, needle) in cases {
            let e = parse(text).unwrap_err();
            assert_eq!(e.line, line, "{text}");
            assert!(e.message.contains(needle), "{text}: {e}");
        }
    }

    #[test]
    fn node_fallback_parses_and_round_trips() {
        let doc = parse("node N4 name=EXEC fallback=N1\n").unwrap();
        let node = doc.mesh_node.as_ref().unwrap();
        assert_eq!(node.id, NodeId(4));
        assert_eq!(node.fallback, Some(NodeId(1)));
        let emitted = emit(&doc);
        assert!(emitted.contains("node N4 name=EXEC fallback=N1"));
        assert_eq!(parse(&emitted).unwrap().mesh_node, doc.mesh_node);
    }

    #[test]
    fn mesh_directive_errors_carry_lines() {
        let cases = [
            ("node X2 name=a", 1, "expected node id"),
            (
                "node N2 name=a fallback=N2",
                1,
                "'fallback' cannot name the node itself",
            ),
            ("node N2 name=a fallback=Q1", 1, "expected node id"),
            (
                "node N0 name=a\nnode N1 name=b",
                2,
                "duplicate 'node' directive",
            ),
            ("node N0", 1, "missing 'name='"),
            ("route N1", 1, "missing 'via='"),
            ("route N1 via=P0", 1, "expected node id"),
            (
                "route N1 via=N2\nroute N1 via=N3",
                2,
                "duplicate route for destination N1",
            ),
            ("apid 2047 name=a kind=tc", 1, "invalid apid"),
            ("apid 9 name=a kind=xx", 1, "unknown apid kind"),
            ("apid 9 name=a", 1, "missing 'kind='"),
            (
                "apid 9 name=a kind=tc\napid 9 name=b kind=tm",
                2,
                "duplicate apid 9",
            ),
        ];
        for (text, line, needle) in cases {
            let e = parse(text).unwrap_err();
            assert_eq!(e.line, line, "{text}");
            assert!(e.message.contains(needle), "{text}: {e}");
        }
    }

    #[test]
    fn duplicate_partition_ids_are_rejected_with_line() {
        let e =
            parse("partition P0 name=a\npartition P1 name=b\npartition P0 name=c\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("duplicate partition id P0"), "{e}");
    }

    #[test]
    fn duplicate_schedule_ids_are_rejected_with_line() {
        let e = parse(
            "schedule chi0 name=a mtf=10\n\
             schedule chi1 name=b mtf=10\n\
             schedule chi0 name=c mtf=10\n",
        )
        .unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("duplicate schedule id chi0"), "{e}");
    }

    #[test]
    fn extended_directives_round_trip_through_text() {
        let text = "\
partition P0 name=AOCS authority=true
partition P1 name=OBDH
schedule chi0 name=ops mtf=200
  require P0 cycle=200 duration=80
  require P1 cycle=200 duration=80
  window P0 offset=0 duration=80
  window P1 offset=80 duration=80
process P0 name=ctl period=200 deadline=200 wcet=40 priority=10
process P1 name=tm sporadic=100 wcet=5
sampling P0 name=att-out dir=source size=64
sampling P1 name=att-in dir=destination size=64 refresh=400
queuing P1 name=tc-out dir=source size=32 depth=8
queuing P0 name=tc-in dir=destination size=32 depth=8
channel 0 from=P0:att-out to=P1:att-in
channel 1 from=P1:tc-out to=P0:tc-in
memory P0 base=0x40000000 size=0x10000 perm=rw
memory P1 base=0x40200000 size=0x1000 perm=ro shared=true
hm deadline_missed level=process
handler P0 deadline_missed log_then_act=3/restart_process
handler P1 application_error stop_process
";
        let doc = parse(text).unwrap();
        assert_eq!(doc.processes.len(), 2);
        assert_eq!(
            doc.processes[0].1.recurrence(),
            Recurrence::Periodic(Ticks(200))
        );
        assert_eq!(doc.processes[0].1.wcet(), Some(Ticks(40)));
        assert_eq!(doc.processes[0].1.base_priority(), Priority(10));
        assert_eq!(
            doc.processes[1].1.recurrence(),
            Recurrence::Sporadic(Ticks(100))
        );
        assert_eq!(doc.sampling_ports.len(), 2);
        assert_eq!(doc.sampling_ports[1].1.refresh_period, Ticks(400));
        assert_eq!(doc.queuing_ports.len(), 2);
        assert_eq!(doc.queuing_ports[0].1.max_nb_messages, 8);
        assert_eq!(doc.channels.len(), 2);
        assert_eq!(
            doc.channels[0].source,
            PortAddr::new(PartitionId(0), "att-out")
        );
        assert_eq!(doc.memory.len(), 2);
        assert_eq!(doc.memory[0].base, 0x4000_0000);
        assert!(doc.memory[1].shared);
        assert!(!doc.memory[1].writable);
        assert_eq!(
            doc.hm_levels,
            vec![(ErrorId::DeadlineMissed, ErrorLevel::Process)]
        );
        assert_eq!(doc.handlers.len(), 2);
        assert_eq!(
            doc.handlers[0].2,
            ProcessRecoveryAction::LogThenAct {
                threshold: 3,
                then: EscalatedProcessAction::RestartProcess
            }
        );

        // Emit is stable: parse(emit(doc)) reproduces the document
        // (spans aside — they refer to the original text's lines).
        let emitted = emit(&doc);
        let reparsed = parse(&emitted).unwrap();
        assert_eq!(
            ConfigDoc {
                spans: Spans::default(),
                ..reparsed
            },
            ConfigDoc {
                spans: Spans::default(),
                ..doc
            }
        );
    }

    #[test]
    fn cluster_directives_round_trip_through_text() {
        let text = "\
partition P0 name=OBDH
schedule chi0 name=ops mtf=100
  require P0 cycle=100 duration=100
  window P0 offset=0 duration=100
queuing P0 name=tm dir=source size=64 depth=8
link primary_latency=3 secondary_latency=6 failover_threshold=2 revert=600 degraded=chi0
arq window=8 timeout=24 backoff_cap=3 max_retries=8
channel 50 from=P0:tm to=remote:P0:tm
";
        let doc = parse(text).unwrap();
        let link = doc.link.expect("link directive parsed");
        assert_eq!(link.primary_latency, 3);
        assert_eq!(link.secondary_latency, Some(6));
        assert_eq!(link.failover_threshold, 2);
        assert_eq!(link.revert_ticks, 600);
        assert_eq!(link.degraded, Some(ScheduleId(0)));
        let arq = doc.arq.expect("arq directive parsed");
        assert_eq!(arq.window, 8);
        assert_eq!(arq.timeout_ticks, 24);
        // Omitted keys take the runtime default.
        assert_eq!(
            arq.recovery_threshold,
            ArqConfig::default().recovery_threshold
        );
        assert_eq!(
            doc.channels[0].destinations,
            vec![Destination::Remote {
                addr: PortAddr::new(PartitionId(0), "tm")
            }]
        );
        assert_eq!(doc.spans.get(&span_key::link()), Some(6));
        assert_eq!(doc.spans.get(&span_key::arq()), Some(7));

        // Remote destinations survive emit → parse (they used to be
        // silently dropped by the emitter).
        let reparsed = parse(&emit(&doc)).unwrap();
        assert_eq!(reparsed.channels, doc.channels);
        assert_eq!(reparsed.link, doc.link);
        assert_eq!(reparsed.arq, doc.arq);
    }

    #[test]
    fn link_degraded_is_a_named_error_id() {
        let doc = parse("hm link_degraded level=module\n").unwrap();
        assert_eq!(
            doc.hm_levels,
            vec![(ErrorId::LinkDegraded, ErrorLevel::Module)]
        );
        assert_eq!(error_id_token(ErrorId::LinkDegraded), "link_degraded");
    }

    #[test]
    fn cluster_directive_errors_carry_line_numbers() {
        let cases = [
            ("link secondary_latency=5", 1, "missing 'primary_latency='"),
            (
                "link primary_latency=1\nlink primary_latency=2",
                2,
                "duplicate 'link' directive",
            ),
            ("arq window=8", 1, "missing 'timeout='"),
            (
                "link primary_latency=1 degraded=nope",
                1,
                "expected schedule id 'chi<n>' for 'degraded'",
            ),
            (
                "arq window=8 timeout=24\narq window=4 timeout=12",
                2,
                "duplicate 'arq' directive",
            ),
            (
                "channel 0 from=P0:a to=remote:bogus",
                1,
                "expected 'P<n>:<port>'",
            ),
        ];
        for (text, line, needle) in cases {
            let e = parse(text).unwrap_err();
            assert_eq!(e.line, line, "{text}");
            assert!(e.message.contains(needle), "{text}: {e}");
        }
    }

    #[test]
    fn spans_point_at_declaration_lines() {
        let doc = parse(
            "partition P0 name=AOCS\n\
             schedule chi0 name=ops mtf=100\n\
             \twindow P0 offset=0 duration=50\n\
             sampling P0 name=out dir=source size=8\n",
        )
        .unwrap();
        assert_eq!(doc.spans.get(&span_key::partition(PartitionId(0))), Some(1));
        assert_eq!(doc.spans.get(&span_key::schedule(ScheduleId(0))), Some(2));
        assert_eq!(
            doc.spans
                .get(&span_key::window(ScheduleId(0), PartitionId(0), Ticks(0))),
            Some(3)
        );
        assert_eq!(
            doc.spans.get(&span_key::port(PartitionId(0), "out")),
            Some(4)
        );
    }

    #[test]
    fn extended_directive_errors_carry_line_numbers() {
        let cases = [
            ("process P0 name=a period=5 sporadic=5", 1, "exclusive"),
            (
                "sampling P0 name=a dir=sideways size=8",
                1,
                "unknown direction",
            ),
            (
                "sampling P0 name=a dir=source size=8 refresh=5",
                1,
                "refresh",
            ),
            ("queuing P0 name=a dir=source size=8", 1, "missing 'depth='"),
            (
                "memory P0 base=0x1000 size=0x1000 perm=www",
                1,
                "unknown permission",
            ),
            (
                "channel 0 from=nonsense to=P1:x",
                1,
                "expected 'P<n>:<port>'",
            ),
            ("hm deadline_missed level=cosmic", 1, "unknown error level"),
            (
                "handler P0 deadline_missed explode",
                1,
                "unknown handler action",
            ),
            ("handler P0 not_an_error ignore", 1, "unknown error id"),
        ];
        for (text, line, needle) in cases {
            let e = parse(text).unwrap_err();
            assert_eq!(e.line, line, "{text}");
            assert!(e.message.contains(needle), "{text}: {e}");
        }
    }
}
