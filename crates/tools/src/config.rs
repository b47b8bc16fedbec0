//! Integration configuration files.
//!
//! "Spatial partitioning requirements (specified in AIR and ARINC 653
//! configuration files with the assistance of development tools support)"
//! (Sect. 2.1) — ARINC 653 systems are integrated from configuration
//! documents, not code. This module provides a small, line-based
//! configuration format with a strict parser (precise line-numbered
//! errors), an emitter, and conversion into the model types, so whole
//! systems round-trip through text. The parser and the emitter read the
//! grammar from one table, [`DIRECTIVES`], with a row per directive:
//! the keyword, the positional tokens and the `key=value` fields.
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

use std::collections::BTreeSet;
use std::fmt::{self, Write as _};

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
use Presence::{Optional, Required};

/// The entity a declaration line introduces: the key [`Spans`] files the
/// line under. Each row of [`DIRECTIVES`] builds its line's key, and the
/// linter looks a finding's line up by the same key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKey<'a> {
    /// A `partition` line.
    Partition(PartitionId),
    /// A `schedule` line.
    Schedule(ScheduleId),
    /// A `window` line, by schedule, partition and offset (stable under
    /// the model's sort-by-offset).
    Window(ScheduleId, PartitionId, Ticks),
    /// A `require` line, by schedule and partition.
    Requirement(ScheduleId, PartitionId),
    /// An `action` line, by schedule and partition.
    Action(ScheduleId, PartitionId),
    /// A `sampling` or `queuing` line, by partition and port name.
    Port(PartitionId, &'a str),
    /// A `process` line, by partition and process name.
    Process(PartitionId, &'a str),
    /// A `memory` line, by partition and base address.
    Memory(PartitionId, u64),
    /// A `channel` line, by channel id.
    Channel(u32),
    /// An `hm` line, by error id.
    Hm(ErrorId),
    /// The `link` line (at most one per document).
    Link,
    /// The `arq` line (at most one per document).
    Arq,
    /// A `handler` line, by partition and error id.
    Handler(PartitionId, ErrorId),
    /// The `node` line (at most one per document).
    Node,
    /// A `route` line, by destination node.
    Route(u16),
    /// An `apid` line.
    Apid(u16),
    /// A `flow` line, by source node, APID and destination node.
    Flow(u16, u16, u16),
}

impl<'a> SpanKey<'a> {
    /// The key as [`Spans`] orders it: a variant number and two words
    /// that together hold every field but the name, then the name (""
    /// for a key without one). Comparing words is cheaper than the
    /// derived order of the enum.
    fn packed(self) -> (Packed, &'a str) {
        use SpanKey as K;
        let pair = |high: u32, low: u32| u64::from(high) << 32 | u64::from(low);
        let error = |e| {
            ErrorId::ALL
                .iter()
                .position(|&x| x == e)
                .map_or(u64::MAX, |i| i as u64)
        };
        let (packed, name) = match self {
            K::Partition(pid) => ((0, pid.0.into(), 0), ""),
            K::Schedule(id) => ((1, id.0.into(), 0), ""),
            K::Window(id, pid, offset) => ((2, pair(id.0, pid.0), offset.as_u64()), ""),
            K::Requirement(id, pid) => ((3, pair(id.0, pid.0), 0), ""),
            K::Action(id, pid) => ((4, pair(id.0, pid.0), 0), ""),
            K::Port(pid, name) => ((5, pid.0.into(), 0), name),
            K::Process(pid, name) => ((6, pid.0.into(), 0), name),
            K::Memory(pid, base) => ((7, pid.0.into(), base), ""),
            K::Channel(id) => ((8, id.into(), 0), ""),
            K::Hm(e) => ((9, error(e), 0), ""),
            K::Link => ((10, 0, 0), ""),
            K::Arq => ((11, 0, 0), ""),
            K::Handler(pid, e) => ((12, pid.0.into(), error(e)), ""),
            K::Node => ((13, 0, 0), ""),
            K::Route(dst) => ((14, dst.into(), 0), ""),
            K::Apid(apid) => ((15, apid.into(), 0), ""),
            K::Flow(src, apid, dst) => ((16, pair(src.into(), apid.into()), dst.into()), ""),
        };
        (packed, name)
    }
}

/// A [`SpanKey`] without its name, as [`SpanKey::packed`] packs it.
type Packed = (u8, u64, u64);

/// Source spans: the 1-based line where each entity was declared, by its
/// [`SpanKey`]. Threaded from the parser into diagnostics so
/// static-analysis findings point back at the configuration text. When a
/// key is declared twice, the later line wins.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    /// One entry per entity, sorted by key once [`parse`] ends.
    entries: Vec<SpanEntry>,
    /// The port and process names of the keys, end to end.
    names: String,
}

/// A declaration line under its packed key; a port or process name is
/// `names[name.0..name.1]` of [`Spans`].
#[derive(Debug, Clone, Copy)]
struct SpanEntry {
    key: Packed,
    name: (usize, usize),
    line: usize,
}

impl SpanEntry {
    /// The entry's port or process name, read from `names`.
    fn name<'n>(&self, names: &'n str) -> &'n str {
        &names[self.name.0..self.name.1]
    }
}

impl Spans {
    /// Records that `key` was declared on `line`; [`Spans::sort`] must
    /// run before the next lookup.
    fn push(&mut self, key: SpanKey<'_>, line: usize) {
        let (key, text) = key.packed();
        let name = (self.names.len(), self.names.len() + text.len());
        self.names.push_str(text);
        self.entries.push(SpanEntry { key, name, line });
    }

    /// Sorts the entries by key and keeps the last line of each key.
    fn sort(&mut self) {
        let names = self.names.as_str();
        self.entries.sort_unstable_by(|a, b| {
            let by_key = a
                .key
                .cmp(&b.key)
                .then_with(|| a.name(names).cmp(b.name(names)));
            by_key.then(b.line.cmp(&a.line))
        });
        self.entries
            .dedup_by(|a, b| a.key == b.key && a.name(names) == b.name(names));
    }

    /// The declaration line of `key`, if recorded.
    pub fn get(&self, key: &SpanKey<'_>) -> Option<usize> {
        let (key, name) = key.packed();
        let found = self
            .entries
            .binary_search_by(|e| e.key.cmp(&key).then_with(|| e.name(&self.names).cmp(name)));
        found.ok().map(|i| self.entries[i].line)
    }
}

impl PartialEq for Spans {
    /// Spans are equal when they map the same keys to the same lines.
    fn eq(&self, other: &Self) -> bool {
        self.entries.len() == other.entries.len()
            && self.entries.iter().zip(&other.entries).all(|(a, b)| {
                (a.key, a.name(&self.names), a.line) == (b.key, b.name(&other.names), b.line)
            })
    }
}

impl Eq for Spans {}

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

/// The grammar of the configuration format: one row per directive.
///
/// A document holds one directive per line; `#` starts a comment and
/// indentation is free. A line is a row's keyword, its positional tokens
/// ([`Directive::args`]) and then `key=value` fields
/// ([`Directive::fields`]) in any order, each key at most once. A
/// `schedule` line opens a section that holds the `require`, `window` and
/// `action` lines after it ([`Directive::in_schedule`]); any other line
/// closes it. [`Kind`] says what each token means, [`Presence`] which
/// fields a line may leave out. At most one `link`, `arq` and `node` line
/// is allowed, and partition ids, schedule ids, APIDs, route destinations
/// and flows are unique.
pub static DIRECTIVES: [&Directive; 18] = [
    &PARTITION, &SCHEDULE, &REQUIRE, &WINDOW, &ACTION, &SAMPLING, &QUEUING, &PROCESS, &MEMORY,
    &CHANNEL, &LINK, &ARQ, &NODE, &ROUTE, &APID, &FLOW, &HM, &HANDLER,
];

#[rustfmt::skip]
static PARTITION: Directive = Directive { keyword: "partition", args: &[Kind::Partition], fields: &[
    field("name", Kind::Name, Required),
    field("pos", Kind::Tokens("pos kind", &["real_time", "generic"]), Presence::Default(0)),
    field("system", FLAG, Presence::Default(0)),
    field("authority", FLAG, Presence::Default(0)),
], in_schedule: false, build: partition };
#[rustfmt::skip]
static SCHEDULE: Directive = Directive { keyword: "schedule", args: &[Kind::Schedule], fields: &[
    field("name", Kind::Name, Required),
    field("mtf", Kind::Ticks, Required),
], in_schedule: false, build: schedule };
#[rustfmt::skip]
static REQUIRE: Directive = Directive { keyword: "require", args: &[Kind::Partition], fields: &[
    field("cycle", Kind::Ticks, Required),
    field("duration", Kind::Ticks, Required),
], in_schedule: true, build: require };
#[rustfmt::skip]
static WINDOW: Directive = Directive { keyword: "window", args: &[Kind::Partition], fields: &[
    field("offset", Kind::Ticks, Required),
    field("duration", Kind::Ticks, Required),
], in_schedule: true, build: window };
#[rustfmt::skip]
static ACTION: Directive = Directive { keyword: "action", args: &[
    Kind::Partition,
    Kind::Tokens("schedule-change action", &["none", "warm_restart", "cold_restart", "stop"]),
], fields: &[], in_schedule: true, build: action };
const FLAG: Kind = Kind::Tokens("flag", &["false", "true"]);
const DIRECTIONS: Kind = Kind::Tokens("direction", &["source", "destination"]);
#[rustfmt::skip]
static SAMPLING: Directive = Directive { keyword: "sampling", args: &[Kind::Partition], fields: &[
    field("name", Kind::Name, Required),
    field("dir", DIRECTIONS, Required),
    field("size", Kind::Size, Required),
    field("refresh", Kind::Ticks, Presence::Default(Ticks::MAX.as_u64())),
], in_schedule: false, build: sampling };
#[rustfmt::skip]
static QUEUING: Directive = Directive { keyword: "queuing", args: &[Kind::Partition], fields: &[
    field("name", Kind::Name, Required),
    field("dir", DIRECTIONS, Required),
    field("size", Kind::Size, Required),
    field("depth", Kind::Size, Required),
], in_schedule: false, build: queuing };
#[rustfmt::skip]
static PROCESS: Directive = Directive { keyword: "process", args: &[Kind::Partition], fields: &[
    field("name", Kind::Name, Required),
    field("period", Kind::Ticks, Optional),
    field("sporadic", Kind::Ticks, Optional),
    field("deadline", Kind::Ticks, Optional),
    field("wcet", Kind::Ticks, Optional),
    field("priority", Kind::U8, Presence::Default(Priority::LOWEST.0 as u64)),
], in_schedule: false, build: process };
#[rustfmt::skip]
static MEMORY: Directive = Directive { keyword: "memory", args: &[Kind::Partition], fields: &[
    field("base", Kind::Addr, Required),
    field("size", Kind::Addr, Required),
    // A permission's index is its bits: 1 writes, 2 executes.
    field("perm", Kind::Tokens("permission", &["ro", "rw", "rx", "rwx"]), Required),
    field("shared", FLAG, Presence::Default(0)),
], in_schedule: false, build: memory };
#[rustfmt::skip]
static CHANNEL: Directive = Directive { keyword: "channel", args: &[Kind::U32], fields: &[
    field("from", Kind::Port, Required),
    field("to", Kind::Destinations, Required),
], in_schedule: false, build: channel };
// The `link` defaults are the hardware layer's, the `arq` ones those of
// `ArqConfig::default()`.
#[rustfmt::skip]
static LINK: Directive = Directive { keyword: "link", args: &[], fields: &[
    field("primary_latency", Kind::Ticks, Required),
    field("secondary_latency", Kind::Ticks, Optional),
    field("failover_threshold", Kind::U32, Presence::Default(4)),
    field("revert", Kind::Ticks, Presence::Default(400)),
    field("degraded", Kind::Schedule, Optional),
], in_schedule: false, build: link };
#[rustfmt::skip]
static ARQ: Directive = Directive { keyword: "arq", args: &[], fields: &[
    field("window", Kind::Size, Required),
    field("timeout", Kind::Ticks, Required),
    field("backoff_cap", Kind::U32, Presence::Default(3)),
    field("max_retries", Kind::U32, Presence::Default(8)),
    field("recovery_threshold", Kind::U32, Presence::Default(4)),
], in_schedule: false, build: arq };
#[rustfmt::skip]
static NODE: Directive = Directive { keyword: "node", args: &[Kind::Node], fields: &[
    field("name", Kind::Name, Required),
    field("fallback", Kind::Node, Optional),
], in_schedule: false, build: node };
#[rustfmt::skip]
static ROUTE: Directive = Directive { keyword: "route", args: &[Kind::Node], fields: &[
    field("via", Kind::Node, Required),
], in_schedule: false, build: route };
#[rustfmt::skip]
static APID: Directive = Directive { keyword: "apid", args: &[Kind::Apid], fields: &[
    field("name", Kind::Name, Required),
    field("kind", Kind::Tokens("apid kind", &["tc", "tm"]), Required),
], in_schedule: false, build: apid };
#[rustfmt::skip]
static FLOW: Directive = Directive { keyword: "flow", args: &[
    Kind::Source, Kind::Arrow, Kind::Node,
], fields: &[
    field("deadline", Kind::Ticks, Optional),
], in_schedule: false, build: flow };
#[rustfmt::skip]
static HM: Directive = Directive { keyword: "hm", args: &[Kind::Error], fields: &[
    field("level", Kind::Tokens("error level", &["process", "partition", "module"]), Required),
], in_schedule: false, build: hm };
#[rustfmt::skip]
static HANDLER: Directive = Directive { keyword: "handler", args: &[
    Kind::Partition, Kind::Error, Kind::Recovery,
], fields: &[], in_schedule: false, build: handler };

/// One directive of the grammar: a row of [`DIRECTIVES`].
#[derive(Debug)]
pub struct Directive {
    /// The keyword a line starts with.
    pub keyword: &'static str,
    /// The positional tokens after the keyword, in order.
    pub args: &'static [Kind],
    /// The `key=value` fields a line may set, in the order [`emit`]
    /// writes them.
    pub fields: &'static [Field],
    /// Whether the line belongs to the open `schedule` section.
    pub in_schedule: bool,
    build: Build,
}

/// A `key=value` field of a [`Directive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Field {
    /// The key before the `=`.
    pub key: &'static str,
    /// What the value after the `=` is.
    pub kind: Kind,
    /// Whether a line may leave the field out, and what it then means.
    pub presence: Presence,
}

/// Whether a line may leave a field out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Presence {
    /// Every line sets the field.
    Required,
    /// A line may leave the field out; it then has no value.
    Optional,
    /// A line may leave the field out; it then takes this value: a
    /// number, 0 or 1 for a flag, or the index of a token in its list.
    Default(u64),
}

/// The kind of a positional token or a field value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A duration or instant in ticks: a decimal `u64`.
    Ticks,
    /// A decimal `u32`.
    U32,
    /// A decimal `u8`.
    U8,
    /// A decimal byte, message or frame count.
    Size,
    /// An address or byte count, in hex (`0x…`) or decimal.
    Addr,
    /// A name, as written.
    Name,
    /// One token of a fixed list, with the noun its errors use.
    Tokens(&'static str, &'static [&'static str]),
    /// A partition id `P<n>`.
    Partition,
    /// A schedule id `chi<n>`.
    Schedule,
    /// A mesh node id `N<n>`.
    Node,
    /// An 11-bit application process identifier, at most [`APID_MAX`].
    Apid,
    /// A port address `P<n>:<port>`.
    Port,
    /// Comma-separated `P<n>:<port>` (local) or `remote:P<n>:<port>` ports,
    /// read as written: the `channel` builder parses each port once.
    Destinations,
    /// An error id, spelled as [`error_id_token`] prints it.
    Error,
    /// A handler action, e.g. `stop_process` or `log_then_act=3/stop_process`.
    Recovery,
    /// A flow source `N<src>:<apid>`: a node id and an APID.
    Source,
    /// The literal `->`.
    Arrow,
}

/// The slots of a line: the most positional values (a `handler`'s, or a
/// `flow`'s node, APID and node) and fields (a `process`'s) of any row.
const MAX_ARGS: usize = 3;
const MAX_FIELDS: usize = 6;

/// Adds a read line to the document and returns the key of the entity it
/// declares, or says why the line does not fit the document.
type Build = for<'a> fn(&mut Builder, Args<'a>, Fields<'a>) -> Built<'a>;
type Built<'a> = Result<SpanKey<'a>, String>;

/// A line's positional values and fields, in row order, each typed and
/// defaulted by the row.
type Args<'a> = [Value<'a>; MAX_ARGS];
type Fields<'a> = [Value<'a>; MAX_FIELDS];

/// A value as its [`Kind`] reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Value<'a> {
    /// No value: an optional field left out, or an unused slot.
    Absent,
    /// A number or id, 0 or 1 for a flag, or the index of a token.
    Num(u64),
    /// A name or destination list, as written.
    Text(&'a str),
    /// A port address: its partition and port name.
    Port(PartitionId, &'a str),
    Error(ErrorId),
    Recovery(ProcessRecoveryAction),
}

/// A row's field.
const fn field(key: &'static str, kind: Kind, presence: Presence) -> Field {
    Field {
        key,
        kind,
        presence,
    }
}

impl Directive {
    /// Reads the tokens after the keyword: the positional tokens, then the
    /// pairs in line order, then the row's fields in row order.
    // Inlined, the slots are built in place; returned from a call they
    // were copied, which cost about 5% of a parse.
    #[inline(always)]
    fn read<'a>(
        &self,
        mut tokens: impl Iterator<Item = &'a str>,
    ) -> Result<(Args<'a>, Fields<'a>), String> {
        let (keyword, absent) = (self.keyword, Value::Absent);
        let (mut args, mut fields) = ([absent; MAX_ARGS], [absent; MAX_FIELDS]);
        let mut slots = args.iter_mut();
        for &kind in self.args {
            let token = tokens
                .next()
                .ok_or_else(|| format!("'{keyword}' needs '{kind}'"))?;
            let values = match (kind, token.split_once(':')) {
                (Kind::Source, Some((node, apid))) => [
                    Kind::Node.read(keyword, node)?,
                    Kind::Apid.read("apid", apid)?,
                ],
                _ => [kind.read(keyword, token)?, absent],
            };
            for (value, slot) in values.into_iter().filter(|v| *v != absent).zip(&mut slots) {
                *slot = value;
            }
        }
        let mut raw: [Option<&str>; MAX_FIELDS] = [None; MAX_FIELDS];
        for token in tokens {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, found '{token}'"))?;
            let (_, slot) = self
                .fields
                .iter()
                .zip(&mut raw)
                .find(|(field, _)| field.key == key)
                .ok_or_else(|| format!("unknown key '{key}' for '{keyword}'"))?;
            if slot.replace(value).is_some() {
                return Err(format!("duplicate key '{key}'"));
            }
        }
        for ((field, raw), slot) in self.fields.iter().zip(raw).zip(&mut fields) {
            *slot = match (raw, field.presence) {
                (Some(raw), _) => field.kind.read(field.key, raw)?,
                (None, Presence::Required) => return Err(format!("missing '{}='", field.key)),
                (None, Presence::Optional) => absent,
                (None, Presence::Default(value)) => Value::Num(value),
            };
        }
        Ok((args, fields))
    }

    /// Writes one line: the positional values, then every field that
    /// holds a value other than its default, in row order.
    fn put(&self, out: &mut String, args: &[Value<'_>], fields: &[Value<'_>]) {
        out.push_str(if self.in_schedule { "  " } else { "" });
        out.push_str(self.keyword);
        let mut args = args.iter().copied();
        let mut next = || args.next().unwrap_or(Value::Absent);
        for &kind in self.args {
            out.push(' ');
            match kind {
                Kind::Source => {
                    Kind::Node.write(out, next());
                    out.push(':');
                    Kind::Apid.write(out, next());
                }
                Kind::Arrow => out.push_str("->"),
                _ => kind.write(out, next()),
            }
        }
        for (field, &value) in self.fields.iter().zip(fields) {
            let default = matches!(field.presence, Presence::Default(d) if value == Value::Num(d));
            if value != Value::Absent && !default {
                let _ = write!(out, " {}=", field.key);
                field.kind.write(out, value);
            }
        }
        out.push('\n');
    }
}

impl Kind {
    /// The largest value a numeric kind accepts.
    pub fn max(self) -> Option<u64> {
        match self {
            Kind::Ticks | Kind::Addr => Some(u64::MAX),
            Kind::Size => u64::try_from(usize::MAX).ok(),
            Kind::U32 => Some(u32::MAX.into()),
            Kind::U8 => Some(u8::MAX.into()),
            Kind::Apid => Some(APID_MAX.into()),
            _ => None,
        }
    }

    /// Reads `raw`: the value of the field `key`, or a positional token of
    /// the directive `key`.
    fn read<'a>(self, key: &str, raw: &'a str) -> Result<Value<'a>, String> {
        let invalid = || format!("invalid number '{raw}' for '{key}'");
        let number = match self {
            Kind::Name | Kind::Destinations => return Ok(Value::Text(raw)),
            Kind::Port => return port_addr(raw).map(|(pid, port)| Value::Port(pid, port)),
            Kind::Error => {
                let error = ErrorId::ALL.into_iter().find(|e| error_id_token(*e) == raw);
                return error
                    .map(Value::Error)
                    .ok_or_else(|| format!("unknown error id '{raw}'"));
            }
            Kind::Recovery => return recovery_action(raw).map(Value::Recovery),
            Kind::Arrow if raw == "->" => return Ok(Value::Absent),
            Kind::Arrow | Kind::Source => return Err(format!("expected '{self}', found '{raw}'")),
            Kind::Tokens(noun, tokens) => tokens
                .iter()
                .position(|t| *t == raw)
                .ok_or_else(|| format!("unknown {noun} '{raw}'"))?
                as u64,
            Kind::Partition => prefixed::<u32>(raw, "P", "partition")?.into(),
            Kind::Schedule => prefixed::<u32>(raw, "chi", "schedule")?.into(),
            Kind::Node => prefixed::<u16>(raw, "N", "node")?.into(),
            Kind::Addr if raw.starts_with("0x") => {
                u64::from_str_radix(&raw[2..], 16).map_err(|_| invalid())?
            }
            Kind::Ticks | Kind::U32 | Kind::U8 | Kind::Size | Kind::Addr | Kind::Apid => {
                raw.parse().map_err(|_| invalid())?
            }
        };
        match self.max() {
            Some(max) if number > max => Err(format!("{key} '{number}' out of range (max {max})")),
            _ => Ok(Value::Num(number)),
        }
    }

    /// Writes `value` as [`Kind::read`] reads it back.
    fn write(self, out: &mut String, value: Value<'_>) {
        let _ = match (self, value) {
            (Kind::Addr, Value::Num(n)) => write!(out, "{n:#x}"),
            (Kind::Tokens(_, tokens), Value::Num(n)) => {
                write!(out, "{}", tokens.get(n as usize).unwrap_or(&""))
            }
            (Kind::Partition, Value::Num(n)) => write!(out, "P{n}"),
            (Kind::Schedule, Value::Num(n)) => write!(out, "chi{n}"),
            (Kind::Node, Value::Num(n)) => write!(out, "N{n}"),
            (_, Value::Num(n)) => write!(out, "{n}"),
            (_, Value::Text(text)) => write!(out, "{text}"),
            (_, Value::Port(pid, port)) => write!(out, "{pid}:{port}"),
            (_, Value::Error(error)) => write!(out, "{}", error_id_token(error)),
            (_, Value::Recovery(action)) => write!(out, "{}", recovery_action_token(action)),
            (_, Value::Absent) => Ok(()),
        };
    }
}

impl fmt::Display for Kind {
    /// The kind as an error message spells it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Kind::Ticks => "<ticks>",
            Kind::U32 => "<u32>",
            Kind::U8 => "<u8>",
            Kind::Size => "<size>",
            Kind::Addr => "<addr>",
            Kind::Name => "<name>",
            Kind::Tokens(_, tokens) => return f.write_str(&tokens.join("|")),
            Kind::Partition => "P<n>",
            Kind::Schedule => "chi<n>",
            Kind::Node => "N<n>",
            Kind::Apid => "<apid>",
            Kind::Port => "P<n>:<port>",
            Kind::Destinations => "[remote:]P<n>:<port>[,…]",
            Kind::Error => "<error_id>",
            Kind::Recovery => "<recovery>",
            Kind::Source => "N<n>:<apid>",
            Kind::Arrow => "->",
        })
    }
}

// The accessors of a read value: its row has typed it, so the variant
// each asks for is the one present.
impl<'a> Value<'a> {
    fn num(self) -> u64 {
        self.opt().unwrap_or(0)
    }

    fn opt(self) -> Option<u64> {
        match self {
            Value::Num(n) => Some(n),
            _ => None,
        }
    }

    fn text(self) -> &'a str {
        match self {
            Value::Text(text) => text,
            _ => "",
        }
    }

    fn partition(self) -> PartitionId {
        PartitionId(self.num() as u32)
    }

    fn node(self) -> NodeId {
        NodeId(self.num() as u16)
    }
}

/// `<prefix><n>`: the `n` of a partition, schedule or node id.
fn prefixed<T: std::str::FromStr>(token: &str, prefix: &str, what: &str) -> Result<T, String> {
    let digits = token
        .strip_prefix(prefix)
        .ok_or_else(|| format!("expected {what} id '{prefix}<n>', found '{token}'"))?;
    digits
        .parse()
        .map_err(|_| format!("invalid {what} number '{digits}'"))
}

/// `P<n>:<port>`: the partition and the port name.
fn port_addr(token: &str) -> Result<(PartitionId, &str), String> {
    let (pid, port) = token
        .split_once(':')
        .ok_or_else(|| format!("expected 'P<n>:<port>', found '{token}'"))?;
    if port.is_empty() {
        return Err(format!("empty port name in '{token}'"));
    }
    Ok((PartitionId(prefixed(pid, "P", "partition")?), port))
}

/// One channel destination: `P<n>:<port>` or `remote:P<n>:<port>`.
fn destination(token: &str) -> Result<Destination, String> {
    let remote = token.strip_prefix("remote:");
    let (pid, port) = port_addr(remote.unwrap_or(token))?;
    let addr = PortAddr::new(pid, port);
    Ok(match remote {
        Some(_) => Destination::Remote { addr },
        None => Destination::Local(addr),
    })
}

/// The handler actions other than `log_then_act`, with their tokens.
const RECOVERIES: [(&str, ProcessRecoveryAction); 6] = {
    use ProcessRecoveryAction as R;
    [
        ("ignore", R::Ignore),
        ("restart_process", R::RestartProcess),
        ("start_other_process", R::StartOtherProcess),
        ("stop_process", R::StopProcess),
        ("restart_partition", R::RestartPartition),
        ("stop_partition", R::StopPartition),
    ]
};

/// The actions `log_then_act=<n>/<action>` may escalate to.
const ESCALATIONS: [EscalatedProcessAction; 5] = {
    use EscalatedProcessAction as E;
    [
        E::RestartProcess,
        E::StartOtherProcess,
        E::StopProcess,
        E::RestartPartition,
        E::StopPartition,
    ]
};

/// A `handler` action token, e.g. `restart_process` or
/// `log_then_act=3/restart_partition`.
fn recovery_action(token: &str) -> Result<ProcessRecoveryAction, String> {
    let named = |t: &str| RECOVERIES.iter().find(|row| row.0 == t).map(|row| row.1);
    let Some(rest) = token.strip_prefix("log_then_act=") else {
        return named(token).ok_or_else(|| format!("unknown handler action '{token}'"));
    };
    let (count, escalation) = rest
        .split_once('/')
        .ok_or_else(|| format!("expected 'log_then_act=<n>/<action>', found '{token}'"))?;
    let threshold = count
        .parse::<u32>()
        .map_err(|_| format!("invalid log count '{count}'"))?;
    let action = named(escalation);
    let then = ESCALATIONS
        .into_iter()
        .find(|e| Some((*e).into()) == action);
    let then = then.ok_or_else(|| format!("unknown escalation '{escalation}'"))?;
    Ok(ProcessRecoveryAction::LogThenAct { threshold, then })
}

fn recovery_action_token(action: ProcessRecoveryAction) -> String {
    let token = |a| {
        RECOVERIES
            .iter()
            .find(|row| row.1 == a)
            .map_or("", |row| row.0)
    };
    match action {
        ProcessRecoveryAction::LogThenAct { threshold, then } => {
            format!("log_then_act={threshold}/{}", token(then.into()))
        }
        _ => token(action).to_owned(),
    }
}

/// The parser's state: the document so far and its open schedule
/// section.
#[derive(Default)]
struct Builder {
    doc: ConfigDoc,
    open: Option<OpenSchedule>,
    /// The ids declared so far, in one set: a small document pays one
    /// allocation for all of them.
    declared: BTreeSet<Declared>,
    /// The destinations routed so far.
    routed: NodeBits,
}

/// An id a document may declare once.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum Declared {
    Partition(u32),
    Schedule(u32),
    Apid(u16),
    Flow(NodeId, u16, NodeId),
}

/// A set of node ids, one bit each: a mesh document may route to
/// thousands of destinations, and the bits cost no allocation.
struct NodeBits([u64; 1 << 10]);

impl Default for NodeBits {
    fn default() -> Self {
        Self([0; 1 << 10])
    }
}

impl NodeBits {
    /// Adds `node`; false when it was already in the set.
    fn insert(&mut self, node: NodeId) -> bool {
        let (word, bit) = (usize::from(node.0 / 64), 1 << (node.0 % 64));
        let fresh = self.0[word] & bit == 0;
        self.0[word] |= bit;
        fresh
    }
}

/// A schedule section being read.
struct OpenSchedule {
    id: ScheduleId,
    name: String,
    mtf: Ticks,
    requirements: Vec<PartitionRequirement>,
    windows: Vec<TimeWindow>,
    actions: Vec<(PartitionId, ScheduleChangeAction)>,
}

impl Builder {
    /// Adds the open schedule section, if any, to the document.
    fn close(&mut self) {
        if let Some(s) = self.open.take() {
            let mut schedule = Schedule::new(s.id, s.name, s.mtf, s.requirements, s.windows);
            for (p, a) in s.actions {
                schedule = schedule.with_change_action(p, a);
            }
            self.doc.schedules.push(schedule);
        }
    }
}

fn partition(
    b: &mut Builder,
    [id, ..]: Args,
    [name, pos, system, authority, ..]: Fields,
) -> Built<'static> {
    let id = id.partition();
    if !b.declared.insert(Declared::Partition(id.as_u32())) {
        return Err(format!("duplicate partition id {id}"));
    }
    let mut partition = Partition::new(id, name.text());
    if pos.num() == 1 {
        partition = partition.with_pos_kind(PosKind::GenericNonRealTime);
    }
    if system.num() == 1 {
        partition = partition.system();
    }
    if authority.num() == 1 {
        partition = partition.with_schedule_authority();
    }
    b.doc.partitions.push(partition);
    Ok(SpanKey::Partition(id))
}

fn schedule(b: &mut Builder, [id, ..]: Args, [name, mtf, ..]: Fields) -> Built<'static> {
    let id = ScheduleId(id.num() as u32);
    if !b.declared.insert(Declared::Schedule(id.as_u32())) {
        return Err(format!("duplicate schedule id {id}"));
    }
    b.open = Some(OpenSchedule {
        id,
        name: name.text().to_owned(),
        mtf: Ticks(mtf.num()),
        requirements: Vec::new(),
        windows: Vec::new(),
        actions: Vec::new(),
    });
    Ok(SpanKey::Schedule(id))
}

fn require(b: &mut Builder, [pid, ..]: Args, [cycle, duration, ..]: Fields) -> Built<'static> {
    let s = b.open.as_mut().ok_or("outside a schedule")?;
    let pid = pid.partition();
    let (cycle, duration) = (Ticks(cycle.num()), Ticks(duration.num()));
    s.requirements
        .push(PartitionRequirement::new(pid, cycle, duration));
    Ok(SpanKey::Requirement(s.id, pid))
}

fn window(b: &mut Builder, [pid, ..]: Args, [offset, duration, ..]: Fields) -> Built<'static> {
    let s = b.open.as_mut().ok_or("outside a schedule")?;
    let pid = pid.partition();
    let (offset, duration) = (offset.num(), duration.num());
    if offset.checked_add(duration).is_none() {
        return Err("window offset + duration overflows".into());
    }
    s.windows
        .push(TimeWindow::new(pid, Ticks(offset), Ticks(duration)));
    Ok(SpanKey::Window(s.id, pid, Ticks(offset)))
}

fn action(b: &mut Builder, [pid, action, ..]: Args, _: Fields) -> Built<'static> {
    let s = b.open.as_mut().ok_or("outside a schedule")?;
    let pid = pid.partition();
    let action = match action.num() {
        0 => ScheduleChangeAction::None,
        1 => ScheduleChangeAction::WarmRestart,
        2 => ScheduleChangeAction::ColdRestart,
        _ => ScheduleChangeAction::Stop,
    };
    s.actions.push((pid, action));
    Ok(SpanKey::Action(s.id, pid))
}

fn sampling<'a>(
    b: &mut Builder,
    [pid, ..]: Args,
    [name, dir, size, refresh, ..]: Fields<'a>,
) -> Built<'a> {
    let (name, size, refresh) = (name.text(), size.num() as usize, Ticks(refresh.num()));
    let config = match dir.num() {
        0 if refresh != Ticks::MAX => {
            return Err("'refresh=' only applies to dir=destination".into())
        }
        0 => SamplingPortConfig::source(name, size),
        _ => SamplingPortConfig::destination(name, size, refresh),
    };
    b.doc.sampling_ports.push((pid.partition(), config));
    Ok(SpanKey::Port(pid.partition(), name))
}

fn queuing<'a>(
    b: &mut Builder,
    [pid, ..]: Args,
    [name, dir, size, depth, ..]: Fields<'a>,
) -> Built<'a> {
    let (name, size, depth) = (name.text(), size.num() as usize, depth.num() as usize);
    let config = match dir.num() {
        0 => QueuingPortConfig::source(name, size, depth),
        _ => QueuingPortConfig::destination(name, size, depth),
    };
    b.doc.queuing_ports.push((pid.partition(), config));
    Ok(SpanKey::Port(pid.partition(), name))
}

fn process<'a>(b: &mut Builder, [pid, ..]: Args, fields: Fields<'a>) -> Built<'a> {
    let [name, period, sporadic, deadline, wcet, priority] = fields;
    let recurrence = match (period.opt(), sporadic.opt()) {
        (Some(_), Some(_)) => return Err("'period=' and 'sporadic=' are exclusive".into()),
        (Some(t), None) => Recurrence::Periodic(Ticks(t)),
        (None, Some(t)) => Recurrence::Sporadic(Ticks(t)),
        (None, None) => Recurrence::Aperiodic,
    };
    let mut attrs = ProcessAttributes::new(name.text())
        .with_recurrence(recurrence)
        .with_base_priority(Priority(priority.num() as u8));
    if let Some(d) = deadline.opt() {
        attrs = attrs.with_deadline(Deadline::Relative(Ticks(d)));
    }
    if let Some(c) = wcet.opt() {
        attrs = attrs.with_wcet(Ticks(c));
    }
    b.doc.processes.push((pid.partition(), attrs));
    Ok(SpanKey::Process(pid.partition(), name.text()))
}

fn memory(
    b: &mut Builder,
    [pid, ..]: Args,
    [base, size, perm, shared, ..]: Fields,
) -> Built<'static> {
    let (partition, base, perm) = (pid.partition(), base.num(), perm.num());
    b.doc.memory.push(MemoryRegion {
        partition,
        base,
        size: size.num(),
        writable: perm & 1 != 0,
        executable: perm & 2 != 0,
        shared: shared.num() == 1,
    });
    Ok(SpanKey::Memory(partition, base))
}

// The row types `from` as a port, so the pattern below always matches.
fn channel(b: &mut Builder, [id, ..]: Args, [from, to, ..]: Fields) -> Built<'static> {
    let (id, Value::Port(pid, port)) = (id.num() as u32, from) else {
        return Err("expected a port address".into());
    };
    let destinations = to.text().split(',').filter(|d| !d.is_empty());
    b.doc.channels.push(ChannelConfig {
        id,
        source: PortAddr::new(pid, port),
        destinations: destinations.map(destination).collect::<Result<_, _>>()?,
    });
    Ok(SpanKey::Channel(id))
}

fn link(b: &mut Builder, _: Args, fields: Fields) -> Built<'static> {
    if b.doc.link.is_some() {
        return Err("duplicate 'link' directive".into());
    }
    let [primary, secondary, threshold, revert, degraded, ..] = fields;
    b.doc.link = Some(LinkDirective {
        primary_latency: primary.num(),
        secondary_latency: secondary.opt(),
        failover_threshold: threshold.num() as u32,
        revert_ticks: revert.num(),
        degraded: degraded.opt().map(|n| ScheduleId(n as u32)),
    });
    Ok(SpanKey::Link)
}

fn arq(b: &mut Builder, _: Args, fields: Fields) -> Built<'static> {
    if b.doc.arq.is_some() {
        return Err("duplicate 'arq' directive".into());
    }
    let [window, timeout, backoff_cap, max_retries, recovery_threshold, ..] = fields;
    b.doc.arq = Some(ArqConfig {
        window: window.num() as usize,
        timeout_ticks: timeout.num(),
        backoff_cap: backoff_cap.num() as u32,
        max_retries: max_retries.num() as u32,
        recovery_threshold: recovery_threshold.num() as u32,
    });
    Ok(SpanKey::Arq)
}

fn node(b: &mut Builder, [id, ..]: Args, [name, fallback, ..]: Fields) -> Built<'static> {
    if b.doc.mesh_node.is_some() {
        return Err("duplicate 'node' directive".into());
    }
    let (id, fallback) = (id.node(), fallback.opt().map(|_| fallback.node()));
    if fallback == Some(id) {
        return Err("'fallback' cannot name the node itself".into());
    }
    let name = name.text().to_owned();
    b.doc.mesh_node = Some(MeshNodeDirective { id, name, fallback });
    Ok(SpanKey::Node)
}

fn route(b: &mut Builder, [dst, ..]: Args, [via, ..]: Fields) -> Built<'static> {
    let (dst, via) = (dst.node(), via.node());
    if !b.routed.insert(dst) {
        return Err(format!("duplicate route for destination {dst}"));
    }
    b.doc.routes.push(RouteDirective { dst, via });
    Ok(SpanKey::Route(dst.0))
}

fn apid(b: &mut Builder, [apid, ..]: Args, [name, kind, ..]: Fields) -> Built<'static> {
    let (apid, name) = (apid.num() as u16, name.text().to_owned());
    if !b.declared.insert(Declared::Apid(apid)) {
        return Err(format!("duplicate apid {apid}"));
    }
    let kind = match kind.num() {
        0 => PacketKind::Tc,
        _ => PacketKind::Tm,
    };
    b.doc.apids.push(ApidDirective { apid, name, kind });
    Ok(SpanKey::Apid(apid))
}

fn flow(b: &mut Builder, [src, apid, dst]: Args, [deadline, ..]: Fields) -> Built<'static> {
    let (src, apid, dst, deadline) = (src.node(), apid.num() as u16, dst.node(), deadline.opt());
    if !b.declared.insert(Declared::Flow(src, apid, dst)) {
        return Err(format!("duplicate flow {src}:{apid} -> {dst}"));
    }
    b.doc.flows.push(FlowDirective {
        src,
        apid,
        dst,
        deadline,
    });
    Ok(SpanKey::Flow(src.0, apid, dst.0))
}

// The row types `hm` and `handler` tokens, so the patterns below always
// match.
fn hm(b: &mut Builder, [error, ..]: Args, [level, ..]: Fields) -> Built<'static> {
    let Value::Error(error) = error else {
        return Err("expected an error id".into());
    };
    let level = match level.num() {
        0 => ErrorLevel::Process,
        1 => ErrorLevel::Partition,
        _ => ErrorLevel::Module,
    };
    b.doc.hm_levels.push((error, level));
    Ok(SpanKey::Hm(error))
}

fn handler(b: &mut Builder, args: Args, _: Fields) -> Built<'static> {
    let [pid, Value::Error(error), Value::Recovery(action)] = args else {
        return Err("expected an error id and an action".into());
    };
    b.doc.handlers.push((pid.partition(), error, action));
    Ok(SpanKey::Handler(pid.partition(), error))
}

/// Parses a configuration document written in the grammar of
/// [`DIRECTIVES`].
///
/// Each line is read against its directive's row, which types,
/// range-checks and defaults every token; the row's builder then checks
/// what spans lines, such as duplicate ids.
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
    let mut b = Builder::default();
    // Lines come in runs of one directive, so the last row is tried first.
    let mut row = DIRECTIVES[0];
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let mut tokens = raw.split('#').next().unwrap_or("").split_whitespace();
        let Some(keyword) = tokens.next() else {
            continue;
        };
        if row.keyword != keyword {
            row = DIRECTIVES
                .iter()
                .find(|row| row.keyword == keyword)
                .ok_or_else(|| err(line_no, format!("unknown directive '{keyword}'")))?;
        }
        let (args, fields) = row.read(tokens).map_err(|m| err(line_no, m))?;
        if !row.in_schedule {
            b.close();
        } else if b.open.is_none() {
            return Err(err(line_no, format!("'{keyword}' outside a schedule")));
        }
        let span = (row.build)(&mut b, args, fields).map_err(|m| err(line_no, m))?;
        b.doc.spans.push(span, line_no);
    }
    b.close();
    b.doc.spans.sort();
    Ok(b.doc)
}

/// Emits a document in the format [`parse`] reads (round-trip stable).
pub fn emit(doc: &ConfigDoc) -> String {
    use Value::{Absent, Num, Text};
    let id = |pid: PartitionId| [Num(pid.as_u32().into())];
    let node = |node: NodeId| Num(node.0.into());
    let ticks = |t: Ticks| Num(t.as_u64());
    let flag = |set: bool| Num(set.into());
    let opt = |value: Option<u64>| value.map_or(Absent, Num);
    let mut out = String::from("# AIR system configuration\n");
    let o = &mut out;
    for p in &doc.partitions {
        let pos = flag(p.pos_kind() == PosKind::GenericNonRealTime);
        let (system, authority) = (flag(p.is_system()), flag(p.may_set_module_schedule()));
        PARTITION.put(o, &id(p.id()), &[Text(p.name()), pos, system, authority]);
    }
    for (p, c) in &doc.sampling_ports {
        let (name, size) = (Text(&c.name), Num(c.max_message_size as u64));
        let dir = c.direction == Direction::Destination;
        let refresh = if dir { ticks(c.refresh_period) } else { Absent };
        SAMPLING.put(o, &id(*p), &[name, flag(dir), size, refresh]);
    }
    for (p, c) in &doc.queuing_ports {
        let (name, dir) = (Text(&c.name), flag(c.direction == Direction::Destination));
        let size = [c.max_message_size, c.max_nb_messages].map(|n| Num(n as u64));
        QUEUING.put(o, &id(*p), &[name, dir, size[0], size[1]]);
    }
    for (p, a) in &doc.processes {
        let (period, sporadic) = match a.recurrence() {
            Recurrence::Periodic(t) => (ticks(t), Absent),
            Recurrence::Sporadic(t) => (Absent, ticks(t)),
            Recurrence::Aperiodic => (Absent, Absent),
        };
        let deadline = match a.deadline() {
            Deadline::Relative(d) => ticks(d),
            Deadline::Infinite => Absent,
        };
        let wcet = a.wcet().map_or(Absent, ticks);
        let priority = Num(a.base_priority().0.into());
        let fields = [Text(a.name()), period, sporadic, deadline, wcet, priority];
        PROCESS.put(o, &id(*p), &fields);
    }
    for r in &doc.memory {
        let perm = Num(u64::from(r.writable) | u64::from(r.executable) << 1);
        let fields = [Num(r.base), Num(r.size), perm, flag(r.shared)];
        MEMORY.put(o, &id(r.partition), &fields);
    }
    for &(p, error, action) in &doc.handlers {
        let args = [id(p)[0], Value::Error(error), Value::Recovery(action)];
        HANDLER.put(o, &args, &[]);
    }
    for &(error, level) in &doc.hm_levels {
        let level = match level {
            ErrorLevel::Process => 0,
            ErrorLevel::Partition => 1,
            ErrorLevel::Module => 2,
        };
        HM.put(o, &[Value::Error(error)], &[Num(level)]);
    }
    for s in &doc.schedules {
        let chi = Num(s.id().as_u32().into());
        SCHEDULE.put(o, &[chi], &[Text(s.name()), ticks(s.mtf())]);
        for q in s.requirements() {
            let fields = [ticks(q.cycle), ticks(q.duration)];
            REQUIRE.put(o, &id(q.partition), &fields);
        }
        for w in s.windows() {
            let fields = [ticks(w.offset), ticks(w.duration)];
            WINDOW.put(o, &id(w.partition), &fields);
        }
        for (p, action) in s.change_actions() {
            let action = match action {
                ScheduleChangeAction::None => 0,
                ScheduleChangeAction::WarmRestart => 1,
                ScheduleChangeAction::ColdRestart => 2,
                ScheduleChangeAction::Stop => 3,
            };
            ACTION.put(o, &[id(p)[0], Num(action)], &[]);
        }
    }
    if let Some(l) = &doc.link {
        let (primary, secondary) = (Num(l.primary_latency), opt(l.secondary_latency));
        let (threshold, revert) = (Num(l.failover_threshold.into()), Num(l.revert_ticks));
        let degraded = opt(l.degraded.map(|s| s.as_u32().into()));
        LINK.put(o, &[], &[primary, secondary, threshold, revert, degraded]);
    }
    if let Some(a) = &doc.arq {
        let counts = [a.backoff_cap, a.max_retries, a.recovery_threshold].map(|n| Num(n.into()));
        let (window, timeout) = (Num(a.window as u64), Num(a.timeout_ticks));
        ARQ.put(o, &[], &[window, timeout, counts[0], counts[1], counts[2]]);
    }
    for c in &doc.channels {
        let to = c.destinations.iter().map(|d| match d {
            Destination::Local(addr) => addr.to_string(),
            Destination::Remote { addr } => format!("remote:{addr}"),
        });
        let from = Value::Port(c.source.partition, &c.source.port);
        let to = to.collect::<Vec<_>>().join(",");
        CHANNEL.put(o, &[Num(c.id.into())], &[from, Text(&to)]);
    }
    if let Some(n) = &doc.mesh_node {
        let fields = [Text(&n.name), n.fallback.map_or(Absent, node)];
        NODE.put(o, &[node(n.id)], &fields);
    }
    for r in &doc.routes {
        ROUTE.put(o, &[node(r.dst)], &[node(r.via)]);
    }
    for a in &doc.apids {
        let kind = flag(a.kind == PacketKind::Tm);
        APID.put(o, &[Num(a.apid.into())], &[Text(&a.name), kind]);
    }
    for f in &doc.flows {
        let args = [node(f.src), Num(f.apid.into()), node(f.dst)];
        FLOW.put(o, &args, &[opt(f.deadline)]);
    }
    out
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
        // Structure first, in line order: a token that is no pair, a
        // repeated key or a key the row lacks; then, in row order, a field
        // that is missing or ill-typed.
        let cases = [
            (
                "partition P0 name=a b name=c",
                "expected key=value, found 'b'",
            ),
            ("partition P0 name=a name=c b", "duplicate key 'name'"),
            (
                "partition P0 colour=x name=a name=b",
                "unknown key 'colour' for 'partition'",
            ),
            (
                "partition P0 name=a name=b colour=x",
                "duplicate key 'name'",
            ),
            (
                "partition P0 pos=weird colour=x",
                "unknown key 'colour' for 'partition'",
            ),
            ("partition P0 pos=weird", "missing 'name='"),
            ("schedule chi0 mtf=x", "missing 'name='"),
            ("schedule chi0 mtf=x name=a", "invalid number 'x' for 'mtf'"),
            ("partition P0 system=yes name=a", "unknown flag 'yes'"),
            (
                "process P0 name=a priority=256",
                "priority '256' out of range (max 255)",
            ),
            (
                "process P0 name=fast perod=50 deadline=10 wcet=5 priority=1 colour=blue",
                "unknown key 'perod' for 'process'",
            ),
            (
                "handler P0 deadline_missed ignore extra",
                "expected key=value, found 'extra'",
            ),
            ("action P0 stop", "'action' outside a schedule"),
            (
                "channel x from=P0:a to=P1:b",
                "invalid number 'x' for 'channel'",
            ),
        ];
        for (text, message) in cases {
            let e = parse(text).unwrap_err();
            assert_eq!((e.line, e.message.as_str()), (1, message), "{text}");
        }
    }

    #[test]
    fn every_row_fits_the_line_slots() {
        for row in DIRECTIVES {
            let width = |kind: &Kind| match kind {
                Kind::Source => 2,
                Kind::Arrow => 0,
                _ => 1,
            };
            assert!(
                row.args.iter().map(width).sum::<usize>() <= MAX_ARGS,
                "{row:?}"
            );
            assert!(row.fields.len() <= MAX_FIELDS, "{row:?}");
            let keys: BTreeSet<_> = row.fields.iter().map(|f| f.key).collect();
            assert_eq!(keys.len(), row.fields.len(), "{row:?}");
        }
        let keywords: BTreeSet<_> = DIRECTIVES.iter().map(|row| row.keyword).collect();
        assert_eq!(keywords.len(), DIRECTIVES.len());
    }

    #[test]
    fn defaults_come_from_the_rows_and_match_the_runtime() {
        let doc = parse(
            "partition P0 name=a system=false\n\
             process P0 name=p\n\
             sampling P0 name=s dir=destination size=8\n\
             link primary_latency=1\n\
             arq window=8 timeout=24\n",
        )
        .unwrap();
        assert!(!doc.partitions[0].is_system());
        assert_eq!(doc.partitions[0].pos_kind(), PosKind::RealTime);
        assert_eq!(doc.processes[0].1, ProcessAttributes::new("p"));
        assert_eq!(doc.sampling_ports[0].1.refresh_period, Ticks::MAX);
        let link = doc.link.unwrap();
        assert_eq!((link.failover_threshold, link.revert_ticks), (4, 400));
        assert_eq!(doc.arq, Some(ArqConfig::default()));
        // Defaults are left out of the emitted text.
        let emitted = emit(&doc);
        assert!(emitted.contains("\nlink primary_latency=1\n"), "{emitted}");
        assert!(emitted.contains("\narq window=8 timeout=24\n"), "{emitted}");
    }

    #[test]
    fn every_stored_schedule_change_action_is_emitted() {
        let text = "\
partition P0 name=A
schedule chi0 name=ops mtf=100
  require P0 cycle=100 duration=50
  window P0 offset=0 duration=50
  action P0 none
  action P7 warm_restart
";
        let doc = parse(text).unwrap();
        let emitted = emit(&doc);
        assert!(emitted.contains("  action P0 none\n"), "{emitted}");
        assert!(emitted.contains("  action P7 warm_restart\n"), "{emitted}");
        let reparsed = parse(&emitted).unwrap();
        assert_eq!(reparsed.schedules, doc.schedules);
        assert_eq!(emit(&reparsed), emitted);
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
        assert_eq!(doc.spans.get(&SpanKey::Node), Some(2));
        assert_eq!(doc.spans.get(&SpanKey::Route(4)), Some(4));
        assert_eq!(doc.spans.get(&SpanKey::Apid(202)), Some(6));
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
        assert_eq!(doc.spans.get(&SpanKey::Flow(0, 100, 4)), Some(2));
        assert_eq!(doc.spans.get(&SpanKey::Flow(0, 101, 2)), Some(3));
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
            ("flow", 1, "'flow' needs 'N<n>:<apid>'"),
            ("flow N0 -> N1", 1, "expected 'N<n>:<apid>', found 'N0'"),
            ("flow X0:100 -> N1", 1, "expected node id"),
            (
                "flow N0:9999 -> N1",
                1,
                "apid '9999' out of range (max 2046)",
            ),
            ("flow N0:100 N1", 1, "expected '->', found 'N1'"),
            ("flow N0:100 ->", 1, "'flow' needs 'N<n>'"),
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
            (
                "apid 2047 name=a kind=tc",
                1,
                "apid '2047' out of range (max 2046)",
            ),
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
        assert_eq!(doc.spans.get(&SpanKey::Link), Some(6));
        assert_eq!(doc.spans.get(&SpanKey::Arq), Some(7));

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
                "expected schedule id 'chi<n>', found 'nope'",
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
    fn channel_port_errors_name_the_offending_token() {
        let cases = [
            ("channel 0 from=P0: to=P1:x", "empty port name in 'P0:'"),
            (
                "channel 0 from=X0:a to=P1:x",
                "expected partition id 'P<n>', found 'X0'",
            ),
            (
                "channel 0 from=P0:a to=P1:x,Q2:y",
                "expected partition id 'P<n>', found 'Q2'",
            ),
            (
                "channel 0 from=P0:a to=remote:P1:",
                "empty port name in 'P1:'",
            ),
            (
                "channel 0 from=P0:a to=P1:x,nope",
                "expected 'P<n>:<port>', found 'nope'",
            ),
        ];
        for (text, message) in cases {
            let e = parse(text).unwrap_err();
            assert_eq!((e.line, e.message.as_str()), (1, message), "{text}");
        }
        let doc = parse("channel 7 from=P0:a to=P1:x,,remote:P2:y\n").unwrap();
        assert_eq!(
            emit(&doc),
            "# AIR system configuration\nchannel 7 from=P0:a to=P1:x,remote:P2:y\n"
        );
    }

    #[test]
    fn spans_point_at_declaration_lines() {
        // A line of every row of the grammar; lines 5, 20 and 21 declare
        // a `window`, a `process` and a port again, and the later line
        // wins.
        let text = "\
partition P0 name=AOCS
schedule chi0 name=ops mtf=100
  require P0 cycle=100 duration=50
  window P0 offset=0 duration=50
  window P0 offset=0 duration=40
  action P0 warm_restart
sampling P0 name=out dir=source size=8
queuing P0 name=tc dir=destination size=8 depth=2
process P0 name=w period=100
memory P0 base=0x1000 size=0x100 perm=rw
channel 3 from=P0:out to=P1:in
link primary_latency=3
arq window=4 timeout=20
node N1 name=RELAY
route N2 via=N3
apid 100 name=CMD kind=tc
flow N1:100 -> N2 deadline=500
hm deadline_missed level=process
handler P0 deadline_missed ignore
process P0 name=w period=50
queuing P0 name=out dir=source size=8 depth=2
";
        for row in DIRECTIVES {
            let first = |line: &str| line.split_whitespace().next() == Some(row.keyword);
            assert!(text.lines().any(first), "no '{}' line", row.keyword);
        }
        let doc = parse(text).unwrap();
        let (p0, chi0, missed) = (PartitionId(0), ScheduleId(0), ErrorId::DeadlineMissed);
        let expected = [
            (SpanKey::Partition(p0), 1),
            (SpanKey::Schedule(chi0), 2),
            (SpanKey::Requirement(chi0, p0), 3),
            (SpanKey::Window(chi0, p0, Ticks(0)), 5),
            (SpanKey::Action(chi0, p0), 6),
            (SpanKey::Port(p0, "tc"), 8),
            (SpanKey::Memory(p0, 0x1000), 10),
            (SpanKey::Channel(3), 11),
            (SpanKey::Link, 12),
            (SpanKey::Arq, 13),
            (SpanKey::Node, 14),
            (SpanKey::Route(2), 15),
            (SpanKey::Apid(100), 16),
            (SpanKey::Flow(1, 100, 2), 17),
            (SpanKey::Hm(missed), 18),
            (SpanKey::Handler(p0, missed), 19),
            (SpanKey::Process(p0, "w"), 20),
            (SpanKey::Port(p0, "out"), 21),
        ];
        for (key, line) in expected {
            assert_eq!(doc.spans.get(&key), Some(line), "{key:?}");
        }
        // Keys nothing declared, the empty name among them.
        for key in [
            SpanKey::Port(p0, ""),
            SpanKey::Port(p0, "in"),
            SpanKey::Process(PartitionId(1), "w"),
            SpanKey::Window(chi0, p0, Ticks(50)),
            SpanKey::Route(3),
        ] {
            assert_eq!(doc.spans.get(&key), None, "{key:?}");
        }
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
