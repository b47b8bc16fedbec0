//! Event trace of a simulation run: the observability layer every
//! experiment in EXPERIMENTS.md reads its numbers from.
//!
//! # The log encoding
//!
//! [`Trace::render_log`] writes one line per retained event,
//! `{seq:06} t={at} Name { field: value, … }`, and the fleet digests
//! those bytes. [`encode_line`] and [`encode_event`] are the
//! specification of that text: one `match` arm per [`TraceEvent`]
//! variant, integers through one digit writer, unit enums as their
//! variant names, ids as `PartitionId(n)`, options as `None`/`Some(…)`,
//! and no `core::fmt` on the way.
//! The bytes equal what derived `Debug` printed when the log was first
//! pinned, but derived `Debug` is not the specification and is kept for
//! test assertions only: a change to a field's `Debug` cannot move the
//! log, and a change to the log is a change to this encoder.

use std::fmt::Write as _;

use air_hm::ErrorId;
use air_hw::inject::FaultClass;
use air_hw::redundant::LinkRole;
use air_model::ids::{GlobalProcessId, ProcessId};
use air_model::{PartitionId, ScheduleChangeAction, ScheduleId, Ticks};
use air_ports::pus::AckStage;

use crate::text::Decimal;

/// How an HM decision was discharged — the terminal edge of every
/// report → classify → act chain, recorded so fault-injection campaigns
/// can count escalations without re-deriving them from restarts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryDisposition {
    /// The partition's error handler (or process-level fallback) contained
    /// the error at process scope.
    HandlerContained,
    /// The error was logged and deliberately ignored (log-N-then-act below
    /// threshold, or an `Ignore` table entry).
    Logged,
    /// Partition warm restart.
    PartitionWarmRestart,
    /// Partition cold restart.
    PartitionColdRestart,
    /// The partition was stopped (set idle).
    PartitionStopped,
    /// Module-level reset: every partition cold-restarted.
    ModuleReset,
    /// Module-level shutdown: the system halted.
    ModuleShutdown,
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceEvent {
    /// The dispatcher switched the active partition.
    PartitionSwitch {
        /// When.
        at: Ticks,
        /// Previous active partition (`None`: idle).
        from: Option<PartitionId>,
        /// New active partition (`None`: idle).
        to: Option<PartitionId>,
    },
    /// A pending schedule switch became effective (MTF boundary).
    ScheduleSwitch {
        /// When.
        at: Ticks,
        /// The newly effective schedule.
        to: ScheduleId,
    },
    /// A schedule-change action was applied to a partition at its first
    /// dispatch after a switch (Algorithm 2 line 9).
    ScheduleChangeActionApplied {
        /// When.
        at: Ticks,
        /// The affected partition.
        partition: PartitionId,
        /// The applied action.
        action: ScheduleChangeAction,
    },
    /// The PAL detected a process deadline violation (Algorithm 3 line 6).
    DeadlineMiss {
        /// Detection instant.
        at: Ticks,
        /// The violating process.
        process: GlobalProcessId,
        /// The missed absolute deadline `D′`.
        deadline: Ticks,
    },
    /// Health monitoring recorded an error report.
    HmReport {
        /// When.
        at: Ticks,
        /// The error.
        error: ErrorId,
        /// The partition it is contained in, if partition-scoped.
        partition: Option<PartitionId>,
    },
    /// A partition was restarted (HM action or schedule-change action).
    PartitionRestart {
        /// When.
        at: Ticks,
        /// The restarted partition.
        partition: PartitionId,
        /// Whether state was preserved (warm) or not (cold).
        warm: bool,
    },
    /// A partition was stopped (set idle).
    PartitionStop {
        /// When.
        at: Ticks,
        /// The stopped partition.
        partition: PartitionId,
    },
    /// A fault-injection campaign delivered a planned fault into the
    /// machine (marker event; the detection, if any, appears as a later
    /// [`TraceEvent::HmReport`]).
    FaultInjected {
        /// Injection instant.
        at: Ticks,
        /// The injected fault class.
        class: FaultClass,
        /// The partition the fault aims at, when partition-scoped.
        partition: Option<PartitionId>,
    },
    /// A health-monitoring decision was enforced.
    RecoveryApplied {
        /// When.
        at: Ticks,
        /// The error the decision answered.
        error: ErrorId,
        /// The partition the recovery applied to (`None`: module scope).
        partition: Option<PartitionId>,
        /// What was actually done.
        disposition: RecoveryDisposition,
    },
    /// The reliable transport retransmitted its in-flight window after a
    /// timeout round (loss evidence on the active link).
    FrameRetransmitted {
        /// When.
        at: Ticks,
        /// Sequence number of the window head.
        seq: u64,
        /// The head's retry count after this round.
        retries: u32,
    },
    /// The redundant link pair switched its active side — a threshold
    /// failover to the standby, or revertive switching back.
    LinkFailover {
        /// When.
        at: Ticks,
        /// The newly active link role.
        to: LinkRole,
    },
    /// The system entered degraded mode: link failover triggered the
    /// Sect. 4 mode-based switch to the degraded schedule.
    DegradedModeEntered {
        /// When.
        at: Ticks,
        /// The degraded schedule now requested.
        schedule: ScheduleId,
    },
    /// The system left degraded mode: the link recovered and the nominal
    /// schedule was requested again.
    DegradedModeExited {
        /// When.
        at: Ticks,
        /// The nominal schedule now requested.
        schedule: ScheduleId,
    },
    /// A mesh node relayed a space packet one hop toward its destination.
    PacketForwarded {
        /// When.
        at: Ticks,
        /// APID of the forwarded packet.
        apid: u16,
        /// Final destination node.
        dst: u16,
        /// The neighbour the packet left through.
        via: u16,
        /// Remaining hop budget after the decrement.
        ttl: u8,
    },
    /// A mesh node discarded a space packet instead of relaying it.
    PacketDropped {
        /// When.
        at: Ticks,
        /// APID of the dropped packet.
        apid: u16,
        /// Final destination node the packet never reached.
        dst: u16,
        /// Why it was dropped.
        reason: PacketDropReason,
    },
    /// A telecommand passed acceptance verification at its executor
    /// (PUS service 1 subservice 1).
    CommandAccepted {
        /// When.
        at: Ticks,
        /// APID of the command.
        apid: u16,
        /// Source sequence count of the command.
        seq: u16,
    },
    /// A telecommand began executing (PUS service 1 subservice 3).
    CommandStarted {
        /// When.
        at: Ticks,
        /// APID of the command.
        apid: u16,
        /// Source sequence count of the command.
        seq: u16,
    },
    /// A telecommand finished executing (PUS service 1 subservice 7).
    CommandCompleted {
        /// When.
        at: Ticks,
        /// APID of the command.
        apid: u16,
        /// Source sequence count of the command.
        seq: u16,
    },
    /// The commander received a verification report for one of its
    /// outstanding telecommands.
    CommandAckReceived {
        /// When.
        at: Ticks,
        /// APID of the acknowledged command.
        apid: u16,
        /// Source sequence count of the acknowledged command.
        seq: u16,
        /// The verification stage the report confirms.
        stage: AckStage,
    },
    /// A mesh node published an event report (PUS service 5) toward the
    /// ground node.
    TelemetryPublished {
        /// When.
        at: Ticks,
        /// APID the report was published on.
        apid: u16,
        /// The report's sequence count.
        seq: u16,
    },
    /// The ground node received an event report.
    TelemetryReceived {
        /// When.
        at: Ticks,
        /// APID of the received report.
        apid: u16,
        /// The report's sequence count.
        seq: u16,
        /// The node that published it.
        src: u16,
    },
    /// A mesh edge's health monitor crossed its loss threshold: the edge
    /// is declared dead and routing excludes it.
    MeshEdgeDown {
        /// When.
        at: Ticks,
        /// Low-index endpoint of the edge.
        a: u16,
        /// High-index endpoint of the edge.
        b: u16,
    },
    /// A dead mesh edge's probe streak crossed the recovery threshold:
    /// the edge is declared live again and routing re-includes it.
    MeshEdgeUp {
        /// When.
        at: Ticks,
        /// Low-index endpoint of the edge.
        a: u16,
        /// High-index endpoint of the edge.
        b: u16,
    },
    /// A packet queued toward a now-dead edge was pulled back at the
    /// reroute boundary and re-forwarded along a surviving path.
    PacketRerouted {
        /// When.
        at: Ticks,
        /// APID of the rerouted packet.
        apid: u16,
        /// Final destination node.
        dst: u16,
        /// The new neighbour the packet leaves through.
        via: u16,
    },
    /// A packet had no live route at the reroute boundary and was parked
    /// for redelivery when the topology heals.
    PacketParked {
        /// When.
        at: Ticks,
        /// APID of the parked packet.
        apid: u16,
        /// Final destination node it is still owed to.
        dst: u16,
    },
    /// The commander promoted a hot-spare node: the quorum-of-edges
    /// heuristic declared the primary partitioned from the mesh.
    NodeFailover {
        /// When.
        at: Ticks,
        /// The partitioned primary node.
        failed: u16,
        /// The promoted spare now receiving the command stream.
        spare: u16,
    },
    /// The partitioned primary regained edge quorum: the command stream
    /// returns to it (revertive failback).
    NodeFailback {
        /// When.
        at: Ticks,
        /// The restored primary node.
        restored: u16,
    },
}

/// Why a mesh node discarded a packet instead of forwarding it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketDropReason {
    /// The hop budget reached zero before the destination.
    TtlExpired,
    /// The mesh router has no hop toward the destination.
    NoRoute,
}

impl TraceEvent {
    /// The instant of the event.
    pub fn at(&self) -> Ticks {
        match self {
            TraceEvent::PartitionSwitch { at, .. }
            | TraceEvent::ScheduleSwitch { at, .. }
            | TraceEvent::ScheduleChangeActionApplied { at, .. }
            | TraceEvent::DeadlineMiss { at, .. }
            | TraceEvent::HmReport { at, .. }
            | TraceEvent::PartitionRestart { at, .. }
            | TraceEvent::PartitionStop { at, .. }
            | TraceEvent::FaultInjected { at, .. }
            | TraceEvent::RecoveryApplied { at, .. }
            | TraceEvent::FrameRetransmitted { at, .. }
            | TraceEvent::LinkFailover { at, .. }
            | TraceEvent::DegradedModeEntered { at, .. }
            | TraceEvent::DegradedModeExited { at, .. }
            | TraceEvent::PacketForwarded { at, .. }
            | TraceEvent::PacketDropped { at, .. }
            | TraceEvent::CommandAccepted { at, .. }
            | TraceEvent::CommandStarted { at, .. }
            | TraceEvent::CommandCompleted { at, .. }
            | TraceEvent::CommandAckReceived { at, .. }
            | TraceEvent::TelemetryPublished { at, .. }
            | TraceEvent::TelemetryReceived { at, .. }
            | TraceEvent::MeshEdgeDown { at, .. }
            | TraceEvent::MeshEdgeUp { at, .. }
            | TraceEvent::PacketRerouted { at, .. }
            | TraceEvent::PacketParked { at, .. }
            | TraceEvent::NodeFailover { at, .. }
            | TraceEvent::NodeFailback { at, .. } => *at,
        }
    }
}

/// Appends the log line of the event with sequence number `seq`:
/// `{seq:06} t={at} ` (the sequence number zero-padded to six digits,
/// wider past 999,999), then [`encode_event`], then a newline. This is
/// the line [`Trace::render_log_into`] writes for each retained event.
pub fn encode_line(out: &mut String, seq: u64, event: &TraceEvent) {
    let seq = Decimal::new(seq);
    for _ in seq.as_bytes().len()..6 {
        out.push('0');
    }
    out.push_str(seq.as_str());
    out.push_str(" t=");
    out.push_str(Decimal::new(event.at().as_u64()).as_str());
    out.push(' ');
    encode_event(out, event);
    out.push('\n');
}

/// Appends the text of `event`, `Name { field: value, … }` with the fields
/// in declaration order: the body of a log line, and the line VITRAL's AIR
/// and HM windows show. Names and keys are the variants' and fields' own,
/// so renaming one moves the log; `tests/trace_encoding.rs` pins a line
/// of every variant.
pub fn encode_event(out: &mut String, event: &TraceEvent) {
    // One row per variant: its name and fields, spelled as the log
    // spells them. The rows expand to one exhaustive `match`.
    macro_rules! rows {
        ($($name:ident { $($field:ident),+ }),+ $(,)?) => {
            match event {
                $(TraceEvent::$name { $($field),+ } => record(
                    out,
                    stringify!($name),
                    &[$((stringify!($field), $field)),+],
                ),)+
            }
        };
    }
    rows! {
        PartitionSwitch { at, from, to },
        ScheduleSwitch { at, to },
        ScheduleChangeActionApplied { at, partition, action },
        DeadlineMiss { at, process, deadline },
        HmReport { at, error, partition },
        PartitionRestart { at, partition, warm },
        PartitionStop { at, partition },
        FaultInjected { at, class, partition },
        RecoveryApplied { at, error, partition, disposition },
        FrameRetransmitted { at, seq, retries },
        LinkFailover { at, to },
        DegradedModeEntered { at, schedule },
        DegradedModeExited { at, schedule },
        PacketForwarded { at, apid, dst, via, ttl },
        PacketDropped { at, apid, dst, reason },
        CommandAccepted { at, apid, seq },
        CommandStarted { at, apid, seq },
        CommandCompleted { at, apid, seq },
        CommandAckReceived { at, apid, seq, stage },
        TelemetryPublished { at, apid, seq },
        TelemetryReceived { at, apid, seq, src },
        MeshEdgeDown { at, a, b },
        MeshEdgeUp { at, a, b },
        PacketRerouted { at, apid, dst, via },
        PacketParked { at, apid, dst },
        NodeFailover { at, failed, spare },
        NodeFailback { at, restored },
    }
}

/// Appends `Name { a: …, b: … }`.
fn record(out: &mut String, name: &str, fields: &[(&str, &dyn Field)]) {
    out.push_str(name);
    out.push_str(" { ");
    for (i, (field, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(field);
        out.push_str(": ");
        value.encode(out);
    }
    out.push_str(" }");
}

/// Appends `Name(n)`.
fn wrapped(out: &mut String, name: &str, n: u64) {
    out.push_str(name);
    out.push('(');
    out.push_str(Decimal::new(n).as_str());
    out.push(')');
}

/// A field value of an encoded event.
trait Field {
    fn encode(&self, out: &mut String);
}

macro_rules! unsigned_field {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn encode(&self, out: &mut String) {
                out.push_str(Decimal::new(u64::from(*self)).as_str());
            }
        }
    )*};
}

unsigned_field!(u8, u16, u32, u64);

impl Field for bool {
    fn encode(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl<T: Field> Field for Option<T> {
    fn encode(&self, out: &mut String) {
        match self {
            Some(value) => {
                out.push_str("Some(");
                value.encode(out);
                out.push(')');
            }
            None => out.push_str("None"),
        }
    }
}

impl Field for Ticks {
    fn encode(&self, out: &mut String) {
        wrapped(out, "Ticks", self.as_u64());
    }
}

impl Field for PartitionId {
    fn encode(&self, out: &mut String) {
        wrapped(out, "PartitionId", self.as_u32().into());
    }
}

impl Field for ProcessId {
    fn encode(&self, out: &mut String) {
        wrapped(out, "ProcessId", self.as_u32().into());
    }
}

impl Field for ScheduleId {
    fn encode(&self, out: &mut String) {
        wrapped(out, "ScheduleId", self.as_u32().into());
    }
}

impl Field for GlobalProcessId {
    fn encode(&self, out: &mut String) {
        record(
            out,
            "GlobalProcessId",
            &[("partition", &self.partition), ("process", &self.process)],
        );
    }
}

/// Unit enums, encoded as their variant names. A list ending in `..` is
/// a foreign `#[non_exhaustive]` enum: a variant added upstream is
/// spelled by its `Debug` until it is named here.
macro_rules! names {
    ($t:ident { $($v:ident),+ }) => {
        impl Field for $t {
            fn encode(&self, out: &mut String) {
                out.push_str(match self {
                    $($t::$v => stringify!($v),)+
                });
            }
        }
    };
    ($t:ident { $($v:ident),+, .. }) => {
        impl Field for $t {
            fn encode(&self, out: &mut String) {
                let name = match self {
                    $($t::$v => stringify!($v),)+
                    other => {
                        let _ = write!(out, "{other:?}");
                        return;
                    }
                };
                out.push_str(name);
            }
        }
    };
}

names!(RecoveryDisposition {
    HandlerContained,
    Logged,
    PartitionWarmRestart,
    PartitionColdRestart,
    PartitionStopped,
    ModuleReset,
    ModuleShutdown
});
names!(PacketDropReason {
    TtlExpired,
    NoRoute
});
names!(ScheduleChangeAction {
    None,
    WarmRestart,
    ColdRestart,
    Stop
});
names!(LinkRole { Primary, Secondary });
names!(AckStage {
    Acceptance,
    Start,
    Completion
});
names!(ErrorId {
    DeadlineMissed,
    ApplicationError,
    NumericError,
    IllegalRequest,
    StackOverflow,
    MemoryViolation,
    HardwareFault,
    PowerFail,
    ConfigError,
    LinkDegraded,
    ..
});
names!(FaultClass {
    MmuTamper,
    SpuriousTrap,
    LinkDrop,
    LinkBitFlip,
    ClockInterference,
    ProcessOverrun,
    LinkOutage,
    AckLoss,
    ..
});

/// The recorded event stream plus aggregate counters.
#[derive(Debug, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    /// Hard cap on retained events (long benches would otherwise grow
    /// unbounded); counters keep counting past it.
    retain_limit: usize,
    /// Total events ever recorded (including ones dropped by the cap).
    recorded: u64,
    partition_switches: u64,
    deadline_miss_count: u64,
    schedule_switch_count: u64,
    /// Run-length-encoded occupancy: who held the CPU, for how long.
    gantt: Vec<(Option<PartitionId>, u64)>,
}

impl Trace {
    /// Default retained-event cap.
    pub const DEFAULT_RETAIN: usize = 1 << 20;

    /// Creates an empty trace.
    pub fn new() -> Self {
        Self {
            retain_limit: Self::DEFAULT_RETAIN,
            ..Self::default()
        }
    }

    /// Records `event`.
    ///
    /// Events recorded within the same tick keep their emission order: the
    /// retained vector is append-only (the cap drops the *tail*, never
    /// reorders), so an event's index is a stable sequence number — equal
    /// runs produce byte-identical [`render_log`](Trace::render_log)
    /// output, which is what the fault-campaign differential tests diff.
    pub fn record(&mut self, event: TraceEvent) {
        match &event {
            TraceEvent::PartitionSwitch { .. } => self.partition_switches += 1,
            TraceEvent::DeadlineMiss { .. } => self.deadline_miss_count += 1,
            TraceEvent::ScheduleSwitch { .. } => self.schedule_switch_count += 1,
            _ => {}
        }
        self.recorded += 1;
        if self.events.len() < self.retain_limit {
            self.events.push(event);
        }
    }

    /// All retained events, in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Total events ever recorded, including any dropped by the retention
    /// cap (counter, not capped).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Retained events with their stable sequence numbers. The sequence
    /// number is assigned at recording time (it is the retained index), so
    /// two events at the same tick always compare in emission order.
    pub fn sequenced(&self) -> impl Iterator<Item = (u64, &TraceEvent)> {
        self.events.iter().enumerate().map(|(i, e)| (i as u64, e))
    }

    /// Renders the retained events as a canonical text log, one line per
    /// event: `seq tick event`. Byte-stable for equal runs (same seed ⇒
    /// identical bytes), which makes campaign determinism checkable with a
    /// plain string comparison.
    pub fn render_log(&self) -> String {
        let mut out = String::new();
        self.render_log_into(&mut out);
        out
    }

    /// Appends the canonical text log to `out` without clearing it —
    /// callers that render many runs (campaign repeat probes, fleet
    /// machines) clear and reuse one buffer instead of allocating a fresh
    /// `String` per run. Byte-for-byte identical to
    /// [`render_log`](Trace::render_log).
    pub fn render_log_into(&self, out: &mut String) {
        for (seq, event) in self.sequenced() {
            encode_line(out, seq, event);
        }
    }

    /// Retained deadline-miss events.
    pub fn deadline_misses(&self) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::DeadlineMiss { .. }))
            .collect()
    }

    /// Retained schedule-switch events.
    pub fn schedule_switches(&self) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::ScheduleSwitch { .. }))
            .collect()
    }

    /// Total partition context switches (counter, not capped).
    pub fn partition_switch_count(&self) -> u64 {
        self.partition_switches
    }

    /// Total deadline misses (counter, not capped).
    pub fn deadline_miss_count(&self) -> u64 {
        self.deadline_miss_count
    }

    /// Total schedule switches (counter, not capped).
    pub fn schedule_switch_count(&self) -> u64 {
        self.schedule_switch_count
    }

    /// Records one tick of CPU occupancy by `holder` (run-length encoded;
    /// the simulator calls this every tick).
    pub fn record_occupancy(&mut self, holder: Option<PartitionId>) {
        match self.gantt.last_mut() {
            Some((h, len)) if *h == holder => *len += 1,
            _ => self.gantt.push((holder, 1)),
        }
    }

    /// The run-length-encoded occupancy history:
    /// `(partition-or-idle, ticks)` segments in time order.
    pub fn occupancy(&self) -> &[(Option<PartitionId>, u64)] {
        &self.gantt
    }

    /// Renders the recorded occupancy as an ASCII Gantt strip, one
    /// character per `resolution` ticks (`0`–`9` for partitions by id,
    /// `.` for idle) — the *actual* execution counterpart of the planned
    /// Fig. 8 timelines, for eyeballing planned-vs-actual.
    ///
    /// # Panics
    ///
    /// Panics if `resolution` is zero.
    pub fn render_gantt(&self, resolution: u64) -> String {
        assert!(resolution > 0, "resolution must be positive");
        let mut out = String::new();
        let mut col_fill: u64 = 0;
        let mut col_char: Option<Option<PartitionId>> = None;
        for &(holder, len) in &self.gantt {
            let mut remaining = len;
            while remaining > 0 {
                if col_char.is_none() {
                    col_char = Some(holder);
                }
                let take = remaining.min(resolution - col_fill);
                col_fill += take;
                remaining -= take;
                if col_fill == resolution {
                    out.push(match col_char.take().flatten() {
                        Some(p) => char::from(b'0' + p.as_u32().min(9) as u8),
                        None => '.',
                    });
                    col_fill = 0;
                }
            }
        }
        out
    }

    /// Clears retained events and counters.
    pub fn reset(&mut self) {
        self.events.clear();
        self.recorded = 0;
        self.partition_switches = 0;
        self.deadline_miss_count = 0;
        self.schedule_switch_count = 0;
        self.gantt.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use air_model::ids::ProcessId;

    #[test]
    fn counters_and_filters() {
        let mut t = Trace::new();
        t.record(TraceEvent::PartitionSwitch {
            at: Ticks(1),
            from: None,
            to: Some(PartitionId(0)),
        });
        t.record(TraceEvent::DeadlineMiss {
            at: Ticks(2),
            process: GlobalProcessId::new(PartitionId(0), ProcessId(1)),
            deadline: Ticks(1),
        });
        t.record(TraceEvent::ScheduleSwitch {
            at: Ticks(3),
            to: ScheduleId(1),
        });
        assert_eq!(t.partition_switch_count(), 1);
        assert_eq!(t.deadline_miss_count(), 1);
        assert_eq!(t.schedule_switch_count(), 1);
        assert_eq!(t.deadline_misses().len(), 1);
        assert_eq!(t.schedule_switches().len(), 1);
        assert_eq!(t.events().len(), 3);
        assert_eq!(t.events()[1].at(), Ticks(2));
        t.reset();
        assert!(t.events().is_empty());
        assert_eq!(t.deadline_miss_count(), 0);
    }

    #[test]
    fn occupancy_rle_and_gantt() {
        let mut t = Trace::new();
        for _ in 0..10 {
            t.record_occupancy(Some(PartitionId(0)));
        }
        for _ in 0..5 {
            t.record_occupancy(None);
        }
        for _ in 0..5 {
            t.record_occupancy(Some(PartitionId(2)));
        }
        assert_eq!(
            t.occupancy(),
            &[
                (Some(PartitionId(0)), 10),
                (None, 5),
                (Some(PartitionId(2)), 5)
            ]
        );
        // Resolution 5: columns take the holder of their first tick.
        assert_eq!(t.render_gantt(5), "00.2");
        assert_eq!(t.render_gantt(1).len(), 20);
        t.reset();
        assert!(t.occupancy().is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn gantt_zero_resolution_panics() {
        Trace::new().render_gantt(0);
    }

    fn same_tick_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::HmReport {
                at: Ticks(7),
                error: ErrorId::DeadlineMissed,
                partition: Some(PartitionId(0)),
            },
            TraceEvent::RecoveryApplied {
                at: Ticks(7),
                error: ErrorId::DeadlineMissed,
                partition: Some(PartitionId(0)),
                disposition: RecoveryDisposition::HandlerContained,
            },
            TraceEvent::FaultInjected {
                at: Ticks(7),
                class: FaultClass::SpuriousTrap,
                partition: None,
            },
        ]
    }

    #[test]
    fn same_tick_events_keep_emission_order() {
        let mut t = Trace::new();
        for e in same_tick_events() {
            t.record(e);
        }
        let seqs: Vec<u64> = t.sequenced().map(|(s, _)| s).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        // Sorting by (tick, seq) must be the identity: the sequence number
        // is the tiebreaker that makes same-tick ordering total.
        let mut keyed: Vec<(u64, u64)> = t.sequenced().map(|(s, e)| (e.at().as_u64(), s)).collect();
        let original = keyed.clone();
        keyed.sort();
        assert_eq!(keyed, original);
        assert_eq!(t.recorded(), 3);
    }

    #[test]
    fn render_log_is_byte_stable_across_equal_runs() {
        let build = || {
            let mut t = Trace::new();
            for e in same_tick_events() {
                t.record(e);
            }
            t.render_log()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b);
        assert_eq!(a.lines().count(), 3);
        assert!(a.starts_with("000000 t=7 "), "{a}");
    }
}
