//! Deterministic fault-injection campaigns driving the Health Monitor.
//!
//! The paper's robustness argument (Sect. 2.4, Sect. 5) is that *any*
//! fault — spatial violation, spurious trap, link corruption, timing
//! interference, process overrun — surfaces through the existing
//! trap/interrupt paths, reaches AIR health monitoring, and is answered by
//! the configured recovery action *without perturbing the other
//! partitions*. This module turns that argument into an executable
//! experiment:
//!
//! * a fixed three-partition workload (control loop, telemetry producer,
//!   link-fed consumer) runs under a seeded [`FaultPlan`];
//! * each planned fault is realised through the machine's injection hooks
//!   (never by calling into the PMK's bookkeeping directly);
//! * every health-monitor log entry is attributed back to an injected
//!   fault, FIFO per fault class;
//! * the robustness invariants are checked into an
//!   [`air_model::verify::Report`]:
//!   1. **total detection** — every injected fault produces exactly one
//!      HM decision (no misses, no duplicates, no spurious extras);
//!   2. **isolation** — a fault aimed at partition A never perturbs
//!      partition B's dispatch windows or event stream (checked against an
//!      internally re-executed clean run);
//!   3. **log-N-then-act** — the deadline-miss policy escalates at exactly
//!      the configured occurrence count.
//!
//! Everything is a pure function of the plan seed: the runner executes the
//! faulted simulation twice and demands byte-identical trace logs.

use air_apex::ErrorHandlerTable;
use air_hm::{
    ErrorId, EscalatedProcessAction, HmLogEntry, HmTables, ModuleRecoveryAction, PartitionHmTable,
    ProcessRecoveryAction, SystemHmTable,
};
use air_hw::inject::{FaultClass, FaultEvent, FaultPlan};
use air_hw::link::LinkEndpoint;
use air_hw::machine::MachineConfig;
use air_hw::mmu::{AccessKind, Privilege};
use air_model::schedule::{PartitionRequirement, Schedule, TimeWindow};
use air_model::testkit;
use air_model::verify::{Report, Violation};
use air_model::{Deadline, Recurrence};
use air_model::{Partition, PartitionId, ProcessAttributes, ScheduleId, ScheduleSet, Ticks};
use air_ports::wire::Frame;
use air_ports::{ChannelConfig, Destination, PortAddr, QueuingPortConfig};

use crate::builder::{PartitionConfig, ProcessConfig, SystemBuilder};
use crate::scenario::Scenario;
use crate::system::AirSystem;
use crate::text::StackText;
use crate::trace::{RecoveryDisposition, TraceEvent};
use crate::workload::{FaultSwitch, FaultyPeriodic, QueuingConsumer, QueuingProducer};

/// Major time frame of the campaign workload.
pub const CAMPAIGN_MTF: u64 = 60;
/// Log-N-then-act threshold of the control partition's deadline policy.
pub const OVERRUN_THRESHOLD: u32 = 2;
/// Virtual address probed at each window start (inside the app-data
/// region every partition maps at `0x5000_0000`).
const PROBE_VA: u64 = 0x5000_0010;
/// The page the MMU-tamper fault revokes.
const TAMPER_PAGE: u64 = 0x5000_0000;
/// Period of the remote peer's echo traffic (link frames into P2).
const ECHO_PERIOD: u64 = 7;
/// Channel carrying P1's outbound telemetry to the remote node.
const TX_CHANNEL: u32 = 1;
/// Channel carrying the remote peer's echo frames into P2.
const ECHO_CHANNEL: u32 = 2;

/// The control partition (overrun victim).
const P_CTL: PartitionId = PartitionId(0);
/// The telemetry producer partition.
const P_TX: PartitionId = PartitionId(1);
/// The link-fed consumer partition.
const P_RX: PartitionId = PartitionId(2);

/// A convenient all-classes plan for `seed`: `per_class` faults of every
/// [`FaultClass`], interleaved round-robin from tick 70 with 40-tick slots
/// and seeded jitter.
pub fn standard_plan(seed: u64, per_class: usize) -> FaultPlan {
    FaultPlan::generate(seed, &FaultClass::ALL, per_class, 70, 40, 11)
}

/// The default simulated horizon for `plan`: four MTFs past the last
/// planned fault, so trailing detections (worst case: a process overrun
/// discovered two frames later) land inside the run.
pub fn default_horizon(plan: &FaultPlan) -> u64 {
    plan.horizon() + 4 * CAMPAIGN_MTF
}

/// One injected fault and what became of it.
#[derive(Debug, Clone)]
pub struct FaultRecord {
    /// The planned fault.
    pub event: FaultEvent,
    /// The partition the fault was aimed at (None: module scope).
    pub affected: Option<PartitionId>,
    /// When health monitoring logged the matching decision.
    pub detected_at: Option<Ticks>,
    /// Monitor entries beyond the first that matched this fault.
    pub extra_detections: u64,
}

impl FaultRecord {
    /// Detection latency in ticks, when detected.
    pub fn latency(&self) -> Option<u64> {
        self.detected_at
            .map(|t| t.as_u64().saturating_sub(self.event.at))
    }

    fn describe(&self) -> String {
        format!("{} (target {:#x})", self.event.class, self.event.target)
    }
}

/// Recovery dispositions observed during a campaign run, tallied from the
/// [`TraceEvent::RecoveryApplied`] stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EscalationTally {
    /// Errors contained by the partition's error handler or fallback.
    pub handler_contained: u64,
    /// Errors logged and deliberately ignored.
    pub logged: u64,
    /// Partition warm restarts.
    pub warm_restarts: u64,
    /// Partition cold restarts.
    pub cold_restarts: u64,
    /// Partitions stopped.
    pub partition_stops: u64,
    /// Module resets.
    pub module_resets: u64,
    /// Module shutdowns.
    pub module_shutdowns: u64,
}

/// The result of one campaign: per-fault records, the invariant report,
/// and the byte-stable trace logs the determinism check compares.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// The executed plan.
    pub plan: FaultPlan,
    /// One record per planned fault, in injection order.
    pub records: Vec<FaultRecord>,
    /// The robustness-invariant report (empty = all invariants hold).
    pub report: Report,
    /// Canonical trace log of the faulted run.
    pub trace_log: String,
    /// Canonical trace log of the clean (no-fault) baseline run.
    pub clean_trace_log: String,
    /// Trace events of the faulted run (for differential restriction via
    /// [`air_model::testkit::isolation_divergence`] and [`event_owner`]).
    pub events: Vec<TraceEvent>,
    /// Trace events of the clean baseline run.
    pub clean_events: Vec<TraceEvent>,
    /// Whether re-executing the same plan reproduced `trace_log` byte for
    /// byte.
    pub deterministic: bool,
    /// Recovery dispositions observed in the faulted run.
    pub escalations: EscalationTally,
    /// Health-monitor log entries recorded in the faulted run.
    pub hm_entries: usize,
}

impl CampaignOutcome {
    /// Number of faults injected.
    pub fn injected(&self) -> usize {
        self.records.len()
    }

    /// Number of faults detected by health monitoring.
    pub fn detected(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.detected_at.is_some())
            .count()
    }

    /// Detection latencies (ticks) of the detected faults.
    pub fn latencies(&self) -> Vec<u64> {
        self.records
            .iter()
            .filter_map(FaultRecord::latency)
            .collect()
    }

    /// Whether every robustness invariant held and the run reproduced.
    pub fn is_ok(&self) -> bool {
        self.report.is_ok() && self.deterministic
    }
}

/// The partition a trace event belongs to, for isolation restriction
/// (`None`: module-scoped or bookkeeping events owned by no partition).
pub fn event_owner(event: &TraceEvent) -> Option<PartitionId> {
    match event {
        TraceEvent::PartitionSwitch { to, .. } => *to,
        TraceEvent::ScheduleSwitch { .. }
        | TraceEvent::FaultInjected { .. }
        | TraceEvent::FrameRetransmitted { .. }
        | TraceEvent::LinkFailover { .. }
        | TraceEvent::DegradedModeEntered { .. }
        | TraceEvent::DegradedModeExited { .. }
        // Mesh-layer events are owned by protocol nodes, not partitions.
        | TraceEvent::PacketForwarded { .. }
        | TraceEvent::PacketDropped { .. }
        | TraceEvent::CommandAccepted { .. }
        | TraceEvent::CommandStarted { .. }
        | TraceEvent::CommandCompleted { .. }
        | TraceEvent::CommandAckReceived { .. }
        | TraceEvent::TelemetryPublished { .. }
        | TraceEvent::TelemetryReceived { .. }
        | TraceEvent::MeshEdgeDown { .. }
        | TraceEvent::MeshEdgeUp { .. }
        | TraceEvent::PacketRerouted { .. }
        | TraceEvent::PacketParked { .. }
        | TraceEvent::NodeFailover { .. }
        | TraceEvent::NodeFailback { .. } => None,
        TraceEvent::ScheduleChangeActionApplied { partition, .. }
        | TraceEvent::PartitionRestart { partition, .. }
        | TraceEvent::PartitionStop { partition, .. } => Some(*partition),
        TraceEvent::DeadlineMiss { process, .. } => Some(process.partition),
        TraceEvent::HmReport { partition, .. }
        | TraceEvent::RecoveryApplied { partition, .. } => *partition,
    }
}

/// Runs a [`FaultPlan`] against the campaign workload and checks the
/// robustness invariants.
///
/// # Examples
///
/// ```
/// use air_core::campaign::{standard_plan, CampaignRunner};
///
/// let outcome = CampaignRunner::new(standard_plan(7, 1)).run();
/// assert_eq!(outcome.detected(), outcome.injected());
/// assert!(outcome.is_ok(), "{}", outcome.report);
/// ```
#[derive(Debug, Clone)]
pub struct CampaignRunner {
    plan: FaultPlan,
    horizon: u64,
}

impl CampaignRunner {
    /// A runner for `plan` over the default horizon ([`default_horizon`]).
    pub fn new(plan: FaultPlan) -> Self {
        let horizon = default_horizon(&plan);
        Self { plan, horizon }
    }

    /// Overrides the simulated horizon (ticks).
    #[must_use]
    pub fn with_horizon(mut self, horizon: u64) -> Self {
        self.horizon = horizon;
        self
    }

    /// Executes the campaign: the faulted run (twice, for the determinism
    /// check), the clean baseline, detection attribution and the
    /// invariant checks.
    pub fn run(&self) -> CampaignOutcome {
        let faulted = execute(&self.plan, self.horizon);
        // The repeat run only exists to prove byte-identical re-execution.
        let repeat = execute(&self.plan, self.horizon);
        let clean = execute(&FaultPlan::empty(), self.horizon);
        analyse(&self.plan, faulted, &repeat.trace_log, clean)
    }
}

/// Everything observed in one simulation run.
struct RunArtifacts {
    records: Vec<FaultRecord>,
    events: Vec<TraceEvent>,
    occupancy: Vec<(Option<PartitionId>, u64)>,
    trace_log: String,
    hm_entries: usize,
    deadline_misses: u64,
    spurious: Vec<(Ticks, String)>,
}

/// One incrementally-steppable campaign execution: the standard
/// three-partition workload under a seeded [`FaultPlan`], advanced one
/// tick at a time.
///
/// [`CampaignRunner`] drives three of these back to back (faulted,
/// repeat, clean); the fleet executor (`air-fleet`) instead streams
/// thousands of them through its workers, each of which builds one, runs
/// it to its horizon and drops it before claiming the next. All state
/// — machine, PMK, trace, fault cursor, detection FIFO — is owned by the
/// instance, so two sims never share anything and per-machine trace logs
/// are a pure function of the plan, independent of scheduling order.
///
/// # Examples
///
/// ```
/// use air_core::campaign::{default_horizon, standard_plan, CampaignSim};
/// use air_core::Scenario;
///
/// let plan = standard_plan(7, 1);
/// let mut sim = CampaignSim::build(&plan);
/// sim.run_to_horizon();
/// assert_eq!(sim.now(), default_horizon(&plan));
/// assert_eq!(sim.detected(), plan.len());
/// ```
pub struct CampaignSim {
    system: AirSystem,
    overrun: FaultSwitch,
    records: Vec<FaultRecord>,
    spurious: Vec<(Ticks, String)>,
    next_fault: usize,
    echo_seq: u64,
    /// [`HmLog::total_recorded`](air_hm::HmLog::total_recorded) at the
    /// last attribution pass.
    hm_cursor: u64,
    prev_active: Option<PartitionId>,
    horizon: u64,
}

impl CampaignSim {
    /// A sim for `plan` on machine profile `config`, over
    /// [`default_horizon`]. The workload configuration passes the full
    /// build gate (lint + bounded exploration).
    pub fn with_config(plan: &FaultPlan, config: &MachineConfig) -> Self {
        Self::assemble(plan, config, true)
    }

    /// The fleet fast path: builds the (fixed, statically valid) campaign
    /// workload without re-running the static-analysis gate. The
    /// configuration is identical for every instance, so a fleet validates
    /// it once ([`CampaignSim::with_config`]) and then constructs
    /// thousands of instances through this constructor.
    pub fn new_unchecked(plan: &FaultPlan, config: &MachineConfig) -> Self {
        Self::assemble(plan, config, false)
    }

    fn assemble(plan: &FaultPlan, config: &MachineConfig, checked: bool) -> Self {
        let (system, overrun) = build_campaign_system(config, checked);
        let records = plan
            .events()
            .iter()
            .map(|&event| FaultRecord {
                event,
                affected: None,
                detected_at: None,
                extra_detections: 0,
            })
            .collect();
        let prev_active = system.active_partition();
        Self {
            system,
            overrun,
            records,
            spurious: Vec::new(),
            next_fault: 0,
            echo_seq: 0,
            hm_cursor: 0,
            prev_active,
            horizon: default_horizon(plan),
        }
    }

    /// Overrides the simulated horizon (ticks).
    #[must_use]
    pub fn with_horizon(mut self, horizon: u64) -> Self {
        self.horizon = horizon;
        self
    }

    // Inherent forwarders to the `Scenario` methods, so callers step a
    // sim without importing the trait.

    /// [`Scenario::horizon`].
    pub fn horizon(&self) -> u64 {
        Scenario::horizon(self)
    }

    /// [`Scenario::is_done`].
    pub fn is_done(&self) -> bool {
        Scenario::is_done(self)
    }

    /// [`Scenario::step`].
    pub fn step(&mut self) {
        Scenario::step(self);
    }

    /// [`Scenario::run_for`].
    pub fn run_for(&mut self, n: u64) {
        Scenario::run_for(self, n);
    }

    /// [`Scenario::render_trace_into`].
    pub fn render_trace_into(&self, out: &mut String) {
        Scenario::render_trace_into(self, out);
    }

    /// Per-fault records, in injection order.
    pub fn records(&self) -> &[FaultRecord] {
        &self.records
    }

    /// Number of faults detected by health monitoring so far.
    pub fn detected(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.detected_at.is_some())
            .count()
    }

    /// The underlying system (trace, health-monitor log, consoles).
    pub fn system(&self) -> &AirSystem {
        &self.system
    }

    fn into_artifacts(self) -> RunArtifacts {
        RunArtifacts {
            records: self.records,
            events: self.system.trace().events().to_vec(),
            occupancy: self.system.trace().occupancy().to_vec(),
            trace_log: self.system.trace().render_log(),
            hm_entries: self.system.hm().log().total_recorded() as usize,
            deadline_misses: self.system.trace().deadline_miss_count(),
            spurious: self.spurious,
        }
    }
}

/// As a [`Scenario`], a campaign runs on the compact fleet profile
/// ([`MachineConfig::compact`]).
impl Scenario for CampaignSim {
    type Plan = FaultPlan;

    fn build(plan: &FaultPlan) -> Self {
        Self::with_config(plan, &MachineConfig::compact())
    }

    fn build_unchecked(plan: &FaultPlan) -> Self {
        Self::new_unchecked(plan, &MachineConfig::compact())
    }

    fn planned_horizon(plan: &FaultPlan) -> u64 {
        default_horizon(plan)
    }

    fn now(&self) -> u64 {
        self.system.now().as_u64()
    }

    fn horizon(&self) -> u64 {
        self.horizon
    }

    /// Due echo traffic and planned faults strike first, the system
    /// executes the tick, the window-start probe touches application
    /// data, and new health-monitor entries are attributed to pending
    /// fault records.
    fn step(&mut self) {
        if self.is_done() {
            return;
        }
        let now = self.system.now().as_u64();
        // The remote peer's periodic echo traffic (sequenced link frames
        // into P2) — identical in faulted and clean runs.
        if now.is_multiple_of(ECHO_PERIOD) {
            self.echo_seq += 1;
            send_echo(&mut self.system, self.echo_seq, now);
        }
        // Faults planned for this tick strike before the tick executes.
        while self.next_fault < self.records.len() && self.records[self.next_fault].event.at == now
        {
            realise(
                &mut self.system,
                &mut self.records[self.next_fault],
                &self.overrun,
                &mut self.echo_seq,
            );
            self.next_fault += 1;
        }
        self.system.step();
        // Window-start probe: each partition touches its application data
        // once per dispatch, so a revoked mapping faults (and is detected)
        // at the victim's next window.
        let active = self.system.active_partition();
        if active != self.prev_active {
            if let Some(m) = active {
                let _ = self
                    .system
                    .access_memory(m, PROBE_VA, AccessKind::Read, Privilege::User);
            }
            self.prev_active = active;
        }
        attribute_detections(
            &self.system,
            &mut self.records,
            &mut self.hm_cursor,
            &self.overrun,
            &mut self.spurious,
        );
    }

    /// The canonical trace log (byte-stable; see
    /// [`Trace::render_log`](crate::trace::Trace::render_log)).
    fn render_trace_into(&self, out: &mut String) {
        self.system.trace().render_log_into(out);
    }
}

fn execute(plan: &FaultPlan, horizon: u64) -> RunArtifacts {
    let mut sim = CampaignSim::with_config(plan, &MachineConfig::default()).with_horizon(horizon);
    sim.run_to_horizon();
    sim.into_artifacts()
}

/// Builds the fixed campaign workload: three partitions over a 60-tick
/// MTF — `ctl` (faultable control loop with a log-2-then-restart deadline
/// policy), `tx` (telemetry producer on a remote channel), `rx` (consumer
/// fed by the remote peer's echo frames).
fn build_campaign_system(config: &MachineConfig, checked: bool) -> (AirSystem, FaultSwitch) {
    let window = CAMPAIGN_MTF / 3;
    let schedule = Schedule::new(
        ScheduleId(0),
        "campaign",
        Ticks(CAMPAIGN_MTF),
        vec![
            PartitionRequirement::new(P_CTL, Ticks(CAMPAIGN_MTF), Ticks(window)),
            PartitionRequirement::new(P_TX, Ticks(CAMPAIGN_MTF), Ticks(window)),
            PartitionRequirement::new(P_RX, Ticks(CAMPAIGN_MTF), Ticks(window)),
        ],
        vec![
            TimeWindow::new(P_CTL, Ticks(0), Ticks(window)),
            TimeWindow::new(P_TX, Ticks(window), Ticks(window)),
            TimeWindow::new(P_RX, Ticks(2 * window), Ticks(window)),
        ],
    );
    // Module-level faults (spurious traps, link-frame problems) are logged
    // and contained — a campaign must never let the default module Reset
    // wipe every partition over a single corrupt frame.
    let mut tables = HmTables::standard();
    tables.system = SystemHmTable::standard().with_module_action(ModuleRecoveryAction::Ignore);
    for m in [P_CTL, P_TX, P_RX] {
        tables = tables.with_partition_table(m, PartitionHmTable::standard());
    }

    let overrun = FaultSwitch::new();
    let builder = SystemBuilder::new(ScheduleSet::new(vec![schedule]))
        .with_hm_tables(tables)
        .with_partition(
            PartitionConfig::new(Partition::new(P_CTL, "ctl"))
                .with_error_handler(ErrorHandlerTable::new().with_action(
                    ErrorId::DeadlineMissed,
                    ProcessRecoveryAction::LogThenAct {
                        threshold: OVERRUN_THRESHOLD,
                        then: EscalatedProcessAction::RestartPartition,
                    },
                ))
                .with_process(ProcessConfig::new(
                    ProcessAttributes::new("ctl-loop")
                        .with_recurrence(Recurrence::Periodic(Ticks(CAMPAIGN_MTF)))
                        .with_deadline(Deadline::relative(Ticks(2 * window))),
                    FaultyPeriodic::new(5, overrun.clone()),
                )),
        )
        .with_partition(
            PartitionConfig::new(Partition::new(P_TX, "tx"))
                .with_queuing_port(QueuingPortConfig::source("tx", 64, 8))
                .with_queuing_port(QueuingPortConfig::source("echo-feed", 64, 1))
                .with_process(ProcessConfig::new(
                    ProcessAttributes::new("telemetry")
                        .with_recurrence(Recurrence::Periodic(Ticks(CAMPAIGN_MTF)))
                        .with_deadline(Deadline::relative(Ticks(CAMPAIGN_MTF))),
                    QueuingProducer::new("tx"),
                )),
        )
        .with_partition(
            PartitionConfig::new(Partition::new(P_RX, "rx"))
                .with_queuing_port(QueuingPortConfig::destination("echo-rx", 64, 64))
                .with_process(ProcessConfig::new(
                    ProcessAttributes::new("echo-drain")
                        .with_recurrence(Recurrence::Periodic(Ticks(CAMPAIGN_MTF)))
                        .with_deadline(Deadline::relative(Ticks(CAMPAIGN_MTF))),
                    QueuingConsumer::new("echo-rx"),
                )),
        )
        .with_channel(ChannelConfig {
            id: TX_CHANNEL,
            source: PortAddr::new(P_TX, "tx"),
            destinations: vec![Destination::Remote {
                addr: PortAddr::new(P_TX, "gs-rx"),
            }],
        })
        .with_channel(ChannelConfig {
            id: ECHO_CHANNEL,
            source: PortAddr::new(P_TX, "echo-feed"),
            destinations: vec![Destination::Local(PortAddr::new(P_RX, "echo-rx"))],
        })
        .with_machine_config(config.clone());
    let system = if checked {
        builder
            .build()
            .expect("the campaign workload is statically valid")
    } else {
        // The workload is fixed and was validated on a checked build of the
        // same configuration; skipping the gate here only skips re-proving
        // a proof that cannot change between instances.
        builder
            .build_unchecked()
            .expect("the campaign workload is statically valid")
    };
    (system, overrun)
}

/// Sends one sequenced echo frame, payload `echo-<seq>`, from the remote
/// peer towards P2. The payload is spelled on the stack and encoded
/// straight into the frame, so the link bytes are its one allocation.
fn send_echo(system: &mut AirSystem, seq: u64, now: u64) {
    let mut payload = StackText::<25>::new();
    payload.push(b"echo-").push_u64(seq);
    let bytes = Frame::encode_parts(ECHO_CHANNEL, Ticks(now), seq, payload.as_bytes());
    system.machine_mut().link.send(LinkEndpoint::B, now, bytes);
}

/// Realises one planned fault through the injection hooks and records the
/// injection marker in the trace.
fn realise(
    system: &mut AirSystem,
    record: &mut FaultRecord,
    overrun: &FaultSwitch,
    echo_seq: &mut u64,
) {
    let now = system.now();
    let target = record.event.target;
    match record.event.class {
        FaultClass::MmuTamper => {
            // Revoke the app-data page of P1 or P2 (never the overrun
            // victim P0, so deadline misses stay attributable). Detected
            // by the victim's window-start probe as a memory violation.
            let victim = if target.is_multiple_of(2) { P_TX } else { P_RX };
            record.affected = Some(victim);
            let _ = system.spatial_mut().revoke_page(victim, TAMPER_PAGE);
        }
        FaultClass::SpuriousTrap => {
            system
                .machine_mut()
                .inject_spurious_trap((target % 8) as u8);
        }
        FaultClass::LinkDrop => {
            // Send one extra sequenced echo frame and destroy it in
            // flight: the receiver sees the jump at the next echo.
            *echo_seq += 1;
            send_echo(system, *echo_seq, now.as_u64());
            let _ = system.machine_mut().inject_link_drop();
        }
        FaultClass::LinkBitFlip => {
            // Corrupt an extra (unsequenced) frame so the checksum trips
            // without disturbing the sequence stream. Mask 0xFF is the one
            // value Fletcher-16 cannot see (0x00 ↔ 0xFF alias); keep it
            // odd and below 0x80 so corruption is always detected.
            let junk = Frame::new(ECHO_CHANNEL, now, &b"flip-fodder"[..]).encode();
            system
                .machine_mut()
                .link
                .send(LinkEndpoint::B, now.as_u64(), junk);
            let mask = ((target >> 8) as u8 & 0x7F) | 0x01;
            let _ = system
                .machine_mut()
                .inject_link_tamper(target as usize, mask);
        }
        FaultClass::ClockInterference => {
            record.affected = system.active_partition();
            let _ = system.machine_mut().inject_clock_mask_attempt();
        }
        FaultClass::ProcessOverrun => {
            record.affected = Some(P_CTL);
            overrun.activate();
        }
        // `FaultClass` is non-exhaustive: an unknown class is left
        // unrealised and will surface as a FaultUndetected violation,
        // which is the honest answer for a plan this harness cannot run.
        _ => {}
    }
    system.trace_mut().record(TraceEvent::FaultInjected {
        at: now,
        class: record.event.class,
        partition: record.affected,
    });
}

/// Maps a health-monitor entry to the fault class that explains it.
fn classify_entry(entry: &HmLogEntry) -> Option<FaultClass> {
    match entry.error {
        ErrorId::MemoryViolation => Some(FaultClass::MmuTamper),
        ErrorId::HardwareFault if entry.detail.starts_with("spurious trap") => {
            Some(FaultClass::SpuriousTrap)
        }
        ErrorId::HardwareFault if entry.detail.contains("sequence gap") => {
            Some(FaultClass::LinkDrop)
        }
        ErrorId::HardwareFault if entry.detail.contains("corrupt link frame") => {
            Some(FaultClass::LinkBitFlip)
        }
        ErrorId::IllegalRequest if entry.detail.contains("clock-tick") => {
            Some(FaultClass::ClockInterference)
        }
        ErrorId::DeadlineMissed => Some(FaultClass::ProcessOverrun),
        _ => None,
    }
}

/// Attributes new health-monitor entries to pending fault records, FIFO
/// per fault class. Unexplained entries are collected as spurious.
fn attribute_detections(
    system: &AirSystem,
    records: &mut [FaultRecord],
    hm_cursor: &mut u64,
    overrun: &FaultSwitch,
    spurious: &mut Vec<(Ticks, String)>,
) {
    let log = system.hm().log();
    for entry in log.entries_since(*hm_cursor) {
        let Some(class) = classify_entry(entry) else {
            spurious.push((entry.time, format!("{entry}")));
            continue;
        };
        // A partition-scoped fault class must also match the victim.
        let source_matches = |r: &FaultRecord| match class {
            FaultClass::MmuTamper | FaultClass::ProcessOverrun => {
                entry.source.partition() == r.affected
            }
            _ => true,
        };
        let pending = records.iter_mut().find(|r| {
            r.event.class == class
                && r.detected_at.is_none()
                && r.event.at < entry.time.as_u64()
                && source_matches(r)
        });
        if let Some(record) = pending {
            record.detected_at = Some(entry.time);
            if class == FaultClass::ProcessOverrun {
                // The overrun was observed; let the control loop recover
                // so the next overrun fault starts from a clean slate.
                overrun.deactivate();
            }
            continue;
        }
        // No pending record: either a duplicate decision for an
        // already-detected fault, or fully spurious.
        let matched = records
            .iter_mut()
            .rev()
            .find(|r| r.event.class == class && r.detected_at.is_some() && source_matches(r));
        match matched {
            Some(record) => record.extra_detections += 1,
            None => spurious.push((entry.time, format!("{entry}"))),
        }
    }
    *hm_cursor = log.total_recorded();
}

/// Checks the robustness invariants and assembles the outcome.
fn analyse(
    plan: &FaultPlan,
    faulted: RunArtifacts,
    repeat_log: &str,
    clean: RunArtifacts,
) -> CampaignOutcome {
    let mut report = Report::new();

    // Invariant 1: every injected fault produces exactly one HM decision.
    for record in &faulted.records {
        match record.detected_at {
            None => report.record(Violation::FaultUndetected {
                at: Ticks(record.event.at),
                fault: record.describe(),
            }),
            Some(_) if record.extra_detections > 0 => {
                report.record(Violation::DuplicateDetection {
                    at: Ticks(record.event.at),
                    fault: record.describe(),
                    count: 1 + record.extra_detections,
                });
            }
            Some(_) => {}
        }
    }
    for (at, detail) in &faulted.spurious {
        report.record(Violation::SpuriousDetection {
            at: *at,
            detail: detail.clone(),
        });
    }

    // Invariant 2: isolation. Dispatch windows are schedule-driven, so the
    // occupancy history must be identical to the clean run's; partitions no
    // fault was aimed at must also see an identical event stream.
    if faulted.occupancy != clean.occupancy {
        let partition = first_occupancy_divergence(&clean.occupancy, &faulted.occupancy);
        report.record(Violation::IsolationBreach {
            partition,
            detail: "dispatch-window occupancy diverges from the clean run".into(),
        });
    }
    let affected: Vec<PartitionId> = faulted.records.iter().filter_map(|r| r.affected).collect();
    for m in [P_CTL, P_TX, P_RX] {
        if affected.contains(&m) {
            continue;
        }
        if let Some(detail) =
            testkit::isolation_divergence(&clean.events, &faulted.events, m, event_owner)
        {
            report.record(Violation::IsolationBreach {
                partition: m,
                detail,
            });
        }
    }

    // Invariant 3: log-N-then-act fires at exactly the configured count —
    // every deadline miss past the threshold escalates to a warm restart,
    // none before.
    let escalations = tally_escalations(&faulted.events);
    let deadline_escalations = faulted
        .events
        .iter()
        .filter(|e| {
            matches!(
                e,
                TraceEvent::RecoveryApplied {
                    error: ErrorId::DeadlineMissed,
                    disposition: RecoveryDisposition::PartitionWarmRestart,
                    ..
                }
            )
        })
        .count() as u64;
    let expected = faulted
        .deadline_misses
        .saturating_sub(u64::from(OVERRUN_THRESHOLD));
    if deadline_escalations != expected {
        report.record(Violation::EscalationMiscount {
            detail: format!(
                "{} deadline misses with threshold {} must escalate {} times, saw {}",
                faulted.deadline_misses, OVERRUN_THRESHOLD, expected, deadline_escalations
            ),
        });
    }

    CampaignOutcome {
        plan: plan.clone(),
        deterministic: faulted.trace_log == repeat_log,
        records: faulted.records,
        report,
        trace_log: faulted.trace_log,
        clean_trace_log: clean.trace_log,
        events: faulted.events,
        clean_events: clean.events,
        escalations,
        hm_entries: faulted.hm_entries,
    }
}

/// The partition at the first point where two occupancy histories diverge.
fn first_occupancy_divergence(
    clean: &[(Option<PartitionId>, u64)],
    faulted: &[(Option<PartitionId>, u64)],
) -> PartitionId {
    for (c, f) in clean.iter().zip(faulted.iter()) {
        if c != f {
            return f.0.or(c.0).unwrap_or(P_CTL);
        }
    }
    clean
        .len()
        .checked_sub(faulted.len())
        .and_then(|_| clean.last().and_then(|s| s.0))
        .unwrap_or(P_CTL)
}

fn tally_escalations(events: &[TraceEvent]) -> EscalationTally {
    let mut tally = EscalationTally::default();
    for event in events {
        let TraceEvent::RecoveryApplied { disposition, .. } = event else {
            continue;
        };
        match disposition {
            RecoveryDisposition::HandlerContained => tally.handler_contained += 1,
            RecoveryDisposition::Logged => tally.logged += 1,
            RecoveryDisposition::PartitionWarmRestart => tally.warm_restarts += 1,
            RecoveryDisposition::PartitionColdRestart => tally.cold_restarts += 1,
            RecoveryDisposition::PartitionStopped => tally.partition_stops += 1,
            RecoveryDisposition::ModuleReset => tally.module_resets += 1,
            RecoveryDisposition::ModuleShutdown => tally.module_shutdowns += 1,
        }
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_campaign_has_no_findings() {
        let outcome = CampaignRunner::new(FaultPlan::empty())
            .with_horizon(6 * CAMPAIGN_MTF)
            .run();
        assert_eq!(outcome.injected(), 0);
        assert!(outcome.is_ok(), "{}", outcome.report);
        assert_eq!(outcome.hm_entries, 0, "clean run must stay silent");
        assert_eq!(outcome.trace_log, outcome.clean_trace_log);
    }

    #[test]
    fn every_fault_class_is_detected_exactly_once() {
        let outcome = CampaignRunner::new(standard_plan(3, 1)).run();
        assert_eq!(outcome.injected(), FaultClass::ALL.len());
        assert_eq!(outcome.detected(), outcome.injected(), "{}", outcome.report);
        assert!(outcome.is_ok(), "{}", outcome.report);
        for record in &outcome.records {
            assert_eq!(record.extra_detections, 0, "{}", record.describe());
            assert!(record.latency().unwrap() > 0);
        }
    }

    #[test]
    fn same_seed_reproduces_byte_identical_traces() {
        let a = CampaignRunner::new(standard_plan(11, 1)).run();
        let b = CampaignRunner::new(standard_plan(11, 1)).run();
        assert!(a.deterministic && b.deterministic);
        assert_eq!(a.trace_log, b.trace_log);
        assert_ne!(a.trace_log, a.clean_trace_log, "faults must leave a mark");
    }

    #[test]
    fn overruns_escalate_past_the_threshold() {
        // Three overruns against threshold 2: exactly one warm restart.
        let events: Vec<FaultEvent> = (0..3)
            .map(|i| FaultEvent {
                at: 70 + i * 200,
                class: FaultClass::ProcessOverrun,
                target: i,
            })
            .collect();
        let outcome = CampaignRunner::new(FaultPlan::from_events(5, events)).run();
        assert!(outcome.is_ok(), "{}", outcome.report);
        assert_eq!(outcome.escalations.warm_restarts, 1);
        assert_eq!(outcome.detected(), 3);
    }
}
