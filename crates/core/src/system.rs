//! The assembled AIR system and its tick loop.

use std::collections::HashMap;

use air_apex::{ApexPartition, ErrorHandlerTable, RecoveryEscalation};
use air_hm::{
    ErrorId, ErrorSource, HealthMonitor, HmDecision, ModuleRecoveryAction, PartitionRecoveryAction,
};
use air_hw::console::KeyEvent;
use air_hw::interrupt::InterruptLine;
use air_hw::redundant::LinkRole;
use air_hw::Machine;
use air_model::ids::{GlobalProcessId, ProcessId};
use air_model::partition::{OperatingMode, StartCondition};
use air_model::{PartitionId, ScheduleChangeAction, ScheduleId, ScheduleSet, Ticks};
use air_pmk::{
    LinkTransportEvent, PartitionDispatcher, PartitionScheduler, PmkIpc, SpatialManager,
};
use air_vitral::Vitral;

use crate::trace::{encode_event, RecoveryDisposition, Trace, TraceEvent};
use crate::workload::{FaultSwitch, ProcessApi, ProcessBody};

/// Per-partition boot/restart recipe retained by the system: which
/// processes auto-start and which error handler to (re)install.
#[derive(Debug, Default, Clone)]
pub(crate) struct PartitionRuntime {
    pub(crate) auto_start: Vec<ProcessId>,
    pub(crate) error_handler: Option<ErrorHandlerTable>,
}

/// An action bound to a console key (the Fig. 9 keyboard interaction).
pub enum KeyAction {
    /// Request a module schedule switch (effective at the MTF boundary).
    SwitchSchedule(ScheduleId),
    /// Toggle a fault switch.
    ToggleFault(FaultSwitch),
}

impl std::fmt::Debug for KeyAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KeyAction::SwitchSchedule(id) => write!(f, "SwitchSchedule({id})"),
            KeyAction::ToggleFault(s) => write!(f, "ToggleFault(active={})", s.is_active()),
        }
    }
}

/// The complete, running AIR system.
///
/// Build one with [`crate::builder::SystemBuilder`]; drive it with
/// [`step`](AirSystem::step) / [`run_for`](AirSystem::run_for); observe it
/// through [`trace`](AirSystem::trace), the health-monitor log, per-
/// partition consoles and the optional VITRAL screen.
pub struct AirSystem {
    pub(crate) machine: Machine,
    pub(crate) scheduler: PartitionScheduler,
    pub(crate) dispatcher: PartitionDispatcher,
    pub(crate) spatial: SpatialManager,
    pub(crate) ipc: PmkIpc,
    pub(crate) hm: HealthMonitor,
    pub(crate) schedules: ScheduleSet,
    pub(crate) partitions: Vec<ApexPartition>,
    pub(crate) runtime: Vec<PartitionRuntime>,
    /// Process bodies by partition, then process
    /// (`bodies[m.as_usize()][pid.as_usize()]`).
    pub(crate) bodies: Vec<Vec<Box<dyn ProcessBody>>>,
    pub(crate) consoles: Vec<String>,
    key_actions: HashMap<char, KeyAction>,
    trace: Trace,
    vitral: Option<Vitral>,
    /// Trace events already mirrored into the VITRAL status windows.
    vitral_synced: usize,
    halted: bool,
    /// Whether the initial partition (tick-0 heir) was dispatched.
    booted: bool,
    /// Wrapped guest clock-mask attempts already reported to HM.
    wrapped_clock_seen: u64,
    /// Schedule to switch to when the reliable transport fails over to the
    /// secondary link (the Sect. 4 mode-based degraded schedule).
    pub(crate) degraded_schedule: Option<ScheduleId>,
    /// Schedule that was current when degraded mode was entered, restored
    /// on link recovery.
    pub(crate) nominal_schedule: Option<ScheduleId>,
    /// Whether the system is currently in link-degraded mode.
    degraded_mode: bool,
    /// Whether ARQ health is being tracked for abstract-state projection
    /// (set when the configuration declares an `arq` directive).
    arq_tracking: bool,
    /// Whether the ARQ retransmit budget is currently exhausted (latched
    /// from `DeliveryExhausted`, cleared by transport recovery).
    arq_exhausted: bool,
    /// Number of mesh edges tracked for abstract-state projection.
    mesh_edge_count: u8,
    /// Bitmask of mesh edges currently forced down.
    mesh_down_mask: u16,
    /// Bitmask of down mesh edges the router has detoured around (a
    /// subset of `mesh_down_mask`; cleared with the edge's recovery).
    mesh_rerouted_mask: u16,
}

impl std::fmt::Debug for AirSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AirSystem")
            .field("now", &self.machine.clock.now())
            .field("partitions", &self.partitions.len())
            .field("active", &self.dispatcher.active_partition())
            .field("halted", &self.halted)
            .finish()
    }
}

impl AirSystem {
    #[allow(clippy::too_many_arguments)] // one-time internal assembly of the Fig. 1 stack
    pub(crate) fn assemble(
        machine: Machine,
        scheduler: PartitionScheduler,
        dispatcher: PartitionDispatcher,
        spatial: SpatialManager,
        ipc: PmkIpc,
        hm: HealthMonitor,
        schedules: ScheduleSet,
        partitions: Vec<ApexPartition>,
        runtime: Vec<PartitionRuntime>,
        bodies: Vec<Vec<Box<dyn ProcessBody>>>,
        vitral: Option<Vitral>,
    ) -> Self {
        let consoles = vec![String::new(); partitions.len()];
        Self {
            machine,
            scheduler,
            dispatcher,
            spatial,
            ipc,
            hm,
            schedules,
            partitions,
            runtime,
            bodies,
            consoles,
            key_actions: HashMap::new(),
            trace: Trace::new(),
            vitral,
            vitral_synced: 0,
            halted: false,
            booted: false,
            wrapped_clock_seen: 0,
            degraded_schedule: None,
            nominal_schedule: None,
            degraded_mode: false,
            arq_tracking: false,
            arq_exhausted: false,
            mesh_edge_count: 0,
            mesh_down_mask: 0,
            mesh_rerouted_mask: 0,
        }
    }

    // -- observation --------------------------------------------------------

    /// Current time.
    pub fn now(&self) -> Ticks {
        Ticks(self.machine.clock.now())
    }

    /// The event trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Mutable trace access for in-crate harnesses (the fault-injection
    /// campaign records its injection markers here so they interleave with
    /// the system's own events in sequence order).
    pub(crate) fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// The health monitor (tables, log, occurrence counters).
    pub fn hm(&self) -> &HealthMonitor {
        &self.hm
    }

    /// The partition currently holding the CPU.
    pub fn active_partition(&self) -> Option<PartitionId> {
        self.dispatcher.active_partition()
    }

    /// The APEX instance of partition `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not a configured partition.
    pub fn partition(&self, m: PartitionId) -> &ApexPartition {
        &self.partitions[m.as_usize()]
    }

    /// Mutable APEX access (test harnesses and demo controls).
    ///
    /// # Panics
    ///
    /// Panics if `m` is not a configured partition.
    pub fn partition_mut(&mut self, m: PartitionId) -> &mut ApexPartition {
        &mut self.partitions[m.as_usize()]
    }

    /// The module schedule status (`GET_MODULE_SCHEDULE_STATUS`).
    pub fn schedule_status(&self) -> air_pmk::ScheduleStatus {
        self.scheduler.status()
    }

    /// The spatial-partitioning manager.
    pub fn spatial_mut(&mut self) -> &mut SpatialManager {
        &mut self.spatial
    }

    /// The PMK IPC component (port registry access for harnesses).
    pub fn ipc_mut(&mut self) -> &mut PmkIpc {
        &mut self.ipc
    }

    /// The machine (console, link, fault injection against devices).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The AIR Partition Scheduler (APEX module-schedule services take it
    /// as a parameter; see [`air_apex::set_module_schedule`]).
    pub fn scheduler_mut(&mut self) -> &mut PartitionScheduler {
        &mut self.scheduler
    }

    /// Performs a memory access on behalf of partition `m` through the
    /// spatial-partitioning MMU. On a fault, the violation is reported to
    /// health monitoring as a memory protection violation (Sect. 2.4) and
    /// the configured partition-level recovery action is applied — the
    /// full containment path of Fig. 3.
    ///
    /// # Errors
    ///
    /// The [`air_hw::mmu::MmuFault`] exactly as the MMU raised it.
    pub fn access_memory(
        &mut self,
        m: PartitionId,
        va: u64,
        kind: air_hw::mmu::AccessKind,
        privilege: air_hw::mmu::Privilege,
    ) -> Result<u64, air_hw::mmu::MmuFault> {
        let now = self.now();
        match self.spatial.translate(m, va, kind, privilege) {
            Ok(pa) => Ok(pa),
            Err(fault) => {
                let decision = self.report_to_hm(
                    now,
                    ErrorId::MemoryViolation,
                    ErrorSource::Partition(m),
                    fault.to_string(),
                );
                self.apply_decision_for(ErrorId::MemoryViolation, decision, now);
                Err(fault)
            }
        }
    }

    /// Accumulated console text of partition `m` (drained by VITRAL when
    /// enabled).
    ///
    /// # Panics
    ///
    /// Panics if `m` is not a configured partition.
    pub fn console_of(&self, m: PartitionId) -> &str {
        &self.consoles[m.as_usize()]
    }

    /// Renders the VITRAL screen, if enabled.
    pub fn render_vitral(&mut self) -> Option<String> {
        self.sync_vitral();
        self.vitral.as_ref().map(Vitral::render)
    }

    /// Whether a module-level HM action halted the system.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    // -- operator interface --------------------------------------------------

    /// Operator-level schedule switch request (the keyboard path of the
    /// prototype; authority-checked requests go through
    /// [`air_apex::set_module_schedule`] from a process body instead).
    ///
    /// # Errors
    ///
    /// [`air_pmk::SchedulerError`] for an unknown schedule.
    pub fn request_schedule(
        &mut self,
        schedule: ScheduleId,
    ) -> Result<(), air_pmk::SchedulerError> {
        self.scheduler.request_schedule(schedule)
    }

    /// Configures the schedule the module switches to when the reliable
    /// transport fails over to the secondary link (Sect. 4 mode-based
    /// scheduling: the degraded mode trades functionality for the slower
    /// standby link). Link recovery switches back to the schedule that was
    /// current at failover.
    pub fn set_degraded_schedule(&mut self, schedule: ScheduleId) {
        self.degraded_schedule = Some(schedule);
    }

    /// Whether the module is currently in link-degraded mode.
    pub fn is_degraded_mode(&self) -> bool {
        self.degraded_mode
    }

    /// Turns on ARQ health tracking for abstract-state projection; the
    /// builder calls this when the configuration declares an `arq`
    /// directive.
    pub fn enable_arq_tracking(&mut self) {
        self.arq_tracking = true;
    }

    /// Whether ARQ health is tracked (the abstract `arq` dimension exists).
    pub fn arq_tracking(&self) -> bool {
        self.arq_tracking
    }

    /// Whether the ARQ retransmit budget is currently exhausted.
    pub fn arq_exhausted(&self) -> bool {
        self.arq_exhausted
    }

    /// Declares how many mesh edges this node routes over, for
    /// abstract-state projection (clamped to the explorer's edge-mask
    /// width of 16).
    pub fn configure_mesh_edges(&mut self, count: u8) {
        self.mesh_edge_count = count.min(16);
    }

    /// Number of mesh edges tracked for abstract-state projection.
    pub fn mesh_edge_count(&self) -> u8 {
        self.mesh_edge_count
    }

    /// Bitmask of mesh edges currently forced down.
    pub fn mesh_edges_down(&self) -> u16 {
        self.mesh_down_mask
    }

    /// Bitmask of down mesh edges currently detoured around.
    pub fn mesh_edges_rerouted(&self) -> u16 {
        self.mesh_rerouted_mask
    }

    // -- fault/link injection (witness replay) -------------------------------

    /// Reports a partition-scoped fault against `m` to the health monitor
    /// and enforces the resulting decision immediately — the concrete
    /// counterpart of the explorer's abstract `fault(P)` event. Under the
    /// standard tables ([`air_hm::HmTables::standard`]) a memory violation
    /// is partition-level and warm-restarts the partition.
    pub fn inject_partition_fault(&mut self, m: PartitionId) {
        let now = Ticks(self.machine.clock.now());
        let decision = self.report_to_hm(
            now,
            ErrorId::MemoryViolation,
            ErrorSource::Partition(m),
            "injected partition-scoped fault (witness replay)",
        );
        self.apply_decision_for(ErrorId::MemoryViolation, decision, now);
    }

    /// Reports a module-scoped hardware fault to the health monitor and
    /// enforces the resulting decision — the concrete counterpart of the
    /// explorer's abstract `module_fault` event. Under the standard tables
    /// the module action is Reset: every partition cold-restarts.
    pub fn inject_module_fault(&mut self) {
        let now = Ticks(self.machine.clock.now());
        let decision = self.report_to_hm(
            now,
            ErrorId::HardwareFault,
            ErrorSource::Module,
            "injected module-scoped fault (witness replay)",
        );
        self.apply_decision_for(ErrorId::HardwareFault, decision, now);
    }

    /// Forces the link-failover path as if the reliable transport had
    /// switched to the secondary adapter: reports `LinkDegraded`
    /// (report-only, like the real failover branch) and enters the
    /// configured degraded schedule — the concrete counterpart of the
    /// explorer's abstract `link_down` event. The schedule switch takes
    /// effect at the next major-time-frame boundary.
    pub fn force_link_down(&mut self) {
        let now = Ticks(self.machine.clock.now());
        self.report_to_hm(
            now,
            ErrorId::LinkDegraded,
            ErrorSource::Module,
            "forced link failover (witness replay)",
        );
        self.enter_degraded_mode(now);
    }

    /// Forces link recovery: leaves degraded mode and restores the
    /// schedule in force at failover — the concrete counterpart of the
    /// explorer's abstract `link_up` event. No-op when not degraded.
    pub fn force_link_up(&mut self) {
        let now = Ticks(self.machine.clock.now());
        self.exit_degraded_mode(now);
    }

    /// Reports a deadline miss for partition `m`'s first process through
    /// the regular HM path — the concrete counterpart of the explorer's
    /// abstract `deadline(P)` event. Follows the same report/trace/enforce
    /// sequence as a miss detected by the partition abstraction layer.
    pub fn inject_deadline_fault(&mut self, m: PartitionId) {
        let now = Ticks(self.machine.clock.now());
        let gpid = GlobalProcessId::new(m, ProcessId(0));
        let decision = self.report_to_hm(
            now,
            ErrorId::DeadlineMissed,
            ErrorSource::Process(gpid),
            "injected deadline miss (witness replay)",
        );
        self.apply_decision_for(ErrorId::DeadlineMissed, decision, now);
    }

    /// Latches ARQ retransmit exhaustion as if the reliable transport had
    /// reported `DeliveryExhausted` — the concrete counterpart of the
    /// explorer's abstract `arq_exhausted` event. Report-only at HM level,
    /// exactly like the real exhaustion branch.
    pub fn inject_arq_exhaustion(&mut self) {
        let now = Ticks(self.machine.clock.now());
        self.report_to_hm(
            now,
            ErrorId::LinkDegraded,
            ErrorSource::Module,
            "injected ARQ delivery exhaustion (witness replay)",
        );
        self.arq_exhausted = true;
    }

    /// Clears the latched ARQ exhaustion as a transport resynchronisation
    /// would — the concrete counterpart of the explorer's abstract
    /// `arq_recovered` event.
    pub fn clear_arq_exhaustion(&mut self) {
        self.arq_exhausted = false;
    }

    /// Forces mesh edge `edge` down in the projection mask and surfaces it
    /// as a link-degraded HM report — the concrete counterpart of the
    /// explorer's abstract `mesh_down(e)` event. Out-of-range edges are
    /// ignored.
    pub fn force_mesh_edge_down(&mut self, edge: u8) {
        if edge >= self.mesh_edge_count {
            return;
        }
        let now = Ticks(self.machine.clock.now());
        self.report_to_hm(
            now,
            ErrorId::LinkDegraded,
            ErrorSource::Module,
            format!("forced mesh edge {edge} down (witness replay)"),
        );
        self.mesh_down_mask |= 1 << edge;
    }

    /// Restores mesh edge `edge` — the concrete counterpart of the
    /// explorer's abstract `mesh_up(e)` event. Out-of-range edges are
    /// ignored.
    pub fn force_mesh_edge_up(&mut self, edge: u8) {
        if edge >= self.mesh_edge_count {
            return;
        }
        self.mesh_down_mask &= !(1 << edge);
        // Recovery dismantles any detour around the edge, exactly as the
        // abstract `mesh_up(e)` rule clears the reroute bit.
        self.mesh_rerouted_mask &= !(1 << edge);
    }

    /// Marks down mesh edge `edge` as detoured around, surfacing the
    /// route-table refresh as an informational HM report — the concrete
    /// counterpart of the explorer's abstract `mesh_reroute(e)` event.
    /// Ignored for out-of-range or healthy edges (the abstraction only
    /// enables the event while the edge is down).
    pub fn force_mesh_reroute(&mut self, edge: u8) {
        if edge >= self.mesh_edge_count || self.mesh_down_mask & (1 << edge) == 0 {
            return;
        }
        let now = Ticks(self.machine.clock.now());
        self.report_to_hm(
            now,
            ErrorId::LinkDegraded,
            ErrorSource::Module,
            format!("rerouted around mesh edge {edge} (witness replay)"),
        );
        self.mesh_rerouted_mask |= 1 << edge;
    }

    /// Binds console key `key` to `action`.
    pub fn bind_key(&mut self, key: char, action: KeyAction) {
        self.key_actions.insert(key, action);
    }

    /// Injects a keyboard event (as the QEMU console would).
    pub fn push_key(&mut self, key: char) {
        self.machine.console.push_key(KeyEvent::Char(key));
    }

    // -- the tick loop --------------------------------------------------------

    /// Boots the system: dispatches the initial schedule's tick-0 heir.
    /// Called automatically by the first [`step`](AirSystem::step).
    fn boot(&mut self) {
        let heir = self.scheduler.initial_heir();
        let outcome = self.dispatcher.dispatch(heir, 0, &mut self.machine.cpu);
        self.trace.record(TraceEvent::PartitionSwitch {
            at: Ticks(0),
            from: None,
            to: heir,
        });
        if let Some(m) = heir {
            let misses =
                self.partitions[m.as_usize()].announce_clock_ticks(outcome.elapsed_ticks, Ticks(0));
            self.handle_misses(m, &misses, Ticks(0));
        }
        // The time-0 execution slot belongs to the initial heir: windows
        // starting at the MTF origin get their full duration even in the
        // very first frame.
        self.run_active_process(Ticks(0));
        self.booted = true;
    }

    /// Advances the system by one clock tick — the paper's clock ISR:
    /// scheduler (Algorithm 1), dispatcher (Algorithm 2), PAL announcement
    /// (Algorithm 3), process scheduling (Eq. 14), application execution,
    /// and interpartition routing at partition boundaries.
    pub fn step(&mut self) {
        if self.halted {
            return;
        }
        if !self.booted {
            self.boot();
        }
        let ticks = self.machine.advance_tick();
        let now = Ticks(ticks);

        // Service the interrupt controller as the ISR dispatch layer.
        while let Some(line) = self.machine.intc.acknowledge() {
            match line {
                InterruptLine::ClockTick => self.on_clock_tick(ticks),
                InterruptLine::Link => {
                    let errors = self.ipc.receive(&mut self.machine.link, now);
                    self.drain_transport_events(now);
                    for e in errors {
                        self.report_to_hm(
                            now,
                            ErrorId::HardwareFault,
                            ErrorSource::Module,
                            e.to_string(),
                        );
                    }
                }
                InterruptLine::ConsoleInput => self.on_console_input(),
                InterruptLine::Device(line) => {
                    // No device is configured on these lines: any interrupt
                    // here is spurious (fault injection, or a real platform
                    // glitch) and goes to health monitoring as a module-
                    // scoped hardware fault.
                    let decision = self.report_to_hm(
                        now,
                        ErrorId::HardwareFault,
                        ErrorSource::Module,
                        format!("spurious trap on device line {line}"),
                    );
                    self.apply_decision_for(ErrorId::HardwareFault, decision, now);
                }
            }
        }

        // Paravirtualised clock protection (Sect. 2.5): guest attempts to
        // mask the clock-tick source were wrapped by the interrupt
        // controller; surface each as an HM report against the partition
        // that was running. Report-only — the wrap already *is* the
        // recovery; the log entry is the observable detection.
        let wrapped = self.machine.intc.wrapped_clock_attempts();
        while self.wrapped_clock_seen < wrapped {
            self.wrapped_clock_seen += 1;
            let source = match self.dispatcher.active_partition() {
                Some(m) => ErrorSource::Partition(m),
                None => ErrorSource::Module,
            };
            self.report_to_hm(
                now,
                ErrorId::IllegalRequest,
                source,
                "guest attempt to mask the clock-tick source (wrapped)",
            );
        }

        // Execute the active partition's heir process for this tick.
        self.trace
            .record_occupancy(self.dispatcher.active_partition());
        self.run_active_process(now);
    }

    /// Runs `n` ticks.
    pub fn run_for(&mut self, n: u64) {
        for _ in 0..n {
            if self.halted {
                break;
            }
            self.step();
        }
    }

    /// Runs until the clock reaches `t` (inclusive of the tick at `t`).
    pub fn run_until(&mut self, t: Ticks) {
        while self.machine.clock.now() < t.as_u64() && !self.halted {
            self.step();
        }
    }

    /// Queues schedule `sid`'s per-partition change actions, to be applied
    /// at each partition's first dispatch (Sect. 4.3). The scheduler only
    /// switches to configured schedules; an unknown id queues nothing
    /// rather than panicking inside the clock ISR.
    fn queue_schedule_change_actions(&mut self, sid: ScheduleId) {
        let Some(schedule) = self.schedules.get(sid) else {
            return;
        };
        let actions: Vec<(PartitionId, ScheduleChangeAction)> = schedule
            .partitions()
            .map(|p| (p, schedule.change_action_for(p)))
            .collect();
        self.dispatcher.queue_schedule_change_actions(actions);
    }

    fn on_clock_tick(&mut self, ticks: u64) {
        let now = Ticks(ticks);
        let Some(event) = self.scheduler.tick(ticks) else {
            // Best/most-frequent case: no preemption point. The active
            // partition still receives its tick (Fig. 7 announcement with
            // elapsedTicks = 1).
            if let Some(m) = self.dispatcher.active_partition() {
                let misses = self.partitions[m.as_usize()].announce_clock_ticks(1, now);
                self.handle_misses(m, &misses, now);
            }
            return;
        };

        // A preemption point: a partition boundary. Interpartition traffic
        // moves here, never inside a window.
        let frame_errors = self.ipc.service(&mut self.machine);
        self.drain_transport_events(now);
        for e in frame_errors {
            self.report_to_hm(
                now,
                ErrorId::HardwareFault,
                ErrorSource::Module,
                e.to_string(),
            );
        }

        if let Some(sid) = event.switched_to {
            self.trace
                .record(TraceEvent::ScheduleSwitch { at: now, to: sid });
            self.queue_schedule_change_actions(sid);
        }

        let previous = self.dispatcher.active_partition();
        let outcome = self
            .dispatcher
            .dispatch(event.heir, ticks, &mut self.machine.cpu);
        if outcome.switched {
            self.trace.record(TraceEvent::PartitionSwitch {
                at: now,
                from: previous,
                to: event.heir,
            });
        }
        for (partition, action) in &outcome.actions {
            self.trace.record(TraceEvent::ScheduleChangeActionApplied {
                at: now,
                partition: *partition,
                action: *action,
            });
            match action {
                ScheduleChangeAction::None => {}
                ScheduleChangeAction::WarmRestart => self.restart_partition(*partition, true, now),
                ScheduleChangeAction::ColdRestart => self.restart_partition(*partition, false, now),
                ScheduleChangeAction::Stop => self.stop_partition(*partition, now),
            }
        }

        // The dispatched partition's PAL announces the elapsed ticks
        // (covers the whole inactive interval; Fig. 7) — this is where
        // deadline misses that occurred while the partition was inactive
        // are detected (Sect. 5).
        if let Some(m) = event.heir {
            let misses =
                self.partitions[m.as_usize()].announce_clock_ticks(outcome.elapsed_ticks, now);
            self.handle_misses(m, &misses, now);
        }
    }

    fn run_active_process(&mut self, now: Ticks) {
        let Some(m) = self.dispatcher.active_partition() else {
            return;
        };
        let idx = m.as_usize();
        let Some(pid) = self.partitions[idx].select_heir(now) else {
            return;
        };
        // The body runs in place: `bodies` is a field of its own, disjoint
        // from everything `ProcessApi` borrows.
        let Some(body) = self.bodies[idx].get_mut(pid.as_usize()) else {
            return;
        };
        let mut raised = Vec::new();
        body.on_tick(&mut ProcessApi {
            now,
            me: pid,
            apex: &mut self.partitions[idx],
            ports: self.ipc.registry_mut(),
            scheduler: &mut self.scheduler,
            console: &mut self.consoles[idx],
            raised_errors: &mut raised,
        });
        self.machine.cpu.retire_work(1);
        // RAISE_APPLICATION_ERROR path (and the reporting port services):
        // route raised errors through HM under their own error class.
        for (raiser, error, message) in raised {
            let gp = GlobalProcessId::new(m, raiser);
            let decision = self.report_to_hm(now, error, ErrorSource::Process(gp), message);
            self.apply_decision_for(error, decision, now);
        }
    }

    fn on_console_input(&mut self) {
        while let Some(key) = self.machine.console.pop_key() {
            let KeyEvent::Char(c) = key else { continue };
            match self.key_actions.get(&c) {
                Some(KeyAction::SwitchSchedule(sid)) => {
                    let _ = self.scheduler.request_schedule(*sid);
                }
                Some(KeyAction::ToggleFault(s)) => {
                    s.toggle();
                }
                None => {}
            }
        }
    }

    fn handle_misses(&mut self, m: PartitionId, misses: &[(ProcessId, Ticks)], now: Ticks) {
        for &(pid, deadline) in misses {
            let gpid = GlobalProcessId::new(m, pid);
            self.trace.record(TraceEvent::DeadlineMiss {
                at: now,
                process: gpid,
                deadline,
            });
            let decision = self.report_to_hm(
                now,
                ErrorId::DeadlineMissed,
                ErrorSource::Process(gpid),
                format!("deadline {deadline} missed, detected at {now}"),
            );
            self.apply_decision_for(ErrorId::DeadlineMissed, decision, now);
        }
    }

    /// Surfaces the reliable transport's events (retransmissions, link
    /// failover, delivery exhaustion, recovery) into the trace and health
    /// monitor, and drives the Sect. 4 mode-based schedule switch: failover
    /// to the secondary link enters the configured degraded schedule, link
    /// recovery restores the schedule that was in force at failover.
    ///
    /// Link degradation is deliberately report-only at HM level — the
    /// degraded-schedule switch *is* the recovery, so the standard module-
    /// level action (Reset) must not also fire.
    fn drain_transport_events(&mut self, now: Ticks) {
        for event in self.ipc.take_transport_events() {
            match event {
                LinkTransportEvent::Retransmitted { seq, retries } => {
                    self.trace.record(TraceEvent::FrameRetransmitted {
                        at: now,
                        seq,
                        retries,
                    });
                }
                LinkTransportEvent::Failover { to } => {
                    self.trace.record(TraceEvent::LinkFailover { at: now, to });
                    match to {
                        LinkRole::Secondary => {
                            self.report_to_hm(
                                now,
                                ErrorId::LinkDegraded,
                                ErrorSource::Module,
                                format!("reliable transport failed over to {to} link"),
                            );
                            self.enter_degraded_mode(now);
                        }
                        // Reverting to the primary link is a recovery: the
                        // standby interval is over.
                        LinkRole::Primary => self.exit_degraded_mode(now),
                    }
                }
                LinkTransportEvent::Recovered => {
                    self.arq_exhausted = false;
                    self.exit_degraded_mode(now);
                }
                LinkTransportEvent::DeliveryExhausted { seq } => {
                    self.report_to_hm(
                        now,
                        ErrorId::LinkDegraded,
                        ErrorSource::Module,
                        format!("delivery retries exhausted for frame #{seq}"),
                    );
                    self.arq_exhausted = true;
                }
                _ => {}
            }
        }
    }

    /// Switches to the configured degraded schedule (if any) and records
    /// the mode entry. Idempotent while already degraded.
    fn enter_degraded_mode(&mut self, now: Ticks) {
        if self.degraded_mode {
            return;
        }
        let Some(degraded) = self.degraded_schedule else {
            return;
        };
        self.nominal_schedule = Some(self.scheduler.status().current);
        if self.scheduler.request_schedule(degraded).is_ok() {
            self.degraded_mode = true;
            self.trace.record(TraceEvent::DegradedModeEntered {
                at: now,
                schedule: degraded,
            });
        }
    }

    /// Restores the schedule that was in force at failover and records the
    /// mode exit. No-op when not degraded.
    fn exit_degraded_mode(&mut self, now: Ticks) {
        if !self.degraded_mode {
            return;
        }
        self.degraded_mode = false;
        if let Some(nominal) = self.nominal_schedule.take() {
            let _ = self.scheduler.request_schedule(nominal);
            self.trace.record(TraceEvent::DegradedModeExited {
                at: now,
                schedule: nominal,
            });
        }
    }

    /// Reports `error` from `source` to the health monitor and records the
    /// matching [`TraceEvent::HmReport`], against the source's partition.
    /// Returns the monitor's decision; callers that enforce it pass it to
    /// [`apply_decision_for`](Self::apply_decision_for).
    fn report_to_hm(
        &mut self,
        now: Ticks,
        error: ErrorId,
        source: ErrorSource,
        detail: impl Into<String>,
    ) -> HmDecision {
        let partition = source.partition();
        let decision = self.hm.report(now, error, source, detail);
        self.trace.record(TraceEvent::HmReport {
            at: now,
            error,
            partition,
        });
        decision
    }

    /// Enforces an HM decision for `error` and records exactly one
    /// [`TraceEvent::RecoveryApplied`] describing what was done — the
    /// campaign's escalation-count invariants read that record.
    fn apply_decision_for(&mut self, error: ErrorId, decision: HmDecision, now: Ticks) {
        let (partition, disposition) = match decision {
            HmDecision::InvokeErrorHandler {
                process,
                fallback,
                occurrences,
            } => {
                let apex = &mut self.partitions[process.partition.as_usize()];
                let escalation =
                    apex.handle_process_error(process.process, error, fallback, occurrences, now);
                let disposition = match escalation {
                    RecoveryEscalation::None => RecoveryDisposition::HandlerContained,
                    RecoveryEscalation::RestartPartition => {
                        self.restart_partition(process.partition, true, now);
                        RecoveryDisposition::PartitionWarmRestart
                    }
                    RecoveryEscalation::StopPartition => {
                        self.stop_partition(process.partition, now);
                        RecoveryDisposition::PartitionStopped
                    }
                };
                (Some(process.partition), disposition)
            }
            HmDecision::PartitionAction { partition, action } => {
                let disposition = match action {
                    PartitionRecoveryAction::Ignore => RecoveryDisposition::Logged,
                    PartitionRecoveryAction::WarmRestart => {
                        self.restart_partition(partition, true, now);
                        RecoveryDisposition::PartitionWarmRestart
                    }
                    PartitionRecoveryAction::ColdRestart => {
                        self.restart_partition(partition, false, now);
                        RecoveryDisposition::PartitionColdRestart
                    }
                    PartitionRecoveryAction::Stop => {
                        self.stop_partition(partition, now);
                        RecoveryDisposition::PartitionStopped
                    }
                };
                (Some(partition), disposition)
            }
            HmDecision::ModuleAction { action } => {
                let disposition = match action {
                    ModuleRecoveryAction::Ignore => RecoveryDisposition::Logged,
                    ModuleRecoveryAction::Shutdown => {
                        self.halted = true;
                        RecoveryDisposition::ModuleShutdown
                    }
                    ModuleRecoveryAction::Reset => {
                        let ids: Vec<PartitionId> =
                            self.partitions.iter().map(ApexPartition::id).collect();
                        for m in ids {
                            self.restart_partition(m, false, now);
                        }
                        RecoveryDisposition::ModuleReset
                    }
                };
                (None, disposition)
            }
        };
        self.trace.record(TraceEvent::RecoveryApplied {
            at: now,
            error,
            partition,
            disposition,
        });
    }

    /// Restarts partition `m` through its ARINC mode automaton and re-runs
    /// its boot recipe (error handler + auto-start processes).
    pub(crate) fn restart_partition(&mut self, m: PartitionId, warm: bool, now: Ticks) {
        let idx = m.as_usize();
        let target = if warm {
            OperatingMode::WarmStart
        } else {
            OperatingMode::ColdStart
        };
        let condition = StartCondition::HmPartitionRestart;
        let apex = &mut self.partitions[idx];
        if apex.set_partition_mode(target, condition, now).is_err() {
            // coldStart → warmStart is forbidden; degrade to cold.
            let _ = apex.set_partition_mode(OperatingMode::ColdStart, condition, now);
        }
        if let Some(handler) = self.runtime[idx].error_handler.clone() {
            let _ = apex.create_error_handler(handler);
        }
        let _ = apex.set_partition_mode(OperatingMode::Normal, condition, now);
        let auto = self.runtime[idx].auto_start.clone();
        for pid in auto {
            let _ = apex.start(pid, now);
        }
        // Restarting re-establishes the partition's spatial configuration
        // from its descriptors, healing any corrupted/revoked mappings
        // (partitions without a spatial configuration have nothing to do).
        let _ = self.spatial.reload_partition(m);
        self.trace.record(TraceEvent::PartitionRestart {
            at: now,
            partition: m,
            warm,
        });
    }

    pub(crate) fn stop_partition(&mut self, m: PartitionId, now: Ticks) {
        let _ = self.partitions[m.as_usize()].set_partition_mode(
            OperatingMode::Idle,
            StartCondition::HmPartitionRestart,
            now,
        );
        self.trace.record(TraceEvent::PartitionStop {
            at: now,
            partition: m,
        });
    }

    fn sync_vitral(&mut self) {
        let Some(vitral) = &mut self.vitral else {
            return;
        };
        for (i, console) in self.consoles.iter_mut().enumerate() {
            if i < vitral.partition_count() && !console.is_empty() {
                let text = std::mem::take(console);
                vitral.partition_window_mut(i).write(&text);
            }
        }
        // Mirror trace events not yet shown into the AIR / HM windows.
        // Campaign bookkeeping events (injection markers, recovery
        // dispositions) are observability metadata, not VITRAL content.
        let mut line = String::new();
        for event in &self.trace.events()[self.vitral_synced..] {
            line.clear();
            encode_event(&mut line, event);
            match event {
                TraceEvent::FaultInjected { .. } | TraceEvent::RecoveryApplied { .. } => {}
                TraceEvent::DeadlineMiss { .. } | TraceEvent::HmReport { .. } => {
                    vitral.hm_window_mut().write_line(&line)
                }
                _ => vitral.air_window_mut().write_line(&line),
            }
        }
        self.vitral_synced = self.trace.events().len();
    }
}
