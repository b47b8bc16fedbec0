//! The system integrator: builds an [`AirSystem`] from configuration,
//! performing the verification and initialisation steps the paper assigns
//! to "system integration time".

use air_apex::{ApexPartition, ErrorHandlerTable};
use air_hm::{HealthMonitor, HmTables};
use air_hw::machine::MachineConfig;
use air_hw::{CpuContext, Machine};
use air_lint::{ExploreConfig, LintReport, SystemModel};
use air_model::partition::{OperatingMode, Partition, StartCondition};
use air_model::process::ProcessAttributes;
use air_model::{ScheduleSet, Ticks};
use air_pmk::spatial::standard_application_layout;
use air_pmk::{PartitionDispatcher, PartitionScheduler, PmkIpc, SpatialManager};
use air_ports::{ChannelConfig, PortRegistry, QueuingPortConfig, SamplingPortConfig};
use air_vitral::Vitral;

use crate::system::{AirSystem, PartitionRuntime};
use crate::workload::ProcessBody;

/// Configuration of one process: its model attributes, its application
/// body, and whether it auto-starts when the partition enters normal mode.
pub struct ProcessConfig {
    /// Static attributes (Eq. 11).
    pub attributes: ProcessAttributes,
    /// The application body driven while the process runs.
    pub body: Box<dyn ProcessBody>,
    /// Start automatically on entering normal mode (and on restarts).
    pub auto_start: bool,
}

impl ProcessConfig {
    /// An auto-started process.
    pub fn new(attributes: ProcessAttributes, body: impl ProcessBody + 'static) -> Self {
        Self {
            attributes,
            body: Box::new(body),
            auto_start: true,
        }
    }

    /// Marks the process as manually started (e.g. a recovery process).
    #[must_use]
    pub fn manual_start(mut self) -> Self {
        self.auto_start = false;
        self
    }
}

/// Configuration of one partition.
pub struct PartitionConfig {
    /// The model-level partition descriptor.
    pub partition: Partition,
    /// Its processes.
    pub processes: Vec<ProcessConfig>,
    /// Error handler to install during initialisation.
    pub error_handler: Option<ErrorHandlerTable>,
    /// Sampling ports to create during initialisation.
    pub sampling_ports: Vec<SamplingPortConfig>,
    /// Queuing ports to create during initialisation.
    pub queuing_ports: Vec<QueuingPortConfig>,
}

impl PartitionConfig {
    /// A partition with no processes or ports yet.
    pub fn new(partition: Partition) -> Self {
        Self {
            partition,
            processes: Vec::new(),
            error_handler: None,
            sampling_ports: Vec::new(),
            queuing_ports: Vec::new(),
        }
    }

    /// Adds a process.
    #[must_use]
    pub fn with_process(mut self, process: ProcessConfig) -> Self {
        self.processes.push(process);
        self
    }

    /// Installs an error handler table.
    #[must_use]
    pub fn with_error_handler(mut self, handler: ErrorHandlerTable) -> Self {
        self.error_handler = Some(handler);
        self
    }

    /// Adds a sampling port.
    #[must_use]
    pub fn with_sampling_port(mut self, config: SamplingPortConfig) -> Self {
        self.sampling_ports.push(config);
        self
    }

    /// Adds a queuing port.
    #[must_use]
    pub fn with_queuing_port(mut self, config: QueuingPortConfig) -> Self {
        self.queuing_ports.push(config);
        self
    }
}

/// Errors from system assembly.
#[derive(Debug)]
#[non_exhaustive]
pub enum BuildError {
    /// Static analysis found Error-level defects in the configuration
    /// (Eq. 21–23 violations, broken channel wiring, duplicate names, …);
    /// the report lists every finding with its stable `AIR` code.
    Lint(LintReport),
    /// Partition ids must be contiguous `0..n` in declaration order.
    NonContiguousPartitionIds,
    /// A POS/APEX/port initialisation step failed.
    Initialisation(String),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Lint(r) => {
                write!(f, "configuration rejected by static analysis:\n{r}")?;
                if r.has_code(air_lint::Code::ExplorationCapped) {
                    write!(
                        f,
                        "\nnote: the bounded exploration raised AIR098 (its \
                         state cap, or more mesh edges than it toggles); \
                         after a cap hit this report may be incomplete, so \
                         re-run `airlint --explore` with a larger --max-states"
                    )?;
                }
                Ok(())
            }
            BuildError::NonContiguousPartitionIds => {
                f.write_str("partition ids must be contiguous from 0 in declaration order")
            }
            BuildError::Initialisation(s) => write!(f, "initialisation failed: {s}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Builds a complete AIR system.
///
/// # Examples
///
/// ```
/// use air_core::{SystemBuilder, PartitionConfig, ProcessConfig};
/// use air_core::workload::PeriodicCompute;
/// use air_model::process::{Deadline, ProcessAttributes, Recurrence};
/// use air_model::schedule::{PartitionRequirement, Schedule, TimeWindow};
/// use air_model::{Partition, PartitionId, ScheduleId, ScheduleSet, Ticks};
///
/// let p0 = PartitionId(0);
/// let schedule = Schedule::new(
///     ScheduleId(0), "single", Ticks(100),
///     vec![PartitionRequirement::new(p0, Ticks(100), Ticks(50))],
///     vec![TimeWindow::new(p0, Ticks(0), Ticks(50))],
/// );
/// let mut system = SystemBuilder::new(ScheduleSet::new(vec![schedule]))
///     .with_partition(
///         PartitionConfig::new(Partition::new(p0, "solo")).with_process(
///             ProcessConfig::new(
///                 ProcessAttributes::new("work")
///                     .with_recurrence(Recurrence::Periodic(Ticks(100)))
///                     .with_deadline(Deadline::relative(Ticks(100))),
///                 PeriodicCompute::new(10),
///             ),
///         ),
///     )
///     .build()?;
/// system.run_for(300);
/// assert_eq!(system.trace().deadline_miss_count(), 0);
/// # Ok::<(), air_core::builder::BuildError>(())
/// ```
pub struct SystemBuilder {
    schedules: ScheduleSet,
    partitions: Vec<PartitionConfig>,
    channels: Vec<ChannelConfig>,
    hm_tables: HmTables,
    machine_config: MachineConfig,
    vitral: bool,
    exploration_depth: usize,
}

/// Default bounded-exploration depth applied by [`SystemBuilder::build`]:
/// every state reachable within two mode-change/HM/link events is checked.
pub const DEFAULT_EXPLORATION_DEPTH: usize = 2;

impl SystemBuilder {
    /// Starts a build over the given schedule set.
    pub fn new(schedules: ScheduleSet) -> Self {
        Self {
            schedules,
            partitions: Vec::new(),
            channels: Vec::new(),
            hm_tables: HmTables::standard(),
            machine_config: MachineConfig::default(),
            vitral: false,
            exploration_depth: DEFAULT_EXPLORATION_DEPTH,
        }
    }

    /// Adds a partition (ids must be contiguous in declaration order).
    #[must_use]
    pub fn with_partition(mut self, config: PartitionConfig) -> Self {
        self.partitions.push(config);
        self
    }

    /// Adds an interpartition channel.
    #[must_use]
    pub fn with_channel(mut self, channel: ChannelConfig) -> Self {
        self.channels.push(channel);
        self
    }

    /// Replaces the health-monitoring tables.
    #[must_use]
    pub fn with_hm_tables(mut self, tables: HmTables) -> Self {
        self.hm_tables = tables;
        self
    }

    /// Replaces the machine configuration.
    #[must_use]
    pub fn with_machine_config(mut self, config: MachineConfig) -> Self {
        self.machine_config = config;
        self
    }

    /// Enables the VITRAL screen (one window per partition plus AIR/HM
    /// windows, Fig. 9).
    #[must_use]
    pub fn with_vitral(mut self) -> Self {
        self.vitral = true;
        self
    }

    /// Sets how many mode-change/HM/link events deep
    /// [`SystemBuilder::build`] explores the configuration's reachable
    /// state space (AIR081–AIR086) before accepting it. The default is
    /// [`DEFAULT_EXPLORATION_DEPTH`]; `0` disables the exploration stage
    /// (the per-schedule static analyses still run).
    #[must_use]
    pub fn with_exploration_depth(mut self, depth: usize) -> Self {
        self.exploration_depth = depth;
        self
    }

    /// Snapshots the builder's description into the lint model both
    /// [`SystemBuilder::lint`] and the build gate analyse.
    fn snapshot(&self) -> SystemModel {
        let mut model = SystemModel {
            partitions: self
                .partitions
                .iter()
                .map(|p| p.partition.clone())
                .collect(),
            schedules: self.schedules.iter().cloned().collect(),
            channels: self.channels.clone(),
            // Programmatic descriptions may legitimately wire gateway
            // channels whose source lives on another node (see
            // `tests/cluster.rs`), and always carry complete standard HM
            // tables, so coverage checks stay off.
            gateways_allowed: true,
            hm_declared: false,
            ..SystemModel::default()
        };
        for p in &self.partitions {
            let m = p.partition.id();
            for proc in &p.processes {
                model.processes.push((m, proc.attributes.clone()));
            }
            for cfg in &p.sampling_ports {
                model.sampling_ports.push((m, cfg.clone()));
            }
            for cfg in &p.queuing_ports {
                model.queuing_ports.push((m, cfg.clone()));
            }
            if let Some(handler) = &p.error_handler {
                for (error, action) in handler.actions() {
                    model.handlers.push((m, error, action));
                }
            }
        }
        model
    }

    /// Runs the `air-lint` static analyses over the builder's current
    /// description, without building anything.
    ///
    /// This is the same snapshot [`SystemBuilder::build`] gates on:
    /// temporal (Eq. 21–23 and schedulability), mode-graph, port/channel
    /// and health-monitoring checks. Warnings never block a build —
    /// inspect them here. The build gate additionally explores the
    /// reachable mode/HM state space
    /// ([`SystemBuilder::with_exploration_depth`]); use
    /// [`air_lint::lint_explored`] with an [`ExploreConfig`] of
    /// that depth on the same description to reproduce that stage ahead
    /// of building.
    pub fn lint(&self) -> LintReport {
        air_lint::lint(&self.snapshot())
    }

    /// Verifies the configuration and assembles the system: the
    /// "integration and configuration" the ARINC 653 spec insists on
    /// (Sect. 6) happens here. The configuration is first linted
    /// ([`SystemBuilder::lint`]) and its mode/HM state space explored to
    /// the configured depth ([`SystemBuilder::with_exploration_depth`]);
    /// any Error-level finding — including one only reachable through a
    /// sequence of mode switches and faults (AIR081, AIR085) — refuses
    /// the build. [`SystemBuilder::build_unchecked`] skips the gate.
    ///
    /// # Errors
    ///
    /// [`BuildError::Lint`] when static analysis finds Error-level
    /// defects, or [`BuildError`] when partition ids are not contiguous
    /// or an initialisation step fails.
    pub fn build(self) -> Result<AirSystem, BuildError> {
        let report = if self.exploration_depth > 0 {
            air_lint::lint_explored(
                &self.snapshot(),
                &ExploreConfig {
                    depth: self.exploration_depth,
                    ..ExploreConfig::default()
                },
            )
        } else {
            self.lint()
        };
        if report.has_errors() {
            return Err(BuildError::Lint(report));
        }
        self.build_unchecked()
    }

    /// Assembles the system without the static-analysis gate.
    ///
    /// The escape hatch for deliberately broken configurations —
    /// fault-injection campaigns and robustness tests that *want* to run
    /// defective tables. Production integrations should call
    /// [`SystemBuilder::build`].
    ///
    /// # Errors
    ///
    /// [`BuildError`] when partition ids are not contiguous or an
    /// initialisation step fails.
    pub fn build_unchecked(self) -> Result<AirSystem, BuildError> {
        for (i, p) in self.partitions.iter().enumerate() {
            if p.partition.id().as_usize() != i {
                return Err(BuildError::NonContiguousPartitionIds);
            }
        }

        // 2. Machine and PMK components.
        let mut spatial = SpatialManager::new(self.machine_config.memory_size as u64);
        let machine = Machine::new(self.machine_config);
        let scheduler = PartitionScheduler::new(&self.schedules);
        let mut dispatcher = PartitionDispatcher::new();

        // 3. Ports and channels.
        let mut registry = PortRegistry::new();
        for p in &self.partitions {
            for cfg in &p.sampling_ports {
                registry
                    .create_sampling_port(p.partition.id(), cfg.clone())
                    .map_err(|e| BuildError::Initialisation(e.to_string()))?;
            }
            for cfg in &p.queuing_ports {
                registry
                    .create_queuing_port(p.partition.id(), cfg.clone())
                    .map_err(|e| BuildError::Initialisation(e.to_string()))?;
            }
        }
        for channel in self.channels {
            registry
                .add_channel(channel)
                .map_err(|e| BuildError::Initialisation(e.to_string()))?;
        }
        let ipc = PmkIpc::with_registry(registry);

        // 4. Per-partition spatial configuration, CPU context, APEX boot.
        let mut partitions = Vec::with_capacity(self.partitions.len());
        let mut runtime = Vec::with_capacity(self.partitions.len());
        let mut bodies = Vec::with_capacity(self.partitions.len());
        let titles: Vec<String> = self
            .partitions
            .iter()
            .map(|p| format!("{} {}", p.partition.id(), p.partition.name()))
            .collect();

        for config in self.partitions {
            let m = config.partition.id();
            let layout = standard_application_layout(0x10000, 0x10000, 0x4000);
            let context = spatial
                .configure_partition(m, &layout)
                .map_err(|e| BuildError::Initialisation(e.to_string()))?;
            dispatcher.register_partition(
                m,
                CpuContext::new(0x4000_0000, 0x6000_0000 + 0x4000, context),
            );

            let mut apex = ApexPartition::new(config.partition);

            // ARINC 653 initialisation: create processes and the error
            // handler in coldStart, then transition to normal and start
            // the auto-start set.
            let mut auto_start = Vec::new();
            let mut partition_bodies = Vec::with_capacity(config.processes.len());
            for proc in config.processes {
                let pid = apex
                    .create_process(proc.attributes)
                    .map_err(|e| BuildError::Initialisation(e.to_string()))?;
                // The POS hands out process ids densely from 0.
                debug_assert_eq!(pid.as_usize(), partition_bodies.len());
                partition_bodies.push(proc.body);
                if proc.auto_start {
                    auto_start.push(pid);
                }
            }
            if let Some(handler) = config.error_handler.clone() {
                apex.create_error_handler(handler)
                    .map_err(|e| BuildError::Initialisation(e.to_string()))?;
            }
            apex.set_partition_mode(OperatingMode::Normal, StartCondition::NormalStart, Ticks(0))
                .map_err(|e| BuildError::Initialisation(e.to_string()))?;
            for &pid in &auto_start {
                apex.start(pid, Ticks(0))
                    .map_err(|e| BuildError::Initialisation(e.to_string()))?;
            }

            partitions.push(apex);
            bodies.push(partition_bodies);
            runtime.push(PartitionRuntime {
                auto_start,
                error_handler: config.error_handler,
            });
        }

        let vitral = self.vitral.then(|| {
            let title_refs: Vec<&str> = titles.iter().map(String::as_str).collect();
            Vitral::fig9_layout(&title_refs)
        });

        Ok(AirSystem::assemble(
            machine,
            scheduler,
            dispatcher,
            spatial,
            ipc,
            HealthMonitor::new(self.hm_tables),
            self.schedules,
            partitions,
            runtime,
            bodies,
            vitral,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::BusyLoop;
    use air_model::schedule::{PartitionRequirement, Schedule, TimeWindow};
    use air_model::{PartitionId, ScheduleId};

    fn schedule(windows: Vec<(u32, u64, u64)>) -> ScheduleSet {
        let reqs: Vec<PartitionRequirement> = windows
            .iter()
            .map(|&(m, _, c)| PartitionRequirement::new(PartitionId(m), Ticks(100), Ticks(c)))
            .collect();
        ScheduleSet::new(vec![Schedule::new(
            ScheduleId(0),
            "t",
            Ticks(100),
            reqs,
            windows
                .into_iter()
                .map(|(m, o, c)| TimeWindow::new(PartitionId(m), Ticks(o), Ticks(c)))
                .collect(),
        )])
    }

    #[test]
    fn invalid_schedules_are_rejected_with_the_report() {
        // Overlapping windows: the builder refuses before anything runs.
        let set = schedule(vec![(0, 0, 60), (1, 40, 40)]);
        let err = SystemBuilder::new(set)
            .with_partition(PartitionConfig::new(Partition::new(PartitionId(0), "a")))
            .with_partition(PartitionConfig::new(Partition::new(PartitionId(1), "b")))
            .build()
            .unwrap_err();
        let BuildError::Lint(report) = &err else {
            panic!("expected Lint, got {err}");
        };
        assert!(report.has_code(air_lint::Code::WindowsOverlap), "{report}");
        assert!(err.to_string().contains("Eq. 21"), "{err}");
    }

    #[test]
    fn non_contiguous_partition_ids_rejected() {
        let set = schedule(vec![(0, 0, 40), (2, 40, 40)]);
        let err = SystemBuilder::new(set)
            .with_partition(PartitionConfig::new(Partition::new(PartitionId(0), "a")))
            .with_partition(PartitionConfig::new(Partition::new(PartitionId(2), "c")))
            .build()
            .unwrap_err();
        let BuildError::Lint(report) = &err else {
            panic!("expected Lint, got {err}");
        };
        assert!(
            report.has_code(air_lint::Code::NonContiguousPartitionIds),
            "{report}"
        );
    }

    #[test]
    fn duplicate_port_names_rejected_by_lint() {
        let set = schedule(vec![(0, 0, 40)]);
        let err = SystemBuilder::new(set)
            .with_partition(
                PartitionConfig::new(Partition::new(PartitionId(0), "a"))
                    .with_sampling_port(SamplingPortConfig::source("x", 8))
                    .with_queuing_port(QueuingPortConfig::source("x", 8, 2)),
            )
            .build()
            .unwrap_err();
        let BuildError::Lint(report) = &err else {
            panic!("expected Lint, got {err}");
        };
        assert!(
            report.has_code(air_lint::Code::DuplicatePortName),
            "{report}"
        );
    }

    #[test]
    fn duplicate_port_names_still_fail_unchecked_initialisation() {
        // The escape hatch skips the linter but not the registry's own
        // integration-time rules.
        let set = schedule(vec![(0, 0, 40)]);
        let err = SystemBuilder::new(set)
            .with_partition(
                PartitionConfig::new(Partition::new(PartitionId(0), "a"))
                    .with_sampling_port(SamplingPortConfig::source("x", 8))
                    .with_queuing_port(QueuingPortConfig::source("x", 8, 2)),
            )
            .build_unchecked()
            .unwrap_err();
        assert!(matches!(err, BuildError::Initialisation(_)), "{err}");
    }

    #[test]
    fn duplicate_process_names_rejected_by_lint() {
        let set = schedule(vec![(0, 0, 40)]);
        let err = SystemBuilder::new(set)
            .with_partition(
                PartitionConfig::new(Partition::new(PartitionId(0), "a"))
                    .with_process(ProcessConfig::new(
                        ProcessAttributes::new("dup"),
                        BusyLoop::new(),
                    ))
                    .with_process(ProcessConfig::new(
                        ProcessAttributes::new("dup"),
                        BusyLoop::new(),
                    )),
            )
            .build()
            .unwrap_err();
        let BuildError::Lint(report) = &err else {
            panic!("expected Lint, got {err}");
        };
        assert!(
            report.has_code(air_lint::Code::DuplicateProcessName),
            "{report}"
        );
    }

    #[test]
    fn bad_channel_wiring_rejected_by_lint() {
        let set = schedule(vec![(0, 0, 40)]);
        let err = SystemBuilder::new(set)
            .with_partition(PartitionConfig::new(Partition::new(PartitionId(0), "a")))
            .with_channel(ChannelConfig {
                id: 1,
                source: air_ports::PortAddr::new(PartitionId(0), "ghost"),
                destinations: vec![],
            })
            .build()
            .unwrap_err();
        let BuildError::Lint(report) = &err else {
            panic!("expected Lint, got {err}");
        };
        assert!(report.has_code(air_lint::Code::EmptyChannel), "{report}");
    }

    #[test]
    fn overlapping_windows_build_through_the_escape_hatch() {
        // Robustness campaigns deliberately run defective tables; the
        // unchecked path must still assemble them.
        let set = schedule(vec![(0, 0, 60), (1, 40, 40)]);
        let system = SystemBuilder::new(set)
            .with_partition(PartitionConfig::new(Partition::new(PartitionId(0), "a")))
            .with_partition(PartitionConfig::new(Partition::new(PartitionId(1), "b")))
            .build_unchecked();
        assert!(system.is_ok());
    }

    #[test]
    fn lint_is_inspectable_without_building() {
        let set = schedule(vec![(0, 0, 40)]);
        let builder = SystemBuilder::new(set)
            .with_partition(PartitionConfig::new(Partition::new(PartitionId(0), "a")));
        let report = builder.lint();
        assert!(!report.has_errors(), "{report}");
        assert!(builder.build().is_ok());
    }

    #[test]
    fn manual_start_processes_stay_dormant() {
        let set = schedule(vec![(0, 0, 40)]);
        let mut system = SystemBuilder::new(set)
            .with_partition(
                PartitionConfig::new(Partition::new(PartitionId(0), "a"))
                    .with_process(ProcessConfig::new(
                        ProcessAttributes::new("auto"),
                        BusyLoop::new(),
                    ))
                    .with_process(
                        ProcessConfig::new(ProcessAttributes::new("recovery"), BusyLoop::new())
                            .manual_start(),
                    ),
            )
            .build()
            .unwrap();
        system.run_for(10);
        let rec = system
            .partition(PartitionId(0))
            .process_id("recovery")
            .unwrap();
        let (status, _) = system
            .partition(PartitionId(0))
            .process_status(rec)
            .unwrap();
        assert_eq!(status.state, air_model::ProcessState::Dormant);
        let auto = system.partition(PartitionId(0)).process_id("auto").unwrap();
        let (status, _) = system
            .partition(PartitionId(0))
            .process_status(auto)
            .unwrap();
        assert_ne!(status.state, air_model::ProcessState::Dormant);
    }

    #[test]
    fn a_zero_period_process_is_refused() {
        // `PERIODIC_WAIT` has no next release for it (AIR015).
        let err = SystemBuilder::new(schedule(vec![(0, 0, 40)]))
            .with_partition(
                PartitionConfig::new(Partition::new(PartitionId(0), "a")).with_process(
                    ProcessConfig::new(
                        ProcessAttributes::new("stuck")
                            .with_recurrence(air_model::process::Recurrence::Periodic(Ticks(0))),
                        BusyLoop::new(),
                    ),
                ),
            )
            .build()
            .unwrap_err();
        let BuildError::Lint(report) = &err else {
            panic!("expected Lint, got {err}");
        };
        assert!(report.has_code(air_lint::Code::ZeroPeriod), "{report}");
    }

    #[test]
    fn a_system_too_wide_to_explore_is_refused_not_waved_through() {
        // 65 partitions need 65 mode bits, one more than a packed
        // exploration state holds: the gate cannot check the mode/HM
        // graph, so it refuses the build (AIR087) instead of passing it.
        let windows: Vec<(u32, u64, u64)> = (0..65u32).map(|m| (m, u64::from(m), 1)).collect();
        let partitions = || {
            (0..65u32)
                .map(|m| PartitionConfig::new(Partition::new(PartitionId(m), format!("p{m}"))))
        };
        let mut b = SystemBuilder::new(schedule(windows.clone()));
        for p in partitions() {
            b = b.with_partition(p);
        }
        let err = b.build().unwrap_err();
        let BuildError::Lint(report) = &err else {
            panic!("expected Lint, got {err}");
        };
        assert!(
            report.has_code(air_lint::Code::ExplorationInfeasible),
            "{report}"
        );
        // Only the exploration stage objects.
        let mut b = SystemBuilder::new(schedule(windows)).with_exploration_depth(0);
        for p in partitions() {
            b = b.with_partition(p);
        }
        assert!(b.build().is_ok());
    }
}
