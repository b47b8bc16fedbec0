//! Deterministic link-fault campaigns against a two-node cluster.
//!
//! The tentpole claim of the reliable transport is *exactly-once, in-order
//! delivery under any single-link fault plan*: frames may be dropped,
//! corrupted, or lost to a sustained outage of the active adapter, and
//! acknowledgements may vanish — yet every queuing-port message offered on
//! node A arrives at node B exactly once, in order, and sampling-port
//! readings stay within their staleness budget. This module turns that
//! claim into a seeded, reproducible experiment:
//!
//! * node A runs a telemetry producer (a closed budget of queuing
//!   messages) and an attitude sampling producer, both on remote channels;
//! * node B runs the matching consumers behind gateway channels;
//! * a seeded [`FaultPlan`] over [`FaultClass::LINK`] strikes the link
//!   through the machine's injection hooks (in-flight frame drops, header
//!   corruption, active-link outages, acknowledgement destruction);
//! * sustained outages push the loss streak past the failover threshold:
//!   the cluster fails over to the secondary adapter, health monitoring
//!   logs [`air_hm::ErrorId::LinkDegraded`], and node A switches to its
//!   degraded schedule (Sect. 4 mode-based scheduling) until the link
//!   recovers;
//! * the reliability invariants are checked into an
//!   [`air_model::verify::Report`], and the whole campaign is re-executed
//!   to demand byte-identical trace logs.

use air_hm::{HmTables, ModuleRecoveryAction, SystemHmTable};
use air_hw::inject::{FaultClass, FaultEvent, FaultPlan};
use air_hw::link::LinkEndpoint;
use air_hw::machine::MachineConfig;
use air_hw::redundant::LinkRole;
use air_model::process::Priority;
use air_model::schedule::{PartitionRequirement, Schedule, TimeWindow};
use air_model::verify::{check_exactly_once, Report, Violation};
use air_model::{Deadline, Recurrence};
use air_model::{Partition, PartitionId, ProcessAttributes, ScheduleId, ScheduleSet, Ticks};
use air_ports::wire::bytes_look_like_ack;
use air_ports::{
    ArqConfig, ChannelConfig, Destination, PortAddr, QueuingPortConfig, SamplingPortConfig,
};

use crate::builder::{PartitionConfig, ProcessConfig, SystemBuilder};
use crate::cluster::{AirCluster, Node};
use crate::scenario::Scenario;
use crate::trace::TraceEvent;
use crate::workload::{FiniteQueuingProducer, QueuingConsumer, SamplingConsumer, SamplingProducer};

/// Major time frame of both cluster nodes.
pub const LINK_MTF: u64 = 100;
/// Telemetry production period (one queuing message per period).
const TM_PERIOD: u64 = 10;
/// Attitude sampling production period.
const ATT_PERIOD: u64 = 20;
/// Refresh period of the attitude sample at the consumer.
const ATT_REFRESH: u64 = 2 * LINK_MTF;
/// The telemetry channel (queuing, A→B).
const TM_CHANNEL: u32 = 50;
/// The attitude channel (sampling, A→B).
const ATT_CHANNEL: u32 = 51;
/// Consecutive timeout rounds before node A fails over.
const FAILOVER_THRESHOLD: u32 = 2;
/// Probation ticks on the secondary before reverting to the primary.
const REVERT_TICKS: u64 = 600;
/// The nominal schedule of node A.
const NOMINAL: ScheduleId = ScheduleId(0);
/// The degraded schedule node A switches to on failover.
const DEGRADED: ScheduleId = ScheduleId(1);

const P0: PartitionId = PartitionId(0);

/// A convenient link-fault plan for `seed`: `per_class` faults of every
/// [`FaultClass::LINK`] class, round-robin from tick 150 in 400-tick slots
/// with seeded jitter (wide slots let each outage resolve — failover,
/// probation, revert — before the next fault lands).
pub fn link_plan(seed: u64, per_class: usize) -> FaultPlan {
    FaultPlan::generate(seed, &FaultClass::LINK, per_class, 150, 400, 37)
}

/// The result of one link campaign: the invariant report, the delivery
/// and failover metrics, and the trace logs the determinism check
/// compares.
#[derive(Debug)]
pub struct LinkCampaignOutcome {
    /// The executed plan.
    pub plan: FaultPlan,
    /// The reliability-invariant report (empty = all invariants hold).
    pub report: Report,
    /// Queuing messages offered on node A (the closed producer budget).
    pub expected: u64,
    /// Queuing messages delivered to node B's consumer.
    pub delivered: u64,
    /// Frames retransmitted by node A's reliable transport.
    pub retransmissions: u64,
    /// Duplicate frames suppressed at node B.
    pub duplicates_suppressed: u64,
    /// Primary→secondary failovers on node A.
    pub failovers: u64,
    /// Secondary→primary reverts on node A.
    pub reverts: u64,
    /// Degraded-mode entries observed in node A's trace.
    pub degraded_entries: u64,
    /// Degraded-mode exits observed in node A's trace.
    pub degraded_exits: u64,
    /// Ticks from the first failover to the first degraded-mode exit.
    pub recovery_latency: Option<u64>,
    /// Canonical trace log of node A.
    pub trace_log_a: String,
    /// Canonical trace log of node B.
    pub trace_log_b: String,
    /// Whether re-executing the same plan reproduced both trace logs byte
    /// for byte.
    pub deterministic: bool,
}

impl LinkCampaignOutcome {
    /// Whether every reliability invariant held and the run reproduced.
    pub fn is_ok(&self) -> bool {
        self.report.is_ok() && self.deterministic
    }
}

/// Runs a [`FaultPlan`] over [`FaultClass::LINK`] against the two-node
/// workload and checks the exactly-once delivery invariants.
///
/// # Examples
///
/// ```
/// use air_core::link_campaign::{link_plan, LinkCampaignRunner};
///
/// let outcome = LinkCampaignRunner::new(link_plan(7, 1)).run();
/// assert!(outcome.is_ok(), "{}", outcome.report);
/// assert_eq!(outcome.delivered, outcome.expected);
/// ```
#[derive(Debug, Clone)]
pub struct LinkCampaignRunner {
    plan: FaultPlan,
}

impl LinkCampaignRunner {
    /// A runner for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        Self { plan }
    }

    /// Executes the campaign twice (the second run is the determinism
    /// probe) and checks every invariant.
    pub fn run(&self) -> LinkCampaignOutcome {
        let first = execute(&self.plan);
        let second = execute(&self.plan);

        let mut report = Report::new();
        check_exactly_once(
            first.delivered.iter().copied(),
            first.outcome.expected,
            true,
            |_| false,
            &mut report,
        );
        check_staleness(&first, &mut report);
        check_degradation_visibility(&self.plan, &first, &mut report);
        let (a, b) = (&first.outcome, &second.outcome);
        let deterministic = a.trace_log_a == b.trace_log_a && a.trace_log_b == b.trace_log_b;
        LinkCampaignOutcome {
            report,
            deterministic,
            ..first.outcome
        }
    }
}

/// Everything one faulted execution leaves behind: the outcome (its
/// report still empty) and what the invariant checks walk.
struct RunArtifacts {
    outcome: LinkCampaignOutcome,
    /// Frame indices in the order node B's consumer logged them.
    delivered: Vec<u64>,
    /// Worst sampling-message age observed at any boundary probe.
    worst_sample_age: Option<Ticks>,
    events_a: Vec<TraceEvent>,
}

/// One incrementally-steppable link campaign: the two-node reliable-
/// transport workload under a seeded link-fault plan, advanced one tick
/// at a time.
///
/// [`LinkCampaignRunner`] drives two of these back to back (the second is
/// the determinism probe); the fleet executor (`air-fleet`) interleaves
/// many across worker threads. Both nodes, the in-flight frames and the
/// fault cursor are owned by the instance — nothing is shared between two
/// sims, so trace logs are a pure function of the plan.
pub struct LinkSim {
    cluster: AirCluster,
    pending: Vec<FaultEvent>,
    worst_sample_age: Option<Ticks>,
    expected: u64,
    end: u64,
}

impl LinkSim {
    fn assemble(plan: &FaultPlan, checked: bool) -> Self {
        let horizon = plan.horizon() + 2 * LINK_MTF;
        let budget = horizon / TM_PERIOD;
        let cluster = AirCluster::new(sender_node(budget, checked), receiver_node(checked))
            .expect("freshly built nodes start in lockstep");
        Self {
            cluster,
            pending: plan.events().to_vec(),
            worst_sample_age: None,
            expected: budget,
            end: Self::planned_horizon(plan),
        }
    }

    /// The underlying cluster (traces, consoles, link health).
    pub fn cluster(&self) -> &AirCluster {
        &self.cluster
    }

    fn into_artifacts(self, plan: &FaultPlan) -> RunArtifacts {
        let health_a = self.cluster.link_health(Node::A);
        let health_b = self.cluster.link_health(Node::B);
        let delivered: Vec<u64> = self
            .cluster
            .node(Node::B)
            .console_of(P0)
            .lines()
            .filter_map(|l| l.strip_prefix("rx frame-")?.parse().ok())
            .collect();
        let events_a = self.cluster.node(Node::A).trace().events().to_vec();
        let (degraded_entries, degraded_exits, recovery_latency) = degraded_stats(&events_a);
        let outcome = LinkCampaignOutcome {
            plan: plan.clone(),
            report: Report::new(),
            expected: self.expected,
            delivered: delivered.len() as u64,
            retransmissions: health_a.retransmissions,
            duplicates_suppressed: health_b.duplicates_suppressed,
            failovers: health_a.failovers,
            reverts: health_a.reverts,
            degraded_entries,
            degraded_exits,
            recovery_latency,
            trace_log_a: self.cluster.node(Node::A).trace().render_log(),
            trace_log_b: self.cluster.node(Node::B).trace().render_log(),
            deterministic: false,
        };
        RunArtifacts {
            outcome,
            delivered,
            worst_sample_age: self.worst_sample_age,
            events_a,
        }
    }
}

impl Scenario for LinkSim {
    type Plan = FaultPlan;

    /// Both nodes pass the full build gate.
    fn build(plan: &FaultPlan) -> Self {
        Self::assemble(plan, true)
    }

    fn build_unchecked(plan: &FaultPlan) -> Self {
        Self::assemble(plan, false)
    }

    /// Traffic outlives the plan so late faults find frames to strike,
    /// and the drain covers the ARQ's worst-case repair plus the
    /// secondary-link probation and a few routing rounds.
    fn planned_horizon(plan: &FaultPlan) -> u64 {
        let horizon = plan.horizon() + 2 * LINK_MTF;
        let drain = ArqConfig::default().worst_case_delay() + REVERT_TICKS + 4 * LINK_MTF;
        horizon + drain
    }

    /// Both nodes run in lockstep.
    fn now(&self) -> u64 {
        self.cluster.now().as_u64()
    }

    /// The traffic horizon plus the drain.
    fn horizon(&self) -> u64 {
        self.end
    }

    /// Due link faults strike first, both nodes execute the tick in
    /// lockstep, and MTF boundaries probe the attitude sample's age.
    fn step(&mut self) {
        if self.is_done() {
            return;
        }
        let now = self.cluster.now().as_u64();
        realise_due_faults(&mut self.cluster, &mut self.pending, now);
        self.cluster.step();
        if self.cluster.now().as_u64().is_multiple_of(LINK_MTF) {
            probe_sample_age(&mut self.cluster, &mut self.worst_sample_age);
        }
    }

    /// Both nodes' canonical trace logs, headed `== node A ==` and
    /// `== node B ==`.
    fn render_trace_into(&self, out: &mut String) {
        out.push_str("== node A ==\n");
        self.cluster.node(Node::A).trace().render_log_into(out);
        out.push_str("== node B ==\n");
        self.cluster.node(Node::B).trace().render_log_into(out);
    }
}

fn execute(plan: &FaultPlan) -> RunArtifacts {
    let mut sim = LinkSim::build(plan);
    sim.run_to_horizon();
    sim.into_artifacts(plan)
}

/// Strikes every fault whose time has come. Drop- and tamper-style faults
/// need a frame in flight; when none is there yet, the fault stays armed
/// and strikes the first frame that shows up (still fully deterministic).
fn realise_due_faults(cluster: &mut AirCluster, pending: &mut Vec<FaultEvent>, now: u64) {
    pending.retain(|event| {
        if event.at > now {
            return true;
        }
        let realised = match event.class {
            // Destroy the newest telemetry frame on its second hop, inbound
            // to node B's adapter.
            FaultClass::LinkDrop => cluster.node_mut(Node::B).machine_mut().inject_link_drop(),
            // Corrupt a header byte of an inbound frame: the sequence /
            // channel region, so decode integrity must catch it.
            FaultClass::LinkBitFlip => {
                let byte = 2 + (event.target as usize % 8);
                let mask = ((event.target >> 8) as u8) | 0x01;
                cluster
                    .node_mut(Node::B)
                    .machine_mut()
                    .inject_link_tamper(byte, mask)
            }
            // A sustained outage of node A's active adapter: long enough to
            // cross the failover threshold before any retransmission lands.
            FaultClass::LinkOutage => {
                let duration = 220 + event.target % 80;
                cluster
                    .node_mut(Node::A)
                    .machine_mut()
                    .inject_link_outage(duration);
                true
            }
            // Destroy an acknowledgement on its first hop out of node B,
            // forcing a spurious retransmission A must dedupe.
            FaultClass::AckLoss => cluster
                .node_mut(Node::B)
                .machine_mut()
                .link
                .drop_in_flight_where(LinkEndpoint::B, bytes_look_like_ack),
            _ => true,
        };
        !realised
    });
}

/// Reads node B's attitude port at an MTF boundary and tracks the worst
/// observed sample age.
fn probe_sample_age(cluster: &mut AirCluster, worst: &mut Option<Ticks>) {
    let now = cluster.now();
    let node = cluster.node_mut(Node::B);
    if let Ok(port) = node.ipc_mut().registry_mut().sampling_port_mut(P0, "att") {
        if let Some(msg) = port.last_written() {
            let age = msg.age_at(now);
            if worst.is_none_or(|w| age > w) {
                *worst = Some(age);
            }
        }
    }
}

fn check_staleness(run: &RunArtifacts, report: &mut Report) {
    let bound = Ticks(ATT_REFRESH + ArqConfig::default().worst_case_delay() + REVERT_TICKS);
    if let Some(age) = run.worst_sample_age {
        if age > bound {
            report.record(Violation::StaleSample {
                at: Ticks::ZERO,
                age,
                bound,
            });
        }
    }
}

/// Outage plans must be *visible*: the failover, the degraded-mode entry
/// and the eventual exit all have to appear in node A's trace.
fn check_degradation_visibility(plan: &FaultPlan, run: &RunArtifacts, report: &mut Report) {
    let outages = plan
        .events()
        .iter()
        .filter(|e| e.class == FaultClass::LinkOutage)
        .count();
    if outages == 0 {
        return;
    }
    let failovers = run
        .events_a
        .iter()
        .filter(|e| {
            matches!(
                e,
                TraceEvent::LinkFailover {
                    to: LinkRole::Secondary,
                    ..
                }
            )
        })
        .count();
    let (entries, exits, _) = degraded_stats(&run.events_a);
    if failovers == 0 {
        report.record(Violation::FaultUndetected {
            at: Ticks::ZERO,
            fault: "link_outage produced no failover".to_owned(),
        });
    }
    if entries == 0 || exits < entries {
        report.record(Violation::FaultUndetected {
            at: Ticks::ZERO,
            fault: format!("degraded mode not fully traversed ({entries} entries, {exits} exits)"),
        });
    }
}

/// Degraded-mode entries/exits and the first failover→exit latency.
fn degraded_stats(events: &[TraceEvent]) -> (u64, u64, Option<u64>) {
    let mut entries = 0;
    let mut exits = 0;
    let mut first_failover: Option<Ticks> = None;
    let mut latency = None;
    for event in events {
        match event {
            TraceEvent::LinkFailover {
                at,
                to: LinkRole::Secondary,
            } if first_failover.is_none() => {
                first_failover = Some(*at);
            }
            TraceEvent::DegradedModeEntered { .. } => entries += 1,
            TraceEvent::DegradedModeExited { at, .. } => {
                exits += 1;
                if latency.is_none() {
                    if let Some(start) = first_failover {
                        latency = Some(at.as_u64().saturating_sub(start.as_u64()));
                    }
                }
            }
            _ => {}
        }
    }
    (entries, exits, latency)
}

fn schedules() -> ScheduleSet {
    let full = |id: ScheduleId, name: &str| {
        Schedule::new(
            id,
            name,
            Ticks(LINK_MTF),
            vec![PartitionRequirement::new(
                P0,
                Ticks(LINK_MTF),
                Ticks(LINK_MTF),
            )],
            vec![TimeWindow::new(P0, Ticks(0), Ticks(LINK_MTF))],
        )
    };
    ScheduleSet::new(vec![full(NOMINAL, "nominal"), full(DEGRADED, "degraded")])
}

/// Module-level link errors are logged, not answered with a module Reset:
/// the degraded-schedule switch *is* the recovery.
fn report_only_tables() -> HmTables {
    let mut tables = HmTables::standard();
    tables.system = SystemHmTable::standard().with_module_action(ModuleRecoveryAction::Ignore);
    tables
}

fn sender_node(budget: u64, checked: bool) -> crate::system::AirSystem {
    let mut config = MachineConfig::default();
    // A slower standby adapter: failover is survivable but observable.
    config.secondary_link_latency_ticks = Some(2 * config.link_latency_ticks);
    config.link_failover_threshold = FAILOVER_THRESHOLD;
    config.link_revert_ticks = REVERT_TICKS;
    let builder = SystemBuilder::new(schedules())
        .with_machine_config(config)
        .with_hm_tables(report_only_tables())
        .with_partition(
            PartitionConfig::new(Partition::new(P0, "OBDH"))
                .with_queuing_port(QueuingPortConfig::source("tm", 64, 16))
                .with_sampling_port(SamplingPortConfig::source("att", 64))
                .with_process(ProcessConfig::new(
                    ProcessAttributes::new("telemetry")
                        .with_recurrence(Recurrence::Periodic(Ticks(TM_PERIOD)))
                        .with_deadline(Deadline::relative(Ticks(TM_PERIOD)))
                        .with_base_priority(Priority(2)),
                    FiniteQueuingProducer::new("tm", budget),
                ))
                .with_process(ProcessConfig::new(
                    ProcessAttributes::new("attitude")
                        .with_recurrence(Recurrence::Periodic(Ticks(ATT_PERIOD)))
                        .with_deadline(Deadline::relative(Ticks(ATT_PERIOD)))
                        .with_base_priority(Priority(1)),
                    SamplingProducer::new("att", 1),
                )),
        )
        .with_channel(ChannelConfig {
            id: TM_CHANNEL,
            source: PortAddr::new(P0, "tm"),
            destinations: vec![Destination::Remote {
                addr: PortAddr::new(P0, "tm"),
            }],
        })
        .with_channel(ChannelConfig {
            id: ATT_CHANNEL,
            source: PortAddr::new(P0, "att"),
            destinations: vec![Destination::Remote {
                addr: PortAddr::new(P0, "att"),
            }],
        });
    let mut system = if checked {
        builder
            .build()
            .expect("link campaign sender node must build")
    } else {
        builder
            .build_unchecked()
            .expect("link campaign sender node must build")
    };
    system.set_degraded_schedule(DEGRADED);
    system
}

fn receiver_node(checked: bool) -> crate::system::AirSystem {
    let builder = SystemBuilder::new(schedules())
        .with_hm_tables(report_only_tables())
        .with_partition(
            PartitionConfig::new(Partition::new(P0, "GROUND-IF"))
                .with_queuing_port(QueuingPortConfig::destination("tm", 64, 16))
                .with_sampling_port(SamplingPortConfig::destination(
                    "att",
                    64,
                    Ticks(ATT_REFRESH),
                ))
                .with_process(ProcessConfig::new(
                    ProcessAttributes::new("downlink")
                        .with_recurrence(Recurrence::Periodic(Ticks(TM_PERIOD)))
                        .with_deadline(Deadline::relative(Ticks(TM_PERIOD)))
                        .with_base_priority(Priority(2)),
                    QueuingConsumer::new("tm"),
                ))
                .with_process(ProcessConfig::new(
                    ProcessAttributes::new("att-monitor")
                        .with_recurrence(Recurrence::Periodic(Ticks(ATT_PERIOD)))
                        .with_deadline(Deadline::relative(Ticks(ATT_PERIOD)))
                        .with_base_priority(Priority(1)),
                    SamplingConsumer::new("att"),
                )),
        )
        .with_channel(ChannelConfig {
            // Gateway entry: the source names the remote node's port.
            id: TM_CHANNEL,
            source: PortAddr::new(P0, "tm-remote-source"),
            destinations: vec![Destination::Local(PortAddr::new(P0, "tm"))],
        })
        .with_channel(ChannelConfig {
            id: ATT_CHANNEL,
            source: PortAddr::new(P0, "att-remote-source"),
            destinations: vec![Destination::Local(PortAddr::new(P0, "att"))],
        });
    if checked {
        builder
            .build()
            .expect("link campaign receiver node must build")
    } else {
        builder
            .build_unchecked()
            .expect("link campaign receiver node must build")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_plan_delivers_everything() {
        let outcome = LinkCampaignRunner::new(FaultPlan::empty()).run();
        assert!(outcome.is_ok(), "{}", outcome.report);
        assert_eq!(outcome.delivered, outcome.expected);
        assert_eq!(outcome.failovers, 0);
    }

    #[test]
    fn single_link_faults_cannot_lose_messages() {
        let outcome = LinkCampaignRunner::new(link_plan(7, 1)).run();
        assert!(outcome.is_ok(), "{}", outcome.report);
        assert_eq!(outcome.delivered, outcome.expected);
        assert!(outcome.retransmissions > 0);
        assert!(outcome.failovers > 0);
        assert!(outcome.degraded_entries > 0);
        assert!(outcome.degraded_exits >= outcome.degraded_entries);
    }
}
