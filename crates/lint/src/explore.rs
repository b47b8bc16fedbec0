//! Bounded exploration of the mode/HM configuration graph (AIR081–AIR087,
//! AIR095–AIR098).
//!
//! The per-schedule analyses check every scheduling table in isolation; this
//! stage checks their *composition*. The system is abstracted into the
//! finite transition system of [`air_model::explore`] — states are (active
//! schedule, per-partition mode, link health, ARQ health, mesh edge mask),
//! events are authority schedule requests (including racing request pairs),
//! process deadline faults, HM faults, link failover/recovery, ARQ
//! exhaustion/resync and per-edge mesh link toggles — and explored
//! breadth-first up to a configurable event depth by the level-synchronous
//! engine of [`air_model::explore::search`]. Safety invariants are
//! evaluated in every reachable state, directly on the packed
//! [`StateKey`]s with mask tests; each violation carries a
//! counterexample [`Witness`], the minimal event sequence from boot to the
//! bad state (BFS order guarantees minimality), in a stable text form that
//! `air-core` can parse back and replay against the concrete system.
//!
//! Invariants, and the recovery notion they use:
//!
//! * **AIR081** — a running partition that requires time somewhere is left
//!   windowless, and no *recovery path* restores its service;
//! * **AIR082** — no running authority partition holds a window, and no
//!   recovery path restores command capability;
//! * **AIR083** — a partition is stopped and no recovery path restarts it;
//! * **AIR084** — a cycle of commanded schedule switches restarts the same
//!   partition on every lap (unbounded restart churn);
//! * **AIR085** — a schedule that fails the per-schedule verification
//!   conditions is actually reachable;
//! * **AIR086** — in a degraded state, no running authority holds a window:
//!   recovery depends solely on the link coming back;
//! * **AIR095** — a reachable schedule cannot satisfy a partition's process
//!   deadlines even though the boot schedule can (deadline starvation
//!   *across* modes, invisible to the per-schedule AIR012 warning alone);
//! * **AIR096** — ARQ retransmit exhaustion is reachable and no recovery
//!   path ever resynchronises the transport;
//! * **AIR097** — link failover stops a partition that link recovery does
//!   not restart (the failover ratchet);
//! * **AIR087** — the system does not fit the packed state (more than 64
//!   mode bits or 32,768 schedules) and was not explored; an error, so the
//!   build gate refuses a system it cannot check;
//! * **AIR098** — the exploration hit its state cap before the requested
//!   depth, so any "no finding" verdict is incomplete, or the node routes
//!   over more than 16 mesh edges and only 16 were toggled.
//!
//! AIR084 and AIR097 are the two checks that read edges, and the search
//! graph stores none: each steps only its own events again from every
//! expanded state and looks the successors up in the graph's index
//! ([`restarting_request_edges`], [`link_down_edges`]).
//!
//! A *recovery path* is a sequence of controllable or design-transient
//! events: authority schedule requests plus link recovery (`link_up`) and
//! ARQ resync (`arq_recovered`). Faults are adversarial — a path that needs
//! a module fault to heal is not a recovery path. Link recovery is included
//! because degraded mode is transient by design (the paper's failover
//! protocol reverts on probation); configurations whose recovery *only*
//! hangs on the link are still surfaced via AIR086.

use std::collections::BTreeSet;

use air_hm::{ErrorId, ErrorLevel, EscalatedProcessAction, ProcessRecoveryAction};
use air_model::explore::search::{search, KeyMap, SearchEdge, SearchGraph};
use air_model::explore::{
    AbstractEvent, ExploreOptions, KeyTransition, StateKey, TransitionSystem,
    TransitionSystemError, Witness, MAX_MESH_EDGES,
};
use air_model::schedule::ScheduleSet;
use air_model::verify::{verify_schedule, Report};
use air_model::PartitionId;

use crate::diag::{Code, Diagnostic, LintReport};
use crate::model::SystemModel;
use crate::temporal::analyses;

/// Dedup subject of the AIR098 for a node routing over more than
/// [`MAX_MESH_EDGES`] mesh edges, distinct from the state-cap AIR098's 0.
const MESH_LIMIT_SUBJECT: u32 = 1;

/// Tuning knobs for [`explore_with`]: event depth, state cap (hitting it
/// raises AIR098), worker count and the partial-order reduction switch,
/// passed to the search engine as they are. `airlint --explore --depth N
/// --max-states M --workers W [--no-por]` sets them.
pub use air_model::explore::search::SearchConfig as ExploreConfig;

/// One invariant violation with its replayable path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// The diagnostic code of the violated invariant.
    pub code: Code,
    /// The dedup subject (a partition or schedule id, or 0): one finding
    /// is kept per `(code, subject)`.
    pub subject: u32,
    /// Minimal event sequence from boot to the violating state.
    pub witness: Witness,
    /// The full diagnostic message.
    pub message: String,
}

/// The outcome of a bounded exploration.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// The event depth explored to.
    pub depth: usize,
    /// Number of distinct abstract states reached within the depth.
    pub states_explored: usize,
    /// Whether the state cap truncated the search (also raised as AIR098).
    pub cap_hit: bool,
    /// The invariant findings, sorted into presentation order.
    pub report: LintReport,
    /// The findings again, each paired with its witness, for programmatic
    /// consumers (the builder gate and concrete replay).
    pub counterexamples: Vec<Counterexample>,
    /// Distinct per-schedule verification violations across all reachable
    /// states, merged and deduplicated (zero for a clean system).
    pub reachable_schedule_violations: usize,
}

impl Exploration {
    /// The witness of the first counterexample with `code`, if any.
    pub fn witness_for(&self, code: Code) -> Option<&Witness> {
        self.counterexamples
            .iter()
            .find(|c| c.code == code)
            .map(|c| &c.witness)
    }
}

/// Explores `model`'s mode/HM configuration graph and checks the invariants
/// in every reachable state.
///
/// Structural preconditions (a non-empty, duplicate-free schedule set) are
/// the province of the static analyses; when they fail, exploration returns
/// an empty report rather than duplicating their findings. A system too
/// large for the packed state (more than 64 mode bits or 32,768 schedules)
/// is not explored and gets the AIR087 error. A node routing over more than
/// 16 mesh edges is explored with 16 of them and gets the AIR098 warning;
/// mesh edges gate no invariant, so its findings are unaffected.
pub fn explore_with(model: &SystemModel, config: &ExploreConfig) -> Exploration {
    let mut findings = Findings::default();
    let ts = match build_transition_system(model) {
        None => return findings.into_exploration(config.depth, 0, false, 0),
        Some(Err(error)) => {
            findings.push(Code::ExplorationInfeasible, 0, || {
                let message = format!(
                    "the mode/HM graph was not explored: {error}; no \
                     reachable-state invariant was checked"
                );
                (Witness::default(), message)
            });
            return findings.into_exploration(config.depth, 0, false, 0);
        }
        Some(Ok(ts)) => ts,
    };
    let edges = mesh_edge_count(model);
    if edges > usize::from(MAX_MESH_EDGES) {
        findings.push(Code::ExplorationCapped, MESH_LIMIT_SUBJECT, || {
            let message = format!(
                "exploration incomplete: the node routes over {edges} mesh \
                 edges but a packed state tracks {MAX_MESH_EDGES}, so only \
                 {MAX_MESH_EDGES} were toggled; mesh edges gate no \
                 invariant, so the other findings are unaffected"
            );
            (Witness::default(), message)
        });
    }
    let graph = search(&ts, config);
    let ctx = InvariantCtx::new(model, &ts, config.max_states);
    let mut memo = RecoveryMemo::default();
    check_states(&ctx, &mut memo, &graph, &mut findings);
    check_failover_traps(&ctx, &graph, &mut findings);
    check_restart_loops(&ctx, &graph, &mut findings);
    let reachable_schedule_violations = check_reachable_schedules(&ctx, &graph, &mut findings);
    if graph.cap_hit {
        findings.push(Code::ExplorationCapped, 0, || {
            let message = format!(
                "exploration hit the state cap of {} ({} states kept, {} \
                 frontier states pending, {} successors dropped); findings \
                 may be incomplete — raise --max-states",
                config.max_states,
                graph.states.len(),
                graph.frontier_at_cap,
                graph.dropped_states
            );
            (Witness::default(), message)
        });
    }
    findings.into_exploration(
        config.depth,
        graph.states.len(),
        graph.cap_hit,
        reachable_schedule_violations,
    )
}

/// Builds the abstract transition system from the analysable snapshot, or
/// `None` when the snapshot is structurally unfit for exploration.
///
/// Public so the fuzz farm (`air-core`) can cross-validate abstract
/// predictions against concrete replay.
pub fn transition_system_for(model: &SystemModel) -> Option<TransitionSystem> {
    build_transition_system(model)?.ok()
}

/// [`transition_system_for`], keeping the reason a structurally sound
/// snapshot does not fit the packed state.
fn build_transition_system(
    model: &SystemModel,
) -> Option<Result<TransitionSystem, TransitionSystemError>> {
    let schedules = ScheduleSet::try_new(model.schedules.clone()).ok()?;
    let partitions: Vec<PartitionId> = model.partitions.iter().map(|p| p.id()).collect();
    let authorities: Vec<PartitionId> = model
        .partitions
        .iter()
        .filter(|p| p.may_set_module_schedule())
        .map(|p| p.id())
        .collect();
    let degraded = model
        .link
        .as_ref()
        .and_then(|l| l.degraded)
        .filter(|&d| schedules.get(d).is_some());
    let options = ExploreOptions {
        degraded_schedule: degraded,
        module_faults: module_faults_possible(model),
        partition_faults: partition_faults_possible(model),
        deadline_faults: deadline_fault_partitions(model),
        arq: model.arq.is_some() && model.link.is_some(),
        // Past the key's width the excess edges are not toggled;
        // `explore_with` reports that as AIR098.
        mesh_edges: mesh_edge_count(model).min(usize::from(MAX_MESH_EDGES)) as u8,
    };
    Some(TransitionSystem::new(
        schedules,
        partitions,
        authorities,
        options,
    ))
}

/// Whether any error id is classified at module level (`Reset` recovery).
///
/// `LinkDegraded` is excluded: its module-level classification is the
/// report-only degraded-mode trigger, modelled as a link event instead.
fn module_faults_possible(model: &SystemModel) -> bool {
    if model.hm_declared {
        model
            .hm_levels
            .iter()
            .any(|&(id, level)| level == ErrorLevel::Module && id != ErrorId::LinkDegraded)
    } else {
        // The runtime defaults (HmTables::standard) classify hardware
        // fault, power fail and config error at module level.
        true
    }
}

/// Whether any error id is classified at partition level (warm restart).
fn partition_faults_possible(model: &SystemModel) -> bool {
    if model.hm_declared {
        model
            .hm_levels
            .iter()
            .any(|&(_, level)| level == ErrorLevel::Partition)
    } else {
        true
    }
}

/// Partitions whose processes can miss deadlines as abstract self-loops:
/// those with at least one declared process whose effective
/// `deadline_missed` recovery cannot stop the partition (a stop would
/// change the abstract tuple, breaking the self-loop soundness).
fn deadline_fault_partitions(model: &SystemModel) -> Vec<PartitionId> {
    let mut with_processes: Vec<PartitionId> = model.processes.iter().map(|(p, _)| *p).collect();
    with_processes.sort_unstable();
    with_processes.dedup();
    with_processes.retain(|&p| {
        let handler = model
            .handlers
            .iter()
            .find(|(hp, err, _)| *hp == p && *err == ErrorId::DeadlineMissed)
            .map(|(_, _, action)| action);
        !matches!(
            handler,
            Some(ProcessRecoveryAction::StopPartition)
                | Some(ProcessRecoveryAction::LogThenAct {
                    then: EscalatedProcessAction::StopPartition,
                    ..
                })
        )
    });
    with_processes
}

/// The number of distinct next-hop mesh edges this node routes over.
fn mesh_edge_count(model: &SystemModel) -> usize {
    let mut vias: Vec<_> = model.routes.iter().map(|r| r.via).collect();
    vias.sort_unstable();
    vias.dedup();
    vias.len()
}

/// Precomputed facts shared by the per-state invariant checks, as masks
/// over the mode-word slots and vectors over the schedule indices of the
/// keys.
struct InvariantCtx<'a> {
    ts: &'a TransitionSystem,
    /// Declared partitions with their mode-word slots, by id.
    partitions: Vec<(PartitionId, usize)>,
    /// Slot bits of the partitions that require time under at least one
    /// schedule.
    time_requiring: u64,
    /// Per schedule index: slot bits of the partitions failing the
    /// supply-bound test under it.
    unschedulable: Vec<u64>,
    /// Per schedule index: the per-schedule verification verdict.
    verdicts: Vec<Report>,
    /// Slot bits of the authority partitions.
    authorities: u64,
    multiple_schedules: bool,
    has_authorities: bool,
    /// Cap on recovery-closure sizes (mirrors the search cap).
    closure_cap: usize,
}

impl<'a> InvariantCtx<'a> {
    fn new(model: &SystemModel, ts: &'a TransitionSystem, closure_cap: usize) -> Self {
        let bit = |p: PartitionId| ts.slot_of(p).map_or(0, |slot| 1u64 << slot);
        let time_requiring = ts
            .schedules()
            .iter()
            .flat_map(|s| s.requirements())
            .filter(|q| !q.duration.is_zero())
            .fold(0, |mask, q| mask | bit(q.partition));
        let mut unschedulable = vec![0u64; ts.schedules().len()];
        for (schedule, result) in analyses(model).iter().filter(|(_, r)| !r.all_schedulable()) {
            if let Some(mask) = ts
                .schedule_index(schedule.id())
                .and_then(|i| unschedulable.get_mut(i))
            {
                *mask |= bit(result.partition);
            }
        }
        Self {
            ts,
            partitions: ts
                .partitions()
                .into_iter()
                .filter_map(|p| ts.slot_of(p).map(|slot| (p, slot)))
                .collect(),
            time_requiring,
            unschedulable,
            verdicts: ts
                .schedules()
                .iter()
                .map(|s| verify_schedule(s, &model.partitions))
                .collect(),
            authorities: ts.authority_mask(),
            multiple_schedules: ts.schedules().len() > 1,
            has_authorities: ts.authority_mask() != 0,
            closure_cap: closure_cap.max(1),
        }
    }

    /// Whether any authority is running with a window in `key`.
    fn has_command(&self, key: StateKey) -> bool {
        self.authorities & self.ts.window_mask(key.schedule()) & !key.modes() != 0
    }

    /// AIR095's predicate: the partition at `bit` runs in `key` under a
    /// schedule that cannot meet its deadlines while the boot schedule can.
    fn deadline_starved(&self, key: StateKey, bit: u64) -> bool {
        let mask = |i: usize| self.unschedulable.get(i).copied().unwrap_or(0);
        key.modes() & bit == 0
            && key.schedule() != 0
            && mask(key.schedule()) & bit != 0
            && mask(0) & bit == 0
    }

    /// What the recovery paths from `key` reach, memoized on the mesh-free
    /// projection: recovery events never touch the mesh bits and no
    /// predicate reads them, so every mesh variant of a state shares one
    /// closure.
    fn recovery(&self, memo: &mut RecoveryMemo, key: StateKey) -> Recovery {
        let start = key.without_mesh();
        if let Some(&recovery) = memo.0.get(&start) {
            return recovery;
        }
        let recovery = self.recovery_closure(start);
        memo.0.insert(start, recovery);
        recovery
    }

    /// Walks the states reachable from `start` along recovery paths:
    /// authority schedule requests plus link recovery and ARQ resync.
    /// Faults are adversarial and excluded; mesh edge toggles are
    /// environmental and gate no invariant.
    fn recovery_closure(&self, start: StateKey) -> Recovery {
        let ts = self.ts;
        let mut seen: KeyMap<()> = KeyMap::default();
        seen.insert(start, ());
        let mut stack = vec![start];
        let mut events = Vec::new();
        while let Some(key) = stack.pop() {
            events.clear();
            ts.key_events(key, &mut events);
            for &event in &events {
                let controllable = matches!(
                    event,
                    AbstractEvent::ScheduleRequest { .. }
                        | AbstractEvent::LinkUp
                        | AbstractEvent::ArqRecovered
                );
                if !controllable {
                    continue;
                }
                let Some(t) = ts.step_key(key, event) else {
                    continue;
                };
                if seen.len() < self.closure_cap && seen.insert(t.key, ()).is_none() {
                    stack.push(t.key);
                }
            }
        }
        let arq = ts.options().arq;
        seen.keys().fold(Recovery::default(), |r, &key| {
            let running = !key.modes();
            Recovery {
                service: r.service | (ts.window_mask(key.schedule()) & running),
                running: r.running | running,
                arq_nominal: r.arq_nominal || (arq && !key.arq_exhausted()),
                command: r.command || self.has_command(key),
            }
        })
    }
}

/// What some state on a recovery path from a given state achieves.
#[derive(Debug, Clone, Copy, Default)]
struct Recovery {
    /// Slot bits of partitions running with a window.
    service: u64,
    /// Slot bits of running partitions.
    running: u64,
    /// Whether the ARQ transport is nominal.
    arq_nominal: bool,
    /// Whether an authority is running with a window.
    command: bool,
}

/// Recovery summaries by mesh-free key.
#[derive(Default)]
struct RecoveryMemo(KeyMap<Recovery>);

#[derive(Default)]
struct Findings {
    counterexamples: Vec<Counterexample>,
    /// Dedup key: one finding per (code, subject).
    flagged: BTreeSet<(Code, u32)>,
}

impl Findings {
    /// Records the first violation of `(code, subject)`; `describe` builds
    /// its witness and message only then.
    fn push(&mut self, code: Code, subject: u32, describe: impl FnOnce() -> (Witness, String)) {
        if self.flagged.insert((code, subject)) {
            let (witness, message) = describe();
            self.counterexamples.push(Counterexample {
                code,
                subject,
                witness,
                message,
            });
        }
    }

    fn into_exploration(
        self,
        depth: usize,
        states_explored: usize,
        cap_hit: bool,
        reachable_schedule_violations: usize,
    ) -> Exploration {
        let mut report = LintReport::new();
        for c in &self.counterexamples {
            report.push(Diagnostic::new(c.code, c.message.clone()));
        }
        report.finish();
        Exploration {
            depth,
            states_explored,
            cap_hit,
            report,
            counterexamples: self.counterexamples,
            reachable_schedule_violations,
        }
    }
}

/// Per-state invariants: starvation (AIR081), lost authority (AIR082),
/// unrecoverable stops (AIR083), degraded traps (AIR086), cross-mode
/// deadline starvation (AIR095) and unrecoverable ARQ exhaustion (AIR096).
fn check_states(
    ctx: &InvariantCtx<'_>,
    memo: &mut RecoveryMemo,
    graph: &SearchGraph,
    findings: &mut Findings,
) {
    let ts = ctx.ts;
    for (idx, &key) in graph.states.iter().enumerate() {
        let schedule = ts.schedule_id(key.schedule());
        let windows = ts.window_mask(key.schedule());
        let witness = || {
            let witness = graph.witness_of(idx);
            let rendered = witness.render();
            (witness, rendered)
        };
        for &(p, slot) in &ctx.partitions {
            let bit = 1u64 << slot;
            let running = key.modes() & bit == 0;
            let starved = running && ctx.time_requiring & bit != 0 && windows & bit == 0;
            if starved && ctx.recovery(memo, key).service & bit == 0 {
                findings.push(Code::ModeStarvation, p.as_u32(), || {
                    let (witness, path) = witness();
                    let message = format!(
                        "partition {p} requires time but is left without \
                         a window under {schedule}; reachable via: {path}; \
                         no command path restores its service"
                    );
                    (witness, message)
                });
            }
            if !running && ctx.recovery(memo, key).running & bit == 0 {
                findings.push(Code::StoppedPartitionUnrecoverable, p.as_u32(), || {
                    let (witness, path) = witness();
                    let message = format!(
                        "partition {p} is stopped and no command path \
                             ever restarts it; reachable via: {path}"
                    );
                    (witness, message)
                });
            }
            // AIR095: this state's schedule cannot satisfy p's process
            // deadlines, while the boot schedule can — so a mode change
            // (not the task set itself) starves the deadlines.
            if ctx.deadline_starved(key, bit) {
                findings.push(Code::DeadlineStarvationAcrossModes, p.as_u32(), || {
                    let (witness, path) = witness();
                    let message = format!(
                        "processes of {p} are schedulable under boot \
                             schedule {} but may miss deadlines under \
                             reachable schedule {schedule}; reachable via: \
                             {path}",
                        ts.schedule_id(0)
                    );
                    (witness, message)
                });
            }
        }

        // AIR096: exhausted ARQ with no resync on any recovery path.
        if key.arq_exhausted() && !ctx.recovery(memo, key).arq_nominal {
            findings.push(Code::ArqExhaustionUnrecoverable, 0, || {
                let (witness, path) = witness();
                let message = format!(
                    "the ARQ retransmit budget can be exhausted with no \
                     recovery path that resynchronises the transport; \
                     reachable via: {path}; bind a degraded schedule to the \
                     link so exhaustion has a repair path"
                );
                (witness, message)
            });
        }

        if ctx.multiple_schedules && ctx.has_authorities && !ctx.has_command(key) {
            if let Some(nominal) = key.saved_schedule() {
                findings.push(Code::DegradedScheduleTrap, schedule.as_u32(), || {
                    let (witness, path) = witness();
                    let message = format!(
                        "under degraded schedule {schedule} no running \
                             authority partition holds a window; recovery to \
                             {} depends solely on the link being restored; \
                             reachable via: {path}",
                        ts.schedule_id(nominal)
                    );
                    (witness, message)
                });
            } else if !ctx.recovery(memo, key).command {
                findings.push(Code::AuthorityLostAcrossModes, 0, || {
                    let (witness, path) = witness();
                    let message = format!(
                        "no running authority partition holds a window \
                         under {schedule}; the module can never change \
                         schedule again; reachable via: {path}"
                    );
                    (witness, message)
                });
            }
        }
    }
}

/// AIR097: a `link_down` edge stops a partition that the matching
/// `link_up` does not restart — the failover ratchets the partition off.
fn check_failover_traps(ctx: &InvariantCtx<'_>, graph: &SearchGraph, findings: &mut Findings) {
    let ts = ctx.ts;
    for edge in link_down_edges(ts, graph) {
        let before = graph.states[edge.from as usize];
        let after = graph.states[edge.to as usize];
        // Running before the failover, stopped after it.
        let ratcheted = !before.modes() & after.modes();
        if ctx
            .partitions
            .iter()
            .all(|&(_, slot)| (ratcheted >> slot) & 1 == 0)
        {
            continue;
        }
        let Some(recovered) = ts.step_key(after, AbstractEvent::LinkUp) else {
            continue;
        };
        for &(p, slot) in &ctx.partitions {
            let bit = 1u64 << slot;
            if ratcheted & bit == 0 || recovered.key.modes() & bit == 0 {
                continue;
            }
            findings.push(Code::FailoverScheduleTrap, p.as_u32(), || {
                let mut witness = graph.witness_of(edge.to as usize);
                witness.events.push(AbstractEvent::LinkUp);
                let message = format!(
                    "link failover into {} stops partition {p}, and link \
                     recovery back to {} does not restart it; the failover \
                     ratchets the partition off: {}; add a restart action \
                     for {p} to the nominal schedule",
                    ts.schedule_id(after.schedule()),
                    ts.schedule_id(recovered.key.schedule()),
                    witness.render()
                );
                (witness, message)
            });
        }
    }
}

/// AIR084: a cycle of commanded schedule switches that restarts the same
/// partition on every lap.
fn check_restart_loops(ctx: &InvariantCtx<'_>, graph: &SearchGraph, findings: &mut Findings) {
    // One pass over the restarting edges builds every partition's
    // subgraph of commanded-switch edges that restart it.
    let mut restarting: Vec<Vec<SearchEdge>> = vec![Vec::new(); ctx.partitions.len()];
    for edge in restarting_request_edges(ctx.ts, graph) {
        for (edges, &(_, slot)) in restarting.iter_mut().zip(&ctx.partitions) {
            if edge.restarts(slot) {
                edges.push(edge);
            }
        }
    }
    for (&(p, _), edges) in ctx.partitions.iter().zip(&restarting) {
        if edges.is_empty() {
            continue;
        }
        let Some(cycle) = find_cycle(graph.states.len(), edges) else {
            continue;
        };
        let entry = cycle[0].from as usize;
        findings.push(Code::RestartLoop, p.as_u32(), || {
            let witness = graph.witness_of(entry);
            let lap: Vec<String> = cycle.iter().map(|e| e.event.to_string()).collect();
            let message = format!(
                "schedule-switch cycle restarts {p} on every lap: {}; cycle \
                 entered via: {}; repeated switching restarts the partition \
                 unboundedly",
                lap.join("; "),
                witness.render()
            );
            (witness, message)
        });
    }
}

/// The `link_down` edges of `graph`, searched over `ts`, in edge order:
/// the edges AIR097 reads.
///
/// The graph stores no edges, so every expanded state steps `link_down`
/// again. Like every global event, `link_down` is never pruned by the
/// partial-order reduction, so this is exactly the `link_down` part of
/// [`SearchGraph::edges`] at a fraction of its cost.
pub fn link_down_edges(ts: &TransitionSystem, graph: &SearchGraph) -> Vec<SearchEdge> {
    stored_edges(
        graph,
        ts,
        |_, events| events.push(AbstractEvent::LinkDown),
        |_| true,
    )
}

/// The schedule-request edges of `graph`, searched over `ts`, that restart
/// at least one partition, in edge order: the edges AIR084 reads.
///
/// The graph stores no edges, so every expanded state steps its schedule
/// requests again, in [`TransitionSystem::key_events`] order. Requests are
/// global events, never pruned by the partial-order reduction, so this is
/// exactly the restarting-request part of [`SearchGraph::edges`].
pub fn restarting_request_edges(ts: &TransitionSystem, graph: &SearchGraph) -> Vec<SearchEdge> {
    stored_edges(
        graph,
        ts,
        |key, events| ts.schedule_requests(key, events),
        |t| t.restarted != 0,
    )
}

/// The edges of `graph` out of its expanded states for the events
/// `events` lists in each state, in edge order, keeping those whose
/// transition `keep` accepts. A successor that the graph's index does not
/// know was dropped at the state cap, so its transition is no edge.
fn stored_edges(
    graph: &SearchGraph,
    ts: &TransitionSystem,
    mut events: impl FnMut(StateKey, &mut Vec<AbstractEvent>),
    keep: impl Fn(&KeyTransition) -> bool,
) -> Vec<SearchEdge> {
    let mut edges = Vec::new();
    let mut enabled = Vec::new();
    for (from, &key) in graph.states.iter().take(graph.expanded).enumerate() {
        enabled.clear();
        events(key, &mut enabled);
        for &event in &enabled {
            let Some(t) = ts.step_key(key, event).filter(&keep) else {
                continue;
            };
            if let Some(to) = graph.index_of(t.key) {
                edges.push(SearchEdge {
                    from: from as u32,
                    event,
                    restarted: t.restarted,
                    to,
                });
            }
        }
    }
    edges
}

/// Finds a directed cycle in `edges` (indices into a `node_count`-node
/// graph), returning its edge sequence, or `None`. Roots are tried in
/// ascending node order and each node's edges in the given order.
fn find_cycle(node_count: usize, edges: &[SearchEdge]) -> Option<Vec<&SearchEdge>> {
    // Adjacency as one sorted run of `(from, to, edge)` per node, with the
    // endpoints inline so the walk stays in this array; the sort is
    // stable, so each node keeps its edges in the given order.
    let mut sorted: Vec<(u32, u32, &SearchEdge)> =
        edges.iter().map(|e| (e.from, e.to, e)).collect();
    sorted.sort_by_key(|&(from, _, _)| from);
    let out_of = |node: u32| {
        let lo = sorted.partition_point(|&(from, _, _)| from < node);
        (
            lo,
            lo + sorted[lo..].partition_point(|&(from, _, _)| from == node),
        )
    };
    let mut visited = vec![false; node_count];
    // Every entry is false again once a root's DFS unwinds, so one buffer
    // serves all roots.
    let mut on_path = vec![false; node_count];
    // Tree edges from the root to the node on top of the stack.
    let mut path: Vec<usize> = Vec::new();
    // Each stack entry is (node, next adjacency position, run end).
    let mut stack: Vec<(u32, usize, usize)> = Vec::new();
    for &(start, _, _) in &sorted {
        if visited[start as usize] {
            continue;
        }
        let (lo, hi) = out_of(start);
        stack.push((start, lo, hi));
        on_path[start as usize] = true;
        visited[start as usize] = true;
        while let Some(&mut (node, ref mut next, end)) = stack.last_mut() {
            if *next == end {
                stack.pop();
                on_path[node as usize] = false;
                path.pop();
                continue;
            }
            let position = *next;
            *next += 1;
            let (_, to, _) = sorted[position];
            if on_path[to as usize] {
                // Back edge: the cycle is the path suffix from `to`,
                // closed by this edge.
                let mut cycle: Vec<&SearchEdge> = path
                    .iter()
                    .map(|&i| sorted[i].2)
                    .skip_while(|e| e.from != to)
                    .collect();
                cycle.push(sorted[position].2);
                return Some(cycle);
            }
            if !visited[to as usize] {
                visited[to as usize] = true;
                on_path[to as usize] = true;
                path.push(position);
                let (lo, hi) = out_of(to);
                stack.push((to, lo, hi));
            }
        }
    }
    None
}

/// AIR085: every reachable schedule must satisfy the per-schedule
/// verification conditions.
///
/// Each distinct reachable schedule is verified once (its verdict is the
/// same on every path that reaches it) and the verdicts are accumulated
/// through [`Report::merge`], which deduplicates. The merged total is
/// returned (and exposed as
/// [`Exploration::reachable_schedule_violations`]).
fn check_reachable_schedules(
    ctx: &InvariantCtx<'_>,
    graph: &SearchGraph,
    findings: &mut Findings,
) -> usize {
    let ts = ctx.ts;
    let mut first_reached: Vec<Option<usize>> = vec![None; ctx.verdicts.len()];
    for (idx, key) in graph.states.iter().enumerate() {
        if let Some(first) = first_reached.get_mut(key.schedule()) {
            first.get_or_insert(idx);
        }
    }
    let mut reached: Vec<(usize, usize)> = first_reached
        .iter()
        .enumerate()
        .filter_map(|(schedule, first)| first.map(|idx| (schedule, idx)))
        .collect();
    reached.sort_by_key(|&(schedule, _)| ts.schedule_id(schedule));
    let mut merged = Report::new();
    for (index, idx) in reached {
        let Some(verdict) = ctx.verdicts.get(index) else {
            continue;
        };
        if !verdict.is_ok() {
            let schedule = ts.schedule_id(index);
            let count = verdict.violations().len();
            findings.push(Code::ReachableScheduleUnclean, schedule.as_u32(), || {
                let witness = graph.witness_of(idx);
                let message = format!(
                    "schedule {schedule} is reachable via: {}; but violates \
                     {count} per-schedule verification condition(s) — the \
                     module can be commanded into an invalid table",
                    witness.render()
                );
                (witness, message)
            });
        }
        merged.merge(verdict.clone());
    }
    merged.violations().len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint_config_text;

    fn explored(text: &str, depth: usize) -> Exploration {
        explore_with(
            &model_of(text),
            &ExploreConfig {
                depth,
                ..ExploreConfig::default()
            },
        )
    }

    fn model_of(text: &str) -> SystemModel {
        let doc = air_tools::config::parse(text).expect("config parses");
        SystemModel::from_config(&doc)
    }

    /// The seeded bad configuration of the acceptance criteria: per-schedule
    /// lint passes (chi1 is a perfectly valid table that simply omits P0),
    /// but one authority request starves P0 forever.
    const STARVATION: &str = "\
partition P0 name=AOCS authority=true
partition P1 name=PAYLOAD
schedule chi0 name=ops mtf=100
  require P0 cycle=100 duration=40
  require P1 cycle=100 duration=40
  window P0 offset=0 duration=40
  window P1 offset=40 duration=40
schedule chi1 name=payload-only mtf=100
  require P1 cycle=100 duration=80
  window P1 offset=0 duration=80
";

    #[test]
    fn seeded_starvation_passes_per_schedule_lint() {
        let report = lint_config_text(STARVATION);
        assert!(!report.has_errors(), "{report}");
    }

    #[test]
    fn seeded_starvation_is_found_with_a_minimal_witness() {
        let ex = explored(STARVATION, 2);
        assert!(ex.report.has_code(Code::ModeStarvation), "{}", ex.report);
        assert!(ex.report.has_errors());
        let witness = ex.witness_for(Code::ModeStarvation).expect("witness");
        assert_eq!(witness.render(), "request(P0->chi1)");
        // The same state also loses schedule authority (P0 was the only
        // authority and chi1 gives it no window).
        assert!(
            ex.report.has_code(Code::AuthorityLostAcrossModes),
            "{}",
            ex.report
        );
        // The witness survives a serialisation round trip.
        let reparsed = Witness::parse(&witness.render()).expect("parses");
        assert_eq!(&reparsed, witness);
    }

    #[test]
    fn starvation_with_a_way_back_is_clean() {
        // Give P1 authority too: it keeps a window under chi1, so a command
        // path back to chi0 always exists and nothing is starved for good.
        let text = STARVATION.replace("name=PAYLOAD", "name=PAYLOAD authority=true");
        let ex = explored(&text, 3);
        assert!(!ex.report.has_code(Code::ModeStarvation), "{}", ex.report);
        assert!(!ex.report.has_errors(), "{}", ex.report);
    }

    #[test]
    fn depth_zero_explores_only_the_initial_state() {
        let ex = explored(STARVATION, 0);
        assert_eq!(ex.states_explored, 1);
        assert!(ex.report.is_empty(), "{}", ex.report);
    }

    #[test]
    fn stop_action_without_restart_is_air083() {
        let text = "\
partition P0 name=AOCS authority=true
partition P1 name=PAYLOAD
schedule chi0 name=ops mtf=100
  require P0 cycle=100 duration=40
  require P1 cycle=100 duration=40
  window P0 offset=0 duration=40
  window P1 offset=40 duration=40
schedule chi1 name=shed mtf=100
  require P0 cycle=100 duration=40
  require P1 cycle=100 duration=40
  window P0 offset=0 duration=40
  window P1 offset=40 duration=40
  action P1 stop
";
        let ex = explored(text, 2);
        assert!(
            ex.report.has_code(Code::StoppedPartitionUnrecoverable),
            "{}",
            ex.report
        );
        assert!(!ex.report.has_errors(), "{}", ex.report);
    }

    #[test]
    fn stop_action_with_restart_on_return_is_clean() {
        let text = "\
partition P0 name=AOCS authority=true
partition P1 name=PAYLOAD
schedule chi0 name=ops mtf=100
  require P0 cycle=100 duration=40
  require P1 cycle=100 duration=40
  window P0 offset=0 duration=40
  window P1 offset=40 duration=40
  action P1 warm_restart
schedule chi1 name=shed mtf=100
  require P0 cycle=100 duration=40
  require P1 cycle=100 duration=40
  window P0 offset=0 duration=40
  window P1 offset=40 duration=40
  action P1 stop
";
        let ex = explored(text, 3);
        assert!(
            !ex.report.has_code(Code::StoppedPartitionUnrecoverable),
            "{}",
            ex.report
        );
        assert!(ex.report.is_empty(), "{}", ex.report);
    }

    #[test]
    fn mutual_restart_actions_are_a_restart_loop() {
        let text = "\
partition P0 name=AOCS authority=true
schedule chi0 name=a mtf=100
  require P0 cycle=100 duration=60
  window P0 offset=0 duration=60
  action P0 warm_restart
schedule chi1 name=b mtf=100
  require P0 cycle=100 duration=60
  window P0 offset=0 duration=60
  action P0 warm_restart
";
        let ex = explored(text, 2);
        assert!(ex.report.has_code(Code::RestartLoop), "{}", ex.report);
        assert!(!ex.report.has_errors(), "{}", ex.report);
    }

    #[test]
    fn degraded_schedule_without_authority_window_is_a_trap() {
        // P0 is a non-real-time command console (duration 0), so losing its
        // window is not starvation — but while degraded no one can command
        // a schedule change, and recovery hangs entirely on the link.
        let text = "\
partition P0 name=OBDH authority=true
partition P1 name=PAYLOAD
schedule chi0 name=nominal mtf=100
  require P0 cycle=100 duration=0
  require P1 cycle=100 duration=40
  window P0 offset=0 duration=40
  window P1 offset=40 duration=40
schedule chi1 name=degraded mtf=100
  require P1 cycle=100 duration=80
  window P1 offset=0 duration=80
link primary_latency=3 secondary_latency=6 degraded=chi1
";
        let ex = explored(text, 2);
        assert!(
            ex.report.has_code(Code::DegradedScheduleTrap),
            "{}",
            ex.report
        );
        assert!(!ex.report.has_code(Code::ModeStarvation), "{}", ex.report);
        // Commanding into chi1 voluntarily (link still up) also loses
        // authority for good — flagged separately.
        assert!(
            ex.report.has_code(Code::AuthorityLostAcrossModes),
            "{}",
            ex.report
        );
        assert!(!ex.report.has_errors(), "{}", ex.report);
        let witness = ex.witness_for(Code::DegradedScheduleTrap).expect("witness");
        assert_eq!(witness.render(), "link_down");
    }

    #[test]
    fn reachable_unclean_schedule_is_air085() {
        let text = "\
partition P0 name=AOCS authority=true
partition P1 name=PAYLOAD
schedule chi0 name=ops mtf=100
  require P0 cycle=100 duration=40
  window P0 offset=0 duration=40
schedule chi1 name=broken mtf=100
  require P0 cycle=100 duration=40
  require P1 cycle=100 duration=40
  window P0 offset=0 duration=40
";
        let ex = explored(text, 2);
        assert!(
            ex.report.has_code(Code::ReachableScheduleUnclean),
            "{}",
            ex.report
        );
        assert!(ex.reachable_schedule_violations > 0);
        let witness = ex
            .witness_for(Code::ReachableScheduleUnclean)
            .expect("witness");
        assert_eq!(witness.render(), "request(P0->chi1)");
    }

    #[test]
    fn merged_violations_deduplicate_across_paths() {
        // chi1 (unclean) is reachable from chi0 and from chi2 — several
        // states share it; the merged count must stay the per-schedule one.
        let text = "\
partition P0 name=AOCS authority=true
schedule chi0 name=a mtf=100
  require P0 cycle=100 duration=60
  window P0 offset=0 duration=60
schedule chi1 name=broken mtf=100
  require P0 cycle=100 duration=60
schedule chi2 name=c mtf=100
  require P0 cycle=100 duration=60
  window P0 offset=0 duration=60
";
        let ex = explored(text, 3);
        // chi1 violates exactly one condition (PartitionWithoutWindows);
        // reached along many interleavings, it still counts once.
        assert_eq!(ex.reachable_schedule_violations, 1, "{}", ex.report);
    }

    #[test]
    fn full_system_example_is_explorer_clean_and_nondegenerate() {
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/full_system.air"
        ))
        .expect("example readable");
        let ex = explored(&text, 3);
        assert!(ex.report.is_empty(), "{}", ex.report);
        assert!(
            ex.states_explored > 16,
            "the benchmark example must exercise the checker, got {}",
            ex.states_explored
        );
    }

    /// A second schedule that shrinks P1's supply below its WCET: AIR012
    /// flags the pair statically, AIR095 flags that the mode is reachable.
    const CROSS_MODE_DEADLINE: &str = "\
partition P0 name=AOCS authority=true
partition P1 name=SCIENCE
schedule chi0 name=ops mtf=100
  require P0 cycle=100 duration=20
  require P1 cycle=100 duration=60
  window P0 offset=0 duration=20
  window P1 offset=20 duration=60
schedule chi1 name=comms mtf=100
  require P0 cycle=100 duration=20
  require P1 cycle=100 duration=10
  window P0 offset=0 duration=20
  window P1 offset=20 duration=10
process P1 name=filter period=100 deadline=100 wcet=50 priority=1
";

    #[test]
    fn cross_mode_deadline_starvation_is_air095() {
        let ex = explored(CROSS_MODE_DEADLINE, 2);
        assert!(
            ex.report.has_code(Code::DeadlineStarvationAcrossModes),
            "{}",
            ex.report
        );
        assert!(!ex.report.has_errors(), "{}", ex.report);
        let witness = ex
            .witness_for(Code::DeadlineStarvationAcrossModes)
            .expect("witness");
        assert_eq!(witness.render(), "request(P0->chi1)");
    }

    #[test]
    fn arq_without_degraded_schedule_is_air096() {
        let text = "\
partition P0 name=OBDH authority=true
schedule chi0 name=ops mtf=100
  require P0 cycle=100 duration=80
  window P0 offset=0 duration=80
queuing P0 name=tm dir=source size=64 depth=8
link primary_latency=3 secondary_latency=6 failover_threshold=2
arq window=8 timeout=24
channel 50 from=P0:tm to=remote:P0:tm
";
        let ex = explored(text, 2);
        assert!(
            ex.report.has_code(Code::ArqExhaustionUnrecoverable),
            "{}",
            ex.report
        );
        let witness = ex
            .witness_for(Code::ArqExhaustionUnrecoverable)
            .expect("witness");
        assert_eq!(witness.render(), "arq_exhausted");
    }

    #[test]
    fn arq_with_degraded_schedule_recovers() {
        let text = "\
partition P0 name=OBDH authority=true
schedule chi0 name=ops mtf=100
  require P0 cycle=100 duration=80
  window P0 offset=0 duration=80
schedule chi1 name=degraded mtf=100
  require P0 cycle=100 duration=80
  window P0 offset=0 duration=80
queuing P0 name=tm dir=source size=64 depth=8
link primary_latency=3 secondary_latency=6 failover_threshold=2 degraded=chi1
arq window=8 timeout=24
channel 50 from=P0:tm to=remote:P0:tm
";
        let ex = explored(text, 3);
        assert!(
            !ex.report.has_code(Code::ArqExhaustionUnrecoverable),
            "{}",
            ex.report
        );
    }

    #[test]
    fn failover_stop_without_restart_is_air097() {
        let text = "\
partition P0 name=CMD authority=true
partition P1 name=PAYLOAD
schedule chi0 name=ops mtf=100
  require P0 cycle=100 duration=40
  require P1 cycle=100 duration=40
  window P0 offset=0 duration=40
  window P1 offset=40 duration=40
schedule chi1 name=degraded mtf=100
  require P0 cycle=100 duration=40
  require P1 cycle=100 duration=40
  window P0 offset=0 duration=40
  window P1 offset=40 duration=40
  action P1 stop
schedule chi2 name=recover mtf=100
  require P0 cycle=100 duration=40
  require P1 cycle=100 duration=40
  window P0 offset=0 duration=40
  window P1 offset=40 duration=40
  action P1 warm_restart
link primary_latency=3 secondary_latency=6 degraded=chi1
";
        let ex = explored(text, 3);
        assert!(
            ex.report.has_code(Code::FailoverScheduleTrap),
            "{}",
            ex.report
        );
        // chi2 restarts P1 on command, so the stop is not unrecoverable.
        assert!(
            !ex.report.has_code(Code::StoppedPartitionUnrecoverable),
            "{}",
            ex.report
        );
        let witness = ex.witness_for(Code::FailoverScheduleTrap).expect("witness");
        assert_eq!(witness.render(), "link_down; link_up");
    }

    #[test]
    fn state_cap_raises_air098_with_counts() {
        let ex_capped = {
            let model = model_of(STARVATION);
            explore_with(
                &model,
                &ExploreConfig {
                    depth: 3,
                    max_states: 1,
                    ..ExploreConfig::default()
                },
            )
        };
        assert!(ex_capped.cap_hit);
        assert!(
            ex_capped.report.has_code(Code::ExplorationCapped),
            "{}",
            ex_capped.report
        );
        assert_eq!(ex_capped.states_explored, 1);
        // An uncapped run of the same system stays AIR098-free.
        let ex_free = explored(STARVATION, 3);
        assert!(!ex_free.cap_hit);
        assert!(!ex_free.report.has_code(Code::ExplorationCapped));
    }

    #[test]
    fn parallel_exploration_matches_sequential() {
        for workers in [2, 4] {
            let model = model_of(STARVATION);
            let seq = explore_with(
                &model,
                &ExploreConfig {
                    depth: 3,
                    ..ExploreConfig::default()
                },
            );
            let par = explore_with(
                &model,
                &ExploreConfig {
                    depth: 3,
                    workers,
                    ..ExploreConfig::default()
                },
            );
            assert_eq!(seq.states_explored, par.states_explored);
            assert_eq!(seq.counterexamples, par.counterexamples);
        }
    }

    #[test]
    fn find_cycle_survives_many_acyclic_roots() {
        let edge = |from: u32, to: u32| SearchEdge {
            from,
            event: AbstractEvent::ScheduleRequest {
                by: PartitionId(0),
                to: air_model::ScheduleId(to % 3),
            },
            restarted: 1,
            to,
        };
        // 2000 roots with one acyclic edge each, one root leading into the
        // cycle 5000 -> 5001 -> 5002 -> 5000, and more roots after it.
        let mut edges: Vec<SearchEdge> = (0..2000).map(|i| edge(i, 10_000 + i)).collect();
        edges.push(edge(4000, 5000));
        edges.extend([edge(5000, 5001), edge(5001, 5002), edge(5002, 5000)]);
        edges.extend((6000..8000).map(|i| edge(i, 12_000 + i)));
        let cycle = find_cycle(20_000, &edges).expect("the cycle is found");
        let hops: Vec<(u32, u32)> = cycle.iter().map(|e| (e.from, e.to)).collect();
        assert_eq!(hops, vec![(5000, 5001), (5001, 5002), (5002, 5000)]);
        // Without the closing edge the subgraph is acyclic.
        let acyclic: Vec<SearchEdge> = edges.into_iter().filter(|e| e.from != 5002).collect();
        assert!(find_cycle(20_000, &acyclic).is_none());
    }

    /// chi1 (no window for P2) is reachable by request from both
    /// authorities and by link failover; chi3 overlaps two windows.
    const UNCLEAN_ON_MANY_PATHS: &str = "\
partition P0 name=AOCS authority=true
partition P1 name=AUX authority=true
partition P2 name=PAYLOAD
schedule chi0 name=ops mtf=100
  require P0 cycle=100 duration=30
  require P1 cycle=100 duration=30
  require P2 cycle=100 duration=30
  window P0 offset=0 duration=30
  window P1 offset=30 duration=30
  window P2 offset=60 duration=30
schedule chi1 name=broken mtf=100
  require P0 cycle=100 duration=30
  require P1 cycle=100 duration=30
  require P2 cycle=100 duration=30
  window P0 offset=0 duration=30
  window P1 offset=30 duration=30
schedule chi2 name=alt mtf=100
  require P0 cycle=100 duration=30
  require P1 cycle=100 duration=30
  require P2 cycle=100 duration=30
  window P0 offset=0 duration=30
  window P1 offset=30 duration=30
  window P2 offset=60 duration=30
  action P2 stop
schedule chi3 name=overbooked mtf=100
  require P0 cycle=100 duration=30
  require P1 cycle=100 duration=30
  require P2 cycle=100 duration=50
  window P0 offset=0 duration=30
  window P1 offset=30 duration=30
  window P2 offset=50 duration=50
link primary_latency=2 secondary_latency=4 degraded=chi1
";

    /// Renders each finding as `code subject witness`.
    fn findings_of(ex: &Exploration) -> Vec<String> {
        ex.counterexamples
            .iter()
            .map(|c| format!("{} {} {}", c.code, c.subject, c.witness.render()))
            .collect()
    }

    #[test]
    fn reachable_schedule_violations_count_each_schedule_once() {
        // Pinned from the per-state implementation: every reachable state
        // re-verified its schedule and the merge deduplicated.
        for (depth, states) in [(1, 5), (2, 15), (3, 31), (4, 40), (6, 40)] {
            let ex = explored(UNCLEAN_ON_MANY_PATHS, depth);
            assert_eq!(ex.states_explored, states, "depth {depth}");
            assert_eq!(ex.reachable_schedule_violations, 2, "depth {depth}");
            assert_eq!(
                findings_of(&ex),
                [
                    "AIR083 2 request(P0->chi2)",
                    "AIR085 1 request(P0->chi1)",
                    "AIR085 3 request(P0->chi3)",
                ],
                "depth {depth}"
            );
        }
    }

    /// An undeclared P7 owns windows in chi1 (restarted there) and chi2
    /// (stopped there): AIR005/AIR020 territory, but the explorer must
    /// still track P7 once an action inserts it, including through a
    /// later module reset.
    const UNDECLARED_TARGET: &str = "\
partition P0 name=CMD authority=true
partition P1 name=PAYLOAD
schedule chi0 name=ops mtf=100
  require P0 cycle=100 duration=40
  require P1 cycle=100 duration=40
  window P0 offset=0 duration=40
  window P1 offset=40 duration=40
schedule chi1 name=spare mtf=100
  require P0 cycle=100 duration=40
  require P1 cycle=100 duration=20
  window P0 offset=0 duration=40
  window P1 offset=40 duration=20
  window P7 offset=60 duration=20
  action P7 warm_restart
schedule chi2 name=quiet mtf=100
  require P0 cycle=100 duration=40
  window P0 offset=0 duration=40
  window P7 offset=40 duration=20
  action P7 stop
";

    /// Action lists out of partition order, with repeated actions for one
    /// partition: a schedule keeps the last one declared (chi0 ends on
    /// `none` for P1, so chi1's final `stop` of P1 is unrecoverable).
    const UNSORTED_ACTIONS: &str = "\
partition P0 name=CMD authority=true
partition P1 name=PAYLOAD
partition P2 name=SCIENCE
schedule chi0 name=ops mtf=100
  require P0 cycle=100 duration=30
  require P1 cycle=100 duration=30
  require P2 cycle=100 duration=30
  window P0 offset=0 duration=30
  window P1 offset=30 duration=30
  window P2 offset=60 duration=30
  action P2 warm_restart
  action P1 cold_restart
  action P1 none
schedule chi1 name=shed mtf=100
  require P0 cycle=100 duration=30
  require P1 cycle=100 duration=30
  require P2 cycle=100 duration=30
  window P0 offset=0 duration=30
  window P1 offset=30 duration=30
  window P2 offset=60 duration=30
  action P2 stop
  action P1 warm_restart
  action P0 none
  action P1 stop
  action P2 cold_restart
  action P2 stop
";

    #[test]
    fn packing_edge_cases_keep_their_pinned_verdicts() {
        // State counts and findings pinned from the map-based explorer.
        for por in [true, false] {
            for (depth, states) in [(1, 3), (2, 6), (4, 6), (6, 6)] {
                let ex = explore_with(
                    &model_of(UNDECLARED_TARGET),
                    &ExploreConfig {
                        depth,
                        por,
                        ..ExploreConfig::default()
                    },
                );
                assert_eq!(ex.states_explored, states, "undeclared d{depth}");
                assert_eq!(ex.reachable_schedule_violations, 2);
                assert_eq!(
                    findings_of(&ex),
                    ["AIR085 1 request(P0->chi1)", "AIR085 2 request(P0->chi2)"]
                );
            }
            for (depth, states) in [(1, 2), (2, 4), (4, 4), (6, 4)] {
                let ex = explore_with(
                    &model_of(UNSORTED_ACTIONS),
                    &ExploreConfig {
                        depth,
                        por,
                        ..ExploreConfig::default()
                    },
                );
                assert_eq!(ex.states_explored, states, "unsorted d{depth}");
                assert_eq!(findings_of(&ex), ["AIR083 1 request(P0->chi1)"]);
            }
        }
    }

    #[test]
    fn more_than_16_mesh_edges_keep_every_finding_and_add_air098() {
        let mut routed = String::from(STARVATION);
        routed.push_str("node N0 name=HUB\n");
        for i in 1..=17 {
            routed.push_str(&format!("route N{i} via=N{i}\n"));
        }
        let ex = explored(&routed, 2);
        assert!(ex.report.has_code(Code::ModeStarvation), "{}", ex.report);
        assert!(ex.report.has_code(Code::ExplorationCapped), "{}", ex.report);
        assert!(!ex.cap_hit);
        let notice = ex
            .counterexamples
            .iter()
            .find(|c| c.code == Code::ExplorationCapped)
            .map(|c| c.message.as_str())
            .unwrap_or_default();
        assert!(notice.contains("17 mesh edges"), "{notice}");
        // The same exploration as 16 routes: the excess edge is the only
        // difference, and it is reported rather than explored.
        let mut sixteen = String::from(STARVATION);
        sixteen.push_str("node N0 name=HUB\n");
        for i in 1..=16 {
            sixteen.push_str(&format!("route N{i} via=N{i}\n"));
        }
        let capped = explored(&sixteen, 2);
        assert_eq!(capped.states_explored, ex.states_explored);
        assert!(!capped.report.has_code(Code::ExplorationCapped));
        assert_eq!(
            capped.report.error_count(),
            ex.report.error_count(),
            "{}",
            ex.report
        );
    }
}
