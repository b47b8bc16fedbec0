//! Seeded property: every missed deadline is reported once, at the
//! earliest instant, over generated two-partition systems.
//!
//! The paper's Sect. 5 claims that the PAL reports each deadline violation
//! at the earliest instant possible: the next tick while the partition is
//! active, otherwise its next dispatch. ARINC 653 sets a process's
//! `DEADLINE_TIME` once per service call (`START`, `DELAYED_START`,
//! `PERIODIC_WAIT`, `REPLENISH`), so each armed `D′` can be missed once.
//!
//! Each case draws an MTF of 10–119 ticks and two schedules that give P0
//! 1–3 random windows, P1 filling the rest, each with a schedule-change
//! action for P0. P0 runs 1–3 periodic processes of random period,
//! deadline and priority; half of them overrun forever, the rest burn a
//! random WCET and call `PERIODIC_WAIT`. A case draws one deadline handler
//! from the whole menu (none, `Ignore`, `LogThenAct`, `RestartProcess`,
//! `StopProcess`, `RestartPartition`), and may request schedule switches
//! and inject partition faults (warm restarts) at random ticks. It runs
//! for 12 MTFs and checks five oracles:
//!
//! 1. at every tick, the active partition (rebuilt from `PartitionSwitch`
//!    events) owns the window of the schedule in force (Eq. 21,
//!    Algorithm 2);
//! 2. every schedule switch takes effect at the first MTF boundary after
//!    its request;
//! 3. the first report of each (process, `D′`) comes at the first tick
//!    ≥ `D′ + 1` at which P0 is active;
//! 4. each (process, `D′`) is reported once;
//! 5. completeness: a reference model of the armed `D′` per process,
//!    driven only by the service calls the bodies make and the handler
//!    and restart events in the trace, is reported in full at every P0
//!    tick past it — and nothing else is reported.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::{Arc, Mutex};

use air_apex::ErrorHandlerTable;
use air_core::workload::ProcessApi;
use air_core::{AirSystem, PartitionConfig, ProcessConfig, SystemBuilder, TraceEvent};
use air_hm::{ErrorId, EscalatedProcessAction, ProcessRecoveryAction};
use air_model::ids::ProcessId;
use air_model::process::{Deadline, Priority, ProcessAttributes, Recurrence};
use air_model::schedule::{PartitionRequirement, Schedule, ScheduleChangeAction, TimeWindow};
use air_model::testkit::TestRng;
use air_model::{Partition, PartitionId, ScheduleId, ScheduleSet, Ticks};

const P0: PartitionId = PartitionId(0);
const P1: PartitionId = PartitionId(1);

/// The fixed base seed; case `i` runs seed `BASE_SEED + i`.
const BASE_SEED: u64 = 0xD1E5_0000;
const CASES: u64 = 3_000;
const MTFS: u64 = 12;

/// One generated P0 process.
struct Proc {
    period: u64,
    deadline: u64,
    priority: u8,
    /// Ticks of work per activation; `None` overruns forever.
    compute: Option<u64>,
}

/// One generated system and its drive.
struct Case {
    mtf: u64,
    schedules: Vec<Schedule>,
    procs: Vec<Proc>,
    handler: Option<ProcessRecoveryAction>,
    /// `request_schedule` calls, made after the tick they name.
    requests: Vec<(u64, usize)>,
    /// Partition faults against P0, injected after the tick they name.
    faults: Vec<u64>,
}

/// P0 gets 1–3 windows cut at distinct random points; P1 fills the rest.
fn schedule(rng: &mut TestRng, id: u32, mtf: u64) -> Schedule {
    let windows = rng.range(1, 4) as usize;
    let mut cuts = BTreeSet::new();
    while cuts.len() < 2 * windows {
        cuts.insert(rng.below(mtf));
    }
    let cuts: Vec<u64> = cuts.into_iter().collect();
    let (mut table, mut p0, mut at) = (Vec::new(), 0, 0);
    for pair in cuts.chunks(2) {
        let (start, end) = (pair[0], pair[1]);
        if start > at {
            table.push(TimeWindow::new(P1, Ticks(at), Ticks(start - at)));
        }
        table.push(TimeWindow::new(P0, Ticks(start), Ticks(end - start)));
        p0 += end - start;
        at = end;
    }
    table.push(TimeWindow::new(P1, Ticks(at), Ticks(mtf - at)));
    let action = match rng.below(12) {
        0 | 1 => ScheduleChangeAction::WarmRestart,
        2 => ScheduleChangeAction::ColdRestart,
        3 => ScheduleChangeAction::Stop,
        _ => ScheduleChangeAction::None,
    };
    Schedule::new(
        ScheduleId(id),
        format!("s{id}"),
        Ticks(mtf),
        vec![
            PartitionRequirement::new(P0, Ticks(mtf), Ticks(p0)),
            PartitionRequirement::new(P1, Ticks(mtf), Ticks(mtf - p0)),
        ],
        table,
    )
    .with_change_action(P0, action)
}

fn generate(seed: u64) -> Case {
    let mut rng = TestRng::new(seed);
    let mtf = rng.range(10, 120);
    let schedules = vec![schedule(&mut rng, 0, mtf), schedule(&mut rng, 1, mtf)];
    let procs = (0..rng.range(1, 4))
        .map(|_| {
            let period = rng.range(3, 200);
            Proc {
                period,
                deadline: rng.range(1, period + 1),
                priority: rng.range(1, 4) as u8,
                compute: rng.chance(1, 2).then(|| rng.range(1, period + 1)),
            }
        })
        .collect();
    let escalations = [
        EscalatedProcessAction::RestartProcess,
        EscalatedProcessAction::StopProcess,
        EscalatedProcessAction::RestartPartition,
    ];
    let handler = match rng.below(6) {
        0 => None,
        1 => Some(ProcessRecoveryAction::Ignore),
        2 => Some(ProcessRecoveryAction::LogThenAct {
            threshold: rng.range(1, 4) as u32,
            then: escalations[rng.below_usize(escalations.len())],
        }),
        3 => Some(ProcessRecoveryAction::RestartProcess),
        4 => Some(ProcessRecoveryAction::StopProcess),
        _ => Some(ProcessRecoveryAction::RestartPartition),
    };
    let horizon = MTFS * mtf;
    let requests = if rng.chance(1, 2) {
        (0..rng.range(1, 3))
            .map(|_| (rng.below(horizon), rng.below_usize(2)))
            .collect()
    } else {
        Vec::new()
    };
    let faults = if rng.chance(1, 3) {
        (0..rng.range(1, 3)).map(|_| rng.below(horizon)).collect()
    } else {
        Vec::new()
    };
    Case {
        mtf,
        schedules,
        procs,
        handler,
        requests,
        faults,
    }
}

/// A successful `PERIODIC_WAIT`: (call tick, process, returned release).
type WaitLog = Arc<Mutex<Vec<(u64, ProcessId, u64)>>>;

/// Burns `compute` ticks per activation, then calls `PERIODIC_WAIT` and
/// logs it; with no `compute`, spins forever.
fn body(compute: Option<u64>, log: WaitLog) -> impl FnMut(&mut ProcessApi<'_>) + Send {
    let mut done = 0;
    move |api: &mut ProcessApi<'_>| {
        let Some(compute) = compute else {
            return;
        };
        done += 1;
        if done >= compute {
            done = 0;
            if let Ok(release) = api.apex.periodic_wait(api.me, api.now) {
                let entry = (api.now.as_u64(), api.me, release.as_u64());
                log.lock().unwrap().push(entry);
            }
        }
    }
}

fn build(case: &Case, log: &WaitLog) -> AirSystem {
    let mut p0 = PartitionConfig::new(Partition::new(P0, "p0"));
    if let Some(action) = case.handler {
        p0 = p0.with_error_handler(
            ErrorHandlerTable::new().with_action(ErrorId::DeadlineMissed, action),
        );
    }
    for (i, p) in case.procs.iter().enumerate() {
        p0 = p0.with_process(ProcessConfig::new(
            ProcessAttributes::new(format!("q{i}"))
                .with_recurrence(Recurrence::Periodic(Ticks(p.period)))
                .with_deadline(Deadline::relative(Ticks(p.deadline)))
                .with_base_priority(Priority(p.priority)),
            body(p.compute, Arc::clone(log)),
        ));
    }
    SystemBuilder::new(ScheduleSet::new(case.schedules.clone()))
        .with_partition(p0)
        .with_partition(PartitionConfig::new(Partition::new(P1, "p1")))
        .build_unchecked()
        .expect("generated systems build")
}

/// The five oracles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Oracle {
    WindowOwner,
    SwitchAtBoundary,
    FirstReportEarliest,
    ExactlyOnce,
    Completeness,
}

/// Replays one case's trace and wait log tick by tick against the
/// oracles.
struct Checker<'a> {
    case: &'a Case,
    current: usize,
    pending: usize,
    /// The schedule due at this tick's boundary, if a switch is pending.
    due: Option<usize>,
    active: Option<PartitionId>,
    /// Whether P0 was active at each tick so far.
    p0_active: Vec<bool>,
    /// Reference model: the `D′` armed per process.
    armed: Vec<Option<u64>>,
    misses: Vec<u64>,
    /// Armed `D′`s that passed at this tick's announcement, still to be
    /// reported.
    expected: Option<Vec<(usize, u64)>>,
    reported: HashSet<(usize, u64)>,
    /// Schedule switches and P0 restarts seen, to show the draws bite.
    switches: usize,
    restarts: usize,
    violations: Vec<(Oracle, String)>,
}

impl<'a> Checker<'a> {
    fn new(case: &'a Case) -> Self {
        Self {
            case,
            current: 0,
            pending: 0,
            due: None,
            active: None,
            p0_active: Vec::new(),
            // Every process is started at build, at t = 0.
            armed: case.procs.iter().map(|p| Some(p.deadline)).collect(),
            misses: vec![0; case.procs.len()],
            expected: None,
            reported: HashSet::new(),
            switches: 0,
            restarts: 0,
            violations: Vec::new(),
        }
    }

    fn fail(&mut self, oracle: Oracle, message: String) {
        self.violations.push((oracle, message));
    }

    fn restart_all(&mut self, t: u64) {
        self.restarts += 1;
        for (armed, p) in self.armed.iter_mut().zip(&self.case.procs) {
            *armed = Some(t + p.deadline);
        }
    }

    /// The PAL's announcement at `t`: every armed `D′ < t` is due.
    fn announce(&mut self, t: u64) {
        if self.expected.is_some() || self.active != Some(P0) {
            return;
        }
        let mut due = Vec::new();
        for (q, armed) in self.armed.iter_mut().enumerate() {
            if let Some(d) = *armed {
                if d < t {
                    due.push((q, d));
                    *armed = None;
                }
            }
        }
        self.expected = Some(due);
    }

    fn on_event(&mut self, t: u64, event: &TraceEvent) {
        match *event {
            TraceEvent::ScheduleSwitch { to, .. } => {
                let to = to.0 as usize;
                if self.due != Some(to) {
                    self.fail(
                        Oracle::SwitchAtBoundary,
                        format!("switch to {to} at t={t}, due {:?}", self.due),
                    );
                }
                self.due = None;
                self.current = to;
                self.switches += 1;
            }
            TraceEvent::PartitionSwitch { to, .. } => self.active = to,
            TraceEvent::PartitionRestart { partition: P0, .. } => self.restart_all(t),
            TraceEvent::PartitionStop { partition: P0, .. } => self.armed.fill(None),
            TraceEvent::DeadlineMiss {
                process, deadline, ..
            } => self.on_miss(t, process.process.as_usize(), deadline.as_u64()),
            _ => {}
        }
    }

    fn on_miss(&mut self, t: u64, q: usize, d: u64) {
        self.announce(t);
        if !self.reported.insert((q, d)) {
            self.fail(
                Oracle::ExactlyOnce,
                format!("q{q} D′={d} reported again at t={t}"),
            );
        } else {
            let now_active = self.active == Some(P0);
            let earliest = (d + 1..t)
                .find(|&s| self.p0_active[s as usize])
                .or(now_active.then_some(t))
                .filter(|_| t > d);
            if earliest != Some(t) {
                self.fail(
                    Oracle::FirstReportEarliest,
                    format!("q{q} D′={d} first reported at t={t}, earliest P0 tick {earliest:?}"),
                );
            }
        }
        let expected = self.expected.get_or_insert_with(Vec::new);
        match expected.iter().position(|&e| e == (q, d)) {
            Some(i) => {
                expected.swap_remove(i);
            }
            None => self.fail(
                Oracle::Completeness,
                format!("q{q} reported D′={d} at t={t}, not armed"),
            ),
        }
        // The handler's effect on the armed deadline (a partition restart
        // shows as its own event). With no handler, the HM table's default
        // process action applies: `Ignore`.
        self.misses[q] += 1;
        let mut action = self.case.handler.unwrap_or_default();
        if let ProcessRecoveryAction::LogThenAct { threshold, then } = action {
            if self.misses[q] > u64::from(threshold) {
                action = then.into();
            }
        }
        match action {
            ProcessRecoveryAction::LogThenAct { .. } | ProcessRecoveryAction::RestartProcess => {
                self.armed[q] = Some(t + self.case.procs[q].deadline);
            }
            _ => {}
        }
    }

    /// Replays tick `t`: its trace events, then the waits its bodies made.
    fn tick(&mut self, t: u64, events: &[TraceEvent], waits: &[(u64, ProcessId, u64)]) {
        let mtf = self.case.mtf;
        if t > 0 && t.is_multiple_of(mtf) && self.pending != self.current {
            self.due = Some(self.pending);
        }
        self.expected = None;
        for event in events {
            self.on_event(t, event);
        }
        self.announce(t);
        if let Some(due) = self.due.take() {
            self.fail(
                Oracle::SwitchAtBoundary,
                format!("switch to {due} not taken at boundary t={t}"),
            );
        }
        for (q, d) in self.expected.take().unwrap_or_default() {
            self.fail(
                Oracle::Completeness,
                format!("q{q} D′={d} passed, unreported at t={t}"),
            );
        }
        let owner = self.case.schedules[self.current].partition_active_at(Ticks(t % mtf));
        if self.active != owner {
            self.fail(
                Oracle::WindowOwner,
                format!("t={t}: {:?} active, window of {owner:?}", self.active),
            );
        }
        self.p0_active.push(self.active == Some(P0));
        for &(_, process, release) in waits {
            let q = process.as_usize();
            self.armed[q] = Some(release + self.case.procs[q].deadline);
        }
    }
}

/// Runs one case to its horizon and returns the replayed checker.
fn check(case: &Case) -> Checker<'_> {
    let log = WaitLog::default();
    let mut system = build(case, &log);
    let mut checker = Checker::new(case);
    let (mut seen, mut waits_seen, mut next_tick) = (0, 0, 0);
    let horizon = MTFS * case.mtf;
    while next_tick <= horizon {
        system.step();
        let now = system.now().as_u64();
        let events = &system.trace().events()[seen..];
        let waits = log.lock().unwrap()[waits_seen..].to_vec();
        seen += events.len();
        waits_seen += waits.len();
        for t in next_tick..=now {
            let at_t = |e: &&TraceEvent| e.at().as_u64() == t;
            let tick_events: Vec<TraceEvent> = events.iter().filter(at_t).cloned().collect();
            let tick_waits: Vec<_> = waits.iter().filter(|w| w.0 == t).copied().collect();
            checker.tick(t, &tick_events, &tick_waits);
        }
        next_tick = now + 1;
        for &(_, sid) in case.requests.iter().filter(|r| r.0 == now) {
            system.request_schedule(ScheduleId(sid as u32)).unwrap();
            checker.pending = sid;
        }
        if case.faults.contains(&now) {
            system.inject_partition_fault(P0);
            for event in &system.trace().events()[seen..] {
                checker.on_event(now, event);
            }
            seen = system.trace().events().len();
        }
    }
    checker
}

#[test]
fn every_missed_deadline_is_reported_once_at_the_earliest_instant() {
    let mut failing: BTreeMap<Oracle, Vec<(u64, String)>> = BTreeMap::new();
    let (mut reports, mut switches, mut restarts) = (0, 0, 0);
    // Handler kinds (none counts as one) under which a miss was reported.
    let mut handled = HashSet::new();
    for seed in BASE_SEED..BASE_SEED + CASES {
        let case = generate(seed);
        let checker = check(&case);
        reports += checker.reported.len();
        switches += checker.switches;
        restarts += checker.restarts;
        if !checker.reported.is_empty() {
            handled.insert(case.handler.as_ref().map(std::mem::discriminant));
        }
        let mut oracles: Vec<Oracle> = Vec::new();
        for (oracle, message) in checker.violations {
            if !oracles.contains(&oracle) {
                oracles.push(oracle);
                failing.entry(oracle).or_default().push((seed, message));
            }
        }
    }
    let summary: Vec<String> = failing
        .iter()
        .map(|(oracle, cases)| {
            format!(
                "{oracle:?} fails in {} cases, e.g. seed {:#x}: {}",
                cases.len(),
                cases[0].0,
                cases[0].1
            )
        })
        .collect();
    assert!(summary.is_empty(), "{}", summary.join("\n"));
    // The oracles must have had something to check.
    assert!(reports > 10_000, "only {reports} first reports checked");
    assert!(
        switches > 500 && restarts > 1_000,
        "{switches} switches, {restarts} restarts"
    );
    assert_eq!(
        handled.len(),
        6,
        "misses under no handler and each of the five"
    );
}
