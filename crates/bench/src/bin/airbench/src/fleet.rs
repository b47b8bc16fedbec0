//! `fleet_campaign`: a fleet of single-node AIR systems, each under its
//! own plan of one fault per class, run to its horizon on the fleet
//! executor. The whole per-node stack does the work here (PMK, PAL, POS,
//! APEX, HM, the MMU and injection hooks) plus the executor; the mesh
//! and port routing are idle.

use std::sync::Mutex;
use std::time::Instant;

use air_core::campaign::{default_horizon, CampaignSim};
use air_core::trace::TraceEvent;
use air_fleet::{run_fleet, run_sequential, Capture, FleetConfig, FleetOutcome, FleetWorkload};
use air_hw::inject::FaultPlan;
use air_hw::machine::MachineConfig;

use crate::ledger::{ns_since, Ledger, Span, ROOT};
use crate::report::Outcome;
use crate::stats::{percentile, Histogram};
use crate::{inputs, secs, setup, Config, Timings};

/// Fleet size. Each machine is a compact 2 MiB system, so a run holds
/// about a gigabyte.
const MACHINES: usize = 1000;
/// Worker threads: fixed, not derived from the host, so runs on
/// different hosts measure the same thing.
const WORKERS: usize = 2;

struct Fleet {
    plans: Vec<FaultPlan>,
    config: MachineConfig,
}

impl Fleet {
    /// Generates the plans and runs the gated build (lint plus bounded
    /// exploration) of the campaign system once for the whole fleet.
    fn prepare(seed: u64, machines: usize) -> Self {
        let plans = inputs::fleet_plans(seed, machines);
        let config = MachineConfig::compact();
        drop(CampaignSim::with_config(&plans[0], &config));
        Self { plans, config }
    }

    fn run(&self) -> FleetOutcome {
        run_fleet(self, &FleetConfig::new(self.plans.len(), WORKERS))
    }
}

impl FleetWorkload for Fleet {
    type Instance = CampaignSim;

    fn build(&self, index: usize) -> CampaignSim {
        CampaignSim::new_unchecked(&self.plans[index], &self.config)
    }

    fn horizon(&self, index: usize) -> u64 {
        default_horizon(&self.plans[index])
    }

    fn tick(&self, sim: &mut CampaignSim, ticks: u64) {
        sim.run_for(ticks);
    }

    fn render_trace(&self, sim: &CampaignSim, out: &mut String) {
        sim.render_trace_into(out);
    }
}

/// Simulated facts of the reference run, gathered per machine.
#[derive(Default)]
struct Census {
    partition_switches: u64,
    schedule_switches: u64,
    deadline_misses: u64,
    hm_entries: u64,
    injected: u64,
    detected: u64,
    trace_events: u64,
    trace_bytes: u64,
    /// Detection latency of every fault; an undetected one counts as the
    /// machine's horizon.
    latencies: Vec<f64>,
    /// Machines with at least one undetected fault.
    undetected: Vec<bool>,
}

/// The reference run's adapter: the plain fleet, plus a census of each
/// machine when its trace is rendered.
struct CensusRun<'a> {
    fleet: &'a Fleet,
    census: Mutex<Census>,
}

impl FleetWorkload for CensusRun<'_> {
    type Instance = (usize, CampaignSim);

    fn build(&self, index: usize) -> Self::Instance {
        (index, self.fleet.build(index))
    }

    fn horizon(&self, index: usize) -> u64 {
        self.fleet.horizon(index)
    }

    fn tick(&self, (_, sim): &mut Self::Instance, ticks: u64) {
        sim.run_for(ticks);
    }

    fn render_trace(&self, (index, sim): &Self::Instance, out: &mut String) {
        sim.render_trace_into(out);
        let system = sim.system();
        let trace = system.trace();
        let mut c = self.census.lock().expect("census lock is never poisoned");
        c.partition_switches += trace.partition_switch_count();
        c.schedule_switches += trace.schedule_switch_count();
        c.deadline_misses += trace.deadline_miss_count();
        c.hm_entries += system.hm().log().total_recorded();
        c.injected += trace
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::FaultInjected { .. }))
            .count() as u64;
        c.detected += sim.detected() as u64;
        c.trace_events += trace.recorded();
        c.trace_bytes += out.len() as u64;
        let horizon = sim.horizon() as f64;
        c.latencies.extend(
            sim.records()
                .iter()
                .map(|r| r.latency().map_or(horizon, |l| l as f64)),
        );
        c.undetected[*index] = sim.detected() < sim.records().len();
    }
}

/// Compares a fleet run machine by machine with the reference.
fn check(out: &mut Outcome, run: &FleetOutcome, reference: &FleetOutcome, undetected: &[bool]) {
    for (got, want) in run.outcomes.iter().zip(&reference.outcomes) {
        out.attempted += 1;
        if got.digest != want.digest {
            out.mismatch(format!(
                "machine {} trace digest {:#x}, reference {:#x}",
                got.index, got.digest, want.digest
            ));
        } else if undetected[got.index] {
            out.fail(format!("machine {}: a fault went undetected", got.index));
        }
    }
}

/// Tick classes, in the order a tick is tested against them: the HM log
/// grew; a partition switch was recorded; neither, so the tick only ran
/// PAL, POS and APEX.
const CLASSES: [&str; 3] = ["hm.event", "pmk.switch", "pal.plain"];

/// One machine of the traced fleet: the sim plus its spans and per-class
/// tick histograms, merged into the shared sink when it is rendered.
struct TracedMachine {
    sim: CampaignSim,
    spans: Vec<Span>,
    classes: [Histogram; 3],
}

#[derive(Default)]
struct Sink {
    spans: Vec<Span>,
    classes: [Histogram; 3],
}

/// The traced pass's adapter: the plain fleet stepped one tick at a time,
/// with a span around every call the executor makes into it.
struct TracedRun<'a> {
    fleet: &'a Fleet,
    epoch: Instant,
    parent: usize,
    sink: Mutex<Sink>,
}

impl FleetWorkload for TracedRun<'_> {
    type Instance = TracedMachine;

    fn build(&self, index: usize) -> TracedMachine {
        let start = ns_since(self.epoch);
        let sim = self.fleet.build(index);
        let span = Span::new(
            "fleet.build",
            Some(self.parent),
            start,
            ns_since(self.epoch),
        );
        TracedMachine {
            sim,
            spans: vec![span],
            classes: Default::default(),
        }
    }

    fn horizon(&self, index: usize) -> u64 {
        self.fleet.horizon(index)
    }

    fn tick(&self, m: &mut TracedMachine, ticks: u64) {
        let start = ns_since(self.epoch);
        for _ in 0..ticks {
            if m.sim.is_done() {
                break;
            }
            let system = m.sim.system();
            let hm_before = system.hm().log().total_recorded();
            let switches_before = system.trace().partition_switch_count();
            let t = Instant::now();
            m.sim.step();
            let ns = t.elapsed().as_nanos() as u64;
            let system = m.sim.system();
            let class = if system.hm().log().total_recorded() > hm_before {
                0
            } else if system.trace().partition_switch_count() > switches_before {
                1
            } else {
                2
            };
            m.classes[class].record(ns);
        }
        m.spans.push(Span::new(
            "fleet.tick",
            Some(self.parent),
            start,
            ns_since(self.epoch),
        ));
    }

    fn render_trace(&self, m: &TracedMachine, out: &mut String) {
        let start = ns_since(self.epoch);
        m.sim.render_trace_into(out);
        let render = Span::new(
            "fleet.render",
            Some(self.parent),
            start,
            ns_since(self.epoch),
        );
        let mut sink = self.sink.lock().expect("sink lock is never poisoned");
        sink.spans.extend(m.spans.iter().cloned());
        sink.spans.push(render);
        for (all, one) in sink.classes.iter_mut().zip(&m.classes) {
            all.merge(one);
        }
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let machines = if cfg.tiny { 8 } else { MACHINES };
    let prepare = || Fleet::prepare(cfg.seed, machines);
    let (fleet, mut setup_s) = setup(prepare);
    let mut out = Outcome::new();
    out.inputs_digest = inputs::digest(&inputs::fleet_text(&fleet.plans));

    // The untimed reference: one machine at a time, no threads.
    let census = CensusRun {
        fleet: &fleet,
        census: Mutex::new(Census {
            undetected: vec![false; machines],
            ..Census::default()
        }),
    };
    let reference = run_sequential(&census, machines, Capture::Digest);
    let census = census
        .census
        .into_inner()
        .expect("census lock is never poisoned");

    let warmup = fleet.run();
    check(&mut out, &warmup, &reference, &census.undetected);

    if cfg.trace {
        traced(cfg, &fleet, &reference, &census, &mut out);
        return out;
    }
    let mut timings = Timings::new(vec![warmup.total_ticks() as f64]);
    let start = Instant::now();
    while timings.count() == 0 || start.elapsed().as_secs_f64() < cfg.seconds {
        let t = Instant::now();
        let run = fleet.run();
        timings.record(0, t.elapsed().as_secs_f64());
        check(&mut out, &run, &reference, &census.undetected);
        setup_s.push(secs(|| drop(prepare())));
    }
    out.samples = vec![
        ("warmup", 1),
        ("fleet_runs", timings.count()),
        ("machines", machines),
    ];
    timings.report(&mut out);
    out.median_of("setup_s", setup_s);
    out
}

fn traced(
    cfg: &Config,
    fleet: &Fleet,
    reference: &FleetOutcome,
    census: &Census,
    out: &mut Outcome,
) {
    let mut ledger = Ledger::new();
    let mut classes: [Histogram; 3] = Default::default();
    let (mut plain, mut traced_walls) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while plain.is_empty() || start.elapsed().as_secs_f64() < cfg.seconds {
        for traced in crate::pair_order(plain.len()) {
            if !traced {
                let t = Instant::now();
                let run = fleet.run();
                plain.push(t.elapsed().as_secs_f64());
                check(out, &run, reference, &census.undetected);
                continue;
            }
            let root = ledger.open(ROOT, None);
            let parent = ledger.open("fleet.run", Some(root));
            ledger.set_width(parent, WORKERS as u32);
            let adapter = TracedRun {
                fleet,
                epoch: ledger.epoch(),
                parent,
                sink: Mutex::default(),
            };
            let run = run_fleet(&adapter, &FleetConfig::new(fleet.plans.len(), WORKERS));
            ledger.close(parent);
            let sink = adapter
                .sink
                .into_inner()
                .expect("sink lock is never poisoned");
            for span in sink.spans {
                ledger.push(span);
            }
            for ((all, one), name) in classes.iter_mut().zip(&sink.classes).zip(CLASSES) {
                all.merge(one);
                ledger.aggregate(name, "fleet.tick", one.sum());
            }
            check(out, &run, reference, &census.undetected);
            ledger.close(root);
            traced_walls.push(ledger.span(root).secs());
        }
    }
    out.samples = vec![("warmup", 1), ("pairs", plain.len())];
    crate::overhead(out, &plain, &traced_walls);
    let phases =
        ["fleet.build", "fleet.tick", "fleet.render"].map(|l| ledger.child_secs("fleet.run", l));
    for (name, secs) in ["fleet.build_s", "fleet.tick_s", "fleet.render_s"]
        .iter()
        .zip(&phases)
    {
        out.median_of(name, secs.clone());
    }
    // Executor self time: both workers' share of each run not spent
    // building, ticking or rendering — barrier waits and bookkeeping.
    let sync = (ledger.durations("fleet.run").iter().enumerate())
        .map(|(i, wall)| WORKERS as f64 * wall - phases.iter().map(|p| p[i]).sum::<f64>())
        .collect();
    out.median_of("fleet.sync_s", sync);

    let per_run = |h: &Histogram| h.count() as f64 / plain.len() as f64;
    for (h, (count, p50, p99)) in classes.iter().zip([
        (
            "hm.event_ticks",
            "hm.event_tick_ns.p50",
            "hm.event_tick_ns.p99",
        ),
        (
            "pmk.switch_ticks",
            "pmk.switch_tick_ns.p50",
            "pmk.switch_tick_ns.p99",
        ),
        (
            "pal.plain_ticks",
            "pal.plain_tick_ns.p50",
            "pal.plain_tick_ns.p99",
        ),
    ]) {
        out.value(count, per_run(h));
        out.value(p50, h.percentile(50.0));
        out.value(p99, h.percentile(99.0));
    }

    for (name, v) in [
        ("pmk.partition_switches", census.partition_switches),
        ("pmk.schedule_switches", census.schedule_switches),
        ("pal.deadline_misses", census.deadline_misses),
        ("hm.log_entries", census.hm_entries),
        ("hw.faults_injected", census.injected),
        ("hm.faults_detected", census.detected),
        ("core.trace_events", census.trace_events),
        ("core.trace_bytes", census.trace_bytes),
    ] {
        out.value(name, v as f64);
    }
    out.set(
        "hm.detect_latency_ticks.p50",
        percentile(&census.latencies, 50.0),
        census.latencies.clone(),
    );
    out.set(
        "hm.detect_latency_ticks.p99",
        percentile(&census.latencies, 99.0),
        census.latencies.clone(),
    );
    crate::finish_trace(cfg, "fleet_campaign", &ledger, out);
}
