//! `mesh_reroute`: self-healing campaigns on nine-node meshes, every
//! topology × fault shape, each run through `RerouteCampaignRunner`
//! (two executions plus the invariant checks). ARQ transport, routing,
//! the live router, the mesh fabric and its monitors do the work here;
//! PMK, PAL, POS and the fleet executor are absent, so this is the bypass
//! workload for `fleet_campaign`'s layers, and the reverse also holds.

use std::time::Instant;

use air_core::mesh::{
    planned_mesh_horizon, MeshSim, RerouteCampaignOutcome, RerouteCampaignRunner,
};

use crate::inputs::{self, MeshInput, TOPOLOGIES};
use crate::ledger::{Ledger, ROOT};
use crate::report::Outcome;
use crate::stats::{percentile, Histogram};
use crate::{secs, setup, Config, Timings};

/// Per-tick cost grows with node count; nine nodes is the largest mesh
/// the shipped examples describe.
const NODES: usize = 9;
/// Seeds per topology × shape: 48 campaigns in all, a pass of about
/// three seconds, so every campaign repeats several times in a run.
const REPS: usize = 4;

/// Generates the plans and runs the reachability-gated build once per
/// topology.
fn prepare_campaigns(seed: u64, nodes: usize, reps: usize) -> Vec<MeshInput> {
    let inputs = inputs::mesh_inputs(seed, nodes, reps);
    for topology in TOPOLOGIES {
        if let Some(first) = inputs.iter().find(|c| c.plan.topology == topology) {
            drop(MeshSim::new(&first.plan));
        }
    }
    inputs
}

/// Simulated node-ticks of one verified campaign: two executions.
fn node_ticks(input: &MeshInput) -> f64 {
    2.0 * planned_mesh_horizon(&input.plan) as f64 * input.plan.nodes as f64
}

/// Checks a campaign outcome against the first trace of the same input.
fn check(
    out: &mut Outcome,
    reference: &mut Option<u64>,
    input: &MeshInput,
    o: &RerouteCampaignOutcome,
) {
    out.attempted += 1;
    let digest = inputs::digest(&o.trace_log);
    match reference {
        Some(r) if *r != digest => out.mismatch(format!("{}: trace digest changed", input.label)),
        Some(_) => {}
        None => *reference = Some(digest),
    }
    if !o.deterministic {
        out.mismatch(format!(
            "{}: the runner's re-execution diverged",
            input.label
        ));
    } else if !o.is_ok() {
        out.fail(format!(
            "{}: {}",
            input.label,
            o.report.to_string().replace('\n', " ")
        ));
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let (nodes, reps) = if cfg.tiny { (5, 1) } else { (NODES, REPS) };
    let prepare = || prepare_campaigns(cfg.seed, nodes, reps);
    let (mut campaigns, mut setup_s) = setup(prepare);
    if cfg.tiny {
        campaigns.truncate(3);
    }
    let mut out = Outcome::new();
    out.inputs_digest = inputs::digest(&inputs::mesh_text(&campaigns));
    let mut references = vec![None; campaigns.len()];

    let warmup = RerouteCampaignRunner::new(campaigns[0].plan.clone()).run();
    check(&mut out, &mut references[0], &campaigns[0], &warmup);

    if cfg.trace {
        traced(cfg, &campaigns, &mut references, &mut out);
        return out;
    }
    // Closed loop over the campaigns in order, until the time is up and
    // every campaign has run at least once.
    let mut timings = Timings::new(campaigns.iter().map(node_ticks).collect());
    let start = Instant::now();
    let mut next = 0;
    while next < campaigns.len() || start.elapsed().as_secs_f64() < cfg.seconds {
        let i = next % campaigns.len();
        let runner = RerouteCampaignRunner::new(campaigns[i].plan.clone());
        let t = Instant::now();
        let o = runner.run();
        timings.record(i, t.elapsed().as_secs_f64());
        check(&mut out, &mut references[i], &campaigns[i], &o);
        setup_s.push(secs(|| drop(prepare())));
        next += 1;
    }
    out.samples = vec![
        ("warmup", 1),
        ("campaigns", next),
        ("inputs", campaigns.len()),
    ];
    timings.report(&mut out);
    out.median_of("setup_s", setup_s);
    out
}

/// Simulated facts of one campaign, from its first traced execution.
struct Facts {
    steady_ticks: u64,
    reroute_ticks: u64,
    route_rebuilds: u64,
    outcome: RerouteCampaignOutcome,
}

/// One execution rendered, then the runner: the untraced operation.
/// Returns the trace, the outcome, the execution's seconds and the whole
/// operation's.
fn plain_op(input: &MeshInput) -> (String, RerouteCampaignOutcome, f64, f64) {
    let runner = RerouteCampaignRunner::new(input.plan.clone());
    let t = Instant::now();
    let mut sim = MeshSim::new_unchecked(&input.plan);
    sim.run_to_horizon();
    let mut log = String::new();
    sim.render_trace_into(&mut log);
    let sim_s = t.elapsed().as_secs_f64();
    let o = runner.run();
    (log, o, sim_s, t.elapsed().as_secs_f64())
}

/// Per-tick histograms of the traced pass: steady ticks, and reroute
/// ticks, on which the live router's reroute or rebuild counter moved.
#[derive(Default)]
struct Ticks {
    steady: Histogram,
    reroute: Histogram,
}

/// The same operation with a span around each call and every tick timed
/// and sorted. Returns the trace, the runner's seconds and the campaign's
/// facts, its outcome among them.
fn traced_op(ledger: &mut Ledger, ticks: &mut Ticks, input: &MeshInput) -> (String, f64, Facts) {
    let runner = RerouteCampaignRunner::new(input.plan.clone());
    let root = ledger.open(ROOT, None);
    let (mut sim, _) = ledger.time("core.mesh_build", root, || {
        MeshSim::new_unchecked(&input.plan)
    });
    let loop_span = ledger.open("core.mesh_ticks", Some(root));
    let (mut steady_ns, mut reroute_ns, mut reroute_ticks) = (0, 0, 0);
    let mut last = sim.status();
    while !sim.is_done() {
        let t = Instant::now();
        sim.step();
        let ns = t.elapsed().as_nanos() as u64;
        let now = sim.status();
        if now.reroutes != last.reroutes || now.route_rebuilds != last.route_rebuilds {
            ticks.reroute.record(ns);
            reroute_ns += ns;
            reroute_ticks += 1;
        } else {
            ticks.steady.record(ns);
            steady_ns += ns;
        }
        last = now;
    }
    ledger.close(loop_span);
    ledger.aggregate("ports.steady", "core.mesh_ticks", steady_ns);
    ledger.aggregate("ports.reroute", "core.mesh_ticks", reroute_ns);
    let (log, _) = ledger.time("core.mesh_render", root, || {
        let mut log = String::new();
        sim.render_trace_into(&mut log);
        log
    });
    let (outcome, runner_s) = ledger.time("core.runner", root, || runner.run());
    ledger.close(root);
    let facts = Facts {
        steady_ticks: sim.horizon() - reroute_ticks,
        reroute_ticks,
        route_rebuilds: last.route_rebuilds,
        outcome,
    };
    (log, runner_s, facts)
}

fn traced(
    cfg: &Config,
    campaigns: &[MeshInput],
    references: &mut [Option<u64>],
    out: &mut Outcome,
) {
    let mut ledger = Ledger::new();
    let mut ticks = Ticks::default();
    let mut facts: Vec<Option<Facts>> = campaigns.iter().map(|_| None).collect();
    let (mut plain, mut sims, mut runners) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut next = 0;
    while next < campaigns.len() || start.elapsed().as_secs_f64() < cfg.seconds {
        let i = next % campaigns.len();
        let input = &campaigns[i];
        let mut logs = Vec::with_capacity(2);
        for traced in crate::pair_order(next) {
            if traced {
                let (log, runner_s, f) = traced_op(&mut ledger, &mut ticks, input);
                check(out, &mut references[i], input, &f.outcome);
                runners.push(runner_s);
                facts[i].get_or_insert(f);
                logs.push(log);
            } else {
                let (log, o, sim_s, op_s) = plain_op(input);
                check(out, &mut references[i], input, &o);
                sims.push(sim_s);
                plain.push(op_s);
                logs.push(log);
            }
        }
        if logs[0] != logs[1] {
            out.mismatch(format!(
                "{}: stepped trace differs from the plain run",
                input.label
            ));
        }
        next += 1;
    }
    out.samples = vec![("warmup", 1), ("pairs", next), ("inputs", campaigns.len())];
    crate::overhead(out, &plain, &ledger.durations(ROOT));
    let builds: Vec<f64> = ledger
        .durations("core.mesh_build")
        .iter()
        .map(|s| s * 1e6)
        .collect();
    out.set("core.mesh_build_us.p50", percentile(&builds, 50.0), builds);
    out.median_of("core.mesh_render_s", ledger.durations("core.mesh_render"));
    // What the runner adds to its two executions: the checked build, the
    // invariant checks and the trace comparison.
    out.median_of(
        "core.verify_s",
        runners
            .iter()
            .zip(&sims)
            .map(|(r, s)| r - 2.0 * s)
            .collect(),
    );
    for (h, (p50, p99)) in [
        (
            &ticks.steady,
            ("ports.steady_tick_ns.p50", "ports.steady_tick_ns.p99"),
        ),
        (
            &ticks.reroute,
            ("ports.reroute_tick_ns.p50", "ports.reroute_tick_ns.p99"),
        ),
    ] {
        out.value(p50, h.percentile(50.0));
        out.value(p99, h.percentile(99.0));
    }

    let facts: Vec<Facts> = facts
        .into_iter()
        .map(|f| f.expect("every campaign ran"))
        .collect();
    let sum = |f: fn(&Facts) -> u64| facts.iter().map(f).sum::<u64>() as f64;
    out.value("ports.steady_ticks", sum(|f| f.steady_ticks));
    out.value("ports.reroute_ticks", sum(|f| f.reroute_ticks));
    out.value("ports.route_rebuilds", sum(|f| f.route_rebuilds));
    out.value("ports.retransmissions", sum(|f| f.outcome.retransmissions));
    out.value("ports.reroutes", sum(|f| f.outcome.reroutes));
    out.value("ports.parked", sum(|f| f.outcome.parked));
    out.value(
        "ports.duplicates_filtered",
        sum(|f| f.outcome.duplicates_filtered),
    );
    out.value("hw.edge_downs", sum(|f| f.outcome.edge_downs));
    out.value("hw.edge_ups", sum(|f| f.outcome.edge_ups));
    out.value("core.failovers", sum(|f| f.outcome.failovers));
    out.value(
        "core.commands_lost",
        sum(|f| {
            let o = &f.outcome;
            o.expected.saturating_sub(o.delivered + o.delivered_spare)
        }),
    );
    // Each campaign contributes its worst TC→TM latency; a failed one
    // counts as its horizon.
    let latencies: Vec<f64> = facts
        .iter()
        .map(|f| match f.outcome.max_observed_latency {
            Some(l) if f.outcome.is_ok() => l as f64,
            _ => planned_mesh_horizon(&f.outcome.plan) as f64,
        })
        .collect();
    out.set(
        "core.flow_latency_ticks.p50",
        percentile(&latencies, 50.0),
        latencies.clone(),
    );
    out.set(
        "core.flow_latency_ticks.p90",
        percentile(&latencies, 90.0),
        latencies,
    );
    crate::finish_trace(cfg, "mesh_reroute", &ledger, out);
}
