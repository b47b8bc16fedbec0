//! Seeded inputs. Everything a workload feeds the program is generated
//! here from `--seed`, with the shape constants kept in this file so that
//! a change to a generator inside the program cannot silently change what
//! the benchmark measures. Each generator also renders its inputs as
//! canonical text, whose FNV-1a digest is printed as `inputs_digest`.

use std::fmt::Write;

use air_core::mesh::{command_endpoints, HealPolicy, MeshFault, MeshFaultKind, MeshPlan};
use air_fleet::machine_seed;
use air_hw::inject::{FaultClass, FaultPlan};
use air_ports::routing::MeshTopology;

/// FNV-1a of canonical input text.
pub fn digest(text: &str) -> u64 {
    air_fleet::trace_digest(text.as_bytes())
}

/// SplitMix64: a small, fast, well-mixed generator for input shapes.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

// ---------------------------------------------------------------- fleet

/// First fault tick, slot spacing and jitter of every machine's plan: one
/// fault of each of the six classes, 40 ticks apart from tick 70.
const FAULT_START: u64 = 70;
const FAULT_SPACING: u64 = 40;
const FAULT_JITTER: u64 = 11;

/// Machine `i`'s fault plan: one fault per class under
/// `machine_seed(seed, i)`.
pub fn fleet_plans(seed: u64, machines: usize) -> Vec<FaultPlan> {
    (0..machines)
        .map(|i| {
            FaultPlan::generate(
                machine_seed(seed, i),
                &FaultClass::ALL,
                1,
                FAULT_START,
                FAULT_SPACING,
                FAULT_JITTER,
            )
        })
        .collect()
}

/// Canonical text of a fleet's plans: one line per fault.
pub fn fleet_text(plans: &[FaultPlan]) -> String {
    let mut out = String::new();
    for (i, plan) in plans.iter().enumerate() {
        for e in plan.events() {
            let _ = writeln!(out, "{i} {} {} {:#x}", e.at, e.class, e.target);
        }
    }
    out
}

// ----------------------------------------------------------------- mesh

/// The partition-fault shapes of the mesh workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One edge down for 350 ticks.
    EdgeOutage,
    /// One edge flaps: three 90-tick outages, 180 ticks apart.
    Flapping,
    /// Every edge of one node down for 380 ticks.
    NodeIsolation,
    /// Two edges down 40 ticks apart, for 400 and 390 ticks.
    TwoEdgePartition,
}

impl Shape {
    pub const ALL: [Shape; 4] = [
        Shape::EdgeOutage,
        Shape::Flapping,
        Shape::NodeIsolation,
        Shape::TwoEdgePartition,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Shape::EdgeOutage => "edge-outage",
            Shape::Flapping => "flapping",
            Shape::NodeIsolation => "node-isolation",
            Shape::TwoEdgePartition => "two-edge-partition",
        }
    }
}

pub const TOPOLOGIES: [MeshTopology; 3] =
    [MeshTopology::Line, MeshTopology::Star, MeshTopology::Ring];

/// One self-healing campaign input.
pub struct MeshInput {
    /// `topology/shape/seed`, for failure listings.
    pub label: String,
    pub plan: MeshPlan,
}

/// `reps` campaigns of every topology × shape on `nodes`-node meshes,
/// interleaved so that any prefix of the list covers the twelve
/// combinations evenly. Campaign `k` draws its shape parameters from
/// `machine_seed(seed, k)`.
pub fn mesh_inputs(seed: u64, nodes: usize, reps: usize) -> Vec<MeshInput> {
    let mut out = Vec::with_capacity(reps * TOPOLOGIES.len() * Shape::ALL.len());
    for _ in 0..reps {
        for shape in Shape::ALL {
            for topology in TOPOLOGIES {
                let plan_seed = machine_seed(seed, out.len());
                out.push(MeshInput {
                    label: format!("{}/{}/{plan_seed:#x}", topology.label(), shape.label()),
                    plan: mesh_plan(topology, nodes, shape, plan_seed),
                });
            }
        }
    }
    out
}

/// Index of edge `(a, b)` in the topology's sorted edge list.
fn edge_index(edges: &[(usize, usize)], a: usize, b: usize) -> usize {
    let key = (a.min(b), a.max(b));
    edges
        .iter()
        .position(|&e| e == key)
        .expect("the edge belongs to the topology")
}

/// One campaign plan. On the line and the star, node isolation and the
/// two-edge partition may cut the executor off, and commands park until
/// the mesh heals. On the ring they only ever cut nodes between
/// commander and executor, so traffic reroutes the long way round: a ring
/// cut that separates the two fails the campaign's invariants at nine
/// nodes (see README.md), and the workload must not fail.
fn mesh_plan(topology: MeshTopology, nodes: usize, shape: Shape, seed: u64) -> MeshPlan {
    let mut rng = Rng::new(seed);
    let edges = topology.edges(nodes);
    let (commander, executor) = command_endpoints(topology, nodes);
    let ring = topology == MeshTopology::Ring;
    let mut faults = Vec::new();
    let mut down_up = |edge: usize, at: u64, ticks: u64| {
        faults.push(MeshFault {
            at,
            kind: MeshFaultKind::EdgeDown { edge },
        });
        faults.push(MeshFault {
            at: at + ticks,
            kind: MeshFaultKind::EdgeUp { edge },
        });
    };
    match shape {
        Shape::EdgeOutage => {
            let edge = rng.below(edges.len() as u64) as usize;
            down_up(edge, 180 + rng.below(60), 350);
        }
        Shape::Flapping => {
            let edge = rng.below(edges.len() as u64) as usize;
            let first = 180 + rng.below(40);
            for pulse in 0..3 {
                down_up(edge, first + pulse * 180, 90);
            }
        }
        Shape::NodeIsolation => {
            let node = if ring {
                commander + 1 + rng.below((executor - commander - 1) as u64) as usize
            } else {
                executor
            };
            let at = 200 + rng.below(40);
            faults.push(MeshFault {
                at,
                kind: MeshFaultKind::IsolateNode { node },
            });
            faults.push(MeshFault {
                at: at + 380,
                kind: MeshFaultKind::HealNode { node },
            });
        }
        Shape::TwoEdgePartition => {
            // Ring edges (i, i + 1) with commander ≤ i < executor lie on
            // the clockwise command path.
            let pool: Vec<usize> = if ring {
                (commander..executor)
                    .map(|i| edge_index(&edges, i, i + 1))
                    .collect()
            } else {
                (0..edges.len()).collect()
            };
            let first = rng.below(pool.len() as u64) as usize;
            let second = (first + 1 + rng.below(pool.len() as u64 - 1) as usize) % pool.len();
            let at = 180 + rng.below(40);
            down_up(pool[first], at, 400);
            down_up(pool[second], at + 40, 390);
        }
    }
    MeshPlan {
        topology,
        nodes,
        faults: FaultPlan::empty(),
        partitions: faults,
        heal: Some(HealPolicy::default()),
    }
}

/// Canonical text of the mesh inputs: one line per campaign.
pub fn mesh_text(inputs: &[MeshInput]) -> String {
    let mut out = String::new();
    for input in inputs {
        let _ = write!(out, "{} {}", input.label, input.plan.nodes);
        for f in &input.plan.partitions {
            let _ = write!(out, " {}:{:?}", f.at, f.kind);
        }
        out.push('\n');
    }
    out
}

// -------------------------------------------------------------- explore

/// A frozen copy of `examples/constellation_hub.air`: later edits to the
/// example do not move this workload.
pub const HUB: &str = include_str!("../inputs/constellation_hub.air");

/// The hub configuration with its ten `route` lines in a seeded order.
/// The spokes are interchangeable, so every order has the same state
/// space (`explore::tests` checks the state count).
pub fn hub_text(seed: u64) -> String {
    let mut rng = Rng::new(seed);
    let (mut routes, mut lines): (Vec<&str>, Vec<&str>) =
        HUB.lines().partition(|l| l.starts_with("route "));
    for i in (1..routes.len()).rev() {
        routes.swap(i, rng.below(i as u64 + 1) as usize);
    }
    lines.extend(routes);
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

// ----------------------------------------------------------------- gate

/// `count` generated configuration texts; config `i` is drawn from
/// `machine_seed(seed, i)`.
pub fn gate_configs(seed: u64, count: usize) -> Vec<String> {
    (0..count)
        .map(|i| config_text(&mut Rng::new(machine_seed(seed, i))))
        .collect()
}

/// One configuration of 2–4 partitions and 1–3 schedules, with seeded
/// processes, ports and channels, memory regions, health-monitor tables,
/// a link with ARQ, and mesh routes. Some draws are deliberately wrong
/// (an overlong requirement, an overlapping memory region, a size
/// mismatch on a channel) so the analyses find something to report.
fn config_text(rng: &mut Rng) -> String {
    let parts = rng.range(2, 4) as usize;
    let schedules = rng.range(1, 3) as usize;
    let mtf = [100u64, 120, 200][rng.below(3) as usize];
    let slice = mtf / parts as u64;
    let mut t = String::new();
    for p in 0..parts {
        let authority = if p == 0 || rng.chance(1, 4) {
            " authority=true"
        } else {
            ""
        };
        let _ = writeln!(t, "partition P{p} name=Q{p}{authority}");
    }
    for s in 0..schedules {
        let _ = writeln!(t, "schedule chi{s} name=s{s} mtf={mtf}");
        for p in 0..parts {
            if s > 0 && p > 0 && rng.chance(1, 4) {
                continue;
            }
            let duration = rng.range(slice / 2, slice);
            let required = if rng.chance(1, 8) {
                duration + 5
            } else {
                duration
            };
            let _ = writeln!(t, "  require P{p} cycle={mtf} duration={required}");
            let _ = writeln!(
                t,
                "  window P{p} offset={} duration={duration}",
                p as u64 * slice
            );
            if rng.chance(1, 4) {
                let action = ["stop", "warm_restart", "cold_restart"][rng.below(3) as usize];
                let _ = writeln!(t, "  action P{p} {action}");
            }
        }
    }
    for p in 0..parts {
        if rng.chance(1, 3) {
            let wcet = rng.range(5, slice);
            let priority = rng.range(1, 10);
            let _ = writeln!(
                t,
                "process P{p} name=w{p} period={mtf} deadline={mtf} wcet={wcet} priority={priority}"
            );
        }
    }
    if rng.chance(1, 2) {
        let size = if rng.chance(1, 8) { 32 } else { 64 };
        let _ = writeln!(t, "sampling P0 name=out dir=source size=64");
        let _ = writeln!(t, "sampling P1 name=in dir=destination size={size}");
        let _ = writeln!(t, "channel 0 from=P0:out to=P1:in");
    }
    if rng.chance(1, 3) {
        let _ = writeln!(t, "queuing P1 name=tc dir=source size=32 depth=8");
        let _ = writeln!(t, "queuing P0 name=rx dir=destination size=32 depth=8");
        let _ = writeln!(t, "channel 1 from=P1:tc to=P0:rx");
    }
    for p in 0..parts {
        let base = if p > 0 && rng.chance(1, 8) { p - 1 } else { p };
        let _ = writeln!(t, "memory P{p} base=0x4{base}000000 size=0x10000 perm=rw");
    }
    if rng.chance(1, 2) {
        for (error, level) in [
            ("deadline_missed", "process"),
            ("application_error", "process"),
            ("memory_violation", "partition"),
            ("hardware_fault", "module"),
        ] {
            let _ = writeln!(t, "hm {error} level={level}");
        }
        let _ = writeln!(
            t,
            "handler P0 deadline_missed log_then_act=2/restart_process"
        );
    }
    if rng.chance(1, 2) {
        let degraded = if rng.chance(1, 2) {
            format!(" degraded=chi{}", rng.below(schedules as u64))
        } else {
            String::new()
        };
        let _ = writeln!(
            t,
            "link primary_latency=3 secondary_latency=6 failover_threshold=2{degraded}"
        );
        if rng.chance(2, 3) {
            let _ = writeln!(t, "arq window=8 timeout=24");
        }
    }
    if rng.chance(1, 3) {
        let _ = writeln!(t, "node N0 name=GEN");
        for n in 1..=rng.range(1, 3) {
            let _ = writeln!(t, "route N{n} via=N{n}");
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_and_seed_sensitive() {
        let fleet = |s| digest(&fleet_text(&fleet_plans(s, 8)));
        let mesh = |s| digest(&mesh_text(&mesh_inputs(s, 9, 1)));
        let hub = |s| digest(&hub_text(s));
        let gate = |s| digest(&gate_configs(s, 16).concat());
        for gen in [fleet, mesh, hub, gate] {
            assert_eq!(gen(42), gen(42));
            assert_ne!(gen(42), gen(43));
        }
    }

    #[test]
    fn hub_shuffle_only_reorders_routes() {
        let mut a: Vec<&str> = HUB.lines().collect();
        let shuffled = hub_text(7);
        let mut b: Vec<&str> = shuffled.lines().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn generated_configs_parse() {
        for (i, text) in gate_configs(1, 200).iter().enumerate() {
            if let Err(e) = air_tools::config::parse(text) {
                panic!("config {i} does not parse: {e}\n{text}");
            }
        }
    }

    #[test]
    fn ring_faults_never_cut_the_executor_off() {
        for input in mesh_inputs(5, 9, 10) {
            let plan = &input.plan;
            if plan.topology != MeshTopology::Ring {
                continue;
            }
            let (commander, executor) = command_endpoints(plan.topology, plan.nodes);
            for f in &plan.partitions {
                if let MeshFaultKind::IsolateNode { node } = f.kind {
                    assert!(node != commander && node != executor, "{}", input.label);
                }
            }
        }
    }
}
