//! The sharded fleet executor.
//!
//! A *fleet* is N independent emulated AIR systems advanced over their
//! horizons. The executor splits the fleet into contiguous shards, one
//! per worker thread, and runs batched tick delivery: every worker
//! advances each machine of its shard up to [`FleetConfig::batch_ticks`]
//! ticks, then all workers meet at a barrier before the next round. The
//! barrier cadence is the only cross-shard coupling — machines never
//! share state (see [`FleetWorkload`]'s contract), so a fleet's
//! per-machine trace logs are byte-identical whether it ran on 1 worker
//! or 16, batched by 1 tick or 10 000.
//!
//! Worker 0 is the calling thread: the executor spawns `workers - 1`
//! scoped threads and participates itself.

use std::ops::Range;
use std::sync::Barrier;
use std::thread;

use crate::trace_digest;

/// A family of independent simulation instances the fleet executor can
/// shard across worker threads.
///
/// # Determinism contract
///
/// * `build(i)` must be a pure function of `i` (and the workload's own
///   configuration): building machine `i` on any thread, in any order,
///   yields the same initial state.
/// * Instances must be fully self-contained — `tick` on one instance
///   must not observe or mutate any other instance, directly or through
///   shared/global state. This is what makes the shard assignment and
///   batch size invisible in the rendered traces.
/// * `tick(inst, n)` advances exactly `min(n, remaining)` ticks; calling
///   it as `tick(inst, a); tick(inst, b)` must leave the same state as
///   `tick(inst, a + b)`.
pub trait FleetWorkload: Sync {
    /// One machine of the fleet, owned by exactly one worker at a time.
    type Instance: Send;

    /// Constructs machine `index` in its initial state.
    fn build(&self, index: usize) -> Self::Instance;

    /// Total ticks machine `index` will execute.
    fn horizon(&self, index: usize) -> u64;

    /// Advances `instance` by up to `ticks` ticks.
    fn tick(&self, instance: &mut Self::Instance, ticks: u64);

    /// Appends `instance`'s canonical rendered trace log to `out`.
    fn render_trace(&self, instance: &Self::Instance, out: &mut String);
}

/// What the executor keeps of each machine's trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Capture {
    /// Only the FNV-1a digest of the rendered log — a thousand-machine
    /// fleet then costs one transient render buffer per worker instead of
    /// a thousand resident logs. Digest equality is the determinism
    /// check's currency.
    Digest,
    /// The full rendered log (plus its digest), for byte-level
    /// comparisons in tests.
    FullTrace,
}

/// Fleet shape: how many machines, across how many workers, at what
/// batch cadence.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of machines in the fleet.
    pub machines: usize,
    /// Worker threads (clamped to `1..=machines`).
    pub workers: usize,
    /// Ticks each worker advances a machine between barriers (≥ 1).
    pub batch_ticks: u64,
    /// Trace retention policy.
    pub capture: Capture,
}

impl FleetConfig {
    /// A fleet of `machines` machines on `workers` workers with a
    /// 64-tick batch, keeping digests only.
    pub fn new(machines: usize, workers: usize) -> Self {
        Self {
            machines,
            workers,
            batch_ticks: 64,
            capture: Capture::Digest,
        }
    }

    /// Overrides the batch size.
    #[must_use]
    pub fn with_batch_ticks(mut self, batch_ticks: u64) -> Self {
        self.batch_ticks = batch_ticks;
        self
    }

    /// Overrides the capture policy.
    #[must_use]
    pub fn with_capture(mut self, capture: Capture) -> Self {
        self.capture = capture;
        self
    }
}

/// One machine's result: identity, work done, and its trace (or just the
/// trace's digest).
#[derive(Debug, Clone)]
pub struct MachineOutcome {
    /// The machine's fleet index.
    pub index: usize,
    /// Ticks executed (the machine's horizon).
    pub ticks: u64,
    /// FNV-1a digest of the rendered trace log.
    pub digest: u64,
    /// The rendered trace log under [`Capture::FullTrace`].
    pub trace_log: Option<String>,
}

/// The whole fleet's result. Timing is the caller's business: wrap the
/// call, or time the [`FleetWorkload`] methods it makes.
#[derive(Debug)]
pub struct FleetOutcome {
    /// Per-machine outcomes, in fleet-index order.
    pub outcomes: Vec<MachineOutcome>,
}

impl FleetOutcome {
    /// Total ticks executed across the fleet.
    pub fn total_ticks(&self) -> u64 {
        self.outcomes.iter().map(|o| o.ticks).sum()
    }

    /// A single digest over the whole fleet: FNV-1a folded over the
    /// per-machine digests in index order. Two runs of the same fleet
    /// agree on this iff every machine's trace agreed.
    pub fn fleet_digest(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.outcomes.len() * 8);
        for o in &self.outcomes {
            bytes.extend_from_slice(&o.digest.to_le_bytes());
        }
        trace_digest(&bytes)
    }
}

/// The contiguous shard ranges for `machines` over `workers` (first
/// `machines % workers` shards take one extra machine).
fn shard_ranges(machines: usize, workers: usize) -> Vec<Range<usize>> {
    let base = machines / workers;
    let extra = machines % workers;
    let mut ranges = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let len = base + usize::from(w < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// One worker's machine: index, live instance, ticks still to run.
struct ShardSlot<I> {
    index: usize,
    instance: I,
    remaining: u64,
    horizon: u64,
}

fn build_shard<W: FleetWorkload>(workload: &W, range: Range<usize>) -> Vec<ShardSlot<W::Instance>> {
    range
        .map(|index| {
            let horizon = workload.horizon(index);
            ShardSlot {
                index,
                instance: workload.build(index),
                remaining: horizon,
                horizon,
            }
        })
        .collect()
}

fn tick_shard<W: FleetWorkload>(workload: &W, shard: &mut [ShardSlot<W::Instance>], batch: u64) {
    for slot in shard.iter_mut() {
        let n = batch.min(slot.remaining);
        if n > 0 {
            workload.tick(&mut slot.instance, n);
            slot.remaining -= n;
        }
    }
}

fn finalize_shard<W: FleetWorkload>(
    workload: &W,
    shard: Vec<ShardSlot<W::Instance>>,
    capture: Capture,
) -> Vec<MachineOutcome> {
    let mut render = String::new();
    shard
        .into_iter()
        .map(|slot| {
            render.clear();
            workload.render_trace(&slot.instance, &mut render);
            MachineOutcome {
                index: slot.index,
                ticks: slot.horizon,
                digest: trace_digest(render.as_bytes()),
                trace_log: (capture == Capture::FullTrace).then(|| render.clone()),
            }
        })
        .collect()
}

/// Runs `workload` as a sharded fleet per `config` and gathers every
/// machine's outcome (fleet-index order).
///
/// # Examples
///
/// ```
/// use air_fleet::{run_fleet, run_sequential, Capture, FleetConfig};
/// use air_fleet::workloads::CampaignFleet;
///
/// let fleet = CampaignFleet::new(42, 1).with_horizon(120);
/// let parallel = run_fleet(&fleet, &FleetConfig::new(8, 4));
/// let sequential = run_sequential(&fleet, 8, Capture::Digest);
/// assert_eq!(parallel.fleet_digest(), sequential.fleet_digest());
/// ```
pub fn run_fleet<W: FleetWorkload>(workload: &W, config: &FleetConfig) -> FleetOutcome {
    let machines = config.machines;
    let workers = config.workers.clamp(1, machines.max(1));
    let batch = config.batch_ticks.max(1);
    let ranges = shard_ranges(machines, workers);
    let max_horizon = (0..machines).map(|i| workload.horizon(i)).max().unwrap_or(0);
    let rounds = max_horizon.div_ceil(batch);
    let capture = config.capture;

    let barrier = Barrier::new(workers);
    let mut shard_results: Vec<Vec<MachineOutcome>> = Vec::new();
    shard_results.resize_with(workers, Vec::new);

    thread::scope(|s| {
        let (own, spawned) = shard_results.split_at_mut(1);
        for (slot, range) in spawned.iter_mut().zip(ranges[1..].iter().cloned()) {
            let barrier = &barrier;
            s.spawn(move || {
                let mut shard = build_shard(workload, range);
                barrier.wait();
                for _ in 0..rounds {
                    tick_shard(workload, &mut shard, batch);
                    barrier.wait();
                }
                *slot = finalize_shard(workload, shard, capture);
            });
        }
        // The calling thread is worker 0.
        let mut shard = build_shard(workload, ranges[0].clone());
        barrier.wait();
        for _ in 0..rounds {
            tick_shard(workload, &mut shard, batch);
            barrier.wait();
        }
        own[0] = finalize_shard(workload, shard, capture);
    });

    // Shards are contiguous ascending ranges, so concatenation in worker
    // order is fleet-index order.
    FleetOutcome {
        outcomes: shard_results.into_iter().flatten().collect(),
    }
}

/// The sequential baseline: one machine at a time, built and run to its
/// horizon in a plain loop — no threads, no barriers, no batching. The
/// reference the determinism property compares every sharded run
/// against.
pub fn run_sequential<W: FleetWorkload>(
    workload: &W,
    machines: usize,
    capture: Capture,
) -> FleetOutcome {
    let mut render = String::new();
    let outcomes = (0..machines)
        .map(|index| {
            let mut instance = workload.build(index);
            let horizon = workload.horizon(index);
            workload.tick(&mut instance, horizon);
            render.clear();
            workload.render_trace(&instance, &mut render);
            MachineOutcome {
                index,
                ticks: horizon,
                digest: trace_digest(render.as_bytes()),
                trace_log: (capture == Capture::FullTrace).then(|| render.clone()),
            }
        })
        .collect();
    FleetOutcome { outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial deterministic workload: machine `i` counts `100 + i`
    /// ticks and renders its count history length.
    struct Counter;

    impl FleetWorkload for Counter {
        type Instance = (u64, u64); // (count, checksum)

        fn build(&self, index: usize) -> Self::Instance {
            (0, index as u64)
        }

        fn horizon(&self, index: usize) -> u64 {
            100 + index as u64
        }

        fn tick(&self, instance: &mut Self::Instance, ticks: u64) {
            for _ in 0..ticks {
                instance.0 += 1;
                instance.1 = instance.1.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(instance.0);
            }
        }

        fn render_trace(&self, instance: &Self::Instance, out: &mut String) {
            use std::fmt::Write;
            let _ = write!(out, "count={} sum={}", instance.0, instance.1);
        }
    }

    #[test]
    fn shard_ranges_cover_exactly() {
        for machines in [0usize, 1, 7, 16, 100] {
            for workers in [1usize, 2, 3, 16] {
                let ranges = shard_ranges(machines, workers);
                assert_eq!(ranges.len(), workers);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    next = r.end;
                }
                assert_eq!(next, machines);
            }
        }
    }

    #[test]
    fn worker_count_and_batch_do_not_change_digests() {
        let reference = run_sequential(&Counter, 33, Capture::Digest);
        for workers in [1, 2, 5, 16] {
            for batch in [1, 7, 1000] {
                let cfg = FleetConfig::new(33, workers).with_batch_ticks(batch);
                let fleet = run_fleet(&Counter, &cfg);
                assert_eq!(fleet.outcomes.len(), 33);
                assert_eq!(
                    fleet.fleet_digest(),
                    reference.fleet_digest(),
                    "workers={workers} batch={batch}"
                );
            }
        }
    }

    #[test]
    fn outcomes_arrive_in_fleet_index_order() {
        let fleet = run_fleet(&Counter, &FleetConfig::new(10, 3));
        let indices: Vec<usize> = fleet.outcomes.iter().map(|o| o.index).collect();
        assert_eq!(indices, (0..10).collect::<Vec<_>>());
        assert_eq!(fleet.total_ticks(), (0..10).map(|i| 100 + i as u64).sum());
    }

    #[test]
    fn full_trace_capture_keeps_logs() {
        let fleet = run_fleet(
            &Counter,
            &FleetConfig::new(3, 2).with_capture(Capture::FullTrace),
        );
        for o in &fleet.outcomes {
            let log = o.trace_log.as_ref().expect("full capture keeps the log");
            assert_eq!(crate::trace_digest(log.as_bytes()), o.digest);
        }
    }
}
