//! The streaming fleet executor.
//!
//! A *fleet* is N independent emulated AIR systems, each run over its
//! horizon. The executor streams them: every worker claims the next
//! machine index from one shared atomic cursor, builds that machine,
//! ticks it to its horizon in one call, renders and digests its trace,
//! and drops it. Machines never share state (see [`FleetWorkload`]'s
//! contract), so which worker claimed which machine, and in what order,
//! cannot reach a trace: a fleet's per-machine logs are byte-identical
//! whether it ran on 1 worker or 16.
//!
//! Worker 0 is the calling thread: the executor spawns `workers - 1`
//! scoped threads and participates itself. With one worker the executor
//! is the sequential baseline, [`run_sequential`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use crate::trace_digest;

/// A family of independent simulation instances the fleet executor can
/// spread across worker threads.
///
/// # Determinism contract
///
/// * `build(i)` must be a pure function of `i` (and the workload's own
///   configuration): building machine `i` on any thread, in any order,
///   yields the same initial state.
/// * Instances must be fully self-contained — `tick` on one instance
///   must not observe or mutate any other instance, directly or through
///   shared/global state. This is what makes the worker count and the
///   order in which workers claim machines invisible in the rendered
///   traces.
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

/// Fleet shape: how many machines, across how many workers.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of machines in the fleet.
    pub machines: usize,
    /// Worker threads (clamped to `1..=machines`).
    pub workers: usize,
    /// Trace retention policy.
    pub capture: Capture,
}

impl FleetConfig {
    /// A fleet of `machines` machines on `workers` workers, keeping
    /// digests only.
    pub fn new(machines: usize, workers: usize) -> Self {
        Self {
            machines,
            workers,
            capture: Capture::Digest,
        }
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

/// Runs `workload` as a streaming fleet per `config` and gathers every
/// machine's outcome (fleet-index order).
///
/// Each worker claims the next machine index from one shared cursor,
/// builds that machine, ticks it to its whole horizon in one call,
/// renders and digests its trace, and drops it before claiming the next.
/// A fleet therefore holds at most `workers` machines at once, and a
/// worker that draws short horizons simply claims more of them.
///
/// # Examples
///
/// ```
/// use air_core::campaign::{standard_plan, CampaignSim};
/// use air_fleet::{run_fleet, run_sequential, Capture, FleetConfig, ScenarioFleet};
///
/// let fleet = ScenarioFleet::<CampaignSim, _>::new(42, |seed, _| standard_plan(seed, 1))
///     .with_horizon_cap(120);
/// let parallel = run_fleet(&fleet, &FleetConfig::new(8, 4));
/// let sequential = run_sequential(&fleet, 8, Capture::Digest);
/// assert_eq!(parallel.fleet_digest(), sequential.fleet_digest());
/// ```
pub fn run_fleet<W: FleetWorkload>(workload: &W, config: &FleetConfig) -> FleetOutcome {
    let machines = config.machines;
    let workers = config.workers.clamp(1, machines.max(1));
    let cursor = AtomicUsize::new(0);
    let worker = || {
        let mut render = String::new();
        let mut outcomes = Vec::new();
        loop {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            if index >= machines {
                return outcomes;
            }
            let mut instance = workload.build(index);
            let horizon = workload.horizon(index);
            workload.tick(&mut instance, horizon);
            render.clear();
            workload.render_trace(&instance, &mut render);
            drop(instance);
            outcomes.push(MachineOutcome {
                index,
                ticks: horizon,
                digest: trace_digest(render.as_bytes()),
                trace_log: (config.capture == Capture::FullTrace).then(|| render.clone()),
            });
        }
    };

    let mut outcomes = thread::scope(|s| {
        let spawned: Vec<_> = (1..workers).map(|_| s.spawn(worker)).collect();
        // The calling thread is worker 0.
        let mut outcomes = worker();
        for handle in spawned {
            match handle.join() {
                Ok(more) => outcomes.extend(more),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        outcomes
    });
    outcomes.sort_unstable_by_key(|o| o.index);
    FleetOutcome { outcomes }
}

/// The sequential baseline: [`run_fleet`] on one worker, the calling
/// thread, so machines run one at a time in index order. The reference
/// the determinism property compares every multi-worker run against.
pub fn run_sequential<W: FleetWorkload>(
    workload: &W,
    machines: usize,
    capture: Capture,
) -> FleetOutcome {
    run_fleet(
        workload,
        &FleetConfig::new(machines, 1).with_capture(capture),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScenarioFleet;

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
                instance.1 = instance
                    .1
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(instance.0);
            }
        }

        fn render_trace(&self, instance: &Self::Instance, out: &mut String) {
            use std::fmt::Write;
            let _ = write!(out, "count={} sum={}", instance.0, instance.1);
        }
    }

    /// [`Counter`] with very uneven horizons: every seventh machine runs
    /// 50× longer than its neighbours, so workers claim machines out of
    /// step with one another.
    struct Uneven;

    impl FleetWorkload for Uneven {
        type Instance = (u64, u64);

        fn build(&self, index: usize) -> Self::Instance {
            Counter.build(index)
        }

        fn horizon(&self, index: usize) -> u64 {
            if index.is_multiple_of(7) {
                5000
            } else {
                1 + index as u64
            }
        }

        fn tick(&self, instance: &mut Self::Instance, ticks: u64) {
            Counter.tick(instance, ticks);
        }

        fn render_trace(&self, instance: &Self::Instance, out: &mut String) {
            Counter.render_trace(instance, out);
        }
    }

    #[test]
    fn worker_count_does_not_change_digests() {
        let reference = run_sequential(&Counter, 33, Capture::Digest);
        for workers in [1, 2, 5, 16] {
            let fleet = run_fleet(&Counter, &FleetConfig::new(33, workers));
            assert_eq!(fleet.outcomes.len(), 33);
            assert_eq!(
                fleet.fleet_digest(),
                reference.fleet_digest(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn every_machine_runs_exactly_once_in_index_order() {
        for machines in [0usize, 1, 3, 33] {
            for workers in [1usize, 2, 5, 16] {
                let fleet = run_fleet(&Uneven, &FleetConfig::new(machines, workers));
                let indices: Vec<usize> = fleet.outcomes.iter().map(|o| o.index).collect();
                assert_eq!(
                    indices,
                    (0..machines).collect::<Vec<_>>(),
                    "machines={machines} workers={workers}"
                );
                for o in &fleet.outcomes {
                    assert_eq!(o.ticks, Uneven.horizon(o.index));
                }
            }
        }
    }

    /// Wraps a workload and counts its live instances: incremented in
    /// `build`, decremented when an instance drops.
    struct Residency<'a, W> {
        inner: W,
        live: &'a AtomicUsize,
        peak: &'a AtomicUsize,
    }

    struct Counted<'a, I> {
        instance: I,
        live: &'a AtomicUsize,
    }

    impl<I> Drop for Counted<'_, I> {
        fn drop(&mut self) {
            self.live.fetch_sub(1, Ordering::SeqCst);
        }
    }

    impl<'a, W: FleetWorkload> FleetWorkload for Residency<'a, W> {
        type Instance = Counted<'a, W::Instance>;

        fn build(&self, index: usize) -> Self::Instance {
            let now = self.live.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(now, Ordering::SeqCst);
            Counted {
                instance: self.inner.build(index),
                live: self.live,
            }
        }

        fn horizon(&self, index: usize) -> u64 {
            self.inner.horizon(index)
        }

        fn tick(&self, counted: &mut Self::Instance, ticks: u64) {
            self.inner.tick(&mut counted.instance, ticks);
        }

        fn render_trace(&self, counted: &Self::Instance, out: &mut String) {
            self.inner.render_trace(&counted.instance, out);
        }
    }

    #[test]
    fn a_fleet_holds_at_most_one_machine_per_worker() {
        use air_core::campaign::{standard_plan, CampaignSim};

        let (live, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let fleet = Residency {
            inner: ScenarioFleet::<CampaignSim, _>::new(42, |seed, _| standard_plan(seed, 1))
                .with_horizon_cap(120),
            live: &live,
            peak: &peak,
        };
        let outcome = run_fleet(&fleet, &FleetConfig::new(64, 4));
        assert_eq!(outcome.outcomes.len(), 64);
        assert_eq!(live.load(Ordering::SeqCst), 0, "every machine was dropped");
        let peak = peak.load(Ordering::SeqCst);
        assert!(
            (1..=4).contains(&peak),
            "4 workers held {peak} machines at once"
        );
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
