//! The contract every steppable campaign shares.
//!
//! [`CampaignSim`](crate::campaign::CampaignSim),
//! [`LinkSim`](crate::link_campaign::LinkSim) and
//! [`MeshSim`](crate::mesh::MeshSim) each advance one seeded experiment
//! a tick at a time to a planned horizon, and render a byte-stable trace
//! that is a pure function of the plan. The campaign runners, the fleet
//! workload of `air-fleet` and the trace-digest tests drive all three
//! through this one trait.

/// One incrementally steppable, seeded experiment.
pub trait Scenario: Sized {
    /// The seeded input one instance runs.
    type Plan;

    /// An instance for `plan` whose fixed configuration passes the full
    /// build gate.
    fn build(plan: &Self::Plan) -> Self;

    /// The fast path: an instance for `plan` without the build gate.
    /// Validate the fixed configuration once with [`Scenario::build`],
    /// then mass-construct through this.
    fn build_unchecked(plan: &Self::Plan) -> Self;

    /// The tick an instance for `plan` stops at.
    fn planned_horizon(plan: &Self::Plan) -> u64;

    /// Current tick.
    fn now(&self) -> u64;

    /// The tick this instance stops at.
    fn horizon(&self) -> u64;

    /// Advances one tick. No-op at or past the horizon.
    fn step(&mut self);

    /// Appends the canonical trace log to `out`, byte-stable across
    /// reruns.
    fn render_trace_into(&self, out: &mut String);

    /// Whether the instance has reached its horizon.
    fn is_done(&self) -> bool {
        self.now() >= self.horizon()
    }

    /// Advances up to `n` ticks, stopping at the horizon. The default
    /// steps every tick; an implementation may skip ticks on which `step`
    /// would change nothing, as long as the result is the same.
    fn run_for(&mut self, n: u64) {
        for _ in 0..n {
            if self.is_done() {
                break;
            }
            self.step();
        }
    }

    /// Runs to the horizon.
    fn run_to_horizon(&mut self) {
        self.run_for(self.horizon().saturating_sub(self.now()));
    }
}
