//! Deterministic fault injection: seeded plans of hardware-level faults
//! and the [`Machine`] hooks that realise them.
//!
//! The paper's robustness claims (Sect. 2.4) are about *reactions*: a
//! spatial violation, a spurious trap or a lost link frame must surface
//! through the trap/interrupt path, reach AIR health monitoring, and be
//! answered by the configured recovery action. This module supplies the
//! adversary half of that experiment — a [`FaultPlan`] pins down *when*
//! and *what* to break, and the `Machine` injection hooks break it through
//! the same device surfaces real hardware would use (interrupt lines, the
//! in-flight link queues), never by calling into the PMK directly. The
//! plan is a pure function of its seed, so every campaign run is exactly
//! reproducible.
//!
//! The simulation layers above (`air-pmk`'s spatial manager for MMU
//! mapping denial, `air-core`'s campaign runner for process overruns)
//! contribute the fault classes that need software state the hardware
//! crate cannot see; the class taxonomy lives here so one plan can span
//! all of them.

use crate::interrupt::{InterruptLine, ParavirtOutcome, PrivilegeLevel};
use crate::link::LinkEndpoint;
use crate::machine::Machine;

/// The kinds of fault a plan can schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FaultClass {
    /// Revoke an MMU mapping of the active partition (realised by the
    /// spatial manager; detected as a memory-protection violation).
    MmuTamper,
    /// Raise a spurious device trap no driver is registered for.
    SpuriousTrap,
    /// Destroy an in-flight inter-node link frame.
    LinkDrop,
    /// Flip bits in an in-flight inter-node link frame.
    LinkBitFlip,
    /// A guest attempt to mask the clock-tick source (paravirtualisation
    /// wraps and reports it — Sect. 2.5).
    ClockInterference,
    /// Stall a process so it overruns its deadline (realised by the
    /// campaign workload's fault switch).
    ProcessOverrun,
    /// Sustained outage of the active link: every send over a window of
    /// ticks is lost (realised by the link's outage clock; recovered from
    /// by retransmission and, past the threshold, failover).
    LinkOutage,
    /// Destroy an in-flight acknowledgement frame, forcing the sender
    /// into a spurious retransmission (realised by a frame-kind predicate
    /// drop; the wire format stays out of this crate).
    AckLoss,
}

impl FaultClass {
    /// The canonical single-node campaign classes, in canonical order.
    /// The link-transport classes ([`FaultClass::LINK`]) are separate:
    /// they need a two-node cluster to mean anything.
    pub const ALL: [FaultClass; 6] = [
        FaultClass::MmuTamper,
        FaultClass::SpuriousTrap,
        FaultClass::LinkDrop,
        FaultClass::LinkBitFlip,
        FaultClass::ClockInterference,
        FaultClass::ProcessOverrun,
    ];

    /// The link-transport fault classes exercised by cluster campaigns.
    pub const LINK: [FaultClass; 4] = [
        FaultClass::LinkDrop,
        FaultClass::LinkBitFlip,
        FaultClass::LinkOutage,
        FaultClass::AckLoss,
    ];

    /// A stable snake_case label (used in reports and JSON).
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::MmuTamper => "mmu_tamper",
            FaultClass::SpuriousTrap => "spurious_trap",
            FaultClass::LinkDrop => "link_drop",
            FaultClass::LinkBitFlip => "link_bit_flip",
            FaultClass::ClockInterference => "clock_interference",
            FaultClass::ProcessOverrun => "process_overrun",
            FaultClass::LinkOutage => "link_outage",
            FaultClass::AckLoss => "ack_loss",
        }
    }
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// The tick at which the fault strikes.
    pub at: u64,
    /// What kind of fault.
    pub class: FaultClass,
    /// Class-specific random payload (byte index, bit mask, trap line…);
    /// consumers take the bits they need.
    pub target: u64,
}

/// A deterministic schedule of faults, generated from a seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (the clean-run baseline).
    pub fn empty() -> Self {
        Self {
            seed: 0,
            events: Vec::new(),
        }
    }

    /// A plan from explicit events (sorted by time, stable).
    pub fn from_events(seed: u64, mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        Self { seed, events }
    }

    /// Generates a plan: `per_class` faults of each class in `classes`,
    /// starting at tick `start`, spaced `spacing` ticks apart with up to
    /// `jitter` ticks of seeded forward jitter (`jitter < spacing` keeps
    /// the events ordered and non-colliding). Classes rotate round-robin
    /// over the slots, so bursts of one class never cluster.
    ///
    /// # Panics
    ///
    /// When `spacing` is zero or `jitter >= spacing`.
    pub fn generate(
        seed: u64,
        classes: &[FaultClass],
        per_class: usize,
        start: u64,
        spacing: u64,
        jitter: u64,
    ) -> Self {
        assert!(spacing > 0, "fault spacing must be positive");
        assert!(jitter < spacing, "jitter must stay below the slot spacing");
        let mut rng = InjectRng::new(seed);
        let mut events = Vec::with_capacity(classes.len() * per_class);
        for slot in 0..classes.len() * per_class {
            let class = classes[slot % classes.len()];
            let at = start + slot as u64 * spacing + rng.below(jitter + 1);
            let target = rng.next_u64();
            events.push(FaultEvent { at, class, target });
        }
        Self { seed, events }
    }

    /// The seed the plan was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled events, ordered by injection tick.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The tick of the last scheduled fault (0 for an empty plan).
    pub fn horizon(&self) -> u64 {
        self.events.last().map_or(0, |e| e.at)
    }

    /// The same plan with every event of `class` removed — the
    /// "campaign minus one fault class" input of differential testing.
    #[must_use]
    pub fn without_class(&self, class: FaultClass) -> Self {
        Self {
            seed: self.seed,
            events: self
                .events
                .iter()
                .copied()
                .filter(|e| e.class != class)
                .collect(),
        }
    }
}

/// Injection hooks: the ways a [`FaultPlan`] reaches the hardware. Each
/// hook perturbs a device the PMK already watches, so detection exercises
/// the production trap/interrupt paths.
impl Machine {
    /// Raises a spurious device trap on line `Device(line)`.
    pub fn inject_spurious_trap(&mut self, line: u8) {
        self.intc.raise(InterruptLine::Device(line));
    }

    /// Simulates a guest trying to mask the clock-tick source. The
    /// paravirtualised controller wraps the attempt (Sect. 2.5); the
    /// returned outcome is `Wrapped` by construction.
    pub fn inject_clock_mask_attempt(&mut self) -> ParavirtOutcome {
        self.intc
            .mask(InterruptLine::ClockTick, PrivilegeLevel::Guest)
    }

    /// Destroys the newest link frame in flight towards this node
    /// (endpoint A). Returns whether a frame was there to lose.
    pub fn inject_link_drop(&mut self) -> bool {
        self.link.drop_in_flight(LinkEndpoint::A)
    }

    /// Corrupts the newest link frame in flight towards this node.
    /// Returns whether a frame was there to corrupt.
    pub fn inject_link_tamper(&mut self, byte_index: usize, mask: u8) -> bool {
        self.link
            .tamper_in_flight(LinkEndpoint::A, byte_index, mask)
    }

    /// Starts a sustained outage of `duration` ticks on the active link:
    /// every frame sent during the window is lost in both directions.
    pub fn inject_link_outage(&mut self, duration: u64) {
        let now = self.clock.now();
        self.link.begin_outage_active(now, duration);
    }
}

/// The xorshift64* generator used for plan generation — same constants as
/// `air_model::testkit::TestRng`, duplicated here because `air-hw` sits
/// below the model crate in the dependency order.
#[derive(Debug, Clone)]
pub struct InjectRng {
    state: u64,
}

impl InjectRng {
    /// Creates a generator; a zero seed is replaced by a fixed odd value.
    pub fn new(seed: u64) -> Self {
        Self {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A value in `[0, bound)`; 0 when `bound` is 0.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        self.next_u64() % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let a = FaultPlan::generate(42, &FaultClass::ALL, 3, 100, 50, 10);
        let b = FaultPlan::generate(42, &FaultClass::ALL, 3, 100, 50, 10);
        let c = FaultPlan::generate(43, &FaultClass::ALL, 3, 100, 50, 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 18);
    }

    #[test]
    fn events_are_ordered_and_separated() {
        let plan = FaultPlan::generate(7, &FaultClass::ALL, 4, 10, 30, 29);
        for w in plan.events().windows(2) {
            assert!(w[0].at < w[1].at, "events must be strictly ordered: {w:?}");
        }
        assert!(plan.events().first().unwrap().at >= 10);
        assert_eq!(plan.horizon(), plan.events().last().unwrap().at);
    }

    #[test]
    fn classes_rotate_round_robin() {
        let classes = [FaultClass::LinkDrop, FaultClass::SpuriousTrap];
        let plan = FaultPlan::generate(1, &classes, 2, 0, 10, 0);
        let got: Vec<_> = plan.events().iter().map(|e| e.class).collect();
        assert_eq!(
            got,
            vec![
                FaultClass::LinkDrop,
                FaultClass::SpuriousTrap,
                FaultClass::LinkDrop,
                FaultClass::SpuriousTrap,
            ]
        );
    }

    #[test]
    fn without_class_removes_exactly_that_class() {
        let plan = FaultPlan::generate(9, &FaultClass::ALL, 2, 0, 20, 5);
        let reduced = plan.without_class(FaultClass::LinkDrop);
        assert_eq!(reduced.len(), plan.len() - 2);
        assert!(reduced
            .events()
            .iter()
            .all(|e| e.class != FaultClass::LinkDrop));
        // Remaining events keep their original ticks.
        for e in reduced.events() {
            assert!(plan.events().contains(e));
        }
    }

    #[test]
    fn spurious_trap_hook_raises_device_line() {
        let mut m = Machine::default();
        m.inject_spurious_trap(4);
        assert_eq!(m.intc.acknowledge(), Some(InterruptLine::Device(4)));
    }

    #[test]
    fn clock_mask_hook_is_wrapped_not_applied() {
        let mut m = Machine::default();
        assert_eq!(m.inject_clock_mask_attempt(), ParavirtOutcome::Wrapped);
        assert_eq!(m.intc.wrapped_clock_attempts(), 1);
        // The clock line still fires.
        m.advance_tick();
        assert_eq!(m.intc.acknowledge(), Some(InterruptLine::ClockTick));
    }

    #[test]
    fn link_hooks_reach_the_inbound_queue() {
        let mut m = Machine::default();
        assert!(!m.inject_link_drop(), "nothing in flight yet");
        m.link.send(LinkEndpoint::B, 0, vec![1, 2, 3]);
        assert!(m.inject_link_tamper(0, 0x80));
        assert!(m.inject_link_drop());
        assert!(!m.inject_link_drop());
    }

    #[test]
    fn inject_rng_pins_the_xorshift_star_sequence() {
        // xorshift64* with seed 1: x = 1 ^ (1>>12) = 1; x ^= x<<25 →
        // 0x2000001; x ^= x>>27 → 0x2000001; result = x * M.
        let mut rng = InjectRng::new(1);
        assert_eq!(
            rng.next_u64(),
            0x0200_0001_u64.wrapping_mul(0x2545_F491_4F6C_DD1D)
        );
        // Zero seed falls back to the fixed odd constant, never sticks at 0.
        let mut zero = InjectRng::new(0);
        assert_ne!(zero.next_u64(), 0);
    }
}
