//! Interrupt controller with the paravirtualisation guard of Sect. 2.5.
//!
//! "To ensure that a non-real-time kernel as Linux cannot undermine the
//! overall time guarantees of the system by disabling or diverting system
//! clock interrupts, the instructions that could allow this must be wrapped
//! by low-level handlers (paravirtualized)." The controller therefore
//! distinguishes two privilege levels: the PMK (hypervisor) may mask any
//! line; a **guest** attempting to mask or divert the clock line does not
//! actually affect it — the attempt is recorded and reported instead.

use std::fmt;

/// An interrupt line of the emulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InterruptLine {
    /// The periodic system clock tick (line 0). The AIR Partition Scheduler
    /// and, transitively, everything timely in the system hangs off it.
    ClockTick,
    /// The inter-node communication link signalling message arrival.
    Link,
    /// Console input (keyboard) — drives the VITRAL interaction of Fig. 9.
    ConsoleInput,
    /// A numbered device line.
    Device(u8),
}

impl InterruptLine {
    fn index(self) -> usize {
        match self {
            InterruptLine::ClockTick => 0,
            InterruptLine::Link => 1,
            InterruptLine::ConsoleInput => 2,
            InterruptLine::Device(n) => 3 + n as usize,
        }
    }

    /// Inverse of [`index`](Self::index) for `idx < COUNT`.
    fn from_index(idx: usize) -> Self {
        match idx {
            0 => InterruptLine::ClockTick,
            1 => InterruptLine::Link,
            2 => InterruptLine::ConsoleInput,
            n => InterruptLine::Device((n - 3) as u8),
        }
    }

    /// The line's word in a controller bitset and its bit in that word.
    fn bit(self) -> (usize, u64) {
        let idx = self.index();
        (idx / 64, 1 << (idx % 64))
    }

    /// Total number of representable lines.
    const COUNT: usize = 3 + 256;
}

impl fmt::Display for InterruptLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterruptLine::ClockTick => f.write_str("clock-tick"),
            InterruptLine::Link => f.write_str("link"),
            InterruptLine::ConsoleInput => f.write_str("console-input"),
            InterruptLine::Device(n) => write!(f, "device{n}"),
        }
    }
}

/// Who is executing when a mask/divert request reaches the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrivilegeLevel {
    /// The AIR PMK (hypervisor level): full control.
    Pmk,
    /// A partition's POS or application: clock-line control is
    /// paravirtualised away.
    Guest,
}

/// Outcome of a guest's attempt to interfere with the clock interrupt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParavirtOutcome {
    /// The request targeted a non-clock line and was applied.
    Applied,
    /// The request targeted the clock line from guest level and was
    /// **wrapped**: the line stays under PMK control, the attempt is
    /// counted (exposed via [`InterruptController::wrapped_clock_attempts`]).
    Wrapped,
}

/// Number of 64-bit words covering [`InterruptLine::COUNT`] lines.
const WORDS: usize = InterruptLine::COUNT.div_ceil(64);

/// A maskable interrupt controller with per-line pending flags.
///
/// Pending and enabled flags are two inline bitsets of five 64-bit
/// words, one bit per line in priority order, so every operation is
/// O(1): [`raise`](Self::raise), [`mask`](Self::mask) and
/// [`unmask`](Self::unmask) touch one bit, and
/// [`acknowledge`](Self::acknowledge) looks at five words, however many
/// lines are pending.
///
/// # Examples
///
/// ```
/// use air_hw::interrupt::{InterruptController, InterruptLine, PrivilegeLevel};
///
/// let mut intc = InterruptController::new();
/// intc.raise(InterruptLine::ClockTick);
/// assert_eq!(intc.acknowledge(), Some(InterruptLine::ClockTick));
/// assert_eq!(intc.acknowledge(), None);
///
/// // A guest trying to mask the clock gets wrapped, not obeyed.
/// intc.mask(InterruptLine::ClockTick, PrivilegeLevel::Guest);
/// intc.raise(InterruptLine::ClockTick);
/// assert_eq!(intc.acknowledge(), Some(InterruptLine::ClockTick));
/// assert_eq!(intc.wrapped_clock_attempts(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct InterruptController {
    /// Bit `i % 64` of word `i / 64` is set when line `i` is enabled.
    enabled: [u64; WORDS],
    /// Bit `i % 64` of word `i / 64` is set when line `i` is pending.
    pending: [u64; WORDS],
    wrapped_clock_attempts: u64,
    raised_total: u64,
    delivered_total: u64,
}

impl InterruptController {
    /// Creates a controller with every line enabled and none pending.
    pub fn new() -> Self {
        let mut enabled = [u64::MAX; WORDS];
        // Bits past the last line stay clear, so they can never deliver.
        enabled[WORDS - 1] = u64::MAX >> (WORDS * 64 - InterruptLine::COUNT);
        Self {
            enabled,
            pending: [0; WORDS],
            wrapped_clock_attempts: 0,
            raised_total: 0,
            delivered_total: 0,
        }
    }

    /// Raises `line`: it becomes pending until acknowledged (idempotent for
    /// an already-pending line, as on real edge-latched controllers).
    pub fn raise(&mut self, line: InterruptLine) {
        self.raised_total += 1;
        let (word, bit) = line.bit();
        self.pending[word] |= bit;
    }

    /// Whether `line` is currently pending.
    pub fn is_pending(&self, line: InterruptLine) -> bool {
        let (word, bit) = line.bit();
        self.pending[word] & bit != 0
    }

    /// Whether `line` is currently enabled.
    pub fn is_enabled(&self, line: InterruptLine) -> bool {
        let (word, bit) = line.bit();
        self.enabled[word] & bit != 0
    }

    /// Masks (disables) `line` on behalf of `level`. A masked line that is
    /// raised stays pending and is delivered once unmasked.
    ///
    /// A [`PrivilegeLevel::Guest`] request against
    /// [`InterruptLine::ClockTick`] is *not* applied: per Sect. 2.5 the
    /// operation is paravirtualised and merely recorded.
    pub fn mask(&mut self, line: InterruptLine, level: PrivilegeLevel) -> ParavirtOutcome {
        if matches!(line, InterruptLine::ClockTick) && matches!(level, PrivilegeLevel::Guest) {
            self.wrapped_clock_attempts += 1;
            return ParavirtOutcome::Wrapped;
        }
        let (word, bit) = line.bit();
        self.enabled[word] &= !bit;
        ParavirtOutcome::Applied
    }

    /// Unmasks (enables) `line` on behalf of `level`. Guest requests on the
    /// clock line are wrapped exactly like [`mask`](Self::mask) — the guest
    /// must not be able to *infer* control it does not have.
    pub fn unmask(&mut self, line: InterruptLine, level: PrivilegeLevel) -> ParavirtOutcome {
        if matches!(line, InterruptLine::ClockTick) && matches!(level, PrivilegeLevel::Guest) {
            self.wrapped_clock_attempts += 1;
            return ParavirtOutcome::Wrapped;
        }
        let (word, bit) = line.bit();
        self.enabled[word] |= bit;
        ParavirtOutcome::Applied
    }

    /// Acknowledges and returns the highest-priority pending, enabled line
    /// (lowest index first: the clock tick always preempts device lines),
    /// clearing its pending flag; `None` when nothing is deliverable.
    ///
    /// O(1): the lowest set bit of `pending & enabled`, found word by word
    /// with one `trailing_zeros` on the first non-zero word.
    pub fn acknowledge(&mut self) -> Option<InterruptLine> {
        for (word, (pending, enabled)) in self.pending.iter_mut().zip(&self.enabled).enumerate() {
            let deliverable = *pending & *enabled;
            if deliverable != 0 {
                let bit = deliverable.trailing_zeros() as usize;
                *pending &= !(1 << bit);
                self.delivered_total += 1;
                return Some(InterruptLine::from_index(word * 64 + bit));
            }
        }
        None
    }

    /// Number of guest attempts to mask/unmask the clock line that were
    /// wrapped by the paravirtualisation layer.
    pub fn wrapped_clock_attempts(&self) -> u64 {
        self.wrapped_clock_attempts
    }

    /// Total interrupts raised since construction.
    pub fn raised_total(&self) -> u64 {
        self.raised_total
    }

    /// Total interrupts delivered (acknowledged) since construction.
    pub fn delivered_total(&self) -> u64 {
        self.delivered_total
    }
}

impl Default for InterruptController {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raise_and_acknowledge() {
        let mut intc = InterruptController::new();
        assert_eq!(intc.acknowledge(), None);
        intc.raise(InterruptLine::Device(7));
        assert!(intc.is_pending(InterruptLine::Device(7)));
        assert_eq!(intc.acknowledge(), Some(InterruptLine::Device(7)));
        assert!(!intc.is_pending(InterruptLine::Device(7)));
    }

    #[test]
    fn clock_preempts_devices() {
        let mut intc = InterruptController::new();
        intc.raise(InterruptLine::Device(0));
        intc.raise(InterruptLine::ClockTick);
        assert_eq!(intc.acknowledge(), Some(InterruptLine::ClockTick));
        assert_eq!(intc.acknowledge(), Some(InterruptLine::Device(0)));
    }

    #[test]
    fn pmk_may_mask_any_line() {
        let mut intc = InterruptController::new();
        assert_eq!(
            intc.mask(InterruptLine::ClockTick, PrivilegeLevel::Pmk),
            ParavirtOutcome::Applied
        );
        intc.raise(InterruptLine::ClockTick);
        assert_eq!(intc.acknowledge(), None, "masked line must not deliver");
        intc.unmask(InterruptLine::ClockTick, PrivilegeLevel::Pmk);
        assert_eq!(intc.acknowledge(), Some(InterruptLine::ClockTick));
    }

    #[test]
    fn guest_clock_mask_is_wrapped() {
        let mut intc = InterruptController::new();
        assert_eq!(
            intc.mask(InterruptLine::ClockTick, PrivilegeLevel::Guest),
            ParavirtOutcome::Wrapped
        );
        assert!(intc.is_enabled(InterruptLine::ClockTick));
        assert_eq!(
            intc.unmask(InterruptLine::ClockTick, PrivilegeLevel::Guest),
            ParavirtOutcome::Wrapped
        );
        assert_eq!(intc.wrapped_clock_attempts(), 2);
    }

    #[test]
    fn guest_may_mask_its_device_lines() {
        let mut intc = InterruptController::new();
        assert_eq!(
            intc.mask(InterruptLine::Device(3), PrivilegeLevel::Guest),
            ParavirtOutcome::Applied
        );
        assert!(!intc.is_enabled(InterruptLine::Device(3)));
    }

    #[test]
    fn counters_track_traffic() {
        let mut intc = InterruptController::new();
        intc.raise(InterruptLine::Link);
        intc.raise(InterruptLine::Link); // re-raise while pending
        assert_eq!(intc.raised_total(), 2);
        assert_eq!(intc.acknowledge(), Some(InterruptLine::Link));
        assert_eq!(intc.acknowledge(), None, "edge-latched: one delivery");
        assert_eq!(intc.delivered_total(), 1);
    }

    /// The linear-scan controller the bitset replaced, kept as the
    /// reference the differential test holds it to.
    struct LinearController {
        enabled: Vec<bool>,
        pending: Vec<bool>,
        wrapped_clock_attempts: u64,
        raised_total: u64,
        delivered_total: u64,
    }

    impl LinearController {
        fn new() -> Self {
            Self {
                enabled: vec![true; InterruptLine::COUNT],
                pending: vec![false; InterruptLine::COUNT],
                wrapped_clock_attempts: 0,
                raised_total: 0,
                delivered_total: 0,
            }
        }

        fn raise(&mut self, line: InterruptLine) {
            self.raised_total += 1;
            self.pending[line.index()] = true;
        }

        fn set_enabled(
            &mut self,
            line: InterruptLine,
            level: PrivilegeLevel,
            enabled: bool,
        ) -> ParavirtOutcome {
            if line == InterruptLine::ClockTick && level == PrivilegeLevel::Guest {
                self.wrapped_clock_attempts += 1;
                return ParavirtOutcome::Wrapped;
            }
            self.enabled[line.index()] = enabled;
            ParavirtOutcome::Applied
        }

        fn acknowledge(&mut self) -> Option<InterruptLine> {
            for idx in 0..InterruptLine::COUNT {
                if self.pending[idx] && self.enabled[idx] {
                    self.pending[idx] = false;
                    self.delivered_total += 1;
                    return Some(InterruptLine::from_index(idx));
                }
            }
            None
        }
    }

    #[test]
    fn bitset_matches_the_linear_scan_on_random_traffic() {
        let mut rng = crate::inject::InjectRng::new(0x1A7E_2009);
        let mut fast = InterruptController::new();
        let mut reference = LinearController::new();
        for op in 0..20_000 {
            // Bias towards the named lines and the word boundaries, so
            // collisions and priority races actually happen.
            let idx = match rng.below(4) {
                0 => rng.below(3) as usize,
                1 => [63, 64, 127, 128, 191, 192, 255, 256, 257, 258][rng.below(10) as usize],
                _ => rng.below(InterruptLine::COUNT as u64) as usize,
            };
            let line = InterruptLine::from_index(idx);
            assert_eq!(line.index(), idx);
            let level = if rng.below(2) == 0 {
                PrivilegeLevel::Pmk
            } else {
                PrivilegeLevel::Guest
            };
            match rng.below(8) {
                0..=2 => {
                    fast.raise(line);
                    reference.raise(line);
                }
                3 => assert_eq!(
                    fast.mask(line, level),
                    reference.set_enabled(line, level, false),
                    "op {op}: mask {line} as {level:?}"
                ),
                4 => assert_eq!(
                    fast.unmask(line, level),
                    reference.set_enabled(line, level, true),
                    "op {op}: unmask {line} as {level:?}"
                ),
                _ => assert_eq!(
                    fast.acknowledge(),
                    reference.acknowledge(),
                    "op {op}: acknowledge"
                ),
            }
            assert_eq!(
                fast.is_pending(line),
                reference.pending[idx],
                "op {op}: {line} pending"
            );
            assert_eq!(
                fast.is_enabled(line),
                reference.enabled[idx],
                "op {op}: {line} enabled"
            );
            assert_eq!(fast.raised_total(), reference.raised_total, "op {op}");
            assert_eq!(fast.delivered_total(), reference.delivered_total, "op {op}");
            assert_eq!(
                fast.wrapped_clock_attempts(),
                reference.wrapped_clock_attempts,
                "op {op}"
            );
        }
        // Drain both: the same lines come out in the same order.
        loop {
            let line = fast.acknowledge();
            assert_eq!(line, reference.acknowledge());
            if line.is_none() {
                break;
            }
        }
    }

    #[test]
    fn last_device_line_is_the_last_bit_of_the_last_word() {
        let mut intc = InterruptController::new();
        assert!(intc.is_enabled(InterruptLine::Device(255)));
        intc.raise(InterruptLine::Device(255));
        intc.raise(InterruptLine::Device(252));
        assert_eq!(intc.acknowledge(), Some(InterruptLine::Device(252)));
        assert_eq!(intc.acknowledge(), Some(InterruptLine::Device(255)));
        assert_eq!(intc.acknowledge(), None);
    }

    #[test]
    fn masked_pending_line_is_delivered_after_unmask() {
        let mut intc = InterruptController::new();
        intc.mask(InterruptLine::Device(64), PrivilegeLevel::Guest);
        intc.raise(InterruptLine::Device(64));
        assert_eq!(intc.acknowledge(), None);
        assert!(
            intc.is_pending(InterruptLine::Device(64)),
            "masking keeps it pending"
        );
        intc.unmask(InterruptLine::Device(64), PrivilegeLevel::Guest);
        assert_eq!(intc.acknowledge(), Some(InterruptLine::Device(64)));
        assert_eq!(intc.delivered_total(), 1);
    }

    #[test]
    fn raise_is_idempotent_while_pending() {
        let mut intc = InterruptController::new();
        for _ in 0..3 {
            intc.raise(InterruptLine::Device(200));
        }
        assert_eq!(intc.raised_total(), 3);
        assert_eq!(intc.acknowledge(), Some(InterruptLine::Device(200)));
        assert_eq!(intc.acknowledge(), None);
        assert_eq!(intc.delivered_total(), 1);
    }

    #[test]
    fn guest_masking_the_clock_still_delivers_it() {
        let mut intc = InterruptController::new();
        intc.raise(InterruptLine::Device(0));
        assert_eq!(
            intc.mask(InterruptLine::ClockTick, PrivilegeLevel::Guest),
            ParavirtOutcome::Wrapped
        );
        intc.raise(InterruptLine::ClockTick);
        assert_eq!(intc.acknowledge(), Some(InterruptLine::ClockTick));
        assert_eq!(intc.acknowledge(), Some(InterruptLine::Device(0)));
        assert_eq!(intc.wrapped_clock_attempts(), 1);
    }
}
