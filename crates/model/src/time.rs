//! Time base of the model: abstract clock ticks and arithmetic helpers.
//!
//! The AIR Partition Scheduler runs at every system clock tick (Sect. 4.3 of
//! the paper), so the natural time unit of the whole model is the **tick**.
//! All durations, offsets, periods and deadlines are integer multiples of a
//! tick; the paper's prototype MTF of "1300 time units" is `Ticks(1300)`.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Rem, Sub, SubAssign};

/// A duration or instant measured in system clock ticks.
///
/// `Ticks` is a transparent newtype over `u64` ([C-NEWTYPE]) so that
/// durations cannot be accidentally mixed with counters or identifiers.
/// Instants are ticks since system initialisation (`ticks` in Algorithm 1).
///
/// # Examples
///
/// ```
/// use air_model::Ticks;
///
/// let mtf = Ticks(1300);
/// let cycle = Ticks(650);
/// assert_eq!(mtf / cycle, 2);
/// assert_eq!(cycle * 2, mtf);
/// ```
///
/// [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ticks(pub u64);

impl Ticks {
    /// The zero duration / the system-initialisation instant.
    pub const ZERO: Ticks = Ticks(0);

    /// One clock tick.
    pub const ONE: Ticks = Ticks(1);

    /// The largest representable instant; used as "never".
    pub const MAX: Ticks = Ticks(u64::MAX);

    /// Returns the raw tick count.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Saturating subtraction: `a.saturating_sub(b)` is `0` when `b > a`.
    #[inline]
    pub const fn saturating_sub(self, rhs: Ticks) -> Ticks {
        Ticks(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition, `None` on overflow.
    #[inline]
    pub fn checked_add(self, rhs: Ticks) -> Option<Ticks> {
        self.0.checked_add(rhs.0).map(Ticks)
    }

    /// Checked multiplication by a scalar, `None` on overflow.
    #[inline]
    pub fn checked_mul(self, rhs: u64) -> Option<Ticks> {
        self.0.checked_mul(rhs).map(Ticks)
    }

    /// Whether this value is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Rounds `self` up to the next multiple of `step`.
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero.
    #[inline]
    pub fn round_up_to(self, step: Ticks) -> Ticks {
        assert!(!step.is_zero(), "cannot round to a zero step");
        let rem = self.0 % step.0;
        if rem == 0 {
            self
        } else {
            Ticks(self.0 + (step.0 - rem))
        }
    }
}

impl fmt::Display for Ticks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}t", self.0)
    }
}

impl From<u64> for Ticks {
    fn from(value: u64) -> Self {
        Ticks(value)
    }
}

impl From<Ticks> for u64 {
    fn from(value: Ticks) -> Self {
        value.0
    }
}

impl Add for Ticks {
    type Output = Ticks;
    #[inline]
    fn add(self, rhs: Ticks) -> Ticks {
        Ticks(self.0 + rhs.0)
    }
}

impl AddAssign for Ticks {
    #[inline]
    fn add_assign(&mut self, rhs: Ticks) {
        self.0 += rhs.0;
    }
}

impl Sub for Ticks {
    type Output = Ticks;
    #[inline]
    fn sub(self, rhs: Ticks) -> Ticks {
        Ticks(self.0 - rhs.0)
    }
}

impl SubAssign for Ticks {
    #[inline]
    fn sub_assign(&mut self, rhs: Ticks) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Ticks {
    type Output = Ticks;
    #[inline]
    fn mul(self, rhs: u64) -> Ticks {
        Ticks(self.0 * rhs)
    }
}

impl Rem for Ticks {
    type Output = Ticks;
    #[inline]
    fn rem(self, rhs: Ticks) -> Ticks {
        Ticks(self.0 % rhs.0)
    }
}

/// Integer division of two durations yields a dimensionless count
/// (e.g. `MTF / η_m` = number of partition cycles per major time frame).
impl std::ops::Div for Ticks {
    type Output = u64;
    #[inline]
    fn div(self, rhs: Ticks) -> u64 {
        self.0 / rhs.0
    }
}

impl Sum for Ticks {
    fn sum<I: Iterator<Item = Ticks>>(iter: I) -> Ticks {
        iter.fold(Ticks::ZERO, Add::add)
    }
}

/// Greatest common divisor (Euclid).
#[inline]
pub fn gcd(a: u64, b: u64) -> u64 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = b;
        b = a % b;
        a = t;
    }
    a
}

/// Least common multiple; `lcm(0, x) = 0` by convention.
///
/// Used by the MTF condition of Eq. (7)/(22): the major time frame must be a
/// natural multiple of the lcm of all partition cycles in the schedule.
#[inline]
pub fn lcm(a: u64, b: u64) -> u64 {
    if a == 0 || b == 0 {
        0
    } else {
        a / gcd(a, b) * b
    }
}

/// Least common multiple of a set of durations, skipping zero entries.
///
/// Partitions without strict time requirements have `d_m = 0` and may have a
/// degenerate cycle; zero cycles do not constrain the MTF.
pub fn lcm_all<I: IntoIterator<Item = Ticks>>(cycles: I) -> Ticks {
    Ticks(
        cycles
            .into_iter()
            .map(Ticks::as_u64)
            .filter(|&c| c != 0)
            .fold(1, lcm),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let a = Ticks(650);
        assert_eq!(a + a, Ticks(1300));
        assert_eq!(Ticks(1300) - a, a);
        assert_eq!(a * 2, Ticks(1300));
        assert_eq!(Ticks(1300) / a, 2);
        assert_eq!(Ticks(1301) % Ticks(1300), Ticks(1));
    }

    #[test]
    fn saturating_sub_floors_at_zero() {
        assert_eq!(Ticks(3).saturating_sub(Ticks(5)), Ticks::ZERO);
        assert_eq!(Ticks(5).saturating_sub(Ticks(3)), Ticks(2));
    }

    #[test]
    fn round_up() {
        assert_eq!(Ticks(0).round_up_to(Ticks(100)), Ticks(0));
        assert_eq!(Ticks(1).round_up_to(Ticks(100)), Ticks(100));
        assert_eq!(Ticks(100).round_up_to(Ticks(100)), Ticks(100));
        assert_eq!(Ticks(101).round_up_to(Ticks(100)), Ticks(200));
    }

    #[test]
    #[should_panic(expected = "zero step")]
    fn round_up_zero_step_panics() {
        let _ = Ticks(1).round_up_to(Ticks::ZERO);
    }

    #[test]
    fn gcd_lcm_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(17, 5), 1);
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(0, 6), 0);
        assert_eq!(lcm_all([Ticks(650), Ticks(1300)]), Ticks(1300));
        assert_eq!(lcm_all([Ticks(650), Ticks(0), Ticks(1300)]), Ticks(1300));
        // The paper's prototype: cycles 1300, 650, 650, 1300 → lcm 1300.
        assert_eq!(
            lcm_all([Ticks(1300), Ticks(650), Ticks(650), Ticks(1300)]),
            Ticks(1300)
        );
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Ticks(1300).to_string(), "1300t");
    }

    #[test]
    fn checked_ops() {
        assert_eq!(Ticks(u64::MAX).checked_add(Ticks(1)), None);
        assert_eq!(Ticks(2).checked_mul(u64::MAX), None);
        assert_eq!(Ticks(2).checked_mul(3), Some(Ticks(6)));
    }

    #[test]
    fn sum_of_window_durations() {
        let windows = [Ticks(200), Ticks(100), Ticks(100)];
        let total: Ticks = windows.iter().copied().sum();
        assert_eq!(total, Ticks(400));
    }
}
