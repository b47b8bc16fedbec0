//! Deterministic pseudo-random helpers for the workspace's randomized
//! tests.
//!
//! The test-suites exercise the implementation crates on randomly generated
//! schedules, port traffic and deadline traces. To keep the default
//! workspace free of external dependencies (the build must succeed in a
//! network-restricted environment), they draw their randomness from this
//! small, seedable xorshift64* generator instead of an external property
//! testing framework. Failures print the seed, so any run is reproducible
//! by pinning it.
//!
//! The module also hosts the reusable **isolation assertion** of the
//! fault-injection campaigns: restrict two event streams to one
//! partition's events and demand they are identical — the executable form
//! of "a fault in partition A never perturbs partition B".

use crate::ids::PartitionId;

/// A seedable xorshift64* pseudo-random generator.
///
/// Statistically good enough for test-case generation, trivially
/// reproducible, and `no_std`-friendly. Not for cryptographic use.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from `seed` (a zero seed is remapped, the
    /// xorshift state must be non-zero).
    pub fn new(seed: u64) -> Self {
        Self {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "below(0) is meaningless");
        // Multiply-shift reduction: unbiased enough for test generation.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform value in the half-open range `[lo, hi)`; `lo < hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// Uniform `usize` in `[0, n)`.
    pub fn below_usize(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

/// The events of `events` owned by `partition`, per the caller-supplied
/// ownership extractor (`None` marks events with no single owner — module
/// scope, injection markers — which never count towards any partition).
pub fn events_of_partition<'a, E>(
    events: &'a [E],
    partition: PartitionId,
    owner: &dyn Fn(&E) -> Option<PartitionId>,
) -> Vec<&'a E> {
    events
        .iter()
        .filter(|e| owner(e) == Some(partition))
        .collect()
}

/// The isolation invariant: `partition`'s view of `faulted` must equal its
/// view of `clean`. Returns `None` when the restricted streams are
/// identical, or a description of the first divergence.
///
/// This is the differential-test core — callers run the same workload with
/// and without a fault aimed at *another* partition and assert that this
/// partition cannot tell the difference.
pub fn isolation_divergence<E, F>(
    clean: &[E],
    faulted: &[E],
    partition: PartitionId,
    owner: F,
) -> Option<String>
where
    E: PartialEq + std::fmt::Debug,
    F: Fn(&E) -> Option<PartitionId>,
{
    let c = events_of_partition(clean, partition, &owner);
    let f = events_of_partition(faulted, partition, &owner);
    for (i, (ce, fe)) in c.iter().zip(f.iter()).enumerate() {
        if ce != fe {
            return Some(format!(
                "{partition} event #{i} diverges: clean {ce:?}, faulted {fe:?}"
            ));
        }
    }
    if c.len() != f.len() {
        return Some(format!(
            "{partition} event count diverges: clean {}, faulted {}",
            c.len(),
            f.len()
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = TestRng::new(42);
        let mut b = TestRng::new(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_stays_in_range_and_hits_all_buckets() {
        let mut rng = TestRng::new(7);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = rng.below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets reachable: {seen:?}");
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut rng = TestRng::new(0);
        assert_ne!(rng.next_u64(), 0);
    }

    #[derive(Debug, PartialEq)]
    struct Ev(u32, &'static str);

    fn owner(e: &Ev) -> Option<PartitionId> {
        // Partition 99 stands for "no owner".
        (e.0 != 99).then_some(PartitionId(e.0))
    }

    #[test]
    fn isolation_holds_when_restrictions_match() {
        let clean = vec![Ev(0, "a"), Ev(1, "x"), Ev(0, "b")];
        let faulted = vec![Ev(0, "a"), Ev(1, "y"), Ev(99, "inject"), Ev(0, "b")];
        // Partition 0's view is untouched by partition 1's divergence and
        // by ownerless events.
        assert_eq!(
            isolation_divergence(&clean, &faulted, PartitionId(0), owner),
            None
        );
        assert!(isolation_divergence(&clean, &faulted, PartitionId(1), owner).is_some());
    }

    #[test]
    fn isolation_reports_count_divergence() {
        let clean = vec![Ev(2, "a")];
        let faulted = vec![Ev(2, "a"), Ev(2, "extra")];
        let msg = isolation_divergence(&clean, &faulted, PartitionId(2), owner).unwrap();
        assert!(msg.contains("count"), "{msg}");
    }
}
