//! Order statistics, the regression check and fixed-bucket histograms.

/// The `p`-th percentile (0–100) of `values` by linear interpolation
/// between the two closest ranks. `values` need not be sorted; an empty
/// slice gives 0.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let sorted = sorted(values);
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p.clamp(0.0, 100.0) / 100.0 * (n - 1) as f64;
            let low = rank.floor() as usize;
            let high = (low + 1).min(n - 1);
            sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
        }
    }
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// First, second and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so a spread printed here matches one computed from the JSON results.
/// Fewer than two values give that value (or 0) three times.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return [v; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Clamping j can push delta below zero (Python does the same).
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median: the run-to-run spread
/// the comparison rule measures a change against.
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughput).
    Higher,
}

impl Better {
    /// The label `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Whether `change` is worse than `parent` by more than `bound` (a share
/// of `parent`) in direction `better`.
pub fn regressed(parent: f64, change: f64, bound: f64, better: Better) -> bool {
    let limit = parent.abs() * bound;
    match better {
        Better::Lower => change > parent + limit,
        Better::Higher => change < parent - limit,
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Sub-buckets per power of two: values are kept to within 1/16 (≈6%).
const SUB: usize = 16;
/// Octaves covered: up to 2^32 ns, far above any single tick.
const OCTAVES: usize = 32;
const BUCKETS: usize = SUB + (OCTAVES - 4) * SUB;

/// A fixed-bucket log-linear histogram of nanosecond durations: values
/// below 16 are exact, above that each power of two is split into 16
/// equal buckets. Memory is fixed, so per-tick timings of a whole fleet
/// aggregate without storing a sample per tick.
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: Box::new([0; BUCKETS]),
            total: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    fn index(value: u64) -> usize {
        if value < SUB as u64 {
            return value as usize;
        }
        let octave = 63 - value.leading_zeros() as usize; // ≥ 4
        let sub = ((value >> (octave - 4)) as usize) & (SUB - 1);
        (SUB + (octave - 4) * SUB + sub).min(BUCKETS - 1)
    }

    fn lower_bound(index: usize) -> u64 {
        if index < SUB {
            return index as u64;
        }
        let octave = (index - SUB) / SUB + 4;
        let sub = ((index - SUB) % SUB) as u64;
        (1u64 << octave) + (sub << (octave - 4))
    }

    /// Records one duration.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
        self.sum += ns;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all samples (ns).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The `p`-th percentile (0–100), as the lower bound of the bucket
    /// that holds it; 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * self.total as f64)
            .ceil()
            .max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::lower_bound(i) as f64;
            }
        }
        Self::lower_bound(BUCKETS - 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[3.0]), [3.0; 3]);
    }

    #[test]
    fn spread_and_bounds() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
        assert!(regressed(100.0, 111.0, 0.10, Better::Lower));
        assert!(!regressed(100.0, 109.0, 0.10, Better::Lower));
        assert!(regressed(100.0, 89.0, 0.10, Better::Higher));
        assert!(!regressed(100.0, 91.0, 0.10, Better::Higher));
        assert!(!regressed(100.0, 100.0, 0.0, Better::Lower));
    }

    #[test]
    fn histogram_buckets_are_monotone_and_tight() {
        for i in 1..BUCKETS {
            assert!(Histogram::lower_bound(i) > Histogram::lower_bound(i - 1));
            assert_eq!(Histogram::index(Histogram::lower_bound(i)), i);
        }
        for v in [0u64, 15, 16, 17, 1000, 123_456, 9_999_999] {
            let low = Histogram::lower_bound(Histogram::index(v));
            assert!(low <= v && v - low <= v / 16, "{v} -> {low}");
        }
    }

    #[test]
    fn histogram_percentiles() {
        let mut h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v * 1000);
        }
        let p50 = h.percentile(50.0);
        assert!((46_000.0..=50_000.0).contains(&p50), "{p50}");
        let mut other = Histogram::default();
        other.record(5);
        h.merge(&other);
        assert_eq!(h.count(), 101);
        assert_eq!(h.percentile(0.0), 5.0);
        assert_eq!(Histogram::default().percentile(50.0), 0.0);
    }
}
