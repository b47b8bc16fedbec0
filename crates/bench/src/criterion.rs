//! Dependency-free, criterion-compatible bench harness.
//!
//! The workspace builds offline with the standard library alone, so the
//! external `criterion` crate is out; the benches keep its API surface —
//! `criterion_group!`/`criterion_main!`, [`Criterion`], benchmark groups,
//! [`BenchmarkId`], [`Throughput`], `Bencher::iter` and
//! `Bencher::iter_custom` — through this
//! module, so a bench file ports with a one-line import change.
//!
//! Methodology: each benchmark calibrates a batch size so one sample
//! takes ≳ `measurement_time / sample_size`, runs `sample_size` timed
//! batches after a warm-up period, and reports the min/median/mean
//! per-iteration times. No outlier rejection, no regression against
//! saved baselines — the medians are for same-run comparisons, which is
//! exactly what the experiment series need.

use std::time::{Duration, Instant};

/// Top-level bench configuration and entry point, mirroring
/// `criterion::Criterion`.
#[derive(Debug, Clone)]
pub struct Criterion {
    warm_up: Duration,
    measurement: Duration,
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            warm_up: Duration::from_millis(500),
            measurement: Duration::from_secs(2),
            sample_size: 50,
        }
    }
}

impl Criterion {
    /// Sets the warm-up duration run before sampling starts.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up = d;
        self
    }

    /// Sets the total measurement budget per benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement = d;
        self
    }

    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(2);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
        }
    }

    /// Runs a single benchmark outside any group.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let stats = run_bench(self, f);
        report(id, &stats, None);
        self
    }
}

/// A benchmark identifier: a function name, optionally parameterized.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `name/parameter`, like criterion's.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        Self {
            label: format!("{}/{}", name.into(), parameter),
        }
    }

    /// Only the parameter, for single-function sweeps.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        Self {
            label: parameter.to_string(),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label)
    }
}

/// Per-iteration throughput annotation; reported as a derived rate.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Logical elements processed per iteration.
    Elements(u64),
}

/// A named collection of benchmarks sharing configuration.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Annotates subsequent benchmarks with a throughput so the report
    /// includes a rate.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Overrides the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.criterion.sample_size = n.max(2);
        self
    }

    /// Runs `f` as a benchmark named `id` within this group.
    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id);
        let stats = run_bench(self.criterion, f);
        report(&label, &stats, self.throughput);
        self
    }

    /// Runs `f` with `input`, criterion's parameterized form.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id);
        let stats = run_bench(self.criterion, |b| f(b, input));
        report(&label, &stats, self.throughput);
        self
    }

    /// Ends the group (retained for API compatibility; reports are
    /// emitted as each benchmark completes).
    pub fn finish(self) {}
}

/// Handed to each benchmark closure; [`iter`](Bencher::iter) times the
/// routine.
#[derive(Debug)]
pub struct Bencher {
    warm_up: Duration,
    measurement: Duration,
    sample_size: usize,
    /// Measured per-iteration nanoseconds, one entry per sample.
    samples: Vec<f64>,
}

impl Bencher {
    /// Times `routine`, storing per-iteration samples for the report.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up: run the routine untimed until the budget elapses, and
        // count how many iterations fit — that calibrates the batch size.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warm_up {
            std::hint::black_box(routine());
            warm_iters += 1;
        }
        let per_iter = self.warm_up.as_nanos() as f64 / warm_iters.max(1) as f64;
        let budget = self.measurement.as_nanos() as f64 / self.sample_size as f64;
        let batch = ((budget / per_iter.max(1.0)) as u64).max(1);

        self.samples.clear();
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(routine());
            }
            let elapsed = start.elapsed().as_nanos() as f64;
            self.samples.push(elapsed / batch as f64);
        }
    }

    /// Like `criterion::Bencher::iter_custom`: `routine(n)` runs `n`
    /// iterations and returns the time they took, so it can exclude
    /// per-iteration set-up from the measurement.
    pub fn iter_custom<R: FnMut(u64) -> Duration>(&mut self, mut routine: R) {
        // Warm-up calibrates on measured time, not wall time: the untimed
        // set-up must not shrink the batch.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        let mut warm_measured = Duration::ZERO;
        while warm_start.elapsed() < self.warm_up {
            warm_measured += routine(1);
            warm_iters += 1;
        }
        let per_iter = warm_measured.as_nanos() as f64 / warm_iters.max(1) as f64;
        let budget = self.measurement.as_nanos() as f64 / self.sample_size as f64;
        let batch = ((budget / per_iter.max(1.0)) as u64).max(1);

        self.samples.clear();
        for _ in 0..self.sample_size {
            let elapsed = routine(batch).as_nanos() as f64;
            self.samples.push(elapsed / batch as f64);
        }
    }
}

/// Summary statistics of one benchmark, in nanoseconds per iteration.
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    /// Fastest sample.
    pub min: f64,
    /// Median sample.
    pub median: f64,
    /// Mean of all samples.
    pub mean: f64,
}

fn run_bench<F: FnMut(&mut Bencher)>(criterion: &Criterion, mut f: F) -> Stats {
    let mut bencher = Bencher {
        warm_up: criterion.warm_up,
        measurement: criterion.measurement,
        sample_size: criterion.sample_size,
        samples: Vec::new(),
    };
    f(&mut bencher);
    stats_of(&bencher.samples)
}

/// Collapses raw per-iteration samples into [`Stats`].
pub fn stats_of(samples: &[f64]) -> Stats {
    if samples.is_empty() {
        // The closure never called `iter`: report zeros rather than panic.
        return Stats {
            min: 0.0,
            median: 0.0,
            mean: 0.0,
        };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    Stats {
        min: sorted[0],
        median: sorted[sorted.len() / 2],
        mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
    }
}

/// Human formatting of a nanosecond quantity, criterion-style.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.2} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.3} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.3} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

fn report(label: &str, stats: &Stats, throughput: Option<Throughput>) {
    let mut line = format!(
        "{label:<55} time: [{} {} {}]",
        fmt_ns(stats.min),
        fmt_ns(stats.median),
        fmt_ns(stats.mean),
    );
    if let Some(t) = throughput {
        let per_sec = |count: u64| count as f64 / (stats.median / 1_000_000_000.0);
        match t {
            Throughput::Bytes(n) => {
                line.push_str(&format!(
                    "  thrpt: {:.1} MiB/s",
                    per_sec(n) / (1024.0 * 1024.0)
                ));
            }
            Throughput::Elements(n) => {
                line.push_str(&format!("  thrpt: {:.0} elem/s", per_sec(n)));
            }
        }
    }
    println!("{line}");
}

/// Builds the bench entry function from a config and target list,
/// mirroring `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::criterion::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Expands to `main`, mirroring `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_are_order_insensitive() {
        let s = stats_of(&[3.0, 1.0, 2.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 2.0);
        assert!((s.mean - 2.0).abs() < 1e-9);
    }

    #[test]
    fn formatting_scales_units() {
        assert_eq!(fmt_ns(12.5), "12.50 ns");
        assert_eq!(fmt_ns(12_500.0), "12.500 µs");
        assert_eq!(fmt_ns(12_500_000.0), "12.500 ms");
    }

    #[test]
    fn bencher_measures_something() {
        let mut c = Criterion::default()
            .warm_up_time(Duration::from_millis(5))
            .measurement_time(Duration::from_millis(20))
            .sample_size(5);
        let mut ran = false;
        c.bench_function("noop", |b| {
            b.iter(|| std::hint::black_box(1 + 1));
            ran = true;
        });
        assert!(ran);
    }
}
