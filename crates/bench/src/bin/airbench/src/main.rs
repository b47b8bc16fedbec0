//! `airbench`: one seeded benchmark over the whole AIR stack, with a
//! per-layer ledger. See README.md for the workloads, the metrics and
//! how to compare two commits.
//!
//! ```text
//! airbench [--seed N] [--seconds S]
//!     every workload, each in its own child process, untraced then traced
//! airbench --workload NAME --seed N --seconds S --trace 0|1
//!     one workload; the last line of output is the JSON result
//! airbench --compare PARENT CHANGE
//!     the comparison rule over two files of results of one workload
//! ```

mod compare;
mod explore;
mod fleet;
mod gate;
mod inputs;
mod ledger;
mod mesh;
mod report;
mod stats;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use ledger::Ledger;
use report::Outcome;

/// How one workload run is set.
pub struct Config {
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: f64,
    /// Whether this is the traced pass (per-layer metrics).
    pub trace: bool,
    /// A few inputs instead of the full workload (tests).
    pub tiny: bool,
    /// Where the traced pass writes its spans (`None`: nowhere).
    pub spans_dir: Option<PathBuf>,
}

pub const WORKLOADS: [&str; 4] = ["fleet_campaign", "mesh_reroute", "explore_hub", "lint_gate"];

/// Runs workload `name`; `None` for an unknown name.
pub fn run_workload(name: &str, cfg: &Config) -> Option<Outcome> {
    let mut out = match name {
        "fleet_campaign" => fleet::run(cfg),
        "mesh_reroute" => mesh::run(cfg),
        "explore_hub" => explore::run(cfg),
        "lint_gate" => gate::run(cfg),
        _ => return None,
    };
    if cfg.trace {
        out.value(
            "failed_share",
            out.failed as f64 / out.attempted.max(1) as f64,
        );
    } else {
        out.value("peak_rss_mb", peak_rss_mb());
    }
    Some(out)
}

/// Set-up repetitions before the measured loop; the loop adds one after
/// each operation, so the repetitions sample the whole run.
const SETUP_REPEATS: usize = 5;

/// Runs `prepare` (input generation, gated builds, parsing)
/// [`SETUP_REPEATS`] times and returns the last result with every
/// repetition's seconds.
pub fn setup<T>(mut prepare: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t = Instant::now();
        last = Some(prepare());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one repetition"), times)
}

/// Seconds taken by `f`.
pub fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// The untraced pass's timings: every input runs repeatedly, and its time
/// is the 10th percentile of its repetitions. On a virtual machine whose
/// cores are shared with other tenants, a run slows by up to a half for
/// seconds at a time; the fast end of each input's repetitions is what
/// the code costs.
pub struct Timings {
    /// Work units of each input.
    work: Vec<f64>,
    /// `(input, seconds)` of every repetition, in one vector reserved up
    /// front: reserved pages stay untouched until written, so the run's
    /// peak RSS grows with the repetitions instead of jumping when a
    /// vector reallocates.
    runs: Vec<(u32, f32)>,
}

impl Timings {
    /// Repetitions reserved for: more than any workload records.
    const RESERVED: usize = 1 << 20;

    pub fn new(work: Vec<f64>) -> Self {
        Self {
            work,
            runs: Vec::with_capacity(Self::RESERVED),
        }
    }

    pub fn record(&mut self, input: usize, secs: f64) {
        let input = u32::try_from(input).expect("fewer than 2^32 inputs");
        self.runs.push((input, secs as f32));
    }

    /// Repetitions recorded so far.
    pub fn count(&self) -> usize {
        self.runs.len()
    }

    /// Sets `work_per_s` (all inputs' work over their summed times) and
    /// `op_p50_ms`, `op_p90_ms` (percentiles of the inputs' times).
    pub fn report(mut self, out: &mut Outcome) {
        self.runs
            .sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let (mut work, mut total) = (0.0, 0.0);
        let (mut ms, mut rates) = (Vec::new(), Vec::new());
        for runs in self.runs.chunk_by(|a, b| a.0 == b.0) {
            let secs: Vec<f64> = runs.iter().map(|&(_, s)| f64::from(s)).collect();
            let best = stats::percentile(&secs, 10.0);
            let w = self.work[runs[0].0 as usize];
            work += w;
            total += best;
            ms.push(best * 1e3);
            rates.push(w / best);
        }
        out.set("work_per_s", work / total, rates);
        out.set("op_p90_ms", stats::percentile(&ms, 90.0), ms.clone());
        out.set("op_p50_ms", stats::percentile(&ms, 50.0), ms);
    }
}

/// The order of the untraced and traced operation of pair `i` (`true`:
/// traced). They take turns going first, so that whatever one leaves in
/// the caches or the allocator favours neither side.
pub fn pair_order(i: usize) -> [bool; 2] {
    if i.is_multiple_of(2) {
        [false, true]
    } else {
        [true, false]
    }
}

/// Sets `trace_overhead`: the median over pairs of traced over untraced
/// seconds. The two halves of a pair run back to back, so a slowdown of
/// the host that lasts seconds cancels out.
pub fn overhead(out: &mut Outcome, untraced: &[f64], traced: &[f64]) {
    let ratios = traced.iter().zip(untraced).map(|(t, u)| t / u).collect();
    out.median_of("trace_overhead", ratios);
}

/// Fills the ledger table and `unattributed_share`, and writes the spans.
pub fn finish_trace(cfg: &Config, workload: &str, ledger: &Ledger, out: &mut Outcome) {
    let mut rows: Vec<(&'static str, f64)> = ledger.self_times().into_iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    out.ledger = rows;
    out.value("unattributed_share", ledger.unattributed_share());
    if let Some(dir) = &cfg.spans_dir {
        let path = dir.join(format!("{workload}.spans"));
        if let Err(e) = ledger.write(&path) {
            eprintln!("airbench: cannot write {}: {e}", path.display());
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn clocksource() -> String {
    std::fs::read_to_string("/sys/devices/system/clocksource/clocksource0/current_clocksource")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 42,
        seconds: 6.0,
        trace: false,
        compare: None,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--compare" => {
                let parent = PathBuf::from(value()?);
                parsed.compare = Some((parent, PathBuf::from(value()?)));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(parsed)
}

/// Runs every workload in its own child process (this binary, with
/// `--workload`): untraced, then traced. A child per run gives each its
/// own peak RSS and keeps workloads from warming each other's allocator.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("airbench: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let status = Command::new(&exe)
                .args(["--workload", workload, "--trace", trace])
                .args([
                    "--seed",
                    &args.seed.to_string(),
                    "--seconds",
                    &args.seconds.to_string(),
                ])
                .status();
            println!();
            match status {
                Ok(s) if s.success() => {}
                Ok(s) => {
                    eprintln!("airbench: {workload} --trace {trace} exited with {s}");
                    ok = false;
                }
                Err(e) => {
                    eprintln!("airbench: cannot run {workload}: {e}");
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("airbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((parent, change)) = &args.compare {
        return compare::run(parent, change);
    }
    if cfg!(debug_assertions) {
        eprintln!("airbench: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    let Some(workload) = &args.workload else {
        return run_all(&args);
    };
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        tiny: false,
        spans_dir: Some(PathBuf::from("target/airbench")),
    };
    let Some(out) = run_workload(workload, &cfg) else {
        eprintln!(
            "airbench: unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    let header = format!(
        "airbench workload={workload} seed={} seconds={} trace={} nproc={} profile=release clocksource={}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        nproc(),
        clocksource()
    );
    print!("{}", out.render(&header, cfg.trace));
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(trace: bool) -> Config {
        Config {
            seed: 3,
            seconds: 0.01,
            trace,
            tiny: true,
            spans_dir: None,
        }
    }

    /// Every workload, both passes, at a tiny size: the outputs check
    /// out, no operation fails, and the end-to-end metrics are positive.
    #[test]
    fn every_workload_runs_end_to_end() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let out = run_workload(workload, &tiny(trace)).expect("known workload");
                assert!(out.correct, "{workload}: {:?}", out.failures);
                assert_eq!(out.failed, 0, "{workload}: {:?}", out.failures);
                assert!(out.attempted > 0, "{workload}");
                let value = |name: &str| out.metrics.get(name).map_or(0.0, |m| m.value);
                if trace {
                    assert!(value("trace_overhead") > 0.0, "{workload}");
                } else {
                    for def in &report::END_TO_END {
                        assert!(value(def.name) > 0.0, "{workload}: {}", def.name);
                    }
                }
            }
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = args("--workload mesh_reroute --seed 7 --seconds 2.5 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("mesh_reroute"), 7, 2.5, true)
        );
        assert!(args("--trace 2").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--bogus").is_err());
    }
}
