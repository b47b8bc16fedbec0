//! `airtool` — the AIR offline integration tool.
//!
//! The command-line face of the "development tools support" of Sect. 2.1
//! and the offline verification of Sect. 5:
//!
//! ```text
//! airtool verify   <config>        # Eq. 21-23 verification report
//! airtool timeline <config> [res]  # Fig. 8-style ASCII timelines
//! airtool summary  <config>        # utilisation / occupancy figures
//! airtool synth    P0=cycle/dur …  # synthesise a table from requirements
//! airtool fig8                     # emit the Sect. 6 prototype config
//! ```
//!
//! Exit status: 0 on success (and verification PASS), 1 on FAIL, 2 on
//! usage or parse errors.

use std::process::ExitCode;

use air_model::schedule::PartitionRequirement;
use air_model::verify::verify_schedule_set;
use air_model::{PartitionId, ScheduleId, Ticks};
use air_tools::analysis::summarize_set;
use air_tools::config::{fig8_config_text, parse, ConfigDoc};
use air_tools::{render_timeline, render_window_table, synthesize_schedule, verification_report};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  airtool verify   <config-file>\n  airtool timeline <config-file> [resolution]\n  airtool summary  <config-file>\n  airtool synth    P<n>=<cycle>/<duration> ...\n  airtool fig8"
    );
    ExitCode::from(2)
}

fn load(path: &str) -> Result<ConfigDoc, ExitCode> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("airtool: cannot read '{path}': {e}");
        ExitCode::from(2)
    })?;
    parse(&text).map_err(|e| {
        eprintln!("airtool: {path}: {e}");
        ExitCode::from(2)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        return usage();
    };
    match command {
        "verify" => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let doc = match load(path) {
                Ok(d) => d,
                Err(code) => return code,
            };
            if doc.schedules.is_empty() {
                eprintln!("airtool: {path}: no schedules declared");
                return ExitCode::from(2);
            }
            let set = doc.schedule_set();
            print!("{}", verification_report(&set, &doc.partitions));
            let report = verify_schedule_set(&set, &doc.partitions);
            if report.is_ok() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "timeline" => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let resolution = args
                .get(2)
                .map(|s| s.parse::<u64>().unwrap_or(0))
                .unwrap_or(50);
            if resolution == 0 {
                eprintln!("airtool: resolution must be a positive number");
                return ExitCode::from(2);
            }
            let doc = match load(path) {
                Ok(d) => d,
                Err(code) => return code,
            };
            for schedule in &doc.schedules {
                print!("{}", render_window_table(schedule));
                println!("{}", render_timeline(schedule, resolution));
            }
            ExitCode::SUCCESS
        }
        "summary" => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let doc = match load(path) {
                Ok(d) => d,
                Err(code) => return code,
            };
            if doc.schedules.is_empty() {
                eprintln!("airtool: {path}: no schedules declared");
                return ExitCode::from(2);
            }
            for summary in summarize_set(&doc.schedule_set()) {
                println!(
                    "{} MTF={} utilization={:.1}%",
                    summary.schedule,
                    summary.mtf,
                    summary.utilization * 100.0
                );
                for p in &summary.partitions {
                    println!(
                        "  {}: assigned {}/MTF, required {}, slack {}, {} window(s)",
                        p.partition,
                        p.assigned_per_mtf.as_u64(),
                        p.required_per_mtf.as_u64(),
                        p.slack_per_mtf.as_u64(),
                        p.window_count
                    );
                }
            }
            ExitCode::SUCCESS
        }
        "synth" => {
            let mut requirements = Vec::new();
            for spec in &args[1..] {
                // P0=100/40 → partition 0, cycle 100, duration 40.
                let parsed = (|| {
                    let (pid, rest) = spec.split_once('=')?;
                    let (cycle, duration) = rest.split_once('/')?;
                    Some(PartitionRequirement::new(
                        PartitionId(pid.strip_prefix('P')?.parse().ok()?),
                        Ticks(cycle.parse().ok()?),
                        Ticks(duration.parse().ok()?),
                    ))
                })();
                let Some(req) = parsed else {
                    eprintln!("airtool: bad requirement '{spec}' (want P<n>=<cycle>/<duration>)");
                    return ExitCode::from(2);
                };
                requirements.push(req);
            }
            if requirements.is_empty() {
                return usage();
            }
            match synthesize_schedule(ScheduleId(0), &requirements) {
                Ok(schedule) => {
                    print!("{}", render_window_table(&schedule));
                    println!(
                        "{}",
                        render_timeline(&schedule, 1.max(schedule.mtf().as_u64() / 64))
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("airtool: infeasible: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "fig8" => {
            print!("{}", fig8_config_text());
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
