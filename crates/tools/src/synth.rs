//! Automated schedule synthesis: an "automated aid to the definition of
//! system parameters" (Abstract).
//!
//! Given per-partition requirements `⟨η, d⟩`, the synthesiser produces a
//! window layout satisfying Eq. (21)–(23), or a precise infeasibility
//! explanation. The strategy is rate-monotone earliest-fit: partitions
//! with shorter cycles are placed first, and each cycle's duration is
//! taken from the earliest free capacity inside that cycle (split across
//! several windows when the free space is fragmented — the model allows
//! any number of windows per cycle).

use air_model::schedule::PartitionRequirement;
use air_model::time::lcm_all;
use air_model::{Schedule, ScheduleId, Ticks, TimeWindow};

/// Why synthesis failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SynthError {
    /// No requirements were given.
    Empty,
    /// A requirement has a zero cycle with a positive duration.
    ZeroCycle(air_model::PartitionId),
    /// A requirement's duration exceeds its cycle (needs > 100% of it).
    DurationExceedsCycle(air_model::PartitionId),
    /// Total demand exceeds capacity, or fragmentation leaves cycle `k` of
    /// the partition short by `missing` ticks.
    Infeasible {
        /// The partition that could not be placed.
        partition: air_model::PartitionId,
        /// The cycle index that came up short.
        cycle_index: u64,
        /// Ticks that could not be placed.
        missing: Ticks,
    },
}

impl std::fmt::Display for SynthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthError::Empty => f.write_str("no partition requirements given"),
            SynthError::ZeroCycle(p) => write!(f, "{p} has a zero cycle"),
            SynthError::DurationExceedsCycle(p) => {
                write!(f, "{p} requires more time than its whole cycle")
            }
            SynthError::Infeasible {
                partition,
                cycle_index,
                missing,
            } => write!(
                f,
                "cannot place {missing} of {partition} in its cycle {cycle_index}"
            ),
        }
    }
}

impl std::error::Error for SynthError {}

/// Synthesises a scheduling table for `requirements` (MTF = lcm of the
/// cycles), or explains why none exists under earliest-fit placement.
///
/// The produced table always passes [`air_model::verify::verify_schedule`]
/// (a property test in this module keeps that true).
///
/// # Errors
///
/// [`SynthError`] on empty/degenerate inputs or insufficient capacity.
///
/// # Examples
///
/// ```
/// use air_model::schedule::PartitionRequirement;
/// use air_model::{PartitionId, ScheduleId, Ticks};
/// use air_tools::synthesize_schedule;
///
/// let schedule = synthesize_schedule(
///     ScheduleId(0),
///     &[
///         PartitionRequirement::new(PartitionId(0), Ticks(50), Ticks(20)),
///         PartitionRequirement::new(PartitionId(1), Ticks(100), Ticks(40)),
///     ],
/// )?;
/// assert_eq!(schedule.mtf(), Ticks(100));
/// # Ok::<(), air_tools::SynthError>(())
/// ```
pub fn synthesize_schedule(
    id: ScheduleId,
    requirements: &[PartitionRequirement],
) -> Result<Schedule, SynthError> {
    if requirements.is_empty() {
        return Err(SynthError::Empty);
    }
    for q in requirements {
        if q.duration.is_zero() {
            continue;
        }
        if q.cycle.is_zero() {
            return Err(SynthError::ZeroCycle(q.partition));
        }
        if q.duration > q.cycle {
            return Err(SynthError::DurationExceedsCycle(q.partition));
        }
    }
    let mtf = lcm_all(
        requirements
            .iter()
            .filter(|q| !q.duration.is_zero())
            .map(|q| q.cycle),
    );
    let mtf = if mtf.is_zero() { Ticks(1) } else { mtf };

    // Free capacity as disjoint half-open intervals.
    let mut free: Vec<(u64, u64)> = vec![(0, mtf.as_u64())];
    let mut windows: Vec<TimeWindow> = Vec::new();

    // Rate-monotone order: shortest cycle first; ties by partition id for
    // determinism.
    let mut order: Vec<&PartitionRequirement> = requirements
        .iter()
        .filter(|q| !q.duration.is_zero())
        .collect();
    order.sort_by_key(|q| (q.cycle, q.partition));

    for q in order {
        let cycles = mtf / q.cycle;
        for k in 0..cycles {
            let lo = (q.cycle * k).as_u64();
            let hi = (q.cycle * (k + 1)).as_u64();
            let mut need = q.duration.as_u64();
            while need > 0 {
                // Earliest free interval overlapping the cycle.
                let Some(i) = free.iter().position(|&(fs, fe)| fs.max(lo) < fe.min(hi)) else {
                    break;
                };
                let (fs, fe) = free[i];
                let s = fs.max(lo);
                let e = fe.min(hi);
                let take = need.min(e - s);
                windows.push(TimeWindow::new(q.partition, Ticks(s), Ticks(take)));
                need -= take;
                // Carve [s, s+take) out of (fs, fe); `free` stays sorted
                // and disjoint.
                let mut replacement = Vec::new();
                if fs < s {
                    replacement.push((fs, s));
                }
                if s + take < fe {
                    replacement.push((s + take, fe));
                }
                free.splice(i..=i, replacement);
            }
            if need > 0 {
                return Err(SynthError::Infeasible {
                    partition: q.partition,
                    cycle_index: k,
                    missing: Ticks(need),
                });
            }
        }
    }

    Ok(Schedule::new(
        id,
        "synthesized",
        mtf,
        requirements.to_vec(),
        windows,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use air_model::prototype::fig8_requirements;
    use air_model::verify::{verify_schedule, verify_schedule_brute_force};
    use air_model::PartitionId;

    fn req(m: u32, eta: u64, d: u64) -> PartitionRequirement {
        PartitionRequirement::new(PartitionId(m), Ticks(eta), Ticks(d))
    }

    #[test]
    fn synthesizes_the_fig8_requirements() {
        // The paper's Q1 = Q2 demands are satisfiable; the synthesiser
        // must find *a* valid table (not necessarily Fig. 8's layout).
        let schedule = synthesize_schedule(ScheduleId(0), &fig8_requirements()).unwrap();
        assert_eq!(schedule.mtf(), Ticks(1300));
        let report = verify_schedule(&schedule, &[]);
        assert!(report.is_ok(), "{report}");
        assert!(verify_schedule_brute_force(&schedule));
    }

    #[test]
    fn two_partition_harmonic() {
        let s = synthesize_schedule(ScheduleId(0), &[req(0, 50, 20), req(1, 100, 40)]).unwrap();
        assert!(verify_schedule(&s, &[]).is_ok());
        // P0 gets 20 in each of [0,50) and [50,100).
        assert_eq!(s.assigned_in_cycle(PartitionId(0), Ticks(50), 0), Ticks(20));
        assert_eq!(s.assigned_in_cycle(PartitionId(0), Ticks(50), 1), Ticks(20));
    }

    #[test]
    fn full_utilization_feasible() {
        let s = synthesize_schedule(ScheduleId(0), &[req(0, 50, 25), req(1, 100, 50)]).unwrap();
        assert!(verify_schedule(&s, &[]).is_ok());
        assert!((s.utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overdemand_is_infeasible_with_location() {
        let err =
            synthesize_schedule(ScheduleId(0), &[req(0, 50, 30), req(1, 100, 50)]).unwrap_err();
        // P0 takes 30 of each 50; the 100-cycle partition needs 50 but
        // only 40 remain.
        assert!(matches!(
            err,
            SynthError::Infeasible {
                partition: PartitionId(1),
                ..
            }
        ));
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(
            synthesize_schedule(ScheduleId(0), &[]),
            Err(SynthError::Empty)
        );
        assert_eq!(
            synthesize_schedule(ScheduleId(0), &[req(0, 0, 5)]),
            Err(SynthError::ZeroCycle(PartitionId(0)))
        );
        assert_eq!(
            synthesize_schedule(ScheduleId(0), &[req(0, 10, 20)]),
            Err(SynthError::DurationExceedsCycle(PartitionId(0)))
        );
    }

    #[test]
    fn zero_duration_partitions_are_carried_through() {
        let s = synthesize_schedule(ScheduleId(0), &[req(0, 100, 40), req(1, 100, 0)]).unwrap();
        assert!(verify_schedule(&s, &[]).is_ok());
        assert!(s.requirement_for(PartitionId(1)).is_some());
        assert_eq!(s.windows_for(PartitionId(1)).count(), 0);
    }

    mod prop {
        use super::*;
        use air_model::testkit::TestRng;

        /// Whatever the synthesiser produces passes the verifier; when
        /// it refuses, the refusal names a real shortfall.
        #[test]
        fn synthesized_tables_always_verify() {
            let mut rng = TestRng::new(0x51C2);
            for case in 0..256 {
                // Cycles are multiples of a base to keep lcm small.
                let n = rng.below_usize(5) + 1;
                let reqs: Vec<PartitionRequirement> = (0..n)
                    .map(|i| {
                        let cycle = 40 * rng.range(1, 5);
                        let d = rng.range(1, 30);
                        req(i as u32, cycle, d.min(cycle))
                    })
                    .collect();
                match synthesize_schedule(ScheduleId(0), &reqs) {
                    Ok(s) => {
                        let r = verify_schedule(&s, &[]);
                        assert!(
                            r.is_ok(),
                            "case {case}: synthesised table fails verification: {r}"
                        );
                        assert!(verify_schedule_brute_force(&s), "case {case}");
                    }
                    Err(SynthError::Infeasible { .. }) => {}
                    Err(e) => panic!("case {case}: unexpected {e} (seed 0x51C2)"),
                }
            }
        }
    }
}
