//! Experiment E1/E2 (Fig. 8 and the Eq. 25 worked example): the prototype
//! scheduling tables, their verification, and the timeline regeneration —
//! checked end to end against the running system.

use air_core::prototype::ids::{P1, P2, P3, P4};
use air_core::prototype::PrototypeHarness;
use air_model::prototype::{fig8_chi1, fig8_chi2, fig8_system, MTF};
use air_model::verify::{verify_schedule_brute_force, verify_schedule_set};
use air_model::Ticks;
use air_tools::{render_timeline, render_window_table, verification_report};

#[test]
fn fig8_tables_pass_all_verification_conditions() {
    let sys = fig8_system();
    let report = verify_schedule_set(&sys.schedules, &sys.partitions);
    assert!(report.is_ok(), "{report}");
    for schedule in &sys.schedules {
        assert!(verify_schedule_brute_force(schedule));
    }
}

#[test]
fn eq25_worked_example_exactly() {
    // Σ c over {ω_{1,j} | P = Q_{1,1}, O ∈ [0, 1300)} = 200 ≥ d = 200.
    let chi1 = fig8_chi1();
    let assigned = chi1.assigned_in_cycle(P1, Ticks(1300), 0);
    assert_eq!(assigned, Ticks(200));
    let d = chi1.requirement_for(P1).unwrap().duration;
    assert_eq!(d, Ticks(200));
    assert!(assigned >= d);
}

#[test]
fn window_tables_render_the_paper_notation() {
    let text = render_window_table(&fig8_chi1());
    // All seven windows of χ1, in Fig. 8's ⟨partition, offset, duration⟩
    // notation (P0..P3 are the paper's P1..P4).
    for expected in [
        "<P0, 0, 200>",
        "<P1, 200, 100>",
        "<P2, 300, 100>",
        "<P3, 400, 600>",
        "<P1, 1000, 100>",
        "<P2, 1100, 100>",
        "<P3, 1200, 100>",
    ] {
        assert!(text.contains(expected), "missing {expected} in\n{text}");
    }
    let text2 = render_window_table(&fig8_chi2());
    for expected in ["<P3, 200, 100>", "<P1, 400, 600>", "<P1, 1200, 100>"] {
        assert!(text2.contains(expected), "missing {expected} in\n{text2}");
    }
}

#[test]
fn timelines_are_renderable_and_consistent_with_the_model() {
    for schedule in [fig8_chi1(), fig8_chi2()] {
        let text = render_timeline(&schedule, 100);
        // 4 partition rows plus 2 header lines.
        assert_eq!(text.lines().count(), 6, "{text}");
        // Every row has exactly 13 marked-or-dot columns.
        for line in text.lines().skip(2) {
            let cells: String = line.split('|').nth(1).unwrap().to_owned();
            assert_eq!(cells.len(), 13, "{line}");
            // Marked cells must match the model oracle at column starts.
            for (c, ch) in cells.chars().enumerate() {
                let t = Ticks((c as u64) * 100);
                let p: u32 = line.trim_start()[1..2].parse().unwrap();
                let is_active = schedule.partition_active_at(t) == Some(air_model::PartitionId(p));
                if ch == '#' {
                    // The column may be marked due to activity anywhere in
                    // it; at resolution 100 the Fig. 8 tables align, so the
                    // column start is authoritative.
                    assert!(is_active, "{line} col {c}");
                } else {
                    assert!(!is_active, "{line} col {c}");
                }
            }
        }
    }
}

#[test]
fn verification_report_covers_both_schedules() {
    let sys = fig8_system();
    let text = verification_report(&sys.schedules, &sys.partitions);
    assert_eq!(text.matches("PASS").count(), 2, "{text}");
    assert_eq!(text.matches("FAIL").count(), 0);
    // Per-cycle budget lines for the 650-cycle partitions in both tables.
    assert!(text.contains("P1 cycle 0 [0..650)"));
    assert!(text.contains("P1 cycle 1 [650..1300)"));
}

#[test]
fn running_system_follows_chi1_exactly_for_five_mtfs() {
    // The executable counterpart of Fig. 8: the machine-level scheduler
    // agrees with the model table at every single tick.
    let mut proto = PrototypeHarness::build();
    let chi1 = fig8_chi1();
    let expected_partitions = [P1, P2, P3, P4];
    let mut occupancy = [0u64; 4];
    for _ in 0..5 * MTF.as_u64() {
        proto.system.step();
        let phase = Ticks(proto.system.now().as_u64() % MTF.as_u64());
        let expected = chi1.partition_active_at(phase);
        assert_eq!(proto.system.active_partition(), expected);
        if let Some(p) = expected {
            occupancy[p.as_usize()] += 1;
        }
    }
    // Per-MTF occupancy over 5 MTFs matches the window totals.
    let per_mtf: Vec<u64> = occupancy.iter().map(|o| o / 5).collect();
    let expected: Vec<u64> = expected_partitions
        .iter()
        .map(|&p| chi1.total_assigned(p).as_u64())
        .collect();
    assert_eq!(per_mtf, expected);
}
