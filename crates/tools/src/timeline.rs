//! ASCII timeline rendering of partition scheduling tables — the
//! regenerator of the Fig. 8 diagrams.

use air_model::{PartitionId, Schedule};

/// Renders the schedule as one row per partition, one column per
/// `resolution` ticks, `#` marking the partition's windows — the shape of
/// the Fig. 8 timeline bars.
///
/// # Panics
///
/// Panics if `resolution` is zero.
///
/// # Examples
///
/// ```
/// use air_model::prototype::fig8_chi1;
/// use air_tools::render_timeline;
///
/// let text = render_timeline(&fig8_chi1(), 100);
/// assert!(text.contains("P0 |##"));
/// ```
pub fn render_timeline(schedule: &Schedule, resolution: u64) -> String {
    assert!(resolution > 0, "resolution must be positive");
    let mtf = schedule.mtf().as_u64();
    let cols = mtf.div_ceil(resolution) as usize;
    let mut partitions: Vec<PartitionId> = schedule.partitions().collect();
    partitions.sort();
    partitions.dedup();

    let mut out = String::new();
    out.push_str(&format!(
        "{} '{}'  MTF = {} ticks, 1 column = {} tick(s)\n",
        schedule.id(),
        schedule.name(),
        mtf,
        resolution
    ));
    // Header ruler with tick marks every 10 columns.
    out.push_str("    ");
    for c in 0..cols {
        out.push(if c % 10 == 0 { '|' } else { ' ' });
    }
    out.push('\n');
    for p in partitions {
        out.push_str(&format!("{p:>3} |"));
        for c in 0..cols as u64 {
            let window_start = c * resolution;
            let window_end = mtf.min(window_start + resolution);
            // A column is marked if the partition is active anywhere in it.
            let active = (window_start..window_end)
                .any(|t| schedule.partition_active_at(air_model::Ticks(t)) == Some(p));
            out.push(if active { '#' } else { '.' });
        }
        out.push('\n');
    }
    out
}

/// Renders the window table of a schedule in the paper's
/// `⟨partition, offset, duration⟩` notation (the textual half of Fig. 8).
pub fn render_window_table(schedule: &Schedule) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{} = <MTF={}, omega={{",
        schedule.id(),
        schedule.mtf().as_u64()
    ));
    let mut first = true;
    for w in schedule.windows() {
        if !first {
            out.push_str(", ");
        }
        first = false;
        out.push_str(&format!(
            "<{}, {}, {}>",
            w.partition,
            w.offset.as_u64(),
            w.duration.as_u64()
        ));
    }
    out.push_str("}>\n");
    for q in schedule.requirements() {
        out.push_str(&format!(
            "  {}: eta={}, d={}\n",
            q.partition,
            q.cycle.as_u64(),
            q.duration.as_u64()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use air_model::prototype::{fig8_chi1, fig8_chi2};

    #[test]
    fn chi1_timeline_shape() {
        let text = render_timeline(&fig8_chi1(), 100);
        // 13 columns at resolution 100; P0 (paper's P1) holds cols 0-1.
        let p0_line = text
            .lines()
            .find(|l| l.trim_start().starts_with("P0"))
            .unwrap();
        assert!(p0_line.contains("|##..........."), "{p0_line}");
        // P3 (paper's P4) holds [400,1000) and [1200,1300).
        let p3_line = text
            .lines()
            .find(|l| l.trim_start().starts_with("P3"))
            .unwrap();
        assert!(p3_line.contains("|....######..#"), "{p3_line}");
    }

    #[test]
    fn chi2_swaps_p2_and_p4_rows() {
        let t1 = render_timeline(&fig8_chi1(), 100);
        let t2 = render_timeline(&fig8_chi2(), 100);
        let row = |text: &str, p: &str| {
            text.lines()
                .find(|l| l.trim_start().starts_with(p))
                .unwrap()
                .split('|')
                .nth(1)
                .unwrap()
                .to_owned()
        };
        // χ2's P1 row equals χ1's P3 row and vice versa (the swap in Fig. 8).
        assert_eq!(row(&t1, "P1"), row(&t2, "P3"));
        assert_eq!(row(&t1, "P3"), row(&t2, "P1"));
        // P0 and P2 rows are unchanged.
        assert_eq!(row(&t1, "P0"), row(&t2, "P0"));
        assert_eq!(row(&t1, "P2"), row(&t2, "P2"));
    }

    #[test]
    fn window_table_matches_fig8_notation() {
        let text = render_window_table(&fig8_chi1());
        assert!(text.contains("<P0, 0, 200>"), "{text}");
        assert!(text.contains("<P3, 400, 600>"), "{text}");
        assert!(text.contains("P1: eta=650, d=100"), "{text}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_resolution_rejected() {
        let _ = render_timeline(&fig8_chi1(), 0);
    }
}
