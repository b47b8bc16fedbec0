//! Deadline verification at the AIR PAL level: Algorithm 3 of the paper.
//!
//! ```text
//! 1: *POS_CLOCKTICKANNOUNCE(elapsedTicks)
//! 2: for all d ∈ PAL_deadlines do
//! 3:     if d.deadlineTime ≥ PAL_GETCURRENTTIME() then
//! 4:         break
//! 5:     end if
//! 6:     HM_DEADLINEVIOLATED(d.pid)
//! 7:     PAL_REMOVEPROCESSDEADLINE(d)
//! 8: end for
//! ```
//!
//! "Only the earliest deadline is verified by default; … only in the
//! presence of deadline violations will more deadlines be checked, in
//! ascending order until reaching one that has not been violated."

use air_model::ids::ProcessId;
use air_model::Ticks;

use crate::deadline::DeadlineRegistry;

/// Runs the deadline-verification loop of Algorithm 3 (lines 2–8) against
/// `registry` at current time `now`, invoking `on_violation` for every
/// violated deadline (line 6) and removing it (line 7).
///
/// Returns the number of violations reported. A deadline `d` is violated
/// when `d < now` — the loop breaks at the first `d ≥ now` (line 3), so
/// the common no-violation case costs exactly one O(1) peek.
///
/// # Examples
///
/// ```
/// use air_pal::{check_deadlines, DeadlineRegistry, LinkedListRegistry};
/// use air_model::{ids::ProcessId, Ticks};
///
/// let mut reg = LinkedListRegistry::new();
/// reg.register(ProcessId(0), Ticks(100));
/// reg.register(ProcessId(1), Ticks(150));
///
/// let mut missed = Vec::new();
/// let n = check_deadlines(&mut reg, Ticks(120), |pid, d| missed.push((pid, d)));
/// assert_eq!(n, 1);
/// assert_eq!(missed, vec![(ProcessId(0), Ticks(100))]);
/// assert_eq!(reg.len(), 1); // the violated entry was removed
/// ```
pub fn check_deadlines<R, F>(registry: &mut R, now: Ticks, mut on_violation: F) -> usize
where
    R: DeadlineRegistry + ?Sized,
    F: FnMut(ProcessId, Ticks),
{
    let mut reported = 0;
    while let Some((deadline, _)) = registry.peek_earliest() {
        if deadline >= now {
            break; // Algorithm 3 line 3–4
        }
        // Line 7: the peeked head is the node to remove.
        let Some((deadline, pid)) = registry.pop_earliest() else {
            break;
        };
        on_violation(pid, deadline); // line 6: HM_DEADLINEVIOLATED
        reported += 1;
    }
    reported
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadline::{BTreeRegistry, LinkedListRegistry};

    fn pid(q: u32) -> ProcessId {
        ProcessId(q)
    }

    #[test]
    fn no_violation_costs_one_peek_and_reports_nothing() {
        let mut reg = LinkedListRegistry::new();
        reg.register(pid(0), Ticks(100));
        let n = check_deadlines(&mut reg, Ticks(100), |_, _| {
            panic!("no violation at d == now")
        });
        assert_eq!(n, 0);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn empty_registry_is_a_noop() {
        let mut reg = LinkedListRegistry::new();
        assert_eq!(check_deadlines(&mut reg, Ticks(1_000_000), |_, _| {}), 0);
    }

    #[test]
    fn cascading_violations_reported_in_ascending_order() {
        // Several deadlines missed while the partition was inactive: all
        // are detected at the next announcement, earliest first (Sect. 5:
        // "following deadlines may subsequently be verified until one has
        // not been missed").
        let mut reg = LinkedListRegistry::new();
        reg.register(pid(0), Ticks(300));
        reg.register(pid(1), Ticks(100));
        reg.register(pid(2), Ticks(200));
        reg.register(pid(3), Ticks(900));

        let mut order = Vec::new();
        let n = check_deadlines(&mut reg, Ticks(500), |p, d| order.push((p, d)));
        assert_eq!(n, 3);
        assert_eq!(
            order,
            vec![
                (pid(1), Ticks(100)),
                (pid(2), Ticks(200)),
                (pid(0), Ticks(300)),
            ]
        );
        assert_eq!(reg.peek_earliest(), Some((Ticks(900), pid(3))));
    }

    #[test]
    fn strictness_matches_eq24() {
        // d < now violates; d == now does not (Eq. 24 uses strict <).
        let mut reg = BTreeRegistry::new();
        reg.register(pid(0), Ticks(99));
        reg.register(pid(1), Ticks(100));
        let mut missed = Vec::new();
        check_deadlines(&mut reg, Ticks(100), |p, _| missed.push(p));
        assert_eq!(missed, vec![pid(0)]);
    }

    #[test]
    fn works_through_trait_object() {
        // `R: ?Sized` also admits a registry behind a trait object.
        let mut reg: Box<dyn DeadlineRegistry> = Box::new(LinkedListRegistry::new());
        reg.register(pid(0), Ticks(5));
        let n = check_deadlines(reg.as_mut(), Ticks(10), |_, _| {});
        assert_eq!(n, 1);
    }
}
