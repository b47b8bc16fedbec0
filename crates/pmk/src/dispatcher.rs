//! The AIR Partition Dispatcher featuring mode-based schedules —
//! **Algorithm 2** of the paper.
//!
//! ```text
//! 1:  if heirPartition = activePartition then
//! 2:      elapsedTicks ← 1
//! 3:  else
//! 4:      SAVECONTEXT(activePartition.context)
//! 5:      activePartition.lastTick ← ticks − 1
//! 6:      elapsedTicks ← ticks − heirPartition.lastTick
//! 7:      activePartition ← heirPartition
//! 8:      RESTORECONTEXT(heirPartition.context)
//! 9:      PENDINGSCHEDULECHANGEACTION(heirPartition)
//! 10: end if
//! ```
//!
//! The dispatcher "is executed after the Partition Scheduler. Its only
//! modification regarding mode-based schedules is the invocation of
//! pending schedule change actions" — performed "for each partition as it
//! is dispatched for the first time after the schedule switch", which the
//! paper argues "is more compliant with the fulfilment of temporal
//! separation requirements, since these will only affect its own execution
//! time window" (Sect. 4.3). The immediate-at-switch alternative is kept
//! behind [`ActionTiming`] for the ablation test.

use air_hw::{Cpu, CpuContext};
use air_model::{PartitionId, ScheduleChangeAction};

/// When pending schedule-change actions are applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ActionTiming {
    /// At each partition's first dispatch after the switch — the paper's
    /// choice: the action's cost lands in the affected partition's own
    /// window.
    #[default]
    FirstDispatch,
    /// All at once when the switch becomes effective — ARINC 653 Part 2
    /// leaves this open; this variant charges every action to whichever
    /// window follows the boundary.
    AtSwitch,
}

/// The result of one dispatcher invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchOutcome {
    /// Whether a context switch occurred (heir differed from active).
    pub switched: bool,
    /// `elapsedTicks` for the dispatched partition: how many ticks passed
    /// since it last held the CPU — the count the PAL announces to the POS
    /// (Fig. 7).
    pub elapsed_ticks: u64,
    /// Schedule-change actions to apply now, in `(partition, action)`
    /// pairs: at most one under [`ActionTiming::FirstDispatch`] (the heir's),
    /// possibly several under [`ActionTiming::AtSwitch`].
    pub actions: Vec<(PartitionId, ScheduleChangeAction)>,
}

/// The AIR Partition Dispatcher.
///
/// Owns each partition's saved [`CpuContext`] and `lastTick`, performs the
/// save/restore pair through the machine's [`Cpu`], and hands out pending
/// schedule-change actions at the configured [`ActionTiming`].
///
/// Per-partition state lives in vectors indexed by
/// [`PartitionId::as_usize`], so a dispatch costs array indexing, not
/// hashing.
#[derive(Debug)]
pub struct PartitionDispatcher {
    active: Option<PartitionId>,
    /// Saved contexts; `None` for ids never registered.
    contexts: Vec<Option<CpuContext>>,
    /// The context the CPU idles in when no partition is scheduled.
    idle_context: CpuContext,
    /// `lastTick` per partition (Algorithm 2 line 5), parallel to
    /// `contexts`.
    last_tick: Vec<u64>,
    /// Pending schedule-change actions, by partition id.
    pending_actions: Vec<Option<ScheduleChangeAction>>,
    timing: ActionTiming,
    context_switches: u64,
}

impl PartitionDispatcher {
    /// Creates a dispatcher with the paper's first-dispatch action timing.
    pub fn new() -> Self {
        Self::with_action_timing(ActionTiming::FirstDispatch)
    }

    /// Creates a dispatcher with an explicit action timing policy.
    pub fn with_action_timing(timing: ActionTiming) -> Self {
        Self {
            active: None,
            contexts: Vec::new(),
            idle_context: CpuContext::default(),
            last_tick: Vec::new(),
            pending_actions: Vec::new(),
            timing,
            context_switches: 0,
        }
    }

    /// Registers `partition`'s execution context (spatial-partitioning
    /// setup provides the entry point, stack and MMU context).
    pub fn register_partition(&mut self, partition: PartitionId, context: CpuContext) {
        let idx = partition.as_usize();
        if idx >= self.contexts.len() {
            self.contexts.resize(idx + 1, None);
            self.last_tick.resize(idx + 1, 0);
        }
        self.contexts[idx] = Some(context);
        self.last_tick[idx] = 0;
    }

    /// The currently active partition (`None`: idle).
    pub fn active_partition(&self) -> Option<PartitionId> {
        self.active
    }

    /// Context switches performed so far.
    pub fn context_switches(&self) -> u64 {
        self.context_switches
    }

    /// Read access to a partition's saved context.
    pub fn context_of(&self, partition: PartitionId) -> Option<&CpuContext> {
        self.contexts.get(partition.as_usize())?.as_ref()
    }

    /// Queues schedule-change actions for the partitions of a newly
    /// effective schedule. Called by the PMK when the Partition Scheduler
    /// reports a switch; `actions` carries each partition's
    /// `ScheduleChangeAction` under the new schedule (entries with
    /// [`ScheduleChangeAction::None`] may be included — they are dropped).
    pub fn queue_schedule_change_actions<I>(&mut self, actions: I)
    where
        I: IntoIterator<Item = (PartitionId, ScheduleChangeAction)>,
    {
        for (partition, action) in actions {
            if action != ScheduleChangeAction::None {
                let idx = partition.as_usize();
                if idx >= self.pending_actions.len() {
                    self.pending_actions.resize(idx + 1, None);
                }
                self.pending_actions[idx] = Some(action);
            }
        }
    }

    /// Whether an action is still pending for `partition`.
    pub fn has_pending_action(&self, partition: PartitionId) -> bool {
        matches!(
            self.pending_actions.get(partition.as_usize()),
            Some(Some(_))
        )
    }

    /// Algorithm 2: dispatches `heir` at global tick `ticks`, switching
    /// CPU contexts when the heir differs from the active partition.
    ///
    /// Under [`ActionTiming::AtSwitch`], call this with
    /// `drain_all_actions = true` for the dispatch immediately following a
    /// schedule switch; the PMK composition layer does this automatically.
    ///
    /// # Panics
    ///
    /// Panics if `heir` names a partition that was never registered — a
    /// configuration-loading bug, not a runtime condition.
    pub fn dispatch(
        &mut self,
        heir: Option<PartitionId>,
        ticks: u64,
        cpu: &mut Cpu,
    ) -> DispatchOutcome {
        if heir == self.active {
            // Line 2: same partition keeps running; one tick elapsed.
            return DispatchOutcome {
                switched: false,
                elapsed_ticks: 1,
                actions: Vec::new(),
            };
        }

        // Line 4: save the outgoing context.
        match self.active {
            Some(active) => {
                let slot = self.contexts[active.as_usize()]
                    .as_mut()
                    .expect("active partition was registered"); // lint: allow(panic) -- register_partition precedes activation; unreachable
                cpu.save_context(slot);
                // Line 5: the partition last saw the tick before this one.
                self.last_tick[active.as_usize()] = ticks - 1;
            }
            None => cpu.save_context(&mut self.idle_context),
        }

        // Lines 6–8: elapsed ticks for the heir; the heir becomes active
        // and its context is restored.
        let elapsed_ticks = match heir {
            Some(h) => {
                let ctx = self
                    .contexts
                    .get(h.as_usize())
                    .and_then(Option::as_ref)
                    .expect("heir partition was registered"); // lint: allow(panic) -- scheduler only elects registered partitions
                cpu.restore_context(ctx);
                ticks - self.last_tick[h.as_usize()]
            }
            None => {
                cpu.restore_context(&self.idle_context);
                1
            }
        };
        self.active = heir;
        self.context_switches += 1;

        // Line 9: pending schedule-change action(s).
        let actions = match self.timing {
            ActionTiming::FirstDispatch => heir
                .and_then(|h| {
                    let action = self.pending_actions.get_mut(h.as_usize())?.take()?;
                    Some((h, action))
                })
                .into_iter()
                .collect(),
            // Index order is partition order.
            ActionTiming::AtSwitch => (0u32..)
                .zip(&mut self.pending_actions)
                .filter_map(|(m, slot)| Some((PartitionId(m), slot.take()?)))
                .collect(),
        };

        DispatchOutcome {
            switched: true,
            elapsed_ticks,
            actions,
        }
    }
}

impl Default for PartitionDispatcher {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use air_hw::mmu::MmuContextId;

    fn p(m: u32) -> PartitionId {
        PartitionId(m)
    }

    fn dispatcher_with(n: u32) -> (PartitionDispatcher, Cpu) {
        let mut d = PartitionDispatcher::new();
        for m in 0..n {
            d.register_partition(
                p(m),
                CpuContext::new(0x1000 * u64::from(m + 1), 0x8000, MmuContextId(m)),
            );
        }
        (d, Cpu::new())
    }

    #[test]
    fn same_heir_is_one_elapsed_tick_no_switch() {
        let (mut d, mut cpu) = dispatcher_with(1);
        d.dispatch(Some(p(0)), 1, &mut cpu);
        let out = d.dispatch(Some(p(0)), 2, &mut cpu);
        assert!(!out.switched);
        assert_eq!(out.elapsed_ticks, 1);
        assert_eq!(d.context_switches(), 1);
    }

    #[test]
    fn elapsed_ticks_span_the_inactive_interval() {
        // Algorithm 2 line 6: elapsed = ticks − heir.lastTick. P0 runs
        // [0, 200), P1 runs [200, 400), P0 resumes at 400:
        // P0.lastTick = 199, so elapsed for P0 at 400 is 201 — it
        // announces every tick it missed plus the current one (Fig. 7:
        // "#Elapsed Clock Ticks times").
        let (mut d, mut cpu) = dispatcher_with(2);
        d.dispatch(Some(p(0)), 0, &mut cpu);
        let out = d.dispatch(Some(p(1)), 200, &mut cpu);
        assert!(out.switched);
        assert_eq!(out.elapsed_ticks, 200, "P1 was never run: 200 - 0");
        let out = d.dispatch(Some(p(0)), 400, &mut cpu);
        assert_eq!(out.elapsed_ticks, 400 - 199);
    }

    #[test]
    fn contexts_are_saved_and_restored() {
        let (mut d, mut cpu) = dispatcher_with(2);
        d.dispatch(Some(p(0)), 0, &mut cpu);
        assert_eq!(cpu.active_context().pc, 0x1000);
        cpu.retire_work(4); // pc += 16
        d.dispatch(Some(p(1)), 10, &mut cpu);
        assert_eq!(cpu.active_context().pc, 0x2000);
        assert_eq!(cpu.current_mmu_context(), MmuContextId(1));
        d.dispatch(Some(p(0)), 20, &mut cpu);
        assert_eq!(cpu.active_context().pc, 0x1010, "P0 resumed where saved");
        assert_eq!(cpu.current_mmu_context(), MmuContextId(0));
    }

    #[test]
    fn idle_gaps_are_dispatchable() {
        let (mut d, mut cpu) = dispatcher_with(1);
        d.dispatch(Some(p(0)), 0, &mut cpu);
        let out = d.dispatch(None, 10, &mut cpu);
        assert!(out.switched);
        assert_eq!(d.active_partition(), None);
        let out = d.dispatch(None, 11, &mut cpu);
        assert!(!out.switched, "idle continues");
        let out = d.dispatch(Some(p(0)), 20, &mut cpu);
        assert_eq!(out.elapsed_ticks, 20 - 9);
    }

    #[test]
    fn first_dispatch_action_timing() {
        let (mut d, mut cpu) = dispatcher_with(3);
        d.dispatch(Some(p(0)), 0, &mut cpu);
        d.queue_schedule_change_actions([
            (p(0), ScheduleChangeAction::WarmRestart),
            (p(1), ScheduleChangeAction::ColdRestart),
            (p(2), ScheduleChangeAction::None),
        ]);
        // P1's first dispatch after the switch carries only P1's action.
        let out = d.dispatch(Some(p(1)), 100, &mut cpu);
        assert_eq!(out.actions, vec![(p(1), ScheduleChangeAction::ColdRestart)]);
        assert!(d.has_pending_action(p(0)));
        assert!(!d.has_pending_action(p(2)), "None actions are dropped");
        // P1's second dispatch carries nothing.
        d.dispatch(Some(p(2)), 200, &mut cpu);
        let out = d.dispatch(Some(p(1)), 300, &mut cpu);
        assert!(out.actions.is_empty());
        // P0's first dispatch carries its warm restart.
        let out = d.dispatch(Some(p(0)), 400, &mut cpu);
        assert_eq!(out.actions, vec![(p(0), ScheduleChangeAction::WarmRestart)]);
    }

    #[test]
    fn at_switch_action_timing_drains_everything() {
        let mut d = PartitionDispatcher::with_action_timing(ActionTiming::AtSwitch);
        let mut cpu = Cpu::new();
        for m in 0..2 {
            d.register_partition(p(m), CpuContext::default());
        }
        d.dispatch(Some(p(0)), 0, &mut cpu);
        d.queue_schedule_change_actions([
            (p(0), ScheduleChangeAction::WarmRestart),
            (p(1), ScheduleChangeAction::Stop),
        ]);
        let out = d.dispatch(Some(p(1)), 100, &mut cpu);
        assert_eq!(
            out.actions,
            vec![
                (p(0), ScheduleChangeAction::WarmRestart),
                (p(1), ScheduleChangeAction::Stop),
            ]
        );
        assert!(!d.has_pending_action(p(0)));
    }

    #[test]
    fn sparse_out_of_order_registration() {
        let mut d = PartitionDispatcher::new();
        let mut cpu = Cpu::new();
        d.register_partition(p(5), CpuContext::new(0x5000, 0x8000, MmuContextId(0)));
        d.register_partition(p(1), CpuContext::new(0x1000, 0x8000, MmuContextId(1)));
        assert!(d.context_of(p(3)).is_none(), "gap ids stay unregistered");
        assert!(d.context_of(p(9)).is_none());
        assert_eq!(d.context_of(p(5)).map(|c| c.pc), Some(0x5000));
        d.dispatch(Some(p(5)), 0, &mut cpu);
        let out = d.dispatch(Some(p(1)), 30, &mut cpu);
        assert_eq!(out.elapsed_ticks, 30);
        assert_eq!(cpu.current_mmu_context(), MmuContextId(1));
        let out = d.dispatch(Some(p(5)), 50, &mut cpu);
        assert_eq!(out.elapsed_ticks, 50 - 29);
        assert_eq!(cpu.active_context().pc, 0x5000);
    }

    #[test]
    fn at_switch_actions_come_out_in_partition_order() {
        let mut d = PartitionDispatcher::with_action_timing(ActionTiming::AtSwitch);
        let mut cpu = Cpu::new();
        for m in [6, 2, 4] {
            d.register_partition(p(m), CpuContext::default());
        }
        d.dispatch(Some(p(2)), 0, &mut cpu);
        d.queue_schedule_change_actions([
            (p(6), ScheduleChangeAction::Stop),
            (p(2), ScheduleChangeAction::ColdRestart),
            (p(4), ScheduleChangeAction::None),
            (p(4), ScheduleChangeAction::WarmRestart),
        ]);
        assert!(d.has_pending_action(p(4)));
        assert!(!d.has_pending_action(p(3)));
        assert!(!d.has_pending_action(p(40)), "beyond every registered id");
        let out = d.dispatch(Some(p(6)), 100, &mut cpu);
        assert_eq!(
            out.actions,
            vec![
                (p(2), ScheduleChangeAction::ColdRestart),
                (p(4), ScheduleChangeAction::WarmRestart),
                (p(6), ScheduleChangeAction::Stop),
            ]
        );
        assert!(d.dispatch(Some(p(4)), 200, &mut cpu).actions.is_empty());
    }

    #[test]
    #[should_panic(expected = "registered")]
    fn unregistered_heir_in_a_gap_is_a_wiring_bug() {
        let mut d = PartitionDispatcher::new();
        d.register_partition(p(4), CpuContext::default());
        d.dispatch(Some(p(2)), 0, &mut Cpu::new());
    }

    #[test]
    #[should_panic(expected = "registered")]
    fn unregistered_heir_is_a_wiring_bug() {
        let (mut d, mut cpu) = dispatcher_with(1);
        d.dispatch(Some(p(9)), 0, &mut cpu);
    }
}
