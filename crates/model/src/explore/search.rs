//! Parallel bounded breadth-first search over a [`TransitionSystem`].
//!
//! The engine works on packed [`StateKey`]s only: states and parents are
//! stored by `u32` index, and a state is decoded back into an
//! [`AbstractState`] only when asked for ([`SearchGraph::state`]). The
//! graph stores no edges. [`SearchGraph::edges`] derives the edge
//! sequence on demand by expanding the stored states again, and a
//! consumer that reads the edges of a few events only steps those events
//! itself and looks each successor up with [`SearchGraph::index_of`].
//!
//! The engine is level-synchronous. A level's frontier is a contiguous
//! index range, the states the previous level discovered, and the engine
//! walks it in slices of at most `SLICE` states. Each slice runs two
//! phases, and the next slice expands only once this one is committed:
//!
//! 1. **Expand** (parallel): the slice is split into contiguous chunks,
//!    one per worker (`std::thread::scope`, the calling thread doubles as
//!    worker 0 — the air-fleet idiom). Each worker applies every enabled
//!    event to its chunk and emits successor candidates into a buffer of
//!    its own; the buffers are read in worker order, so the candidate
//!    sequence is identical to a sequential expansion. Slices smaller
//!    than [`PARALLEL_FRONTIER_THRESHOLD`] expand on the calling thread
//!    alone: early BFS levels are tiny even when the total space is huge,
//!    and spawning threads there costs more than the expansion itself.
//!    The buffers live for the whole search and are cleared, not rebuilt,
//!    before each slice, so no candidate list grows with the level.
//! 2. **Commit** (sequential): one pass over the slice's candidates, in
//!    order, against the graph's state index, an open-addressing table of
//!    `u32` state indices that reads its keys from the stored states. A
//!    known key is an edge and stores nothing; a new key gets the next
//!    index (bounded by [`SearchConfig::max_states`]) and a parent pointer
//!    for minimal witnesses, and joins the next frontier by being next in
//!    index order; a new key past the cap is dropped and counted.
//!    Expansion reads only the previous levels, so slicing keeps the
//!    level's candidate order: indices follow it, and the resulting graph
//!    is identical for every worker count.
//!
//! A candidate is an edge exactly when its successor is stored: a new
//! successor is stored unless the cap was reached, and once it is reached
//! no state is stored again. The edges are therefore the candidates of the
//! expanded states whose key the index knows, in candidate order, which
//! is how [`SearchGraph::edges`] derives them.
//!
//! # Partial-order reduction
//!
//! Events that toggle private state dimensions — ARQ exhaustion/resync
//! (component 0) and each mesh edge (component `1 + edge`) — commute with
//! each other: no such event reads or writes another component's dimension,
//! the schedule, the modes, or the link, and `ArqRecovered`'s
//! link-enabledness is untouched by mesh toggles. The reduction explores
//! only the sorted interleavings: from a state whose BFS tree-parent event
//! has component `c`, independent successors with component `< c` are
//! pruned. Soundness: take any minimal word reaching a state and, among its
//! reorderings, one whose last independent event has maximal component; a
//! pruning of that event at its predecessor would, by commuting it one step
//! earlier, produce an equal-length word ending in a higher component —
//! contradiction. Global events are never pruned, so every state is still
//! discovered at its true BFS depth and witnesses stay minimal
//! (`tests/explore_parallel_prop.rs` cross-checks this on random systems).

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::thread;

use super::{AbstractEvent, AbstractState, KeyTransition, StateKey, TransitionSystem, Witness};

/// Default bound on stored states (raise via `airlint --max-states`).
pub const DEFAULT_MAX_STATES: usize = 262_144;

/// Frontier slices smaller than this expand on the calling thread alone —
/// spawning workers for a handful of states costs more than the work.
/// The resulting graph is unaffected (worker count never is).
pub const PARALLEL_FRONTIER_THRESHOLD: usize = 256;

/// Tuning knobs for [`search`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchConfig {
    /// Maximum number of events in an explored path.
    pub depth: usize,
    /// Bound on stored states; exceeding it sets [`SearchGraph::cap_hit`].
    /// State indices are 31-bit, so bounds past 2^31 - 1 act as 2^31 - 1.
    pub max_states: usize,
    /// Worker threads (the calling thread is worker 0); 0 behaves as 1.
    pub workers: usize,
    /// Whether the partial-order reduction prunes commuting interleavings.
    pub por: bool,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            depth: 4,
            max_states: DEFAULT_MAX_STATES,
            workers: 1,
            por: true,
        }
    }
}

/// One explored transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchEdge {
    /// Index of the source state.
    pub from: u32,
    /// The event applied.
    pub event: AbstractEvent,
    /// Slot mask of the partitions restarted during the transition.
    pub restarted: u64,
    /// Index of the successor state.
    pub to: u32,
}

impl SearchEdge {
    /// Whether the transition restarted the partition in mode-word slot
    /// `slot` ([`TransitionSystem::slot_of`]).
    pub fn restarts(&self, slot: usize) -> bool {
        slot < 64 && (self.restarted >> slot) & 1 != 0
    }
}

/// The explored portion of the state graph.
#[derive(Debug, Clone, Default)]
pub struct SearchGraph {
    /// Discovered states, in BFS discovery order (index 0 = initial).
    pub states: Vec<StateKey>,
    /// BFS tree-parent of each state (`None` for the initial state).
    pub parents: Vec<Option<(u32, AbstractEvent)>>,
    /// How many states were expanded: every level but the last, which is
    /// `states[expanded..]`. A BFS-order prefix, so the states at indices
    /// below it are exactly those whose outgoing edges were explored.
    pub expanded: usize,
    /// Whether the partial-order reduction pruned the expansion.
    pub por: bool,
    /// Whether the state cap truncated the search.
    pub cap_hit: bool,
    /// Size of the BFS frontier when the cap was first hit.
    pub frontier_at_cap: usize,
    /// Successor occurrences dropped because the cap was reached.
    pub dropped_states: usize,
    /// Key → index lookup over `states`.
    index: StateIndex,
}

impl SearchGraph {
    /// State `index`, decoded by `ts`, the system the graph was searched
    /// over.
    pub fn state(&self, ts: &TransitionSystem, index: usize) -> AbstractState {
        ts.unpack(self.states[index])
    }

    /// The index of the stored state `key`, or `None` when the search did
    /// not store it.
    pub fn index_of(&self, key: StateKey) -> Option<u32> {
        self.index.find(&self.states, key).ok()
    }

    /// Every explored edge, including edges to already-known states, in
    /// the order the search committed them. Derived by expanding the
    /// expanded states again with the search's own expansion, so it costs
    /// a search's expansion without its commit; `ts` is the system the
    /// graph was searched over.
    pub fn edges(&self, ts: &TransitionSystem) -> Vec<SearchEdge> {
        let expanded = self.expanded.min(self.states.len()).min(self.parents.len()) as u32;
        let mut edges = Vec::new();
        expand_slice(ts, self, 0..expanded, self.por, |from, event, t| {
            if let Some(to) = self.index_of(t.key) {
                edges.push(SearchEdge {
                    from,
                    event,
                    restarted: t.restarted,
                    to,
                });
            }
        });
        edges
    }

    /// The minimal event sequence from the initial state to state `index`.
    pub fn witness_of(&self, index: usize) -> Witness {
        let mut events = Vec::new();
        let mut cursor = index;
        while let Some((parent, event)) = self.parents.get(cursor).copied().flatten() {
            events.push(event);
            cursor = parent as usize;
        }
        events.reverse();
        Witness { events }
    }
}

/// The seen-set hash of a key: the murmur3 64-bit finalizer over both
/// halves. It is fixed, so it is the same on every run and host.
fn key_hash(key: StateKey) -> u64 {
    let mut h = (key.0 as u64) ^ ((key.0 >> 64) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// [`Hasher`] for [`StateKey`] maps: a fixed 64-bit mix of the key.
#[derive(Default)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = key_hash(StateKey(u128::from(self.0 ^ u64::from(byte))));
        }
    }

    fn write_u128(&mut self, value: u128) {
        self.0 = key_hash(StateKey(value));
    }
}

/// A map keyed by [`StateKey`], hashed with [`KeyHasher`].
pub type KeyMap<V> = HashMap<StateKey, V, BuildHasherDefault<KeyHasher>>;

/// The key → index lookup of a [`SearchGraph`]: open addressing with
/// linear probing over a power-of-two table of state indices. It holds no
/// keys: a probe compares against the graph's `states`. The table starts
/// at [`StateIndex::MIN_SLOTS`] slots and doubles to stay at most half
/// full, so a probe always ends at a free slot. An empty table (the
/// default graph's) answers every lookup with a miss.
#[derive(Clone, Default)]
struct StateIndex {
    slots: Vec<u32>,
}

impl StateIndex {
    /// A free slot. State indices are 31-bit, so no index is this.
    const FREE: u32 = u32::MAX;
    /// The first table's size, enough for an 8-state search.
    const MIN_SLOTS: usize = 16;

    /// `Ok(index)` when `states[index]` is `key`; otherwise `Err(slot)`,
    /// the free slot `key` would take, or the table size when there is
    /// none.
    fn find(&self, states: &[StateKey], key: StateKey) -> Result<u32, usize> {
        let mask = self.slots.len().wrapping_sub(1);
        let mut slot = key_hash(key) as usize & mask;
        for _ in 0..self.slots.len() {
            let index = self.slots[slot];
            if index == Self::FREE {
                return Err(slot);
            }
            if states.get(index as usize) == Some(&key) {
                return Ok(index);
            }
            slot = (slot + 1) & mask;
        }
        Err(self.slots.len())
    }

    /// Records the last of `states`, whose key [`find`](Self::find) has
    /// just missed at `slot`, and doubles the table when that leaves it
    /// over half full.
    fn push(&mut self, slot: usize, states: &[StateKey]) {
        let index = states.len().saturating_sub(1) as u32;
        let placed = self.slots.get_mut(slot).map(|free| *free = index);
        if placed.is_none() || states.len() * 2 > self.slots.len() {
            self.rebuild(states);
        }
    }

    /// Re-inserts every state into a table sized for twice their number.
    fn rebuild(&mut self, states: &[StateKey]) {
        let size = (states.len() * 2).next_power_of_two().max(Self::MIN_SLOTS);
        self.slots.clear();
        self.slots.resize(size, Self::FREE);
        let mask = size - 1;
        for (index, &key) in states.iter().enumerate() {
            let mut slot = key_hash(key) as usize & mask;
            while self.slots[slot] != Self::FREE {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = index as u32;
        }
    }
}

impl fmt::Debug for StateIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StateIndex")
            .field("slots", &self.slots.len())
            .finish()
    }
}

/// The independence component of an event, or `None` for global events.
///
/// Events in distinct components commute (each toggles a private state
/// dimension); global events never commute and are never pruned.
fn por_component(event: AbstractEvent) -> Option<u16> {
    match event {
        AbstractEvent::ArqExhausted | AbstractEvent::ArqRecovered => Some(0),
        AbstractEvent::MeshLinkDown { edge }
        | AbstractEvent::MeshLinkUp { edge }
        | AbstractEvent::MeshReroute { edge } => Some(1 + u16::from(edge)),
        _ => None,
    }
}

/// Largest state count the engine stores (see
/// [`SearchConfig::max_states`]): 2^31 states would need over 100 GiB.
const MAX_INDEX: usize = i32::MAX as usize;

/// A successor produced by the expand phase, waiting for the commit.
struct Candidate {
    from: u32,
    event: AbstractEvent,
    key: StateKey,
}

/// Applies every enabled event the reduction keeps to the states at
/// `range` of `graph`, in index order, handing each successor to `emit`
/// with its source index and event. The only expansion: the search commits
/// what it emits, and [`SearchGraph::edges`] derives the edges from it.
fn expand_slice(
    ts: &TransitionSystem,
    graph: &SearchGraph,
    range: Range<u32>,
    por: bool,
    mut emit: impl FnMut(u32, AbstractEvent, KeyTransition),
) {
    let mut events = Vec::new();
    for index in range {
        let key = graph.states[index as usize];
        let parent_component = if por {
            graph.parents[index as usize].and_then(|(_, event)| por_component(event))
        } else {
            None
        };
        events.clear();
        ts.key_events(key, &mut events);
        for &event in &events {
            if let (Some(ce), Some(cf)) = (parent_component, por_component(event)) {
                if cf < ce {
                    continue;
                }
            }
            if let Some(t) = ts.step_key(key, event) {
                emit(index, event, t);
            }
        }
    }
}

/// Frontier states expanded and committed together. On the hub at
/// depth 8 a slice yields about 10k candidates (0.5 MB), where a whole
/// level yields up to 424,722 (20 MB).
const SLICE: usize = 1024;

/// Expands the states at `slice` into `buffers`, one buffer per worker,
/// read in order. Only the first buffer is used when there is one worker
/// or the slice is under [`PARALLEL_FRONTIER_THRESHOLD`].
fn expand(
    ts: &TransitionSystem,
    graph: &SearchGraph,
    slice: Range<u32>,
    por: bool,
    buffers: &mut [Vec<Candidate>],
) {
    for buffer in buffers.iter_mut() {
        buffer.clear();
    }
    let candidates = |range: Range<u32>, out: &mut Vec<Candidate>| {
        expand_slice(ts, graph, range, por, |from, event, t| {
            out.push(Candidate {
                from,
                event,
                key: t.key,
            });
        });
    };
    if buffers.len() == 1 || slice.len() < PARALLEL_FRONTIER_THRESHOLD {
        if let Some(out) = buffers.first_mut() {
            candidates(slice, out);
        }
        return;
    }
    let (base, len) = (slice.start as usize, slice.len());
    let chunk = len.div_ceil(buffers.len());
    let mut chunks = buffers.iter_mut().enumerate().map(|(worker, out)| {
        let lo = worker.saturating_mul(chunk).min(len);
        let hi = lo.saturating_add(chunk).min(len);
        ((base + lo) as u32..(base + hi) as u32, out)
    });
    let mine = chunks.next();
    thread::scope(|scope| {
        for (part, out) in chunks.filter(|(part, _)| !part.is_empty()) {
            scope.spawn(move || candidates(part, out));
        }
        if let Some((part, out)) = mine {
            candidates(part, out);
        }
    });
}

/// Runs the bounded BFS. The resulting graph is identical for every
/// `workers` value.
pub fn search(ts: &TransitionSystem, config: &SearchConfig) -> SearchGraph {
    let max_states = config.max_states.clamp(1, MAX_INDEX);
    let mut graph = SearchGraph {
        states: vec![ts.initial_key()],
        parents: vec![None],
        por: config.por,
        ..SearchGraph::default()
    };
    graph.index.rebuild(&graph.states);
    let workers = config.workers.max(1);
    let mut buffers: Vec<Vec<Candidate>> = (0..workers).map(|_| Vec::new()).collect();
    // The frontier: the states the previous level discovered.
    let mut frontier = 0..1u32;

    for _ in 0..config.depth {
        if frontier.is_empty() {
            break;
        }
        let mut start = frontier.start;
        while start < frontier.end {
            let slice = start..start.saturating_add(SLICE as u32).min(frontier.end);
            start = slice.end;
            expand(ts, &graph, slice, config.por, &mut buffers);

            // Commit in candidate order, so index assignment is
            // worker-count independent.
            for candidate in buffers.iter().flatten() {
                let Err(slot) = graph.index.find(&graph.states, candidate.key) else {
                    continue;
                };
                if graph.states.len() < max_states {
                    graph.states.push(candidate.key);
                    graph.parents.push(Some((candidate.from, candidate.event)));
                    graph.index.push(slot, &graph.states);
                } else {
                    if !graph.cap_hit {
                        graph.cap_hit = true;
                        graph.frontier_at_cap = frontier.len();
                    }
                    graph.dropped_states += 1;
                }
            }
        }
        frontier = frontier.end..graph.states.len() as u32;
    }
    graph.expanded = frontier.start as usize;
    graph
}

#[cfg(test)]
mod tests {
    use super::super::{ArqHealth, ExploreOptions};
    use super::*;
    use crate::ids::{PartitionId, ScheduleId};
    use crate::schedule::{
        PartitionRequirement, Schedule, ScheduleChangeAction, ScheduleSet, TimeWindow,
    };
    use crate::time::Ticks;

    const P0: PartitionId = PartitionId(0);
    const P1: PartitionId = PartitionId(1);

    fn rich_system() -> TransitionSystem {
        let win = |p, o, d| TimeWindow::new(p, Ticks(o), Ticks(d));
        let req = |p| PartitionRequirement::new(p, Ticks(100), Ticks(40));
        let mk = |id: u32, name: &str| {
            Schedule::new(
                ScheduleId(id),
                name,
                Ticks(100),
                vec![req(P0), req(P1)],
                vec![win(P0, 0, 40), win(P1, 40, 40)],
            )
        };
        let chi1 = mk(1, "shed").with_change_action(P1, ScheduleChangeAction::Stop);
        let schedules = ScheduleSet::try_new(vec![mk(0, "nominal"), chi1, mk(2, "alt")]).unwrap();
        TransitionSystem::new(
            schedules,
            vec![P0, P1],
            vec![P0],
            ExploreOptions {
                degraded_schedule: Some(ScheduleId(2)),
                module_faults: true,
                partition_faults: true,
                deadline_faults: vec![P0, P1],
                arq: true,
                mesh_edges: 3,
            },
        )
        .unwrap()
    }

    /// Naive frontier BFS used as the ground truth for state coverage.
    fn naive_states(ts: &TransitionSystem, depth: usize) -> Vec<AbstractState> {
        let mut seen = vec![ts.initial_state()];
        let mut frontier = vec![ts.initial_state()];
        for _ in 0..depth {
            let mut next = Vec::new();
            for state in &frontier {
                for event in ts.enabled_events(state) {
                    if let Some(t) = ts.step(state, event) {
                        if !seen.contains(&t.state) {
                            seen.push(t.state.clone());
                            next.push(t.state);
                        }
                    }
                }
            }
            frontier = next;
        }
        seen
    }

    #[test]
    fn search_covers_the_naive_state_set() {
        let ts = rich_system();
        let expected = naive_states(&ts, 3);
        for por in [false, true] {
            let graph = search(
                &ts,
                &SearchConfig {
                    depth: 3,
                    por,
                    ..SearchConfig::default()
                },
            );
            assert_eq!(
                graph.states.len(),
                expected.len(),
                "por={por} must preserve state coverage"
            );
            let found: Vec<AbstractState> = (0..graph.states.len())
                .map(|i| graph.state(&ts, i))
                .collect();
            for state in &expected {
                assert!(
                    found.contains(state),
                    "missing state {state} with por={por}"
                );
            }
            assert!(!graph.cap_hit);
        }
    }

    #[test]
    fn worker_count_does_not_change_the_graph() {
        let ts = rich_system();
        let base = search(
            &ts,
            &SearchConfig {
                depth: 4,
                ..SearchConfig::default()
            },
        );
        for workers in [2, 4, 8] {
            let other = search(
                &ts,
                &SearchConfig {
                    depth: 4,
                    workers,
                    ..SearchConfig::default()
                },
            );
            assert_eq!(base.states, other.states, "workers={workers}");
            assert_eq!(base.parents, other.parents, "workers={workers}");
            assert_eq!(base.edges(&ts), other.edges(&ts), "workers={workers}");
        }
    }

    /// Like [`rich_system`] but with enough mesh edges that BFS levels
    /// outgrow [`PARALLEL_FRONTIER_THRESHOLD`] within a few events.
    fn wide_system() -> TransitionSystem {
        let win = |p, o, d| TimeWindow::new(p, Ticks(o), Ticks(d));
        let req = |p| PartitionRequirement::new(p, Ticks(100), Ticks(40));
        let schedules = ScheduleSet::try_new(vec![Schedule::new(
            ScheduleId(0),
            "nominal",
            Ticks(100),
            vec![req(P0), req(P1)],
            vec![win(P0, 0, 40), win(P1, 40, 40)],
        )])
        .unwrap();
        TransitionSystem::new(
            schedules,
            vec![P0, P1],
            vec![P0],
            ExploreOptions {
                degraded_schedule: None,
                module_faults: true,
                partition_faults: true,
                deadline_faults: vec![P0, P1],
                arq: true,
                mesh_edges: 12,
            },
        )
        .unwrap()
    }

    #[test]
    fn parallel_path_above_the_frontier_threshold_matches_sequential() {
        let ts = wide_system();
        let depth = 5;
        let base = search(
            &ts,
            &SearchConfig {
                depth,
                ..SearchConfig::default()
            },
        );
        // Depth of a state = its witness length. The frontiers expanded are
        // the levels below `depth`: at least one must cross the
        // sequential-fallback threshold, or this test never reaches the
        // threaded expand phase, and one must span two slices, or it never
        // commits a slice before the next one of the same level expands.
        let mut level_sizes: HashMap<usize, usize> = HashMap::new();
        for index in 0..base.states.len() {
            *level_sizes
                .entry(base.witness_of(index).events.len())
                .or_insert(0) += 1;
        }
        let expanded = || {
            level_sizes
                .iter()
                .filter(|&(&level, _)| level < depth)
                .map(|(_, &n)| n)
        };
        assert!(
            expanded().any(|n| n >= PARALLEL_FRONTIER_THRESHOLD),
            "levels {level_sizes:?} stay under the threshold — widen the \
             system"
        );
        assert!(
            expanded().any(|n| n > SLICE),
            "levels {level_sizes:?} fit in one slice — widen the system"
        );
        for workers in [2, 8] {
            let other = search(
                &ts,
                &SearchConfig {
                    depth,
                    workers,
                    ..SearchConfig::default()
                },
            );
            assert_eq!(base.states, other.states, "workers={workers}");
            assert_eq!(base.parents, other.parents, "workers={workers}");
            assert_eq!(base.edges(&ts), other.edges(&ts), "workers={workers}");
        }
    }

    #[test]
    fn cap_hit_is_reported_with_counts() {
        // `(system, depth, cap, por)` and the exact `(states,
        // frontier_at_cap, dropped_states, edges)` of the truncated search.
        // The wide run's cap falls in a level expanded from a frontier above
        // the parallel threshold; without the reduction, over-cap successors
        // recur within that level, and every occurrence counts as dropped.
        let cases = [
            (rich_system(), 4, 8, true, (8, 7, 52, 55)),
            (wide_system(), 4, 1000, false, (1000, 430, 3728, 6873)),
        ];
        for (ts, depth, max_states, por, expected) in cases {
            for workers in [1, 2, 8] {
                let graph = search(
                    &ts,
                    &SearchConfig {
                        depth,
                        max_states,
                        workers,
                        por,
                    },
                );
                assert!(graph.cap_hit, "cap {max_states}, workers={workers}");
                let counts = (
                    graph.states.len(),
                    graph.frontier_at_cap,
                    graph.dropped_states,
                    graph.edges(&ts).len(),
                );
                assert_eq!(counts, expected, "cap {max_states}, workers={workers}");
            }
        }
    }

    #[test]
    fn witnesses_are_minimal_event_sequences() {
        let ts = rich_system();
        let graph = search(
            &ts,
            &SearchConfig {
                depth: 3,
                ..SearchConfig::default()
            },
        );
        // Replaying each witness abstractly must land on its state, and the
        // length must match the BFS level of the state.
        for index in 0..graph.states.len() {
            let witness = graph.witness_of(index);
            let mut cursor = ts.initial_state();
            for event in &witness.events {
                cursor = ts.step(&cursor, *event).expect("witness steps").state;
            }
            assert_eq!(cursor, graph.state(&ts, index));
        }
    }

    #[test]
    fn por_prunes_commuting_interleavings() {
        let ts = rich_system();
        let full = search(
            &ts,
            &SearchConfig {
                depth: 3,
                por: false,
                ..SearchConfig::default()
            },
        );
        let reduced = search(
            &ts,
            &SearchConfig {
                depth: 3,
                ..SearchConfig::default()
            },
        );
        assert_eq!(full.states.len(), reduced.states.len());
        let (reduced_edges, full_edges) = (reduced.edges(&ts).len(), full.edges(&ts).len());
        assert!(
            reduced_edges < full_edges,
            "POR must drop some commuting edges ({reduced_edges} vs {full_edges})"
        );
        // The initial state's arq must still be nominal in both.
        assert_eq!(full.state(&ts, 0).arq, ArqHealth::Nominal);
    }
}
