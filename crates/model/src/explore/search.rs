//! Parallel bounded breadth-first search over a [`TransitionSystem`].
//!
//! The engine works on packed [`StateKey`]s only: states, parents and
//! edges are stored by `u32` index, and a state is decoded back into an
//! [`AbstractState`] only when asked for ([`SearchGraph::state`]).
//!
//! The engine is level-synchronous, and it walks each BFS level in
//! slices of at most `SLICE` frontier states. Each slice runs two
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
//!    before each slice, so no candidate list grows with the level and a
//!    deep level maps no fresh memory for one.
//! 2. **Commit** (sequential): one pass over the slice's candidates, in
//!    order, against a single seen-set mapping each key to its state
//!    index. A known key gives an edge to that index; a new key gets the
//!    next index (bounded by [`SearchConfig::max_states`]), a parent
//!    pointer for minimal witnesses and a slot in the next frontier; a new
//!    key past the cap is dropped and counted. Expansion reads only the
//!    previous levels, so slicing keeps the level's candidate order:
//!    indices follow it, and the resulting graph is identical for every
//!    worker count.
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

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::thread;

use super::{AbstractEvent, AbstractState, StateKey, TransitionSystem, Witness};

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
    /// Every explored edge, including edges to already-known states.
    pub edges: Vec<SearchEdge>,
    /// Whether the state cap truncated the search.
    pub cap_hit: bool,
    /// Size of the BFS frontier when the cap was first hit.
    pub frontier_at_cap: usize,
    /// Successor occurrences dropped because the cap was reached.
    pub dropped_states: usize,
}

impl SearchGraph {
    /// State `index`, decoded by `ts`, the system the graph was searched
    /// over.
    pub fn state(&self, ts: &TransitionSystem, index: usize) -> AbstractState {
        ts.unpack(self.states[index])
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
    restarted: u64,
    key: StateKey,
}

fn expand_slice(
    ts: &TransitionSystem,
    states: &[StateKey],
    parents: &[Option<(u32, AbstractEvent)>],
    frontier: &[u32],
    por: bool,
    out: &mut Vec<Candidate>,
) {
    let mut events = Vec::new();
    for &index in frontier {
        let key = states[index as usize];
        let parent_component = if por {
            parents[index as usize].and_then(|(_, event)| por_component(event))
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
                out.push(Candidate {
                    from: index,
                    event,
                    restarted: t.restarted,
                    key: t.key,
                });
            }
        }
    }
}

/// Frontier states expanded and committed together. On the hub at
/// depth 8 a slice yields about 10k candidates (0.5 MB), where a whole
/// level yields up to 424,722 (20 MB).
const SLICE: usize = 1024;

/// Expands `slice` into `buffers`, one buffer per worker, read in order.
/// Only the first buffer is used when there is one worker or the slice is
/// under [`PARALLEL_FRONTIER_THRESHOLD`].
fn expand(
    ts: &TransitionSystem,
    graph: &SearchGraph,
    slice: &[u32],
    por: bool,
    buffers: &mut [Vec<Candidate>],
) {
    for buffer in buffers.iter_mut() {
        buffer.clear();
    }
    let (states, parents) = (graph.states.as_slice(), graph.parents.as_slice());
    if buffers.len() == 1 || slice.len() < PARALLEL_FRONTIER_THRESHOLD {
        if let Some(out) = buffers.first_mut() {
            expand_slice(ts, states, parents, slice, por, out);
        }
        return;
    }
    let chunk = slice.len().div_ceil(buffers.len());
    let mut chunks = slice.chunks(chunk).zip(buffers.iter_mut());
    let mine = chunks.next();
    thread::scope(|scope| {
        for (part, out) in chunks {
            scope.spawn(move || expand_slice(ts, states, parents, part, por, out));
        }
        if let Some((part, out)) = mine {
            expand_slice(ts, states, parents, part, por, out);
        }
    });
}

/// Runs the bounded BFS. The resulting graph is identical for every
/// `workers` value.
pub fn search(ts: &TransitionSystem, config: &SearchConfig) -> SearchGraph {
    let max_states = config.max_states.clamp(1, MAX_INDEX);
    let initial = ts.initial_key();
    let mut graph = SearchGraph {
        states: vec![initial],
        parents: vec![None],
        ..SearchGraph::default()
    };
    let mut seen: KeyMap<u32> = KeyMap::default();
    seen.insert(initial, 0);
    let mut frontier: Vec<u32> = vec![0];
    let mut next_frontier: Vec<u32> = Vec::new();
    let workers = config.workers.max(1);
    let mut buffers: Vec<Vec<Candidate>> = (0..workers).map(|_| Vec::new()).collect();

    for _ in 0..config.depth {
        if frontier.is_empty() {
            break;
        }
        for slice in frontier.chunks(SLICE) {
            expand(ts, &graph, slice, config.por, &mut buffers);

            // Commit states, parents and edges in candidate order — index
            // assignment is therefore worker-count independent.
            graph.edges.reserve(buffers.iter().map(Vec::len).sum());
            for candidate in buffers.iter().flatten() {
                let to = match seen.entry(candidate.key) {
                    Entry::Occupied(entry) => *entry.get(),
                    Entry::Vacant(entry) if graph.states.len() < max_states => {
                        let index = graph.states.len() as u32;
                        entry.insert(index);
                        graph.states.push(candidate.key);
                        graph.parents.push(Some((candidate.from, candidate.event)));
                        next_frontier.push(index);
                        index
                    }
                    Entry::Vacant(_) => {
                        if !graph.cap_hit {
                            graph.cap_hit = true;
                            graph.frontier_at_cap = frontier.len();
                        }
                        graph.dropped_states += 1;
                        continue;
                    }
                };
                graph.edges.push(SearchEdge {
                    from: candidate.from,
                    event: candidate.event,
                    restarted: candidate.restarted,
                    to,
                });
            }
        }
        std::mem::swap(&mut frontier, &mut next_frontier);
        next_frontier.clear();
    }
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
            assert_eq!(base.edges, other.edges, "workers={workers}");
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
            assert_eq!(base.edges, other.edges, "workers={workers}");
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
                    graph.edges.len(),
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
        assert!(
            reduced.edges.len() < full.edges.len(),
            "POR must drop some commuting edges ({} vs {})",
            reduced.edges.len(),
            full.edges.len()
        );
        // The initial state's arq must still be nominal in both.
        assert_eq!(full.state(&ts, 0).arq, ArqHealth::Nominal);
    }
}
