//! Parallel bounded breadth-first search over a [`TransitionSystem`].
//!
//! The engine works on packed [`StateKey`]s only: states, parents and
//! edges are stored by `u32` index, and a state is decoded back into an
//! [`AbstractState`] only when asked for ([`SearchGraph::state`]).
//!
//! The engine is level-synchronous: each BFS level runs three phases —
//!
//! 1. **Expand** (parallel): the frontier is split into contiguous slices,
//!    one per worker (`std::thread::scope`, the calling thread doubles as
//!    worker 0 — the air-fleet sharding idiom). Each worker applies every
//!    enabled event to its slice and emits successor candidates, tagged with
//!    the seen-set shard of the successor key. Workers write into
//!    per-worker buffers, concatenated in worker order so the candidate
//!    sequence is identical to a sequential expansion.
//! 2. **Dedup** (parallel): the seen-set maps each key to its state index
//!    and is sharded by a fixed key hash ([`KeyHasher`]) into
//!    [`SEEN_SHARDS`] hash maps; worker `w` owns the shards `s` with
//!    `s % workers == w`. A single sequential O(candidates) pass buckets
//!    each candidate's position into its owner's hand-off list (a
//!    successor equal to its source needs no lookup), then each worker
//!    classifies only its own bucket as already known, fresh — entered
//!    provisionally at its batch position — or a duplicate of an earlier
//!    fresh candidate. Outcomes depend only on the seen-set contents and
//!    the candidate order, never on the worker layout.
//!
//! Levels whose frontier is smaller than [`PARALLEL_FRONTIER_THRESHOLD`]
//! run both phases sequentially: early BFS levels are tiny even when the
//! total space is huge, and thread spawn plus hand-off overhead there
//! used to cost more than the expansion itself (the depth-8 benchmark
//! *lost* throughput as workers were added).
//! 3. **Commit** (sequential): fresh states get indices in candidate order
//!    (bounded by [`SearchConfig::max_states`]; a provisional entry past
//!    the cap leaves the seen-set), parent pointers for minimal witnesses,
//!    and edges — so the resulting graph is byte-identical for every
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

/// Number of seen-set shards; worker counts that divide it balance
/// exactly.
pub const SEEN_SHARDS: usize = 16;

/// Frontiers smaller than this expand and dedup on the calling thread
/// alone — spawning workers for a handful of states costs more than the
/// work. The resulting graph is unaffected (worker count never is).
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
        while let Some((parent, event)) =
            self.parents.get(cursor).copied().flatten()
        {
            events.push(event);
            cursor = parent as usize;
        }
        events.reverse();
        Witness { events }
    }
}

/// The seen-set hash of a key: the murmur3 64-bit finalizer over both
/// halves. It is fixed, so shard ownership is the same on every run,
/// host and worker layout.
fn key_hash(key: StateKey) -> u64 {
    let mut h = (key.0 as u64)
        ^ ((key.0 >> 64) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// [`Hasher`] for [`StateKey`] maps: a fixed 64-bit mix of the key, the
/// same one that picks the key's seen-set shard.
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

/// The seen-set shard of a key hash. Bits 32–35: hashbrown indexes
/// buckets with the low bits and tags them with the top seven, so the
/// shard selector takes neither.
fn shard_of(hash: u64) -> usize {
    ((hash >> 32) % SEEN_SHARDS as u64) as usize
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

/// Seen-set value bit marking an entry provisional: the first occurrence
/// of its key in the batch being classified, at the batch position in the
/// low bits, not yet committed to a state index.
const PROVISIONAL: u32 = 1 << 31;

/// Largest state count (and batch size) the seen-set values encode. A
/// batch cannot reach it: 2^31 candidates of 48 B would need 96 GiB.
const MAX_INDEX: usize = PROVISIONAL as usize - 1;

/// [`Candidate::shard`] of a successor equal to its source, whose index
/// is known without a seen-set lookup.
const SELF_LOOP: u32 = u32::MAX;

/// A successor produced by the expand phase, waiting for dedup + commit.
struct Candidate {
    from: u32,
    shard: u32,
    event: AbstractEvent,
    restarted: u64,
    key: StateKey,
}

#[derive(Clone, Copy)]
enum Outcome {
    /// Already in the seen-set at this state index.
    Known(u32),
    /// First occurrence of a new state in this batch.
    Fresh,
    /// Duplicate of the fresh candidate at this batch position.
    Dup(usize),
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
            if let (Some(ce), Some(cf)) =
                (parent_component, por_component(event))
            {
                if cf < ce {
                    continue;
                }
            }
            if let Some(t) = ts.step_key(key, event) {
                let shard = if t.key == key {
                    SELF_LOOP
                } else {
                    shard_of(key_hash(t.key)) as u32
                };
                out.push(Candidate {
                    from: index,
                    shard,
                    event,
                    restarted: t.restarted,
                    key: t.key,
                });
            }
        }
    }
}

/// Classifies the candidates at `positions` (one worker's hand-off
/// bucket, in ascending candidate order) against the worker's own shards,
/// `owned[s / lanes]` holding shard `s`. All occurrences of a state share
/// its shard, so they land in the same bucket: the first enters the
/// seen-set provisionally and later ones find it there, so batch-level
/// first/duplicate resolution needs no cross-worker traffic.
fn dedup_positions(
    owned: &mut [&mut KeyMap<u32>],
    lanes: usize,
    candidates: &[Candidate],
    positions: impl Iterator<Item = usize>,
    mut record: impl FnMut(usize, Outcome),
) {
    for position in positions {
        let candidate = &candidates[position];
        let map = &mut owned[candidate.shard as usize / lanes];
        let outcome = match map.entry(candidate.key) {
            Entry::Occupied(entry) if *entry.get() & PROVISIONAL != 0 => {
                Outcome::Dup((*entry.get() & !PROVISIONAL) as usize)
            }
            Entry::Occupied(entry) => Outcome::Known(*entry.get()),
            Entry::Vacant(entry) => {
                entry.insert(PROVISIONAL | position as u32);
                Outcome::Fresh
            }
        };
        record(position, outcome);
    }
}

/// Runs the bounded BFS. The resulting graph is identical for every
/// `workers` value.
pub fn search(ts: &TransitionSystem, config: &SearchConfig) -> SearchGraph {
    let workers = config.workers.max(1);
    let max_states = config.max_states.clamp(1, MAX_INDEX);
    let initial = ts.initial_key();
    let mut graph = SearchGraph {
        states: vec![initial],
        parents: vec![None],
        ..SearchGraph::default()
    };
    let mut shards: Vec<KeyMap<u32>> =
        (0..SEEN_SHARDS).map(|_| KeyMap::default()).collect();
    shards[shard_of(key_hash(initial))].insert(initial, 0);
    let mut frontier: Vec<u32> = vec![0];

    for _ in 0..config.depth {
        if frontier.is_empty() {
            break;
        }

        // Phase 1: expand the frontier into successor candidates.
        let candidates: Vec<Candidate> = {
            let states = graph.states.as_slice();
            let parents = graph.parents.as_slice();
            let lanes = if frontier.len() < PARALLEL_FRONTIER_THRESHOLD {
                1
            } else {
                workers.min(frontier.len())
            };
            if lanes <= 1 {
                let mut out = Vec::new();
                expand_slice(
                    ts, states, parents, &frontier, config.por, &mut out,
                );
                out
            } else {
                let chunk = frontier.len().div_ceil(lanes);
                let mut slots: Vec<Vec<Candidate>> =
                    (0..lanes).map(|_| Vec::new()).collect();
                thread::scope(|scope| {
                    let (mine, rest) = slots.split_at_mut(1);
                    for (i, slot) in rest.iter_mut().enumerate() {
                        let lo = ((i + 1) * chunk).min(frontier.len());
                        let hi = ((i + 2) * chunk).min(frontier.len());
                        let slice = &frontier[lo..hi];
                        let por = config.por;
                        scope.spawn(move || {
                            expand_slice(
                                ts, states, parents, slice, por, slot,
                            );
                        });
                    }
                    expand_slice(
                        ts,
                        states,
                        parents,
                        &frontier[..chunk.min(frontier.len())],
                        config.por,
                        &mut mine[0],
                    );
                });
                slots.into_iter().flatten().collect()
            }
        };

        // Phase 2: classify candidates against the sharded seen-set. One
        // sequential O(candidates) pass buckets each position into its
        // shard owner's hand-off list; each worker then walks only its
        // own bucket (every worker used to rescan the full candidate
        // list, costing O(candidates × workers) at every level).
        let mut outcomes: Vec<Outcome> = candidates
            .iter()
            .map(|c| match c.shard {
                SELF_LOOP => Outcome::Known(c.from),
                _ => Outcome::Fresh,
            })
            .collect();
        let lanes = if candidates.len() < PARALLEL_FRONTIER_THRESHOLD {
            1
        } else {
            workers
        };
        // Shard `s` belongs to worker `s % lanes`, at `s / lanes` in its list.
        let mut owned: Vec<Vec<&mut KeyMap<u32>>> =
            (0..lanes).map(|_| Vec::new()).collect();
        for (s, map) in shards.iter_mut().enumerate() {
            owned[s % lanes].push(map);
        }
        if lanes <= 1 {
            let positions = (0..candidates.len())
                .filter(|&p| candidates[p].shard != SELF_LOOP);
            dedup_positions(&mut owned[0], 1, &candidates, positions, |p, o| {
                outcomes[p] = o;
            });
        } else {
            let mut buckets: Vec<Vec<usize>> =
                (0..lanes).map(|_| Vec::new()).collect();
            for (position, candidate) in candidates.iter().enumerate() {
                if candidate.shard != SELF_LOOP {
                    buckets[candidate.shard as usize % lanes].push(position);
                }
            }
            let mut results: Vec<Vec<(usize, Outcome)>> =
                (0..lanes).map(|_| Vec::new()).collect();
            thread::scope(|scope| {
                let candidate_ref = candidates.as_slice();
                let mut lanes_work =
                    owned.iter_mut().zip(&buckets).zip(results.iter_mut());
                let mine = lanes_work.next();
                for ((maps, bucket), out) in lanes_work {
                    scope.spawn(move || {
                        let positions = bucket.iter().copied();
                        let record = |p, o| out.push((p, o));
                        dedup_positions(
                            maps,
                            lanes,
                            candidate_ref,
                            positions,
                            record,
                        );
                    });
                }
                if let Some(((maps, bucket), out)) = mine {
                    let positions = bucket.iter().copied();
                    let record = |p, o| out.push((p, o));
                    dedup_positions(
                        maps,
                        lanes,
                        candidate_ref,
                        positions,
                        record,
                    );
                }
            });
            for pairs in results {
                for (position, outcome) in pairs {
                    outcomes[position] = outcome;
                }
            }
        }

        // Phase 3: commit fresh states, parents and edges in candidate
        // order — index assignment is therefore worker-count independent.
        let mut next_frontier = Vec::new();
        // State index assigned to each fresh position (`u32::MAX`: none).
        let mut assigned: Vec<u32> = vec![u32::MAX; candidates.len()];
        graph.edges.reserve(candidates.len());
        for (position, candidate) in candidates.into_iter().enumerate() {
            let to = match outcomes[position] {
                Outcome::Known(index) => index,
                Outcome::Fresh if graph.states.len() < max_states => {
                    let index = graph.states.len() as u32;
                    // Commit the provisional seen-set entry.
                    shards[candidate.shard as usize]
                        .insert(candidate.key, index);
                    graph.states.push(candidate.key);
                    graph.parents.push(Some((candidate.from, candidate.event)));
                    assigned[position] = index;
                    next_frontier.push(index);
                    index
                }
                Outcome::Fresh => {
                    shards[candidate.shard as usize].remove(&candidate.key);
                    if !graph.cap_hit {
                        graph.cap_hit = true;
                        graph.frontier_at_cap = frontier.len();
                    }
                    graph.dropped_states += 1;
                    continue;
                }
                Outcome::Dup(first) if assigned[first] != u32::MAX => {
                    assigned[first]
                }
                Outcome::Dup(_) => {
                    // The first occurrence itself fell past the cap.
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
        frontier = next_frontier;
    }
    graph
}

#[cfg(test)]
mod tests {
    use super::super::{ArqHealth, ExploreOptions};
    use super::*;
    use crate::ids::{PartitionId, ScheduleId};
    use crate::schedule::{
        PartitionRequirement, Schedule, ScheduleChangeAction, ScheduleSet,
        TimeWindow,
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
        let chi1 = mk(1, "shed")
            .with_change_action(P1, ScheduleChangeAction::Stop);
        let schedules =
            ScheduleSet::try_new(vec![mk(0, "nominal"), chi1, mk(2, "alt")])
                .unwrap();
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
            let found: Vec<AbstractState> =
                (0..graph.states.len()).map(|i| graph.state(&ts, i)).collect();
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
        let base = search(&ts, &SearchConfig { depth: 4, ..SearchConfig::default() });
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
        let base = search(
            &ts,
            &SearchConfig { depth: 4, ..SearchConfig::default() },
        );
        // Depth of a state = its witness length; at least one level must
        // cross the sequential-fallback threshold, or this test never
        // reaches the threaded expand/dedup phases at all.
        let mut level_sizes: HashMap<usize, usize> = HashMap::new();
        for index in 0..base.states.len() {
            *level_sizes
                .entry(base.witness_of(index).events.len())
                .or_insert(0) += 1;
        }
        assert!(
            level_sizes
                .values()
                .any(|&n| n >= PARALLEL_FRONTIER_THRESHOLD),
            "levels {level_sizes:?} stay under the threshold — widen the \
             system"
        );
        for workers in [2, 8] {
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

    #[test]
    fn cap_hit_is_reported_with_counts() {
        let ts = rich_system();
        let graph = search(
            &ts,
            &SearchConfig {
                depth: 4,
                max_states: 8,
                ..SearchConfig::default()
            },
        );
        assert!(graph.cap_hit);
        assert_eq!(graph.states.len(), 8);
        assert!(graph.dropped_states > 0);
        assert!(graph.frontier_at_cap > 0);
    }

    #[test]
    fn witnesses_are_minimal_event_sequences() {
        let ts = rich_system();
        let graph = search(&ts, &SearchConfig { depth: 3, ..SearchConfig::default() });
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
            &SearchConfig { depth: 3, por: false, ..SearchConfig::default() },
        );
        let reduced =
            search(&ts, &SearchConfig { depth: 3, ..SearchConfig::default() });
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
