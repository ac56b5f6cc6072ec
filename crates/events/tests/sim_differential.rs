//! Differential suite: the per-node event loop of [`CorridorSimulator`],
//! and the interval sweep it runs instead under the instant wake policy,
//! against the global event loop they replaced.
//!
//! The simulator used to push every node's events into one global
//! queue ordered by (time, kind priority, node, insertion sequence) and
//! pop them back out one at a time. That loop lives on here as
//! [`Oracle`], over the binary-heap [`ReferenceQueue`] the queue itself
//! was once checked against, both kept verbatim (modulo names). Property
//! tests drive the simulator and the oracle through the same days —
//! overlapping passes, equal timestamps, negative barrier times, `±0.0`
//! origins, passes straddling the horizon, one-train days as Monte-Carlo
//! samples them and trains changing mid-day, single and double track,
//! instant/paper/custom policies, nodes repeating an earlier node's
//! section (whose run the simulator reuses) or its `±0.0` start twin,
//! drains cancelled by the next train — and require every node's state
//! times, wakes and uncovered time bit for bit, plus the event count.
//!
//! On top of the oracle, the smoke outputs (paper policy, instant
//! policy, Poisson day, double track) stay pinned to digests captured
//! from the heap-era implementation, and two properties pin the premise
//! the per-node loop rests on: a node's day does not depend on the other
//! nodes, and non-finite passes never reach a node.

use core::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt::Write as _;

use corridor_core::traffic::{PoissonTimetable, Timetable, TrackSection, Train, TrainPass};
use corridor_core::units::{KilometersPerHour, Meters, Seconds};
use corridor_events::{
    segment_nodes, CorridorSimulator, NodeKind, NodeSpec, NodeState, SimReport, WakePolicy,
};
use proptest::prelude::*;
use rand::SeedableRng;

// ---------------------------------------------------------------------
// The reference queue: the binary heap that preceded the calendar
// queue, kept verbatim (modulo names).
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    BarrierTrip,
    WakeComplete(u64),
    TrainEnter,
    TrainExit,
    DrainExpire(u64),
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Event {
    time: Seconds,
    node: usize,
    kind: EventKind,
}

#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    event: Event,
    seq: u64,
}

fn kind_rank(kind: EventKind) -> u8 {
    match kind {
        EventKind::BarrierTrip => 0,
        EventKind::WakeComplete(_) => 1,
        EventKind::TrainEnter => 2,
        EventKind::TrainExit => 3,
        EventKind::DrainExpire(_) => 4,
    }
}

impl HeapEntry {
    fn key_cmp(&self, other: &Self) -> Ordering {
        self.event
            .time
            .partial_cmp(&other.event.time)
            .expect("event times are never NaN")
            .then_with(|| kind_rank(self.event.kind).cmp(&kind_rank(other.event.kind)))
            .then_with(|| self.event.node.cmp(&other.event.node))
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key_cmp(other) == Ordering::Equal
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // reversed: BinaryHeap is a max-heap, we want the earliest event
        self.key_cmp(other).reverse()
    }
}

/// The heap-era queue: a plain binary min-heap with an insertion
/// sequence as the final tiebreak.
#[derive(Debug, Default)]
struct ReferenceQueue {
    heap: BinaryHeap<HeapEntry>,
    next_seq: u64,
}

impl ReferenceQueue {
    fn push(&mut self, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry { event, seq });
    }

    fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|entry| entry.event)
    }
}

// ---------------------------------------------------------------------
// The oracle: the global event loop over one queue for all nodes, kept
// verbatim (modulo names; the trace is a plain accumulator because
// `StateTrace`'s mutators are crate-private).
// ---------------------------------------------------------------------

/// Per-state time accumulator with `StateTrace`'s exact arithmetic.
#[derive(Debug, Clone, Copy)]
struct OracleTrace {
    asleep: Seconds,
    waking: Seconds,
    active: Seconds,
    drain: Seconds,
    wakes: usize,
    uncovered: Seconds,
}

impl OracleTrace {
    fn new() -> Self {
        OracleTrace {
            asleep: Seconds::ZERO,
            waking: Seconds::ZERO,
            active: Seconds::ZERO,
            drain: Seconds::ZERO,
            wakes: 0,
            uncovered: Seconds::ZERO,
        }
    }

    fn add(&mut self, state: NodeState, duration: Seconds) {
        let duration = duration.max(Seconds::ZERO);
        match state {
            NodeState::Asleep => self.asleep += duration,
            NodeState::Waking => self.waking += duration,
            NodeState::Active => self.active += duration,
            NodeState::Drain => self.drain += duration,
        }
    }

    fn count_wake(&mut self) {
        self.wakes += 1;
    }

    fn add_uncovered(&mut self, duration: Seconds) {
        self.uncovered += duration.max(Seconds::ZERO);
    }
}

struct NodeRuntime {
    state: NodeState,
    state_since: Seconds,
    occupancy: u32,
    expected: u32,
    wake_seq: u64,
    drain_seq: u64,
    occupied_since: Seconds,
    trace: OracleTrace,
}

/// One node's outcome as raw bits: asleep, waking, active, drain and
/// uncovered time, then the wake count.
type NodeBits = ([u64; 5], usize);

/// One simulated day as the differential compares it.
#[derive(Debug, PartialEq)]
struct DayBits {
    nodes: Vec<NodeBits>,
    events: usize,
}

impl DayBits {
    fn of(report: &SimReport) -> Self {
        DayBits {
            nodes: report
                .nodes()
                .iter()
                .map(|node| {
                    let t = node.trace();
                    (
                        [
                            t.asleep().value().to_bits(),
                            t.waking().value().to_bits(),
                            t.active().value().to_bits(),
                            t.drain().value().to_bits(),
                            t.uncovered().value().to_bits(),
                        ],
                        t.wakes(),
                    )
                })
                .collect(),
            events: report.events_processed(),
        }
    }
}

struct Oracle {
    policy: WakePolicy,
    horizon: Seconds,
}

impl Oracle {
    fn of(sim: &CorridorSimulator) -> Self {
        Oracle {
            policy: sim.policy(),
            horizon: sim.horizon(),
        }
    }

    fn simulate(&self, nodes: &[NodeSpec], passes: &[TrainPass]) -> DayBits {
        self.run(
            nodes,
            nodes.iter().enumerate().flat_map(|(idx, spec)| {
                passes
                    .iter()
                    .map(move |pass| (idx, spec.section().occupancy(pass)))
            }),
        )
    }

    fn simulate_double_track(
        &self,
        nodes: &[NodeSpec],
        up: &[TrainPass],
        down: &[TrainPass],
        corridor_length: Meters,
    ) -> DayBits {
        let mirrored: Vec<TrackSection> = nodes
            .iter()
            .map(|spec| {
                let s = spec.section();
                TrackSection::new(corridor_length - s.end(), corridor_length - s.start())
            })
            .collect();
        let up_occ = nodes.iter().enumerate().flat_map(|(idx, spec)| {
            up.iter()
                .map(move |pass| (idx, spec.section().occupancy(pass)))
        });
        let down_occ = mirrored
            .iter()
            .enumerate()
            .flat_map(|(idx, section)| down.iter().map(move |pass| (idx, section.occupancy(pass))));
        self.run(nodes, up_occ.chain(down_occ))
    }

    fn run(
        &self,
        nodes: &[NodeSpec],
        occupancies: impl Iterator<Item = (usize, (Seconds, Seconds))>,
    ) -> DayBits {
        let mut queue = ReferenceQueue::default();
        for (node, (enter, exit)) in occupancies {
            // intervals entirely outside the horizon never power the node
            if exit <= Seconds::ZERO || enter >= self.horizon || exit <= enter {
                continue;
            }
            queue.push(Event {
                time: enter - self.policy.lead(),
                node,
                kind: EventKind::BarrierTrip,
            });
            queue.push(Event {
                time: enter,
                node,
                kind: EventKind::TrainEnter,
            });
            queue.push(Event {
                time: exit,
                node,
                kind: EventKind::TrainExit,
            });
        }

        let mut runtimes: Vec<NodeRuntime> = nodes
            .iter()
            .map(|_| NodeRuntime {
                state: NodeState::Asleep,
                state_since: Seconds::ZERO,
                occupancy: 0,
                expected: 0,
                wake_seq: 0,
                drain_seq: 0,
                occupied_since: Seconds::ZERO,
                trace: OracleTrace::new(),
            })
            .collect();

        let mut events = 0usize;
        while let Some(event) = queue.pop() {
            events += 1;
            self.handle(&mut runtimes[event.node], event, &mut queue);
        }

        // close every node's final state segment at the horizon
        let nodes = runtimes
            .into_iter()
            .map(|mut rt| {
                let remaining = self.horizon - rt.state_since;
                rt.trace.add(rt.state, remaining);
                let t = rt.trace;
                (
                    [
                        t.asleep.value().to_bits(),
                        t.waking.value().to_bits(),
                        t.active.value().to_bits(),
                        t.drain.value().to_bits(),
                        t.uncovered.value().to_bits(),
                    ],
                    t.wakes,
                )
            })
            .collect();
        DayBits { nodes, events }
    }

    fn transition(&self, rt: &mut NodeRuntime, t: Seconds, next: NodeState) {
        let clock = t.max(Seconds::ZERO).min(self.horizon);
        rt.trace.add(rt.state, clock - rt.state_since);
        if rt.state == NodeState::Asleep && next == NodeState::Waking {
            rt.trace.count_wake();
        }
        rt.state = next;
        rt.state_since = clock;
    }

    fn handle(&self, rt: &mut NodeRuntime, event: Event, queue: &mut ReferenceQueue) {
        let t = event.time;
        match event.kind {
            EventKind::BarrierTrip => {
                rt.expected += 1;
                match rt.state {
                    NodeState::Asleep => {
                        self.transition(rt, t, NodeState::Waking);
                        rt.wake_seq += 1;
                        queue.push(Event {
                            time: t + self.policy.wake_delay(),
                            node: event.node,
                            kind: EventKind::WakeComplete(rt.wake_seq),
                        });
                    }
                    NodeState::Drain => {
                        // a new train is approaching: cancel the drain
                        rt.drain_seq += 1;
                        self.transition(rt, t, NodeState::Active);
                    }
                    NodeState::Waking | NodeState::Active => {}
                }
            }
            EventKind::WakeComplete(seq) => {
                if rt.state == NodeState::Waking && seq == rt.wake_seq {
                    if rt.occupancy > 0 {
                        // the train spent the wake transition uncovered
                        rt.trace
                            .add_uncovered(t.min(self.horizon) - rt.occupied_since);
                        self.transition(rt, t, NodeState::Active);
                    } else if rt.expected > 0 {
                        // powered early (barrier lead): await the train
                        self.transition(rt, t, NodeState::Active);
                    } else {
                        // the train came and went while we were waking
                        rt.drain_seq += 1;
                        self.transition(rt, t, NodeState::Drain);
                        queue.push(Event {
                            time: t + self.policy.guard(),
                            node: event.node,
                            kind: EventKind::DrainExpire(rt.drain_seq),
                        });
                    }
                }
            }
            EventKind::TrainEnter => {
                if rt.occupancy == 0 {
                    rt.occupied_since = t.max(Seconds::ZERO).min(self.horizon);
                }
                rt.occupancy += 1;
                match rt.state {
                    NodeState::Drain => {
                        rt.drain_seq += 1;
                        self.transition(rt, t, NodeState::Active);
                    }
                    NodeState::Asleep => {
                        // defensive: a barrier always trips first (lead ≥ 0),
                        // but an unsensed train must still wake the node
                        self.transition(rt, t, NodeState::Waking);
                        rt.wake_seq += 1;
                        queue.push(Event {
                            time: t + self.policy.wake_delay(),
                            node: event.node,
                            kind: EventKind::WakeComplete(rt.wake_seq),
                        });
                    }
                    NodeState::Waking | NodeState::Active => {}
                }
            }
            EventKind::TrainExit => {
                rt.occupancy = rt.occupancy.saturating_sub(1);
                rt.expected = rt.expected.saturating_sub(1);
                if rt.occupancy == 0 {
                    match rt.state {
                        NodeState::Waking => {
                            // the whole pass fell inside the wake transition
                            rt.trace
                                .add_uncovered(t.min(self.horizon) - rt.occupied_since);
                        }
                        NodeState::Active if rt.expected == 0 => {
                            rt.drain_seq += 1;
                            self.transition(rt, t, NodeState::Drain);
                            queue.push(Event {
                                time: t + self.policy.guard(),
                                node: event.node,
                                kind: EventKind::DrainExpire(rt.drain_seq),
                            });
                        }
                        // a tripped train is still approaching: stay powered
                        _ => {}
                    }
                }
            }
            EventKind::DrainExpire(seq) => {
                if rt.state == NodeState::Drain && seq == rt.drain_seq {
                    self.transition(rt, t, NodeState::Asleep);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

/// The corridor length every generated section fits inside (so double
/// track can mirror it).
const CORRIDOR: f64 = 3000.0;

/// Origins engineered to collide: exact constants (including the
/// `-0.0`/`+0.0` pair and both horizon edges), coarse grids, negative
/// times and a free range past the day.
fn origin_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(10.0),
        Just(86_400.0),
        Just(3_600.0),
        (-120.0..=200.0f64).prop_map(|t| t.floor()),
        (0.0..=60.0f64).prop_map(|t| (t * 2.0).floor() / 2.0),
        (3_500.0..=3_700.0f64).prop_map(|t| t.floor()),
        -200.0..=90_000.0f64,
    ]
}

/// Three trains, so occupancy durations differ and passes overtake.
fn train_of(selector: u8) -> Train {
    match selector % 3 {
        0 => Train::paper_default(),
        1 => Train::new(
            Meters::new(50.0),
            KilometersPerHour::new(72.0).meters_per_second(),
        ),
        _ => Train::new(
            Meters::new(400.0),
            KilometersPerHour::new(288.0).meters_per_second(),
        ),
    }
}

/// A day of passes, sorted by origin like every timetable produces
/// (`shuffle = 0`), or left in generation order.
fn passes_strategy() -> impl Strategy<Value = Vec<TrainPass>> {
    (
        prop::collection::vec((origin_strategy(), 0u8..=2), 0..40),
        0u8..=1,
    )
        .prop_map(|(raw, shuffle)| {
            let mut passes: Vec<TrainPass> = raw
                .into_iter()
                .map(|(t, train)| TrainPass::new(train_of(train), Seconds::new(t)))
                .collect();
            if shuffle == 0 {
                passes.sort_by(|a, b| a.origin_time().total_cmp(&b.origin_time()));
            }
            passes
        })
}

/// Sections inside `[0, CORRIDOR]`, from grids coarse enough that nodes
/// share boundaries (and so event timestamps), including zero-length
/// sections. One node in four repeats an earlier node's section bit for
/// bit, as the mast and the donor repeaters of a segment do, so the
/// simulator reuses that node's day; one in eight repeats it with a
/// `-0.0` start where the earlier one starts at `+0.0` or vice versa,
/// which is equal but not the same bits and must be simulated afresh.
fn nodes_strategy() -> impl Strategy<Value = Vec<NodeSpec>> {
    let node = (0.0..=2_900.0f64, 0.0..=600.0f64, 0u8..=7, 0usize..=5);
    prop::collection::vec(node, 1..8).prop_map(|raw| {
        let mut sections: Vec<TrackSection> = Vec::with_capacity(raw.len());
        for (k, (start, len, reuse, earlier)) in raw.into_iter().enumerate() {
            let section = match reuse {
                0 | 1 if k > 0 => sections[earlier % k],
                2 if k > 0 => {
                    let s = sections[earlier % k];
                    let start = if s.start().value() == 0.0 {
                        Meters::new(-s.start().value())
                    } else {
                        s.start()
                    };
                    TrackSection::new(start, s.end())
                }
                // two draws in eight start at the corridor's origin,
                // where the twins come from
                _ => {
                    let start = if reuse >= 6 {
                        0.0
                    } else {
                        (start / 100.0).floor() * 100.0
                    };
                    let end = (start + (len / 50.0).floor() * 50.0).min(CORRIDOR);
                    TrackSection::new(Meters::new(start), Meters::new(end))
                }
            };
            sections.push(section);
        }
        sections
            .into_iter()
            .map(|s| NodeSpec::new(NodeKind::ServiceRepeater, s))
            .collect()
    })
}

/// Instant, paper, or a custom policy with lead/delay/guard drawn from
/// values that tie with pass timestamps.
fn simulator_strategy() -> impl Strategy<Value = CorridorSimulator> {
    (0u8..=3, (0u8..=3, 0u8..=3, 0u8..=3), 0u8..=1).prop_map(
        |(which, (lead, delay, guard), short)| {
            let policy = match which {
                0 => WakePolicy::instant(),
                1 => WakePolicy::paper_default(),
                _ => {
                    let s = |k: u8| Seconds::new(f64::from(k) * 2.5);
                    WakePolicy::new(s(lead), s(delay), s(guard))
                }
            };
            let sim = CorridorSimulator::new().with_policy(policy);
            if short == 1 {
                // a one-hour horizon: the 3 600 s origins straddle it
                sim.with_horizon(Seconds::new(3_600.0))
            } else {
                sim
            }
        },
    )
}

// ---------------------------------------------------------------------
// Simulator vs oracle
// ---------------------------------------------------------------------

proptest! {
    /// Single track: every node's state times, wakes and uncovered time
    /// and the event count equal the global loop's, bit for bit.
    #[test]
    fn single_track_matches_the_global_loop(
        sim in simulator_strategy(),
        nodes in nodes_strategy(),
        passes in passes_strategy(),
    ) {
        let report = sim.simulate(&nodes, &passes);
        prop_assert_eq!(DayBits::of(&report), Oracle::of(&sim).simulate(&nodes, &passes));
    }

    /// Double track: the up and down passes of one node interleave in
    /// time and tie at equal timestamps in push order (up first).
    #[test]
    fn double_track_matches_the_global_loop(
        sim in simulator_strategy(),
        nodes in nodes_strategy(),
        up in passes_strategy(),
        down in passes_strategy(),
    ) {
        let length = Meters::new(CORRIDOR);
        let report = sim.simulate_double_track(&nodes, &up, &down, length);
        prop_assert_eq!(
            DayBits::of(&report),
            Oracle::of(&sim).simulate_double_track(&nodes, &up, &down, length)
        );
    }

    /// The premise of the per-node loop: node k's trace is the same
    /// whether it runs with the other nodes or alone, and the per-node
    /// event counts add up to the day's.
    #[test]
    fn each_node_runs_independently(
        sim in simulator_strategy(),
        nodes in nodes_strategy(),
        passes in passes_strategy(),
    ) {
        let together = DayBits::of(&sim.simulate(&nodes, &passes));
        let mut events = 0;
        for k in 0..nodes.len() {
            let alone = DayBits::of(&sim.simulate(&nodes[k..=k], &passes));
            prop_assert_eq!(alone.nodes[0], together.nodes[k]);
            events += alone.events;
        }
        prop_assert_eq!(events, together.events);
    }
}

fn paper_segment() -> Vec<NodeSpec> {
    segment_nodes(10, Meters::new(2650.0), Meters::new(200.0))
}

#[test]
fn horizon_clipped_passes_match_the_global_loop() {
    // passes straddling both horizon edges of a day and of a one-hour
    // horizon: some still in the section when it ends, some entirely
    // past it, one entering before t = 0 (negative barrier-trip times
    // via the wake lead) and one leaving before it
    let train = Train::paper_default();
    let passes: Vec<TrainPass> = [
        -30.0, -5.0, 0.0, 10.0, 3_590.0, 3_600.0, 86_390.0, 86_395.0, 90_000.0,
    ]
    .into_iter()
    .map(|t| TrainPass::new(train, Seconds::new(t)))
    .collect();
    let nodes = [
        TrackSection::new(Meters::ZERO, Meters::new(500.0)),
        TrackSection::new(Meters::new(400.0), Meters::new(900.0)),
    ]
    .map(|s| NodeSpec::new(NodeKind::ServiceRepeater, s));
    let length = Meters::new(CORRIDOR);
    for policy in [WakePolicy::paper_default(), WakePolicy::instant()] {
        for horizon in [86_400.0, 3_600.0] {
            let sim = CorridorSimulator::new()
                .with_policy(policy)
                .with_horizon(Seconds::new(horizon));
            let oracle = Oracle::of(&sim);
            assert_eq!(
                DayBits::of(&sim.simulate(&nodes, &passes)),
                oracle.simulate(&nodes, &passes),
                "{policy:?}, horizon {horizon}"
            );
            assert_eq!(
                DayBits::of(&sim.simulate_double_track(&nodes, &passes, &passes, length)),
                oracle.simulate_double_track(&nodes, &passes, &passes, length),
                "double track, {policy:?}, horizon {horizon}"
            );
        }
    }
}

#[test]
fn colocated_zero_length_sections_match_the_global_loop() {
    // a zero-length section still has a positive occupancy (train length
    // over speed), and two nodes at the same point collide on every
    // timestamp
    let train = Train::paper_default();
    let passes: Vec<TrainPass> = (0..20)
        .map(|i| TrainPass::new(train, Seconds::new(f64::from(i) * 450.0)))
        .collect();
    let at = Meters::new(700.0);
    let nodes = [
        TrackSection::new(at, at),
        TrackSection::new(at, at),
        TrackSection::new(Meters::ZERO, at),
    ]
    .map(|s| NodeSpec::new(NodeKind::ServiceRepeater, s));
    let sim = CorridorSimulator::new();
    assert_eq!(
        DayBits::of(&sim.simulate(&nodes, &passes)),
        Oracle::of(&sim).simulate(&nodes, &passes)
    );
}

#[test]
fn days_not_sorted_by_origin_match_the_global_loop() {
    // a network edge appends one sorted Poisson day per route, so its
    // passes form two sorted runs end to end; a reversed day is the
    // worst case for an insertion pass. Both reach the sort fallback,
    // under the event loop (paper policy) and the interval sweep
    // (instant), on single track and on double track, whose down
    // direction is one more sorted run after the up direction.
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let mut routes = PoissonTimetable::paper_rate().sample_passes(&mut rng);
    routes.extend(PoissonTimetable::paper_rate().sample_passes(&mut rng));
    let mut reversed = Timetable::paper_default().passes();
    reversed.reverse();
    let nodes = paper_segment();
    let length = Meters::new(2650.0);
    for policy in [WakePolicy::paper_default(), WakePolicy::instant()] {
        let sim = CorridorSimulator::new().with_policy(policy);
        let oracle = Oracle::of(&sim);
        for passes in [&routes, &reversed] {
            assert_eq!(
                DayBits::of(&sim.simulate(&nodes, passes)),
                oracle.simulate(&nodes, passes)
            );
            assert_eq!(
                DayBits::of(&sim.simulate_double_track(&nodes, passes, &routes, length)),
                oracle.simulate_double_track(&nodes, passes, &routes, length)
            );
        }
    }
}

#[test]
fn shared_sections_of_a_paper_segment_match_the_global_loop() {
    // the mast and the donor repeaters all watch [0, isd], so the
    // simulator runs that section once and reuses its day
    let nodes = paper_segment();
    let mut keys: Vec<[u64; 2]> = nodes
        .iter()
        .map(|n| [n.section().start(), n.section().end()].map(|m| m.value().to_bits()))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!((nodes.len(), keys.len()), (13, 11));

    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let poisson = PoissonTimetable::paper_rate().sample_passes(&mut rng);
    let paper = Timetable::paper_default().passes();
    let length = Meters::new(2650.0);
    for policy in [WakePolicy::instant(), WakePolicy::paper_default()] {
        let sim = CorridorSimulator::new().with_policy(policy);
        let oracle = Oracle::of(&sim);
        for passes in [&poisson, &paper] {
            assert_eq!(
                DayBits::of(&sim.simulate(&nodes, passes)),
                oracle.simulate(&nodes, passes)
            );
            assert_eq!(
                DayBits::of(&sim.simulate_double_track(&nodes, passes, &poisson, length)),
                oracle.simulate_double_track(&nodes, passes, &poisson, length)
            );
        }
    }
}

#[test]
fn signed_zero_start_twins_match_the_global_loop() {
    // `-0.0 == +0.0`, but the twins are different bits, so each is
    // simulated on its own; passes with both signed-zero origins make
    // the entry times differ in sign too
    let train = Train::paper_default();
    let passes: Vec<TrainPass> = [-0.0, 0.0, 600.0, 600.0]
        .into_iter()
        .map(|t| TrainPass::new(train, Seconds::new(t)))
        .collect();
    let end = Meters::new(500.0);
    let nodes = [
        TrackSection::new(Meters::new(0.0), end),
        TrackSection::new(Meters::new(-0.0), end),
        TrackSection::new(Meters::new(-0.0), end),
        TrackSection::new(Meters::new(0.0), end),
    ]
    .map(|s| NodeSpec::new(NodeKind::DonorRepeater, s));
    let length = Meters::new(CORRIDOR);
    for policy in [WakePolicy::instant(), WakePolicy::paper_default()] {
        let sim = CorridorSimulator::new().with_policy(policy);
        let oracle = Oracle::of(&sim);
        assert_eq!(
            DayBits::of(&sim.simulate(&nodes, &passes)),
            oracle.simulate(&nodes, &passes)
        );
        assert_eq!(
            DayBits::of(&sim.simulate_double_track(&nodes, &passes, &passes, length)),
            oracle.simulate_double_track(&nodes, &passes, &passes, length)
        );
    }
}

#[test]
fn cancelled_drains_match_the_global_loop() {
    // a 30 s guard and trains every 30 s: each barrier trip after the
    // first lands inside the previous train's drain and cancels it, and
    // the next exit schedules a fresh one. A second burst after a quiet
    // hour wakes the node again.
    let train = Train::paper_default();
    let passes: Vec<TrainPass> = (0..10)
        .map(|k| 1_000.0 + 30.0 * f64::from(k))
        .chain((0..5).map(|k| 5_000.0 + 40.0 * f64::from(k)))
        .map(|t| TrainPass::new(train, Seconds::new(t)))
        .collect();
    let nodes = [NodeSpec::new(
        NodeKind::HighPowerMast,
        TrackSection::new(Meters::ZERO, Meters::new(500.0)),
    )];
    let policy = WakePolicy::new(Seconds::new(5.0), Seconds::new(1.0), Seconds::new(30.0));
    let sim = CorridorSimulator::new().with_policy(policy);
    let report = sim.simulate(&nodes, &passes);
    let oracle = Oracle::of(&sim);
    assert_eq!(DayBits::of(&report), oracle.simulate(&nodes, &passes));
    // every pass stages 3 events and every wake fires its completion
    // and, once its last drain is not cancelled, one drain expiry; the
    // rest are the cancelled drains, still counted at their expiry
    let wakes = report.nodes()[0].trace().wakes();
    let cancelled = report.events_processed() - 3 * passes.len() - 2 * wakes;
    assert_eq!((wakes, cancelled), (2, 9 + 4));

    let length = Meters::new(CORRIDOR);
    let nodes = paper_segment();
    assert_eq!(
        DayBits::of(&sim.simulate_double_track(&nodes, &passes, &passes, length)),
        oracle.simulate_double_track(&nodes, &passes, &passes, length)
    );
}

// ---------------------------------------------------------------------
// Instant-policy days: the simulator merges occupancy intervals instead
// of running the event loop, and must still match it bit for bit
// ---------------------------------------------------------------------

proptest! {
    /// Every generated case runs the instant policy, at a 24 h or a
    /// one-hour horizon, on single and on double track.
    #[test]
    fn instant_policy_days_match_the_global_loop(
        short in 0u8..=1,
        nodes in nodes_strategy(),
        up in passes_strategy(),
        down in passes_strategy(),
    ) {
        let sim = CorridorSimulator::new();
        let sim = if short == 1 { sim.with_horizon(Seconds::new(3_600.0)) } else { sim };
        let oracle = Oracle::of(&sim);
        prop_assert_eq!(DayBits::of(&sim.simulate(&nodes, &up)), oracle.simulate(&nodes, &up));
        let length = Meters::new(CORRIDOR);
        prop_assert_eq!(
            DayBits::of(&sim.simulate_double_track(&nodes, &up, &down, length)),
            oracle.simulate_double_track(&nodes, &up, &down, length)
        );
    }
}

/// One node watching `[0, end]`.
fn one_node(end: f64) -> [NodeSpec; 1] {
    [NodeSpec::new(
        NodeKind::ServiceRepeater,
        TrackSection::new(Meters::ZERO, Meters::new(end)),
    )]
}

/// Passes of `train_of(selector)` at each origin, in the order given.
fn passes_at(passes: &[(f64, u8)]) -> Vec<TrainPass> {
    passes
        .iter()
        .map(|&(t, train)| TrainPass::new(train_of(train), Seconds::new(t)))
        .collect()
}

#[test]
fn touching_intervals_share_one_wake() {
    // a 50 m train at 20 m/s occupies [0, 150] for exactly 10 s, so
    // passes 10 s apart touch: the next entry equals the last exit, the
    // barrier at that time fires before the exit, and the node stays
    // powered. A pass after a gap wakes it again.
    let nodes = one_node(150.0);
    let passes = passes_at(&[(100.0, 1), (110.0, 1), (120.0, 1), (200.0, 1)]);
    let sim = CorridorSimulator::new();
    let report = sim.simulate(&nodes, &passes);
    assert_eq!(
        DayBits::of(&report),
        Oracle::of(&sim).simulate(&nodes, &passes)
    );
    let trace = report.nodes()[0].trace();
    assert_eq!(trace.wakes(), 2);
    assert_eq!(trace.powered(), Seconds::new(40.0));
    assert_eq!(report.events_processed(), 3 * 4 + 2 * 2);
}

#[test]
fn equal_entries_with_different_exits_merge_to_the_latest_exit() {
    // all three trains enter [0, 500] at their origin. At t = 1000 the
    // 50 m train leaves at 1027.5 and the 400 m train at 80 m/s at
    // 1011.25; a third train entering at 1015 overlaps the first, not
    // the second, so the powered stretch must run to the latest exit
    // seen, not the last one. At t = 2000 three trains tie on entry,
    // in the order of their exits.
    let nodes = one_node(500.0);
    let passes = passes_at(&[
        (1_000.0, 1),
        (1_000.0, 2),
        (1_015.0, 2),
        (2_000.0, 2),
        (2_000.0, 0),
        (2_000.0, 1),
    ]);
    let sim = CorridorSimulator::new();
    let report = sim.simulate(&nodes, &passes);
    assert_eq!(
        DayBits::of(&report),
        Oracle::of(&sim).simulate(&nodes, &passes)
    );
    let trace = report.nodes()[0].trace();
    assert_eq!(trace.wakes(), 2);
    assert_eq!(trace.powered(), Seconds::new(27.5 + 27.5));
    assert_eq!(report.events_processed(), 3 * 6 + 2 * 2);
}

// ---------------------------------------------------------------------
// One-train instant days, as every Monte-Carlo and network day is: the
// simulator divides once per section and train, not once per pass, and
// bills each stretch from two clamped clocks. A single-track day of one
// train in origin order is merged for every section in one walk over
// its passes; its double-track twin and any other day are staged
// ---------------------------------------------------------------------

/// A sorted day of 50–250 passes of one train, as a Poisson day is.
fn one_train_passes_strategy() -> impl Strategy<Value = Vec<TrainPass>> {
    (prop::collection::vec(origin_strategy(), 50..251), 0u8..=2).prop_map(|(mut origins, train)| {
        origins.sort_by(f64::total_cmp);
        origins
            .into_iter()
            .map(|t| TrainPass::new(train_of(train), Seconds::new(t)))
            .collect()
    })
}

proptest! {
    /// One train per day, single and double track, at a 24 h or a
    /// one-hour horizon. The up day also runs rotated, which leaves one
    /// falling origin, so the in-order walk must not take it.
    #[test]
    fn one_train_instant_days_match_the_global_loop(
        short in 0u8..=1,
        nodes in nodes_strategy(),
        up in one_train_passes_strategy(),
        down in one_train_passes_strategy(),
    ) {
        let sim = CorridorSimulator::new();
        let sim = if short == 1 { sim.with_horizon(Seconds::new(3_600.0)) } else { sim };
        let oracle = Oracle::of(&sim);
        prop_assert_eq!(DayBits::of(&sim.simulate(&nodes, &up)), oracle.simulate(&nodes, &up));
        let mut rotated = up.clone();
        rotated.rotate_left(up.len() / 3);
        prop_assert_eq!(
            DayBits::of(&sim.simulate(&nodes, &rotated)),
            oracle.simulate(&nodes, &rotated)
        );
        let length = Meters::new(CORRIDOR);
        prop_assert_eq!(
            DayBits::of(&sim.simulate_double_track(&nodes, &up, &down, length)),
            oracle.simulate_double_track(&nodes, &up, &down, length)
        );
    }
}

/// Instant days of `passes` on a segment with `-0.0` and `+0.0` start
/// twins, single and double track, at both horizons, under
/// `WakePolicy::instant()` and under its `-0.0` twin (equal, so it runs
/// the interval sweep too).
fn assert_instant_days_match(passes: &[TrainPass]) {
    let nodes: Vec<NodeSpec> = paper_segment()
        .into_iter()
        .chain(
            [-0.0, 0.0, -0.0]
                .map(|start| TrackSection::new(Meters::new(start), Meters::new(700.0)))
                .map(|s| NodeSpec::new(NodeKind::ServiceRepeater, s)),
        )
        .collect();
    let zero = Seconds::new(-0.0);
    let policies = [WakePolicy::instant(), WakePolicy::new(zero, zero, zero)];
    let length = Meters::new(CORRIDOR);
    for policy in policies {
        assert_eq!(policy, WakePolicy::instant());
        for horizon in [86_400.0, 3_600.0] {
            let sim = CorridorSimulator::new()
                .with_policy(policy)
                .with_horizon(Seconds::new(horizon));
            let oracle = Oracle::of(&sim);
            assert_eq!(
                DayBits::of(&sim.simulate(&nodes, passes)),
                oracle.simulate(&nodes, passes),
                "{policy:?}, horizon {horizon}"
            );
            let mut down = passes.to_vec();
            down.reverse();
            assert_eq!(
                DayBits::of(&sim.simulate_double_track(&nodes, passes, &down, length)),
                oracle.simulate_double_track(&nodes, passes, &down, length),
                "double track, {policy:?}, horizon {horizon}"
            );
        }
    }
}

#[test]
fn a_train_change_mid_day_recomputes_the_pass_offsets() {
    // runs of one train broken by the two others, and back: each change
    // must divide afresh, and a return to an earlier train too, as the
    // offsets are kept for the last train only
    let trains = [0, 0, 0, 1, 1, 0, 2, 2, 2, 0, 1, 0];
    let passes: Vec<TrainPass> = trains
        .into_iter()
        .zip(0u32..)
        .map(|(train, k)| TrainPass::new(train_of(train), Seconds::new(300.0 * f64::from(k))))
        .collect();
    assert_instant_days_match(&passes);
    // and a day whose trains differ in length only, at one speed
    let speed = KilometersPerHour::new(180.0).meters_per_second();
    let passes: Vec<TrainPass> = (0..12)
        .map(|k| {
            let length = Meters::new(if k % 3 == 0 { 400.0 } else { 200.0 });
            TrainPass::new(Train::new(length, speed), Seconds::new(90.0 * f64::from(k)))
        })
        .collect();
    assert_instant_days_match(&passes);
}

#[test]
fn signed_zero_origins_and_starts_of_one_train_match_the_global_loop() {
    // `-0.0` origins on `-0.0`/`+0.0` starts give entries of either
    // zero sign at t = 0, where the first stretch's clamped start is
    // billed; the double-track day mirrors them to the corridor's end
    let train = Train::paper_default();
    let passes: Vec<TrainPass> = [-0.0, 0.0, -0.0, 5.0, 600.0]
        .into_iter()
        .map(|t| TrainPass::new(train, Seconds::new(t)))
        .collect();
    assert_instant_days_match(&passes);
}

#[test]
fn stretches_clipped_at_both_horizon_edges_match_the_global_loop() {
    // a burst straddling t = 0 (entries before it, exits after it), one
    // straddling the one-hour horizon and one straddling the day's end:
    // the first stretch's start and the last stretch's end are clamped
    let train = Train::paper_default();
    let passes: Vec<TrainPass> = [-20.0, -10.0, -3.0, 1_000.0]
        .into_iter()
        .chain([3_590.0, 3_595.0, 3_598.0])
        .chain([86_385.0, 86_390.0, 86_399.0])
        .map(|t| TrainPass::new(train, Seconds::new(t)))
        .collect();
    assert_instant_days_match(&passes);
    for horizon in [86_400.0, 3_600.0] {
        let horizon = Seconds::new(horizon);
        let report = CorridorSimulator::new()
            .with_horizon(horizon)
            .simulate(&one_node(500.0), &passes);
        let trace = report.nodes()[0].trace();
        assert!(((trace.asleep() + trace.powered()).value() - horizon.value()).abs() < 1e-9);
        assert_eq!(
            (trace.waking(), trace.drain()),
            (Seconds::ZERO, Seconds::ZERO)
        );
    }
}

#[test]
fn in_order_days_at_the_single_walks_edges_match_the_global_loop() {
    // days the in-order walk takes: no pass, one pass, tied origins, ±∞
    // origins, passes entering before t = 0, and passes wholly past the
    // one-hour horizon or the day's end; each train of the generators
    let days: [&[f64]; 9] = [
        &[],
        &[1_000.0],
        &[500.0, 500.0, 500.0, 900.0, 900.0],
        &[f64::NEG_INFINITY, 10.0, 20.0, f64::INFINITY],
        &[
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::INFINITY,
        ],
        &[-400.0, -100.0, -30.0, -5.0, 40.0],
        &[-30.0, 1_000.0, 3_700.0, 4_000.0],
        &[3_700.0, 4_000.0, 86_500.0, 90_000.0],
        &[86_400.0, 86_401.0, 100_000.0],
    ];
    for train in 0..=2 {
        for origins in days {
            let passes: Vec<TrainPass> = origins
                .iter()
                .map(|&t| TrainPass::new(train_of(train), Seconds::new(t)))
                .collect();
            assert_instant_days_match(&passes);
        }
    }
}

// ---------------------------------------------------------------------
// Non-finite passes
// ---------------------------------------------------------------------

#[test]
fn non_finite_origins_leave_every_node_untouched() {
    // NaN fails every comparison, so it must not slip through the
    // horizon filter as an interval that is "not outside" it; ±∞ origins
    // give empty intervals. The day must be bit-identical without them.
    let nodes = paper_segment();
    let sim = CorridorSimulator::new().with_policy(WakePolicy::paper_default());
    let passes = Timetable::paper_default().passes();
    let clean = DayBits::of(&sim.simulate(&nodes, &passes));
    let train = Train::paper_default();
    for origin in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut dirty = passes.clone();
        dirty.insert(40, TrainPass::new(train, Seconds::new(origin)));
        let report = sim.simulate(&nodes, &dirty);
        assert_eq!(DayBits::of(&report), clean, "origin {origin}");
        assert_eq!(report.passes(), passes.len() + 1);
        assert!(report.nodes().iter().all(|n| n.trace().wakes() == 152));
        let double = sim.simulate_double_track(&nodes, &dirty, &dirty, Meters::new(2650.0));
        assert_eq!(
            DayBits::of(&double),
            DayBits::of(&sim.simulate_double_track(&nodes, &passes, &passes, Meters::new(2650.0))),
            "double track, origin {origin}"
        );
    }
}

// ---------------------------------------------------------------------
// End-to-end smoke digests pinned from the heap-era implementation
// ---------------------------------------------------------------------

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A digest over the runs' horizon and every float bit and counter a
/// [`SimReport`] exposes.
fn report_digest(report: &SimReport) -> u64 {
    let mut s = String::new();
    let _ = write!(
        s,
        "{}|{}|{};",
        DIGEST_HORIZON.value().to_bits(),
        report.events_processed(),
        report.passes()
    );
    for node in report.nodes() {
        let t = node.trace();
        let _ = write!(
            s,
            "{:?}|{}|{}|{}|{}|{}|{}|{};",
            node.kind(),
            t.asleep().value().to_bits(),
            t.waking().value().to_bits(),
            t.active().value().to_bits(),
            t.drain().value().to_bits(),
            t.powered().value().to_bits(),
            t.wakes(),
            t.uncovered().value().to_bits(),
        );
    }
    fnv1a(s.as_bytes())
}

/// The horizon of every smoke simulation below (the simulator's
/// default day), which the heap-era digests fold in first.
const DIGEST_HORIZON: Seconds = Seconds::new(86_400.0);

/// Digests of the smoke simulations captured by running this exact
/// digest on the heap-era implementation.
const PAPER_DIGEST: u64 = 0x0fd6_5c95_c119_d3d6;
const INSTANT_DIGEST: u64 = 0x9f1c_eaef_313f_5acc;
const POISSON_DIGEST: u64 = 0x75a2_3e4d_9ca9_9319;
const DOUBLE_TRACK_DIGEST: u64 = 0x3431_5226_b94f_8a58;

#[test]
fn simulate_smoke_output_is_byte_identical_to_the_heap_era() {
    let nodes = paper_segment();
    let passes = Timetable::paper_default().passes();

    let paper = CorridorSimulator::new()
        .with_policy(WakePolicy::paper_default())
        .simulate(&nodes, &passes);
    assert_eq!(report_digest(&paper), PAPER_DIGEST);

    let instant = CorridorSimulator::new().simulate(&nodes, &passes);
    assert_eq!(report_digest(&instant), INSTANT_DIGEST);

    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let poisson_passes = PoissonTimetable::paper_rate().sample_passes(&mut rng);
    let poisson = CorridorSimulator::new()
        .with_policy(WakePolicy::paper_default())
        .simulate(&nodes, &poisson_passes);
    assert_eq!(report_digest(&poisson), POISSON_DIGEST);
}

#[test]
fn double_track_smoke_output_is_byte_identical_to_the_heap_era() {
    let nodes = paper_segment();
    let passes = Timetable::paper_default().passes();
    let length = nodes
        .iter()
        .map(|s| s.section().end())
        .fold(Meters::ZERO, |a, b| if b > a { b } else { a });
    let base = Timetable::paper_default();
    let down = Timetable::new(
        base.trains_per_hour(),
        base.service_window(),
        base.service_start() + Seconds::new(225.0),
        base.train(),
    )
    .passes();
    let double = CorridorSimulator::new()
        .with_policy(WakePolicy::paper_default())
        .simulate_double_track(&nodes, &passes, &down, length);
    assert_eq!(report_digest(&double), DOUBLE_TRACK_DIGEST);
}
