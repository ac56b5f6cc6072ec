//! The discrete-event corridor simulator.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use corridor_traffic::{TrackSection, Train, TrainPass};
use corridor_units::{Hours, Meters, Seconds};

use crate::{NodeReport, NodeSpec, NodeState, SimReport, StateTrace, WakePolicy};

/// What fires (or is scheduled to fire) at a node.
///
/// At equal timestamps events process in a fixed priority order —
/// barrier trips before wake completions before train entries before
/// train exits before drain expiries — so zero-latency policies (an
/// instant wake at the very second a train enters) resolve
/// deterministically. The variants are declared in that order, so the
/// discriminant is the priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    /// The photoelectric barrier up-track of the node tripped.
    BarrierTrip,
    /// A wake transition completed.
    WakeComplete,
    /// A train head entered the node's coverage section.
    TrainEnter,
    /// A train tail cleared the node's coverage section.
    TrainExit,
    /// The guard interval after the last train expired.
    DrainExpire,
}

/// One event at one node.
#[derive(Debug, Clone, Copy)]
struct Event {
    /// When the event fires (may lie outside the horizon; the energy
    /// integrator clamps).
    time: Seconds,
    kind: EventKind,
}

impl Event {
    /// True if `self` fires strictly before `other`: by time, then kind
    /// priority. `-0.0` and `+0.0` tie, as under `==`; staging drops NaN
    /// times.
    fn precedes(&self, other: &Event) -> bool {
        self.time < other.time
            || (self.time == other.time && (self.kind as u8) < (other.kind as u8))
    }
}

/// One occupancy interval of a node's section: `(enter, exit)`.
type Span = (Seconds, Seconds);

/// One direction of a day's traffic: its passes, and the corridor length
/// a node's section is mirrored over for them (`None` when they sweep the
/// sections as given).
type Direction<'a> = (&'a [TrainPass], Option<Meters>);

/// The bits of a train's length and speed: two passes run the same train
/// when these are equal.
fn train_key(train: Train) -> [u64; 2] {
    [train.length().value(), train.speed().value()].map(f64::to_bits)
}

/// The head and tail offsets of `section` for `train`: a pass enters at
/// `origin + start / speed` and leaves at `origin + (end + length) /
/// speed`, the operations of [`TrackSection::occupancy`] on the same
/// operands.
fn offsets(section: TrackSection, train: Train) -> Span {
    (
        section.start() / train.speed(),
        (section.end() + train.length()) / train.speed(),
    )
}

/// A section's occupancy intervals, pass by pass, with the two divisions
/// of [`TrackSection::occupancy`] done once per train instead of once
/// per pass.
///
/// Both quotients ([`offsets`]) depend on the train alone, so they are
/// kept for the last train seen (keyed on the bits of its length and
/// speed) and recomputed when the train changes, and every interval
/// keeps the bits `occupancy` gives it.
struct PassOffsets {
    section: TrackSection,
    /// Bits of the length and speed the offsets were computed for.
    train: Option<[u64; 2]>,
    /// `start / speed`.
    head: Seconds,
    /// `(end + length) / speed`.
    tail: Seconds,
}

impl PassOffsets {
    fn new(section: TrackSection) -> Self {
        PassOffsets {
            section,
            train: None,
            head: Seconds::ZERO,
            tail: Seconds::ZERO,
        }
    }

    /// `self.section.occupancy(pass)`, bit for bit.
    fn occupancy(&mut self, pass: &TrainPass) -> Span {
        let train = pass.train();
        let key = train_key(train);
        if self.train != Some(key) {
            self.divide(key, train);
        }
        let origin = pass.origin_time();
        (origin + self.head, origin + self.tail)
    }

    /// Recomputes the offsets for a new train. Out of line and cold, so
    /// the pass loop branches around the divisions instead of computing
    /// them for every pass and selecting the kept ones.
    #[cold]
    #[inline(never)]
    fn divide(&mut self, key: [u64; 2], train: Train) {
        self.train = Some(key);
        (self.head, self.tail) = offsets(self.section, train);
    }
}

/// The passes of a day whose instant-policy intervals arrive in order
/// for every section: one direction swept as given, every pass of one
/// train (by the bits of its length and speed, as [`PassOffsets`] keys
/// it) and origins that never fall (each `origin >= last`). Rounding is
/// monotone, so for each section's head offset `origin + head` never
/// falls either, and neither do the entries of the live intervals. A NaN
/// origin fails `origin >= last`, so its day is not taken; `-0.0` after
/// `+0.0` does not fall. Poisson and timetable days pass the check; a
/// double-track day (two directions), a network edge's concatenated
/// routes (a falling origin) and a day that changes trains do not.
fn in_order_day<'a>(directions: &[Direction<'a>]) -> Option<&'a [TrainPass]> {
    let &[(passes, None)] = directions else {
        return None;
    };
    let Some(first) = passes.first() else {
        return Some(passes);
    };
    let train = train_key(first.train());
    let mut last = f64::NEG_INFINITY;
    for pass in passes {
        let origin = pass.origin_time().value();
        if train_key(pass.train()) == train && origin >= last {
            last = origin;
        } else {
            return None;
        }
    }
    Some(passes)
}

/// Sorts `items` stably into the order `precedes` defines. A day's
/// passes usually arrive sorted by origin, leaving only the local
/// disorder of overlapping trains, which an insertion pass fixes with a
/// move or two per pass. Once the moves outnumber the items (passes out
/// of order, routes concatenated on a network edge, a double-track
/// day's second direction), the stable `sort_by` takes over, so no
/// input costs more than O(n log n).
fn sort_nearly_sorted<T>(items: &mut [T], precedes: impl Fn(&T, &T) -> bool) {
    let mut budget = items.len();
    for i in 1..items.len() {
        let mut j = i;
        while j > 0 && precedes(&items[j], &items[j - 1]) {
            if budget == 0 {
                items.sort_by(|a, b| {
                    if precedes(a, b) {
                        Ordering::Less
                    } else if precedes(b, a) {
                        Ordering::Greater
                    } else {
                        Ordering::Equal
                    }
                });
                return;
            }
            budget -= 1;
            items.swap(j - 1, j);
            j -= 1;
        }
    }
}

/// One node's day: its staged barrier/enter/exit events sorted into
/// firing order, merged at pop time with the one wake or drain timer
/// the state machine may have pending.
///
/// Nodes never touch each other's state, so each one runs on its own:
/// the firing order within a node is what one global (time, kind
/// priority, node, push order) queue would produce for that node.
/// Staged events have ranks 0/2/3 and timers 1/4, so the two never tie,
/// and staged events are sorted stably, so their ties keep push order.
///
/// At most one timer is live at a time: a wake is only scheduled from
/// asleep and only its own completion leaves waking, so a wake
/// completion is never stale; a drain is only scheduled on entering
/// drain, and leaving drain either fires it or cancels it
/// ([`NodeDay::cancel`]).
#[derive(Default)]
struct NodeDay {
    /// Staged events, sorted; `cursor` is the next one to fire.
    run: Vec<Event>,
    cursor: usize,
    /// The pending wake or drain timer.
    timer: Option<Event>,
    /// Drains cancelled so far. A queue that cannot remove an event pops
    /// each of them at its expiry and ignores it; the event count keeps
    /// counting those no-op pops.
    stale: usize,
}

impl NodeDay {
    fn clear(&mut self) {
        self.run.clear();
        self.cursor = 0;
        self.timer = None;
        self.stale = 0;
    }

    /// Sorts the staged events into firing order, stably.
    fn seal(&mut self) {
        sort_nearly_sorted(&mut self.run, Event::precedes);
    }

    /// Schedules a wake or drain timer into the empty slot.
    fn schedule(&mut self, time: Seconds, kind: EventKind) {
        debug_assert!(self.timer.is_none(), "one timer per node at a time");
        self.timer = Some(Event { time, kind });
    }

    /// Cancels the pending drain.
    fn cancel(&mut self) {
        debug_assert!(matches!(self.timer, Some(t) if t.kind == EventKind::DrainExpire));
        self.timer = None;
        self.stale += 1;
    }

    /// Removes and returns the next event to fire, if any.
    fn pop(&mut self) -> Option<Event> {
        match (self.run.get(self.cursor), self.timer) {
            (Some(s), Some(t)) if t.precedes(s) => self.timer.take(),
            (Some(&s), _) => {
                self.cursor += 1;
                Some(s)
            }
            (None, _) => self.timer.take(),
        }
    }
}

/// Per-node runtime state of the event loop.
struct NodeRuntime {
    state: NodeState,
    /// Clock of the last state transition, clamped into the horizon.
    state_since: Seconds,
    /// Trains currently inside the section.
    occupancy: u32,
    /// Barrier trips whose matching exit has not fired yet.
    expected: u32,
    /// When occupancy last went from zero to positive.
    occupied_since: Seconds,
    trace: StateTrace,
}

impl NodeRuntime {
    /// A node asleep at `t = 0` with an empty trace over `horizon`.
    fn asleep(horizon: Seconds) -> Self {
        NodeRuntime {
            state: NodeState::Asleep,
            state_since: Seconds::ZERO,
            occupancy: 0,
            expected: 0,
            occupied_since: Seconds::ZERO,
            trace: StateTrace::new(horizon),
        }
    }
}

/// One section's instant-policy day, merged interval by interval into
/// powered stretches and billed as it goes.
///
/// Intervals must arrive with entries that never decrease (sorted
/// stably, as the loop's barriers are). With lead, wake delay and guard
/// all zero, the loop's wake completion at a barrier's time fires after
/// every barrier at that time and before every entry (ranks 1 and 2), so
/// no time goes uncovered; a drain scheduled at an exit time fires
/// before any later event, as nothing of a lower rank is left at that
/// time, so none is cancelled; and a barrier sorts before an exit at the
/// same time, so intervals that touch share one wake. The node is thus
/// powered over each stretch of intervals that overlap or touch, from
/// its first entry to its last exit: a stretch grows while the next
/// entry is `<=` its running maximum exit. The loop pops three staged
/// events per interval and a wake completion and a drain expiry per
/// stretch.
///
/// Each stretch `[start, end]` is billed with two clamps,
/// `on = clamp(start)` and `off = clamp(end)` into `[0, horizon]`:
/// asleep gets `on − since`, active gets `off − on`, one wake, and the
/// node sleeps from `off`. That is what the loop's four transitions
/// (asleep → waking at `start − lead`, → active at that plus
/// `wake_delay`, → drain at `end`, → asleep at `end + guard`) add, bit
/// for bit, when the policy equals [`WakePolicy::instant`], where each
/// of the three is a zero of either sign (`WakePolicy::new` accepts
/// `-0.0`):
///
/// * `end > 0` (every live interval exits after `t = 0`), so
///   `end + guard == end`, `off > 0`, and the drain segment is `+0.0`;
/// * `start − lead` and `start − lead + wake_delay` differ from `start`
///   at most in the sign of a zero, so the waking segment is a zero, and
///   `off − c == off − on` for either clamped clock `c`, because
///   `off > 0`;
/// * a zero `start` can only open the first stretch (each later one
///   starts after an earlier `end > 0`), whose asleep segment from
///   `since = +0.0` is then a zero whatever its sign.
///
/// Every accumulator starts at `+0.0` and only grows, so adding a zero
/// of either sign leaves its bits unchanged: dropping the two zero
/// segments changes nothing.
struct Stretches {
    horizon: Seconds,
    trace: StateTrace,
    /// Where the node fell asleep last: the clamped end of the last
    /// billed stretch.
    since: Seconds,
    /// The stretch being grown: its start and its running maximum end.
    open: Option<Span>,
    /// Intervals merged so far.
    spans: usize,
}

impl Stretches {
    fn new(horizon: Seconds) -> Self {
        Stretches {
            horizon,
            trace: StateTrace::new(horizon),
            since: Seconds::ZERO,
            open: None,
            spans: 0,
        }
    }

    /// Merges the next live interval.
    #[inline(always)]
    fn push(&mut self, (enter, exit): Span) {
        self.spans += 1;
        match self.open {
            Some((start, end)) if enter <= end => {
                if exit > end {
                    self.open = Some((start, exit));
                }
            }
            Some((start, end)) => {
                self.bill(start, end);
                self.open = Some((enter, exit));
            }
            None => self.open = Some((enter, exit)),
        }
    }

    /// Bills one finished stretch.
    fn bill(&mut self, start: Seconds, end: Seconds) {
        let on = start.max(Seconds::ZERO).min(self.horizon);
        let off = end.max(Seconds::ZERO).min(self.horizon);
        self.trace.add(NodeState::Asleep, on - self.since);
        self.trace.add(NodeState::Active, off - on);
        self.trace.count_wake();
        self.since = off;
    }

    /// Bills the open stretch and the sleep after it, returning the trace
    /// and the event count [`CorridorSimulator::replay`] would return.
    fn finish(mut self) -> (StateTrace, usize) {
        if let Some((start, end)) = self.open {
            self.bill(start, end);
        }
        self.trace.add(NodeState::Asleep, self.horizon - self.since);
        (self.trace, 3 * self.spans + 2 * self.trace.wakes())
    }
}

/// The distinct sections a node list watches, and each node's slot among
/// them.
///
/// A node's day depends on nothing but its section, so each distinct
/// section is simulated once, in the order the nodes first name it: a
/// node whose section matches an earlier one's bit for bit (the mast and
/// the donor repeaters all watch `[0, isd]`) reuses that day; `-0.0` and
/// `+0.0` starts do not match. [`SegmentReplicator`](crate::SegmentReplicator)
/// builds its table once, as its nodes never change;
/// [`CorridorSimulator::simulate`] and
/// [`CorridorSimulator::simulate_double_track`] build one per call.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SectionTable {
    /// Every node, with the index of its section in `sections`.
    nodes: Vec<(NodeSpec, usize)>,
    /// The distinct sections, in the order the nodes first name them.
    sections: Vec<TrackSection>,
}

impl SectionTable {
    /// The table of `nodes`.
    pub(crate) fn new(nodes: &[NodeSpec]) -> Self {
        let mut index: BTreeMap<[u64; 2], usize> = BTreeMap::new();
        let mut sections = Vec::new();
        let nodes = nodes
            .iter()
            .map(|&spec| {
                let section = spec.section();
                let key = [section.start(), section.end()].map(|m| m.value().to_bits());
                let slot = *index.entry(key).or_insert_with(|| {
                    sections.push(section);
                    sections.len() - 1
                });
                (spec, slot)
            })
            .collect();
        SectionTable { nodes, sections }
    }

    /// Reports every node from the trace and event count of its section,
    /// `days` holding one day per distinct section, in table order.
    fn report(&self, days: &[(StateTrace, usize)], passes: usize) -> SimReport {
        let mut events = 0usize;
        let reports = self
            .nodes
            .iter()
            .map(|&(spec, slot)| {
                let (trace, count) = days[slot];
                events += count;
                NodeReport::new(spec.kind(), spec.section(), trace)
            })
            .collect();
        SimReport::new(reports, events, passes)
    }
}

/// Replays a day of train passes through per-node wake state machines.
///
/// Each node watches its [`TrackSection`]; the simulator stages the
/// node's barrier trips, train entries and exits in firing order, runs
/// the asleep → waking → active → drain machine under a [`WakePolicy`]
/// over them, and integrates per-state time into a [`StateTrace`]. No
/// node's state depends on another's, so each node runs on its own, and
/// nodes watching bit-identical sections share one run.
///
/// Under [`WakePolicy::instant`] that machine can only power the node
/// over the union of its occupancy intervals, one wake per connected
/// stretch, so the simulator skips the events: it merges each node's
/// `(enter, exit)` intervals, in entry order, into stretches of those
/// that overlap or touch, and bills each stretch as asleep time up to
/// its clamped start and active time up to its clamped end, the only
/// segments of the loop's four transitions that are not zero under that
/// policy. The traces and event counts are bit-identical to the loop's.
/// Instant days are merged one section at a time. A day that runs one
/// direction and one train with origins that never fall (every Poisson
/// and timetable day, checked once per call) has every section's entries
/// in order already, so each section walks the passes itself; any other
/// day (double track, a train change, a falling origin) is staged and
/// sorted where an entry fell. Both sources feed the same merger. Any
/// other policy runs the event loop. The energy numbers then come from
/// the same duty-cycle arithmetic as the closed-form model, so with
/// [`WakePolicy::instant`] the two backends agree to float precision on
/// deterministic timetables.
///
/// # Examples
///
/// ```
/// use corridor_events::{segment_nodes, CorridorSimulator};
/// use corridor_traffic::Timetable;
/// use corridor_units::Meters;
///
/// let nodes = segment_nodes(10, Meters::new(2650.0), Meters::new(200.0));
/// let report = CorridorSimulator::new().simulate(&nodes, &Timetable::paper_default().passes());
/// assert_eq!(report.nodes().len(), 13);
/// // the HP mast is powered 9.66 % of the day (the paper's duty factor)
/// let duty = report.nodes()[0].trace().powered().value() / 86_400.0;
/// assert!((duty - 0.0966).abs() < 0.0002);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorridorSimulator {
    policy: WakePolicy,
    horizon: Seconds,
}

impl CorridorSimulator {
    /// A simulator with instant wake transitions over a 24 h horizon.
    pub fn new() -> Self {
        CorridorSimulator {
            policy: WakePolicy::instant(),
            horizon: Hours::DAY.seconds(),
        }
    }

    /// Sets the wake policy.
    #[must_use]
    pub fn with_policy(mut self, policy: WakePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the simulation horizon (energy is integrated over exactly
    /// this window; occupancy outside it is clipped).
    ///
    /// # Panics
    ///
    /// Panics if the horizon is not strictly positive.
    #[must_use]
    // corridor-lint: allow(unused-pub, reason = "crates/events/tests/sim_differential.rs (simulator_strategy) shortens the horizon to one hour so the oracle checks the horizon clip that every simulated day runs")
    pub fn with_horizon(mut self, horizon: Seconds) -> Self {
        assert!(horizon.value() > 0.0, "horizon must be positive");
        self.horizon = horizon;
        self
    }

    /// The wake policy in effect.
    pub fn policy(&self) -> WakePolicy {
        self.policy
    }

    /// The integration horizon.
    // corridor-lint: allow(unused-pub, reason = "crates/events/tests/sim_differential.rs (Oracle::of) replays each simulator's horizon clip, which every simulated day runs, in the global-loop oracle")
    pub fn horizon(&self) -> Seconds {
        self.horizon
    }

    /// Simulates single-track traffic: every pass sweeps the corridor in
    /// the positive direction.
    pub fn simulate(&self, nodes: &[NodeSpec], passes: &[TrainPass]) -> SimReport {
        self.simulate_table(&SectionTable::new(nodes), passes)
    }

    /// [`CorridorSimulator::simulate`] over the nodes of a section table
    /// built beforehand, so a caller replaying many days through the same
    /// nodes builds it once.
    pub(crate) fn simulate_table(&self, table: &SectionTable, passes: &[TrainPass]) -> SimReport {
        self.run(table, &[(passes, None)])
    }

    /// Simulates bidirectional double-track traffic over a corridor of
    /// `corridor_length`. Up-direction passes sweep the sections as
    /// given; down-direction passes sweep the mirrored corridor (their
    /// head crosses position `corridor_length` at origin time), which is
    /// equivalent to evaluating the mirrored section `[L−end, L−start]`.
    ///
    /// # Panics
    ///
    /// Panics if a section extends beyond `[0, corridor_length]` (it
    /// could not be mirrored).
    pub fn simulate_double_track(
        &self,
        nodes: &[NodeSpec],
        up: &[TrainPass],
        down: &[TrainPass],
        corridor_length: Meters,
    ) -> SimReport {
        for spec in nodes {
            let s = spec.section();
            assert!(
                s.start().value() >= 0.0 && s.end() <= corridor_length,
                "section {s} extends beyond the corridor"
            );
        }
        self.run(
            &SectionTable::new(nodes),
            &[(up, None), (down, Some(corridor_length))],
        )
    }

    /// The core loop: each distinct section of `table` gets its day from
    /// its occupancy intervals that overlap the horizon, and
    /// [`SectionTable::report`] hands each node its section's day.
    ///
    /// Under the instant policy the intervals are merged into powered
    /// stretches, one section at a time ([`CorridorSimulator::merge`]).
    /// Under any other policy each section's intervals are staged as
    /// barrier/enter/exit events for the state machine
    /// ([`CorridorSimulator::replay`]).
    fn run(&self, table: &SectionTable, directions: &[Direction<'_>]) -> SimReport {
        let passes = directions.iter().map(|(passes, _)| passes.len()).sum();
        let days: Vec<(StateTrace, usize)> = if self.policy != WakePolicy::instant() {
            let mut day = NodeDay::default();
            table
                .sections
                .iter()
                .map(|&section| {
                    day.clear();
                    self.for_each_live(section, directions, |span| self.stage(&mut day, span));
                    day.seal();
                    self.replay(&mut day)
                })
                .collect()
        } else {
            self.merge(&table.sections, directions, passes)
        };
        table.report(&days, passes)
    }

    /// True if an occupancy interval overlaps the horizon: only those can
    /// power a node. Every comparison with NaN is false, so NaN intervals
    /// drop.
    #[inline(always)]
    fn live(&self, (enter, exit): Span) -> bool {
        exit > enter && exit > Seconds::ZERO && enter < self.horizon
    }

    /// Calls `f` with each live interval of `section`, in pass order,
    /// direction by direction.
    fn for_each_live(
        &self,
        section: TrackSection,
        directions: &[Direction<'_>],
        mut f: impl FnMut(Span),
    ) {
        for &(passes, mirror) in directions {
            let watched = match mirror {
                None => section,
                Some(length) => TrackSection::new(length - section.end(), length - section.start()),
            };
            let mut offsets = PassOffsets::new(watched);
            for pass in passes {
                let span = offsets.occupancy(pass);
                if self.live(span) {
                    f(span);
                }
            }
        }
    }

    /// The instant days of `sections`, one section at a time, each
    /// merged into its own [`Stretches`] from one of two interval
    /// sources, chosen once per call by [`in_order_day`]:
    ///
    /// * a day of one direction and one train whose origins never fall
    ///   (every Poisson and timetable day): the section divides its
    ///   offsets once ([`offsets`]) and walks the passes, feeding each live
    ///   interval straight to its merger, as the entries never fall;
    /// * any other day (two directions, a train change or a falling
    ///   origin): the section's live intervals are staged, sorted stably by
    ///   entry when one fell ([`sort_nearly_sorted`]), and fed from the
    ///   buffer.
    ///
    /// Either way each section sees the same intervals in the same order.
    /// Section by section, the merge state stays in locals for the whole
    /// walk over the passes, where one walk updating every section on each
    /// pass loads and stores it per pass. The order is checked once per
    /// day, on the origins: checking it per interval inside the walk cost
    /// about half of what skipping the sort saves (see
    /// `docs/performance.md`). Out of line, as `replay` is: inlined into
    /// `run`, the instant routes made paper-policy days 2–4 % slower.
    #[inline(never)]
    fn merge(
        &self,
        sections: &[TrackSection],
        directions: &[Direction<'_>],
        passes: usize,
    ) -> Vec<(StateTrace, usize)> {
        let in_order = in_order_day(directions);
        let mut spans: Vec<Span> = Vec::new();
        sections
            .iter()
            .map(|&section| {
                let mut day = Stretches::new(self.horizon);
                if let Some(passes) = in_order {
                    if let Some(first) = passes.first() {
                        let (head, tail) = offsets(section, first.train());
                        for pass in passes {
                            let origin = pass.origin_time();
                            let span = (origin + head, origin + tail);
                            if self.live(span) {
                                day.push(span);
                            }
                        }
                    }
                } else {
                    spans.clear();
                    spans.reserve(passes);
                    let mut sorted = true;
                    let mut last = Seconds::new(f64::NEG_INFINITY);
                    self.for_each_live(section, directions, |span| {
                        sorted &= span.0 >= last;
                        last = span.0;
                        spans.push(span);
                    });
                    if !sorted {
                        sort_nearly_sorted(&mut spans, |a, b| a.0 < b.0);
                    }
                    for &span in &spans {
                        day.push(span);
                    }
                }
                day.finish()
            })
            .collect()
    }

    /// Runs one node's sealed day through the state machine, returning
    /// its trace and event count.
    ///
    /// Out of line: inlined into `run`, whose staging loop it shares with
    /// the staged instant route, it made paper-policy days about 6 %
    /// slower.
    #[inline(never)]
    fn replay(&self, day: &mut NodeDay) -> (StateTrace, usize) {
        let mut rt = NodeRuntime::asleep(self.horizon);
        let mut events = 0usize;
        while let Some(event) = day.pop() {
            events += 1;
            self.handle(&mut rt, event, day);
        }
        (self.close(rt), events + day.stale)
    }

    /// Closes the node's final state segment at the horizon.
    fn close(&self, mut rt: NodeRuntime) -> StateTrace {
        let remaining = self.horizon - rt.state_since;
        rt.trace.add(rt.state, remaining);
        rt.trace
    }

    /// Stages the barrier trip, entry and exit of one occupancy interval
    /// into `day`.
    fn stage(&self, day: &mut NodeDay, (enter, exit): Span) {
        day.run.extend([
            Event {
                time: enter - self.policy.lead(),
                kind: EventKind::BarrierTrip,
            },
            Event {
                time: enter,
                kind: EventKind::TrainEnter,
            },
            Event {
                time: exit,
                kind: EventKind::TrainExit,
            },
        ]);
    }

    /// Transitions `rt` to `next` at clock `t`, billing the elapsed
    /// segment to the outgoing state.
    fn transition(&self, rt: &mut NodeRuntime, t: Seconds, next: NodeState) {
        let clock = t.max(Seconds::ZERO).min(self.horizon);
        rt.trace.add(rt.state, clock - rt.state_since);
        if rt.state == NodeState::Asleep && next == NodeState::Waking {
            rt.trace.count_wake();
        }
        rt.state = next;
        rt.state_since = clock;
    }

    /// Handles one event at one node. Inlined into the per-node loop:
    /// measured about 1.5× faster on Poisson days than a call per event.
    #[inline(always)]
    fn handle(&self, rt: &mut NodeRuntime, event: Event, day: &mut NodeDay) {
        let t = event.time;
        match event.kind {
            EventKind::BarrierTrip => {
                rt.expected += 1;
                match rt.state {
                    NodeState::Asleep => {
                        self.transition(rt, t, NodeState::Waking);
                        day.schedule(t + self.policy.wake_delay(), EventKind::WakeComplete);
                    }
                    NodeState::Drain => {
                        // a new train is approaching: cancel the drain
                        day.cancel();
                        self.transition(rt, t, NodeState::Active);
                    }
                    NodeState::Waking | NodeState::Active => {}
                }
            }
            EventKind::WakeComplete => {
                debug_assert_eq!(rt.state, NodeState::Waking);
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
                    self.transition(rt, t, NodeState::Drain);
                    day.schedule(t + self.policy.guard(), EventKind::DrainExpire);
                }
            }
            EventKind::TrainEnter => {
                if rt.occupancy == 0 {
                    rt.occupied_since = t.max(Seconds::ZERO).min(self.horizon);
                }
                rt.occupancy += 1;
                match rt.state {
                    NodeState::Drain => {
                        day.cancel();
                        self.transition(rt, t, NodeState::Active);
                    }
                    NodeState::Asleep => {
                        // defensive: a barrier always trips first (lead ≥ 0),
                        // but an unsensed train must still wake the node
                        self.transition(rt, t, NodeState::Waking);
                        day.schedule(t + self.policy.wake_delay(), EventKind::WakeComplete);
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
                            self.transition(rt, t, NodeState::Drain);
                            day.schedule(t + self.policy.guard(), EventKind::DrainExpire);
                        }
                        // a tripped train is still approaching: stay powered
                        _ => {}
                    }
                }
            }
            EventKind::DrainExpire => {
                debug_assert_eq!(rt.state, NodeState::Drain);
                self.transition(rt, t, NodeState::Asleep);
            }
        }
    }
}

impl Default for CorridorSimulator {
    /// Returns [`CorridorSimulator::new`].
    fn default() -> Self {
        CorridorSimulator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{segment_nodes, NodeKind};
    use corridor_traffic::{ActivityTimeline, PoissonTimetable, Timetable, Train};
    use corridor_units::KilometersPerHour;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn paper_passes() -> Vec<TrainPass> {
        Timetable::paper_default().passes()
    }

    #[test]
    fn instant_policy_reproduces_activity_timeline() {
        let nodes = segment_nodes(10, Meters::new(2650.0), Meters::new(200.0));
        let report = CorridorSimulator::new().simulate(&nodes, &paper_passes());
        for node in report.nodes() {
            let analytic = ActivityTimeline::for_section(&node.section(), &paper_passes())
                .total_active()
                .value();
            let simulated = node.trace().powered().value();
            assert!(
                (simulated - analytic).abs() < 1e-6,
                "{}: {simulated} vs {analytic}",
                node.kind()
            );
            assert_eq!(node.trace().wakes(), 152);
            assert_eq!(node.trace().uncovered(), Seconds::ZERO);
        }
    }

    #[test]
    fn lead_and_guard_extend_powered_time() {
        let nodes = segment_nodes(1, Meters::new(1250.0), Meters::new(200.0));
        let instant = CorridorSimulator::new().simulate(&nodes, &paper_passes());
        let padded = CorridorSimulator::new()
            .with_policy(WakePolicy::new(
                Seconds::new(2.0),
                Seconds::ZERO,
                Seconds::new(3.0),
            ))
            .simulate(&nodes, &paper_passes());
        // 152 passes × (2 s lead + 3 s guard) of extra powered time
        let extra = padded.nodes()[1].trace().powered().value()
            - instant.nodes()[1].trace().powered().value();
        assert!((extra - 152.0 * 5.0).abs() < 1e-6, "extra {extra}");
        assert_eq!(padded.nodes()[1].trace().uncovered(), Seconds::ZERO);
    }

    #[test]
    fn wake_delay_without_lead_leaves_uncovered_time() {
        let nodes = segment_nodes(1, Meters::new(1250.0), Meters::new(200.0));
        let report = CorridorSimulator::new()
            .with_policy(WakePolicy::new(
                Seconds::ZERO,
                Seconds::new(0.3),
                Seconds::ZERO,
            ))
            .simulate(&nodes, &paper_passes());
        let service = &report.nodes()[1];
        // 152 passes × 0.3 s of waking while the train is in the section
        assert!((service.trace().uncovered().value() - 152.0 * 0.3).abs() < 1e-6);
        assert!((service.trace().waking().value() - 152.0 * 0.3).abs() < 1e-6);
    }

    #[test]
    fn overlapping_occupancy_merges_like_the_timeline() {
        // two trains 5 s apart in a section each occupies for ~16.2 s:
        // the node must stay powered across the overlap, not double-bill
        let train = Train::paper_default();
        let passes = vec![
            TrainPass::new(train, Seconds::new(1000.0)),
            TrainPass::new(train, Seconds::new(1005.0)),
        ];
        let nodes = vec![NodeSpec::new(
            NodeKind::HighPowerMast,
            TrackSection::new(Meters::ZERO, Meters::new(500.0)),
        )];
        let report = CorridorSimulator::new().simulate(&nodes, &passes);
        let analytic = ActivityTimeline::for_section(&nodes[0].section(), &passes)
            .total_active()
            .value();
        assert!((report.nodes()[0].trace().powered().value() - analytic).abs() < 1e-9);
        // one merged powered episode, not two
        assert_eq!(report.nodes()[0].trace().wakes(), 1);
    }

    #[test]
    fn occupancy_clipped_to_horizon() {
        let train = Train::paper_default();
        // the pass exits the section after the day ends
        let passes = vec![TrainPass::new(train, Seconds::new(86_395.0))];
        let nodes = vec![NodeSpec::new(
            NodeKind::HighPowerMast,
            TrackSection::new(Meters::ZERO, Meters::new(500.0)),
        )];
        let report = CorridorSimulator::new().simulate(&nodes, &passes);
        let powered = report.nodes()[0].trace().powered().value();
        assert!((powered - 5.0).abs() < 1e-9, "powered {powered}");
        // and one entirely past the horizon contributes nothing
        let late = vec![TrainPass::new(train, Seconds::new(90_000.0))];
        let report = CorridorSimulator::new().simulate(&nodes, &late);
        assert_eq!(report.nodes()[0].trace().powered(), Seconds::ZERO);
        assert_eq!(report.nodes()[0].trace().wakes(), 0);
    }

    #[test]
    fn double_track_doubles_the_load() {
        let nodes = segment_nodes(2, Meters::new(1900.0), Meters::new(200.0));
        let up = paper_passes();
        // offset the down direction by half a headway so no occupancy
        // coincides (same-slot opposing trains would merge, not add)
        let base = Timetable::paper_default();
        let down = Timetable::new(
            base.trains_per_hour(),
            base.service_window(),
            base.service_start() + Seconds::new(225.0),
            base.train(),
        )
        .passes();
        let single = CorridorSimulator::new().simulate(&nodes, &up);
        let double =
            CorridorSimulator::new().simulate_double_track(&nodes, &up, &down, Meters::new(1900.0));
        for (s, d) in single.nodes().iter().zip(double.nodes()) {
            // twice the traffic, twice the powered time (no overlaps)
            let ratio = d.trace().powered().value() / s.trace().powered().value();
            assert!((ratio - 2.0).abs() < 1e-6, "{}: ratio {ratio}", s.kind());
        }
        assert_eq!(double.passes(), 304);
    }

    #[test]
    fn mirrored_sections_shift_entry_times_only() {
        // a single down-direction train: the node near the far end sees
        // it first
        let train = Train::paper_default();
        let down = vec![TrainPass::new(train, Seconds::new(1000.0))];
        let near = NodeSpec::new(
            NodeKind::ServiceRepeater,
            TrackSection::new(Meters::new(100.0), Meters::new(300.0)),
        );
        let far = NodeSpec::new(
            NodeKind::ServiceRepeater,
            TrackSection::new(Meters::new(1700.0), Meters::new(1900.0)),
        );
        let report = CorridorSimulator::new().simulate_double_track(
            &[near, far],
            &[],
            &down,
            Meters::new(2000.0),
        );
        // both nodes see the same occupancy duration
        let near_t = report.nodes()[0].trace().powered().value();
        let far_t = report.nodes()[1].trace().powered().value();
        assert!((near_t - far_t).abs() < 1e-9);
        assert!(near_t > 0.0);
    }

    #[test]
    fn event_count_is_reported() {
        let nodes = segment_nodes(10, Meters::new(2650.0), Meters::new(200.0));
        let report = CorridorSimulator::new().simulate(&nodes, &paper_passes());
        // 13 nodes × 152 passes × 3 static events, plus drains
        assert!(report.events_processed() >= 13 * 152 * 3);
        assert_eq!(report.passes(), 152);
    }

    #[test]
    fn each_distinct_section_is_staged_once() {
        // the mast and both donors share [0, isd]; a -0.0 start is
        // equal to +0.0 but not the same bits, so it is staged again, and
        // so is a section that shares only the start
        let mut nodes = segment_nodes(10, Meters::new(2650.0), Meters::new(200.0));
        let end = nodes[0].section().end();
        let twin = TrackSection::new(Meters::new(-0.0), end);
        nodes.push(NodeSpec::new(NodeKind::DonorRepeater, twin));
        let longer = TrackSection::new(Meters::ZERO, end + Meters::new(1.0));
        nodes.push(NodeSpec::new(NodeKind::DonorRepeater, longer));
        let table = SectionTable::new(&nodes);
        assert_eq!(table.sections.len(), 13);
        assert_eq!(
            table.sections[0].start().value().to_bits(),
            0.0f64.to_bits()
        );
        assert_eq!(
            table.sections[11].start().value().to_bits(),
            (-0.0f64).to_bits()
        );
        // every node keeps its order and finds its own section in its slot
        assert_eq!(table.nodes.len(), 15);
        for (&(spec, slot), node) in table.nodes.iter().zip(&nodes) {
            assert_eq!(spec, *node);
            let (staged, watched) = (table.sections[slot], node.section());
            assert_eq!(
                staged.start().value().to_bits(),
                watched.start().value().to_bits()
            );
            assert_eq!(
                staged.end().value().to_bits(),
                watched.end().value().to_bits()
            );
        }
        // the report hands each node its section's day, in node order
        let days: Vec<(StateTrace, usize)> = (0..13)
            .map(|slot| {
                let mut trace = StateTrace::new(Hours::DAY.seconds());
                trace.add(NodeState::Asleep, Seconds::new(slot as f64));
                (trace, slot)
            })
            .collect();
        let report = table.report(&days, 0);
        assert_eq!(report.nodes().len(), 15);
        let slots: Vec<f64> = report
            .nodes()
            .iter()
            .map(|node| node.trace().asleep().value())
            .collect();
        let expected = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0, 0, 11, 12];
        assert_eq!(slots, expected.map(f64::from));
        assert_eq!(
            report.events_processed(),
            expected.iter().sum::<u32>() as usize
        );
        for (reported, node) in report.nodes().iter().zip(&nodes) {
            assert_eq!(reported.kind(), node.kind());
        }
    }

    /// Passes of the paper train at each origin, in the order given.
    fn paper_train_at(origins: &[f64]) -> Vec<TrainPass> {
        origins
            .iter()
            .map(|&t| TrainPass::new(Train::paper_default(), Seconds::new(t)))
            .collect()
    }

    #[test]
    fn one_train_in_origin_order_takes_the_single_walk() {
        let taken = |passes: &[TrainPass]| in_order_day(&[(passes, None)]).is_some();
        let poisson = PoissonTimetable::paper_rate().sample_passes(&mut StdRng::seed_from_u64(7));
        assert!(taken(&poisson));
        assert!(taken(&paper_passes()));
        assert!(taken(&[]));
        assert!(taken(&paper_train_at(&[10.0, 10.0, 10.0, 20.0])));
        assert!(taken(&paper_train_at(&[0.0, -0.0, 0.0, -0.0, 5.0])));
        assert!(taken(&paper_train_at(&[
            f64::NEG_INFINITY,
            0.0,
            f64::INFINITY
        ])));

        // a train change mid-day, by speed or by length alone
        let mut changed = paper_train_at(&[0.0, 10.0, 20.0]);
        changed[1] = TrainPass::new(
            Train::new(
                Meters::new(50.0),
                KilometersPerHour::new(72.0).meters_per_second(),
            ),
            Seconds::new(10.0),
        );
        assert!(!taken(&changed));
        let paper = Train::paper_default();
        changed[1] = TrainPass::new(
            Train::new(paper.length() + Meters::new(1.0), paper.speed()),
            Seconds::new(10.0),
        );
        assert!(!taken(&changed));
        // one falling origin, and NaN, which fails `origin >= last`
        assert!(!taken(&paper_train_at(&[0.0, 20.0, 10.0, 30.0])));
        assert!(!taken(&paper_train_at(&[0.0, f64::NAN, 10.0])));
        assert!(!taken(&paper_train_at(&[f64::NAN])));

        // double track has two directions, the second one mirrored: it
        // stays on the staged route whatever its passes
        let length = Some(Meters::new(2650.0));
        assert!(in_order_day(&[(&poisson, None), (&[], length)]).is_none());
        assert!(in_order_day(&[(&[], None), (&poisson, length)]).is_none());
        assert!(in_order_day(&[(&poisson, length)]).is_none());
    }

    #[test]
    #[should_panic(expected = "extends beyond the corridor")]
    fn unmirrorable_section_rejected() {
        let nodes = vec![NodeSpec::new(
            NodeKind::HighPowerMast,
            TrackSection::new(Meters::ZERO, Meters::new(500.0)),
        )];
        let _ =
            CorridorSimulator::new().simulate_double_track(&nodes, &[], &[], Meters::new(400.0));
    }

    #[test]
    fn builder_accessors() {
        let sim = CorridorSimulator::new()
            .with_policy(WakePolicy::paper_default())
            .with_horizon(Seconds::new(3600.0));
        assert_eq!(sim.policy(), WakePolicy::paper_default());
        assert_eq!(sim.horizon(), Seconds::new(3600.0));
        assert_eq!(CorridorSimulator::default(), CorridorSimulator::new());
    }
}
