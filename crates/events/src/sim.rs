//! The discrete-event corridor simulator.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use corridor_traffic::{TrackSection, Train, TrainPass};
use corridor_units::{Hours, Meters, Seconds};

use crate::{NodeReport, NodeSpec, NodeState, SimReport, StateTrace, WakePolicy};

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

/// The passes of a day whose intervals arrive in entry order for every
/// section: one direction swept as given, every pass of one
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

/// Sorts staged intervals stably by entry. A day's passes usually
/// arrive sorted by origin, leaving only the local disorder of
/// overlapping trains, which an insertion pass fixes with a move or two
/// per interval. Once the moves outnumber the intervals (passes out of
/// order, routes concatenated on a network edge, a double-track day's
/// second direction), the stable `sort_by` takes over, so no input costs
/// more than O(n log n). Staged intervals are live, so no entry is NaN.
fn sort_nearly_sorted(spans: &mut [Span]) {
    let mut budget = spans.len();
    for i in 1..spans.len() {
        let mut j = i;
        while j > 0 && spans[j].0 < spans[j - 1].0 {
            if budget == 0 {
                spans.sort_by(|a, b| {
                    if a.0 < b.0 {
                        Ordering::Less
                    } else if b.0 < a.0 {
                        Ordering::Greater
                    } else {
                        Ordering::Equal
                    }
                });
                return;
            }
            budget -= 1;
            spans.swap(j - 1, j);
            j -= 1;
        }
    }
}

/// One section's day, merged interval by interval and billed as it goes:
/// the node's wake state machine (asleep → waking → active → drain, see
/// [`NodeState`]) walked over the section's live intervals in entry
/// order. `PADDED` is false for [`WakePolicy::instant`] and true for
/// [`WakePolicy::paper_default`]; each instance bills the transitions
/// that policy's machine makes, with the same clamps and in the same
/// order, so the traces and event counts are those of the event loop the
/// walk replaced (kept as the oracle of `tests/sim_differential.rs`) bit
/// for bit.
///
/// Intervals must arrive with entries that never decrease (sorted
/// stably, as the loop's barriers were). Each one's barrier trips at
/// `trip = enter − lead` (`enter` itself when instant), so the trips
/// never decrease either. Both policies finish every wake no later than
/// the entry that triggered it, `(enter − lead) + wake_delay <= enter`,
/// so the node is active before any train is in its section, and no
/// train is ever uncovered. The node then stays active while the next
/// trip is `<=` the running maximum exit of the intervals so far (a
/// barrier fires before an exit at the same time), and drains at that
/// exit: within such a stretch some interval whose barrier has tripped
/// is still inside or approaching, and past its end none is.
///
/// **Padded** (`PADDED = true`): the first trip of a wake bills asleep up
/// to `clamp(trip)` and counts a wake, then waking up to `clamp(trip +
/// wake_delay)`. A stretch ending at `end` bills active up to
/// `clamp(end)` and enters drain. If the next trip is `<=` `end + guard`
/// (a barrier fires before a drain expiry at the same time), it cancels
/// the drain: drain up to `clamp(trip)`, and active again. Otherwise the
/// drain expires: drain up to `clamp(end + guard)`, and the next trip
/// wakes the node afresh. The count is what the loop popped: three
/// staged events per interval, one wake completion per wake, and one
/// expiry per drain entered, as a cancelled drain was still popped as a
/// no-op.
///
/// **Instant** (`PADDED = false`): lead, wake delay and guard are `+0.0`,
/// so each stretch is a wake, from its first entry `start` to its end,
/// and no drain is cancelled (the entry after a stretch comes after
/// `end == end + guard`). Of the loop's four transitions only two
/// segments are not zero: asleep up to `on = clamp(start)`, and active
/// from `on` up to `off = clamp(end)`:
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
/// segments changes nothing. The count is three staged events per
/// interval plus a wake completion and a drain expiry per stretch.
struct Walk<const PADDED: bool> {
    horizon: Seconds,
    policy: WakePolicy,
    trace: StateTrace,
    /// The clamped clock of the last billed transition.
    since: Seconds,
    /// The running maximum exit of the open stretch.
    end: Option<Seconds>,
    /// Intervals merged so far.
    spans: usize,
    /// Drains entered so far, fired or cancelled (padded only).
    drains: usize,
}

impl<const PADDED: bool> Walk<PADDED> {
    fn new(horizon: Seconds, policy: WakePolicy) -> Self {
        Walk {
            horizon,
            policy,
            trace: StateTrace::new(horizon),
            since: Seconds::ZERO,
            end: None,
            spans: 0,
            drains: 0,
        }
    }

    /// Merges the next live interval.
    #[inline(always)]
    fn push(&mut self, (enter, exit): Span) {
        self.spans += 1;
        let trip = if PADDED {
            enter - self.policy.lead()
        } else {
            enter
        };
        match self.end {
            Some(end) if trip <= end => {
                if exit > end {
                    self.end = Some(exit);
                }
            }
            Some(end) => {
                if !self.end_stretch(end, Some(trip)) {
                    self.wake(trip, enter);
                }
                self.end = Some(exit);
            }
            None => {
                self.wake(trip, enter);
                self.end = Some(exit);
            }
        }
    }

    /// Bills the segment of `state` up to the clamped clock `t`.
    fn bill(&mut self, state: NodeState, t: Seconds) {
        let clock = t.max(Seconds::ZERO).min(self.horizon);
        self.trace.add(state, clock - self.since);
        self.since = clock;
    }

    /// Wakes the asleep node at the barrier trip `trip` of the interval
    /// entering at `enter`.
    fn wake(&mut self, trip: Seconds, enter: Seconds) {
        self.bill(NodeState::Asleep, trip);
        self.trace.count_wake();
        if PADDED {
            let ready = trip + self.policy.wake_delay();
            debug_assert!(ready <= enter, "a wake must end by its entry");
            self.bill(NodeState::Waking, ready);
        }
    }

    /// Ends the stretch at `end`, before the next barrier trip `next` if
    /// any, returning true if that trip cancelled the drain (the node is
    /// active again) and false if the node fell asleep.
    fn end_stretch(&mut self, end: Seconds, next: Option<Seconds>) -> bool {
        self.bill(NodeState::Active, end);
        if PADDED {
            self.drains += 1;
            let expiry = end + self.policy.guard();
            match next {
                Some(trip) if trip <= expiry => {
                    self.bill(NodeState::Drain, trip);
                    return true;
                }
                _ => self.bill(NodeState::Drain, expiry),
            }
        }
        false
    }

    /// Ends the open stretch and sleeps to the horizon, returning the
    /// trace and the event count.
    fn finish(mut self) -> (StateTrace, usize) {
        if let Some(end) = self.end {
            self.end_stretch(end, None);
        }
        self.trace.add(NodeState::Asleep, self.horizon - self.since);
        let timers = if PADDED {
            self.trace.wakes() + self.drains
        } else {
            2 * self.trace.wakes()
        };
        (self.trace, 3 * self.spans + timers)
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
/// Each node watches its [`TrackSection`]; the simulator walks the
/// node's `(enter, exit)` occupancy intervals in entry order through the
/// asleep → waking → active → drain machine of its [`WakePolicy`],
/// billing per-state time into a [`StateTrace`] as it goes.
/// Under either policy the machine powers the node from the first
/// barrier trip of a run of intervals whose trips each come before the
/// running maximum exit, or within the guard after it, to that run's
/// last exit plus the guard. No node's state depends on another's, so
/// each section is walked on its own, and nodes watching bit-identical
/// sections share one walk.
///
/// A day that runs one direction and one train with origins that never
/// fall (every Poisson and timetable day, checked once per call) has
/// every section's entries in order already, so each section walks the
/// passes itself; any other day (double track, a train change, a falling
/// origin) is staged and sorted where an entry fell. Both sources feed
/// the same walk. The energy numbers then come from the same duty-cycle
/// arithmetic as the closed-form model, so with [`WakePolicy::instant`]
/// the two backends agree to float precision on deterministic
/// timetables.
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
    /// its occupancy intervals that overlap the horizon, walked in entry
    /// order ([`CorridorSimulator::merge`]) by the instance of [`Walk`]
    /// for the policy, and [`SectionTable::report`] hands each node its
    /// section's day.
    fn run(&self, table: &SectionTable, directions: &[Direction<'_>]) -> SimReport {
        let passes = directions.iter().map(|(passes, _)| passes.len()).sum();
        let days = if self.policy == WakePolicy::instant() {
            self.merge::<false>(&table.sections, directions, passes)
        } else {
            self.merge::<true>(&table.sections, directions, passes)
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

    /// The days of `sections` under the policy of the `PADDED` instance
    /// of [`Walk`], one section at a time, each walked from one of two
    /// interval sources, chosen once per call by [`in_order_day`]:
    ///
    /// * a day of one direction and one train whose origins never fall
    ///   (every Poisson and timetable day): the section divides its
    ///   offsets once ([`offsets`]) and walks the passes, feeding each live
    ///   interval straight to its walk, as the entries never fall;
    /// * any other day (two directions, a train change or a falling
    ///   origin): the section's live intervals are staged direction by
    ///   direction, in pass order, with the offsets kept per train
    ///   ([`PassOffsets`]); sorted stably by entry when one fell
    ///   ([`sort_nearly_sorted`]), and fed from the buffer.
    ///
    /// Either way each section sees the same intervals in the same order.
    /// Section by section, the walk's state stays in locals for the whole
    /// pass over the passes, where one pass updating every section on each
    /// pass loads and stores it per pass. The order is checked once per
    /// day, on the origins: checking it per interval inside the walk cost
    /// about half of what skipping the sort saves (see
    /// `docs/performance.md`). Out of line: inlined into `run`, an
    /// instant route made the other policy's days 2–4 % slower.
    #[inline(never)]
    fn merge<const PADDED: bool>(
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
                let mut day = Walk::<PADDED>::new(self.horizon, self.policy);
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
                    for &(passes, mirror) in directions {
                        let watched = match mirror {
                            None => section,
                            Some(length) => {
                                TrackSection::new(length - section.end(), length - section.start())
                            }
                        };
                        let mut offsets = PassOffsets::new(watched);
                        for pass in passes {
                            let span = offsets.occupancy(pass);
                            if self.live(span) {
                                sorted &= span.0 >= last;
                                last = span.0;
                                spans.push(span);
                            }
                        }
                    }
                    if !sorted {
                        sort_nearly_sorted(&mut spans);
                    }
                    for &span in &spans {
                        day.push(span);
                    }
                }
                day.finish()
            })
            .collect()
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
