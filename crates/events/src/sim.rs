//! The discrete-event corridor simulator.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use corridor_traffic::{TrackSection, TrainPass};
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

    /// [`Event::precedes`] as an [`Ordering`], for `sort_by`.
    fn firing_order(&self, other: &Event) -> Ordering {
        if self.precedes(other) {
            Ordering::Less
        } else if other.precedes(self) {
            Ordering::Greater
        } else {
            Ordering::Equal
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

    /// Sorts the staged events into firing order, stably. Passes
    /// usually arrive sorted by origin, leaving only the local disorder
    /// of overlapping trains, which an insertion pass fixes with a move
    /// or two per pass. Once the moves outnumber the events (passes out
    /// of order, routes concatenated on a network edge, a double-track
    /// day's second direction), the stable `sort_by` takes over, so no
    /// input costs more than O(n log n).
    fn seal(&mut self) {
        let run = &mut self.run;
        let mut budget = run.len();
        for i in 1..run.len() {
            let mut j = i;
            while j > 0 && run[j].precedes(&run[j - 1]) {
                if budget == 0 {
                    run.sort_by(Event::firing_order);
                    return;
                }
                budget -= 1;
                run.swap(j - 1, j);
                j -= 1;
            }
        }
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

/// Replays a day of train passes through per-node wake state machines.
///
/// Each node watches its [`TrackSection`]; the simulator stages the
/// node's barrier trips, train entries and exits in firing order, runs
/// the asleep → waking → active → drain machine under a [`WakePolicy`]
/// over them, and integrates per-state time into a [`StateTrace`]. No
/// node's state depends on another's, so each node runs on its own, and
/// nodes watching bit-identical sections share one run. The energy
/// numbers then come from the same duty-cycle arithmetic as the
/// closed-form model, so with [`WakePolicy::instant`] the two backends
/// agree to float precision on deterministic timetables.
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
    pub fn horizon(&self) -> Seconds {
        self.horizon
    }

    /// Simulates single-track traffic: every pass sweeps the corridor in
    /// the positive direction.
    pub fn simulate(&self, nodes: &[NodeSpec], passes: &[TrainPass]) -> SimReport {
        self.run(nodes, passes.len(), |section, day| {
            self.stage(day, passes.iter().map(|pass| section.occupancy(pass)));
        })
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
        self.run(nodes, up.len() + down.len(), |s, day| {
            assert!(
                s.start().value() >= 0.0 && s.end() <= corridor_length,
                "section {s} extends beyond the corridor"
            );
            self.stage(day, up.iter().map(|pass| s.occupancy(pass)));
            let mirrored =
                TrackSection::new(corridor_length - s.end(), corridor_length - s.start());
            self.stage(day, down.iter().map(|pass| mirrored.occupancy(pass)));
        })
    }

    /// The core loop: for each distinct section in turn, `stage` fills
    /// its day with barrier/enter/exit events, then the node's state
    /// machine runs over them. A node's trace and event count depend on
    /// nothing but its section, so a node whose section matches an
    /// earlier one's bit for bit (the mast and the donor repeaters all
    /// watch `[0, isd]`) reuses them; `-0.0` and `+0.0` starts do not
    /// match.
    fn run(
        &self,
        nodes: &[NodeSpec],
        passes: usize,
        mut stage: impl FnMut(TrackSection, &mut NodeDay),
    ) -> SimReport {
        let mut day = NodeDay::default();
        let mut done: BTreeMap<[u64; 2], (StateTrace, usize)> = BTreeMap::new();
        let mut events = 0usize;
        let reports = nodes
            .iter()
            .map(|spec| {
                let section = spec.section();
                let key = [section.start(), section.end()].map(|m| m.value().to_bits());
                let (trace, count) = *done.entry(key).or_insert_with(|| {
                    day.clear();
                    stage(section, &mut day);
                    day.seal();
                    self.replay(&mut day)
                });
                events += count;
                NodeReport::new(spec.kind(), section, trace)
            })
            .collect();
        SimReport::new(reports, self.horizon, events, passes)
    }

    /// Runs one node's sealed day through the state machine, returning
    /// its trace and event count.
    fn replay(&self, day: &mut NodeDay) -> (StateTrace, usize) {
        let mut rt = NodeRuntime {
            state: NodeState::Asleep,
            state_since: Seconds::ZERO,
            occupancy: 0,
            expected: 0,
            occupied_since: Seconds::ZERO,
            trace: StateTrace::new(self.horizon),
        };
        let mut events = 0usize;
        while let Some(event) = day.pop() {
            events += 1;
            self.handle(&mut rt, event, day);
        }
        // close the node's final state segment at the horizon
        let remaining = self.horizon - rt.state_since;
        rt.trace.add(rt.state, remaining);
        (rt.trace, events + day.stale)
    }

    /// Stages a barrier trip, entry and exit per occupancy interval into
    /// `day`, in pass order.
    fn stage(&self, day: &mut NodeDay, occupancies: impl Iterator<Item = (Seconds, Seconds)>) {
        for (enter, exit) in occupancies {
            // only intervals that overlap the horizon power the node;
            // every comparison with NaN is false, so NaN intervals drop
            if exit > enter && exit > Seconds::ZERO && enter < self.horizon {
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
        }
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
    use corridor_traffic::{ActivityTimeline, Timetable, Train};

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
        assert_eq!(report.horizon(), Seconds::new(86_400.0));
    }

    #[test]
    fn each_distinct_section_is_staged_once() {
        // the mast and both donors share [0, isd]; a -0.0 start is
        // equal to +0.0 but not the same bits, so it is staged again
        let mut nodes = segment_nodes(10, Meters::new(2650.0), Meters::new(200.0));
        let twin = TrackSection::new(Meters::new(-0.0), nodes[0].section().end());
        nodes.push(NodeSpec::new(NodeKind::DonorRepeater, twin));
        let mut staged = Vec::new();
        let report = CorridorSimulator::new().run(&nodes, 0, |section, _| staged.push(section));
        assert_eq!(report.nodes().len(), 14);
        assert_eq!(staged.len(), 12);
        assert_eq!(staged[0].start().value().to_bits(), 0.0f64.to_bits());
        assert_eq!(staged[11].start().value().to_bits(), (-0.0f64).to_bits());
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
