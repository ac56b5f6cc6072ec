//! Replicated simulation of one segment geometry: build once, replay
//! many seeded days.

use corridor_core::ScenarioParams;
use corridor_traffic::TrainPass;
use corridor_units::Meters;

use crate::sim::SectionTable;
use crate::{segment_nodes, CorridorSimulator, EventDrivenEvaluator, SimReport, WakePolicy};

/// A segment simulation prepared for many replications: the one way to
/// simulate a segment day.
///
/// A replicator builds the node population, the table of its distinct
/// sections and the simulator once; each
/// [`SegmentReplicator::simulate_day`] then only simulates the day, so a
/// Monte-Carlo sweep replaying hundreds of seeded days through one
/// geometry pays for the nodes and their sections once, and its days are
/// bit for bit those of [`CorridorSimulator::simulate`] on the same
/// nodes. Under [`WakePolicy::instant`] each section's occupancy
/// intervals are merged into powered stretches, one section at a time: on
/// a day that runs one train with origins that never fall (every sampled
/// Poisson day, checked once per day) each section walks the passes
/// itself, and any other day is staged section by section and sorted
/// where an entry fell. Any other policy runs the event loop.
///
/// # Examples
///
/// ```
/// use corridor_core::ScenarioParams;
/// use corridor_events::{EventDrivenEvaluator, SegmentReplicator};
/// use corridor_traffic::{PoissonTimetable, Timetable};
/// use corridor_units::Meters;
/// use rand::SeedableRng;
///
/// let params = ScenarioParams::paper_default();
/// let replicator =
///     EventDrivenEvaluator::new().replicator(&params, 10, Meters::new(2650.0));
/// for seed in 0..3u64 {
///     let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
///     let passes = PoissonTimetable::paper_rate().sample_passes(&mut rng);
///     let report = replicator.simulate_day(&passes);
///     assert_eq!(report.nodes().len(), 13);
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentReplicator {
    simulator: CorridorSimulator,
    table: SectionTable,
}

impl SegmentReplicator {
    /// Prepares the standard segment population (`n` repeaters at `isd`
    /// with the given service-node `spacing`) for replication under
    /// `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `isd` is not strictly positive (the node builder's
    /// invariant).
    pub fn new(policy: WakePolicy, n: usize, isd: Meters, spacing: Meters) -> Self {
        SegmentReplicator {
            simulator: CorridorSimulator::new().with_policy(policy),
            table: SectionTable::new(&segment_nodes(n, isd, spacing)),
        }
    }

    /// Replays one day of `passes` through the prepared segment.
    pub fn simulate_day(&self, passes: &[TrainPass]) -> SimReport {
        self.simulator.simulate_table(&self.table, passes)
    }
}

impl EventDrivenEvaluator {
    /// Prepares a [`SegmentReplicator`] for this evaluator's wake policy:
    /// the entry point Monte-Carlo engines use to amortize node building
    /// across hundreds of seeded days of the same cell geometry.
    pub fn replicator(&self, params: &ScenarioParams, n: usize, isd: Meters) -> SegmentReplicator {
        SegmentReplicator::new(self.policy(), n, isd, params.lp_spacing())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StateTrace;
    use corridor_traffic::{PoissonTimetable, Timetable, Train};
    use corridor_units::{KilometersPerHour, Seconds};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Days of every shape the simulator routes differently: in order
    /// (Poisson, timetable, empty) and out of order (a falling origin, a
    /// train change mid-day).
    fn days() -> Vec<(&'static str, Vec<TrainPass>)> {
        let timetable = Timetable::paper_default().passes();
        let poisson = PoissonTimetable::paper_rate().sample_passes(&mut StdRng::seed_from_u64(7));
        let mut falling = timetable.clone();
        falling.swap(10, 11);
        let mut changed = poisson.clone();
        let half = changed.len() / 2;
        for pass in &mut changed[half..] {
            let train = Train::new(
                Meters::new(200.0),
                KilometersPerHour::new(144.0).meters_per_second(),
            );
            *pass = TrainPass::new(train, pass.origin_time() + Seconds::new(3.0));
        }
        vec![
            ("poisson", poisson),
            ("timetable", timetable),
            ("empty", Vec::new()),
            ("falling origin", falling),
            ("train change", changed),
        ]
    }

    #[test]
    fn replicated_day_matches_one_shot_simulation() {
        let params = ScenarioParams::paper_default();
        let isd = Meters::new(2650.0);
        let days = days();
        // `SimReport`'s `==` compares times by value, where `-0.0 == +0.0`,
        // so each node's times are compared by their bits too
        let bits = |t: &StateTrace| {
            [t.asleep(), t.waking(), t.active(), t.drain(), t.uncovered()]
                .map(|s| s.value().to_bits())
        };
        for policy in [WakePolicy::instant(), WakePolicy::paper_default()] {
            let evaluator = EventDrivenEvaluator::with_policy(policy);
            for n in [0, 1, 10] {
                let replicator = evaluator.replicator(&params, n, isd);
                let simulator = CorridorSimulator::new().with_policy(policy);
                let nodes = segment_nodes(n, isd, params.lp_spacing());
                for (name, passes) in &days {
                    let one_shot = simulator.simulate(&nodes, passes);
                    let replicated = replicator.simulate_day(passes);
                    assert_eq!(replicated, one_shot, "{policy:?}, n = {n}, {name}");
                    for (r, o) in replicated.nodes().iter().zip(one_shot.nodes()) {
                        assert_eq!(bits(r.trace()), bits(o.trace()), "n = {n}, {name}");
                    }
                    // and again: the prepared state is not consumed
                    assert_eq!(replicator.simulate_day(passes), one_shot, "{name}");
                }
            }
        }
    }
}
