//! Replicated simulation of one segment geometry: build once, replay
//! many seeded days.

use corridor_core::ScenarioParams;
use corridor_traffic::TrainPass;
use corridor_units::Meters;

use crate::{segment_nodes, CorridorSimulator, EventDrivenEvaluator, SimReport, WakePolicy};

/// A segment simulation prepared for many replications: the one way to
/// simulate a segment day.
///
/// A replicator builds the node population and configures the simulator
/// once; each [`SegmentReplicator::simulate_day`] then only simulates the
/// day, so a Monte-Carlo sweep replaying hundreds of seeded days through
/// one geometry pays for the nodes once and a one-off day costs the same
/// as through a bare [`CorridorSimulator`]. Under [`WakePolicy::instant`]
/// each node's occupancy intervals are merged into powered stretches; a
/// day that runs one train with origins that never fall (every sampled
/// Poisson day) passes the simulator's once-per-day order check and is
/// merged for all nodes in one walk over its passes, and any other day
/// is staged and sorted node by node. Any other policy runs the event
/// loop.
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
    nodes: Vec<crate::NodeSpec>,
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
            nodes: segment_nodes(n, isd, spacing),
        }
    }

    /// Replays one day of `passes` through the prepared segment.
    pub fn simulate_day(&self, passes: &[TrainPass]) -> SimReport {
        self.simulator.simulate(&self.nodes, passes)
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
    use corridor_traffic::Timetable;

    #[test]
    fn replicated_day_matches_one_shot_simulation() {
        let params = ScenarioParams::paper_default();
        let isd = Meters::new(2650.0);
        let passes = Timetable::paper_default().passes();
        let evaluator = EventDrivenEvaluator::new();
        let replicator = evaluator.replicator(&params, 10, isd);
        let one_shot = CorridorSimulator::new()
            .simulate(&segment_nodes(10, isd, params.lp_spacing()), &passes);
        assert_eq!(replicator.simulate_day(&passes), one_shot);
        // and again: the prepared state is not consumed
        assert_eq!(replicator.simulate_day(&passes), one_shot);
    }
}
