//! Simulation results: per-node traces and aggregate statistics.

use corridor_traffic::TrackSection;

use crate::{NodeKind, StateTrace};

/// The simulated day of one node: its role, section, and integrated
/// state trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeReport {
    kind: NodeKind,
    section: TrackSection,
    trace: StateTrace,
}

impl NodeReport {
    /// Wraps a finished trace (used by the simulator).
    pub(crate) fn new(kind: NodeKind, section: TrackSection, trace: StateTrace) -> Self {
        NodeReport {
            kind,
            section,
            trace,
        }
    }

    /// The node's role.
    pub fn kind(&self) -> NodeKind {
        self.kind
    }

    /// The node's coverage section.
    pub fn section(&self) -> TrackSection {
        self.section
    }

    /// The integrated per-state time trace.
    pub fn trace(&self) -> &StateTrace {
        &self.trace
    }
}

/// The result of one simulated day: per-node reports in simulator node
/// order plus run statistics.
///
/// # Examples
///
/// ```
/// use corridor_events::{segment_nodes, CorridorSimulator, NodeKind};
/// use corridor_traffic::Timetable;
/// use corridor_units::Meters;
///
/// let nodes = segment_nodes(10, Meters::new(2650.0), Meters::new(200.0));
/// let report = CorridorSimulator::new().simulate(&nodes, &Timetable::paper_default().passes());
/// assert_eq!(report.nodes_of(NodeKind::ServiceRepeater).count(), 10);
/// assert!(report.events_processed() > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    nodes: Vec<NodeReport>,
    events: usize,
    passes: usize,
}

impl SimReport {
    /// Wraps finished node reports (used by the simulator).
    pub(crate) fn new(nodes: Vec<NodeReport>, events: usize, passes: usize) -> Self {
        SimReport {
            nodes,
            events,
            passes,
        }
    }

    /// The per-node reports, in the simulator's node order.
    pub fn nodes(&self) -> &[NodeReport] {
        &self.nodes
    }

    /// The nodes of one role.
    pub fn nodes_of(&self, kind: NodeKind) -> impl Iterator<Item = &NodeReport> {
        self.nodes.iter().filter(move |node| node.kind() == kind)
    }

    /// Number of events processed, summed over the nodes (the
    /// numerator of the events/s throughput metric). A drain cancelled
    /// by a new train still counts once, as the no-op expiry a queue
    /// without removal would pop, and a node whose section repeats an
    /// earlier node's counts that node's events again. Under
    /// [`WakePolicy::instant`](crate::WakePolicy::instant) no event is
    /// popped (the simulator merges occupancy intervals instead), and a
    /// node counts `3 · intervals + 2 · wakes`: its barrier trips,
    /// entries and exits plus one wake completion and one drain expiry
    /// per wake, exactly what the event loop pops on that day, so counts
    /// stay comparable across policies.
    pub fn events_processed(&self) -> usize {
        self.events
    }

    /// Number of train passes replayed.
    pub fn passes(&self) -> usize {
        self.passes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{segment_nodes, CorridorSimulator};
    use corridor_traffic::Timetable;
    use corridor_units::Meters;

    #[test]
    fn report_accessors() {
        let nodes = segment_nodes(3, Meters::new(1600.0), Meters::new(200.0));
        let report =
            CorridorSimulator::new().simulate(&nodes, &Timetable::paper_default().passes());
        assert_eq!(report.nodes().len(), 6);
        assert_eq!(report.nodes_of(NodeKind::HighPowerMast).count(), 1);
        assert_eq!(report.nodes_of(NodeKind::ServiceRepeater).count(), 3);
        assert_eq!(report.nodes_of(NodeKind::DonorRepeater).count(), 2);
        assert_eq!(report.passes(), 152);
        let hp = &report.nodes()[0];
        assert_eq!(hp.kind(), NodeKind::HighPowerMast);
        assert_eq!(hp.section().end(), Meters::new(1600.0));
        assert!(hp.trace().powered().value() > 0.0);
    }
}
