//! Network-day simulation: per-edge event streams driven by shared
//! train itineraries.
//!
//! The single-corridor entry points ([`CorridorSimulator::simulate`],
//! [`SegmentReplicator`](crate::SegmentReplicator)) sample each
//! corridor's traffic independently, which cannot express the
//! correlation a junction imposes: one train crossing a station
//! occupies the adjacent edges in strict succession. A
//! [`NetworkDaySimulator`] therefore takes **itineraries** — one train,
//! many [`Leg`]s — and derives every edge's pass list from the shared
//! clock of the itineraries that traverse it, so occupancy on adjacent
//! edges is correlated *by construction* rather than independently
//! sampled.
//!
//! Each edge is represented by one segment population at its `a`-end
//! (the same [`segment_nodes`] geometry the per-corridor backend uses),
//! and each edge's day runs through the unchanged [`CorridorSimulator`]
//! and its per-node wake state machines. Reversed legs enter from the
//! `b`-end and reach the representative segment after crossing the rest
//! of the edge; they are folded in through the same mirroring as
//! [`CorridorSimulator::simulate_double_track`].
//!
//! # Examples
//!
//! ```
//! use corridor_events::{Leg, NetworkDaySimulator, TrainItinerary};
//! use corridor_traffic::Train;
//! use corridor_units::{Meters, Seconds};
//!
//! // two 10 km edges meeting at a junction; one train crosses it
//! let mut net = NetworkDaySimulator::new();
//! let west = net.add_edge(10, Meters::new(2650.0), Meters::new(200.0), Meters::new(10_000.0));
//! let east = net.add_edge(10, Meters::new(2650.0), Meters::new(200.0), Meters::new(10_000.0));
//! let run = TrainItinerary::new(
//!     Train::paper_default(),
//!     Seconds::new(3600.0),
//!     vec![Leg::reverse(west), Leg::forward(east)],
//! );
//! let reports = net.simulate(&[run.clone()]);
//! assert_eq!(reports[west].passes(), 1);
//! assert_eq!(reports[east].passes(), 1);
//! assert_eq!(TrainItinerary::crossings(&[run]), 1);
//! ```

use corridor_traffic::{TrackSection, Train, TrainPass};
use corridor_units::{Hours, Meters, Seconds};

use crate::node::{segment_nodes, NodeKind, NodeSpec};
use crate::report::SimReport;
use crate::sim::CorridorSimulator;

/// One traversal of one edge within an itinerary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Leg {
    edge: usize,
    reversed: bool,
}

impl Leg {
    /// A traversal of `edge` from its `a`-end to its `b`-end.
    pub fn forward(edge: usize) -> Self {
        Leg {
            edge,
            reversed: false,
        }
    }

    /// A traversal of `edge` from its `b`-end to its `a`-end.
    pub fn reverse(edge: usize) -> Self {
        Leg {
            edge,
            reversed: true,
        }
    }

    /// The edge this leg traverses.
    pub fn edge(&self) -> usize {
        self.edge
    }

    /// True when the leg runs `b` to `a`.
    pub fn is_reversed(&self) -> bool {
        self.reversed
    }
}

/// One train's day across the network: a departure clock and the edges
/// it traverses, in order. Leg entry times follow from the shared
/// clock — the train enters leg `i + 1` the moment it clears leg `i` —
/// which is exactly what correlates occupancy across a junction.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainItinerary {
    train: Train,
    departure: Seconds,
    legs: Vec<Leg>,
}

impl TrainItinerary {
    /// An itinerary departing (head entering the first leg) at
    /// `departure`.
    pub fn new(train: Train, departure: Seconds, legs: Vec<Leg>) -> Self {
        TrainItinerary {
            train,
            departure,
            legs,
        }
    }

    /// The train running the itinerary.
    pub fn train(&self) -> Train {
        self.train
    }

    /// Total junction crossings in a day's itineraries: every
    /// leg-to-leg transition crosses a station.
    pub fn crossings(itineraries: &[TrainItinerary]) -> usize {
        itineraries
            .iter()
            .map(|it| it.legs.len().saturating_sub(1))
            .sum()
    }
}

/// One edge's simulated geometry: the representative segment population
/// at the `a`-end plus the physical length that sets traversal times.
#[derive(Debug, Clone)]
struct EdgeGeometry {
    nodes: Vec<NodeSpec>,
    isd: Meters,
    length: Meters,
}

/// The network-day backend: per-edge segment geometries prepared once,
/// then whole days of shared itineraries replayed through the
/// per-corridor event engine edge by edge.
#[derive(Debug, Clone)]
pub struct NetworkDaySimulator {
    simulator: CorridorSimulator,
    edges: Vec<EdgeGeometry>,
}

impl NetworkDaySimulator {
    /// An empty network day at the default (instant-wake) policy.
    pub fn new() -> Self {
        NetworkDaySimulator {
            simulator: CorridorSimulator::new(),
            edges: Vec::new(),
        }
    }

    /// Adds an edge with `n` service repeaters at `isd`/`spacing` (the
    /// [`segment_nodes`] geometry) and physical `length`, returning its
    /// index. The representative segment sits at the edge's `a`-end;
    /// edges shorter than one segment are clamped to their length.
    pub fn add_edge(&mut self, n: usize, isd: Meters, spacing: Meters, length: Meters) -> usize {
        assert!(length.value() > 0.0, "edge length must be positive");
        let isd = if length < isd { length } else { isd };
        self.edges.push(EdgeGeometry {
            nodes: segment_nodes(n, isd, spacing),
            isd,
            length,
        });
        self.edges.len() - 1
    }

    /// The node population of `edge`'s representative segment.
    pub fn edge_nodes(&self, edge: usize) -> &[NodeSpec] {
        &self.edges[edge].nodes
    }

    /// The (possibly length-clamped) segment ISD of `edge`.
    pub fn edge_isd(&self, edge: usize) -> Meters {
        self.edges[edge].isd
    }

    /// Splits the itineraries into `edge`'s pass lists: `(up, down)`
    /// passes in segment-local time. A forward leg enters the
    /// representative segment the moment it enters the edge; a reversed
    /// leg first crosses the rest of the edge, so its local origin is
    /// delayed by `(length − isd) / v`.
    pub fn edge_passes(
        &self,
        edge: usize,
        itineraries: &[TrainItinerary],
    ) -> (Vec<TrainPass>, Vec<TrainPass>) {
        let geo = &self.edges[edge];
        let mut up = Vec::new();
        let mut down = Vec::new();
        for it in itineraries {
            let mut clock = it.departure;
            for leg in &it.legs {
                let length = self.edges[leg.edge].length;
                if leg.edge == edge {
                    if leg.reversed {
                        let lead = (length - geo.isd) / it.train.speed();
                        down.push(TrainPass::new(it.train, clock + lead));
                    } else {
                        up.push(TrainPass::new(it.train, clock));
                    }
                }
                clock += length / it.train.speed();
            }
        }
        (up, down)
    }

    /// Simulates one edge's day: the representative segment against the
    /// itineraries' up/down passes, through the per-corridor event
    /// engine.
    pub fn simulate_edge(&self, edge: usize, itineraries: &[TrainItinerary]) -> SimReport {
        let geo = &self.edges[edge];
        let (up, down) = self.edge_passes(edge, itineraries);
        self.simulator
            .simulate_double_track(&geo.nodes, &up, &down, geo.isd)
    }

    /// Simulates every edge's day, in edge order.
    pub fn simulate(&self, itineraries: &[TrainItinerary]) -> Vec<SimReport> {
        (0..self.edges.len())
            .map(|edge| self.simulate_edge(edge, itineraries))
            .collect()
    }

    /// Powered hours of an ad-hoc `section` of `edge`'s representative
    /// segment under the day — the time-domain price the scheduler uses
    /// to re-check absorbed demand instead of trusting static edge
    /// demand. The section runs as a single extra repeater against the
    /// same passes.
    pub fn section_powered_hours(
        &self,
        edge: usize,
        section: TrackSection,
        itineraries: &[TrainItinerary],
    ) -> Hours {
        let geo = &self.edges[edge];
        let probe = [NodeSpec::new(NodeKind::ServiceRepeater, section)];
        let (up, down) = self.edge_passes(edge, itineraries);
        let report = self
            .simulator
            .simulate_double_track(&probe, &up, &down, geo.isd);
        report.nodes()[0].trace().powered().hours()
    }
}

impl Default for NetworkDaySimulator {
    /// Returns [`NetworkDaySimulator::new`].
    fn default() -> Self {
        NetworkDaySimulator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_edge_net() -> NetworkDaySimulator {
        let mut net = NetworkDaySimulator::new();
        net.add_edge(
            10,
            Meters::new(2650.0),
            Meters::new(200.0),
            Meters::new(10_000.0),
        );
        net.add_edge(
            10,
            Meters::new(2650.0),
            Meters::new(200.0),
            Meters::new(10_000.0),
        );
        net
    }

    #[test]
    fn a_crossing_itinerary_occupies_both_edges_in_succession() {
        let net = two_edge_net();
        let train = Train::paper_default();
        let run = TrainItinerary::new(
            train,
            Seconds::new(7200.0),
            vec![Leg::forward(0), Leg::forward(1)],
        );
        let (up0, down0) = net.edge_passes(0, std::slice::from_ref(&run));
        let (up1, down1) = net.edge_passes(1, std::slice::from_ref(&run));
        assert_eq!((up0.len(), down0.len()), (1, 0));
        assert_eq!((up1.len(), down1.len()), (1, 0));
        // the second leg starts exactly when the first edge is crossed
        let traverse = Meters::new(10_000.0) / train.speed();
        assert_eq!(up1[0].origin_time(), up0[0].origin_time() + traverse);
        assert_eq!(TrainItinerary::crossings(&[run]), 1);
    }

    #[test]
    fn reversed_legs_reach_the_a_end_segment_last() {
        let net = two_edge_net();
        let train = Train::paper_default();
        let run = TrainItinerary::new(train, Seconds::new(0.0), vec![Leg::reverse(0)]);
        let (up, down) = net.edge_passes(0, &[run]);
        assert!(up.is_empty());
        assert_eq!(down.len(), 1);
        // the head crosses 10 km − isd before entering the segment
        let lead = (Meters::new(10_000.0) - Meters::new(2650.0)) / train.speed();
        assert_eq!(down[0].origin_time(), lead);
    }

    #[test]
    fn edge_days_match_the_single_corridor_engine() {
        // a one-leg itinerary per train is exactly the single-corridor
        // double-track day on the representative segment
        let net = two_edge_net();
        let train = Train::paper_default();
        let runs: Vec<TrainItinerary> = (0..20)
            .map(|i| {
                let t = Seconds::new(600.0 * f64::from(i));
                let leg = if i % 2 == 0 {
                    Leg::forward(0)
                } else {
                    Leg::reverse(0)
                };
                TrainItinerary::new(train, t, vec![leg])
            })
            .collect();
        let report = net.simulate_edge(0, &runs);
        let (up, down) = net.edge_passes(0, &runs);
        let nodes = segment_nodes(10, Meters::new(2650.0), Meters::new(200.0));
        let direct =
            CorridorSimulator::new().simulate_double_track(&nodes, &up, &down, Meters::new(2650.0));
        assert_eq!(report.passes(), direct.passes());
        assert_eq!(report.events_processed(), direct.events_processed());
        for (a, b) in report.nodes().iter().zip(direct.nodes()) {
            assert_eq!(a.trace().powered(), b.trace().powered());
        }
    }

    #[test]
    fn short_edges_clamp_the_segment() {
        let mut net = NetworkDaySimulator::new();
        let e = net.add_edge(
            2,
            Meters::new(2650.0),
            Meters::new(200.0),
            Meters::new(1_000.0),
        );
        assert_eq!(net.edge_isd(e), Meters::new(1_000.0));
        // a reversed leg on a clamped edge has zero lead
        let run = TrainItinerary::new(
            Train::paper_default(),
            Seconds::new(0.0),
            vec![Leg::reverse(e)],
        );
        let (_, down) = net.edge_passes(e, &[run]);
        assert_eq!(down[0].origin_time(), Seconds::ZERO);
    }

    #[test]
    fn section_powered_hours_prices_ad_hoc_sections() {
        let net = two_edge_net();
        let train = Train::paper_default();
        let runs: Vec<TrainItinerary> = (0..10)
            .map(|i| {
                TrainItinerary::new(
                    train,
                    Seconds::new(1800.0 * f64::from(i)),
                    vec![Leg::forward(0)],
                )
            })
            .collect();
        let narrow = net.section_powered_hours(
            0,
            TrackSection::around(Meters::new(1325.0), Meters::new(200.0)),
            &runs,
        );
        let wide = net.section_powered_hours(
            0,
            TrackSection::around(Meters::new(1325.0), Meters::new(600.0)),
            &runs,
        );
        assert!(narrow.value() > 0.0);
        assert!(wide > narrow, "wider sections stay powered longer");
    }
}
