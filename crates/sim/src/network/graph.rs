//! The rail-network graph model: corridor edges sharing stations.
//!
//! A [`CorridorNetwork`] is an undirected multigraph whose **stations**
//! (nodes) are junctions or terminals and whose **edges** are linear
//! corridor segments — each edge carries its own timetable demand and
//! an optional double-track flag that doubles the demand flowing
//! through its stations. Everything else (trains, service window,
//! repeater spacing, conventional reference ISD, equipment, Berlin
//! climate) is the default [`ScenarioGrid`]'s, so an edge's cell is
//! exactly the grid cell at the edge's demand — the invariant the
//! differential tests pin byte-for-byte.

use core::fmt;

use corridor_core::ScenarioError;

use crate::cell::ScenarioCell;
use crate::ScenarioGrid;

/// Why a network failed to build or validate.
///
/// Graph-shape problems get their own variants; per-edge scenario
/// problems surface as the wrapped [`ScenarioError`] of the offending
/// edge.
#[derive(Debug)]
pub enum NetworkError {
    /// The network has no stations at all.
    Empty,
    /// An edge referenced a station index that does not exist.
    UnknownStation(usize),
    /// An edge connected a station to itself — corridor segments join
    /// *distinct* stations.
    SelfLoop(usize),
    /// Two stations share one id (name); the payload is the index of the
    /// second occurrence. Duplicate ids would make schedule rows and
    /// demand routing ambiguous.
    DuplicateStation(usize),
    /// The graph is not connected; the payload is a station unreachable
    /// from station 0.
    Disconnected(usize),
    /// An edge's scenario parameters failed validation.
    Scenario(ScenarioError),
    /// A streaming run stopped early (sink refusal or a worker error).
    Stream(crate::stream::StreamError),
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::Empty => f.write_str("network has no stations"),
            NetworkError::UnknownStation(i) => {
                write!(f, "edge references unknown station {i}")
            }
            NetworkError::SelfLoop(i) => {
                write!(f, "edge connects station {i} to itself")
            }
            NetworkError::DuplicateStation(i) => {
                write!(f, "station {i} duplicates an earlier station id")
            }
            NetworkError::Disconnected(i) => {
                write!(f, "network is disconnected: station {i} is unreachable")
            }
            NetworkError::Scenario(e) => write!(f, "edge scenario error: {e}"),
            NetworkError::Stream(e) => write!(f, "network stream error: {e}"),
        }
    }
}

impl std::error::Error for NetworkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetworkError::Scenario(e) => Some(e),
            NetworkError::Stream(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ScenarioError> for NetworkError {
    fn from(e: ScenarioError) -> Self {
        NetworkError::Scenario(e)
    }
}

/// One corridor segment of the network: a linear stretch of track
/// between two stations, with its own timetable demand.
///
/// # Examples
///
/// ```
/// use corridor_sim::CorridorEdge;
/// let edge = CorridorEdge::between(0, 1)
///     .trains_per_hour(12.0)
///     .double_track(true);
/// assert_eq!(edge.demand_tph(), 24.0); // double track doubles demand
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CorridorEdge {
    a: usize,
    b: usize,
    trains_per_hour: f64,
    double_track: bool,
}

/// The physical length of every edge, in km.
const EDGE_LENGTH_KM: f64 = 10.0;

impl CorridorEdge {
    /// A single-track edge, 10 km long, between stations `a` and `b` at
    /// the paper's 8 trains/h.
    pub fn between(a: usize, b: usize) -> Self {
        CorridorEdge {
            a,
            b,
            trains_per_hour: 8.0,
            double_track: false,
        }
    }

    /// Sets the edge's timetable density per track (trains per service
    /// hour).
    #[must_use]
    pub fn trains_per_hour(mut self, tph: f64) -> Self {
        self.trains_per_hour = tph;
        self
    }

    /// Marks the edge as double track: two parallel tracks sharing the
    /// trackside deployment, so twice the per-track demand flows through
    /// the edge and its stations.
    #[must_use]
    pub fn double_track(mut self, double: bool) -> Self {
        self.double_track = double;
        self
    }

    /// The station at the first endpoint.
    pub fn a(&self) -> usize {
        self.a
    }

    /// The station at the second endpoint.
    pub fn b(&self) -> usize {
        self.b
    }

    /// The physical corridor length in km: 10 km for every edge.
    pub fn length_km_value(&self) -> f64 {
        EDGE_LENGTH_KM
    }

    /// The aggregate demand the edge's deployment serves: the per-track
    /// density, doubled for double track.
    pub fn demand_tph(&self) -> f64 {
        if self.double_track {
            self.trains_per_hour * 2.0
        } else {
            self.trains_per_hour
        }
    }

    /// True if `station` is one of the edge's endpoints.
    pub fn touches(&self, station: usize) -> bool {
        self.a == station || self.b == station
    }

    /// The endpoint opposite `station` (`None` if the edge does not
    /// touch it).
    pub fn other_end(&self, station: usize) -> Option<usize> {
        if station == self.a {
            Some(self.b)
        } else if station == self.b {
            Some(self.a)
        } else {
            None
        }
    }
}

/// A rail network: stations joined by [`CorridorEdge`]s.
///
/// # Examples
///
/// ```
/// use corridor_sim::{CorridorEdge, CorridorNetwork};
///
/// let mut net = CorridorNetwork::new();
/// let hub = net.add_station("hub");
/// let east = net.add_station("east");
/// net.add_edge(CorridorEdge::between(hub, east).trains_per_hour(12.0))
///     .unwrap();
/// assert_eq!(net.edge_count(), 1);
/// net.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CorridorNetwork {
    stations: Vec<String>,
    edges: Vec<CorridorEdge>,
}

impl CorridorNetwork {
    /// An empty network.
    pub fn new() -> Self {
        CorridorNetwork {
            stations: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Adds a station and returns its index.
    pub fn add_station(&mut self, name: &str) -> usize {
        self.stations.push(name.to_owned());
        self.stations.len() - 1
    }

    /// Adds an edge and returns its index.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::UnknownStation`] if either endpoint does
    /// not exist, or [`NetworkError::SelfLoop`] if both endpoints are the
    /// same station.
    pub fn add_edge(&mut self, edge: CorridorEdge) -> Result<usize, NetworkError> {
        for end in [edge.a, edge.b] {
            if end >= self.stations.len() {
                return Err(NetworkError::UnknownStation(end));
            }
        }
        if edge.a == edge.b {
            return Err(NetworkError::SelfLoop(edge.a));
        }
        self.edges.push(edge);
        Ok(self.edges.len() - 1)
    }

    /// Number of stations.
    pub fn station_count(&self) -> usize {
        self.stations.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The station name at `index`.
    pub fn station_name(&self, index: usize) -> &str {
        &self.stations[index]
    }

    /// The edge at `index`.
    pub fn edge(&self, index: usize) -> &CorridorEdge {
        &self.edges[index]
    }

    /// The edge name at `index`: `e<index>`.
    pub fn edge_name(&self, index: usize) -> String {
        format!("e{index}")
    }

    /// The edges, in insertion order.
    pub fn edges(&self) -> &[CorridorEdge] {
        &self.edges
    }

    /// Indices of the edges incident to `station`, in insertion order.
    pub fn incident_edges(&self, station: usize) -> Vec<usize> {
        (0..self.edges.len())
            .filter(|&e| self.edges[e].touches(station))
            .collect()
    }

    /// The station's degree (number of incident edges; parallel edges
    /// each count).
    pub fn degree(&self, station: usize) -> usize {
        self.incident_edges(station).len()
    }

    /// Checks the graph is non-empty, free of duplicate station ids and
    /// connected.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::Empty`] for a station-less network,
    /// [`NetworkError::DuplicateStation`] naming the second occurrence
    /// of a repeated station id, or [`NetworkError::Disconnected`]
    /// naming a station unreachable from station 0. A single isolated
    /// station is a valid (degenerate) network.
    pub fn validate(&self) -> Result<(), NetworkError> {
        if self.stations.is_empty() {
            return Err(NetworkError::Empty);
        }
        for (i, name) in self.stations.iter().enumerate() {
            if self.stations[..i].iter().any(|earlier| earlier == name) {
                return Err(NetworkError::DuplicateStation(i));
            }
        }
        // breadth-first sweep from station 0 over the undirected edges
        let mut seen = vec![false; self.stations.len()];
        let mut queue = vec![0usize];
        seen[0] = true;
        while let Some(station) = queue.pop() {
            for edge in &self.edges {
                if let Some(other) = edge.other_end(station) {
                    if !seen[other] {
                        seen[other] = true;
                        queue.push(other);
                    }
                }
            }
        }
        match seen.iter().position(|&s| !s) {
            Some(unreached) => Err(NetworkError::Disconnected(unreached)),
            None => Ok(()),
        }
    }

    /// Builds the [`ScenarioCell`] of edge `index`: the edge's aggregate
    /// demand with every other parameter at the default grid's, numbered
    /// with the edge index. A single-path network's cells are therefore
    /// *identical* to the corresponding [`ScenarioGrid`] cells — the
    /// foundation of the differential byte-equality tests.
    ///
    /// # Errors
    ///
    /// Returns the [`ScenarioError`] of an edge demand the scenario
    /// builder rejects.
    pub fn edge_cell(&self, index: usize) -> Result<ScenarioCell, ScenarioError> {
        demand_cell(index, self.edges[index].demand_tph())
    }

    /// A linear path: `demands.len()` edges in a chain of
    /// `demands.len() + 1` stations (`s0`, `s1`, …), edge `i` carrying
    /// `demands[i]` trains per hour. `line(&[4.0, 8.0, 12.0])` produces
    /// exactly the cells of the `smoke-3` grid, in order.
    pub fn line(demands: &[f64]) -> Self {
        let mut net = CorridorNetwork::new();
        for i in 0..=demands.len() {
            net.add_station(&format!("s{i}"));
        }
        for (i, &tph) in demands.iter().enumerate() {
            net.add_edge(CorridorEdge::between(i, i + 1).trains_per_hour(tph))
                // corridor-lint: allow(no-panic, reason = "stations 0..=len were added in the loop above, so both endpoints exist")
                .expect("line endpoints exist by construction");
        }
        net
    }

    /// A star junction: one `hub` station with `demands.len()` legs
    /// (`s1`, `s2`, …), leg `i` carrying `demands[i]` trains per hour.
    pub fn star(demands: &[f64]) -> Self {
        let mut net = CorridorNetwork::new();
        let hub = net.add_station("hub");
        for (i, &tph) in demands.iter().enumerate() {
            let leaf = net.add_station(&format!("s{}", i + 1));
            net.add_edge(CorridorEdge::between(hub, leaf).trains_per_hour(tph))
                // corridor-lint: allow(no-panic, reason = "hub and leaf were just added by add_station, so both endpoints exist")
                .expect("star endpoints exist by construction");
        }
        net
    }

    /// A ring of `demands.len()` stations, edge `i` joining station `i`
    /// to station `(i + 1) % n` with `demands[i]` trains per hour.
    /// Requires at least three demands (two stations cannot ring without
    /// parallel edges).
    pub fn cycle(demands: &[f64]) -> Self {
        assert!(demands.len() >= 3, "a cycle needs at least 3 edges");
        let mut net = CorridorNetwork::new();
        for i in 0..demands.len() {
            net.add_station(&format!("s{i}"));
        }
        for (i, &tph) in demands.iter().enumerate() {
            let next = (i + 1) % demands.len();
            net.add_edge(CorridorEdge::between(i, next).trains_per_hour(tph))
                // corridor-lint: allow(no-panic, reason = "stations 0..len were added in the loop above and indices are taken mod len")
                .expect("cycle endpoints exist by construction");
        }
        net
    }

    /// Resolves the topology names shared by the `network` binary and
    /// the smoke golden; `None` for an unknown name.
    ///
    /// * `line1` — one paper-default edge,
    /// * `line3` — the smoke-3 demands 4/8/12 tph in a path,
    /// * `wye3` — a three-leg junction at 4/8/12 tph with the 8 tph leg
    ///   double-tracked (the smoke topology),
    /// * `star4` — four legs at 4/6/8/12 tph,
    /// * `cycle4` — a four-station ring at 4/6/8/10 tph.
    pub fn by_name(name: &str) -> Option<CorridorNetwork> {
        match name {
            "line1" => Some(CorridorNetwork::line(&[8.0])),
            "line3" => Some(CorridorNetwork::line(&[4.0, 8.0, 12.0])),
            "wye3" => {
                let mut net = CorridorNetwork::star(&[4.0, 8.0, 12.0]);
                net.edges[1] = net.edges[1].clone().double_track(true);
                Some(net)
            }
            "star4" => Some(CorridorNetwork::star(&[4.0, 6.0, 8.0, 12.0])),
            "cycle4" => Some(CorridorNetwork::cycle(&[4.0, 6.0, 8.0, 10.0])),
            _ => None,
        }
    }
}

/// The cell numbered `index` of an edge carrying `tph` trains per hour:
/// the default grid's cell at that density. The sleep scheduler also
/// prices a boundary repeater through it, under its own demand and under
/// own-plus-absorbed demand.
pub(crate) fn demand_cell(index: usize, tph: f64) -> Result<ScenarioCell, ScenarioError> {
    let cell = ScenarioGrid::new().trains_per_hour(vec![tph]).cell_at(0)?;
    Ok(cell.numbered(index))
}

impl Default for CorridorNetwork {
    /// Returns [`CorridorNetwork::new`].
    fn default() -> Self {
        CorridorNetwork::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScenarioGrid;

    #[test]
    fn add_edge_validates_endpoints() {
        let mut net = CorridorNetwork::new();
        let a = net.add_station("a");
        assert!(matches!(
            net.add_edge(CorridorEdge::between(a, 7)),
            Err(NetworkError::UnknownStation(7))
        ));
        assert!(matches!(
            net.add_edge(CorridorEdge::between(a, a)),
            Err(NetworkError::SelfLoop(0))
        ));
        let b = net.add_station("b");
        assert_eq!(net.add_edge(CorridorEdge::between(a, b)).unwrap(), 0);
        assert_eq!(net.edge_name(0), "e0");
    }

    #[test]
    fn validate_rejects_duplicate_station_ids() {
        let mut net = CorridorNetwork::new();
        let a = net.add_station("hub");
        let b = net.add_station("east");
        net.add_edge(CorridorEdge::between(a, b)).unwrap();
        net.validate().unwrap();
        let dup = net.add_station("hub");
        net.add_edge(CorridorEdge::between(b, dup)).unwrap();
        assert!(matches!(
            net.validate(),
            Err(NetworkError::DuplicateStation(i)) if i == dup
        ));
    }

    #[test]
    fn validate_flags_empty_and_disconnected() {
        assert!(matches!(
            CorridorNetwork::new().validate(),
            Err(NetworkError::Empty)
        ));
        // single isolated station: trivially connected
        let mut single = CorridorNetwork::new();
        single.add_station("only");
        single.validate().unwrap();
        // two components
        let mut net = CorridorNetwork::new();
        let a = net.add_station("a");
        let b = net.add_station("b");
        net.add_edge(CorridorEdge::between(a, b)).unwrap();
        let c = net.add_station("island");
        assert!(matches!(net.validate(), Err(NetworkError::Disconnected(i)) if i == c));
    }

    #[test]
    fn topology_constructors_have_expected_shape() {
        let line = CorridorNetwork::line(&[4.0, 8.0, 12.0]);
        assert_eq!(line.station_count(), 4);
        assert_eq!(line.edge_count(), 3);
        line.validate().unwrap();
        assert_eq!(line.degree(0), 1);
        assert_eq!(line.degree(1), 2);

        let star = CorridorNetwork::star(&[4.0, 8.0, 12.0]);
        assert_eq!(star.station_count(), 4);
        assert_eq!(star.degree(0), 3);
        assert_eq!(star.incident_edges(0), vec![0, 1, 2]);
        star.validate().unwrap();

        let cycle = CorridorNetwork::cycle(&[4.0, 6.0, 8.0, 10.0]);
        assert_eq!(cycle.station_count(), 4);
        assert_eq!(cycle.edge_count(), 4);
        for station in 0..4 {
            assert_eq!(cycle.degree(station), 2);
        }
        cycle.validate().unwrap();
    }

    #[test]
    fn double_track_doubles_demand() {
        let edge = CorridorEdge::between(0, 1).trains_per_hour(8.0);
        assert_eq!(edge.demand_tph(), 8.0);
        assert_eq!(edge.double_track(true).demand_tph(), 16.0);
    }

    #[test]
    fn line_cells_match_grid_cells_exactly() {
        let net = CorridorNetwork::line(&[4.0, 8.0, 12.0]);
        let grid_cells = ScenarioGrid::smoke_3().expand().unwrap();
        for (i, grid_cell) in grid_cells.iter().enumerate() {
            assert_eq!(&net.edge_cell(i).unwrap(), grid_cell, "edge {i}");
        }
        // every edge of every named topology is the default grid's cell
        // at the edge's demand, wye3's doubled double-track leg included
        for name in ["line1", "line3", "wye3", "star4", "cycle4"] {
            let net = CorridorNetwork::by_name(name).unwrap();
            for (e, edge) in net.edges().iter().enumerate() {
                let demand = edge.demand_tph();
                let grid = ScenarioGrid::new().trains_per_hour(vec![demand]);
                let expected = grid.cell_at(0).unwrap().numbered(e);
                assert_eq!(net.edge_cell(e).unwrap(), expected, "{name} edge {e}");
                assert_eq!(expected.trains_per_hour(), demand, "{name} edge {e}");
            }
        }
        let wye = CorridorNetwork::by_name("wye3").unwrap();
        assert_eq!(wye.edge_cell(1).unwrap().trains_per_hour(), 16.0);
    }

    #[test]
    fn named_topologies_resolve() {
        assert_eq!(CorridorNetwork::by_name("line1").unwrap().edge_count(), 1);
        assert_eq!(CorridorNetwork::by_name("line3").unwrap().edge_count(), 3);
        let wye = CorridorNetwork::by_name("wye3").unwrap();
        assert_eq!(wye.edge_count(), 3);
        assert_eq!(wye.edge(1).demand_tph(), 16.0);
        assert_eq!(CorridorNetwork::by_name("star4").unwrap().edge_count(), 4);
        assert_eq!(CorridorNetwork::by_name("cycle4").unwrap().edge_count(), 4);
        assert!(CorridorNetwork::by_name("nope").is_none());
    }

    #[test]
    fn error_displays() {
        assert!(NetworkError::Empty.to_string().contains("no stations"));
        assert!(NetworkError::UnknownStation(3).to_string().contains("3"));
        assert!(NetworkError::SelfLoop(1).to_string().contains("itself"));
        assert!(NetworkError::Disconnected(2)
            .to_string()
            .contains("unreachable"));
        assert!(NetworkError::DuplicateStation(4)
            .to_string()
            .contains("duplicates"));
        let wrapped: NetworkError = ScenarioError::InvalidServiceWindow.into();
        assert!(wrapped.to_string().contains("service window"));
        assert!(std::error::Error::source(&wrapped).is_some());
    }

    #[test]
    fn invalid_edge_demand_propagates_through_edge_cell() {
        let net = CorridorNetwork::line(&[8.0, -1.0]);
        assert!(net.edge_cell(0).is_ok());
        assert_eq!(net.edge_cell(1).unwrap_err(), ScenarioError::EmptyTimetable);
    }
}
