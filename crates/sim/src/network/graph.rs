//! The rail-network graph model: corridor edges sharing stations.
//!
//! A [`CorridorNetwork`] is an undirected multigraph whose **stations**
//! (nodes) are junctions or terminals and whose **edges** are linear
//! corridor segments — each edge carries its own timetable demand,
//! train parameters, physical length and an optional double-track flag
//! that doubles the demand flowing through its stations. Network-wide
//! parameters (service window, repeater spacing, conventional reference
//! ISD, equipment profile, solar climate) are shared by every edge, so a
//! degenerate single-path network expands to exactly the cells a linear
//! [`ScenarioGrid`](crate::ScenarioGrid) sweep would produce — the
//! invariant the differential tests pin byte-for-byte.

use core::fmt;

use corridor_core::{ScenarioError, ScenarioParams};
use corridor_solar::{climate, Location};
use corridor_units::Meters;

use crate::cell::ScenarioCell;
use crate::grid::PowerProfile;

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
    /// An edge's physical length is zero, negative or not finite; the
    /// payload is the index the edge would have taken.
    InvalidEdgeLength(usize),
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
            NetworkError::InvalidEdgeLength(i) => {
                write!(f, "edge {i} has a non-positive or non-finite length")
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

impl From<crate::stream::StreamError> for NetworkError {
    fn from(e: crate::stream::StreamError) -> Self {
        NetworkError::Stream(e)
    }
}

/// One corridor segment of the network: a linear stretch of track
/// between two stations, with its own timetable demand and train
/// parameters.
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
    name: Option<String>,
    a: usize,
    b: usize,
    trains_per_hour: f64,
    train_speed_kmh: f64,
    train_length_m: f64,
    length_km: f64,
    double_track: bool,
}

impl CorridorEdge {
    /// A single-track edge between stations `a` and `b` at the paper's
    /// timetable defaults (8 trains/h, 200 km/h, 400 m trains, 10 km
    /// long).
    pub fn between(a: usize, b: usize) -> Self {
        CorridorEdge {
            name: None,
            a,
            b,
            trains_per_hour: 8.0,
            train_speed_kmh: 200.0,
            train_length_m: 400.0,
            length_km: 10.0,
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

    /// Sets the edge's train speed in km/h.
    #[must_use]
    pub fn train_speed_kmh(mut self, kmh: f64) -> Self {
        self.train_speed_kmh = kmh;
        self
    }

    /// Sets the edge's train length in metres.
    #[must_use]
    pub fn train_length_m(mut self, m: f64) -> Self {
        self.train_length_m = m;
        self
    }

    /// Sets the edge's physical corridor length in km (scales the
    /// per-km frontier energy into the network total).
    #[must_use]
    pub fn length_km(mut self, km: f64) -> Self {
        self.length_km = km;
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

    /// The per-track timetable density.
    pub fn tph(&self) -> f64 {
        self.trains_per_hour
    }

    /// The train speed in km/h.
    pub fn speed_kmh(&self) -> f64 {
        self.train_speed_kmh
    }

    /// The train length in metres.
    pub fn train_len_m(&self) -> f64 {
        self.train_length_m
    }

    /// The physical corridor length in km.
    pub fn length_km_value(&self) -> f64 {
        self.length_km
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

/// A rail network: stations joined by [`CorridorEdge`]s, plus the
/// network-wide scenario parameters every edge shares.
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
    edge_names: Vec<String>,
    service_window_h: f64,
    lp_spacing_m: f64,
    conventional_isd_m: f64,
    profile: PowerProfile,
    location: Location,
}

impl CorridorNetwork {
    /// An empty network at the paper's shared defaults (19 h window,
    /// 200 m repeater spacing, 500 m conventional ISD, the paper power
    /// profile, Berlin climate) — exactly the [`crate::ScenarioGrid`]
    /// defaults, so degenerate paths reproduce grid cells.
    pub fn new() -> Self {
        CorridorNetwork {
            stations: Vec::new(),
            edges: Vec::new(),
            edge_names: Vec::new(),
            service_window_h: 19.0,
            lp_spacing_m: 200.0,
            conventional_isd_m: 500.0,
            profile: PowerProfile::paper(),
            location: climate::berlin(),
        }
    }

    /// Sets the network-wide daily service window in hours.
    #[must_use]
    pub fn service_window_h(mut self, hours: f64) -> Self {
        self.service_window_h = hours;
        self
    }

    /// Sets the network-wide repeater spacing in metres.
    #[must_use]
    pub fn lp_spacing_m(mut self, m: f64) -> Self {
        self.lp_spacing_m = m;
        self
    }

    /// Sets the network-wide conventional reference ISD in metres.
    #[must_use]
    pub fn conventional_isd_m(mut self, m: f64) -> Self {
        self.conventional_isd_m = m;
        self
    }

    /// Sets the network-wide solar climate.
    #[must_use]
    pub fn location(mut self, location: Location) -> Self {
        self.location = location;
        self
    }

    /// The network-wide daily service window in hours.
    pub(crate) fn shared_window_h(&self) -> f64 {
        self.service_window_h
    }

    /// The network-wide repeater spacing in metres.
    pub(crate) fn shared_lp_spacing_m(&self) -> f64 {
        self.lp_spacing_m
    }

    /// The network-wide conventional reference ISD in metres.
    pub(crate) fn shared_conventional_isd_m(&self) -> f64 {
        self.conventional_isd_m
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
    /// not exist, [`NetworkError::SelfLoop`] if both endpoints are the
    /// same station, or [`NetworkError::InvalidEdgeLength`] if the
    /// edge's physical length is zero, negative or not finite.
    pub fn add_edge(&mut self, edge: CorridorEdge) -> Result<usize, NetworkError> {
        for end in [edge.a, edge.b] {
            if end >= self.stations.len() {
                return Err(NetworkError::UnknownStation(end));
            }
        }
        if edge.a == edge.b {
            return Err(NetworkError::SelfLoop(edge.a));
        }
        if !(edge.length_km.is_finite() && edge.length_km > 0.0) {
            return Err(NetworkError::InvalidEdgeLength(self.edges.len()));
        }
        let index = self.edges.len();
        let name = edge.name.clone().unwrap_or_else(|| format!("e{index}"));
        self.edges.push(edge);
        self.edge_names.push(name);
        Ok(index)
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

    /// The edge name at `index` (explicit or the generated `e<index>`).
    pub fn edge_name(&self, index: usize) -> &str {
        &self.edge_names[index]
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

    /// Builds the scenario of edge `index` at an explicit demand — the
    /// hook the sleep scheduler uses to price a boundary repeater under
    /// its own demand versus own-plus-absorbed demand.
    ///
    /// # Errors
    ///
    /// Returns the [`ScenarioError`] of the failing parameter.
    pub(crate) fn edge_params_with_tph(
        &self,
        index: usize,
        tph: f64,
    ) -> Result<ScenarioParams, ScenarioError> {
        let edge = &self.edges[index];
        ScenarioParams::builder()
            .trains_per_hour(tph)
            .service_window_h(self.service_window_h)
            .train_speed_kmh(edge.train_speed_kmh)
            .train_length_m(edge.train_length_m)
            .lp_spacing_m(self.lp_spacing_m)
            .conventional_isd_m(self.conventional_isd_m)
            .hp_mast(*self.profile.hp())
            .lp_node(*self.profile.lp())
            .build()
    }

    /// Builds the [`ScenarioCell`] of edge `index`: the edge's aggregate
    /// demand and train parameters under the network-wide shared
    /// parameters, with the cell index equal to the edge index. For a
    /// single-path network built from grid-default edges this is
    /// *identical* to the corresponding [`crate::ScenarioGrid`] cell —
    /// the foundation of the differential byte-equality tests.
    ///
    /// # Errors
    ///
    /// Returns the [`ScenarioError`] of the failing parameter.
    pub fn edge_cell(&self, index: usize) -> Result<ScenarioCell, ScenarioError> {
        let edge = &self.edges[index];
        let params = self.edge_params_with_tph(index, edge.demand_tph())?;
        Ok(ScenarioCell::new(
            index,
            params,
            self.location.clone(),
            self.profile.name().to_owned(),
            // mirror the grid's default deployment labels; the search
            // space, not the cell, decides what actually deploys
            10,
            Meters::new(2650.0),
        ))
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
    fn add_edge_rejects_degenerate_lengths() {
        let mut net = CorridorNetwork::new();
        let a = net.add_station("a");
        let b = net.add_station("b");
        for km in [0.0, -3.5, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    net.add_edge(CorridorEdge::between(a, b).length_km(km)),
                    Err(NetworkError::InvalidEdgeLength(0))
                ),
                "length {km} must be rejected"
            );
        }
        assert_eq!(net.edge_count(), 0, "rejected edges must not be kept");
        net.add_edge(CorridorEdge::between(a, b).length_km(0.5))
            .unwrap();
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
        assert!(NetworkError::InvalidEdgeLength(1)
            .to_string()
            .contains("length"));
        let wrapped: NetworkError = ScenarioError::InvalidServiceWindow.into();
        assert!(wrapped.to_string().contains("service window"));
        assert!(std::error::Error::source(&wrapped).is_some());
    }

    #[test]
    fn invalid_shared_window_propagates_through_edge_cell() {
        let net = CorridorNetwork::line(&[8.0]).service_window_h(f64::NAN);
        assert_eq!(
            net.edge_cell(0).unwrap_err(),
            ScenarioError::InvalidServiceWindow
        );
    }
}
