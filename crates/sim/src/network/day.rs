//! The stochastic network day: route decomposition, shared itineraries
//! and the Monte-Carlo time-domain engine over the graph.
//!
//! The per-edge Pareto search prices each corridor analytically at its
//! static demand. This module is the network's time-domain counterpart:
//! the edge demands are decomposed into **routes** (train paths that
//! cross junctions), each route samples Poisson departures into
//! [`TrainItinerary`]s, and every edge's day is replayed through the
//! [`NetworkDaySimulator`] — so adjacent edges see the *same* trains at
//! junction-consistent times instead of independently sampled traffic.
//!
//! The decomposition is a deterministic greedy flow split: seed at the
//! edge with the highest remaining demand, extend the path through
//! stations along the highest-demand continuation (never revisiting a
//! station), route the minimum remaining demand along the path, and
//! repeat until every edge's demand is carried. Per-edge rates sum back
//! to the edge demands by construction.

use corridor_core::sink::{RowFormat, RowSink, SinkResult};
use corridor_core::stats::Welford;
use corridor_core::{EnergyStrategy, ScenarioError, ScenarioParams};
use corridor_events::{EventDrivenEvaluator, Leg, NetworkDaySimulator, SimReport, TrainItinerary};
use corridor_traffic::{PoissonTimetable, SeedSequence};
use corridor_units::Meters;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::optimize::FrontierPoint;
use crate::report::{csv_field, json_string, push_fixed, push_plain, push_uint};
use crate::stream::{self, CellJob, StreamSummary};
use crate::ScenarioCell;

use super::graph::{CorridorNetwork, NetworkError};
use super::NetworkOptimizer;
use crate::optimize::SearchSpace;
use corridor_core::sink::RowEmitter;

/// The CSV header of the streamed network-day rows.
pub const NETWORK_DAY_CSV_HEADER: &str = "edge,edge_name,demand_tph,routes,nodes,isd_m,reps,\
mean_wh_day,ci95_wh_day,mean_passes,mean_wakes";

/// One train path through the network: the legs it traverses in order
/// and the daily rate it carries.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainRoute {
    legs: Vec<Leg>,
    rate_tph: f64,
}

impl TrainRoute {
    /// The legs, in traversal order.
    pub fn legs(&self) -> &[Leg] {
        &self.legs
    }

    /// True if any leg traverses `edge`.
    pub fn traverses(&self, edge: usize) -> bool {
        self.legs.iter().any(|l| l.edge() == edge)
    }

    /// The route run in the opposite direction: legs reversed, each
    /// flipped.
    fn reversed(&self) -> Vec<Leg> {
        self.legs
            .iter()
            .rev()
            .map(|l| {
                if l.is_reversed() {
                    Leg::forward(l.edge())
                } else {
                    Leg::reverse(l.edge())
                }
            })
            .collect()
    }
}

/// Below this the remaining demand of an edge counts as routed.
const DEMAND_TOL: f64 = 1e-9;

/// Deterministic greedy flow decomposition of the edge demands into
/// junction-crossing routes. Per-edge route rates sum to the edge
/// demand exactly (up to [`DEMAND_TOL`]).
pub(crate) fn decompose_routes(net: &CorridorNetwork) -> Vec<TrainRoute> {
    let mut remaining: Vec<f64> = net.edges().iter().map(|e| e.demand_tph()).collect();
    let mut routes = Vec::new();
    loop {
        // seed: the edge with the highest remaining demand (lowest
        // index on ties)
        let mut seed: Option<usize> = None;
        for e in 0..remaining.len() {
            if remaining[e] > DEMAND_TOL && seed.is_none_or(|s| remaining[e] > remaining[s]) {
                seed = Some(e);
            }
        }
        let Some(seed) = seed else { break };

        let mut path = std::collections::VecDeque::from([seed]);
        let mut visited = vec![false; net.station_count()];
        let (mut front, mut back) = (net.edge(seed).a(), net.edge(seed).b());
        visited[front] = true;
        visited[back] = true;
        // grow both ends along the highest-demand continuation
        for grow_back in [true, false] {
            loop {
                let station = if grow_back { back } else { front };
                let mut next: Option<usize> = None;
                for e in net.incident_edges(station) {
                    if remaining[e] <= DEMAND_TOL || path.contains(&e) {
                        continue;
                    }
                    let Some(other) = net.edge(e).other_end(station) else {
                        continue;
                    };
                    if visited[other] {
                        continue;
                    }
                    if next.is_none_or(|n| remaining[e] > remaining[n]) {
                        next = Some(e);
                    }
                }
                let Some(e) = next else { break };
                let Some(other) = net.edge(e).other_end(station) else {
                    break;
                };
                visited[other] = true;
                if grow_back {
                    path.push_back(e);
                    back = other;
                } else {
                    path.push_front(e);
                    front = other;
                }
            }
        }

        let rate = path
            .iter()
            .map(|&e| remaining[e])
            .fold(f64::INFINITY, f64::min);
        for &e in &path {
            remaining[e] -= rate;
        }
        // orient the legs walking from the front station
        let mut legs = Vec::with_capacity(path.len());
        let mut at = front;
        for &e in &path {
            let edge = net.edge(e);
            if edge.a() == at {
                legs.push(Leg::forward(e));
                at = edge.b();
            } else {
                legs.push(Leg::reverse(e));
                at = edge.a();
            }
        }
        routes.push(TrainRoute {
            legs,
            rate_tph: rate,
        });
    }
    routes
}

/// Samples one replication of the network day: Poisson departures per
/// route over the paper's service window (every edge cell's), each
/// arrival alternating the route's direction, seeded by
/// `SeedSequence(seed).derive(route, rep)` so every `(route, rep)`
/// stream is independent and reproducible.
pub(crate) fn sample_itineraries(
    routes: &[TrainRoute],
    seed: u64,
    rep: u64,
) -> Vec<TrainItinerary> {
    let seq = SeedSequence::new(seed);
    let paper = ScenarioParams::paper_default();
    let service = paper.timetable();
    let (window, start, train) = (
        service.service_window(),
        service.service_start(),
        service.train(),
    );
    let mut itineraries = Vec::new();
    for (r, route) in routes.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(seq.derive(r as u64, rep));
        let timetable = PoissonTimetable::new(route.rate_tph, window, start, train);
        for (i, pass) in timetable.sample_passes(&mut rng).iter().enumerate() {
            let legs = if i % 2 == 0 {
                route.legs.clone()
            } else {
                route.reversed()
            };
            itineraries.push(TrainItinerary::new(train, pass.origin_time(), legs));
        }
    }
    itineraries
}

/// Builds the network-day simulator over the per-edge picks: pick
/// geometry where an edge deploys, the conventional mast-only segment
/// where it does not.
pub(crate) fn build_day_simulator(
    net: &CorridorNetwork,
    picks: &[Option<FrontierPoint>],
) -> NetworkDaySimulator {
    let paper = ScenarioParams::paper_default();
    let mut sim = NetworkDaySimulator::new();
    for (e, pick) in picks.iter().enumerate() {
        let (n, isd) = match pick {
            Some(p) => (p.nodes, p.isd),
            None => (0, paper.conventional_isd()),
        };
        sim.add_edge(
            n,
            isd,
            paper.lp_spacing(),
            Meters::new(net.edge(e).length_km_value() * 1000.0),
        );
    }
    sim
}

/// The representative simulated day the margin-trading scheduler prices
/// interior sleeps against: the replication-0 itineraries and every
/// edge's simulated report.
pub(crate) struct DayContext {
    pub(crate) sim: NetworkDaySimulator,
    pub(crate) itineraries: Vec<TrainItinerary>,
    pub(crate) reports: Vec<SimReport>,
}

/// Builds the scheduler's day context at `seed` (replication 0).
pub(crate) fn build_day_context(
    net: &CorridorNetwork,
    picks: &[Option<FrontierPoint>],
    seed: u64,
) -> DayContext {
    let routes = decompose_routes(net);
    let sim = build_day_simulator(net, picks);
    let itineraries = sample_itineraries(&routes, seed, 0);
    let reports = sim.simulate(&itineraries);
    DayContext {
        sim,
        itineraries,
        reports,
    }
}

/// Per-edge Monte-Carlo statistics of the simulated network days.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeDayStats {
    /// The edge index.
    pub edge: usize,
    /// The edge's aggregate demand, trains per hour.
    pub demand_tph: f64,
    /// Number of routes traversing the edge.
    pub routes: usize,
    /// Deployed service repeaters (the pick's count).
    pub nodes: usize,
    /// Simulated segment ISD in metres.
    pub isd_m: f64,
    /// Mean daily edge energy over the replications, Wh/day.
    pub mean_wh_day: f64,
    /// Student-t 95 % confidence half-width of the daily energy, Wh.
    pub ci95_wh_day: f64,
    /// Mean simulated passes per day on the representative segment.
    pub mean_passes: f64,
    /// Mean wake transitions per day across the segment's nodes.
    pub mean_wakes: f64,
}

/// Monte-Carlo engine for stochastic network days: runs the per-edge
/// deployment search, decomposes routes, then replays `reps` seeded
/// days per edge through the time-domain backend.
///
/// # Examples
///
/// ```no_run
/// use corridor_sim::{CorridorNetwork, NetworkDayEngine, SearchSpace};
/// use corridor_units::Meters;
///
/// let net = CorridorNetwork::by_name("wye3").unwrap();
/// let space = SearchSpace::new().sample_step(Meters::new(10.0));
/// let report = NetworkDayEngine::new().reps(5).run(&net, &space).unwrap();
/// assert_eq!(report.per_edge().len(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkDayEngine {
    workers: Option<usize>,
    reps: usize,
    seed: u64,
}

impl NetworkDayEngine {
    /// An engine at 20 replications, master seed 42 and automatic
    /// worker count.
    pub fn new() -> Self {
        NetworkDayEngine {
            workers: None,
            reps: 20,
            seed: 42,
        }
    }

    /// Sets an explicit worker count (an explicit `0` is rejected at
    /// run time, mirroring the other engines).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Sets the number of replications per edge.
    #[must_use]
    pub fn reps(mut self, reps: usize) -> Self {
        self.reps = reps;
        self
    }

    /// Sets the master seed of the day sampler.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs the deployment search, then the Monte-Carlo day sweep, and
    /// assembles the typed report.
    ///
    /// # Errors
    ///
    /// Same conditions as [`NetworkOptimizer::run`], plus
    /// [`ScenarioError::ZeroReplications`] for zero replications.
    pub fn run(
        &self,
        net: &CorridorNetwork,
        space: &SearchSpace,
    ) -> Result<NetworkDayReport, NetworkError> {
        let job = self.prepare(net, space)?;
        let per_edge = stream::collect(&job, self.workers)?;
        let mut crossings = Welford::new();
        for rep in 0..self.reps {
            let itineraries = sample_itineraries(&job.routes, self.seed, rep as u64);
            crossings.push(TrainItinerary::crossings(&itineraries) as f64);
        }
        Ok(NetworkDayReport {
            network: net.clone(),
            routes: job.routes,
            per_edge,
            reps: self.reps,
            seed: self.seed,
            crossings_per_day: crossings.mean(),
        })
    }

    /// Streams the per-edge day rows into `sink` in edge order; the
    /// emitted bytes are identical whatever the worker count.
    ///
    /// # Errors
    ///
    /// Same conditions as [`NetworkDayEngine::run`], plus
    /// [`NetworkError::Stream`] if the sink refuses a row.
    pub fn stream(
        &self,
        net: &CorridorNetwork,
        space: &SearchSpace,
        format: RowFormat,
        sink: &mut dyn RowSink,
    ) -> Result<StreamSummary, NetworkError> {
        let job = self.prepare(net, space)?;
        stream::stream(&job, self.workers, format, sink, None).map_err(NetworkError::Stream)
    }

    /// Shared front half of `run`/`stream`: validation, the per-edge
    /// deployment search (for picks), route decomposition and the day
    /// simulator.
    fn prepare<'a>(
        &self,
        net: &'a CorridorNetwork,
        space: &SearchSpace,
    ) -> Result<DayJob<'a>, NetworkError> {
        if self.workers == Some(0) {
            return Err(ScenarioError::ZeroWorkers.into());
        }
        if self.reps == 0 {
            return Err(ScenarioError::ZeroReplications.into());
        }
        net.validate()?;
        let optimizer = NetworkOptimizer {
            workers: self.workers,
            ..NetworkOptimizer::new()
        };
        let picks = optimizer.run(net, space)?.picks().to_vec();
        Ok(DayJob {
            net,
            routes: decompose_routes(net),
            sim: build_day_simulator(net, &picks),
            picks,
            reps: self.reps,
            seed: self.seed,
        })
    }
}

impl Default for NetworkDayEngine {
    /// Returns [`NetworkDayEngine::new`].
    fn default() -> Self {
        NetworkDayEngine::new()
    }
}

/// The network day's per-edge work over the searched picks.
struct DayJob<'a> {
    net: &'a CorridorNetwork,
    routes: Vec<TrainRoute>,
    sim: NetworkDaySimulator,
    picks: Vec<Option<FrontierPoint>>,
    reps: usize,
    seed: u64,
}

impl CellJob for DayJob<'_> {
    /// The edge index and the edge's scenario.
    type Cell = (usize, ScenarioCell);
    type Output = EdgeDayStats;
    const HEADER: &'static str = NETWORK_DAY_CSV_HEADER;

    fn cells(&self) -> usize {
        self.net.edge_count()
    }

    fn cell(&self, e: usize) -> Result<(usize, ScenarioCell), ScenarioError> {
        Ok((e, self.net.edge_cell(e)?))
    }

    fn render(&self, stats: &EdgeDayStats, format: RowFormat) -> String {
        render_day_row(self.net, stats, self.reps, format)
    }

    /// One edge's Monte-Carlo fold: `reps` seeded days, Welford
    /// accumulation of daily energy / passes / wakes. A pure function
    /// of `(edge, seed)`, so every worker count gives the same bytes.
    fn evaluate(&self, (e, cell): (usize, ScenarioCell)) -> EdgeDayStats {
        let (net, routes, sim) = (self.net, &self.routes, &self.sim);
        let edge = net.edge(e);
        let params = cell.params();
        let n = self.picks[e].as_ref().map_or(0, |p| p.nodes);
        let isd = sim.edge_isd(e);
        let mut energy = Welford::new();
        let mut passes = Welford::new();
        let mut wakes = Welford::new();
        for rep in 0..self.reps {
            let itineraries = sample_itineraries(routes, self.seed, rep as u64);
            let report = sim.simulate_edge(e, &itineraries);
            let split = EventDrivenEvaluator::power_from_report(
                params,
                n,
                isd,
                EnergyStrategy::SleepModeRepeaters,
                &report,
            );
            energy.push(split.total().value() * 24.0 * edge.length_km_value());
            passes.push(report.passes() as f64);
            wakes.push(
                report
                    .nodes()
                    .iter()
                    .map(|node| node.trace().wakes() as f64)
                    .sum(),
            );
        }
        EdgeDayStats {
            edge: e,
            demand_tph: edge.demand_tph(),
            routes: routes.iter().filter(|r| r.traverses(e)).count(),
            nodes: n,
            isd_m: isd.value(),
            mean_wh_day: energy.mean(),
            ci95_wh_day: energy.ci95(),
            mean_passes: passes.mean(),
            mean_wakes: wakes.mean(),
        }
    }
}

/// Renders one edge's day row in the requested format.
pub(crate) fn render_day_row(
    net: &CorridorNetwork,
    s: &EdgeDayStats,
    reps: usize,
    format: RowFormat,
) -> String {
    let numbers = [
        (s.mean_wh_day, 3),
        (s.ci95_wh_day, 3),
        (s.mean_passes, 2),
        (s.mean_wakes, 2),
    ];
    match format {
        RowFormat::Csv => {
            let mut out = String::with_capacity(128);
            push_uint(&mut out, s.edge as u64);
            out.push(',');
            csv_field(&mut out, &net.edge_name(s.edge));
            out.push(',');
            push_plain(&mut out, s.demand_tph);
            out.push(',');
            push_uint(&mut out, s.routes as u64);
            out.push(',');
            push_uint(&mut out, s.nodes as u64);
            out.push(',');
            push_fixed(&mut out, s.isd_m, 0);
            out.push(',');
            push_uint(&mut out, reps as u64);
            for (v, decimals) in numbers {
                out.push(',');
                push_fixed(&mut out, v, decimals);
            }
            out.push('\n');
            out
        }
        RowFormat::Json => {
            let mut out = String::with_capacity(256);
            out.push_str("  {\"edge\": ");
            push_uint(&mut out, s.edge as u64);
            out.push_str(", \"edge_name\": ");
            json_string(&mut out, &net.edge_name(s.edge));
            out.push_str(", \"demand_tph\": ");
            push_plain(&mut out, s.demand_tph);
            out.push_str(", \"routes\": ");
            push_uint(&mut out, s.routes as u64);
            out.push_str(", \"nodes\": ");
            push_uint(&mut out, s.nodes as u64);
            out.push_str(", \"isd_m\": ");
            push_fixed(&mut out, s.isd_m, 0);
            out.push_str(", \"reps\": ");
            push_uint(&mut out, reps as u64);
            for (key, (v, decimals)) in [
                ", \"mean_wh_day\": ",
                ", \"ci95_wh_day\": ",
                ", \"mean_passes\": ",
                ", \"mean_wakes\": ",
            ]
            .into_iter()
            .zip(numbers)
            {
                out.push_str(key);
                push_fixed(&mut out, v, decimals);
            }
            out.push('}');
            out
        }
    }
}

/// The simulated network days: per-edge Monte-Carlo statistics plus the
/// route decomposition that drove them.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkDayReport {
    network: CorridorNetwork,
    routes: Vec<TrainRoute>,
    per_edge: Vec<EdgeDayStats>,
    reps: usize,
    seed: u64,
    crossings_per_day: f64,
}

impl NetworkDayReport {
    /// The network the days were simulated on.
    pub fn network(&self) -> &CorridorNetwork {
        &self.network
    }

    /// The decomposed routes, in decomposition order.
    pub fn routes(&self) -> &[TrainRoute] {
        &self.routes
    }

    /// The per-edge statistics, in edge order.
    pub fn per_edge(&self) -> &[EdgeDayStats] {
        &self.per_edge
    }

    /// Replications per edge.
    pub fn reps(&self) -> usize {
        self.reps
    }

    /// The master seed of the day sampler.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Mean junction crossings per simulated day.
    pub fn crossings_per_day(&self) -> f64 {
        self.crossings_per_day
    }

    /// Mean total network energy per day, Wh: the sum of the per-edge
    /// means.
    pub fn network_mean_wh_day(&self) -> f64 {
        self.per_edge.iter().map(|s| s.mean_wh_day).sum()
    }

    /// Streams the per-edge day rows into `sink`; byte-identical to
    /// [`NetworkDayEngine::stream`] on the same inputs.
    ///
    /// # Errors
    ///
    /// Propagates the sink's [`SinkError`](corridor_core::sink::SinkError).
    pub fn stream_into(&self, format: RowFormat, sink: &mut dyn RowSink) -> SinkResult<u64> {
        let mut rows = RowEmitter::begin(sink, format, NETWORK_DAY_CSV_HEADER)?;
        for s in &self.per_edge {
            rows.row(&render_day_row(&self.network, s, self.reps, format))?;
        }
        rows.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_space() -> SearchSpace {
        SearchSpace::new().sample_step(Meters::new(10.0))
    }

    #[test]
    fn route_rates_sum_back_to_edge_demands() {
        for name in ["line3", "wye3", "star4", "cycle4"] {
            let net = CorridorNetwork::by_name(name).unwrap();
            let routes = decompose_routes(&net);
            for e in 0..net.edge_count() {
                let routed: f64 = routes
                    .iter()
                    .filter(|r| r.traverses(e))
                    .map(|r| r.rate_tph)
                    .sum();
                assert!(
                    (routed - net.edge(e).demand_tph()).abs() < 1e-9,
                    "{name} edge {e}: routed {routed}, demand {}",
                    net.edge(e).demand_tph()
                );
            }
        }
    }

    #[test]
    fn wye_routes_cross_the_hub() {
        // demands 4/16/12: the heaviest flow pairs e1 with e2 through
        // the hub (12 tph), the rest of e1 pairs with e0 (4 tph)
        let net = CorridorNetwork::by_name("wye3").unwrap();
        let routes = decompose_routes(&net);
        assert!(
            routes.iter().any(|r| r.legs().len() >= 2),
            "the wye must produce at least one junction-crossing route"
        );
        let hub_crossings: usize = routes
            .iter()
            .map(|r| r.legs().len().saturating_sub(1))
            .sum();
        assert!(hub_crossings >= 2, "got {hub_crossings} crossings");
    }

    #[test]
    fn itinerary_sampling_is_deterministic_per_seed_and_rep() {
        let net = CorridorNetwork::by_name("wye3").unwrap();
        let routes = decompose_routes(&net);
        let a = sample_itineraries(&routes, 42, 0);
        let b = sample_itineraries(&routes, 42, 0);
        assert_eq!(a, b);
        let c = sample_itineraries(&routes, 42, 1);
        assert_ne!(a, c, "replications must draw distinct days");
        let d = sample_itineraries(&routes, 7, 0);
        assert_ne!(a, d, "seeds must draw distinct days");
    }

    #[test]
    fn engine_rejects_zero_workers_and_zero_reps() {
        let net = CorridorNetwork::line(&[8.0]);
        for (engine, expected) in [
            (
                NetworkDayEngine::new().workers(0),
                ScenarioError::ZeroWorkers,
            ),
            (
                NetworkDayEngine::new().reps(0),
                ScenarioError::ZeroReplications,
            ),
        ] {
            let err = engine.run(&net, &quick_space()).unwrap_err();
            assert!(
                matches!(err, NetworkError::Scenario(e) if e == expected),
                "{err}"
            );
        }
    }

    #[test]
    fn zero_reps_names_the_replication_count() {
        let net = CorridorNetwork::line(&[8.0]);
        let mut sink = corridor_core::sink::StringSink::default();
        let err = NetworkDayEngine::new()
            .reps(0)
            .stream(&net, &quick_space(), RowFormat::Csv, &mut sink)
            .unwrap_err();
        assert!(err.to_string().contains("replication count"), "{err}");
        assert!(
            sink.into_string().is_empty(),
            "a rejected run writes nothing"
        );
    }
}
