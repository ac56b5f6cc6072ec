//! The corridor-network layer: graph model, per-edge Pareto search,
//! Pollakis sleep scheduling and the stochastic network day.
//!
//! A [`CorridorNetwork`] models corridors meeting at stations; the
//! [`NetworkOptimizer`] runs the deployment search over every edge (the
//! exact same `evaluate_cell` the linear optimizer uses, through the
//! same shared coverage cache) and then layers the Pollakis
//! minimum-active-set sleep schedule on top: boundary repeaters at
//! shared stations sleep whenever a co-located neighbor can absorb
//! their demand at a net energy win, and — with a
//! [`NetworkOptimizer::margin_floor_db`] below the picks' own margins —
//! interior repeaters join the candidate set, trading coverage margin
//! for energy against the simulated network day. The
//! [`NetworkDayEngine`] runs that day end to end: edge demands
//! decompose into junction-crossing train routes, Poisson itineraries
//! drive every edge's event stream through
//! [`NetworkDaySimulator`](corridor_events::NetworkDaySimulator), and
//! per-edge Monte-Carlo statistics stream out byte-identically whatever
//! the worker count. The per-edge frontier renderings are
//! byte-identical to the linear
//! [`DeploymentOptimizer`](crate::DeploymentOptimizer)'s over the same
//! cells — pinned by the differential tests.

pub(crate) mod day;
mod graph;
mod schedule;

pub use day::{
    EdgeDayStats, NetworkDayEngine, NetworkDayReport, TrainRoute, NETWORK_DAY_CSV_HEADER,
};
pub use graph::{CorridorEdge, CorridorNetwork, NetworkError};
pub use schedule::SleepDecision;

use corridor_core::margin::MarginModel;

use corridor_core::sink::{RowEmitter, RowFormat, RowSink, StringSink};
use corridor_core::ScenarioError;
use corridor_deploy::CoverageCache;

use crate::optimize::{
    render_optimize_row, FrontierPoint, OptimizeCellResult, SearchJob, SearchSpace,
    OPTIMIZE_CSV_HEADER,
};
use crate::report::{csv_field, push_fixed, push_plain, push_uint};
use crate::stream::{self, StreamSummary};
use crate::{EvalContext, ScenarioCell};

/// The CSV header of [`NetworkReport::schedule_csv`].
pub const NETWORK_SCHEDULE_CSV_HEADER: &str =
    "edge,edge_name,station,station_name,absorber_edge,absorber_name,slept_wh_day,\
absorber_delta_wh_day,net_wh_day,absorbed_demand_tph";

/// The seed of the representative network day the margin-trading
/// scheduler prices interior sleeps against.
const MARGIN_DAY_SEED: u64 = 42;

/// Runs the per-edge deployment search and the demand-aware sleep
/// schedule over a [`CorridorNetwork`] on one or more worker threads.
///
/// # Examples
///
/// ```
/// use corridor_sim::{CorridorNetwork, NetworkOptimizer, SearchSpace};
/// use corridor_units::Meters;
///
/// let net = CorridorNetwork::star(&[4.0, 8.0, 12.0]);
/// let space = SearchSpace::new().sample_step(Meters::new(10.0));
/// let report = NetworkOptimizer::new().workers(1).run(&net, &space).unwrap();
/// assert_eq!(report.len(), 3);
/// // the junction lets boundary repeaters sleep; a per-corridor
/// // optimizer cannot see across the hub
/// assert!(report.network_wh_day() <= report.corridor_wh_day());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkOptimizer {
    workers: Option<usize>,
    capacity_tph: f64,
    margin_floor_db: Option<f64>,
}

impl NetworkOptimizer {
    /// An optimizer with automatic worker count, the default 30
    /// trains/h absorption capacity per boundary repeater and no margin
    /// trading.
    pub fn new() -> Self {
        NetworkOptimizer {
            workers: None,
            capacity_tph: 30.0,
            margin_floor_db: None,
        }
    }

    /// Sets an explicit worker count (an explicit `0` is rejected at
    /// run time, mirroring the other engines).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Sets the aggregate demand (own + absorbed, trains per hour) one
    /// boundary repeater may serve.
    #[must_use]
    pub fn capacity_tph(mut self, capacity: f64) -> Self {
        self.capacity_tph = capacity;
        self
    }

    /// Enables margin trading: interior repeaters may sleep as long as
    /// every edge's coverage margin stays at or above `floor_db`.
    /// Setting the floor to an edge's current margin reproduces the
    /// boundary-only schedule byte-for-byte (no margin to spend).
    #[must_use]
    pub fn margin_floor_db(mut self, floor_db: f64) -> Self {
        self.margin_floor_db = Some(floor_db);
        self
    }

    /// Validates the network, searches every edge on the worker threads
    /// and builds the sleep schedule.
    ///
    /// # Errors
    ///
    /// Returns the graph's [`NetworkError`], or a wrapped
    /// [`ScenarioError`] for zero workers or an invalid edge scenario.
    pub fn run(
        &self,
        net: &CorridorNetwork,
        space: &SearchSpace,
    ) -> Result<NetworkReport, NetworkError> {
        net.validate()?;
        let context = EvalContext::new();
        let search = edge_search(net, space, &context);
        let results = stream::collect(&search, self.workers)?;
        self.fold(net, space, &search.coverage, results)
    }

    /// Streams the per-edge frontier rows into `sink` in edge order
    /// without materializing the report; the emitted bytes are
    /// identical to [`NetworkReport::stream_frontier_into`] whatever the
    /// worker count.
    ///
    /// # Errors
    ///
    /// Same conditions as [`NetworkOptimizer::run`], plus
    /// [`NetworkError::Stream`] if the sink refuses a row.
    pub fn stream_frontier(
        &self,
        net: &CorridorNetwork,
        space: &SearchSpace,
        format: RowFormat,
        sink: &mut dyn RowSink,
    ) -> Result<StreamSummary, NetworkError> {
        net.validate()?;
        let context = EvalContext::new();
        let search = edge_search(net, space, &context);
        stream::stream(&search, self.workers, format, sink, None).map_err(NetworkError::Stream)
    }

    /// Picks each edge's least-energy frontier point, runs the sleep
    /// schedule (with margin trading when a floor is configured) and
    /// assembles the report.
    fn fold(
        &self,
        net: &CorridorNetwork,
        space: &SearchSpace,
        coverage: &CoverageCache,
        results: Vec<OptimizeCellResult>,
    ) -> Result<NetworkReport, NetworkError> {
        let picks: Vec<Option<FrontierPoint>> = results
            .iter()
            .map(|r| {
                r.frontier()
                    .iter()
                    .min_by(|x, y| {
                        x.energy_wh_day_km
                            .total_cmp(&y.energy_wh_day_km)
                            .then(x.nodes.cmp(&y.nodes))
                    })
                    .cloned()
            })
            .collect();
        let (plan, margins) = match self.margin_floor_db {
            Some(floor_db) => {
                // the representative day the interior prices come from,
                // plus the coverage cache of the search
                let day = day::build_day_context(net, &picks, MARGIN_DAY_SEED);
                let trading = schedule::MarginTrading {
                    floor_db,
                    model: MarginModel::new(space.snr_threshold_value()),
                    coverage,
                    day: &day,
                };
                schedule::schedule_sleep(net, &picks, self.capacity_tph, Some(&trading))
            }
            None => schedule::schedule_sleep(net, &picks, self.capacity_tph, None),
        }
        .map_err(NetworkError::Scenario)?;
        Ok(NetworkReport {
            network: net.clone(),
            results,
            picks,
            plan,
            margins,
            isd_search: space.isd_search_label(),
        })
    }
}

impl Default for NetworkOptimizer {
    /// Returns [`NetworkOptimizer::new`].
    fn default() -> Self {
        NetworkOptimizer::new()
    }
}

/// The linear optimizer's deployment search over every edge of `net`.
fn edge_search<'a>(
    net: &'a CorridorNetwork,
    space: &'a SearchSpace,
    context: &'a EvalContext,
) -> SearchJob<'a, impl Fn(usize) -> Result<ScenarioCell, ScenarioError> + Sync + 'a> {
    SearchJob::new(
        net.edge_count(),
        move |edge| net.edge_cell(edge),
        space,
        context,
    )
}

/// The searched network: per-edge frontiers (in edge order), the
/// least-energy pick per edge, and the committed sleep schedule, with
/// deterministic CSV/JSON writers.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkReport {
    network: CorridorNetwork,
    results: Vec<OptimizeCellResult>,
    picks: Vec<Option<FrontierPoint>>,
    plan: Vec<SleepDecision>,
    margins: Vec<Option<f64>>,
    isd_search: &'static str,
}

impl NetworkReport {
    /// Number of searched edges.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// True if the network had no edges.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// The network the report was built from.
    pub fn network(&self) -> &CorridorNetwork {
        &self.network
    }

    /// The ISD resolution label of the search.
    pub fn isd_search(&self) -> &'static str {
        self.isd_search
    }

    /// Each edge's least-energy frontier pick (`None` for an unsolvable
    /// edge).
    pub fn picks(&self) -> &[Option<FrontierPoint>] {
        &self.picks
    }

    /// The committed sleep schedule, in greedy commit order.
    pub fn plan(&self) -> &[SleepDecision] {
        &self.plan
    }

    /// Each edge's residual coverage margin after the schedule, dB
    /// (`None` for undeployed edges). Without margin trading these are
    /// the picks' own margins, untouched.
    pub fn residual_margins(&self) -> &[Option<f64>] {
        &self.margins
    }

    /// Total daily energy of the per-corridor picks, Wh/day: each
    /// edge's per-km frontier energy scaled by its physical length.
    /// This is what independent per-corridor optimization would deploy.
    pub fn corridor_wh_day(&self) -> f64 {
        self.picks
            .iter()
            .enumerate()
            .filter_map(|(e, p)| {
                p.as_ref()
                    .map(|p| p.energy_wh_day_km * self.network.edge(e).length_km_value())
            })
            .sum()
    }

    /// Net daily saving of the sleep schedule, Wh/day.
    pub fn sleep_saving_wh_day(&self) -> f64 {
        self.plan.iter().map(|d| d.net_wh_day).sum()
    }

    /// Total daily network energy after demand-aware sleep, Wh/day.
    pub fn network_wh_day(&self) -> f64 {
        self.corridor_wh_day() - self.sleep_saving_wh_day()
    }

    /// Streams the per-edge frontier chunks into `sink` in edge order;
    /// byte-identical to the linear optimizer's rendering of the same
    /// cells and to [`NetworkOptimizer::stream_frontier`].
    ///
    /// # Errors
    ///
    /// Propagates the sink's [`SinkError`](corridor_core::sink::SinkError).
    pub fn stream_frontier_into(
        &self,
        format: RowFormat,
        sink: &mut dyn RowSink,
    ) -> corridor_core::sink::SinkResult<u64> {
        let mut rows = RowEmitter::begin(sink, format, OPTIMIZE_CSV_HEADER)?;
        for r in &self.results {
            rows.row(&render_optimize_row(r, self.isd_search, format))?;
        }
        rows.finish()
    }

    /// Renders the per-edge frontiers as CSV (the linear optimizer's
    /// format, one line per frontier point).
    pub fn frontier_csv(&self) -> String {
        StringSink::render(4096, |sink| self.stream_frontier_into(RowFormat::Csv, sink))
    }

    /// Renders the sleep schedule as CSV
    /// ([`NETWORK_SCHEDULE_CSV_HEADER`] plus one line per decision, in
    /// commit order).
    pub fn schedule_csv(&self) -> String {
        let mut out = String::with_capacity(64 + 96 * self.plan.len());
        out.push_str(NETWORK_SCHEDULE_CSV_HEADER);
        out.push('\n');
        for d in &self.plan {
            render_schedule_row(&mut out, &self.network, d);
        }
        out
    }
}

/// Writes one sleep decision as a schedule CSV line.
pub(crate) fn render_schedule_row(out: &mut String, net: &CorridorNetwork, d: &SleepDecision) {
    push_uint(out, d.edge as u64);
    out.push(',');
    csv_field(out, &net.edge_name(d.edge));
    out.push(',');
    push_uint(out, d.station as u64);
    out.push(',');
    csv_field(out, net.station_name(d.station));
    out.push(',');
    push_uint(out, d.absorber_edge as u64);
    out.push(',');
    csv_field(out, &net.edge_name(d.absorber_edge));
    for v in [d.slept_wh_day, d.absorber_delta_wh_day, d.net_wh_day] {
        out.push(',');
        push_fixed(out, v, 3);
    }
    out.push(',');
    push_plain(out, d.absorbed_demand_tph);
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;
    use corridor_units::Meters;

    fn quick_space() -> SearchSpace {
        SearchSpace::new().sample_step(Meters::new(10.0))
    }

    #[test]
    fn zero_workers_rejected() {
        let net = CorridorNetwork::line(&[8.0]);
        let err = NetworkOptimizer::new()
            .workers(0)
            .run(&net, &quick_space())
            .unwrap_err();
        assert!(matches!(
            err,
            NetworkError::Scenario(ScenarioError::ZeroWorkers)
        ));
    }

    #[test]
    fn disconnected_network_rejected_before_evaluation() {
        let mut net = CorridorNetwork::line(&[8.0]);
        net.add_station("island");
        let err = NetworkOptimizer::new()
            .workers(1)
            .run(&net, &quick_space())
            .unwrap_err();
        assert!(matches!(err, NetworkError::Disconnected(2)));
    }

    #[test]
    fn parallel_matches_serial() {
        let net = CorridorNetwork::by_name("wye3").unwrap();
        let serial = NetworkOptimizer::new()
            .workers(1)
            .run(&net, &quick_space())
            .unwrap();
        let parallel = NetworkOptimizer::new()
            .workers(4)
            .run(&net, &quick_space())
            .unwrap();
        assert_eq!(serial.results, parallel.results);
        assert_eq!(serial.frontier_csv(), parallel.frontier_csv());
        assert_eq!(serial.schedule_csv(), parallel.schedule_csv());
    }

    #[test]
    fn picks_take_the_least_energy_point() {
        let net = CorridorNetwork::line(&[8.0]);
        let report = NetworkOptimizer::new()
            .workers(1)
            .run(&net, &quick_space())
            .unwrap();
        let pick = report.picks()[0].as_ref().unwrap();
        let frontier = report.results[0].frontier();
        let min = frontier
            .iter()
            .map(|p| p.energy_wh_day_km)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(pick.energy_wh_day_km, min);
        assert!(report.corridor_wh_day() > 0.0);
    }

    #[test]
    fn schedule_totals_are_consistent() {
        let net = CorridorNetwork::by_name("wye3").unwrap();
        let report = NetworkOptimizer::new()
            .workers(1)
            .run(&net, &quick_space())
            .unwrap();
        let saving: f64 = report.plan().iter().map(|d| d.net_wh_day).sum();
        assert!((report.sleep_saving_wh_day() - saving).abs() < 1e-12);
        assert!((report.network_wh_day() - (report.corridor_wh_day() - saving)).abs() < 1e-9);
        let csv = report.schedule_csv();
        assert!(csv.starts_with(NETWORK_SCHEDULE_CSV_HEADER));
        assert_eq!(csv.lines().count(), 1 + report.plan().len());
    }
}
