//! Monte-Carlo replication sweeps: seeded stochastic days at grid scale,
//! folded into per-cell statistics with confidence intervals.
//!
//! The deterministic sweep ([`SweepEngine`](crate::SweepEngine)) gives
//! one number per cell; this module gives each cell a *distribution*. A
//! [`ReplicationPlan`] selects a stochastic traffic pattern
//! ([`TrafficSpec`]), a replication count and a master seed; the
//! [`McEngine`] gives each replication of every [`ScenarioGrid`] cell its
//! own [`SeedSequence`]-derived RNG stream, replays each seeded day
//! through the event-driven backend (one prepared [`SegmentReplicator`]
//! per cell, reused across all of the cell's seeds), and folds the daily
//! metrics through streaming
//! [`Welford`] accumulators into a [`McReport`] — mean, standard
//! deviation, 95 % confidence interval, min and max per cell and metric,
//! rendered by deterministic CSV/JSON writers that are byte-identical
//! regardless of worker count.

use corridor_core::sink::{RowEmitter, RowFormat, RowSink, SinkResult, StringSink};
use corridor_core::stats::{SummaryStats, Welford};
use corridor_core::{EnergyStrategy, ScenarioError};
use corridor_events::{EventDrivenEvaluator, NodeKind, SegmentReplicator, WakePolicy};
use corridor_traffic::{DelayModel, PoissonTimetable, SeedSequence, Timetable, TrafficModel};
use rand::SeedableRng;

use core::fmt::Write as _;

use crate::cache::{KeyBuilder, ResultCache};
use crate::report::{cell_csv, cell_header, cell_json, json_string};
use crate::stream::{self, CellJob, StreamError, StreamSummary};
use crate::{ScenarioCell, ScenarioGrid};

/// Which stochastic traffic pattern every replication samples, applied
/// per cell (each cell's own timetable density, train and service window
/// parameterize the pattern).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficSpec {
    /// The cell's deterministic timetable (every replication replays the
    /// same day — useful as a zero-variance control).
    Deterministic,
    /// Poisson arrivals at the cell's mean rate over the cell's service
    /// window.
    Poisson,
    /// The cell's timetable with seeded jitter and delays applied.
    Jittered(DelayModel),
}

impl TrafficSpec {
    /// A short stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            TrafficSpec::Deterministic => "deterministic",
            TrafficSpec::Poisson => "poisson",
            TrafficSpec::Jittered(_) => "jittered",
        }
    }

    /// Instantiates the pattern for one cell's timetable.
    pub fn model_for(&self, timetable: &Timetable) -> TrafficModel {
        match self {
            TrafficSpec::Deterministic => TrafficModel::Deterministic(*timetable),
            TrafficSpec::Poisson => TrafficModel::Poisson(PoissonTimetable::new(
                timetable.trains_per_hour(),
                timetable.service_window(),
                timetable.service_start(),
                timetable.train(),
            )),
            TrafficSpec::Jittered(delays) => TrafficModel::Jittered {
                base: *timetable,
                delays: *delays,
            },
        }
    }
}

/// How a grid is replicated: traffic pattern, replication count and the
/// master seed every per-work-item RNG stream derives from.
///
/// # Examples
///
/// ```
/// use corridor_sim::{McEngine, ReplicationPlan, ScenarioGrid};
///
/// let plan = ReplicationPlan::new(10).master_seed(7);
/// let report = McEngine::new().workers(2).run(&ScenarioGrid::new(), &plan).unwrap();
/// assert_eq!(report.len(), 1);
/// assert_eq!(report.replications(), 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicationPlan {
    replications: usize,
    seeds: SeedSequence,
    traffic: TrafficSpec,
}

impl ReplicationPlan {
    /// A plan of `replications` Poisson days per cell, master seed 42.
    ///
    /// # Panics
    ///
    /// Panics if `replications` is zero (statistics over nothing).
    pub fn new(replications: usize) -> Self {
        assert!(replications > 0, "replication count must be positive");
        ReplicationPlan {
            replications,
            seeds: SeedSequence::new(42),
            traffic: TrafficSpec::Poisson,
        }
    }

    /// Sets the master seed.
    #[must_use]
    pub fn master_seed(mut self, seed: u64) -> Self {
        self.seeds = SeedSequence::new(seed);
        self
    }

    /// Sets the traffic pattern.
    #[must_use]
    pub fn traffic(mut self, traffic: TrafficSpec) -> Self {
        self.traffic = traffic;
        self
    }

    /// Replications per cell.
    pub fn replications(&self) -> usize {
        self.replications
    }

    /// The seed-splitting sequence (`derive(cell, replication)` gives
    /// every work item its stream).
    pub fn seeds(&self) -> SeedSequence {
        self.seeds
    }

    /// The traffic pattern.
    pub fn traffic_spec(&self) -> TrafficSpec {
        self.traffic
    }
}

/// The per-cell metrics a Monte-Carlo run aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McMetric {
    /// Train passes sampled for the day.
    Passes,
    /// Conventional-baseline energy, Wh per hour per km (sleep-mode
    /// masts at the cell's conventional ISD).
    BaselineWhKm,
    /// Sleep-mode deployment energy, Wh per hour per km.
    SleepWhKm,
    /// Sleep-mode savings versus the day's own baseline, in percent.
    SavingSleepPct,
    /// Daily energy of one service repeater, Wh (the paper's headline
    /// 124.1 Wh/day quantity).
    RepeaterWhDay,
}

impl McMetric {
    /// Every metric, in report column order.
    pub const ALL: [McMetric; 5] = [
        McMetric::Passes,
        McMetric::BaselineWhKm,
        McMetric::SleepWhKm,
        McMetric::SavingSleepPct,
        McMetric::RepeaterWhDay,
    ];

    /// Position of this metric in [`McMetric::ALL`] — and therefore in
    /// every per-cell stats array (the tie is pinned by a unit test).
    pub const fn index(self) -> usize {
        match self {
            McMetric::Passes => 0,
            McMetric::BaselineWhKm => 1,
            McMetric::SleepWhKm => 2,
            McMetric::SavingSleepPct => 3,
            McMetric::RepeaterWhDay => 4,
        }
    }

    /// The stable column-name stem used by the writers.
    pub fn key(&self) -> &'static str {
        match self {
            McMetric::Passes => "passes",
            McMetric::BaselineWhKm => "baseline_wh_km",
            McMetric::SleepWhKm => "sleep_wh_km",
            McMetric::SavingSleepPct => "saving_sleep_pct",
            McMetric::RepeaterWhDay => "repeater_wh_day",
        }
    }
}

/// One simulated day reduced to the tracked metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DaySample {
    values: [f64; 5],
}

/// The aggregated statistics of one cell over all its replications.
#[derive(Debug, Clone, PartialEq)]
pub struct McCellResult {
    cell: ScenarioCell,
    stats: [SummaryStats; 5],
}

impl McCellResult {
    /// The cell these statistics describe.
    pub fn cell(&self) -> &ScenarioCell {
        &self.cell
    }

    /// The statistics of one metric.
    pub fn stats(&self, metric: McMetric) -> &SummaryStats {
        &self.stats[metric.index()]
    }
}

/// Everything a cell's replications need, prepared once: the cell, its
/// traffic model, and prebuilt deployment/baseline simulators.
struct CellContext {
    cell: ScenarioCell,
    model: TrafficModel,
    deployment: SegmentReplicator,
    baseline: SegmentReplicator,
}

impl CellContext {
    fn new(cell: ScenarioCell, spec: TrafficSpec, policy: WakePolicy) -> Self {
        let params = cell.params();
        let evaluator = EventDrivenEvaluator::with_policy(policy);
        CellContext {
            model: spec.model_for(params.timetable()),
            deployment: evaluator.replicator(params, cell.nodes(), cell.isd()),
            baseline: evaluator.replicator(params, 0, params.conventional_isd()),
            cell,
        }
    }

    /// Samples one seeded day and reduces it to the tracked metrics.
    fn sample_day(&self, seed: u64) -> DaySample {
        let params = self.cell.params();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let passes = self.model.passes(&mut rng);

        let deployment_report = self.deployment.simulate_day(&passes);
        let baseline_report = self.baseline.simulate_day(&passes);
        let sleep = EventDrivenEvaluator::power_from_report(
            params,
            self.cell.nodes(),
            self.cell.isd(),
            EnergyStrategy::SleepModeRepeaters,
            &deployment_report,
        );
        let baseline = EventDrivenEvaluator::power_from_report(
            params,
            0,
            params.conventional_isd(),
            EnergyStrategy::SleepModeRepeaters,
            &baseline_report,
        );

        let mut service = 0usize;
        let service_wh: f64 = deployment_report
            .nodes_of(NodeKind::ServiceRepeater)
            .inspect(|_| service += 1)
            .map(|node| node.trace().daily_energy(params.lp_node()).value())
            .sum();
        let repeater_wh = if service == 0 {
            0.0
        } else {
            service_wh / service as f64
        };

        DaySample {
            values: [
                passes.len() as f64,
                baseline.total().value(),
                sleep.total().value(),
                // a zero-traffic day has a zero baseline; savings_vs
                // returns 0.0 by convention instead of NaN-poisoning
                // the whole cell's statistics
                sleep.savings_vs(&baseline) * 100.0,
                repeater_wh,
            ],
        }
    }
}

/// Executes [`ReplicationPlan`]s over [`ScenarioGrid`]s on one or more
/// worker threads.
///
/// Cells run in parallel; one cell's replications are sampled and
/// folded on a single worker in plan order, so the resulting
/// [`McReport`] (and its CSV/JSON renderings) is byte-identical no
/// matter how many workers produced it.
///
/// # Examples
///
/// ```
/// use corridor_sim::{McEngine, McMetric, ReplicationPlan, ScenarioGrid};
///
/// let plan = ReplicationPlan::new(25);
/// let report = McEngine::new().workers(1).run(&ScenarioGrid::new(), &plan).unwrap();
/// let headline = report.results()[0].stats(McMetric::RepeaterWhDay);
/// // the replicated Poisson days bracket the analytic 124.07 Wh/day
/// assert!((headline.mean - 124.07).abs() < 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McEngine {
    workers: Option<usize>,
    policy: WakePolicy,
}

impl McEngine {
    /// An engine with automatic worker count and instant wake
    /// transitions (the differential reference policy).
    pub fn new() -> Self {
        McEngine {
            workers: None,
            policy: WakePolicy::instant(),
        }
    }

    /// Sets an explicit worker count (an explicit `0` is rejected by
    /// [`McEngine::run`], mirroring [`SweepEngine`](crate::SweepEngine)).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Evaluates every cell of `grid × plan` on the worker threads.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::ZeroWorkers`] for an explicit worker
    /// count of zero, or the [`ScenarioError`] of the first cell whose
    /// parameters fail validation.
    pub fn run(
        &self,
        grid: &ScenarioGrid,
        plan: &ReplicationPlan,
    ) -> Result<McReport, ScenarioError> {
        Ok(McReport {
            results: stream::collect(&self.job(grid, plan), self.workers)?,
            traffic: plan.traffic_spec().label(),
            replications: plan.replications(),
            master_seed: plan.seeds().master(),
        })
    }

    /// Streams the whole grid into `sink` in grid order without
    /// materializing the report; the emitted bytes are identical to
    /// [`McEngine::run`] + [`McReport::to_csv`] / [`McReport::to_json`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`McEngine::run`], plus
    /// [`StreamError::Sink`] if the sink refuses a row.
    pub fn stream(
        &self,
        grid: &ScenarioGrid,
        plan: &ReplicationPlan,
        format: RowFormat,
        sink: &mut dyn RowSink,
    ) -> Result<StreamSummary, StreamError> {
        self.stream_with(grid, plan, format, sink, None)
    }

    /// [`McEngine::stream`] with an optional [`ResultCache`] keyed by
    /// the scenario hash, the plan (traffic, replications, master seed)
    /// and the wake policy.
    ///
    /// # Errors
    ///
    /// Same conditions as [`McEngine::stream`].
    pub fn stream_with(
        &self,
        grid: &ScenarioGrid,
        plan: &ReplicationPlan,
        format: RowFormat,
        sink: &mut dyn RowSink,
        cache: Option<&ResultCache>,
    ) -> Result<StreamSummary, StreamError> {
        stream::stream(&self.job(grid, plan), self.workers, format, sink, cache)
    }

    /// Streams the raw rows of a cell range to `emit`, without header or
    /// framing (the `serve` shard primitive).
    ///
    /// # Panics
    ///
    /// Panics if `range` reaches past the grid's length.
    ///
    /// # Errors
    ///
    /// Same conditions as [`McEngine::stream`]; an `Err` from `emit`
    /// cancels the remaining evaluation and is returned.
    pub fn stream_rows(
        &self,
        grid: &ScenarioGrid,
        plan: &ReplicationPlan,
        range: core::ops::Range<usize>,
        format: RowFormat,
        cache: Option<&ResultCache>,
        emit: impl FnMut(&str) -> Result<(), StreamError>,
    ) -> Result<StreamSummary, StreamError> {
        stream::stream_rows(
            &self.job(grid, plan),
            self.workers,
            range,
            format,
            cache,
            emit,
        )
    }

    /// The engine's per-cell work over `grid × plan`.
    fn job<'a>(&'a self, grid: &'a ScenarioGrid, plan: &'a ReplicationPlan) -> McJob<'a> {
        McJob {
            engine: self,
            grid,
            plan,
        }
    }

    /// The scenario hash of one cell under this engine and plan.
    fn cache_key(&self, cell: &ScenarioCell, plan: &ReplicationPlan) -> String {
        let mut key = KeyBuilder::new("mc");
        key.text(plan.traffic_spec().label())
            .int(plan.replications() as u64)
            .int(plan.seeds().master())
            .f64(self.policy.lead().value())
            .f64(self.policy.wake_delay().value())
            .f64(self.policy.guard().value());
        if let TrafficSpec::Jittered(model) = plan.traffic_spec() {
            key.f64(model.jitter().value())
                .f64(model.delay_probability())
                .f64(model.max_delay().value());
        }
        key.cell(cell);
        key.finish()
    }
}

impl Default for McEngine {
    /// Returns [`McEngine::new`].
    fn default() -> Self {
        McEngine::new()
    }
}

/// The Monte-Carlo engine's per-cell work: one cell with all its
/// replications.
struct McJob<'a> {
    engine: &'a McEngine,
    grid: &'a ScenarioGrid,
    plan: &'a ReplicationPlan,
}

impl CellJob for McJob<'_> {
    type Cell = ScenarioCell;
    type Output = McCellResult;
    const HEADER: &'static str = MC_CSV_HEADER;

    fn cells(&self) -> usize {
        self.grid.len()
    }

    fn cell(&self, index: usize) -> Result<ScenarioCell, ScenarioError> {
        self.grid.cell_at(index)
    }

    fn cache_key(&self, cell: &ScenarioCell) -> Option<String> {
        Some(self.engine.cache_key(cell, self.plan))
    }

    fn evaluate(&self, cell: ScenarioCell) -> McCellResult {
        evaluate_mc_cell(cell, self.plan, self.engine.policy)
    }

    fn render(&self, result: &McCellResult, format: RowFormat) -> String {
        let plan = self.plan;
        render_mc_row(
            result,
            plan.traffic_spec().label(),
            plan.replications(),
            plan.seeds().master(),
            format,
        )
    }
}

/// The CSV header [`McReport::to_csv`] writes: the cell axis labels, the
/// plan, then `mean/stddev/ci95/min/max` per metric.
pub const MC_CSV_HEADER: &str = concat!(
    cell_header!(),
    "nodes,deployment_isd_m,traffic,replications,master_seed,\
passes_mean,passes_stddev,passes_ci95,passes_min,passes_max,\
baseline_wh_km_mean,baseline_wh_km_stddev,baseline_wh_km_ci95,baseline_wh_km_min,baseline_wh_km_max,\
sleep_wh_km_mean,sleep_wh_km_stddev,sleep_wh_km_ci95,sleep_wh_km_min,sleep_wh_km_max,\
saving_sleep_pct_mean,saving_sleep_pct_stddev,saving_sleep_pct_ci95,saving_sleep_pct_min,saving_sleep_pct_max,\
repeater_wh_day_mean,repeater_wh_day_stddev,repeater_wh_day_ci95,repeater_wh_day_min,repeater_wh_day_max"
);

/// The statistics of a whole Monte-Carlo run, in grid order, with
/// deterministic CSV/JSON writers.
///
/// # Examples
///
/// ```
/// use corridor_sim::{McEngine, ReplicationPlan, ScenarioGrid, MC_CSV_HEADER};
///
/// let report = McEngine::new()
///     .workers(1)
///     .run(&ScenarioGrid::new(), &ReplicationPlan::new(5))
///     .unwrap();
/// let csv = report.to_csv();
/// assert!(csv.starts_with(MC_CSV_HEADER));
/// assert_eq!(csv.lines().count(), 2); // header + one cell
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct McReport {
    results: Vec<McCellResult>,
    traffic: &'static str,
    replications: usize,
    master_seed: u64,
}

impl McReport {
    /// The per-cell statistics, in grid order.
    pub fn results(&self) -> &[McCellResult] {
        &self.results
    }

    /// Number of aggregated cells.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// True if the report holds no cells.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// The traffic pattern label of the plan that produced this report.
    pub fn traffic(&self) -> &'static str {
        self.traffic
    }

    /// Replications per cell.
    pub fn replications(&self) -> usize {
        self.replications
    }

    /// The plan's master seed.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Total simulated cell-days (`cells × replications` — the unit of
    /// the `mc` bench's throughput metric).
    pub fn cell_days(&self) -> usize {
        self.results.len() * self.replications
    }

    /// Streams the report's rows into `sink` in grid order, returning
    /// the row count; byte-identical to [`McReport::to_csv`] /
    /// [`McReport::to_json`].
    ///
    /// # Errors
    ///
    /// Propagates the sink's [`SinkError`](corridor_core::sink::SinkError).
    pub fn stream_into(&self, format: RowFormat, sink: &mut dyn RowSink) -> SinkResult<u64> {
        let mut rows = RowEmitter::begin(sink, format, MC_CSV_HEADER)?;
        for r in &self.results {
            rows.row(&render_mc_row(
                r,
                self.traffic,
                self.replications,
                self.master_seed,
                format,
            ))?;
        }
        rows.finish()
    }

    /// Renders the report as CSV ([`MC_CSV_HEADER`] plus one line per
    /// cell).
    pub fn to_csv(&self) -> String {
        StringSink::render(64 + 400 * self.results.len(), |sink| {
            self.stream_into(RowFormat::Csv, sink)
        })
    }

    /// Renders the report as a JSON array of cell objects.
    pub fn to_json(&self) -> String {
        StringSink::render(64 + 700 * self.results.len(), |sink| {
            self.stream_into(RowFormat::Json, sink)
        })
    }
}

/// Evaluates one cell's whole replication set on the calling thread: the
/// seeds are sampled and folded in plan order, so the statistics are
/// identical whichever worker runs the cell.
fn evaluate_mc_cell(
    cell: ScenarioCell,
    plan: &ReplicationPlan,
    policy: WakePolicy,
) -> McCellResult {
    let index = cell.index() as u64;
    let context = CellContext::new(cell, plan.traffic_spec(), policy);
    let mut accumulators = [Welford::new(); 5];
    for seed in plan.seeds().cell_seeds(index, plan.replications()) {
        let sample = context.sample_day(seed);
        for (acc, value) in accumulators.iter_mut().zip(sample.values) {
            acc.push(value);
        }
    }
    McCellResult {
        cell: context.cell,
        stats: accumulators.map(|acc| acc.summary()),
    }
}

/// Renders one cell's Monte-Carlo statistics as a report row. The plan
/// metadata (`traffic`, `replications`, `master_seed`) rides along in
/// every row, so a row renders identically whether it comes from an
/// in-memory [`McReport`] or a streaming evaluation.
pub(crate) fn render_mc_row(
    r: &McCellResult,
    traffic: &str,
    replications: usize,
    master_seed: u64,
    format: RowFormat,
) -> String {
    match format {
        RowFormat::Csv => {
            let mut out = String::with_capacity(400);
            cell_csv(&mut out, r.cell(), true);
            let _ = write!(out, ",{traffic},{replications},{master_seed}");
            for metric in McMetric::ALL {
                let s = r.stats(metric);
                let _ = write!(
                    out,
                    ",{:.4},{:.4},{:.4},{:.4},{:.4}",
                    s.mean, s.stddev, s.ci95, s.min, s.max
                );
            }
            out.push('\n');
            out
        }
        RowFormat::Json => {
            let mut out = String::with_capacity(700);
            out.push_str("  {");
            cell_json(&mut out, r.cell(), true);
            let _ = write!(
                out,
                ", \"traffic\": {}, \"replications\": {replications}, \
                 \"master_seed\": {master_seed}, \"stats\": {{",
                json_string(traffic),
            );
            for (j, metric) in McMetric::ALL.into_iter().enumerate() {
                let s = r.stats(metric);
                let _ = write!(
                    out,
                    "{}{}: {{\"mean\": {:.4}, \"stddev\": {:.4}, \"ci95\": {:.4}, \
                     \"min\": {:.4}, \"max\": {:.4}}}",
                    if j == 0 { "" } else { ", " },
                    json_string(metric.key()),
                    s.mean,
                    s.stddev,
                    s.ci95,
                    s.min,
                    s.max,
                );
            }
            out.push_str("}}");
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corridor_units::Seconds;

    fn small_plan() -> ReplicationPlan {
        ReplicationPlan::new(5).master_seed(7)
    }

    #[test]
    fn metric_index_matches_all_order() {
        for (i, metric) in McMetric::ALL.into_iter().enumerate() {
            assert_eq!(metric.index(), i, "{metric:?}");
        }
    }

    #[test]
    fn plan_accessors_and_defaults() {
        let plan = ReplicationPlan::new(25);
        assert_eq!(plan.replications(), 25);
        assert_eq!(plan.seeds().master(), 42);
        assert_eq!(plan.traffic_spec(), TrafficSpec::Poisson);
        let custom = plan
            .master_seed(9)
            .traffic(TrafficSpec::Jittered(DelayModel::typical()));
        assert_eq!(custom.seeds().master(), 9);
        assert_eq!(custom.traffic_spec().label(), "jittered");
    }

    #[test]
    #[should_panic(expected = "replication count must be positive")]
    fn zero_replications_rejected() {
        let _ = ReplicationPlan::new(0);
    }

    #[test]
    fn traffic_spec_instantiates_per_cell() {
        let timetable = Timetable::paper_default();
        assert_eq!(TrafficSpec::Deterministic.label(), "deterministic");
        assert!(!TrafficSpec::Deterministic
            .model_for(&timetable)
            .is_stochastic());
        let poisson = TrafficSpec::Poisson.model_for(&timetable);
        assert!(poisson.is_stochastic());
        assert!(TrafficSpec::Jittered(DelayModel::typical())
            .model_for(&timetable)
            .is_stochastic());
    }

    #[test]
    fn explicit_zero_workers_is_rejected() {
        let engine = McEngine::new().workers(0);
        let err = engine.run(&ScenarioGrid::new(), &small_plan()).unwrap_err();
        assert_eq!(err, ScenarioError::ZeroWorkers);
    }

    #[test]
    fn invalid_cell_propagates_scenario_error() {
        let grid = ScenarioGrid::new().lp_spacings_m(vec![0.0]);
        let err = McEngine::new()
            .workers(1)
            .run(&grid, &small_plan())
            .unwrap_err();
        assert_eq!(err, ScenarioError::NonPositiveSpacing);
    }

    #[test]
    fn deterministic_traffic_has_zero_variance() {
        let plan = small_plan().traffic(TrafficSpec::Deterministic);
        let report = McEngine::new()
            .workers(1)
            .run(&ScenarioGrid::new(), &plan)
            .unwrap();
        let r = &report.results()[0];
        for metric in McMetric::ALL {
            let s = r.stats(metric);
            assert_eq!(s.n, 5);
            assert_eq!(s.stddev, 0.0, "{}", metric.key());
            assert_eq!(s.min, s.max, "{}", metric.key());
        }
        // 8 trains/h x 19 h, every day
        assert_eq!(r.stats(McMetric::Passes).mean, 152.0);
        assert_eq!(report.cell_days(), 5);
    }

    #[test]
    fn report_metadata_and_writers() {
        let report = McEngine::new()
            .workers(1)
            .run(&ScenarioGrid::new(), &small_plan())
            .unwrap();
        assert_eq!(report.traffic(), "poisson");
        assert_eq!(report.replications(), 5);
        assert_eq!(report.master_seed(), 7);
        assert!(!report.is_empty());

        let csv = report.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], MC_CSV_HEADER);
        assert_eq!(
            lines[0].split(',').count(),
            lines[1].split(',').count(),
            "row/header column mismatch"
        );

        let json = report.to_json();
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("]\n"));
        assert!(json.contains("\"traffic\": \"poisson\""));
        for metric in McMetric::ALL {
            assert!(json.contains(&format!("\"{}\":", metric.key())), "{json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn zero_traffic_days_do_not_poison_statistics() {
        // a degenerate cell whose Poisson rate rounds to ~1 train per
        // day: many sampled days carry zero trains, so the baseline
        // consumes nothing — savings must stay finite (the savings_vs
        // zero-baseline convention) and the fold NaN-free
        let grid = ScenarioGrid::new().trains_per_hour(vec![0.06]);
        let report = McEngine::new()
            .workers(2)
            .run(&grid, &ReplicationPlan::new(16).master_seed(1))
            .unwrap();
        let r = &report.results()[0];
        assert!(
            r.stats(McMetric::Passes).min == 0.0,
            "wanted a zero-train day"
        );
        for metric in McMetric::ALL {
            let s = r.stats(metric);
            for value in [s.mean, s.stddev, s.ci95, s.min, s.max] {
                assert!(value.is_finite(), "{}: {value}", metric.key());
            }
        }
    }

    #[test]
    fn jittered_plan_shifts_but_keeps_all_passes() {
        let plan = small_plan().traffic(TrafficSpec::Jittered(DelayModel::new(
            0.5,
            Seconds::new(120.0),
            Seconds::new(10.0),
        )));
        let report = McEngine::new()
            .workers(1)
            .run(&ScenarioGrid::new(), &plan)
            .unwrap();
        let passes = report.results()[0].stats(McMetric::Passes);
        // jitter never drops a slot
        assert_eq!(passes.min, 152.0);
        assert_eq!(passes.max, 152.0);
    }
}
