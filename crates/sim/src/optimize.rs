//! Corridor deployment optimizer: a joint search over repeater count,
//! inter-site distance, wake policy and PV sizing that emits a Pareto
//! frontier per scenario cell.
//!
//! The paper's Section V answers the deployment question one axis at a
//! time (a fixed 50 m-step ISD sweep per repeater count). This module
//! closes the loop with the energy and PV layers: a [`SearchSpace`]
//! describes the candidate configurations, the [`DeploymentOptimizer`]
//! evaluates every candidate of every [`ScenarioGrid`] cell on the
//! worker threads — coverage through a shared
//! [`CoverageCache`](corridor_deploy::CoverageCache) (each layout
//! profiled once across the whole search),
//! energy through the [`SegmentEvaluator`](corridor_core::SegmentEvaluator)
//! backends, PV sizing through the Table IV methodology — and keeps the
//! Pareto-non-dominated set per cell over three objectives:
//!
//! * **energy/day** — Wh per day per km of corridor (minimize),
//! * **nodes/km** — deployed equipment density, masts + repeaters
//!   (minimize),
//! * **coverage margin** — minimum SNR above the threshold, dB
//!   (maximize).
//!
//! Results land in an [`OptimizeReport`] whose CSV/JSON renderings are
//! byte-identical no matter how many workers produced them.

use corridor_core::margin::MarginModel;
use corridor_core::sink::{RowEmitter, RowFormat, RowSink, SinkResult, StringSink};
use corridor_core::{pareto, AnalyticEvaluator, EnergyStrategy, ScenarioError, SegmentEvaluator};
use corridor_deploy::{CoverageCache, IsdTable, LinkBudget, SegmentInventory};
use corridor_events::{EventDrivenEvaluator, NodeKind, WakePolicy};
use corridor_traffic::TrackSection;
use corridor_units::{Db, Meters};

use crate::cache::{KeyBuilder, ResultCache};
use crate::report::{
    cell_csv, cell_header, cell_json, csv_field, json_string, push_fixed, push_uint, pv_csv,
    pv_json,
};
use crate::sizing::{repeater_load, SizingMemo};
use crate::stream::{self, CellJob, StreamError, StreamSummary};
use crate::{EvalContext, PvOutcome, ScenarioCell, ScenarioGrid};

/// How the ISD dimension of the search is resolved per repeater count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IsdSearch {
    /// The published Section V anchors ([`IsdTable::paper`]): each
    /// repeater count deploys at the paper's maximum ISD. Counts beyond
    /// the table (> 10) are infeasible candidates, not errors.
    PaperTable,
    /// Model-derived maxima: for each count, the largest grid ISD whose
    /// minimum SNR stays at or above the search's threshold, found by
    /// cached binary search over `min..=max` stepping by `step`.
    ModelGrid {
        /// Smallest candidate ISD.
        min: Meters,
        /// Largest candidate ISD.
        max: Meters,
        /// ISD grid step (the paper uses 50 m).
        step: Meters,
    },
}

impl IsdSearch {
    /// The paper's 50 m-step model search over 100 m – 4000 m.
    pub fn model_paper_grid() -> Self {
        IsdSearch::ModelGrid {
            min: Meters::new(100.0),
            max: Meters::new(4000.0),
            step: Meters::new(50.0),
        }
    }

    /// A short stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            IsdSearch::PaperTable => "paper-table",
            IsdSearch::ModelGrid { .. } => "model-grid",
        }
    }
}

/// The candidate configurations a [`DeploymentOptimizer`] explores for
/// every scenario cell: repeater counts × ISD resolution × wake
/// policies, with optional per-candidate PV sizing.
///
/// # Examples
///
/// ```
/// use corridor_sim::{DeploymentOptimizer, ScenarioGrid, SearchSpace};
///
/// let space = SearchSpace::new().node_counts((0..=4).collect());
/// let report = DeploymentOptimizer::new()
///     .workers(1)
///     .run(&ScenarioGrid::new(), &space)
///     .unwrap();
/// assert_eq!(report.len(), 1);
/// assert!(!report.results()[0].frontier().is_empty());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpace {
    node_counts: Vec<usize>,
    isd_search: IsdSearch,
    wake_policies: Vec<WakePolicy>,
    pv_sizing: bool,
    snr_threshold: Db,
    sample_step: Meters,
}

impl SearchSpace {
    /// The default space: counts 0–10 at the paper-table ISDs, the
    /// instant wake policy, no PV sizing, the paper's 29 dB threshold
    /// and 5 m profile sampling.
    pub fn new() -> Self {
        SearchSpace {
            node_counts: (0..=10).collect(),
            isd_search: IsdSearch::PaperTable,
            wake_policies: vec![WakePolicy::instant()],
            pv_sizing: false,
            snr_threshold: Db::new(29.0),
            sample_step: Meters::new(5.0),
        }
    }

    /// Sets the repeater-count axis.
    ///
    /// # Panics
    ///
    /// Panics if `counts` is empty — an empty axis is a configuration
    /// bug, mirroring [`ScenarioGrid`]'s axis setters.
    #[must_use]
    pub fn node_counts(mut self, counts: Vec<usize>) -> Self {
        assert!(!counts.is_empty(), "node count axis must not be empty");
        self.node_counts = counts;
        self
    }

    /// Sets the ISD resolution mode.
    #[must_use]
    pub fn isd_search(mut self, isd_search: IsdSearch) -> Self {
        self.isd_search = isd_search;
        self
    }

    /// Sets the wake-policy axis.
    ///
    /// # Panics
    ///
    /// Panics if `policies` is empty.
    #[must_use]
    pub fn wake_policies(mut self, policies: Vec<WakePolicy>) -> Self {
        assert!(!policies.is_empty(), "wake policy axis must not be empty");
        self.wake_policies = policies;
        self
    }

    /// Enables or disables per-candidate PV sizing (the expensive step:
    /// three seeded weather years per sized candidate).
    #[must_use]
    pub fn pv_sizing(mut self, enabled: bool) -> Self {
        self.pv_sizing = enabled;
        self
    }

    /// Sets the coverage threshold (minimum SNR along the track).
    #[must_use]
    pub fn snr_threshold(mut self, threshold: Db) -> Self {
        self.snr_threshold = threshold;
        self
    }

    /// The coverage threshold — the margin-trading scheduler prices
    /// interior sleeps against the same model the search used.
    pub(crate) fn snr_threshold_value(&self) -> Db {
        self.snr_threshold
    }

    /// Sets the coverage-profile sampling step.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not strictly positive.
    #[must_use]
    pub fn sample_step(mut self, step: Meters) -> Self {
        assert!(step.value() > 0.0, "sample step must be positive");
        self.sample_step = step;
        self
    }

    /// Candidate configurations per cell (counts × policies; the ISD is
    /// resolved, not enumerated).
    pub fn candidates_per_cell(&self) -> usize {
        self.node_counts.len() * self.wake_policies.len()
    }

    /// The ISD resolution label (shared with the network optimizer's
    /// renderings).
    pub(crate) fn isd_search_label(&self) -> &'static str {
        self.isd_search.label()
    }
}

impl Default for SearchSpace {
    /// Returns [`SearchSpace::new`].
    fn default() -> Self {
        SearchSpace::new()
    }
}

/// A short stable label for a wake policy in report columns: one of the
/// two policies there are.
fn policy_label(policy: &WakePolicy) -> String {
    if *policy == WakePolicy::instant() {
        "instant".to_owned()
    } else {
        "paper".to_owned()
    }
}

/// One non-dominated deployment configuration of a cell.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierPoint {
    /// Service repeater count.
    pub nodes: usize,
    /// Deployment inter-site distance.
    pub isd: Meters,
    /// Wake-policy label (`instant` or `paper`).
    pub policy: String,
    /// Energy backend that produced the numbers (`analytic` for the
    /// instant policy, `event-driven` otherwise).
    pub evaluator: &'static str,
    /// Objective 1: corridor energy, Wh per day per km (minimized).
    pub energy_wh_day_km: f64,
    /// Objective 2: deployed nodes (masts + repeaters) per km
    /// (minimized).
    pub nodes_per_km: f64,
    /// Objective 3: minimum SNR above the threshold, dB (maximized).
    /// Negative for paper-table deployments the model considers
    /// marginal.
    pub margin_db: f64,
    /// Sleep-mode savings versus the cell's conventional baseline, %.
    pub saving_sleep_pct: f64,
    /// Daily energy of one service repeater, Wh (the paper's
    /// 124.1 Wh/day headline quantity; `0.0` for a conventional
    /// deployment).
    pub repeater_wh_day: f64,
    /// PV sizing of one service repeater at this geometry.
    pub pv: PvOutcome,
}

/// The searched outcome of one cell.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome {
    /// The non-dominated configurations, in candidate order (node count
    /// outermost, wake policy innermost).
    Frontier(Vec<FrontierPoint>),
    /// No candidate satisfied the coverage search — an explicit,
    /// reportable outcome instead of a panic or a silently empty row.
    Unsolvable,
}

/// The evaluated search result of one scenario cell.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeCellResult {
    pub(crate) cell: ScenarioCell,
    pub(crate) evaluated: usize,
    pub(crate) outcome: CellOutcome,
}

impl OptimizeCellResult {
    /// The cell this frontier belongs to.
    pub fn cell(&self) -> &ScenarioCell {
        &self.cell
    }

    /// Candidate configurations evaluated for this cell (feasible ones;
    /// infeasible counts/policies are skipped before evaluation).
    pub fn evaluated(&self) -> usize {
        self.evaluated
    }

    /// The frontier points (empty for an unsolvable cell).
    pub fn frontier(&self) -> &[FrontierPoint] {
        match &self.outcome {
            CellOutcome::Frontier(points) => points,
            CellOutcome::Unsolvable => &[],
        }
    }

    /// True if no candidate was feasible.
    pub fn is_unsolvable(&self) -> bool {
        matches!(self.outcome, CellOutcome::Unsolvable)
    }
}

/// Executes [`SearchSpace`]s over [`ScenarioGrid`]s on one or more
/// worker threads.
///
/// Cells evaluate independently and in parallel; they share one
/// [`CoverageCache`](corridor_deploy::CoverageCache) per search, so the
/// coverage question for a given `(n, isd, placement)` is profiled once
/// across the whole search instead of once per cell × policy × probe
/// (the hot path of the naive per-step sweep). Results
/// fold in grid order, so reports are byte-identical across worker
/// counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeploymentOptimizer {
    workers: Option<usize>,
}

impl DeploymentOptimizer {
    /// An optimizer with automatic worker count.
    pub fn new() -> Self {
        DeploymentOptimizer { workers: None }
    }

    /// Sets an explicit worker count (an explicit `0` is rejected by
    /// [`DeploymentOptimizer::run`], mirroring the sweep engines).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Expands the grid and searches every cell on the worker threads.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::ZeroWorkers`] for an explicit worker
    /// count of zero, or the [`ScenarioError`] of the first cell whose
    /// parameters fail validation.
    pub fn run(
        &self,
        grid: &ScenarioGrid,
        space: &SearchSpace,
    ) -> Result<OptimizeReport, ScenarioError> {
        let context = EvalContext::new();
        let search = grid_search(grid, space, &context);
        let results = stream::collect(&search, self.workers)?;
        Ok(OptimizeReport {
            results,
            isd_search: space.isd_search.label(),
            lookups: search.coverage.lookups(),
            profile_evaluations: search.coverage.profile_evaluations(),
        })
    }

    /// Streams the whole grid into `sink` in grid order without
    /// materializing the report; the emitted bytes are identical to
    /// [`DeploymentOptimizer::run`] + [`OptimizeReport::stream_into`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`DeploymentOptimizer::run`], plus
    /// [`StreamError::Sink`] if the sink refuses a row.
    pub fn stream(
        &self,
        grid: &ScenarioGrid,
        space: &SearchSpace,
        format: RowFormat,
        sink: &mut dyn RowSink,
    ) -> Result<StreamSummary, StreamError> {
        self.stream_with(grid, space, format, sink, None)
    }

    /// [`DeploymentOptimizer::stream`] with an optional [`ResultCache`]
    /// keyed by the scenario hash and the whole search space (counts,
    /// ISD mode, policies, threshold, sampling step; the paper link
    /// budget's values too, so keys stay those of the stores written
    /// while each scenario carried a budget).
    ///
    /// # Errors
    ///
    /// Same conditions as [`DeploymentOptimizer::stream`].
    pub fn stream_with(
        &self,
        grid: &ScenarioGrid,
        space: &SearchSpace,
        format: RowFormat,
        sink: &mut dyn RowSink,
        cache: Option<&ResultCache>,
    ) -> Result<StreamSummary, StreamError> {
        let context = EvalContext::new();
        let search = grid_search(grid, space, &context);
        stream::stream(&search, self.workers, format, sink, cache)
    }

    /// Streams the raw per-cell chunks of a cell range to `emit`,
    /// without header or framing, through a fresh [`EvalContext`].
    /// Workers share one [`CoverageCache`], exactly like
    /// [`DeploymentOptimizer::run`].
    ///
    /// # Panics
    ///
    /// Panics if `range` reaches past the grid's length.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DeploymentOptimizer::stream`]; an `Err`
    /// from `emit` cancels the remaining evaluation and is returned.
    pub fn stream_rows(
        &self,
        grid: &ScenarioGrid,
        space: &SearchSpace,
        range: core::ops::Range<usize>,
        format: RowFormat,
        cache: Option<&ResultCache>,
        emit: impl FnMut(&str) -> Result<(), StreamError>,
    ) -> Result<StreamSummary, StreamError> {
        let context = EvalContext::new();
        let search = grid_search(grid, space, &context);
        stream::stream_rows(&search, self.workers, range, format, cache, emit)
    }
}

impl Default for DeploymentOptimizer {
    /// Returns [`DeploymentOptimizer::new`].
    fn default() -> Self {
        DeploymentOptimizer::new()
    }
}

/// The deployment search's per-cell work over any cell source: grid
/// cells for the [`DeploymentOptimizer`], edge cells for the
/// [`NetworkOptimizer`](crate::NetworkOptimizer).
pub(crate) struct SearchJob<'a, F> {
    cells: usize,
    cell_at: F,
    space: &'a SearchSpace,
    /// The coverage cache every cell of the search shares.
    pub(crate) coverage: CoverageCache,
    /// PV sizing through the search's context.
    sizing: &'a SizingMemo,
}

impl<'a, F> SearchJob<'a, F> {
    /// A search over `cells` cells, cell `i` built by `cell_at(i)`,
    /// sizing through `context`.
    pub(crate) fn new(
        cells: usize,
        cell_at: F,
        space: &'a SearchSpace,
        context: &'a EvalContext,
    ) -> Self {
        SearchJob {
            cells,
            cell_at,
            space,
            coverage: CoverageCache::with_sample_step(space.sample_step),
            sizing: context.sizing(),
        }
    }
}

impl<F> CellJob for SearchJob<'_, F>
where
    F: Fn(usize) -> Result<ScenarioCell, ScenarioError> + Sync,
{
    type Cell = ScenarioCell;
    type Output = OptimizeCellResult;
    const HEADER: &'static str = OPTIMIZE_CSV_HEADER;

    fn cells(&self) -> usize {
        self.cells
    }

    fn cell(&self, index: usize) -> Result<ScenarioCell, ScenarioError> {
        (self.cell_at)(index)
    }

    fn cache_key(&self, cell: &ScenarioCell) -> Option<String> {
        Some(cache_key(cell, self.space))
    }

    fn evaluate(&self, cell: ScenarioCell) -> OptimizeCellResult {
        evaluate_cell(&cell, &self.coverage, self.sizing, self.space)
    }

    fn render(&self, result: &OptimizeCellResult, format: RowFormat) -> String {
        render_optimize_row(result, self.space.isd_search.label(), format)
    }
}

/// The deployment search over every cell of `grid`.
pub(crate) fn grid_search<'a>(
    grid: &'a ScenarioGrid,
    space: &'a SearchSpace,
    context: &'a EvalContext,
) -> SearchJob<'a, impl Fn(usize) -> Result<ScenarioCell, ScenarioError> + Sync + 'a> {
    SearchJob::new(grid.len(), move |index| grid.cell_at(index), space, context)
}

/// The scenario hash of one cell under a whole search space. Beyond the
/// common cell fingerprint this folds in every search axis and the paper
/// link budget's coverage-relevant parameters (which no cell varies, but
/// which keep the keys of stores written while each scenario carried a
/// budget) — perturbing the SNR threshold or a wake policy dirties every
/// cell, while perturbing one grid axis dirties exactly the cells on it.
fn cache_key(cell: &ScenarioCell, space: &SearchSpace) -> String {
    let mut key = KeyBuilder::new("optimize");
    // each list's count goes first, so no list can run into the field
    // after it
    key.int(space.node_counts.len() as u64);
    for &count in &space.node_counts {
        key.int(count as u64);
    }
    key.text(space.isd_search.label());
    if let IsdSearch::ModelGrid { min, max, step } = space.isd_search {
        key.f64(min.value()).f64(max.value()).f64(step.value());
    }
    key.int(space.wake_policies.len() as u64);
    for policy in &space.wake_policies {
        key.f64(policy.lead().value())
            .f64(policy.wake_delay().value())
            .f64(policy.guard().value());
    }
    key.int(u64::from(space.pv_sizing))
        .f64(space.snr_threshold.value())
        .f64(space.sample_step.value());
    let budget = LinkBudget::paper_default();
    key.f64(budget.frequency().value())
        .f64(budget.hp_eirp().value())
        .f64(budget.lp_eirp().value())
        .f64(budget.hp_calibration().value())
        .f64(budget.lp_calibration().value())
        .f64(budget.noise_floor().value());
    key.cell(cell);
    key.finish()
}

/// Searches one cell: resolve the ISD per count, evaluate every
/// feasible `(count, policy)` candidate, keep the Pareto frontier.
/// The network optimizer runs this same search over edge-derived cells
/// (through [`SearchJob`]) — the sharing is what makes the
/// degenerate-path differential test a byte-for-byte identity.
fn evaluate_cell(
    cell: &ScenarioCell,
    cache: &CoverageCache,
    sizing: &SizingMemo,
    space: &SearchSpace,
) -> OptimizeCellResult {
    let params = cell.params();
    let placement = &params.placement();
    let passes = params.timetable().passes();
    // per-policy conventional baselines, computed lazily on the first
    // feasible candidate and shared across the count loop: the baseline
    // deployment has no repeaters, so it is count-invariant, and the
    // event-driven variant is a full simulated day an all-infeasible
    // (Unsolvable) cell must not pay for
    let mut baselines: Vec<Option<corridor_core::energy::SegmentEnergy>> =
        vec![None; space.wake_policies.len()];
    let baseline_for = |policy: &WakePolicy| {
        if *policy == WakePolicy::instant() {
            AnalyticEvaluator.conventional_baseline(params)
        } else {
            let report = EventDrivenEvaluator::with_policy(*policy)
                .replicator(params, 0, params.conventional_isd())
                .simulate_day(&passes);
            EventDrivenEvaluator::power_from_report(
                params,
                0,
                params.conventional_isd(),
                EnergyStrategy::SleepModeRepeaters,
                &report,
            )
        }
    };
    let mut candidates: Vec<FrontierPoint> = Vec::new();

    // margin arithmetic lives in the shared core model, so the network
    // scheduler's margin-trading prices are the optimizer's own
    let margin_model = MarginModel::new(space.snr_threshold);
    for &n in &space.node_counts {
        let isd = match space.isd_search {
            IsdSearch::PaperTable => IsdTable::paper().isd_for(n),
            IsdSearch::ModelGrid { min, max, step } => {
                cache.max_feasible_isd(n, placement, margin_model.threshold(), min, max, step)
            }
        };
        let Some(isd) = isd else {
            continue; // count infeasible under this ISD resolution
        };
        // coverage margin from the shared cache (placement failures at
        // the paper anchors — e.g. a wide LP spacing — are infeasible)
        let Some(margin_db) = margin_model.margin_of(cache, n, isd, placement) else {
            continue;
        };

        let inventory = SegmentInventory::for_nodes(n, isd);
        let nodes_per_km = (inventory.total_repeaters() as f64 + inventory.masts() as f64)
            * inventory.segments_per_km();

        for (policy, baseline_slot) in space.wake_policies.iter().zip(baselines.iter_mut()) {
            let baseline = *baseline_slot.get_or_insert_with(|| baseline_for(policy));
            // PV sizing is per policy: a padded policy keeps the node
            // powered longer, so its "zero-downtime" system must be
            // sized for the padded load, not the instant-wake floor
            let (evaluator, sleep, repeater_wh_day, pv) = if *policy == WakePolicy::instant() {
                // the closed form models instant transitions exactly
                let backend = AnalyticEvaluator;
                let sleep = backend.average_power_per_km(
                    params,
                    n,
                    isd,
                    EnergyStrategy::SleepModeRepeaters,
                );
                let (repeater_wh_day, pv) = if n == 0 {
                    (0.0, PvOutcome::Skipped)
                } else {
                    let section = TrackSection::around(isd / 2.0, params.lp_spacing());
                    let active = corridor_core::energy::active_hours(params, section);
                    let wh_day =
                        corridor_power::DutyCycle::over_day(active, corridor_units::Hours::ZERO)
                            .daily_energy(params.lp_node())
                            .value();
                    let pv = if space.pv_sizing {
                        // the activity hours are already in hand; skip
                        // the sweep's identical timeline scan
                        sizing.size(cell.location(), repeater_load(params, active.value()))
                    } else {
                        PvOutcome::Skipped
                    };
                    (wh_day, pv)
                };
                (backend.name(), sleep, repeater_wh_day, pv)
            } else {
                let backend = EventDrivenEvaluator::with_policy(*policy);
                let report = backend.replicator(params, n, isd).simulate_day(&passes);
                let sleep = EventDrivenEvaluator::power_from_report(
                    params,
                    n,
                    isd,
                    EnergyStrategy::SleepModeRepeaters,
                    &report,
                );
                let service: Vec<(f64, f64)> = report
                    .nodes_of(NodeKind::ServiceRepeater)
                    .map(|node| {
                        (
                            node.trace().daily_energy(params.lp_node()).value(),
                            node.trace().powered().value() / 3600.0,
                        )
                    })
                    .collect();
                let (repeater_wh_day, powered_h) = if service.is_empty() {
                    (0.0, 0.0)
                } else {
                    let count = service.len() as f64;
                    (
                        service.iter().map(|(wh, _)| wh).sum::<f64>() / count,
                        service.iter().map(|(_, h)| h).sum::<f64>() / count,
                    )
                };
                let pv = if space.pv_sizing && n > 0 {
                    sizing.size(cell.location(), repeater_load(params, powered_h))
                } else {
                    PvOutcome::Skipped
                };
                (backend.name(), sleep, repeater_wh_day, pv)
            };

            candidates.push(FrontierPoint {
                nodes: n,
                isd,
                policy: policy_label(policy),
                evaluator,
                energy_wh_day_km: sleep.total().value() * 24.0,
                nodes_per_km,
                margin_db,
                saving_sleep_pct: sleep.savings_vs(&baseline) * 100.0,
                repeater_wh_day,
                pv,
            });
        }
    }

    let evaluated = candidates.len();
    if candidates.is_empty() {
        return OptimizeCellResult {
            cell: cell.clone(),
            evaluated,
            outcome: CellOutcome::Unsolvable,
        };
    }
    let objectives: Vec<Vec<f64>> = candidates
        .iter()
        .map(|c| vec![c.energy_wh_day_km, c.nodes_per_km, -c.margin_db])
        .collect();
    let keep = pareto::frontier_indices(&objectives);
    let frontier: Vec<FrontierPoint> = keep.into_iter().map(|i| candidates[i].clone()).collect();
    // every objective was finite-checked by the frontier builder; an
    // all-non-finite candidate set degenerates to Unsolvable as well
    let outcome = if frontier.is_empty() {
        CellOutcome::Unsolvable
    } else {
        CellOutcome::Frontier(frontier)
    };
    OptimizeCellResult {
        cell: cell.clone(),
        evaluated,
        outcome,
    }
}

/// The CSV header [`OptimizeReport::to_csv`] writes.
pub const OPTIMIZE_CSV_HEADER: &str = concat!(
    cell_header!(),
    "isd_search,status,nodes,isd_m,policy,evaluator,energy_wh_day_km,nodes_per_km,margin_db,\
     saving_sleep_pct,repeater_wh_day,pv_wp,battery_wh,days_full_pct"
);

/// The Pareto frontiers of a whole search, in grid order, with
/// deterministic CSV/JSON writers and the shared cache's counters.
///
/// # Examples
///
/// ```
/// use corridor_sim::{DeploymentOptimizer, ScenarioGrid, SearchSpace, OPTIMIZE_CSV_HEADER};
///
/// let report = DeploymentOptimizer::new()
///     .workers(1)
///     .run(&ScenarioGrid::new(), &SearchSpace::new().node_counts(vec![0, 8, 10]))
///     .unwrap();
/// assert!(report.to_csv().starts_with(OPTIMIZE_CSV_HEADER));
/// assert!(report.frontier_points() >= 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeReport {
    results: Vec<OptimizeCellResult>,
    isd_search: &'static str,
    lookups: u64,
    profile_evaluations: u64,
}

impl OptimizeReport {
    /// The per-cell search results, in grid order.
    pub fn results(&self) -> &[OptimizeCellResult] {
        &self.results
    }

    /// Number of searched cells.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// True if the report holds no cells.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// The ISD resolution label of the search.
    pub fn isd_search(&self) -> &'static str {
        self.isd_search
    }

    /// Candidate configurations evaluated across all cells.
    pub fn candidates_evaluated(&self) -> usize {
        self.results.iter().map(|r| r.evaluated()).sum()
    }

    /// Frontier points across all cells.
    pub fn frontier_points(&self) -> usize {
        self.results.iter().map(|r| r.frontier().len()).sum()
    }

    /// Coverage-cache lookups across the search — what an uncached
    /// per-step sweep would have paid in SNR-profile samples.
    pub fn coverage_lookups(&self) -> u64 {
        self.lookups
    }

    /// SNR profiles actually sampled (cache misses).
    pub fn profile_evaluations(&self) -> u64 {
        self.profile_evaluations
    }

    /// Fraction of coverage lookups served from the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            return 0.0;
        }
        1.0 - self.profile_evaluations as f64 / self.lookups as f64
    }

    /// Streams the report's per-cell chunks into `sink` in grid order,
    /// returning the cell count. [`OptimizeReport::to_csv`] is this method
    /// pointed at a [`StringSink`](corridor_core::sink::StringSink). A CSV
    /// "row" here is one cell's whole chunk — one line per frontier
    /// point, or a single `unsolvable` line.
    ///
    /// # Errors
    ///
    /// Propagates the sink's [`SinkError`](corridor_core::sink::SinkError).
    pub fn stream_into(&self, format: RowFormat, sink: &mut dyn RowSink) -> SinkResult<u64> {
        let mut rows = RowEmitter::begin(sink, format, OPTIMIZE_CSV_HEADER)?;
        for r in &self.results {
            rows.row(&render_optimize_row(r, self.isd_search, format))?;
        }
        rows.finish()
    }

    /// Renders the report as CSV: one line per frontier point, one
    /// `unsolvable` line per cell without any feasible candidate.
    pub fn to_csv(&self) -> String {
        StringSink::render(64 + 160 * self.frontier_points().max(1), |sink| {
            self.stream_into(RowFormat::Csv, sink)
        })
    }
}

/// Renders one cell's search outcome as a report chunk. The CSV chunk
/// spans one line per frontier point (each with its own newline); the
/// JSON chunk is one cell object with its nested frontier array.
pub(crate) fn render_optimize_row(
    r: &OptimizeCellResult,
    isd_search: &str,
    format: RowFormat,
) -> String {
    match format {
        RowFormat::Csv => {
            let mut prefix = String::with_capacity(96);
            cell_csv(&mut prefix, r.cell(), false);
            prefix.push(',');
            prefix.push_str(isd_search);
            let mut out = String::with_capacity(160 * r.frontier().len().max(1));
            if r.is_unsolvable() {
                out.push_str(&prefix);
                out.push_str(",unsolvable,-,-,-,-,-,-,-,-,-,-,-,-\n");
                return out;
            }
            for p in r.frontier() {
                out.push_str(&prefix);
                out.push_str(",frontier,");
                push_uint(&mut out, p.nodes as u64);
                out.push(',');
                push_fixed(&mut out, p.isd.value(), 0);
                out.push(',');
                csv_field(&mut out, &p.policy);
                out.push(',');
                out.push_str(p.evaluator);
                for (v, decimals) in frontier_numbers(p) {
                    out.push(',');
                    push_fixed(&mut out, v, decimals);
                }
                out.push(',');
                pv_csv(&mut out, p.pv);
                out.push('\n');
            }
            out
        }
        RowFormat::Json => {
            let mut out = String::with_capacity(320 * r.frontier().len().max(1));
            out.push_str("  {");
            cell_json(&mut out, r.cell(), false);
            out.push_str(", \"isd_search\": ");
            json_string(&mut out, isd_search);
            out.push_str(", \"status\": ");
            json_string(
                &mut out,
                if r.is_unsolvable() {
                    "unsolvable"
                } else {
                    "frontier"
                },
            );
            out.push_str(", \"frontier\": [");
            for (j, p) in r.frontier().iter().enumerate() {
                out.push_str(if j == 0 {
                    "{\"nodes\": "
                } else {
                    ", {\"nodes\": "
                });
                push_uint(&mut out, p.nodes as u64);
                out.push_str(", \"isd_m\": ");
                push_fixed(&mut out, p.isd.value(), 0);
                out.push_str(", \"policy\": ");
                json_string(&mut out, &p.policy);
                out.push_str(", \"evaluator\": ");
                json_string(&mut out, p.evaluator);
                for (key, (v, decimals)) in FRONTIER_JSON_KEYS.into_iter().zip(frontier_numbers(p))
                {
                    out.push_str(key);
                    push_fixed(&mut out, v, decimals);
                }
                out.push_str(", ");
                pv_json(&mut out, p.pv);
                out.push('}');
            }
            out.push_str("]}");
            out
        }
    }
}

/// The five objective numbers of a frontier row, each with its
/// decimals.
fn frontier_numbers(p: &FrontierPoint) -> [(f64, usize); 5] {
    [
        (p.energy_wh_day_km, 3),
        (p.nodes_per_km, 4),
        (p.margin_db, 3),
        (p.saving_sleep_pct, 2),
        (p.repeater_wh_day, 3),
    ]
}

/// What precedes each of [`frontier_numbers`] in a JSON frontier point.
const FRONTIER_JSON_KEYS: [&str; 5] = [
    ", \"energy_wh_day_km\": ",
    ", \"nodes_per_km\": ",
    ", \"margin_db\": ",
    ", \"saving_sleep_pct\": ",
    ", \"repeater_wh_day\": ",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_spaces_differing_only_in_list_lengths_get_different_keys() {
        let cell = ScenarioGrid::new().cell_at(0).unwrap();
        let policies = vec![WakePolicy::instant(), WakePolicy::paper_default()];
        let space = SearchSpace::new()
            .node_counts((0..=5).collect())
            .wake_policies(policies.clone());
        let key = cache_key(&cell, &space);
        assert_eq!(key, cache_key(&cell, &space.clone()));
        let longer = space.clone().node_counts((0..=6).collect());
        assert_ne!(key, cache_key(&cell, &longer));
        let fewer = space.wake_policies(policies[..1].to_vec());
        assert_ne!(key, cache_key(&cell, &fewer));
    }

    #[test]
    fn cache_keys_are_those_of_the_budget_field_era() {
        // smoke-3 under `serve`'s optimize search space, as stored by a
        // cache that `serve` filled while every scenario carried a link
        // budget: the paper budget's six values still go into each key,
        // in the same order
        let grid = ScenarioGrid::smoke_3();
        let space = SearchSpace::new().node_counts((0..=6).collect());
        let mut keys: Vec<String> = (0..grid.len())
            .map(|i| cache_key(&grid.cell_at(i).unwrap(), &space))
            .collect();
        keys.sort();
        assert_eq!(
            keys,
            [
                "d10b48f9e606d9182181bc481e0a42c49943e10a0a120ffd0c2e9e26b8c45cba",
                "d6874e1311152bcd37f9e5e3ebd2bcc2a28a0830a85ddeb30d35882452f160a4",
                "df669c5fadcd4c31fe3a26ea59acc05852a79baffce6e369e74f44636e472b0d",
            ]
        );
    }

    fn quick_space() -> SearchSpace {
        // coarse sampling keeps debug-mode tests fast; boundaries are
        // insensitive to 5 m vs 10 m at a 50 m grid
        SearchSpace::new().sample_step(Meters::new(10.0))
    }

    #[test]
    fn space_defaults_and_accessors() {
        let space = SearchSpace::new();
        assert_eq!(space.candidates_per_cell(), 11);
        assert_eq!(space, SearchSpace::default());
        let wider = quick_space()
            .node_counts(vec![0, 8])
            .wake_policies(vec![WakePolicy::instant(), WakePolicy::paper_default()])
            .pv_sizing(true)
            .snr_threshold(Db::new(30.0))
            .isd_search(IsdSearch::model_paper_grid());
        assert_eq!(wider.candidates_per_cell(), 4);
        assert_eq!(wider.isd_search.label(), "model-grid");
        assert_eq!(IsdSearch::PaperTable.label(), "paper-table");
    }

    #[test]
    #[should_panic(expected = "node count axis must not be empty")]
    fn empty_count_axis_rejected() {
        let _ = SearchSpace::new().node_counts(Vec::new());
    }

    #[test]
    #[should_panic(expected = "wake policy axis must not be empty")]
    fn empty_policy_axis_rejected() {
        let _ = SearchSpace::new().wake_policies(Vec::new());
    }

    #[test]
    fn policy_labels() {
        assert_eq!(policy_label(&WakePolicy::instant()), "instant");
        assert_eq!(policy_label(&WakePolicy::paper_default()), "paper");
    }

    #[test]
    fn zero_workers_rejected() {
        let optimizer = DeploymentOptimizer::new().workers(0);
        let err = optimizer
            .run(&ScenarioGrid::new(), &quick_space())
            .unwrap_err();
        assert_eq!(err, ScenarioError::ZeroWorkers);
    }

    #[test]
    fn invalid_cell_propagates_scenario_error() {
        let grid = ScenarioGrid::new().conventional_isds_m(vec![0.0]);
        let err = DeploymentOptimizer::new()
            .workers(1)
            .run(&grid, &quick_space())
            .unwrap_err();
        assert_eq!(err, ScenarioError::NonPositiveIsd);
    }

    #[test]
    fn paper_table_frontier_holds_the_whole_monotone_chain() {
        // energy strictly decreases and node density strictly increases
        // with the count at the paper anchors, so every count is a
        // genuine trade-off and survives
        let report = DeploymentOptimizer::new()
            .workers(1)
            .run(&ScenarioGrid::new(), &quick_space())
            .unwrap();
        let frontier = report.results()[0].frontier();
        assert_eq!(frontier.len(), 11);
        let counts: Vec<usize> = frontier.iter().map(|p| p.nodes).collect();
        assert_eq!(counts, (0..=10).collect::<Vec<_>>());
        for pair in frontier.windows(2) {
            assert!(pair[0].energy_wh_day_km > pair[1].energy_wh_day_km);
            assert!(pair[0].nodes_per_km < pair[1].nodes_per_km);
        }
    }

    #[test]
    fn padded_wake_policies_are_dominated_at_equal_geometry() {
        // the paper policy burns strictly more energy at the same node
        // density and margin, so it cannot survive next to instant
        let space = quick_space()
            .node_counts(vec![8])
            .wake_policies(vec![WakePolicy::instant(), WakePolicy::paper_default()]);
        let report = DeploymentOptimizer::new()
            .workers(1)
            .run(&ScenarioGrid::new(), &space)
            .unwrap();
        let r = &report.results()[0];
        assert_eq!(r.evaluated(), 2);
        let frontier = r.frontier();
        assert_eq!(frontier.len(), 1);
        assert_eq!(frontier[0].policy, "instant");
        assert_eq!(frontier[0].evaluator, "analytic");
    }

    #[test]
    fn report_writers_roundtrip() {
        let report = DeploymentOptimizer::new()
            .workers(1)
            .run(&ScenarioGrid::new(), &quick_space().node_counts(vec![0, 8]))
            .unwrap();
        let csv = report.to_csv();
        assert!(csv.starts_with(OPTIMIZE_CSV_HEADER));
        assert_eq!(csv.lines().count(), 3); // header + two frontier rows
        for line in csv.lines().skip(1) {
            assert_eq!(
                line.split(',').count(),
                OPTIMIZE_CSV_HEADER.split(',').count(),
                "{line}"
            );
        }
        let json = StringSink::render(0, |s| report.stream_into(RowFormat::Json, s));
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("]\n"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
