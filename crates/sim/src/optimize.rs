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
//! [`CoverageCache`](corridor_deploy::CoverageCache) (each
//! `(layout, budget)` pair profiled once across the whole search),
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

use core::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

use corridor_core::margin::MarginModel;
use corridor_core::sink::{RowEmitter, RowFormat, RowSink, SinkResult, StringSink};
use corridor_core::{pareto, AnalyticEvaluator, EnergyStrategy, ScenarioError, SegmentEvaluator};
use corridor_deploy::{CoverageCache, IsdTable, LinkBudget, SegmentInventory};
use corridor_events::{EventDrivenEvaluator, NodeKind, WakePolicy};
use corridor_traffic::TrackSection;
use corridor_units::{Db, Meters};

use crate::cache::{KeyBuilder, ResultCache};
use crate::report::{csv_field, json_string};
use crate::sizing::{repeater_load, Sizer};
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

/// A short stable label for a wake policy in report columns.
fn policy_label(policy: &WakePolicy) -> String {
    if *policy == WakePolicy::instant() {
        "instant".to_owned()
    } else if *policy == WakePolicy::paper_default() {
        "paper".to_owned()
    } else {
        format!(
            "lead{:.1}s-wake{:.1}s-guard{:.1}s",
            policy.lead().value(),
            policy.wake_delay().value(),
            policy.guard().value()
        )
    }
}

/// One non-dominated deployment configuration of a cell.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierPoint {
    /// Service repeater count.
    pub nodes: usize,
    /// Deployment inter-site distance.
    pub isd: Meters,
    /// Wake-policy label (`instant`, `paper`, or the timing triple).
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
    cell: ScenarioCell,
    evaluated: usize,
    outcome: CellOutcome,
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

    /// The searched outcome.
    pub fn outcome(&self) -> &CellOutcome {
        &self.outcome
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
/// [`CoverageCache`](corridor_deploy::CoverageCache) per distinct link
/// budget, so the coverage question for a given `(n, isd, placement)`
/// is profiled once across the whole search instead of once per cell ×
/// policy × probe (the hot path of the naive per-step sweep). Results
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
        let caches = search
            .coverage
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        Ok(OptimizeReport {
            results,
            isd_search: space.isd_search.label(),
            lookups: caches.iter().map(|(_, cache)| cache.lookups()).sum(),
            profile_evaluations: caches
                .iter()
                .map(|(_, cache)| cache.profile_evaluations())
                .sum(),
        })
    }

    /// Streams the whole grid into `sink` in grid order without
    /// materializing the report; the emitted bytes are identical to
    /// [`DeploymentOptimizer::run`] + [`OptimizeReport::to_csv`] /
    /// [`OptimizeReport::to_json`].
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
    /// ISD mode, policies, threshold, sampling step, link budget).
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
    /// without header or framing (the `serve` shard primitive). Workers
    /// share one lazily built [`CoverageCache`] per distinct link
    /// budget, exactly like [`DeploymentOptimizer::run`].
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
        self.stream_rows_in(&EvalContext::new(), grid, space, range, format, cache, emit)
    }

    /// [`DeploymentOptimizer::stream_rows`] through the caller's
    /// [`EvalContext`]: PV sizing outcomes the context already holds
    /// are reused, new ones are kept in it. The rows are byte-identical
    /// to a fresh context's.
    ///
    /// # Panics
    ///
    /// Panics if `range` reaches past the grid's length.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DeploymentOptimizer::stream_rows`].
    #[allow(clippy::too_many_arguments)]
    pub fn stream_rows_in(
        &self,
        context: &EvalContext,
        grid: &ScenarioGrid,
        space: &SearchSpace,
        range: core::ops::Range<usize>,
        format: RowFormat,
        cache: Option<&ResultCache>,
        emit: impl FnMut(&str) -> Result<(), StreamError>,
    ) -> Result<StreamSummary, StreamError> {
        stream::stream_rows(
            &grid_search(grid, space, context),
            self.workers,
            range,
            format,
            cache,
            emit,
        )
    }
}

impl Default for DeploymentOptimizer {
    /// Returns [`DeploymentOptimizer::new`].
    fn default() -> Self {
        DeploymentOptimizer::new()
    }
}

/// One shared coverage cache per distinct link budget, created lazily
/// by whichever worker first needs it.
pub(crate) type CoverageCaches = Mutex<Vec<(LinkBudget, Arc<CoverageCache>)>>;

/// Finds or lazily creates the shared coverage cache for a cell's link
/// budget, so every cell searched against the same budget shares SNR
/// profiles.
pub(crate) fn shared_cache(
    caches: &CoverageCaches,
    cell: &ScenarioCell,
    space: &SearchSpace,
) -> Arc<CoverageCache> {
    let mut caches = caches.lock().unwrap_or_else(PoisonError::into_inner);
    let budget = cell.params().budget();
    match caches.iter().find(|(b, _)| b == budget) {
        Some((_, shared)) => Arc::clone(shared),
        None => {
            let shared = Arc::new(CoverageCache::with_sample_step(
                budget.clone(),
                space.sample_step,
            ));
            caches.push((budget.clone(), Arc::clone(&shared)));
            shared
        }
    }
}

/// The deployment search's per-cell work over any cell source: grid
/// cells for the [`DeploymentOptimizer`], edge cells for the
/// [`NetworkOptimizer`](crate::NetworkOptimizer).
pub(crate) struct SearchJob<'a, F> {
    cells: usize,
    cell_at: F,
    space: &'a SearchSpace,
    /// The coverage caches the search has built so far.
    pub(crate) coverage: CoverageCaches,
    /// PV sizing through the search's context.
    sizing: Sizer<'a>,
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
            coverage: Mutex::new(Vec::new()),
            sizing: context.paper_sizer(),
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
        let coverage = shared_cache(&self.coverage, &cell, self.space);
        evaluate_cell(&cell, &coverage, &self.sizing, self.space)
    }

    fn render(&self, result: &OptimizeCellResult, format: RowFormat) -> String {
        render_optimize_row(result, self.space.isd_search.label(), format)
    }
}

/// The deployment search over every cell of `grid`.
fn grid_search<'a>(
    grid: &'a ScenarioGrid,
    space: &'a SearchSpace,
    context: &'a EvalContext,
) -> SearchJob<'a, impl Fn(usize) -> Result<ScenarioCell, ScenarioError> + Sync + 'a> {
    SearchJob::new(grid.len(), move |index| grid.cell_at(index), space, context)
}

/// The scenario hash of one cell under a whole search space. Beyond the
/// common cell fingerprint this folds in every search axis and the link
/// budget's coverage-relevant parameters — perturbing the SNR threshold
/// or a wake policy dirties every cell, while perturbing one grid axis
/// dirties exactly the cells on it.
fn cache_key(cell: &ScenarioCell, space: &SearchSpace) -> String {
    let mut key = KeyBuilder::new("optimize");
    for &count in &space.node_counts {
        key.int("n", count as u64);
    }
    key.text("isd_search", space.isd_search.label());
    if let IsdSearch::ModelGrid { min, max, step } = space.isd_search {
        key.f64("isd_min", min.value())
            .f64("isd_max", max.value())
            .f64("isd_step", step.value());
    }
    for policy in &space.wake_policies {
        key.f64("lead", policy.lead().value())
            .f64("wake", policy.wake_delay().value())
            .f64("guard", policy.guard().value());
    }
    key.int("pv", u64::from(space.pv_sizing))
        .f64("snr", space.snr_threshold.value())
        .f64("step", space.sample_step.value());
    let budget = cell.params().budget();
    key.f64("freq", budget.frequency().value())
        .f64("hp_eirp", budget.hp_eirp().value())
        .f64("lp_eirp", budget.lp_eirp().value())
        .f64("hp_cal", budget.hp_calibration().value())
        .f64("lp_cal", budget.lp_calibration().value())
        .f64("noise", budget.noise_floor().value());
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
    sizing: &Sizer<'_>,
    space: &SearchSpace,
) -> OptimizeCellResult {
    let params = cell.params();
    let placement = params.placement();
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
            let backend = EventDrivenEvaluator::with_policy(*policy);
            let report = backend.simulate_segment(params, 0, params.conventional_isd(), &passes);
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
                let report = backend.simulate_segment(params, n, isd, &passes);
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
pub const OPTIMIZE_CSV_HEADER: &str = "cell,trains_per_hour,service_window_h,train_speed_kmh,\
train_length_m,lp_spacing_m,conventional_isd_m,power_profile,climate,isd_search,status,\
nodes,isd_m,policy,evaluator,energy_wh_day_km,nodes_per_km,margin_db,saving_sleep_pct,\
repeater_wh_day,pv_wp,battery_wh,days_full_pct";

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
    /// returning the cell count; byte-identical to
    /// [`OptimizeReport::to_csv`] / [`OptimizeReport::to_json`]. A CSV
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

    /// Renders the report as a JSON array of cell objects, each with
    /// its status and frontier.
    pub fn to_json(&self) -> String {
        StringSink::render(64 + 320 * self.frontier_points().max(1), |sink| {
            self.stream_into(RowFormat::Json, sink)
        })
    }

    /// Writes [`OptimizeReport::to_csv`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_csv<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        std::fs::write(path, self.to_csv())
    }

    /// Writes [`OptimizeReport::to_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_json<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        std::fs::write(path, self.to_json())
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
    let c = r.cell();
    match format {
        RowFormat::Csv => {
            let mut out = String::with_capacity(160 * r.frontier().len().max(1));
            let mut prefix = String::new();
            let _ = write!(
                prefix,
                "{},{},{},{:.1},{},{},{},{},{},{}",
                c.index(),
                c.trains_per_hour(),
                c.service_window_h(),
                c.train_speed_kmh(),
                c.train_length_m(),
                c.lp_spacing_m(),
                c.conventional_isd_m(),
                csv_field(c.profile_name()),
                csv_field(c.location().name()),
                isd_search,
            );
            if r.is_unsolvable() {
                let _ = writeln!(out, "{prefix},unsolvable,-,-,-,-,-,-,-,-,-,-,-,-");
                return out;
            }
            for p in r.frontier() {
                let (pv_wp, battery_wh, days_full) = match p.pv {
                    PvOutcome::Skipped => (String::new(), String::new(), String::new()),
                    PvOutcome::Unsolvable => ("-".into(), "-".into(), "-".into()),
                    PvOutcome::Sized {
                        pv_wp,
                        battery_wh,
                        days_full_pct,
                    } => (
                        format!("{pv_wp:.0}"),
                        format!("{battery_wh:.0}"),
                        format!("{days_full_pct:.2}"),
                    ),
                };
                let _ = writeln!(
                    out,
                    "{prefix},frontier,{},{:.0},{},{},{:.3},{:.4},{:.3},{:.2},{:.3},{pv_wp},{battery_wh},{days_full}",
                    p.nodes,
                    p.isd.value(),
                    csv_field(&p.policy),
                    p.evaluator,
                    p.energy_wh_day_km,
                    p.nodes_per_km,
                    p.margin_db,
                    p.saving_sleep_pct,
                    p.repeater_wh_day,
                );
            }
            out
        }
        RowFormat::Json => {
            let mut out = String::with_capacity(320 * r.frontier().len().max(1));
            out.push_str("  {");
            let _ = write!(
                out,
                "\"cell\": {}, \"trains_per_hour\": {}, \"service_window_h\": {}, \
                 \"train_speed_kmh\": {:.1}, \"train_length_m\": {}, \"lp_spacing_m\": {}, \
                 \"conventional_isd_m\": {}, \"power_profile\": {}, \"climate\": {}, \
                 \"isd_search\": {}, \"status\": {}, \"frontier\": [",
                c.index(),
                c.trains_per_hour(),
                c.service_window_h(),
                c.train_speed_kmh(),
                c.train_length_m(),
                c.lp_spacing_m(),
                c.conventional_isd_m(),
                json_string(c.profile_name()),
                json_string(c.location().name()),
                json_string(isd_search),
                json_string(if r.is_unsolvable() {
                    "unsolvable"
                } else {
                    "frontier"
                }),
            );
            for (j, p) in r.frontier().iter().enumerate() {
                let _ = write!(
                    out,
                    "{}{{\"nodes\": {}, \"isd_m\": {:.0}, \"policy\": {}, \"evaluator\": {}, \
                     \"energy_wh_day_km\": {:.3}, \"nodes_per_km\": {:.4}, \"margin_db\": {:.3}, \
                     \"saving_sleep_pct\": {:.2}, \"repeater_wh_day\": {:.3}, ",
                    if j == 0 { "" } else { ", " },
                    p.nodes,
                    p.isd.value(),
                    json_string(&p.policy),
                    json_string(p.evaluator),
                    p.energy_wh_day_km,
                    p.nodes_per_km,
                    p.margin_db,
                    p.saving_sleep_pct,
                    p.repeater_wh_day,
                );
                match p.pv {
                    PvOutcome::Skipped => out.push_str("\"pv_status\": \"skipped\"}"),
                    PvOutcome::Unsolvable => out.push_str("\"pv_status\": \"unsolvable\"}"),
                    PvOutcome::Sized {
                        pv_wp,
                        battery_wh,
                        days_full_pct,
                    } => {
                        let _ = write!(
                            out,
                            "\"pv_status\": \"sized\", \"pv_wp\": {pv_wp:.0}, \
                             \"battery_wh\": {battery_wh:.0}, \"days_full_pct\": {days_full_pct:.2}}}"
                        );
                    }
                }
            }
            out.push_str("]}");
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let custom = WakePolicy::new(
            corridor_units::Seconds::new(2.0),
            corridor_units::Seconds::new(0.5),
            corridor_units::Seconds::new(1.0),
        );
        assert_eq!(policy_label(&custom), "lead2.0s-wake0.5s-guard1.0s");
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
        let grid = ScenarioGrid::new().lp_spacings_m(vec![0.0]);
        let err = DeploymentOptimizer::new()
            .workers(1)
            .run(&grid, &quick_space())
            .unwrap_err();
        assert_eq!(err, ScenarioError::NonPositiveSpacing);
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
        let json = report.to_json();
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("]\n"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());

        let dir = std::env::temp_dir();
        let csv_path = dir.join("corridor_sim_optimize_test.csv");
        let json_path = dir.join("corridor_sim_optimize_test.json");
        report.write_csv(&csv_path).unwrap();
        report.write_json(&json_path).unwrap();
        assert_eq!(std::fs::read_to_string(&csv_path).unwrap(), csv);
        assert_eq!(std::fs::read_to_string(&json_path).unwrap(), json);
        let _ = std::fs::remove_file(csv_path);
        let _ = std::fs::remove_file(json_path);
    }
}
