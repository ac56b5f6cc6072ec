//! Sweep execution: the closed-form energy split and PV sizing of every
//! grid cell.

use core::ops::Range;

use corridor_core::energy::{self, SegmentEnergy};
use corridor_core::sink::{RowFormat, RowSink};
use corridor_core::{EnergyStrategy, ScenarioError, ScenarioParams};
use corridor_traffic::TrackSection;
use corridor_units::{Hours, Meters};

use crate::cache::{KeyBuilder, ResultCache};
use crate::report::{render_sweep_row, CSV_HEADER};
use crate::sizing::{repeater_load, SizingMemo};
use crate::stream::{self, CellJob, StreamError, StreamSummary};
use crate::{CellResult, EvalContext, PvOutcome, ScenarioCell, ScenarioGrid, SweepReport};

/// Evaluates one cell's baseline and the three strategy splits through
/// the closed-form model, in `[baseline, continuous, sleep, solar]`
/// order. Each geometry's activity hours are looked up once, and the
/// deployment's service hours come from `service_active`.
fn splits(cell: &ScenarioCell, service_active: Hours) -> [SegmentEnergy; 4] {
    let params = cell.params();
    let baseline_isd = params.conventional_isd();
    let hp_active = |isd| energy::active_hours(params, TrackSection::new(Meters::ZERO, isd));
    let baseline_hp = hp_active(baseline_isd);
    let baseline_service = energy::active_hours(params, service_section(params, baseline_isd));
    let deployment_hp = hp_active(cell.isd());
    let at = |strategy| {
        energy::split_from_active_hours(
            params,
            cell.nodes(),
            cell.isd(),
            strategy,
            deployment_hp,
            service_active,
        )
    };
    [
        energy::split_from_active_hours(
            params,
            0,
            baseline_isd,
            EnergyStrategy::SleepModeRepeaters,
            baseline_hp,
            baseline_service,
        ),
        at(EnergyStrategy::ContinuousRepeaters),
        at(EnergyStrategy::SleepModeRepeaters),
        at(EnergyStrategy::SolarPoweredRepeaters),
    ]
}

/// Executes a [`ScenarioGrid`], cell by cell, on one or more worker
/// threads.
///
/// Each cell is evaluated independently (energy split for the three
/// strategies through the paper's closed-form duty-cycle model, savings
/// versus the cell's conventional baseline, and — unless disabled — the
/// off-grid PV sizing for the cell's climate), so every worker count
/// produces identical results, in the same deterministic grid order.
/// The event-driven backend
/// ([`EventDrivenEvaluator`](corridor_events::EventDrivenEvaluator))
/// agrees with every cell to < 0.1 %, which the differential suite
/// checks cell by cell.
///
/// # Examples
///
/// ```
/// use corridor_core::{EnergyStrategy, ScenarioParams, SegmentEvaluator};
/// use corridor_events::EventDrivenEvaluator;
/// use corridor_sim::{ScenarioGrid, SweepEngine};
///
/// let engine = SweepEngine::new().workers(2).pv_sizing(false);
/// let report = engine.run(&ScenarioGrid::new()).unwrap();
/// // the paper's 74 % sleep-mode saving, via the sweep path
/// let cell = &report.results()[0];
/// let saving = cell.savings(EnergyStrategy::SleepModeRepeaters);
/// assert!((saving - 0.74).abs() < 0.01);
///
/// // the event-driven backend simulates the same cell's day
/// let params = ScenarioParams::paper_default();
/// let simulated = EventDrivenEvaluator::new().average_power_per_km(
///     &params,
///     cell.cell().nodes(),
///     cell.cell().isd(),
///     EnergyStrategy::SleepModeRepeaters,
/// );
/// let sleep = cell.split(EnergyStrategy::SleepModeRepeaters).total();
/// assert!((simulated.total().value() / sleep.value() - 1.0).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepEngine {
    workers: Option<usize>,
    pv_sizing: bool,
}

impl SweepEngine {
    /// An engine with automatic worker count and PV sizing enabled.
    pub fn new() -> Self {
        SweepEngine {
            workers: None,
            pv_sizing: true,
        }
    }

    /// Sets an explicit worker count.
    ///
    /// An explicit `0` is rejected by [`SweepEngine::run`] with
    /// [`ScenarioError::ZeroWorkers`] — it used to be silently
    /// reinterpreted as "automatic", which hid configuration bugs. Omit
    /// the call (or rebuild the engine) for automatic machine
    /// parallelism.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Enables or disables the per-cell PV sizing (the expensive step:
    /// three seeded weather years per candidate configuration).
    #[must_use]
    pub fn pv_sizing(mut self, enabled: bool) -> Self {
        self.pv_sizing = enabled;
        self
    }

    /// Evaluates every cell of the grid on the worker threads.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::ZeroWorkers`] if an explicit worker
    /// count of zero was configured, or the [`ScenarioError`] of the
    /// first cell whose parameters fail validation.
    pub fn run(&self, grid: &ScenarioGrid) -> Result<SweepReport, ScenarioError> {
        let context = EvalContext::new();
        Ok(SweepReport::new(stream::collect(
            &self.job(grid, &context),
            self.workers,
        )?))
    }

    /// Streams the whole grid into `sink` in grid order without ever
    /// materializing the report: memory stays flat however many cells
    /// the grid spans, and the emitted bytes are identical to
    /// [`SweepEngine::run`] + [`SweepReport::stream_into`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`SweepEngine::run`], plus
    /// [`StreamError::Sink`] if the sink refuses a row.
    pub fn stream(
        &self,
        grid: &ScenarioGrid,
        format: RowFormat,
        sink: &mut dyn RowSink,
    ) -> Result<StreamSummary, StreamError> {
        self.stream_with(grid, format, sink, None)
    }

    /// [`SweepEngine::stream`] with an optional [`ResultCache`]: cells
    /// whose scenario hash already has a stored row are emitted without
    /// re-evaluation, and freshly computed rows are persisted.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SweepEngine::stream`].
    pub fn stream_with(
        &self,
        grid: &ScenarioGrid,
        format: RowFormat,
        sink: &mut dyn RowSink,
        cache: Option<&ResultCache>,
    ) -> Result<StreamSummary, StreamError> {
        let context = EvalContext::new();
        stream::stream(&self.job(grid, &context), self.workers, format, sink, cache)
    }

    /// Streams the raw rows of a cell range to `emit`, without header or
    /// framing, through a fresh [`EvalContext`]. Rows arrive in grid
    /// order. [`RowEngine::stream_rows`](crate::RowEngine::stream_rows)
    /// streams the same rows through the caller's context.
    ///
    /// # Panics
    ///
    /// Panics if `range` reaches past the grid's length (a caller bug,
    /// like any out-of-range index).
    ///
    /// # Errors
    ///
    /// Same conditions as [`SweepEngine::stream`]; an `Err` from `emit`
    /// cancels the remaining evaluation and is returned.
    pub fn stream_rows(
        &self,
        grid: &ScenarioGrid,
        range: Range<usize>,
        format: RowFormat,
        cache: Option<&ResultCache>,
        emit: impl FnMut(&str) -> Result<(), StreamError>,
    ) -> Result<StreamSummary, StreamError> {
        let context = EvalContext::new();
        stream::stream_rows(
            &self.job(grid, &context),
            self.workers,
            range,
            format,
            cache,
            emit,
        )
    }

    /// The engine's per-cell work over `grid`, sizing through `context`.
    pub(crate) fn job<'a>(
        &'a self,
        grid: &'a ScenarioGrid,
        context: &'a EvalContext,
    ) -> SweepJob<'a> {
        SweepJob {
            engine: self,
            grid,
            sizing: context.sizing(),
        }
    }

    /// The scenario hash of one cell under this engine's configuration.
    fn cache_key(&self, cell: &ScenarioCell) -> String {
        let mut key = KeyBuilder::new("sweep");
        // the backend label every stored sweep key starts with, kept so
        // caches filled while the sweep could select a backend still hit
        key.text("analytic");
        key.int(u64::from(self.pv_sizing));
        key.cell(cell);
        key.finish()
    }

    /// Evaluates one cell: the closed-form energy splits and, unless
    /// disabled, the PV sizing of one service repeater at the cell's
    /// deployment ISD.
    pub fn evaluate(&self, cell: &ScenarioCell) -> CellResult {
        self.evaluate_with(cell, EvalContext::new().sizing())
    }

    /// [`SweepEngine::evaluate`] through the run's sizing memo.
    fn evaluate_with(&self, cell: &ScenarioCell, sizing: &SizingMemo) -> CellResult {
        let params = cell.params();
        // the deployment's service-node hours drive both the analytic
        // split and the PV load: one memo lookup serves the two
        let service_active = energy::active_hours(params, service_section(params, cell.isd()));
        let [baseline, continuous, sleep, solar] = splits(cell, service_active);
        let pv = if self.pv_sizing {
            sizing.size(
                cell.location(),
                repeater_load(params, service_active.value()),
            )
        } else {
            PvOutcome::Skipped
        };
        CellResult::new(cell.clone(), baseline, continuous, sleep, solar, pv)
    }
}

/// The coverage section of the service repeater in the middle of an
/// `isd`-long segment. Its occupancy also sizes the off-grid PV system
/// of one service repeater at that ISD: the node sleeps through the
/// night pause and serves train bursts during the service window (the
/// paper's Table IV methodology, generalized to the given timetable,
/// equipment and deployment geometry).
fn service_section(params: &ScenarioParams, isd: Meters) -> TrackSection {
    TrackSection::around(isd / 2.0, params.lp_spacing())
}

impl Default for SweepEngine {
    /// Returns [`SweepEngine::new`].
    fn default() -> Self {
        SweepEngine::new()
    }
}

/// The sweep's per-cell work for the shared drivers.
pub(crate) struct SweepJob<'a> {
    engine: &'a SweepEngine,
    grid: &'a ScenarioGrid,
    /// PV sizing through the run's context.
    sizing: &'a SizingMemo,
}

impl CellJob for SweepJob<'_> {
    type Cell = ScenarioCell;
    type Output = CellResult;
    /// An analytic cell is cheap; 64 of them make a work item worth the
    /// hand-off to a worker.
    const CHUNK: usize = 64;
    const HEADER: &'static str = CSV_HEADER;

    fn cells(&self) -> usize {
        self.grid.len()
    }

    fn cell(&self, index: usize) -> Result<ScenarioCell, ScenarioError> {
        self.grid.cell_at(index)
    }

    fn cache_key(&self, cell: &ScenarioCell) -> Option<String> {
        Some(self.engine.cache_key(cell))
    }

    fn evaluate(&self, cell: ScenarioCell) -> CellResult {
        self.engine.evaluate_with(&cell, self.sizing)
    }

    fn render(&self, result: &CellResult, format: RowFormat) -> String {
        render_sweep_row(result, format)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corridor_core::sink::StringSink;
    use corridor_core::{experiments, ScenarioParams};
    use corridor_solar::climate;

    #[test]
    fn paper_cell_reproduces_headline_savings() {
        let report = SweepEngine::new()
            .workers(1)
            .pv_sizing(false)
            .run(&ScenarioGrid::new())
            .unwrap();
        let h = experiments::headline_numbers(&ScenarioParams::paper_default());
        let r = &report.results()[0];
        assert!((r.savings(EnergyStrategy::SleepModeRepeaters) - h.savings_sleep_10).abs() < 1e-12);
        assert!(
            (r.savings(EnergyStrategy::SolarPoweredRepeaters) - h.savings_solar_10).abs() < 1e-12
        );
    }

    #[test]
    fn paper_cell_pv_sizing_matches_table4_berlin() {
        // default grid = Berlin climate; Table IV: 600 Wp / 1440 Wh
        let report = SweepEngine::new()
            .workers(1)
            .run(&ScenarioGrid::new())
            .unwrap();
        match report.results()[0].pv() {
            PvOutcome::Sized {
                pv_wp,
                battery_wh,
                days_full_pct,
            } => {
                assert_eq!(pv_wp, 600.0);
                assert_eq!(battery_wh, 1440.0);
                assert!(days_full_pct > 85.0);
            }
            other => panic!("expected sized outcome, got {other:?}"),
        }
    }

    #[test]
    fn a_sunless_site_is_unsolvable() {
        // no ladder candidate carries the repeater through a polar year
        let polar = corridor_solar::Location::new("polar", 70.0, [0.01; 12], [-10.0; 12]);
        let grid = ScenarioGrid::new().locations(vec![polar]);
        let report = SweepEngine::new().workers(1).run(&grid).unwrap();
        assert_eq!(report.results()[0].pv(), PvOutcome::Unsolvable);
    }

    #[test]
    fn parallel_matches_serial_on_a_mixed_grid() {
        let grid = ScenarioGrid::new()
            .trains_per_hour(vec![4.0, 8.0])
            .train_speeds_kmh(vec![160.0, 200.0])
            .locations(vec![climate::madrid(), climate::berlin()]);
        let engine = SweepEngine::new().pv_sizing(false);
        let serial = engine.workers(1).run(&grid).unwrap();
        let parallel = engine.workers(4).run(&grid).unwrap();
        assert_eq!(serial.results(), parallel.results());
    }

    #[test]
    fn strategy_ordering_holds_across_the_screening_grid() {
        let report = SweepEngine::new()
            .pv_sizing(false)
            .run(&ScenarioGrid::screening_200())
            .unwrap();
        assert_eq!(report.len(), 200);
        for r in report.results() {
            let c = r.split(EnergyStrategy::ContinuousRepeaters).total();
            let s = r.split(EnergyStrategy::SleepModeRepeaters).total();
            let z = r.split(EnergyStrategy::SolarPoweredRepeaters).total();
            assert!(c > s, "{}", r.cell());
            assert!(s > z, "{}", r.cell());
        }
    }

    #[test]
    fn explicit_zero_workers_is_rejected() {
        let engine = SweepEngine::new().workers(0).pv_sizing(false);
        let err = engine.run(&ScenarioGrid::new()).unwrap_err();
        assert_eq!(err, ScenarioError::ZeroWorkers);
        // the streaming path rejects the same misconfiguration
        let mut sink = StringSink::default();
        let err = engine
            .stream(&ScenarioGrid::new(), RowFormat::Csv, &mut sink)
            .unwrap_err();
        assert!(matches!(
            err,
            StreamError::Scenario(ScenarioError::ZeroWorkers)
        ));
        // automatic parallelism (no explicit count) still works
        assert!(SweepEngine::new()
            .pv_sizing(false)
            .run(&ScenarioGrid::new())
            .is_ok());
    }

    /// Every field of a result, with the PV percentage compared as bits.
    fn assert_bit_equal(memoized: &CellResult, fresh: &CellResult) {
        assert_eq!(memoized, fresh);
        if let (
            PvOutcome::Sized {
                days_full_pct: a, ..
            },
            PvOutcome::Sized {
                days_full_pct: b, ..
            },
        ) = (memoized.pv(), fresh.pv())
        {
            assert_eq!(a.to_bits(), b.to_bits(), "{}", memoized.cell());
        }
    }

    #[test]
    fn memoized_runs_equal_per_cell_evaluation() {
        let engine = SweepEngine::new().workers(2);
        for grid in [
            ScenarioGrid::screening_200(),
            ScenarioGrid::by_name("mixed-8").expect("mixed-8 is a named grid"),
        ] {
            let report = engine.run(&grid).expect("valid grid");
            assert_eq!(report.len(), grid.len());
            for (index, memoized) in report.results().iter().enumerate() {
                let cell = grid.cell_at(index).expect("valid cell");
                assert_bit_equal(memoized, &engine.evaluate(&cell));
            }
        }
    }

    #[test]
    fn a_screening_chunk_sizes_each_distinct_key_once() {
        let grid = ScenarioGrid::screening_200();
        let engine = SweepEngine::new();
        let context = EvalContext::new();
        let job = engine.job(&grid, &context);
        let mut keys = Vec::new();
        for index in 0..64 {
            let cell = job.cell(index).expect("valid cell");
            let params = cell.params();
            let active_h = energy::active_hours(params, service_section(params, cell.isd()));
            let key = (
                cell.location().clone(),
                repeater_load(params, active_h.value()),
            );
            if !keys.contains(&key) {
                keys.push(key);
            }
            job.evaluate(cell);
        }
        assert_eq!(context.sizing_searches(), keys.len() as u64);
        assert!(keys.len() < 64, "{} keys", keys.len());
    }

    /// Every result of `grid` through `context`, on two workers.
    fn run_in(engine: &SweepEngine, grid: &ScenarioGrid, context: &EvalContext) -> Vec<CellResult> {
        stream::collect(&engine.job(grid, context), Some(2)).expect("valid grid")
    }

    #[test]
    fn a_second_run_through_one_context_runs_no_search() {
        let grid = ScenarioGrid::screening_200();
        let engine = SweepEngine::new();
        let fresh = engine.run(&grid).expect("valid grid");
        let context = EvalContext::new();
        let cold = run_in(&engine, &grid, &context);
        let searches = context.sizing_searches();
        // one search per distinct (location, load) key of the grid
        assert_eq!(searches, 38);
        assert_eq!(context.sizing_entries(), 38);
        let warm = run_in(&engine, &grid, &context);
        assert_eq!(context.sizing_searches(), searches, "the warm run searched");
        for ((cold, warm), fresh) in cold.iter().zip(&warm).zip(fresh.results()) {
            assert_bit_equal(cold, fresh);
            assert_bit_equal(warm, fresh);
        }
    }

    #[test]
    fn a_tiny_context_evicts_without_changing_a_result() {
        let grid = ScenarioGrid::screening_200();
        let engine = SweepEngine::new();
        let fresh = engine.run(&grid).expect("valid grid");
        let context = EvalContext::with_sizing_capacity(3);
        let job = engine.job(&grid, &context);
        for (index, fresh) in fresh.results().iter().enumerate() {
            let result = job.evaluate(job.cell(index).expect("valid cell"));
            assert_bit_equal(&result, fresh);
            assert!(context.sizing_entries() <= 3, "cell {index}");
        }
        assert!(context.sizing_searches() > 38, "nothing was evicted");
        let parallel = run_in(&engine, &grid, &context);
        assert!(context.sizing_entries() <= 3);
        for (result, fresh) in parallel.iter().zip(fresh.results()) {
            assert_bit_equal(result, fresh);
        }
    }

    #[test]
    fn cache_keys_are_those_of_the_evaluator_field_era() {
        // smoke-3 with PV sizing, as stored by a cache that `serve`
        // filled while the sweep carried a backend switch
        let grid = ScenarioGrid::smoke_3();
        let mut keys: Vec<String> = (0..grid.len())
            .map(|i| SweepEngine::new().cache_key(&grid.cell_at(i).unwrap()))
            .collect();
        keys.sort();
        assert_eq!(
            keys,
            [
                "0a817a390db388ce49586ecd8e6a4b3008502973c0ccd7d59e0a19f0ad55d17d",
                "7b3f1138c28f75fd2e2fe4bb3a5d326d0a0216dd6e63c8c7160ca0aca6bdbb6f",
                "a0f404cb287c229149f519c6d088a5d470033314aad76e0e032461d9e7e49cd7",
            ]
        );
    }
}
