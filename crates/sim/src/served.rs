//! The one entry a row service runs every task through.
//!
//! `serve` names no engine: its request word becomes a [`RowEngine`],
//! and each worker streams its chunk of cells through
//! [`RowEngine::stream_rows`] with the [`EvalContext`] it keeps for the
//! session. The configuration each engine serves is fixed here.

use core::ops::Range;

use corridor_core::sink::RowFormat;

use crate::optimize::grid_search;
use crate::stream::{self, StreamError, StreamSummary};
use crate::{
    EvalContext, McEngine, ReplicationPlan, ResultCache, ScenarioGrid, SearchSpace, SweepEngine,
    CSV_HEADER, MC_CSV_HEADER, OPTIMIZE_CSV_HEADER,
};

/// An engine served by its request word, in its fixed served
/// configuration.
///
/// # Examples
///
/// ```
/// use corridor_sim::RowEngine;
///
/// let engine = RowEngine::from_label("mc").unwrap();
/// assert_eq!(engine, RowEngine::Mc);
/// assert_eq!(engine.label(), "mc");
/// assert!(RowEngine::from_label("network").is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowEngine {
    /// [`SweepEngine::new`]: analytic backend, PV sizing on.
    Sweep,
    /// [`McEngine::new`] over the caller's [`ReplicationPlan`].
    Mc,
    /// [`DeploymentOptimizer::new`](crate::DeploymentOptimizer::new)
    /// over 0–6 repeaters at the default ISD resolution: the quick
    /// space the optimizer determinism suite pins.
    Optimize,
}

impl RowEngine {
    /// The engine a request word names, or `None` for any other word.
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "sweep" => Some(RowEngine::Sweep),
            "mc" => Some(RowEngine::Mc),
            "optimize" => Some(RowEngine::Optimize),
            _ => None,
        }
    }

    /// The engine's request word.
    pub fn label(self) -> &'static str {
        match self {
            RowEngine::Sweep => "sweep",
            RowEngine::Mc => "mc",
            RowEngine::Optimize => "optimize",
        }
    }

    /// The CSV header of the engine's framed stream.
    pub fn csv_header(self) -> &'static str {
        match self {
            RowEngine::Sweep => CSV_HEADER,
            RowEngine::Mc => MC_CSV_HEADER,
            RowEngine::Optimize => OPTIMIZE_CSV_HEADER,
        }
    }

    /// Streams the raw rows of the cells in `range` to `emit` on the
    /// calling thread, sizing PV through `context`. `plan` configures
    /// [`RowEngine::Mc`]; the other engines ignore it. The rows are
    /// byte-identical to the engine's fresh `stream_rows`, however warm
    /// `context` is.
    ///
    /// # Panics
    ///
    /// Panics if `range` reaches past the grid's length.
    ///
    /// # Errors
    ///
    /// The [`StreamError::Scenario`] of the first cell in `range` whose
    /// parameters fail validation; an `Err` from `emit` cancels the
    /// remaining evaluation and is returned.
    #[allow(clippy::too_many_arguments)]
    pub fn stream_rows(
        self,
        context: &EvalContext,
        grid: &ScenarioGrid,
        plan: &ReplicationPlan,
        range: Range<usize>,
        format: RowFormat,
        cache: Option<&ResultCache>,
        emit: impl FnMut(&str) -> Result<(), StreamError>,
    ) -> Result<StreamSummary, StreamError> {
        match self {
            RowEngine::Sweep => {
                let engine = SweepEngine::new();
                let job = engine.job(grid, context);
                stream::stream_rows(&job, Some(1), range, format, cache, emit)
            }
            RowEngine::Mc => McEngine::new()
                .workers(1)
                .stream_rows(grid, plan, range, format, cache, emit),
            RowEngine::Optimize => {
                let space = SearchSpace::new().node_counts((0..=6).collect());
                let job = grid_search(grid, &space, context);
                stream::stream_rows(&job, Some(1), range, format, cache, emit)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use corridor_core::sink::{RowEmitter, StringSink};

    use super::*;
    use crate::DeploymentOptimizer;

    const ENGINES: [RowEngine; 3] = [RowEngine::Sweep, RowEngine::Mc, RowEngine::Optimize];

    /// The engine's framed stream over the whole grid, on a fresh context.
    fn fresh(
        engine: RowEngine,
        grid: &ScenarioGrid,
        plan: &ReplicationPlan,
        format: RowFormat,
    ) -> String {
        let mut sink = StringSink::default();
        match engine {
            RowEngine::Sweep => SweepEngine::new().stream(grid, format, &mut sink),
            RowEngine::Mc => McEngine::new().stream(grid, plan, format, &mut sink),
            RowEngine::Optimize => {
                let space = SearchSpace::new().node_counts((0..=6).collect());
                DeploymentOptimizer::new().stream(grid, &space, format, &mut sink)
            }
        }
        .expect("valid grid");
        sink.into_string()
    }

    /// The grid's rows through `context`, streamed over two split ranges
    /// and framed with the engine's header.
    fn split(
        engine: RowEngine,
        context: &EvalContext,
        grid: &ScenarioGrid,
        plan: &ReplicationPlan,
        format: RowFormat,
    ) -> String {
        let mut sink = StringSink::default();
        let mut rows = RowEmitter::begin(&mut sink, format, engine.csv_header()).unwrap();
        for range in [0..1, 1..grid.len()] {
            engine
                .stream_rows(context, grid, plan, range, format, None, |row| {
                    rows.row(row).map_err(StreamError::Sink)
                })
                .expect("valid grid");
        }
        rows.finish().unwrap();
        sink.into_string()
    }

    #[test]
    fn split_ranges_through_one_context_equal_each_fresh_stream() {
        let grid = ScenarioGrid::by_name("smoke-3").expect("a named grid");
        let plan = ReplicationPlan::new(2).master_seed(9);
        let context = EvalContext::new();
        for engine in ENGINES {
            for format in [RowFormat::Csv, RowFormat::Json] {
                let expected = fresh(engine, &grid, &plan, format);
                let cold = split(engine, &context, &grid, &plan, format);
                assert_eq!(cold, expected, "{} {format:?}", engine.label());
                let searches = context.sizing_searches();
                let warm = split(engine, &context, &grid, &plan, format);
                assert_eq!(warm, expected, "{} {format:?}", engine.label());
                assert_eq!(
                    context.sizing_searches(),
                    searches,
                    "the second {} {format:?} pass searched",
                    engine.label()
                );
            }
        }
        assert!(context.sizing_searches() > 0, "the sweep sized nothing");
    }

    #[test]
    fn labels_round_trip_and_unknown_words_are_none() {
        for engine in ENGINES {
            assert_eq!(RowEngine::from_label(engine.label()), Some(engine));
        }
        for word in ["network", "Sweep", "", "sweep "] {
            assert_eq!(RowEngine::from_label(word), None, "{word:?}");
        }
    }
}
