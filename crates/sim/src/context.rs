//! Evaluation state that outlives one cell.

use corridor_solar::sizing::SizingOptions;

use crate::sizing::{Sizer, SizingMemo};

/// What an evaluation keeps between cells, and between runs: today the
/// PV sizing memo, which holds each Table IV search's outcome by the
/// bits of its site, load and search options.
///
/// Every engine run evaluates through a context. `run`, `stream`,
/// `stream_with` and `stream_rows` use a fresh one per call;
/// [`SweepEngine::stream_rows_in`](crate::SweepEngine::stream_rows_in)
/// and
/// [`DeploymentOptimizer::stream_rows_in`](crate::DeploymentOptimizer::stream_rows_in)
/// take the caller's, so a long-lived process (a `serve` worker, say)
/// keeps it across runs and skips the searches it has already made.
/// A hit returns exactly what a fresh search computes, so a warm
/// context never changes an output byte.
///
/// The memo is bounded: it holds at most
/// [`EvalContext::SIZING_CAPACITY`] outcomes, and a new key beyond that
/// evicts the smallest key.
///
/// # Examples
///
/// ```
/// use corridor_core::sink::RowFormat;
/// use corridor_sim::{EvalContext, ScenarioGrid, SweepEngine};
///
/// let grid = ScenarioGrid::new();
/// let engine = SweepEngine::new().workers(1);
/// let context = EvalContext::new();
/// let mut rows = Vec::new();
/// for _ in 0..2 {
///     engine
///         .stream_rows_in(&context, &grid, 0..1, RowFormat::Csv, None, |row| {
///             rows.push(row.to_owned());
///             Ok(())
///         })
///         .unwrap();
/// }
/// // the second run reused the first run's Table IV search
/// assert_eq!(context.sizing_searches(), 1);
/// assert_eq!(rows[0], rows[1]);
/// ```
#[derive(Debug)]
pub struct EvalContext {
    sizing: SizingMemo,
}

impl EvalContext {
    /// PV sizing outcomes a context holds. An entry is about 0.5 KB, so a
    /// full memo stays near 2 MB; the named grids need at most 38.
    pub const SIZING_CAPACITY: usize = 4096;

    /// An empty context.
    pub fn new() -> Self {
        EvalContext {
            sizing: SizingMemo::with_capacity(Self::SIZING_CAPACITY),
        }
    }

    /// An empty context whose sizing memo holds at most `capacity`
    /// outcomes.
    #[cfg(test)]
    pub(crate) fn with_sizing_capacity(capacity: usize) -> Self {
        EvalContext {
            sizing: SizingMemo::with_capacity(capacity),
        }
    }

    /// Table IV searches this context has run.
    pub fn sizing_searches(&self) -> u64 {
        self.sizing.searches()
    }

    /// PV sizing outcomes this context holds.
    pub fn sizing_entries(&self) -> usize {
        self.sizing.len()
    }

    /// A sizer for the paper's Table IV ladder through this context.
    pub(crate) fn paper_sizer(&self) -> Sizer<'_> {
        self.sizing.sizer(SizingOptions::paper_default())
    }
}

impl Default for EvalContext {
    /// Returns [`EvalContext::new`].
    fn default() -> Self {
        EvalContext::new()
    }
}
