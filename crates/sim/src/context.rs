//! Evaluation state that outlives one cell.

use crate::sizing::SizingMemo;

/// What an evaluation keeps between cells, and between runs: today the
/// PV sizing memo, which holds each Table IV search's outcome (on the
/// paper's ladder) by the bits of its site and load.
///
/// Every engine run evaluates through a context. The engines' `run`,
/// `stream`, `stream_with` and `stream_rows` use a fresh one per call;
/// [`RowEngine::stream_rows`](crate::RowEngine::stream_rows) takes the
/// caller's, so a long-lived process (a `serve` worker, say) keeps it
/// across runs and skips the searches it has already made. A hit
/// returns exactly what a fresh search computes, so a warm context
/// never changes an output byte.
///
/// The memo is bounded: it holds at most
/// [`EvalContext::SIZING_CAPACITY`] outcomes, and a new key beyond that
/// evicts the smallest key.
///
/// # Examples
///
/// ```
/// use corridor_core::sink::RowFormat;
/// use corridor_sim::{EvalContext, ReplicationPlan, RowEngine, ScenarioGrid};
///
/// let grid = ScenarioGrid::new();
/// let plan = ReplicationPlan::new(5);
/// let context = EvalContext::new();
/// let mut rows = Vec::new();
/// for _ in 0..2 {
///     RowEngine::Sweep
///         .stream_rows(&context, &grid, &plan, 0..1, RowFormat::Csv, None, |row| {
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
    // corridor-lint: allow(unused-pub, reason = "engine::tests::a_second_run_through_one_context_runs_no_search, served::tests::split_ranges_through_one_context_equal_each_fresh_stream and this type's doc example count the memo's searches with it")
    pub fn sizing_searches(&self) -> u64 {
        self.sizing.searches()
    }

    /// PV sizing outcomes this context holds.
    // corridor-lint: allow(unused-pub, reason = "engine::tests::a_tiny_context_evicts_without_changing_a_result and a_second_run_through_one_context_runs_no_search check the memo's bound with it")
    pub fn sizing_entries(&self) -> usize {
        self.sizing.len()
    }

    /// The context's PV sizing memo.
    pub(crate) fn sizing(&self) -> &SizingMemo {
        &self.sizing
    }
}

impl Default for EvalContext {
    /// Returns [`EvalContext::new`].
    fn default() -> Self {
        EvalContext::new()
    }
}
