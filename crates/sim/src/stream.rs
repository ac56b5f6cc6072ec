//! The one execution path every engine runs on.
//!
//! Each engine describes its per-cell work as a [`CellJob`]: how many
//! cells there are, how to build cell `i`, the cell's optional
//! result-cache key, how to evaluate it into a typed result and how to
//! render that result as a row. Two drivers run any job over
//! [`rayon::stream_ordered`]: cells are built lazily, evaluated on a
//! bounded window of worker threads and handed on in cell order.
//!
//! * [`collect`] gathers the typed results — the engines' `run`.
//! * [`stream_rows`] renders rows for a [`RowSink`] or callback — the
//!   engines' `stream`, `stream_with` and `stream_rows` — probing the
//!   optional [`ResultCache`] in one place: a hit emits the stored row
//!   without evaluation, a miss evaluates and stores the row in both
//!   formats.
//!
//! Peak memory of a streamed run is `O(workers × chunk)` whatever the
//! grid size, and the output is identical for every worker count — the
//! contract the determinism and streaming-equivalence tests pin with
//! SHA-256 digests.

use core::ops::Range;
use std::thread;

use corridor_core::sink::{RowEmitter, RowFormat, RowSink, SinkError};
use corridor_core::ScenarioError;

use crate::ResultCache;

/// Why a streaming run stopped early.
#[derive(Debug)]
pub enum StreamError {
    /// A cell's parameters failed validation (or the worker
    /// configuration was rejected).
    Scenario(ScenarioError),
    /// The sink (or the caller's `emit` callback) refused a row.
    Sink(SinkError),
}

impl core::fmt::Display for StreamError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StreamError::Scenario(e) => write!(f, "scenario error: {e}"),
            StreamError::Sink(e) => write!(f, "sink error: {e}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Scenario(e) => Some(e),
            StreamError::Sink(e) => Some(e),
        }
    }
}

impl From<ScenarioError> for StreamError {
    fn from(e: ScenarioError) -> Self {
        StreamError::Scenario(e)
    }
}

impl From<SinkError> for StreamError {
    fn from(e: SinkError) -> Self {
        StreamError::Sink(e)
    }
}

/// What a completed streaming run processed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamSummary {
    /// Grid cells evaluated or served from the cache: one row each (an
    /// optimizer "row" is the cell's whole frontier chunk).
    pub cells: u64,
    /// Cells served from the [`ResultCache`](crate::ResultCache).
    pub cache_hits: u64,
    /// Cells computed and (when caching) stored.
    pub cache_misses: u64,
}

impl StreamSummary {
    /// Fraction of cells served from the cache (`0.0` without one).
    pub fn hit_rate(&self) -> f64 {
        if self.cells == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / self.cells as f64
    }
}

/// One engine's per-cell work, as the drivers see it.
pub(crate) trait CellJob: Sync {
    /// What [`CellJob::cell`] builds for one index.
    type Cell;
    /// The typed result of one cell.
    type Output: Send;
    /// Cells per work item: coarse enough to amortize the hand-off to a
    /// worker, small enough to bound the rows buffered in the window.
    const CHUNK: usize = 1;
    /// The CSV header of the engine's framed stream.
    const HEADER: &'static str;

    /// Number of cells.
    fn cells(&self) -> usize;

    /// Builds (and validates) cell `index`.
    fn cell(&self, index: usize) -> Result<Self::Cell, ScenarioError>;

    /// The result-cache key of a cell; `None` for engines whose rows are
    /// never cached.
    fn cache_key(&self, _cell: &Self::Cell) -> Option<String> {
        None
    }

    /// Evaluates one cell.
    fn evaluate(&self, cell: Self::Cell) -> Self::Output;

    /// Renders one result as a row.
    fn render(&self, result: &Self::Output, format: RowFormat) -> String;
}

/// Resolves an engine's worker setting: `Some(0)` is the usual
/// misconfiguration error, `None` means machine parallelism.
fn resolve_workers(workers: Option<usize>) -> Result<usize, ScenarioError> {
    match workers {
        Some(0) => Err(ScenarioError::ZeroWorkers),
        Some(n) => Ok(n),
        None => Ok(thread::available_parallelism().map_or(1, usize::from)),
    }
}

/// Runs `compute` on every cell of `range`, `J::CHUNK` cells per work
/// item, on `workers` threads, and feeds the per-cell outputs to
/// `consume` in cell order.
///
/// The reorder window is `2 × workers` items: enough look-ahead to keep
/// every worker busy across chunk-cost skew, small enough that a slow
/// consumer back-pressures the computation instead of buffering the
/// whole grid. A failing cell fails its whole chunk, so nothing past
/// the first error in cell order is consumed.
fn drive<J, R, E>(
    workers: Option<usize>,
    range: Range<usize>,
    compute: impl Fn(usize) -> Result<R, ScenarioError> + Sync,
    mut consume: impl FnMut(R) -> Result<(), E>,
) -> Result<(), E>
where
    J: CellJob,
    R: Send,
    E: From<ScenarioError>,
{
    let workers = resolve_workers(workers)?;
    rayon::stream_ordered(
        chunked_ranges(range, J::CHUNK),
        workers,
        workers.saturating_mul(2).max(2),
        |chunk| chunk.map(&compute).collect::<Result<Vec<R>, _>>(),
        |chunk: Result<Vec<R>, ScenarioError>| -> Result<(), E> {
            for output in chunk? {
                consume(output)?;
            }
            Ok(())
        },
    )
}

/// Evaluates every cell of `job` and returns the typed results in cell
/// order.
///
/// # Errors
///
/// [`ScenarioError::ZeroWorkers`] for an explicit zero worker count, or
/// the error of the first cell (in cell order) that fails validation.
pub(crate) fn collect<J: CellJob>(
    job: &J,
    workers: Option<usize>,
) -> Result<Vec<J::Output>, ScenarioError> {
    let mut results = Vec::with_capacity(job.cells());
    drive::<J, _, ScenarioError>(
        workers,
        0..job.cells(),
        |index| Ok(job.evaluate(job.cell(index)?)),
        |result| {
            results.push(result);
            Ok(())
        },
    )?;
    Ok(results)
}

/// How a cell's row was obtained.
enum Lookup {
    Uncached,
    Hit,
    Miss,
}

/// Streams the raw rows of the cells in `range` to `emit`, in cell
/// order, without header or framing.
///
/// With a `cache`, every cell whose job has a key is probed first: a
/// hit emits the stored row, a miss evaluates the cell and stores its
/// row in both formats.
///
/// # Panics
///
/// Panics if `range` reaches past the job's cell count (a caller bug,
/// like any out-of-range index).
///
/// # Errors
///
/// Same conditions as [`collect`], wrapped in [`StreamError::Scenario`];
/// an `Err` from `emit` cancels the remaining evaluation and is
/// returned.
pub(crate) fn stream_rows<J: CellJob>(
    job: &J,
    workers: Option<usize>,
    range: Range<usize>,
    format: RowFormat,
    cache: Option<&ResultCache>,
    mut emit: impl FnMut(&str) -> Result<(), StreamError>,
) -> Result<StreamSummary, StreamError> {
    let mut summary = StreamSummary::default();
    drive::<J, _, StreamError>(
        workers,
        range,
        |index| {
            let cell = job.cell(index)?;
            let keyed = cache.and_then(|store| job.cache_key(&cell).map(|key| (store, key)));
            let Some((store, key)) = keyed else {
                return Ok((job.render(&job.evaluate(cell), format), Lookup::Uncached));
            };
            if let Some(row) = store.load(&key, format) {
                return Ok((row, Lookup::Hit));
            }
            let result = job.evaluate(cell);
            let csv = job.render(&result, RowFormat::Csv);
            let json = job.render(&result, RowFormat::Json);
            store.store(&key, &csv, &json);
            let row = match format {
                RowFormat::Csv => csv,
                RowFormat::Json => json,
            };
            Ok((row, Lookup::Miss))
        },
        |(row, lookup)| {
            emit(&row)?;
            summary.cells += 1;
            match lookup {
                Lookup::Uncached => {}
                Lookup::Hit => summary.cache_hits += 1,
                Lookup::Miss => summary.cache_misses += 1,
            }
            Ok(())
        },
    )?;
    Ok(summary)
}

/// Streams every cell of `job` into `sink` as one framed stream (the
/// job's CSV header, or the JSON array brackets, around the rows).
///
/// # Errors
///
/// Same conditions as [`stream_rows`], plus [`StreamError::Sink`] if the
/// sink refuses the framing.
pub(crate) fn stream<J: CellJob>(
    job: &J,
    workers: Option<usize>,
    format: RowFormat,
    sink: &mut dyn RowSink,
    cache: Option<&ResultCache>,
) -> Result<StreamSummary, StreamError> {
    let mut rows = RowEmitter::begin(sink, format, J::HEADER)?;
    let summary = stream_rows(job, workers, 0..job.cells(), format, cache, |row| {
        rows.row(row).map_err(StreamError::Sink)
    })?;
    rows.finish()?;
    Ok(summary)
}

/// Splits `range` into `chunk`-sized sub-ranges, lazily.
fn chunked_ranges(range: Range<usize>, chunk: usize) -> impl Iterator<Item = Range<usize>> + Send {
    debug_assert!(chunk > 0);
    let (start, end) = (range.start, range.end);
    (0..(end - start).div_ceil(chunk)).map(move |i| {
        let lo = start + i * chunk;
        lo..(lo + chunk).min(end)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Squares cell indices; cell 13 fails validation.
    struct Squares(usize);

    impl CellJob for Squares {
        type Cell = usize;
        type Output = usize;
        const CHUNK: usize = 4;
        const HEADER: &'static str = "square";

        fn cells(&self) -> usize {
            self.0
        }

        fn cell(&self, index: usize) -> Result<usize, ScenarioError> {
            if index == 13 {
                return Err(ScenarioError::EmptyTimetable);
            }
            Ok(index)
        }

        fn evaluate(&self, cell: usize) -> usize {
            cell * cell
        }

        fn render(&self, result: &usize, format: RowFormat) -> String {
            match format {
                RowFormat::Csv => format!("{result}\n"),
                RowFormat::Json => format!("  {result}"),
            }
        }
    }

    #[test]
    fn summary_hit_rate() {
        let mut s = StreamSummary::default();
        assert_eq!(s.hit_rate(), 0.0);
        s.cells = 10;
        s.cache_hits = 4;
        assert!((s.hit_rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn chunked_ranges_cover_without_overlap() {
        let chunks: Vec<_> = chunked_ranges(3..20, 8).collect();
        assert_eq!(chunks, vec![3..11, 11..19, 19..20]);
        assert!(chunked_ranges(5..5, 8).next().is_none());
    }

    #[test]
    fn zero_workers_rejected_none_resolves() {
        assert_eq!(
            resolve_workers(Some(0)).unwrap_err(),
            ScenarioError::ZeroWorkers
        );
        assert_eq!(resolve_workers(Some(3)).unwrap(), 3);
        assert!(resolve_workers(None).unwrap() >= 1);
        assert_eq!(
            collect(&Squares(5), Some(0)).unwrap_err(),
            ScenarioError::ZeroWorkers
        );
    }

    #[test]
    fn collect_and_stream_agree_at_every_worker_count() {
        let expected: Vec<usize> = (0..12).map(|i| i * i).collect();
        for workers in [1usize, 2, 8] {
            assert_eq!(collect(&Squares(12), Some(workers)).unwrap(), expected);
            let mut rows = String::new();
            let summary = stream_rows(
                &Squares(12),
                Some(workers),
                2..12,
                RowFormat::Csv,
                None,
                |row| {
                    rows.push_str(row);
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(summary.cells, 10);
            assert_eq!(summary.cache_hits + summary.cache_misses, 0);
            let tail: String = expected[2..].iter().map(|v| format!("{v}\n")).collect();
            assert_eq!(rows, tail, "workers = {workers}");
        }
    }

    #[test]
    fn first_failing_cell_in_order_is_reported() {
        for workers in [1usize, 4] {
            assert_eq!(
                collect(&Squares(40), Some(workers)).unwrap_err(),
                ScenarioError::EmptyTimetable
            );
            let mut emitted = 0;
            let err = stream_rows(
                &Squares(40),
                Some(workers),
                0..40,
                RowFormat::Csv,
                None,
                |_| {
                    emitted += 1;
                    Ok(())
                },
            )
            .unwrap_err();
            assert!(matches!(
                err,
                StreamError::Scenario(ScenarioError::EmptyTimetable)
            ));
            // the chunk holding cell 13 (cells 12..16) is never emitted
            assert_eq!(emitted, 12, "workers = {workers}");
        }
    }

    #[test]
    fn error_display_and_conversions() {
        let e: StreamError = ScenarioError::ZeroWorkers.into();
        assert!(e.to_string().contains("scenario error"));
        let e: StreamError = SinkError::Closed.into();
        assert!(e.to_string().contains("sink error"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
