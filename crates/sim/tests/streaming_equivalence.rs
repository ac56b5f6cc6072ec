//! Streaming ↔ in-memory equivalence: the Monte-Carlo and optimizer
//! `stream` paths must produce the *same bytes* as building the full
//! report and rendering it, and the sweep stream (which has no in-memory
//! rendering) the pinned bytes — for CSV and JSON, on 1, 2 and 8
//! workers — pinned by the same SHA-256 digests the determinism suite
//! uses. A drift in either path (chunking, reorder window, cache
//! short-circuit, emitter separators) breaks the comparison or the pin,
//! never silently.

use corridor_core::hash::sha256_hex;
use corridor_core::sink::{DigestSink, RowFormat, StringSink};
use corridor_sim::{
    DeploymentOptimizer, McEngine, ReplicationPlan, ScenarioGrid, SearchSpace, StreamError,
    SweepEngine,
};
use corridor_solar::climate;

/// Renders an in-memory Monte-Carlo or optimizer report in `format`
/// through its `stream_into` (each report type has its own).
macro_rules! render {
    ($report:expr, $format:expr) => {
        StringSink::render(0, |s| $report.stream_into($format, s))
    };
}

/// Same pins as `tests/determinism.rs` — one source of truth per suite
/// keeps each file self-contained while pinning identical bytes.
const SWEEP_CSV_SHA256: &str = "781c01105637f4b0c1852558780d88fa9c18d278728ca3e0ae31e277d9e232d1";
const SWEEP_JSON_SHA256: &str = "070b779207ee4e8f1ce90cab5cca0347e2cd0af30b458ab6995f5f20b973ce6a";
const MC_CSV_SHA256: &str = "18ba0069bec57df80976a44c6aa180df59bc918e0ee19548f6e548b8505a7437";
const MC_JSON_SHA256: &str = "7bb58718a526e267e155532111a5118b9a8bcb1b1df33e13d78ec187fc4c94e3";
const OPTIMIZE_CSV_SHA256: &str =
    "c54a5842b41eca5279459a3b5fa3ba63a38d6f44697db3609ea1f65a868e4b57";
const OPTIMIZE_JSON_SHA256: &str =
    "875b9450c19fdf0b1d55aee9f5e48607d45fd3e74a55fd825fb5f322ed211fe0";

fn mixed_grid() -> ScenarioGrid {
    ScenarioGrid::new()
        .trains_per_hour(vec![4.0, 8.0])
        .train_speeds_kmh(vec![160.0, 200.0])
        .locations(vec![climate::madrid(), climate::berlin()])
}

fn mc_grid() -> ScenarioGrid {
    ScenarioGrid::new()
        .trains_per_hour(vec![4.0, 8.0])
        .locations(vec![climate::madrid(), climate::vienna()])
}

fn optimize_grid() -> ScenarioGrid {
    ScenarioGrid::new().trains_per_hour(vec![4.0, 8.0])
}

#[test]
fn sweep_stream_is_pinned_on_every_worker_count() {
    let grid = mixed_grid();
    for workers in [1usize, 2, 8] {
        let engine = SweepEngine::new().workers(workers);
        for (format, pin) in [
            (RowFormat::Csv, SWEEP_CSV_SHA256),
            (RowFormat::Json, SWEEP_JSON_SHA256),
        ] {
            let mut sink = StringSink::default();
            let summary = engine.stream(&grid, format, &mut sink).unwrap();
            let streamed = sink.into_string();
            assert_eq!(
                sha256_hex(streamed.as_bytes()),
                pin,
                "{format:?}, workers = {workers}"
            );
            assert_eq!(summary.cells, grid.len() as u64);
            assert_eq!((summary.cache_hits, summary.cache_misses), (0, 0));
        }
    }
}

#[test]
fn mc_stream_is_byte_identical_to_in_memory() {
    let grid = mc_grid();
    let plan = ReplicationPlan::new(5).master_seed(7);
    for workers in [1usize, 2, 8] {
        let engine = McEngine::new().workers(workers);
        let report = engine.run(&grid, &plan).unwrap();
        for (format, in_memory, pin) in [
            (RowFormat::Csv, report.to_csv(), MC_CSV_SHA256),
            (
                RowFormat::Json,
                render!(report, RowFormat::Json),
                MC_JSON_SHA256,
            ),
        ] {
            let mut sink = StringSink::default();
            let summary = engine.stream(&grid, &plan, format, &mut sink).unwrap();
            let streamed = sink.into_string();
            assert_eq!(streamed, in_memory, "{format:?}, workers = {workers}");
            assert_eq!(sha256_hex(streamed.as_bytes()), pin);
            assert_eq!(summary.cells, grid.len() as u64);
        }
    }
}

#[test]
fn optimize_stream_is_byte_identical_to_in_memory() {
    let grid = optimize_grid();
    let space = SearchSpace::new().node_counts((0..=6).collect());
    for workers in [1usize, 2, 8] {
        let optimizer = DeploymentOptimizer::new().workers(workers);
        let report = optimizer.run(&grid, &space).unwrap();
        for (format, in_memory, pin) in [
            (RowFormat::Csv, report.to_csv(), OPTIMIZE_CSV_SHA256),
            (
                RowFormat::Json,
                render!(report, RowFormat::Json),
                OPTIMIZE_JSON_SHA256,
            ),
        ] {
            let mut sink = StringSink::default();
            let summary = optimizer.stream(&grid, &space, format, &mut sink).unwrap();
            let streamed = sink.into_string();
            assert_eq!(streamed, in_memory, "{format:?}, workers = {workers}");
            assert_eq!(sha256_hex(streamed.as_bytes()), pin);
            // an optimizer "row" is one cell's whole frontier chunk
            assert_eq!(summary.cells, grid.len() as u64);
        }
    }
}

/// The flat-memory sink: hashing the stream without ever holding it must
/// land on the same digests as rendering the whole report.
#[test]
fn digest_sink_matches_rendered_digests() {
    let grid = mixed_grid();
    let engine = SweepEngine::new().workers(8);
    for (format, pin) in [
        (RowFormat::Csv, SWEEP_CSV_SHA256),
        (RowFormat::Json, SWEEP_JSON_SHA256),
    ] {
        let mut sink = DigestSink::new();
        engine.stream(&grid, format, &mut sink).unwrap();
        assert!(sink.bytes() > 0);
        assert_eq!(sink.hex(), pin, "{format:?}");
    }
}

/// A failing emit callback must cancel the run and surface as a sink
/// error instead of panicking a worker or deadlocking the window.
#[test]
fn consumer_error_cancels_stream() {
    let engine = SweepEngine::new().workers(2);
    let mut emitted = 0u32;
    let result = engine.stream_rows(
        &mixed_grid(),
        0..8,
        RowFormat::Csv,
        None,
        |_row: &str| -> Result<(), StreamError> {
            emitted += 1;
            if emitted >= 3 {
                Err(StreamError::Sink(corridor_core::sink::SinkError::Closed))
            } else {
                Ok(())
            }
        },
    );
    assert!(matches!(result, Err(StreamError::Sink(_))));
    assert_eq!(emitted, 3);
}
