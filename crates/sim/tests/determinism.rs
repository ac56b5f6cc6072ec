//! Determinism of the shared execution path: the same grid must
//! produce byte-identical reports on 1, 2 and 8 workers — pinned by
//! SHA-256 digests of the rendered CSV/JSON, so a regression anywhere
//! in the pipeline (scheduling, batching, float re-ordering, rendering)
//! fails loudly with the digest that changed.

use corridor_core::hash::sha256_hex;
use corridor_core::sink::{RowFormat, StringSink};
use corridor_sim::{
    DeploymentOptimizer, McEngine, ReplicationPlan, ScenarioGrid, SearchSpace, SweepEngine,
    TrafficSpec,
};
use corridor_solar::climate;

/// Renders an in-memory report in `format` through its `stream_into`
/// (each report type has its own).
macro_rules! render {
    ($report:expr, $format:expr) => {
        StringSink::render(0, |s| $report.stream_into($format, s))
    };
}

/// A small grid that exercises every axis (8 cells, PV sizing included —
/// the only seeded-randomness consumer in the pipeline).
fn mixed_grid() -> ScenarioGrid {
    ScenarioGrid::new()
        .trains_per_hour(vec![4.0, 8.0])
        .train_speeds_kmh(vec![160.0, 200.0])
        .locations(vec![climate::madrid(), climate::berlin()])
}

/// The sweep of `grid` on `workers` workers, rendered in memory.
fn sweep(grid: &ScenarioGrid, workers: usize, format: RowFormat) -> String {
    let report = SweepEngine::new().workers(workers).run(grid).unwrap();
    render!(report, format)
}

#[test]
fn csv_is_byte_identical_across_worker_counts() {
    let grid = mixed_grid();
    let reference = sweep(&grid, 1, RowFormat::Csv);
    assert!(reference.lines().count() == 9, "8 cells + header");
    for workers in [2, 8] {
        let csv = sweep(&grid, workers, RowFormat::Csv);
        assert_eq!(csv, reference, "workers = {workers}");
    }
}

#[test]
fn json_is_byte_identical_across_worker_counts() {
    let grid = mixed_grid();
    let reference = sweep(&grid, 1, RowFormat::Json);
    for workers in [2, 8] {
        let json = sweep(&grid, workers, RowFormat::Json);
        assert_eq!(json, reference, "workers = {workers}");
    }
}

/// Pinned digests of every renderable pipeline output. The sweep, the
/// Monte-Carlo engine and the deployment optimizer must produce these
/// exact bytes on every worker count; any drift (a scheduling change
/// that reorders float accumulation, a batch-layer rewrite, a rendering
/// tweak) trips the pin, not just the cross-worker comparison.
const SWEEP_CSV_SHA256: &str = "781c01105637f4b0c1852558780d88fa9c18d278728ca3e0ae31e277d9e232d1";
const SWEEP_JSON_SHA256: &str = "070b779207ee4e8f1ce90cab5cca0347e2cd0af30b458ab6995f5f20b973ce6a";
const MC_CSV_SHA256: &str = "18ba0069bec57df80976a44c6aa180df59bc918e0ee19548f6e548b8505a7437";
const MC_JSON_SHA256: &str = "7bb58718a526e267e155532111a5118b9a8bcb1b1df33e13d78ec187fc4c94e3";
const OPTIMIZE_CSV_SHA256: &str =
    "c54a5842b41eca5279459a3b5fa3ba63a38d6f44697db3609ea1f65a868e4b57";
const OPTIMIZE_JSON_SHA256: &str =
    "875b9450c19fdf0b1d55aee9f5e48607d45fd3e74a55fd825fb5f322ed211fe0";

#[test]
fn sweep_renderings_are_sha256_pinned_across_worker_counts() {
    for workers in [1usize, 2, 8] {
        let report = SweepEngine::new()
            .workers(workers)
            .run(&mixed_grid())
            .unwrap();
        assert_eq!(
            sha256_hex(render!(report, RowFormat::Csv).as_bytes()),
            SWEEP_CSV_SHA256,
            "sweep CSV, workers = {workers}"
        );
        assert_eq!(
            sha256_hex(render!(report, RowFormat::Json).as_bytes()),
            SWEEP_JSON_SHA256,
            "sweep JSON, workers = {workers}"
        );
    }
}

#[test]
fn mc_renderings_are_sha256_pinned_across_worker_counts() {
    let grid = ScenarioGrid::new()
        .trains_per_hour(vec![4.0, 8.0])
        .locations(vec![climate::madrid(), climate::vienna()]);
    let plan = ReplicationPlan::new(5).master_seed(7);
    for workers in [1usize, 2, 8] {
        let report = McEngine::new().workers(workers).run(&grid, &plan).unwrap();
        assert_eq!(
            sha256_hex(report.to_csv().as_bytes()),
            MC_CSV_SHA256,
            "mc CSV, workers = {workers}"
        );
        assert_eq!(
            sha256_hex(render!(report, RowFormat::Json).as_bytes()),
            MC_JSON_SHA256,
            "mc JSON, workers = {workers}"
        );
    }
}

/// The Monte-Carlo request the mc-poisson benchmark serves, at two
/// replications: Poisson days on all 200 cells of `screening-200`,
/// master seed 7. Every cell's deployment and baseline days feed its
/// row, so a changed bit in any simulated day moves these digests.
const MC_SCREENING_CSV_SHA256: &str =
    "d72ecf507cdfdea17d549fe0f46e8d025e36a43cc230db2ac09e38c6463d2f95";
const MC_SCREENING_JSON_SHA256: &str =
    "5e3ce61c0bc5c946b756c8ba9cc38e9acfa8f3232f9c44284dbd8ad5cb736e18";

#[test]
fn mc_screening_renderings_are_sha256_pinned_across_worker_counts() {
    let grid = ScenarioGrid::screening_200();
    let plan = ReplicationPlan::new(2)
        .traffic(TrafficSpec::Poisson)
        .master_seed(7);
    for workers in [1usize, 2] {
        let report = McEngine::new().workers(workers).run(&grid, &plan).unwrap();
        assert_eq!(
            sha256_hex(report.to_csv().as_bytes()),
            MC_SCREENING_CSV_SHA256,
            "mc screening-200 CSV, workers = {workers}"
        );
        assert_eq!(
            sha256_hex(render!(report, RowFormat::Json).as_bytes()),
            MC_SCREENING_JSON_SHA256,
            "mc screening-200 JSON, workers = {workers}"
        );
    }
}

#[test]
fn optimizer_renderings_are_sha256_pinned_across_worker_counts() {
    let grid = ScenarioGrid::new().trains_per_hour(vec![4.0, 8.0]);
    let space = SearchSpace::new().node_counts((0..=6).collect());
    for workers in [1usize, 2, 8] {
        let report = DeploymentOptimizer::new()
            .workers(workers)
            .run(&grid, &space)
            .unwrap();
        assert_eq!(
            sha256_hex(report.to_csv().as_bytes()),
            OPTIMIZE_CSV_SHA256,
            "optimize CSV, workers = {workers}"
        );
        assert_eq!(
            sha256_hex(render!(report, RowFormat::Json).as_bytes()),
            OPTIMIZE_JSON_SHA256,
            "optimize JSON, workers = {workers}"
        );
    }
}

#[test]
fn wide_grid_without_pv_is_deterministic_too() {
    // 36 quick cells stressing the scheduler with more items than workers
    let grid = ScenarioGrid::new()
        .trains_per_hour(vec![2.0, 6.0, 10.0])
        .train_speeds_kmh(vec![120.0, 200.0, 280.0])
        .conventional_isds_m(vec![400.0, 450.0, 550.0, 600.0]);
    let engine = SweepEngine::new().pv_sizing(false);
    let reference = engine.workers(1).run(&grid).unwrap();
    for workers in [2, 8] {
        let report = engine.workers(workers).run(&grid).unwrap();
        assert_eq!(report.results(), reference.results(), "workers = {workers}");
        assert_eq!(
            render!(report, RowFormat::Csv),
            render!(reference, RowFormat::Csv),
            "workers = {workers}"
        );
    }
}

// report digests are pinned through `corridor_core::hash::sha256_hex`,
// the crate-wide streaming SHA-256 (FIPS-vector-tested at its source)
