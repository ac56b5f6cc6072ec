//! Scenario-hash result-cache correctness at the engine level: a warm
//! re-run serves every cell from disk with byte-identical output, and a
//! perturbation of any keyed input (a grid axis value, the master seed,
//! the wake policy, the SNR threshold) invalidates exactly the cells it
//! dirties — no stale reuse, no needless recompute.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use corridor_core::sink::{RowFormat, StringSink};
use corridor_sim::{
    DeploymentOptimizer, McEngine, ReplicationPlan, ResultCache, ScenarioGrid, SearchSpace,
    SweepEngine,
};
use corridor_solar::climate;
use corridor_units::{Db, Meters};
use proptest::prelude::*;

/// A fresh cache directory per test (and per proptest case), cleaned
/// before use so reruns of the suite start cold.
fn temp_cache_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "corridor-result-cache-it-{}-{tag}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn sweep_grid() -> ScenarioGrid {
    ScenarioGrid::new()
        .trains_per_hour(vec![4.0, 8.0])
        .train_speeds_kmh(vec![160.0, 200.0])
}

fn streamed_sweep(
    engine: &SweepEngine,
    grid: &ScenarioGrid,
    format: RowFormat,
    cache: Option<&ResultCache>,
) -> (String, corridor_sim::StreamSummary) {
    let mut sink = StringSink::default();
    let summary = engine.stream_with(grid, format, &mut sink, cache).unwrap();
    (sink.into_string(), summary)
}

#[test]
fn warm_sweep_rerun_is_byte_identical_with_full_hits() {
    let dir = temp_cache_dir("warm");
    let cache = ResultCache::open(&dir).unwrap();
    let engine = SweepEngine::new().workers(2);
    let grid = sweep_grid();

    let (cold, cold_summary) = streamed_sweep(&engine, &grid, RowFormat::Csv, Some(&cache));
    assert_eq!(cold_summary.cache_hits, 0);
    assert_eq!(cold_summary.cache_misses, 4);

    // a brand-new handle on the same directory: only the files matter
    let cache = ResultCache::open(&dir).unwrap();
    let (warm, warm_summary) = streamed_sweep(&engine, &grid, RowFormat::Csv, Some(&cache));
    assert_eq!(warm, cold);
    assert_eq!(warm_summary.cache_hits, 4);
    assert_eq!(warm_summary.cache_misses, 0);
    assert_eq!(warm_summary.hit_rate(), 1.0);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn csv_run_warms_the_json_run_too() {
    // one evaluation stores the row pair, so either format warms both
    let dir = temp_cache_dir("cross-format");
    let cache = ResultCache::open(&dir).unwrap();
    let engine = SweepEngine::new().workers(2);
    let grid = sweep_grid();

    streamed_sweep(&engine, &grid, RowFormat::Csv, Some(&cache));
    let (warm_json, summary) = streamed_sweep(&engine, &grid, RowFormat::Json, Some(&cache));
    assert_eq!(summary.cache_hits, 4);
    let (uncached_json, _) = streamed_sweep(&engine, &grid, RowFormat::Json, None);
    assert_eq!(warm_json, uncached_json);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn axis_perturbation_invalidates_exactly_the_dirty_cells() {
    let dir = temp_cache_dir("axis");
    let cache = ResultCache::open(&dir).unwrap();
    let engine = SweepEngine::new().workers(2);

    streamed_sweep(&engine, &sweep_grid(), RowFormat::Csv, Some(&cache));

    // replace one speed value: the two cells at 210 km/h are dirty, the
    // two at 160 km/h must be served from disk
    let perturbed = ScenarioGrid::new()
        .trains_per_hour(vec![4.0, 8.0])
        .train_speeds_kmh(vec![160.0, 210.0]);
    let (warm, summary) = streamed_sweep(&engine, &perturbed, RowFormat::Csv, Some(&cache));
    assert_eq!(summary.cache_hits, 2);
    assert_eq!(summary.cache_misses, 2);
    let (fresh, _) = streamed_sweep(&engine, &perturbed, RowFormat::Csv, None);
    assert_eq!(warm, fresh);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn engine_config_perturbations_invalidate_everything() {
    let dir = temp_cache_dir("config");
    let cache = ResultCache::open(&dir).unwrap();
    let grid = sweep_grid();
    let engine = SweepEngine::new().workers(2);
    streamed_sweep(&engine, &grid, RowFormat::Csv, Some(&cache));

    // pv sizing off is a different study: nothing may be reused
    let no_pv = SweepEngine::new().workers(2).pv_sizing(false);
    let (warm, summary) = streamed_sweep(&no_pv, &grid, RowFormat::Csv, Some(&cache));
    assert_eq!(summary.cache_hits, 0);
    assert_eq!(summary.cache_misses, 4);
    let (fresh, _) = streamed_sweep(&no_pv, &grid, RowFormat::Csv, None);
    assert_eq!(warm, fresh);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn mc_seed_and_policy_changes_invalidate_everything() {
    let dir = temp_cache_dir("mc");
    let cache = ResultCache::open(&dir).unwrap();
    let grid = ScenarioGrid::new()
        .trains_per_hour(vec![4.0, 8.0])
        .locations(vec![climate::madrid(), climate::vienna()]);
    let engine = McEngine::new().workers(2);
    let plan = ReplicationPlan::new(3).master_seed(7);

    let run = |engine: &McEngine, plan: &ReplicationPlan, cache: Option<&ResultCache>| {
        let mut sink = StringSink::default();
        let summary = engine
            .stream_with(&grid, plan, RowFormat::Csv, &mut sink, cache)
            .unwrap();
        (sink.into_string(), summary)
    };

    run(&engine, &plan, Some(&cache));
    let (warm, summary) = run(&engine, &plan, Some(&cache));
    assert_eq!((summary.cache_hits, summary.cache_misses), (4, 0));
    assert_eq!(warm, run(&engine, &plan, None).0);

    // a new master seed is a new experiment
    let reseeded = ReplicationPlan::new(3).master_seed(8);
    let (_, summary) = run(&engine, &reseeded, Some(&cache));
    assert_eq!((summary.cache_hits, summary.cache_misses), (0, 4));

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn optimize_threshold_change_invalidates_everything() {
    let dir = temp_cache_dir("optimize");
    let cache = ResultCache::open(&dir).unwrap();
    let grid = ScenarioGrid::new().trains_per_hour(vec![4.0, 8.0]);
    let space = SearchSpace::new()
        .node_counts((0..=4).collect())
        .sample_step(Meters::new(10.0));

    let run = |space: &SearchSpace, cache: Option<&ResultCache>| {
        let mut sink = StringSink::default();
        let summary = DeploymentOptimizer::new()
            .workers(2)
            .stream_with(&grid, space, RowFormat::Json, &mut sink, cache)
            .unwrap();
        (sink.into_string(), summary)
    };

    run(&space, Some(&cache));
    let (warm, summary) = run(&space, Some(&cache));
    assert_eq!((summary.cache_hits, summary.cache_misses), (2, 0));
    assert_eq!(warm, run(&space, None).0);

    let tightened = SearchSpace::new()
        .node_counts((0..=4).collect())
        .sample_step(Meters::new(10.0))
        .snr_threshold(Db::new(6.0));
    let (bytes, summary) = run(&tightened, Some(&cache));
    assert_eq!((summary.cache_hits, summary.cache_misses), (0, 2));
    assert_eq!(bytes, run(&tightened, None).0);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_entry_is_recomputed_not_served() {
    let dir = temp_cache_dir("corrupt");
    let cache = ResultCache::open(&dir).unwrap();
    let engine = SweepEngine::new().workers(2);
    let grid = sweep_grid();
    let (cold, _) = streamed_sweep(&engine, &grid, RowFormat::Csv, Some(&cache));

    // truncate one entry on disk: its checksum no longer matches
    let entry = walk_entries(&dir).into_iter().next().expect("stored entry");
    let bytes = fs::read(&entry).unwrap();
    fs::write(&entry, &bytes[..bytes.len() / 2]).unwrap();

    let (warm, summary) = streamed_sweep(&engine, &grid, RowFormat::Csv, Some(&cache));
    assert_eq!(warm, cold);
    assert_eq!(summary.cache_hits, 3);
    assert_eq!(summary.cache_misses, 1);

    // the recompute heals the entry: the next run is all hits again
    let (healed, summary) = streamed_sweep(&engine, &grid, RowFormat::Csv, Some(&cache));
    assert_eq!(healed, cold);
    assert_eq!(summary.cache_hits, 4);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_flipped_json_byte_misses_for_json_only_then_heals() {
    let dir = temp_cache_dir("flip-json");
    let cache = ResultCache::open(&dir).unwrap();
    let engine = SweepEngine::new().workers(2);
    let grid = sweep_grid();
    let (csv, _) = streamed_sweep(&engine, &grid, RowFormat::Csv, Some(&cache));
    let (json, _) = streamed_sweep(&engine, &grid, RowFormat::Json, None);

    // flip a byte of one entry's JSON rendering: the entry ends with it
    let entry = walk_entries(&dir).into_iter().next().expect("stored entry");
    let mut bytes = fs::read(&entry).unwrap();
    let last = bytes.len() - 2;
    bytes[last] ^= 0x01;
    fs::write(&entry, &bytes).unwrap();

    // CSV requests still hit: only the served rendering is checked
    let (warm, summary) = streamed_sweep(&engine, &grid, RowFormat::Csv, Some(&cache));
    assert_eq!(warm, csv);
    assert_eq!((summary.cache_hits, summary.cache_misses), (4, 0));

    // JSON requests miss on that cell, recompute it and rewrite it
    let (warm, summary) = streamed_sweep(&engine, &grid, RowFormat::Json, Some(&cache));
    assert_eq!(warm, json);
    assert_eq!((summary.cache_hits, summary.cache_misses), (3, 1));
    let (healed, summary) = streamed_sweep(&engine, &grid, RowFormat::Json, Some(&cache));
    assert_eq!(healed, json);
    assert_eq!((summary.cache_hits, summary.cache_misses), (4, 0));

    let _ = fs::remove_dir_all(&dir);
}

fn walk_entries(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "entry") {
                found.push(path);
            }
        }
    }
    found.sort();
    found
}

const TPH: [f64; 3] = [2.0, 4.0, 8.0];
const SPEEDS: [f64; 3] = [120.0, 160.0, 200.0];

proptest! {
    /// Replacing one value on one axis of a cached grid (same shape, so
    /// cell positions are stable) misses for exactly the cells touching
    /// the new value and hits for every other cell — and the warm bytes
    /// always equal an uncached run's.
    #[test]
    fn perturbed_grids_recompute_exactly_the_dirty_cells(
        axis in 0usize..=1,
        pos in 0usize..=2,
        perturb in 0usize..=1,
    ) {
        let dir = temp_cache_dir("prop");
        let cache = ResultCache::open(&dir).unwrap();
        let engine = SweepEngine::new().workers(2).pv_sizing(false);

        let grid_of = |tph: &[f64], speeds: &[f64]| {
            ScenarioGrid::new()
                .trains_per_hour(tph.to_vec())
                .train_speeds_kmh(speeds.to_vec())
        };
        let mut sink = StringSink::default();
        engine
            .stream_with(&grid_of(&TPH, &SPEEDS), RowFormat::Csv, &mut sink, Some(&cache))
            .unwrap();

        // same 3×3 shape with one axis value optionally swapped out
        let (mut tph, mut speeds) = (TPH, SPEEDS);
        if perturb == 1 {
            if axis == 0 {
                tph[pos] = 10.0;
            } else {
                speeds[pos] = 240.0;
            }
        }
        let dirty = grid_of(&tph, &speeds);

        let mut sink = StringSink::default();
        let summary = engine
            .stream_with(&dirty, RowFormat::Csv, &mut sink, Some(&cache))
            .unwrap();
        let warm = sink.into_string();

        // one replaced value dirties a full row (or column) of the grid
        let expected_misses = (perturb * 3) as u64;
        prop_assert_eq!(summary.cache_misses, expected_misses);
        prop_assert_eq!(summary.cache_hits, 9 - expected_misses);

        let mut sink = StringSink::default();
        engine.stream_with(&dirty, RowFormat::Csv, &mut sink, None).unwrap();
        prop_assert_eq!(warm, sink.into_string());

        let _ = fs::remove_dir_all(&dir);
    }
}
