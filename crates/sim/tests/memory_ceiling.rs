//! Flat-memory regression pin for the streaming path, isolated in its
//! own integration-test binary so no sibling test's allocations pollute
//! the peak-RSS reading.
//!
//! A grid far larger than anything the in-memory reports could hold
//! cheaply (≥100k cells in release builds) is streamed into a
//! [`DigestSink`]; the process high-water mark (`VmHWM` from
//! `/proc/self/status`) must stay within a fixed budget of the value
//! measured before the run. If anything upstream starts accumulating
//! per-cell state — rows, results, an unbounded memo — the budget trips.

use corridor_core::sink::{DigestSink, RowFormat};
use corridor_sim::{ScenarioGrid, SweepEngine};
use corridor_solar::climate;

/// Peak resident set size of this process, in bytes.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Additional peak memory the streaming run may claim: a generous
/// multiple of the true working set (a bounded window of rendered row
/// pairs), but far below what buffering ~100k cell results would cost.
const RSS_BUDGET_BYTES: u64 = 128 * 1024 * 1024;

fn axis(n: usize, start: f64, step: f64) -> Vec<f64> {
    (0..n).map(|i| start + step * i as f64).collect()
}

#[test]
fn huge_grid_streams_within_a_flat_memory_budget() {
    let Some(baseline) = peak_rss_bytes() else {
        eprintln!("skipping: /proc/self/status unavailable on this platform");
        return;
    };

    // 96 × 16 × 20 × 4 = 122_880 cells in release; debug builds
    // evaluate too slowly for that, so they pin a smaller grid
    // (24 × 4 × 4 × 4 = 1_536 cells) through the same path.
    let (n_tph, n_speed, n_isd) = if cfg!(debug_assertions) {
        (24, 4, 4)
    } else {
        (96, 16, 20)
    };
    let grid = ScenarioGrid::new()
        .trains_per_hour(axis(n_tph, 1.0, 0.5))
        .train_speeds_kmh(axis(n_speed, 120.0, 10.0))
        .conventional_isds_m(axis(n_isd, 400.0, 10.0))
        .locations(vec![
            climate::madrid(),
            climate::berlin(),
            climate::vienna(),
            climate::lyon(),
        ]);
    if !cfg!(debug_assertions) {
        assert!(grid.len() >= 100_000, "grid holds {} cells", grid.len());
    }

    let mut sink = DigestSink::new();
    let summary = SweepEngine::new()
        .pv_sizing(false)
        .stream(&grid, RowFormat::Csv, &mut sink)
        .unwrap();
    assert_eq!(summary.cells, grid.len() as u64);
    assert!(sink.bytes() > grid.len() as u64 * 32, "rows were emitted");

    let peak = peak_rss_bytes().expect("still on /proc");
    assert!(
        peak <= baseline + RSS_BUDGET_BYTES,
        "peak RSS grew by {:.1} MiB (budget {} MiB): streaming is no longer flat",
        (peak - baseline) as f64 / (1024.0 * 1024.0),
        RSS_BUDGET_BYTES / (1024 * 1024),
    );
}
