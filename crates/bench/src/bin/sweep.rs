//! Batch scenario sweeps: expands a Cartesian scenario grid and evaluates
//! every cell on the worker pool, printing a summary, or streaming the
//! per-cell rows as CSV/JSON.
//!
//! ```console
//! $ cargo run --release -p corridor_bench --bin sweep -- --help
//! $ cargo run --release -p corridor_bench --bin sweep -- --workers 4 --csv > sweep.csv
//! $ cargo run --release -p corridor_bench --bin sweep -- --csv --cache .sweep-cache > sweep.csv
//! ```
//!
//! The default grid is the 200-cell screening sweep (5 conventional ISDs
//! × 5 timetable densities × 4 train speeds × 2 climates); `--demo` runs
//! the 8-cell `mixed-8` grid for a quick look. Every `--workers` count
//! produces identical results; only the speed changes.

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use corridor_bench::args::{self, Fields, Stdout, Stop};
use corridor_core::report::TextTable;
use corridor_core::EnergyStrategy;
use corridor_sim::{PvOutcome, ResultCache, ScenarioGrid, SweepEngine};

const USAGE: &str = "\
usage: sweep [options]

options:
  --workers N     worker threads (default: machine parallelism; 1 = calling thread)
  --nodes N       repeaters per segment, 0-10 (default 10)
  --no-pv         skip the per-cell PV sizing (the expensive step)
  --demo          8-cell mixed-8 grid instead of the 200-cell screening grid
  --csv           stream the per-cell CSV rows instead of the summary
  --json          stream the per-cell JSON rows instead of the summary
  --cache DIR     scenario-hash result cache for --csv/--json: re-runs
                  only recompute cells whose parameters changed
  --help          this text
";

fn main() -> ExitCode {
    args::run("sweep", USAGE, &["no-pv", "demo", "csv", "json"], run)
}

fn run(f: &mut Fields, out: &mut Stdout) -> Result<ExitCode, Stop> {
    let workers = f.workers()?;
    let nodes = f.nodes()?;
    let pv = !f.flag("no-pv");
    let demo = f.flag("demo");
    let output = f.output()?;
    let cache = f.value("cache")?;
    if cache.is_some() && output.is_none() {
        return Err(Stop::Usage("--cache only applies to --csv/--json".into()));
    }
    f.finish()?;

    let name = if demo { "mixed-8" } else { "screening-200" };
    let base = ScenarioGrid::by_name(name).expect("a named grid");
    let grid = match base.repeater_nodes(nodes) {
        Ok(grid) => grid,
        Err(err) => {
            eprintln!("sweep: {err}");
            return Ok(ExitCode::FAILURE);
        }
    };

    // resolve the worker count once and hand it to the engine, so the
    // banner and the stderr line always match the pool that actually runs
    let workers =
        workers.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from));
    let engine = SweepEngine::new().workers(workers).pv_sizing(pv);

    if let Some(format) = output {
        let cache = match cache.as_deref().map(ResultCache::open).transpose() {
            Ok(cache) => cache,
            Err(error) => {
                let dir = cache.unwrap_or_default();
                eprintln!("sweep: cannot open cache {dir}: {error}");
                return Ok(ExitCode::FAILURE);
            }
        };
        return args::stream("sweep", out, "cell(s)", Some(workers), |sink| {
            engine.stream_with(&grid, format, sink, cache.as_ref())
        });
    }

    writeln!(
        out,
        "sweep: {} cells ({} repeater nodes @ {:.0} m), {} worker{}, PV sizing {}",
        grid.len(),
        grid.nodes(),
        grid.deployment_isd().value(),
        workers,
        if workers == 1 { "" } else { "s" },
        if pv { "on" } else { "off" },
    )?;

    let started = Instant::now();
    let report = match engine.run(&grid) {
        Ok(report) => report,
        Err(error) => {
            eprintln!("sweep: invalid grid: {error}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let elapsed = started.elapsed();
    writeln!(
        out,
        "evaluated in {:.2} s ({:.0} cells/s)\n",
        elapsed.as_secs_f64(),
        report.len() as f64 / elapsed.as_secs_f64().max(1e-9),
    )?;

    let mut table = TextTable::new(vec![
        "strategy".into(),
        "mean saving".into(),
        "best saving".into(),
        "best cell".into(),
    ]);
    for (label, strategy) in [
        ("continuous", EnergyStrategy::ContinuousRepeaters),
        ("sleep mode", EnergyStrategy::SleepModeRepeaters),
        ("solar", EnergyStrategy::SolarPoweredRepeaters),
    ] {
        let best = report.best_cell(strategy).expect("grid is non-empty");
        table.add_row(vec![
            label.to_string(),
            format!("{:.1} %", report.mean_savings(strategy) * 100.0),
            format!("{:.1} %", best.savings(strategy) * 100.0),
            best.cell().to_string(),
        ]);
    }
    writeln!(out, "{}", table.render())?;

    if pv {
        let (mut sized, mut unsolvable) = (0usize, 0usize);
        for r in report.results() {
            match r.pv() {
                PvOutcome::Sized { .. } => sized += 1,
                PvOutcome::Unsolvable => unsolvable += 1,
                PvOutcome::Skipped => {}
            }
        }
        writeln!(
            out,
            "PV sizing: {sized} cells sized, {unsolvable} unsolvable"
        )?;
    }

    Ok(ExitCode::SUCCESS)
}
