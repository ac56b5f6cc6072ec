//! Batch scenario sweeps: expands a Cartesian scenario grid and evaluates
//! every cell on the worker pool, printing a summary and optionally
//! writing the full per-cell report as CSV/JSON.
//!
//! ```console
//! $ cargo run --release -p corridor_bench --bin sweep -- --help
//! $ cargo run --release -p corridor_bench --bin sweep -- --workers 4 --csv sweep.csv
//! ```
//!
//! The default grid is the 200-cell screening sweep (5 conventional ISDs
//! × 5 timetable densities × 4 train speeds × 2 climates); `--demo` runs
//! an 8-cell variant for a quick look. Every `--workers` count produces
//! identical results; only the speed changes.

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use corridor_bench::args::{self, Fields, Stdout, Stop};
use corridor_core::report::TextTable;
use corridor_core::sink::WriteSink;
use corridor_core::solar::climate;
use corridor_core::EnergyStrategy;
use corridor_sim::{PvOutcome, ResultCache, ScenarioGrid, SweepEngine};

const USAGE: &str = "\
usage: sweep [options]

options:
  --workers N     worker threads (default: machine parallelism; 1 = calling thread)
  --nodes N       repeaters per segment, 0-10 (default 10)
  --no-pv         skip the per-cell PV sizing (the expensive step)
  --demo          8-cell demo grid instead of the 200-cell screening grid
  --csv PATH      write the per-cell report as CSV (not with --stream)
  --json PATH     write the per-cell report as JSON (not with --stream)
  --stream PATH   stream rows straight to PATH with flat memory (no report)
  --format F      row format for --stream: csv (default) or json
  --cache DIR     scenario-hash result cache for --stream: re-runs only
                  recompute cells whose parameters changed
  --help          this text
";

fn main() -> ExitCode {
    args::run("sweep", USAGE, &["no-pv", "demo"], run)
}

fn run(f: &mut Fields, out: &mut Stdout) -> Result<ExitCode, Stop> {
    // the stream path writes no report, and the report path no stream
    f.applies(&["format", "cache"], "stream", true)?;
    f.applies(&["csv", "json"], "stream", false)?;
    let workers = f.workers()?;
    let nodes = f.nodes()?;
    let pv = !f.flag("no-pv");
    let demo = f.flag("demo");
    let csv = f.value("csv")?;
    let json = f.value("json")?;
    let stream = f.value("stream")?;
    let format = f.format()?;
    let cache = f.value("cache")?;
    f.finish()?;

    let base = if demo {
        ScenarioGrid::new()
            .trains_per_hour(vec![4.0, 8.0])
            .train_speeds_kmh(vec![160.0, 200.0])
            .locations(vec![climate::madrid(), climate::berlin()])
    } else {
        ScenarioGrid::screening_200()
    };
    let grid = match base.repeater_nodes(nodes) {
        Ok(grid) => grid,
        Err(err) => {
            eprintln!("sweep: {err}");
            return Ok(ExitCode::FAILURE);
        }
    };

    // resolve the worker count once and hand it to the engine, so the
    // banner below always matches the pool that actually runs
    let workers =
        workers.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from));
    let engine = SweepEngine::new().workers(workers).pv_sizing(pv);

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

    if let Some(path) = &stream {
        // flat-memory path: rows go straight to the file, the full
        // report never exists in memory
        let cache = match &cache {
            Some(dir) => match ResultCache::open(dir) {
                Ok(cache) => Some(cache),
                Err(error) => {
                    eprintln!("sweep: cannot open cache {dir}: {error}");
                    return Ok(ExitCode::FAILURE);
                }
            },
            None => None,
        };
        let file = match std::fs::File::create(path) {
            Ok(file) => file,
            Err(error) => {
                eprintln!("sweep: cannot create {path}: {error}");
                return Ok(ExitCode::FAILURE);
            }
        };
        let mut sink = WriteSink::new(std::io::BufWriter::new(file));
        let started = Instant::now();
        let summary = match engine.stream_with(&grid, format, &mut sink, cache.as_ref()) {
            Ok(summary) => summary,
            Err(error) => {
                eprintln!("sweep: streaming failed: {error}");
                return Ok(ExitCode::FAILURE);
            }
        };
        let elapsed = started.elapsed();
        writeln!(
            out,
            "streamed {} rows ({}) to {path} in {:.2} s",
            summary.rows,
            format.label(),
            elapsed.as_secs_f64(),
        )?;
        if cache.is_some() {
            writeln!(
                out,
                "cache: {} hits, {} misses ({:.0} % warm)",
                summary.cache_hits,
                summary.cache_misses,
                summary.hit_rate() * 100.0,
            )?;
        }
        return Ok(ExitCode::SUCCESS);
    }

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

    let files = [
        ("CSV", csv.map(|path| (path, report.to_csv()))),
        ("JSON", json.map(|path| (path, report.to_json()))),
    ];
    for (label, file) in files {
        let Some((path, text)) = file else { continue };
        if let Err(error) = std::fs::write(&path, text) {
            eprintln!("sweep: cannot write {path}: {error}");
            return Ok(ExitCode::FAILURE);
        }
        writeln!(out, "wrote {label} to {path}")?;
    }
    Ok(ExitCode::SUCCESS)
}
