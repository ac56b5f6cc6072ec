//! Corridor deployment optimizer: jointly searches repeater count, ISD,
//! wake policy and PV sizing per scenario cell and prints the Pareto
//! frontier of (energy/day, nodes/km, coverage margin), with the shared
//! coverage cache's counters, or streams the frontier rows as CSV/JSON.
//!
//! ```console
//! $ cargo run --release -p corridor_bench --bin optimize -- --help
//! $ cargo run --release -p corridor_bench --bin optimize -- --grid smoke-3 --isd model
//! $ cargo run --release -p corridor_bench --bin optimize -- --policies both --pv --csv > frontier.csv
//! $ cargo run --release -p corridor_bench --bin optimize -- --smoke
//! ```
//!
//! Stdout depends only on the options (no clocks, no ambient
//! parallelism effects — reports and cache counters are deterministic
//! across worker counts), so piped output is byte-reproducible;
//! wall-clock timing goes to stderr.

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use corridor_bench::args::{self, Fields, Stdout, Stop};
use corridor_bench::render;
use corridor_core::units::{Db, Meters};
use corridor_sim::{DeploymentOptimizer, SearchSpace, WakePolicy};

const USAGE: &str = "\
usage: optimize [options]

options:
  --grid G      paper (1 cell, default) | smoke-3 (3 cells) | mixed-8
                (8 cells) | screening-200 (200 cells)
  --isd M       paper (published Section V table, default) | model
                (cached 50 m-step max-ISD search under the link budget)
  --policies P  instant (default) | paper | both
  --pv          size the off-grid PV system per frontier candidate
  --threshold T minimum SNR along the track in dB (default: 29)
  --sample-step S
                coverage-profile sampling step in metres (default: 5,
                except 10 for --grid screening-200 to keep it affordable;
                boundary ISDs are insensitive at a 50 m ISD grid)
  --workers N   worker threads, 0 = auto (default: 0)
  --csv         stream the frontier CSV rows instead of the summary
  --json        stream the frontier JSON rows instead of the summary
  --smoke       print the committed optimize_smoke golden rendering and
                exit (fixed configuration; not combinable)
  --help        this text
";

fn main() -> ExitCode {
    args::run("optimize", USAGE, &["pv", "csv", "json", "smoke"], run)
}

fn run(f: &mut Fields, out: &mut Stdout) -> Result<ExitCode, Stop> {
    let smoke = f.standalone("smoke")?;
    let (grid_name, grid) = f.grid("paper")?;
    let policies = [
        ("instant", vec![WakePolicy::instant()]),
        ("paper", vec![WakePolicy::paper_default()]),
        (
            "both",
            vec![WakePolicy::instant(), WakePolicy::paper_default()],
        ),
    ];
    let mut space = SearchSpace::new()
        .isd_search(f.isd()?)
        .wake_policies(f.pick("policies", policies)?.1)
        .pv_sizing(f.flag("pv"));
    if let Some(db) = f.finite("threshold")? {
        space = space.snr_threshold(Db::new(db));
    }
    let sample_step = f.positive("sample-step")?;
    let workers = f.workers()?;
    let output = f.output()?;
    f.finish()?;

    if smoke {
        write!(out, "{}", render::optimize_smoke())?;
        return Ok(ExitCode::SUCCESS);
    }

    // keep the screening grid affordable by default: coarser profile
    // sampling there (boundary ISDs are insensitive to 5 m vs 10 m at a
    // 50 m ISD grid); every other grid keeps the library's 5 m default
    // unless --sample-step overrides it
    let space = match sample_step {
        Some(step) => space.sample_step(Meters::new(step)),
        None if grid_name == "screening-200" => space.sample_step(Meters::new(10.0)),
        None => space,
    };
    let mut optimizer = DeploymentOptimizer::new();
    if let Some(workers) = workers {
        optimizer = optimizer.workers(workers);
    }

    if let Some(format) = output {
        return args::stream("optimize", out, "cell(s)", workers, |sink| {
            optimizer.stream(&grid, &space, format, sink)
        });
    }

    let started = Instant::now();
    let report = match optimizer.run(&grid, &space) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("optimize: {err}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let elapsed = started.elapsed();

    writeln!(
        out,
        "Corridor deployment optimizer — Pareto frontier per cell"
    )?;
    writeln!(out)?;
    writeln!(
        out,
        "grid: {} ({} cells)  isd: {}  candidates/cell: {}",
        grid_name,
        report.len(),
        report.isd_search(),
        space.candidates_per_cell(),
    )?;
    writeln!(
        out,
        "candidates: {} evaluated, {} on the frontiers, {} unsolvable cell(s)",
        report.candidates_evaluated(),
        report.frontier_points(),
        report
            .results()
            .iter()
            .filter(|r| r.is_unsolvable())
            .count()
    )?;
    writeln!(
        out,
        "coverage cache: {} lookups, {} profiles sampled ({:.0} % hit rate)",
        report.coverage_lookups(),
        report.profile_evaluations(),
        report.cache_hit_rate() * 100.0
    )?;
    writeln!(out)?;
    // the paper's headline cell, if present: its frontier extremes
    if let Some(r) = report.results().iter().find(|r| {
        let c = r.cell();
        c.trains_per_hour() == 8.0
            && c.conventional_isd_m() == 500.0
            && (c.train_speed_kmh() - 200.0).abs() < 1e-9
    }) {
        if let Some(least_energy) = r
            .frontier()
            .iter()
            .min_by(|a, b| a.energy_wh_day_km.total_cmp(&b.energy_wh_day_km))
        {
            writeln!(
                out,
                "headline cell {}: least-energy point {} nodes @ {:.0} m -> \
                     {:.1} Wh/day/km ({:.1} % saving), {:.3} nodes/km",
                r.cell().index(),
                least_energy.nodes,
                least_energy.isd.value(),
                least_energy.energy_wh_day_km,
                least_energy.saving_sleep_pct,
                least_energy.nodes_per_km,
            )?;
        } else {
            writeln!(out, "headline cell {}: unsolvable", r.cell().index())?;
        }
    }

    eprintln!(
        "searched {} candidate(s) across {} cell(s) in {:.0} ms ({:.0} configs/s, workers: {})",
        report.candidates_evaluated(),
        report.len(),
        elapsed.as_secs_f64() * 1e3,
        report.candidates_evaluated() as f64 / elapsed.as_secs_f64().max(1e-9),
        args::workers_label(workers),
    );
    Ok(ExitCode::SUCCESS)
}
