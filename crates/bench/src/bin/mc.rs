//! Monte-Carlo replication sweeps: replays seeded stochastic days over a
//! scenario grid through the event-driven backend and prints per-cell
//! statistics (mean, stddev, 95 % CI, min/max) with a headline-cell
//! check against the analytic 124.07 Wh/day, or streams the per-cell
//! CSV rows.
//!
//! ```console
//! $ cargo run --release -p corridor_bench --bin mc -- --help
//! $ cargo run --release -p corridor_bench --bin mc -- --grid screening-200 --reps 25
//! $ cargo run --release -p corridor_bench --bin mc -- --csv > mc.csv
//! $ cargo run --release -p corridor_bench --bin mc -- --smoke
//! ```
//!
//! Stdout depends only on the options (seed-split RNG streams, no
//! clocks), so piped output is byte-reproducible across runs *and worker
//! counts*; wall-clock timing goes to stderr.

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use corridor_bench::args::{self, Fields, Stdout, Stop};
use corridor_bench::render;
use corridor_core::experiments;
use corridor_core::sink::RowFormat;
use corridor_core::traffic::DelayModel;
use corridor_core::ScenarioParams;
use corridor_sim::{McEngine, McMetric, ReplicationPlan, TrafficSpec};

const USAGE: &str = "\
usage: mc [options]

options:
  --grid G      paper (1 cell) | smoke-3 (3 cells) | mixed-8 (8 cells) |
                screening-200 (200 cells, default)
  --reps N      replications per cell (default: 25)
  --seed N      master seed for the SplitMix64 seed-splitting (default: 42)
  --model M     poisson | jittered | deterministic (default: poisson)
  --workers N   worker threads, 0 = auto (default: 0)
  --csv         stream the per-cell CSV rows instead of the summary
  --smoke       print the committed mc_smoke golden rendering and exit
                (fixed configuration; not combinable with other options)
  --help        this text
";

fn main() -> ExitCode {
    args::run("mc", USAGE, &["csv", "smoke"], run)
}

fn run(f: &mut Fields, out: &mut Stdout) -> Result<ExitCode, Stop> {
    let smoke = f.standalone("smoke")?;
    let (grid_name, grid) = f.grid("screening-200")?;
    let reps = f.reps("reps")?.unwrap_or(25);
    let seed = f.parse("seed")?.unwrap_or(42);
    let models = [
        ("poisson", TrafficSpec::Poisson),
        ("jittered", TrafficSpec::Jittered(DelayModel::typical())),
        ("deterministic", TrafficSpec::Deterministic),
    ];
    let traffic = f.pick("model", models)?.1;
    let workers = f.workers()?;
    let csv = f.flag("csv");
    f.finish()?;

    if smoke {
        write!(out, "{}", render::mc_smoke())?;
        return Ok(ExitCode::SUCCESS);
    }

    let plan = ReplicationPlan::new(reps)
        .master_seed(seed)
        .traffic(traffic);
    let mut engine = McEngine::new();
    if let Some(workers) = workers {
        engine = engine.workers(workers);
    }

    if csv {
        return args::stream("mc", out, "cell(s)", workers, |sink| {
            engine.stream(&grid, &plan, RowFormat::Csv, sink)
        });
    }

    let started = Instant::now();
    let report = match engine.run(&grid, &plan) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("mc: {err}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let elapsed = started.elapsed();

    writeln!(out, "Monte-Carlo replication sweep — event-driven backend")?;
    writeln!(out)?;
    writeln!(
        out,
        "grid: {} ({} cells)  model: {}  replications: {}  master seed: {}",
        grid_name,
        report.len(),
        report.traffic(),
        report.replications(),
        report.master_seed()
    )?;
    writeln!(out, "cell-days simulated: {}", report.cell_days())?;
    writeln!(out)?;

    // the statistics of the whole grid, by metric
    for metric in [
        McMetric::SleepWhKm,
        McMetric::SavingSleepPct,
        McMetric::RepeaterWhDay,
    ] {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut widest = 0.0f64;
        for r in report.results() {
            let s = r.stats(metric);
            lo = lo.min(s.mean);
            hi = hi.max(s.mean);
            widest = widest.max(s.ci95);
        }
        writeln!(
            out,
            "{:<18} cell means {lo:.3} .. {hi:.3}, widest 95 % CI half-width {widest:.3}",
            metric.key()
        )?;
    }
    writeln!(out)?;

    // the headline cell: the paper's 10-node segment at 8 trains/h
    let analytic = experiments::headline_numbers(&ScenarioParams::paper_default())
        .repeater_daily_energy
        .value();
    if let Some(headline) = report.results().iter().find(|r| {
        let c = r.cell();
        c.trains_per_hour() == 8.0
            && c.nodes() == 10
            && c.conventional_isd_m() == 500.0
            && (c.train_speed_kmh() - 200.0).abs() < 1e-9
    }) {
        let s = headline.stats(McMetric::RepeaterWhDay);
        writeln!(
            out,
            "headline cell {} (8 trains/h, 200 km/h): repeater {:.3} ± {:.3} Wh/day (95 % CI)",
            headline.cell().index(),
            s.mean,
            s.ci95
        )?;
        writeln!(
            out,
            "analytic closed form: {analytic:.3} Wh/day -> CI {}",
            if s.ci_covers(analytic) {
                "covers the analytic value"
            } else {
                "does NOT cover the analytic value"
            }
        )?;
    } else {
        writeln!(out, "(grid has no headline cell at the paper's defaults)")?;
    }

    eprintln!(
        "simulated {} cell-days in {:.0} ms ({:.0} cell-days/s, workers: {})",
        report.cell_days(),
        elapsed.as_secs_f64() * 1e3,
        report.cell_days() as f64 / elapsed.as_secs_f64().max(1e-9),
        args::workers_label(workers),
    );
    Ok(ExitCode::SUCCESS)
}
