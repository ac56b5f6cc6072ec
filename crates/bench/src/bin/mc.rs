//! Monte-Carlo replication sweeps: replays seeded stochastic days over a
//! scenario grid through the event-driven backend and prints per-cell
//! statistics (mean, stddev, 95 % CI, min/max) with a headline-cell
//! check against the analytic 124.07 Wh/day.
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

use std::process::ExitCode;
use std::time::Instant;

use corridor_bench::render;
use corridor_core::experiments;
use corridor_core::traffic::DelayModel;
use corridor_core::ScenarioParams;
use corridor_sim::{McEngine, McMetric, ReplicationPlan, ScenarioGrid, TrafficSpec};

const USAGE: &str = "\
usage: mc [options]

options:
  --grid G      paper (1 cell) | smoke-3 (3 cells) | mixed-8 (8 cells) |
                screening-200 (200 cells, default)
  --reps N      replications per cell (default: 25)
  --seed N      master seed for the SplitMix64 seed-splitting (default: 42)
  --model M     poisson | jittered | deterministic (default: poisson)
  --workers N   worker threads, 0 = auto (default: 0)
  --csv         print the full per-cell CSV instead of the summary
  --smoke       print the committed mc_smoke golden rendering and exit
                (fixed configuration; not combinable with other options)
  --help        this text
";

struct Options {
    grid: ScenarioGrid,
    grid_name: String,
    reps: usize,
    seed: u64,
    traffic: TrafficSpec,
    workers: usize,
    csv: bool,
    smoke: bool,
}

fn parse(mut args: std::env::Args) -> Result<Option<Options>, String> {
    let mut opts = Options {
        grid: ScenarioGrid::screening_200(),
        grid_name: "screening-200".into(),
        reps: 25,
        seed: 42,
        traffic: TrafficSpec::Poisson,
        workers: 0,
        csv: false,
        smoke: false,
    };
    let _ = args.next(); // binary name
    let mut sweep_options: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        if arg != "--smoke" && arg != "--help" && arg != "-h" {
            sweep_options.push(arg.clone());
        }
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--grid" => {
                let name = value("--grid")?;
                opts.grid =
                    ScenarioGrid::by_name(&name).ok_or_else(|| format!("unknown grid {name}"))?;
                opts.grid_name = name;
            }
            "--reps" => {
                opts.reps = value("--reps")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?;
                if opts.reps == 0 {
                    return Err("--reps must be at least 1".into());
                }
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--model" => {
                opts.traffic = match value("--model")?.as_str() {
                    "poisson" => TrafficSpec::Poisson,
                    "jittered" => TrafficSpec::Jittered(DelayModel::typical()),
                    "deterministic" => TrafficSpec::Deterministic,
                    other => return Err(format!("unknown model {other}")),
                };
            }
            "--workers" => {
                opts.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--csv" => opts.csv = true,
            "--smoke" => opts.smoke = true,
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown option {other}")),
        }
    }
    // the smoke rendering is fixed (it must match the committed golden
    // byte for byte), so combining it with sweep options would silently
    // ignore them — reject instead
    if opts.smoke && !sweep_options.is_empty() {
        return Err(format!(
            "--smoke renders the fixed golden configuration and cannot be \
             combined with {}",
            sweep_options.join(" ")
        ));
    }
    Ok(Some(opts))
}

fn main() -> ExitCode {
    let opts = match parse(std::env::args()) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("mc: {message}");
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    if opts.smoke {
        print!("{}", render::mc_smoke());
        return ExitCode::SUCCESS;
    }

    let plan = ReplicationPlan::new(opts.reps)
        .master_seed(opts.seed)
        .traffic(opts.traffic);
    let mut engine = McEngine::new();
    if opts.workers > 0 {
        engine = engine.workers(opts.workers);
    }

    let started = Instant::now();
    let report = match engine.run(&opts.grid, &plan) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("mc: {err}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = started.elapsed();

    if opts.csv {
        print!("{}", report.to_csv());
    } else {
        println!("Monte-Carlo replication sweep — event-driven backend");
        println!();
        println!(
            "grid: {} ({} cells)  model: {}  replications: {}  master seed: {}",
            opts.grid_name,
            report.len(),
            report.traffic(),
            report.replications(),
            report.master_seed()
        );
        println!("cell-days simulated: {}", report.cell_days());
        println!();

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
            println!(
                "{:<18} cell means {lo:.3} .. {hi:.3}, widest 95 % CI half-width {widest:.3}",
                metric.key()
            );
        }
        println!();

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
            println!(
                "headline cell {} (8 trains/h, 200 km/h): repeater {:.3} ± {:.3} Wh/day (95 % CI)",
                headline.cell().index(),
                s.mean,
                s.ci95
            );
            println!(
                "analytic closed form: {analytic:.3} Wh/day -> CI {}",
                if s.ci_covers(analytic) {
                    "covers the analytic value"
                } else {
                    "does NOT cover the analytic value"
                }
            );
        } else {
            println!("(grid has no headline cell at the paper's defaults)");
        }
    }

    eprintln!(
        "simulated {} cell-days in {:.0} ms ({:.0} cell-days/s, workers: {})",
        report.cell_days(),
        elapsed.as_secs_f64() * 1e3,
        report.cell_days() as f64 / elapsed.as_secs_f64().max(1e-9),
        if opts.workers == 0 {
            "auto".to_string()
        } else {
            opts.workers.to_string()
        }
    );
    ExitCode::SUCCESS
}
