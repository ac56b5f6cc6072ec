//! Corridor deployment optimizer: jointly searches repeater count, ISD,
//! wake policy and PV sizing per scenario cell and prints the Pareto
//! frontier of (energy/day, nodes/km, coverage margin), with the shared
//! coverage cache's counters.
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

use std::process::ExitCode;
use std::time::Instant;

use corridor_bench::render;
use corridor_core::units::Meters;
use corridor_sim::{DeploymentOptimizer, IsdSearch, ScenarioGrid, SearchSpace, WakePolicy};

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
  --csv         print the full frontier CSV instead of the summary
  --json        print the frontier JSON instead of the summary
  --smoke       print the committed optimize_smoke golden rendering and
                exit (fixed configuration; not combinable)
  --help        this text
";

struct Options {
    grid: ScenarioGrid,
    grid_name: String,
    space: SearchSpace,
    sample_step: Option<f64>,
    workers: usize,
    csv: bool,
    json: bool,
    smoke: bool,
}

fn parse(mut args: std::env::Args) -> Result<Option<Options>, String> {
    let mut opts = Options {
        grid: ScenarioGrid::new(),
        grid_name: "paper".into(),
        space: SearchSpace::new(),
        sample_step: None,
        workers: 0,
        csv: false,
        json: false,
        smoke: false,
    };
    let _ = args.next(); // binary name
    let mut search_options: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        if arg != "--smoke" && arg != "--help" && arg != "-h" {
            search_options.push(arg.clone());
        }
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--grid" => {
                let name = value("--grid")?;
                opts.grid =
                    ScenarioGrid::by_name(&name).ok_or_else(|| format!("unknown grid {name}"))?;
                opts.grid_name = name;
            }
            "--isd" => {
                opts.space = match value("--isd")?.as_str() {
                    "paper" => opts.space.isd_search(IsdSearch::PaperTable),
                    "model" => opts.space.isd_search(IsdSearch::model_paper_grid()),
                    other => return Err(format!("unknown ISD mode {other}")),
                };
            }
            "--policies" => {
                let policies = match value("--policies")?.as_str() {
                    "instant" => vec![WakePolicy::instant()],
                    "paper" => vec![WakePolicy::paper_default()],
                    "both" => vec![WakePolicy::instant(), WakePolicy::paper_default()],
                    other => return Err(format!("unknown policy set {other}")),
                };
                opts.space = opts.space.wake_policies(policies);
            }
            "--pv" => opts.space = opts.space.pv_sizing(true),
            "--threshold" => {
                let db: f64 = value("--threshold")?
                    .parse()
                    .map_err(|e| format!("--threshold: {e}"))?;
                // a NaN/inf threshold parses fine but would silently
                // mark every candidate infeasible
                if !db.is_finite() {
                    return Err("--threshold must be finite".into());
                }
                opts.space = opts.space.snr_threshold(corridor_core::units::Db::new(db));
            }
            "--sample-step" => {
                let step: f64 = value("--sample-step")?
                    .parse()
                    .map_err(|e| format!("--sample-step: {e}"))?;
                // reject NaN explicitly — it slips past `<= 0.0` and
                // would only blow up later in the library assert
                if step.is_nan() || step <= 0.0 {
                    return Err("--sample-step must be positive".into());
                }
                opts.sample_step = Some(step);
            }
            "--workers" => {
                opts.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--csv" => opts.csv = true,
            "--json" => opts.json = true,
            "--smoke" => opts.smoke = true,
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown option {other}")),
        }
    }
    // the smoke rendering is fixed (it must match the committed golden
    // byte for byte), so combining it with search options would
    // silently ignore them — reject instead
    if opts.smoke && !search_options.is_empty() {
        return Err(format!(
            "--smoke renders the fixed golden configuration and cannot be \
             combined with {}",
            search_options.join(" ")
        ));
    }
    if opts.csv && opts.json {
        return Err("--csv and --json are mutually exclusive".into());
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
            eprintln!("optimize: {message}");
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    if opts.smoke {
        print!("{}", render::optimize_smoke());
        return ExitCode::SUCCESS;
    }

    // keep the screening grid affordable by default: coarser profile
    // sampling there (boundary ISDs are insensitive to 5 m vs 10 m at a
    // 50 m ISD grid); every other grid keeps the library's 5 m default
    // unless --sample-step overrides it
    let space = match opts.sample_step {
        Some(step) => opts.space.sample_step(Meters::new(step)),
        None if opts.grid_name == "screening-200" => opts.space.sample_step(Meters::new(10.0)),
        None => opts.space,
    };
    let mut optimizer = DeploymentOptimizer::new();
    if opts.workers > 0 {
        optimizer = optimizer.workers(opts.workers);
    }

    let started = Instant::now();
    let report = match optimizer.run(&opts.grid, &space) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("optimize: {err}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = started.elapsed();

    if opts.csv {
        print!("{}", report.to_csv());
    } else if opts.json {
        print!("{}", report.to_json());
    } else {
        println!("Corridor deployment optimizer — Pareto frontier per cell");
        println!();
        println!(
            "grid: {} ({} cells)  isd: {}  candidates/cell: {}",
            opts.grid_name,
            report.len(),
            report.isd_search(),
            space.candidates_per_cell(),
        );
        println!(
            "candidates: {} evaluated, {} on the frontiers, {} unsolvable cell(s)",
            report.candidates_evaluated(),
            report.frontier_points(),
            report
                .results()
                .iter()
                .filter(|r| r.is_unsolvable())
                .count()
        );
        println!(
            "coverage cache: {} lookups, {} profiles sampled ({:.0} % hit rate)",
            report.coverage_lookups(),
            report.profile_evaluations(),
            report.cache_hit_rate() * 100.0
        );
        println!();
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
                println!(
                    "headline cell {}: least-energy point {} nodes @ {:.0} m -> \
                     {:.1} Wh/day/km ({:.1} % saving), {:.3} nodes/km",
                    r.cell().index(),
                    least_energy.nodes,
                    least_energy.isd.value(),
                    least_energy.energy_wh_day_km,
                    least_energy.saving_sleep_pct,
                    least_energy.nodes_per_km,
                );
            } else {
                println!("headline cell {}: unsolvable", r.cell().index());
            }
        }
    }

    eprintln!(
        "searched {} candidate(s) across {} cell(s) in {:.0} ms ({:.0} configs/s, workers: {})",
        report.candidates_evaluated(),
        report.len(),
        elapsed.as_secs_f64() * 1e3,
        report.candidates_evaluated() as f64 / elapsed.as_secs_f64().max(1e-9),
        if opts.workers == 0 {
            "auto".to_string()
        } else {
            opts.workers.to_string()
        }
    );
    ExitCode::SUCCESS
}
