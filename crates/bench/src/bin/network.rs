//! Rail-network optimizer: searches the deployment frontier of every
//! corridor edge of a network topology and schedules demand-aware sleep
//! at shared stations (greedy minimum-active-set over boundary
//! repeaters, and — under `--margin-floor` — the full Pollakis search
//! that trades interior coverage margin for sleep), printing the
//! summary, the sleep schedule and the frontier CSV/JSON. With
//! `--simulate` it switches to the time-domain backend: edge demands
//! are decomposed into junction-crossing routes and every edge replays
//! seeded stochastic days through the shared-itinerary event engine.
//!
//! ```console
//! $ cargo run --release -p corridor_bench --bin network -- --help
//! $ cargo run --release -p corridor_bench --bin network -- --topology star4
//! $ cargo run --release -p corridor_bench --bin network -- --margin-floor -3
//! $ cargo run --release -p corridor_bench --bin network -- --simulate --reps 50 --seed 7
//! $ cargo run --release -p corridor_bench --bin network -- --csv --workers 8 > frontier.csv
//! $ cargo run --release -p corridor_bench --bin network -- --smoke
//! ```
//!
//! Stdout depends only on the options: the frontier and day rows stream
//! through the `RowSink` layer in edge order whatever `--workers` says,
//! so piped output is byte-reproducible; wall-clock timing goes to
//! stderr.

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use corridor_bench::args::{self, Fields, Stdout, Stop};
use corridor_bench::render;
use corridor_core::sink::RowFormat;
use corridor_core::units::Meters;
use corridor_sim::{CorridorNetwork, NetworkDayEngine, NetworkOptimizer, SearchSpace};

const USAGE: &str = "\
usage: network [options]

options:
  --topology T  line1 | line3 | wye3 (default) | star4 | cycle4
  --isd M       paper (published Section V table, default) | model
                (cached 50 m-step max-ISD search under the link budget)
  --capacity C  aggregate demand one boundary repeater may absorb,
                trains/h (default: 30; not with --simulate)
  --margin-floor F
                enable margin-trading sleep: interior repeaters may
                sleep while every edge's residual coverage margin stays
                >= F dB (default: off, boundary-only schedule)
  --sample-step S
                coverage-profile sampling step in metres (default: 10)
  --workers N   worker threads, 0 = auto (default: 0)
  --simulate    replay stochastic network days through the time-domain
                backend (routed itineraries, junction-consistent) and
                report per-edge Monte-Carlo statistics
  --reps N      replications per edge under --simulate (default: 20)
  --seed S      master seed of the day sampler under --simulate
                (default: 42)
  --csv         stream the frontier (or day) CSV instead of the summary
  --json        stream the frontier (or day) JSON instead of the summary
  --smoke       print the committed network_smoke golden rendering and
                exit (fixed configuration; not combinable)
  --help        this text
";

fn main() -> ExitCode {
    args::run("network", USAGE, &["simulate", "csv", "json", "smoke"], run)
}

fn run(f: &mut Fields, out: &mut Stdout) -> Result<ExitCode, Stop> {
    let smoke = f.standalone("smoke")?;
    f.applies(&["reps", "seed"], "simulate", true)?;
    // the day backend prices the deployment picks: no margin is traded
    // and no boundary repeater absorbs another's demand
    f.applies(&["capacity", "margin-floor"], "simulate", false)?;
    let topology = f.value("topology")?.unwrap_or_else(|| "wye3".to_owned());
    let net = CorridorNetwork::by_name(&topology)
        .ok_or_else(|| format!("unknown topology {topology}"))?;
    let step = f.positive("sample-step")?.unwrap_or(10.0);
    let space = SearchSpace::new()
        .sample_step(Meters::new(step))
        .isd_search(f.isd()?);
    let capacity = f.positive("capacity")?;
    let margin_floor = f.finite("margin-floor")?;
    let workers = f.workers()?;
    let simulate_days = f.flag("simulate");
    let reps = f.reps("reps")?;
    let seed = f.parse("seed")?;
    let output = f.output()?;
    f.finish()?;

    if smoke {
        write!(out, "{}", render::network_smoke())?;
        return Ok(ExitCode::SUCCESS);
    }
    if simulate_days {
        let mut engine = NetworkDayEngine::new();
        if let Some(workers) = workers {
            engine = engine.workers(workers);
        }
        if let Some(reps) = reps {
            engine = engine.reps(reps);
        }
        if let Some(seed) = seed {
            engine = engine.seed(seed);
        }
        return simulate(engine, &topology, &net, &space, output, workers, out);
    }
    let mut optimizer = NetworkOptimizer::new();
    if let Some(workers) = workers {
        optimizer = optimizer.workers(workers);
    }
    if let Some(cap) = capacity {
        optimizer = optimizer.capacity_tph(cap);
    }
    if let Some(floor) = margin_floor {
        optimizer = optimizer.margin_floor_db(floor);
    }

    let started = Instant::now();
    if let Some(format) = output {
        // stream the frontier rows through the RowSink layer: edge
        // order, byte-identical whatever the worker count
        return args::stream("network", out, "edge(s)", workers, |sink| {
            optimizer.stream_frontier(&net, &space, format, sink)
        });
    }

    let report = match optimizer.run(&net, &space) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("network: {err}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let elapsed = started.elapsed();

    writeln!(
        out,
        "Rail-network optimizer — per-edge frontiers + demand-aware sleep"
    )?;
    writeln!(out)?;
    writeln!(
        out,
        "topology: {} ({} stations, {} edges)  isd: {}",
        topology,
        report.network().station_count(),
        report.network().edge_count(),
        report.isd_search(),
    )?;
    for (e, pick) in report.picks().iter().enumerate() {
        let edge = report.network().edge(e);
        match pick {
            Some(p) => writeln!(
                out,
                "edge {e} ({}): {} t/h over {:.0} km -> {} nodes @ {:.0} m, \
                 {:.1} Wh/day/km, margin {:.3} dB",
                report.network().edge_name(e),
                edge.demand_tph(),
                edge.length_km_value(),
                p.nodes,
                p.isd.value(),
                p.energy_wh_day_km,
                p.margin_db,
            )?,
            None => writeln!(
                out,
                "edge {e} ({}): {} t/h -> unsolvable",
                report.network().edge_name(e),
                edge.demand_tph(),
            )?,
        }
    }
    writeln!(out)?;
    match margin_floor {
        None => writeln!(
            out,
            "sleep schedule: {} boundary repeater(s) sleep, {:.3} Wh/day net saving",
            report.plan().len(),
            report.sleep_saving_wh_day()
        )?,
        Some(floor) => {
            let interior = report
                .plan()
                .iter()
                .filter(|d| d.repeater.is_some())
                .count();
            writeln!(
                out,
                "sleep schedule ({floor} dB floor): {} boundary + {interior} interior \
                 repeater(s) sleep, {:.3} Wh/day net saving",
                report.plan().len() - interior,
                report.sleep_saving_wh_day()
            )?;
        }
    }
    for d in report.plan() {
        match d.repeater {
            None => writeln!(
                out,
                "  station {} ({}): edge {} sleeps into edge {} \
                 (+{} t/h absorbed, net {:.3} Wh/day)",
                d.station,
                report.network().station_name(d.station),
                d.edge,
                d.absorber_edge,
                d.absorbed_demand_tph,
                d.net_wh_day,
            )?,
            Some(k) => writeln!(
                out,
                "  edge {} ({}): interior repeater {k} sleeps into its neighbor \
                 (margin cost {:.3} dB, net {:.3} Wh/day)",
                d.edge,
                report.network().edge_name(d.edge),
                d.margin_cost_db,
                d.net_wh_day,
            )?,
        }
    }
    if margin_floor.is_some() {
        let margins: Vec<String> = report
            .residual_margins()
            .iter()
            .enumerate()
            .map(|(e, m)| match m {
                Some(m) => format!("{} {:.3} dB", report.network().edge_name(e), m),
                None => format!("{} n/a", report.network().edge_name(e)),
            })
            .collect();
        writeln!(out, "residual margins: {}", margins.join(", "))?;
    }
    writeln!(
        out,
        "totals: per-corridor {:.3} Wh/day -> network {:.3} Wh/day",
        report.corridor_wh_day(),
        report.network_wh_day()
    )?;

    eprintln!(
        "searched {} edge(s) in {:.0} ms (workers: {})",
        report.len(),
        elapsed.as_secs_f64() * 1e3,
        args::workers_label(workers),
    );
    Ok(ExitCode::SUCCESS)
}

/// The `--simulate` path: decomposes the edge demands into routes,
/// replays seeded stochastic days through the time-domain backend and
/// prints the per-edge Monte-Carlo summary (or streams the day rows).
fn simulate(
    engine: NetworkDayEngine,
    topology: &str,
    net: &CorridorNetwork,
    space: &SearchSpace,
    output: Option<RowFormat>,
    workers: Option<usize>,
    out: &mut Stdout,
) -> Result<ExitCode, Stop> {
    if let Some(format) = output {
        return args::stream("network", out, "day row(s)", workers, |sink| {
            engine.stream(net, space, format, sink)
        });
    }

    let started = Instant::now();
    let report = match engine.run(net, space) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("network: {err}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let elapsed = started.elapsed();

    writeln!(
        out,
        "Rail-network day simulator — routed itineraries, junction-consistent days"
    )?;
    writeln!(out)?;
    writeln!(
        out,
        "topology: {} ({} stations, {} edges)  reps: {}  seed: {}",
        topology,
        report.network().station_count(),
        report.network().edge_count(),
        report.reps(),
        report.seed(),
    )?;
    writeln!(
        out,
        "routes: {} ({} junction-crossing), mean {:.1} crossings/day",
        report.routes().len(),
        report
            .routes()
            .iter()
            .filter(|r| r.legs().len() >= 2)
            .count(),
        report.crossings_per_day(),
    )?;
    for s in report.per_edge() {
        writeln!(
            out,
            "edge {} ({}): {} t/h over {} route(s) -> {} nodes @ {:.0} m, \
             {:.3} +/- {:.3} Wh/day ({:.2} passes, {:.2} wakes per day)",
            s.edge,
            report.network().edge_name(s.edge),
            s.demand_tph,
            s.routes,
            s.nodes,
            s.isd_m,
            s.mean_wh_day,
            s.ci95_wh_day,
            s.mean_passes,
            s.mean_wakes,
        )?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "network: {:.3} Wh/day (sum of per-edge means)",
        report.network_mean_wh_day()
    )?;

    eprintln!(
        "simulated {} edge-day(s) in {:.0} ms (workers: {})",
        report.per_edge().len() * report.reps(),
        elapsed.as_secs_f64() * 1e3,
        args::workers_label(workers),
    );
    Ok(ExitCode::SUCCESS)
}
