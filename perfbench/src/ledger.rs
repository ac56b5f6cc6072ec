//! The traced per-layer run.
//!
//! Each layer is timed through calls into its public functions, from
//! this file, around the same inputs the benchmark's workloads send to
//! the binaries. The ledger runs in a fresh process, so the process-wide
//! memos (`energy::active_hours`, the solar environment years) are cold
//! on first touch; it measures them first and again once warm.
//!
//! Output is one line per item, for `run.py` to parse:
//!
//! ```text
//! metric <name> <value> <unit>
//! check <name> ok|fail <detail>
//! span <name> <count> <total_s> <self_s>
//! probe <index> <seconds> <sha256>
//! ```
//!
//! The `check` lines are the fidelity checks: the public-function
//! compositions must reproduce the engines' outputs bit for bit.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Instant;

use corridor_core::energy::{self, SegmentEnergy};
use corridor_core::hash::Sha256;
use corridor_core::sink::{DigestSink, RowEmitter, RowFormat};
use corridor_core::stats::{SummaryStats, Welford};
use corridor_core::units::{Meters, Watts};
use corridor_core::{AnalyticEvaluator, EnergyStrategy, ScenarioParams, SegmentEvaluator};
use corridor_events::{
    segment_nodes, CorridorSimulator, EventDrivenEvaluator, NodeKind, WakePolicy,
};
use corridor_sim::{
    DeploymentOptimizer, McEngine, McMetric, NetworkDayEngine, NetworkOptimizer, PvOutcome,
    ReplicationPlan, ResultCache, ScenarioCell, ScenarioGrid, SweepEngine, CSV_HEADER,
    OPTIMIZE_CSV_HEADER,
};
use corridor_solar::{sizing, DailyLoadProfile};
use corridor_traffic::{PoissonTimetable, Timetable, TrackSection, TrainPass};
use rand::SeedableRng;

use crate::trace::{NoTrace, Probe, Tracer};
use crate::{network_search_space, serve_search_space, Request};

/// Repeat calls per key for the warm `active_hours` figure (a warm call
/// is a few hundred nanoseconds, too short to time one by one).
const WARM_REPEATS: usize = 40;
/// Days per event-throughput figure.
const EVENT_DAYS: usize = 600;
/// Emission passes over the collected rows.
const EMIT_PASSES: usize = 10;
/// Warm passes after the cold pass of the result-cache measurement.
const CACHE_WARM_PASSES: u64 = 3;
/// Cells per interleaved block of the MC measurements.
const MC_BLOCK: usize = 20;

struct Args {
    work_dir: PathBuf,
    mc: Request,
    network: Vec<Request>,
    probes: Vec<Request>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut work_dir, mut mc, mut network, mut probes) = (None, None, Vec::new(), Vec::new());
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            "--mc" => mc = Some(Request::parse(value)?),
            "--network" => network.push(Request::parse(value)?),
            "--probe" => probes.push(Request::parse(value)?),
            other => return Err(format!("unknown option {other}")),
        }
    }
    let mc = mc.ok_or("--mc is required")?;
    if mc.engine != "mc" || network.iter().any(|r| r.engine != "network") {
        return Err("--mc takes an mc request, --network a network request".into());
    }
    Ok(Args {
        work_dir: work_dir.ok_or("--work-dir is required")?,
        mc,
        network,
        probes,
    })
}

/// Everything the ledger prints, collected first so a failing step
/// leaves no partial table.
#[derive(Default)]
struct Ledger {
    metrics: Vec<(&'static str, f64, &'static str)>,
    checks: Vec<(&'static str, bool, String)>,
}

impl Ledger {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name, ok, detail.into()));
    }
}

fn secs(started: Instant) -> f64 {
    started.elapsed().as_secs_f64()
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, secs(started))
}

pub fn main(args: &[String]) -> Result<(), String> {
    let args = parse_args(args)?;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut ledger = Ledger::default();
    let mut tracer = Tracer::new();

    // cold-memo layers first: nothing else in this process has touched
    // the activity memo or the solar environment cache yet
    let sweep_grid = ScenarioGrid::screening_200();
    let sweep_cells = sweep_grid.expand().map_err(|e| e.to_string())?;
    active_hours_layer(&mut ledger, &sweep_cells);
    sweep_layers(&mut ledger, &mut tracer, &sweep_grid, &sweep_cells)?;

    mc_layers(&mut ledger, &mut tracer, &args.mc, nproc)?;
    event_throughput(&mut ledger, args.mc.seed);
    deploy_layer(&mut ledger)?;
    cache_layer(&mut ledger, &args.work_dir, args.mc.seed)?;
    emit_layer(&mut ledger)?;
    network_layer(&mut ledger, &args.network)?;

    for (name, value, unit) in &ledger.metrics {
        println!("metric {name} {value} {unit}");
    }
    for (name, ok, detail) in &ledger.checks {
        println!("check {name} {} {detail}", if *ok { "ok" } else { "fail" });
    }
    for (name, t) in tracer.table() {
        println!(
            "span {name} {} {} {}",
            t.count,
            t.total_ns as f64 * 1e-9,
            t.self_ns as f64 * 1e-9
        );
    }
    // the probes last: their in-process times are compared with the
    // serve latencies of the same requests, both with warm caches
    for (index, probe) in args.probes.iter().enumerate() {
        let mut sink = DigestSink::new();
        let (result, seconds) = timed(|| probe.stream(&mut sink));
        result?;
        println!("probe {index} {seconds} {}", sink.hex());
    }
    Ok(())
}

/// The activity sections the analytic sweep and PV sizing look up for
/// one cell: the mast section and the service-node section, at the
/// deployment ISD and at the conventional baseline ISD.
fn cell_sections(cell: &ScenarioCell) -> [TrackSection; 4] {
    let params = cell.params();
    let at = |isd: Meters| {
        [
            TrackSection::new(Meters::ZERO, isd),
            TrackSection::around(isd / 2.0, params.lp_spacing()),
        ]
    };
    let [a, b] = at(cell.isd());
    let [c, d] = at(params.conventional_isd());
    [a, b, c, d]
}

/// The bits `energy::active_hours` keys its memo by.
fn activity_bits(params: &ScenarioParams, section: &TrackSection) -> [u64; 7] {
    let timetable = params.timetable();
    let train = timetable.train();
    [
        timetable.trains_per_hour().to_bits(),
        timetable.service_window().value().to_bits(),
        timetable.service_start().value().to_bits(),
        train.length().value().to_bits(),
        train.speed().value().to_bits(),
        section.start().value().to_bits(),
        section.end().value().to_bits(),
    ]
}

/// `core.active_hours_cold_s` / `_warm_s`: the first call per memo key
/// in this process, then repeat calls on the same keys.
fn active_hours_layer(ledger: &mut Ledger, cells: &[ScenarioCell]) {
    let mut seen = BTreeSet::new();
    let mut keys: Vec<(&ScenarioParams, TrackSection)> = Vec::new();
    for cell in cells {
        for section in cell_sections(cell) {
            if seen.insert(activity_bits(cell.params(), &section)) {
                keys.push((cell.params(), section));
            }
        }
    }
    let (_, cold) = timed(|| {
        for (params, section) in &keys {
            black_box(energy::active_hours(params, *section));
        }
    });
    let (_, warm) = timed(|| {
        for _ in 0..WARM_REPEATS {
            for (params, section) in &keys {
                black_box(energy::active_hours(params, *section));
            }
        }
    });
    ledger.metric("core.active_hours_cold_s", cold / keys.len() as f64, "s");
    ledger.metric(
        "core.active_hours_warm_s",
        warm / (keys.len() * WARM_REPEATS) as f64,
        "s",
    );
}

/// The sweep engine's PV sizing for one service repeater, through the
/// public functions it composes (`active_hours`, the repeater load
/// profile, `size_for_zero_downtime`).
fn size_pv(cell: &ScenarioCell) -> PvOutcome {
    let params = cell.params();
    let section = TrackSection::around(cell.isd() / 2.0, params.lp_spacing());
    let active_h = energy::active_hours(params, section).value();
    let lp = params.lp_node();
    let night_h = (24.0 - params.timetable().service_window().value())
        .round()
        .clamp(0.0, 23.0);
    let day_window_h = 24.0 - night_h;
    let day_avg_w = (lp.full_load_power().value() * active_h
        + lp.p_sleep().value() * (day_window_h - active_h).max(0.0))
        / day_window_h;
    let load =
        DailyLoadProfile::repeater_profile(lp.p_sleep(), Watts::new(day_avg_w), night_h as usize);
    match sizing::size_for_zero_downtime(
        cell.location().clone(),
        load,
        &sizing::SizingOptions::paper_default(),
    ) {
        Some(fit) => PvOutcome::Sized {
            pv_wp: fit.pv.peak().value(),
            battery_wh: fit.battery_capacity.value(),
            days_full_pct: fit.mean_full_battery_fraction() * 100.0,
        },
        None => PvOutcome::Unsolvable,
    }
}

fn analytic_splits(cell: &ScenarioCell) -> [SegmentEnergy; 4] {
    let params = cell.params();
    let at = |n, isd, strategy| AnalyticEvaluator.average_power_per_km(params, n, isd, strategy);
    [
        at(
            0,
            params.conventional_isd(),
            EnergyStrategy::SleepModeRepeaters,
        ),
        at(
            cell.nodes(),
            cell.isd(),
            EnergyStrategy::ContinuousRepeaters,
        ),
        at(cell.nodes(), cell.isd(), EnergyStrategy::SleepModeRepeaters),
        at(
            cell.nodes(),
            cell.isd(),
            EnergyStrategy::SolarPoweredRepeaters,
        ),
    ]
}

/// `core.analytic_s`, `solar.*` and the `sim.sweep_*` figures on the
/// `sweep-pv` grid, plus the sweep fidelity checks.
fn sweep_layers(
    ledger: &mut Ledger,
    tracer: &mut Tracer,
    grid: &ScenarioGrid,
    cells: &[ScenarioCell],
) -> Result<(), String> {
    let mut first_touch: BTreeSet<&'static str> = BTreeSet::new();
    let (mut cold_s, mut cold_n, mut warm_s, mut warm_n) = (0.0, 0usize, 0.0, 0usize);
    let mut composed = Vec::with_capacity(cells.len());
    for cell in cells {
        let (splits, pv) = tracer.span("sweep.cell", |t| {
            let splits = t.span("core.analytic", |_| analytic_splits(cell));
            let pv = t.span("solar.size", |_| size_pv(cell));
            if first_touch.insert(cell.location().name()) {
                cold_s += t.last_s();
                cold_n += 1;
            } else {
                warm_s += t.last_s();
                warm_n += 1;
            }
            (splits, pv)
        });
        composed.push((splits, pv));
    }
    ledger.metric(
        "core.analytic_s",
        tracer.total_s("core.analytic") / cells.len() as f64,
        "s",
    );
    ledger.metric("solar.size_cold_s", cold_s / cold_n.max(1) as f64, "s");
    ledger.metric("solar.size_warm_s", warm_s / warm_n.max(1) as f64, "s");
    ledger.metric("solar.size_calls", (cold_n + warm_n) as f64, "count");

    let engine = SweepEngine::new();
    let report = engine.run(grid).map_err(|e| e.to_string())?;
    let mut composition_ok = report.len() == cells.len();
    let mut evaluate_ok = composition_ok;
    for ((cell, (splits, pv)), result) in cells.iter().zip(&composed).zip(report.results()) {
        let engine_splits = [
            *result.baseline(),
            *result.split(EnergyStrategy::ContinuousRepeaters),
            *result.split(EnergyStrategy::SleepModeRepeaters),
            *result.split(EnergyStrategy::SolarPoweredRepeaters),
        ];
        composition_ok &= bits_equal_splits(splits, &engine_splits) && *pv == result.pv();
        evaluate_ok &= engine.evaluate(cell) == *result;
    }
    ledger.check(
        "sweep_composition_matches_engine",
        composition_ok,
        format!("{} cells", cells.len()),
    );
    ledger.check(
        "sweep_evaluate_matches_report",
        evaluate_ok,
        format!("{} cells", cells.len()),
    );

    let noop = |_: &str| Ok(());
    let serial = |pv: bool| {
        timed(|| {
            SweepEngine::new().workers(1).pv_sizing(pv).stream_rows(
                grid,
                0..grid.len(),
                RowFormat::Csv,
                None,
                noop,
            )
        })
    };
    let (on, t_on) = serial(true);
    let (off, t_off) = serial(false);
    on.map_err(|e| e.to_string())?;
    off.map_err(|e| e.to_string())?;
    ledger.metric("sim.sweep_cell_s", t_on / grid.len() as f64, "s");
    ledger.metric("sim.sweep_pv_share", 1.0 - t_off / t_on, "ratio");
    Ok(())
}

fn bits_equal_splits(a: &[SegmentEnergy; 4], b: &[SegmentEnergy; 4]) -> bool {
    a.iter().zip(b).all(|(x, y)| {
        x.hp.value().to_bits() == y.hp.value().to_bits()
            && x.service.value().to_bits() == y.service.value().to_bits()
            && x.donor.value().to_bits() == y.donor.value().to_bits()
    })
}

fn bits_equal_stats(a: &SummaryStats, b: &SummaryStats) -> bool {
    a.n == b.n
        && [a.mean, a.stddev, a.ci95, a.min, a.max]
            .iter()
            .zip([b.mean, b.stddev, b.ci95, b.min, b.max])
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

#[derive(Default)]
struct McCounts {
    passes: u64,
    events: u64,
    wakes: u64,
}

/// One Monte-Carlo cell through the public functions `McEngine`
/// composes: sample the day's passes, replay the deployment and the
/// baseline segment, price both days, fold the daily metrics.
fn mc_cell<P: Probe>(
    p: &mut P,
    cell: &ScenarioCell,
    request: &Request,
    counts: &mut McCounts,
) -> [SummaryStats; 5] {
    let plan = request.plan();
    let params = cell.params();
    let model = plan.traffic_spec().model_for(params.timetable());
    let evaluator = EventDrivenEvaluator::with_policy(WakePolicy::instant());
    let deployment = evaluator.replicator(params, cell.nodes(), cell.isd());
    let baseline = evaluator.replicator(params, 0, params.conventional_isd());
    let mut acc = [Welford::new(); 5];
    for seed in plan
        .seeds()
        .cell_seeds(cell.index() as u64, plan.replications())
    {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let passes = p.span("traffic.sample", |_| model.passes(&mut rng));
        let dep = p.span("events.simulate", |_| deployment.simulate_day(&passes));
        let base = p.span("events.simulate", |_| baseline.simulate_day(&passes));
        let values = p.span("events.power", |_| {
            let sleep = EventDrivenEvaluator::power_from_report(
                params,
                cell.nodes(),
                cell.isd(),
                EnergyStrategy::SleepModeRepeaters,
                &dep,
            );
            let base_power = EventDrivenEvaluator::power_from_report(
                params,
                0,
                params.conventional_isd(),
                EnergyStrategy::SleepModeRepeaters,
                &base,
            );
            let service: Vec<f64> = dep
                .nodes_of(NodeKind::ServiceRepeater)
                .map(|node| node.trace().daily_energy(params.lp_node()).value())
                .collect();
            let repeater_wh = if service.is_empty() {
                0.0
            } else {
                service.iter().sum::<f64>() / service.len() as f64
            };
            [
                passes.len() as f64,
                base_power.total().value(),
                sleep.total().value(),
                sleep.savings_vs(&base_power) * 100.0,
                repeater_wh,
            ]
        });
        p.span("mc.fold", |_| {
            for (a, v) in acc.iter_mut().zip(values) {
                a.push(v);
            }
        });
        counts.passes += passes.len() as u64;
        for report in [&dep, &base] {
            counts.events += report.events_processed() as u64;
            counts.wakes += report
                .nodes()
                .iter()
                .map(|n| n.trace().wakes() as u64)
                .sum::<u64>();
        }
    }
    acc.map(|a| a.summary())
}

/// `traffic.*`, `events.simulate_s/events/wakes/power_s` and the
/// `sim.mc_*`, `sim.par_iter_s`, `sim.stream_ordered_s` figures on the
/// `mc-poisson` request, plus the MC fidelity check and the tracing
/// overhead.
fn mc_layers(
    ledger: &mut Ledger,
    tracer: &mut Tracer,
    request: &Request,
    nproc: usize,
) -> Result<(), String> {
    let grid = request.grid()?;
    let cells = grid.expand().map_err(|e| e.to_string())?;
    let plan = request.plan();

    // Block by block, the engine at 1 and at nproc workers and the
    // compositions run back to back in rotating order, and each cell's
    // traced and untraced compositions alternate, so a drift in host
    // speed biases none of the ratios below.
    let mut counts = McCounts::default();
    let (mut composed, mut untraced) = (Vec::new(), Vec::new());
    let (mut traced_s, mut untraced_s, mut engine_1_s, mut engine_n_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut rows_1, mut rows_n) = (Sha256::new(), Sha256::new());
    for (b, start) in (0..cells.len()).step_by(MC_BLOCK).enumerate() {
        let block = &cells[start..(start + MC_BLOCK).min(cells.len())];
        let range = start..start + block.len();
        for step in 0..3 {
            match (step + b) % 3 {
                0 => {
                    let (result, seconds) =
                        timed(|| engine_rows(&grid, &plan, range.clone(), 1, request, &mut rows_1));
                    result?;
                    engine_1_s += seconds;
                }
                1 => {
                    let (result, seconds) = timed(|| {
                        engine_rows(&grid, &plan, range.clone(), nproc, request, &mut rows_n)
                    });
                    result?;
                    engine_n_s += seconds;
                }
                _ => {
                    for (i, cell) in block.iter().enumerate() {
                        for traced in [i % 2 == 0, i % 2 == 1] {
                            if traced {
                                let (out, seconds) = timed(|| {
                                    tracer
                                        .span("mc.cell", |t| mc_cell(t, cell, request, &mut counts))
                                });
                                composed.push(out);
                                traced_s += seconds;
                            } else {
                                let mut scratch = McCounts::default();
                                let (out, seconds) =
                                    timed(|| mc_cell(&mut NoTrace, cell, request, &mut scratch));
                                untraced.push(out);
                                untraced_s += seconds;
                            }
                        }
                    }
                }
            }
        }
    }

    let days = tracer.count("traffic.sample").max(1) as f64;
    ledger.metric(
        "traffic.sample_s",
        tracer.total_s("traffic.sample") / days,
        "s",
    );
    ledger.metric("traffic.passes", counts.passes as f64, "count");
    ledger.metric(
        "events.simulate_s",
        tracer.total_s("events.simulate") / tracer.count("events.simulate").max(1) as f64,
        "s",
    );
    ledger.metric("events.events", counts.events as f64, "count");
    ledger.metric("events.wakes", counts.wakes as f64, "count");
    ledger.metric("events.power_s", tracer.total_s("events.power") / days, "s");

    // the two executors on the whole grid, in A-B-B-A order
    let run = || timed(|| McEngine::new().workers(nproc).run(&grid, &plan));
    let stream = || {
        let mut sink = DigestSink::new();
        let (result, seconds) = timed(|| {
            McEngine::new()
                .workers(nproc)
                .stream(&grid, &plan, request.format, &mut sink)
        });
        result
            .map(|_| (sink.hex(), seconds))
            .map_err(|e| e.to_string())
    };
    let (report, run_a) = run();
    let (sha_a, stream_a) = stream()?;
    let (sha_b, stream_b) = stream()?;
    let (_, run_b) = run();
    let report = report.map_err(|e| e.to_string())?;
    let fidelity = report.len() == composed.len()
        && composed == untraced
        && report.results().iter().zip(&composed).all(|(r, c)| {
            McMetric::ALL
                .iter()
                .all(|m| bits_equal_stats(r.stats(*m), &c[m.index()]))
        });
    ledger.check(
        "mc_composition_matches_engine",
        fidelity,
        format!("{} cells x {} days", composed.len(), plan.replications()),
    );

    let mut expected = DigestSink::new();
    report
        .stream_into(request.format, &mut expected)
        .map_err(|e| e.to_string())?;
    let expected = expected.hex();
    ledger.check(
        "mc_stream_matches_run",
        sha_a == expected && sha_b == expected && rows_1.finalize_hex() == rows_n.finalize_hex(),
        format!("stream at {nproc} workers; block rows at 1 and {nproc}"),
    );
    ledger.metric("trace.overhead_share", traced_s / untraced_s - 1.0, "ratio");
    ledger.metric("sim.par_iter_s", (run_a + run_b) / 2.0, "s");
    ledger.metric("sim.stream_ordered_s", (stream_a + stream_b) / 2.0, "s");
    ledger.metric("sim.mc_inproc_scaling", engine_1_s / engine_n_s, "ratio");
    ledger.metric("sim.mc_cell_s", engine_1_s / cells.len() as f64, "s");
    let layers: f64 = [
        "traffic.sample",
        "events.simulate",
        "events.power",
        "mc.fold",
    ]
    .iter()
    .map(|name| tracer.total_s(name))
    .sum();
    ledger.metric(
        "sim.mc_overhead_s",
        (engine_1_s - layers) / cells.len() as f64,
        "s",
    );
    Ok(())
}

/// Raw MC rows of `range` at `workers`, folded into `digest`.
fn engine_rows(
    grid: &ScenarioGrid,
    plan: &ReplicationPlan,
    range: Range<usize>,
    workers: usize,
    request: &Request,
    digest: &mut Sha256,
) -> Result<(), String> {
    McEngine::new()
        .workers(workers)
        .stream_rows(grid, plan, range, request.format, None, |row| {
            digest.update(row.as_bytes());
            Ok(())
        })
        .map(|_| ())
        .map_err(|e| e.to_string())
}

/// `events.poisson_events_per_s` next to `events.replay_events_per_s`:
/// the paper's 10-node segment under the paper wake policy, on seeded
/// Poisson days and on the deterministic timetable day that the event
/// queue's replay cache serves (the `BENCH_events.json` method).
fn event_throughput(ledger: &mut Ledger, seed: u64) {
    let params = ScenarioParams::paper_default();
    let nodes = segment_nodes(10, Meters::new(2650.0), params.lp_spacing());
    let sim = CorridorSimulator::new().with_policy(WakePolicy::paper_default());
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let poisson: Vec<_> = (0..EVENT_DAYS)
        .map(|_| PoissonTimetable::paper_rate().sample_passes(&mut rng))
        .collect();
    let replay = Timetable::paper_default().passes();

    let rate = |days: &mut dyn Iterator<Item = &Vec<TrainPass>>| {
        let started = Instant::now();
        let events: usize = days
            .map(|d| sim.simulate(&nodes, d).events_processed())
            .sum();
        events as f64 / secs(started)
    };
    let _ = sim.simulate(&nodes, &replay);
    let replay_rate = rate(&mut std::iter::repeat_n(&replay, EVENT_DAYS));
    let poisson_rate = rate(&mut poisson.iter());
    ledger.metric("events.poisson_events_per_s", poisson_rate, "1/s");
    ledger.metric("events.replay_events_per_s", replay_rate, "1/s");
}

/// `deploy.*` and `sim.optimize_cell_s` on the grids `cache-replay`
/// sends to the optimizer.
fn deploy_layer(ledger: &mut Ledger) -> Result<(), String> {
    let space = serve_search_space();
    let (mut lookups, mut profiles, mut cells, mut stream_s) = (0u64, 0u64, 0usize, 0.0);
    for name in ["mixed-8", "screening-200"] {
        let grid = ScenarioGrid::by_name(name).ok_or("unknown grid")?;
        let report = DeploymentOptimizer::new()
            .workers(1)
            .run(&grid, &space)
            .map_err(|e| e.to_string())?;
        lookups += report.coverage_lookups();
        profiles += report.profile_evaluations();
        let (result, seconds) = timed(|| {
            DeploymentOptimizer::new().workers(1).stream_rows(
                &grid,
                &space,
                0..grid.len(),
                RowFormat::Csv,
                None,
                |_| Ok(()),
            )
        });
        result.map_err(|e| e.to_string())?;
        stream_s += seconds;
        cells += grid.len();
    }
    ledger.metric("deploy.lookups", lookups as f64, "count");
    ledger.metric("deploy.profiles", profiles as f64, "count");
    ledger.metric(
        "deploy.hit_ratio",
        1.0 - profiles as f64 / lookups.max(1) as f64,
        "ratio",
    );
    ledger.metric("sim.optimize_cell_s", stream_s / cells as f64, "s");
    Ok(())
}

/// `sim.cache_*`: one cold pass into an empty `ResultCache` (every cell
/// a miss that stores) and warm passes that must hit on every cell and
/// reproduce the uncached bytes.
fn cache_layer(ledger: &mut Ledger, work_dir: &Path, mc_seed: u64) -> Result<(), String> {
    let dir = work_dir.join("ledger-cache");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::open(&dir).map_err(|e| format!("cache {}: {e}", dir.display()))?;
    let requests = [
        "sweep grid=mixed-8 workers=1".to_owned(),
        format!("mc grid=mixed-8 reps=5 seed={mc_seed} workers=1"),
        "optimize grid=screening-200 workers=1".to_owned(),
    ];
    let (mut miss_s, mut miss_cells, mut hit_s, mut hit_cells) = (0.0, 0u64, 0.0, 0u64);
    let (mut hits, mut cells) = (0u64, 0u64);
    let mut ok = true;
    for line in &requests {
        let request = Request::parse(line)?;
        let grid = request.grid()?;
        let uncached = crate::reference_digest(&request)?;
        let stream = |sink: &mut DigestSink| -> Result<_, String> {
            let format = request.format;
            match request.engine.as_str() {
                "sweep" => {
                    SweepEngine::new()
                        .workers(1)
                        .stream_with(&grid, format, sink, Some(&cache))
                }
                "mc" => McEngine::new().workers(1).stream_with(
                    &grid,
                    &request.plan(),
                    format,
                    sink,
                    Some(&cache),
                ),
                _ => DeploymentOptimizer::new().workers(1).stream_with(
                    &grid,
                    &serve_search_space(),
                    format,
                    sink,
                    Some(&cache),
                ),
            }
            .map_err(|e| e.to_string())
        };
        for pass in 0..=CACHE_WARM_PASSES {
            let mut sink = DigestSink::new();
            let (summary, seconds) = timed(|| stream(&mut sink));
            let summary = summary?;
            ok &= sink.hex() == uncached;
            if pass == 0 {
                ok &= summary.cache_misses == summary.cells && summary.cache_hits == 0;
                miss_s += seconds;
                miss_cells += summary.cells;
            } else {
                ok &= summary.cache_hits == summary.cells && summary.cache_misses == 0;
                hit_s += seconds;
                hit_cells += summary.cells;
            }
            hits += summary.cache_hits;
            cells += summary.cells;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    ledger.check(
        "cache_passes_hit_and_match",
        ok,
        "cold pass all misses, warm passes all hits, bytes equal the uncached stream",
    );
    ledger.metric("sim.cache_miss_cell_s", miss_s / miss_cells as f64, "s");
    ledger.metric("sim.cache_hit_cell_s", hit_s / hit_cells as f64, "s");
    ledger.metric("sim.cache_hit_ratio", hits as f64 / cells as f64, "ratio");
    Ok(())
}

/// `core.emit_*`: `RowEmitter::row` framing pre-rendered rows into a
/// hashing sink, the work `serve` does per row on its way to stdout.
fn emit_layer(ledger: &mut Ledger) -> Result<(), String> {
    let grid = ScenarioGrid::screening_200();
    let space = serve_search_space();
    let mut streams: Vec<(RowFormat, &str, Vec<String>)> = Vec::new();
    for format in [RowFormat::Csv, RowFormat::Json] {
        let mut rows = Vec::new();
        SweepEngine::new()
            .stream_rows(&grid, 0..grid.len(), format, None, |row| {
                rows.push(row.to_owned());
                Ok(())
            })
            .map_err(|e| e.to_string())?;
        streams.push((format, CSV_HEADER, rows));
        let mut rows = Vec::new();
        DeploymentOptimizer::new()
            .stream_rows(&grid, &space, 0..grid.len(), format, None, |row| {
                rows.push(row.to_owned());
                Ok(())
            })
            .map_err(|e| e.to_string())?;
        streams.push((format, OPTIMIZE_CSV_HEADER, rows));
    }
    let (mut bytes, mut rows_emitted) = (0u64, 0usize);
    let started = Instant::now();
    for pass in 0..EMIT_PASSES {
        for (format, header, rows) in &streams {
            let mut sink = DigestSink::new();
            let mut emitter =
                RowEmitter::begin(&mut sink, *format, header).map_err(|e| e.to_string())?;
            for row in rows {
                emitter.row(row).map_err(|e| e.to_string())?;
            }
            emitter.finish().map_err(|e| e.to_string())?;
            if pass == 0 {
                bytes += sink.bytes();
            }
            rows_emitted += rows.len();
            black_box(sink.hex());
        }
    }
    ledger.metric("core.emit_s", secs(started) / rows_emitted as f64, "s");
    ledger.metric("core.emit_bytes", bytes as f64, "count");
    Ok(())
}

/// `network.*` on the seeded network requests, at one worker.
fn network_layer(ledger: &mut Ledger, requests: &[Request]) -> Result<(), String> {
    let space = network_search_space();
    let (mut day_s, mut edge_days, mut search_s, mut floor_s, mut sleeps) =
        (0.0, 0usize, 0.0, 0.0, 0usize);
    let mut per_topology: BTreeSet<&str> = BTreeSet::new();
    for request in requests {
        let net = request.network()?;
        let (report, seconds) = timed(|| {
            NetworkDayEngine::new()
                .workers(1)
                .reps(request.reps)
                .seed(request.seed)
                .run(&net, &space)
        });
        let report = report.map_err(|e| e.to_string())?;
        day_s += seconds;
        edge_days += report.per_edge().len() * report.reps();
        if per_topology.insert(request.topology.as_str()) {
            let optimizer = NetworkOptimizer::new().workers(1);
            let (plain, t_plain) = timed(|| optimizer.run(&net, &space));
            let (floor, t_floor) = timed(|| optimizer.margin_floor_db(-3.0).run(&net, &space));
            plain.map_err(|e| e.to_string())?;
            sleeps += floor.map_err(|e| e.to_string())?.plan().len();
            search_s += t_plain;
            floor_s += t_floor;
        }
    }
    let topologies = per_topology.len().max(1) as f64;
    ledger.metric("network.day_s", day_s / edge_days.max(1) as f64, "s");
    ledger.metric("network.edge_days", edge_days as f64, "count");
    ledger.metric("network.search_s", search_s / topologies, "s");
    ledger.metric("network.schedule_s", (floor_s - search_s) / topologies, "s");
    ledger.metric("network.sleep_decisions", sleeps as f64, "count");
    Ok(())
}
