//! Event-driven corridor simulation: replays one or more seeded days of
//! (possibly stochastic) traffic through the per-node wake state
//! machines and prints a reproducible per-node energy report.
//!
//! ```console
//! $ cargo run --release -p corridor_bench --bin simulate -- --help
//! $ cargo run --release -p corridor_bench --bin simulate -- --model poisson --seed 42
//! $ cargo run --release -p corridor_bench --bin simulate -- --stats
//! ```
//!
//! Stdout depends only on the options (seeded RNG, no clocks), so piped
//! output is byte-reproducible; the wall-clock timing goes to stderr.

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use corridor_bench::args::{self, Fields, Stdout, Stop};
use corridor_bench::{render, scenario};
use corridor_core::deploy::IsdTable;
use corridor_core::report::TextTable;
use corridor_core::traffic::{
    DelayModel, MixedTimetable, PoissonTimetable, Timetable, TrafficModel,
};
use corridor_core::{AnalyticEvaluator, EnergyStrategy, SegmentEvaluator};
use corridor_events::{EventDrivenEvaluator, WakePolicy};
use rand::SeedableRng;

const USAGE: &str = "\
usage: simulate [options]

options:
  --model M     deterministic | poisson | jittered | mixed (default: poisson)
  --seed N      RNG seed for stochastic models (default: 42)
  --days N      days to simulate and average over (default: 1)
  --nodes N     repeaters per segment, 0-10 (default: 10)
  --policy P    wake policy: instant | paper (default: paper)
  --stats       print the fixed-seed Poisson statistics report and exit
                (fixed configuration; not combinable with other options)
  --help        this text
";

fn main() -> ExitCode {
    args::run("simulate", USAGE, &["stats"], run)
}

fn run(f: &mut Fields, out: &mut Stdout) -> Result<ExitCode, Stop> {
    let stats = f.standalone("stats")?;
    let models = [
        (
            "poisson",
            TrafficModel::Poisson(PoissonTimetable::paper_rate()),
        ),
        (
            "deterministic",
            TrafficModel::Deterministic(Timetable::paper_default()),
        ),
        (
            "jittered",
            TrafficModel::Jittered {
                base: Timetable::paper_default(),
                delays: DelayModel::typical(),
            },
        ),
        ("mixed", TrafficModel::Mixed(MixedTimetable::paper_mixed())),
    ];
    let (model_name, model) = f.pick("model", models)?;
    let policies = [
        ("paper", WakePolicy::paper_default()),
        ("instant", WakePolicy::instant()),
    ];
    let (policy_name, policy) = f.pick("policy", policies)?;
    let seed = f.parse("seed")?.unwrap_or(42);
    let days = f.reps("days")?.unwrap_or(1);
    let nodes = f.nodes()?;
    f.finish()?;

    if stats {
        write!(out, "{}", render::poisson_stats())?;
        return Ok(ExitCode::SUCCESS);
    }

    let params = scenario();
    let isd = IsdTable::paper()
        .isd_for(nodes)
        .expect("nodes validated to 0-10");
    let replicator = EventDrivenEvaluator::with_policy(policy).replicator(&params, nodes, isd);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);

    let started = Instant::now();
    let mut reports = Vec::with_capacity(days);
    for _ in 0..days {
        let passes = model.passes(&mut rng);
        reports.push(replicator.simulate_day(&passes));
    }
    let elapsed = started.elapsed();

    writeln!(out, "event-driven corridor simulation")?;
    writeln!(out)?;
    writeln!(
        out,
        "model: {}  seed: {}  days: {}  policy: {}",
        model_name, seed, days, policy_name
    )?;
    writeln!(
        out,
        "segment: {} repeater(s) at ISD {:.0} m, LP spacing {:.0} m",
        nodes,
        isd.value(),
        params.lp_spacing().value()
    )?;
    writeln!(out)?;

    // per-node table, averaged over the simulated days
    let first = &reports[0];
    let days = reports.len() as f64;
    let mut table = TextTable::new(vec![
        "node".into(),
        "kind".into(),
        "section [m]".into(),
        "wakes/day".into(),
        "powered [s/day]".into(),
        "uncovered [s/day]".into(),
        "energy [Wh/day]".into(),
    ]);
    for (idx, node) in first.nodes().iter().enumerate() {
        let wakes: f64 = reports
            .iter()
            .map(|r| r.nodes()[idx].trace().wakes() as f64)
            .sum::<f64>()
            / days;
        let powered: f64 = reports
            .iter()
            .map(|r| r.nodes()[idx].trace().powered().value())
            .sum::<f64>()
            / days;
        let uncovered: f64 = reports
            .iter()
            .map(|r| r.nodes()[idx].trace().uncovered().value())
            .sum::<f64>()
            / days;
        let model = match node.kind() {
            corridor_events::NodeKind::HighPowerMast => params.hp_mast(),
            _ => params.lp_node(),
        };
        let energy: f64 = reports
            .iter()
            .map(|r| r.nodes()[idx].trace().daily_energy(model).value())
            .sum::<f64>()
            / days;
        table.add_row(vec![
            idx.to_string(),
            node.kind().to_string(),
            format!(
                "{:.0}..{:.0}",
                node.section().start().value(),
                node.section().end().value()
            ),
            format!("{wakes:.1}"),
            format!("{powered:.1}"),
            format!("{uncovered:.2}"),
            format!("{energy:.2}"),
        ]);
    }
    writeln!(out, "{}", table.render())?;

    let mean_passes: f64 = reports.iter().map(|r| r.passes() as f64).sum::<f64>() / days;
    let mean_events: f64 = reports
        .iter()
        .map(|r| r.events_processed() as f64)
        .sum::<f64>()
        / days;
    writeln!(
        out,
        "mean passes/day: {mean_passes:.1}  mean events/day: {mean_events:.0}"
    )?;
    writeln!(out)?;

    // segment energy per strategy, simulated vs closed form
    writeln!(
        out,
        "per-km energy split (day 1) vs the closed-form backend:"
    )?;
    let mut split = TextTable::new(vec![
        "strategy".into(),
        "simulated [Wh/h/km]".into(),
        "analytic [Wh/h/km]".into(),
        "delta [%]".into(),
    ]);
    // the first report already is day 1, and its trace serves all three
    // strategies
    for strategy in EnergyStrategy::ALL {
        let simulated =
            EventDrivenEvaluator::power_from_report(&params, nodes, isd, strategy, first)
                .total()
                .value();
        let analytic = AnalyticEvaluator
            .average_power_per_km(&params, nodes, isd, strategy)
            .total()
            .value();
        split.add_row(vec![
            strategy.to_string(),
            format!("{simulated:.3}"),
            format!("{analytic:.3}"),
            format!("{:+.3}", (simulated / analytic - 1.0) * 100.0),
        ]);
    }
    writeln!(out, "{}", split.render())?;
    eprintln!(
        "simulated {} day(s) in {:.1} ms ({:.0} events/s)",
        reports.len(),
        elapsed.as_secs_f64() * 1e3,
        mean_events * days / elapsed.as_secs_f64().max(1e-9)
    );
    Ok(ExitCode::SUCCESS)
}
