//! Text rendering of every reproduction artefact.
//!
//! Each function returns *exactly* the bytes its binary prints — the
//! binaries are thin [`args::print`](crate::args::print) wrappers, and
//! `tests/golden_outputs.rs` (in the umbrella crate) asserts these
//! strings against the committed reference files under `docs/results/`,
//! so paper fidelity is enforced by `cargo test` instead of by hand.

use core::fmt::Write as _;

use corridor_core::deploy::IsdTable;
use corridor_core::report::TextTable;
use corridor_core::units::Meters;
use corridor_core::{experiments, ScenarioParams};

use crate::{scenario, wh};

/// Renders the Section V headline-number comparison (`headline` binary).
pub fn headline() -> String {
    let h = experiments::headline_numbers(&scenario());
    let mut out = String::from("headline numbers (Section V text)\n\n");
    let mut table = TextTable::new(vec!["quantity".into(), "paper".into(), "this model".into()]);
    let rows: Vec<(&str, &str, String)> = vec![
        (
            "HP full-load share, ISD 500 m",
            "2.85 %",
            format!("{:.2} %", h.hp_duty_500m * 100.0),
        ),
        (
            "HP full-load share, ISD 2650 m",
            "9.66 %",
            format!("{:.2} %", h.hp_duty_2650m * 100.0),
        ),
        (
            "repeater average power (sleep mode)",
            "5.17 W",
            format!("{:.2} W", h.repeater_average_power.value()),
        ),
        (
            "repeater daily energy",
            "124.1 Wh",
            format!("{:.1} Wh", h.repeater_daily_energy.value()),
        ),
        (
            "savings, 1 node, sleep mode",
            "57 %",
            format!("{:.1} %", h.savings_sleep_1 * 100.0),
        ),
        (
            "savings, 10 nodes, sleep mode",
            "74 %",
            format!("{:.1} %", h.savings_sleep_10 * 100.0),
        ),
        (
            "savings, 1 node, solar",
            "59 %",
            format!("{:.1} %", h.savings_solar_1 * 100.0),
        ),
        (
            "savings, 10 nodes, solar",
            "79 %",
            format!("{:.1} %", h.savings_solar_10 * 100.0),
        ),
    ];
    for (q, p, m) in rows {
        table.add_row(vec![q.to_string(), p.to_string(), m]);
    }
    let _ = writeln!(out, "{}", table.render());
    out
}

/// Renders the Table I component bill (`table1` binary).
pub fn table1() -> String {
    let bill = experiments::table1();
    let mut out = String::from("Table I — low-power repeater node power consumption\n\n");
    let mut table = TextTable::new(vec![
        "component".into(),
        "role".into(),
        "active [W]".into(),
        "sleep [W]".into(),
    ]);
    for c in bill.components() {
        table.add_row(vec![
            c.name.to_string(),
            c.role.to_string(),
            format!("{:.3}", c.active.value()),
            format!("{:.2}", c.sleep.value()),
        ]);
    }
    let _ = writeln!(out, "{}", table.render());
    let _ = writeln!(out, "paths: {} DL, {} UL", bill.dl_paths(), bill.ul_paths());
    let _ = writeln!(
        out,
        "sleep total (computed):      {:.2} W (paper: 4.72 W)",
        bill.sleep_total().value()
    );
    let _ = writeln!(
        out,
        "active total (published):    {:.2} W",
        bill.paper_full_load_total().value()
    );
    let _ = writeln!(
        out,
        "active total (naive sum):    {:.2} W (see DESIGN.md §2.4 on the discrepancy)",
        bill.naive_active_total().value()
    );
    out
}

/// Renders the Table II power-model parameters (`table2` binary).
pub fn table2() -> String {
    let mut out = String::from("Table II — power model parameters\n\n");
    let mut table = TextTable::new(vec![
        "node type".into(),
        "Pmax [W]".into(),
        "P0 [W]".into(),
        "dP".into(),
        "Psleep [W]".into(),
        "full load [W]".into(),
    ]);
    for row in experiments::table2() {
        table.add_row(vec![
            row.node_type.to_string(),
            format!("{:.0}", row.model.p_max().value()),
            format!("{:.2}", row.model.p0().value()),
            format!("{:.1}", row.model.delta_p()),
            format!("{:.2}", row.model.p_sleep().value()),
            format!("{:.2}", row.model.full_load_power().value()),
        ]);
    }
    let _ = writeln!(out, "{}", table.render());
    let _ = writeln!(
        out,
        "a mast carries two RRHs: 560 W full load, 336 W idle, 224 W sleep"
    );
    out
}

/// Renders the Table III scenario parameters (`table3` binary).
pub fn table3() -> String {
    let params = scenario();
    let train = params.train();
    let mut out = String::from("Table III — parameters for average energy calculations\n\n");
    let mut table = TextTable::new(vec!["parameter".into(), "value".into()]);
    let rows: Vec<(&str, String)> = vec![
        (
            "Number of trains/h",
            format!("{}", params.timetable().trains_per_hour()),
        ),
        (
            "Hours per night without traffic",
            format!("{} h", 24.0 - params.timetable().service_window().value()),
        ),
        ("Length of a train", format!("{}", train.length())),
        (
            "Velocity of a train",
            format!("{}", train.speed().kilometers_per_hour()),
        ),
        (
            "LP repeater node spacing",
            format!("{}", params.lp_spacing()),
        ),
        (
            "Power for HP RRH mast under full load",
            format!("{}", params.hp_mast().full_load_power()),
        ),
        (
            "Power for HP RRH mast in sleep mode",
            format!("{}", params.hp_mast().p_sleep()),
        ),
        (
            "Power for LP node under full load",
            format!("{}", params.lp_node().full_load_power()),
        ),
        (
            "Power for LP node no load",
            format!("{}", params.lp_node().p0()),
        ),
        (
            "Power for LP node in sleep mode",
            format!("{}", params.lp_node().p_sleep()),
        ),
    ];
    for (k, v) in rows {
        table.add_row(vec![k.to_string(), v]);
    }
    let _ = writeln!(out, "{}", table.render());

    // the derived "operation under full load per train" range of the paper
    let t_500 =
        corridor_core::traffic::TrackSection::new(Meters::ZERO, Meters::new(500.0)).occupancy(
            &corridor_core::traffic::TrainPass::new(train, corridor_core::units::Seconds::ZERO),
        );
    let t_2650 =
        corridor_core::traffic::TrackSection::new(Meters::ZERO, Meters::new(2650.0)).occupancy(
            &corridor_core::traffic::TrainPass::new(train, corridor_core::units::Seconds::ZERO),
        );
    let _ = writeln!(
        out,
        "derived full-load time per train: {:.1} s (ISD 500 m) to {:.1} s (ISD 2650 m); paper: 16 s - 55 s",
        (t_500.1 - t_500.0).value(),
        (t_2650.1 - t_2650.0).value()
    );
    out
}

/// Renders the Table IV sizing results (`table4` binary).
pub fn table4() -> String {
    let mut out = String::from("Table IV — off-grid PV sizing at the four example regions\n\n");
    let mut table = TextTable::new(vec![
        "parameter".into(),
        "Madrid".into(),
        "Lyon".into(),
        "Vienna".into(),
        "Berlin".into(),
    ]);
    let rows = experiments::table4();
    table.add_row(
        std::iter::once("Required peak PV power [Wp]".to_string())
            .chain(rows.iter().map(|r| format!("{:.0}", r.pv_peak.value())))
            .collect(),
    );
    table.add_row(
        std::iter::once("Required battery capacity [Wh]".to_string())
            .chain(rows.iter().map(|r| format!("{:.0}", r.battery.value())))
            .collect(),
    );
    table.add_row(
        std::iter::once("Days with full battery [%]".to_string())
            .chain(rows.iter().map(|r| format!("{:.2}", r.days_full_pct)))
            .collect(),
    );
    let _ = writeln!(out, "{}", table.render());
    let _ = writeln!(
        out,
        "paper:  540/540/540/600 Wp, 720/720/1440/1440 Wh, 98.13/95.15/93.73/88.0 % days full"
    );
    let _ = writeln!(
        out,
        "(percentages depend on the satellite weather database; see EXPERIMENTS.md)"
    );
    out
}

/// Renders the Fig. 3 signal/noise profile (`fig3` binary).
pub fn fig3() -> String {
    let params: ScenarioParams = scenario();
    let samples = experiments::fig3(&params);

    let mut out = String::from("Fig. 3 — signal and noise power, d_ISD = 2400 m, N = 8\n\n");
    let mut table = TextTable::new(vec![
        "pos [m]".into(),
        "HP left [dBm]".into(),
        "HP right [dBm]".into(),
        "best LP [dBm]".into(),
        "total signal [dBm]".into(),
        "total noise [dBm]".into(),
    ]);
    for s in samples.iter().step_by(10) {
        let best_lp = s
            .lp_nodes
            .iter()
            .map(|p| p.value())
            .fold(f64::NEG_INFINITY, f64::max);
        table.add_row(vec![
            format!("{:.0}", s.position.value()),
            format!("{:.1}", s.hp_left.value()),
            format!("{:.1}", s.hp_right.value()),
            format!("{best_lp:.1}"),
            format!("{:.1}", s.total_signal.value()),
            format!("{:.1}", s.total_noise.value()),
        ]);
    }
    let _ = writeln!(out, "{}", table.render());

    let min_signal = samples
        .iter()
        .map(|s| s.total_signal.value())
        .fold(f64::INFINITY, f64::min);
    let _ = writeln!(
        out,
        "minimum total signal along the track: {min_signal:.1} dBm"
    );
    let _ = writeln!(
        out,
        "paper claim: the signal power can be kept above -100 dBm -> {}",
        if min_signal > -100.0 {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        }
    );
    out
}

/// Renders one Fig. 4 table for a given ISD mapping.
fn fig4_table(params: &ScenarioParams, table: &IsdTable, label: &str) -> String {
    let rows = experiments::fig4(params, table);
    let baseline = rows[0].sleep;
    let mut out = format!("Fig. 4 ({label}) — average energy [Wh] per hour per km\n\n");
    let mut text = TextTable::new(vec![
        "nodes".into(),
        "ISD [m]".into(),
        "continuous".into(),
        "sleep".into(),
        "solar".into(),
        "saving cont.".into(),
        "saving sleep".into(),
        "saving solar".into(),
    ]);
    for row in &rows {
        let savings = row.savings_vs(baseline);
        text.add_row(vec![
            row.n.to_string(),
            format!("{:.0}", row.isd.value()),
            wh(row.continuous.value()),
            wh(row.sleep.value()),
            wh(row.solar.value()),
            format!("{:.1} %", savings[0] * 100.0),
            format!("{:.1} %", savings[1] * 100.0),
            format!("{:.1} %", savings[2] * 100.0),
        ]);
    }
    let _ = writeln!(out, "{}", text.render());
    out
}

/// Renders the Fig. 4 strategy comparison (`fig4` binary).
pub fn fig4() -> String {
    let params = scenario();
    let mut out = fig4_table(&params, &IsdTable::paper(), "paper ISD mapping");
    let computed = experiments::isd_sweep(&params, Meters::new(5.0)).computed;
    out.push_str(&fig4_table(&params, &computed, "computed ISD mapping"));
    let _ = writeln!(
        out,
        "paper claims: 57 %/74 % sleep-mode and 59 %/79 % solar savings at 1/10 nodes."
    );
    out
}

/// Renders the Section V maximum-ISD sweep (`isd_sweep` binary).
pub fn isd_sweep() -> String {
    let sweep = experiments::isd_sweep(&scenario(), Meters::new(5.0));
    let mut out = String::from("maximum ISD per repeater count (50 m grid)\n\n");
    let mut table = TextTable::new(vec![
        "nodes".into(),
        "computed [m]".into(),
        "paper [m]".into(),
        "delta".into(),
    ]);
    for n in 0..=10usize {
        let computed = sweep.computed.isd_for(n);
        let paper = sweep.paper.isd_for(n);
        table.add_row(vec![
            n.to_string(),
            computed.map_or("-".into(), |m| format!("{:.0}", m.value())),
            paper.map_or("-".into(), |m| format!("{:.0}", m.value())),
            match (computed, paper) {
                (Some(c), Some(p)) => format!("{:+.0}", c.value() - p.value()),
                _ => "-".into(),
            },
        ]);
    }
    let _ = writeln!(out, "{}", table.render());
    let _ = writeln!(
        out,
        "paper sequence: 1250 1450 1600 1800 1950 2100 2250 2400 2500 2650"
    );
    let _ = writeln!(
        out,
        "(n = 0 is the model's own bound; the paper's 500 m reference is the"
    );
    let _ = writeln!(out, "real-world deployment value, not a model output)");
    out
}

/// Renders the fronthaul check (`fronthaul` binary): the V-band daisy
/// chain feeding each paper segment with repeaters (Fig. 1) must close
/// every donor→node hop, or the relays would need cables after all.
pub fn fronthaul() -> String {
    let params = scenario();
    let mut out =
        String::from("mmWave fronthaul per paper segment (V-band daisy chain, Fig. 1)\n\n");
    let mut table = TextTable::new(vec![
        "nodes".into(),
        "ISD [m]".into(),
        "hops".into(),
        "worst margin [dB]".into(),
        "availability".into(),
        "feasible".into(),
    ]);
    for (n, isd) in IsdTable::paper().iter().filter(|&(n, _)| n >= 1) {
        let report = experiments::fronthaul_check(&params, isd, n);
        table.add_row(vec![
            n.to_string(),
            format!("{:.0}", isd.value()),
            report.hop_count.to_string(),
            format!("{:.1}", report.worst_margin_db),
            format!("{:.4} %", report.availability * 100.0),
            if report.is_feasible() { "yes" } else { "no" }.into(),
        ]);
    }
    let _ = writeln!(out, "{}", table.render());
    out
}

/// Renders the fixed-seed Poisson-timetable statistics (`simulate
/// --stats` and the `poisson_stats` golden file): the event-driven
/// simulator replays 20 seeded Poisson days through the paper's 10-node
/// segment and pins the mean and variance of the daily service-repeater
/// energy against the deterministic closed-form value.
pub fn poisson_stats() -> String {
    const SEEDS: u64 = 20;
    let analytic = experiments::headline_numbers(&scenario())
        .repeater_daily_energy
        .value();

    let mut out = String::from(
        "Poisson timetable sensitivity — event-driven corridor simulator\n\n\
         model: Poisson arrivals, mean 8 trains/h over a 19 h service window\n\
         segment: 10 service repeaters at ISD 2650 m, instant wake policy\n\
         metric: mean daily energy of one service repeater (sleep strategy)\n\n",
    );
    let mut table = TextTable::new(vec![
        "seed".into(),
        "trains".into(),
        "powered [s]".into(),
        "energy [Wh/day]".into(),
    ]);
    let mut energies = Vec::with_capacity(SEEDS as usize);
    let mut trains_total = 0usize;
    for seed in 1..=SEEDS {
        let day = crate::poisson_service_day(seed);
        table.add_row(vec![
            seed.to_string(),
            day.trains.to_string(),
            format!("{:.1}", day.powered_s),
            format!("{:.3}", day.energy_wh),
        ]);
        energies.push(day.energy_wh);
        trains_total += day.trains;
    }
    let _ = writeln!(out, "{}", table.render());

    let n = energies.len() as f64;
    let mean = energies.iter().sum::<f64>() / n;
    let variance = energies
        .iter()
        .map(|e| (e - mean) * (e - mean))
        .sum::<f64>()
        / n;
    let _ = writeln!(out, "runs: {SEEDS}");
    let _ = writeln!(
        out,
        "mean trains/day: {:.1} (rate: 152)",
        trains_total as f64 / n
    );
    let _ = writeln!(
        out,
        "mean energy: {mean:.3} Wh/day (deterministic closed form: {analytic:.3})"
    );
    let _ = writeln!(
        out,
        "deviation from closed form: {:+.3} %",
        (mean / analytic - 1.0) * 100.0
    );
    let _ = writeln!(
        out,
        "variance: {variance:.4} Wh^2  std dev: {:.4} Wh",
        variance.sqrt()
    );
    out
}

/// Renders the Monte-Carlo smoke report (`mc --smoke` and the
/// `mc_smoke` golden file): a 3-cell timetable-density grid × 10 Poisson
/// replications, master seed 42, folded to per-cell statistics. Small
/// enough for CI, but it exercises the whole replication pipeline —
/// seed-splitting, the reused per-cell simulators, the Welford fold and
/// the deterministic CSV writer.
pub fn mc_smoke() -> String {
    use corridor_sim::{McEngine, McMetric, ReplicationPlan, ScenarioGrid};

    let grid = ScenarioGrid::smoke_3();
    let plan = ReplicationPlan::new(10);
    let report = McEngine::new()
        .workers(1)
        .run(&grid, &plan)
        .expect("smoke grid is valid");

    let mut out = String::from(
        "Monte-Carlo smoke sweep — event-driven replications with CIs\n\n\
         grid: 3 timetable densities (4/8/12 trains/h), paper 10-node segment\n\
         plan: 10 Poisson replications per cell, master seed 42\n\n",
    );
    let mut table = TextTable::new(vec![
        "cell".into(),
        "trains/h".into(),
        "passes".into(),
        "sleep [Wh/h/km]".into(),
        "saving [%]".into(),
        "repeater [Wh/day]".into(),
        "ci95 [Wh/day]".into(),
    ]);
    for r in report.results() {
        let passes = r.stats(McMetric::Passes);
        let sleep = r.stats(McMetric::SleepWhKm);
        let saving = r.stats(McMetric::SavingSleepPct);
        let repeater = r.stats(McMetric::RepeaterWhDay);
        table.add_row(vec![
            r.cell().index().to_string(),
            format!("{}", r.cell().trains_per_hour()),
            format!("{:.1}", passes.mean),
            format!("{:.3}", sleep.mean),
            format!("{:.2}", saving.mean),
            format!("{:.3}", repeater.mean),
            format!("{:.3}", repeater.ci95),
        ]);
    }
    let _ = writeln!(out, "{}", table.render());
    let _ = writeln!(out, "csv:");
    out.push_str(&report.to_csv());
    out
}

/// Renders the deployment-optimizer smoke search (the committed
/// `optimize_smoke` golden file): the 3-cell timetable-density grid
/// searched against the model grid (counts 0–10, 50 m ISD steps,
/// instant wake policy), reduced to per-cell Pareto frontiers. Small
/// enough for CI, but it exercises the whole optimizer pipeline — the
/// shared coverage cache, the cached max-ISD binary search, the
/// analytic energy backend and the deterministic writers — and pins the
/// cache counters (deterministic across worker counts by design).
pub fn optimize_smoke() -> String {
    use corridor_core::units::Meters;
    use corridor_sim::{DeploymentOptimizer, IsdSearch, ScenarioGrid, SearchSpace};

    let space = SearchSpace::new()
        .sample_step(Meters::new(10.0))
        .isd_search(IsdSearch::model_paper_grid());
    let report = DeploymentOptimizer::new()
        .workers(1)
        .run(&ScenarioGrid::smoke_3(), &space)
        .expect("smoke grid is valid");

    let mut out = String::from(
        "Deployment optimizer smoke search — Pareto frontier per cell\n\n\
         grid: 3 timetable densities (4/8/12 trains/h), paper link budget\n\
         space: 0-10 repeater nodes, model-grid max ISD (50 m steps), instant wake\n\
         objectives: energy/day/km (min), nodes/km (min), coverage margin (max)\n\n",
    );
    let mut table = TextTable::new(vec![
        "cell".into(),
        "trains/h".into(),
        "nodes".into(),
        "ISD [m]".into(),
        "energy [Wh/day/km]".into(),
        "nodes/km".into(),
        "margin [dB]".into(),
        "saving [%]".into(),
    ]);
    for r in report.results() {
        for p in r.frontier() {
            table.add_row(vec![
                r.cell().index().to_string(),
                format!("{}", r.cell().trains_per_hour()),
                p.nodes.to_string(),
                format!("{:.0}", p.isd.value()),
                format!("{:.1}", p.energy_wh_day_km),
                format!("{:.3}", p.nodes_per_km),
                format!("{:.3}", p.margin_db),
                format!("{:.2}", p.saving_sleep_pct),
            ]);
        }
    }
    let _ = writeln!(out, "{}", table.render());
    let _ = writeln!(
        out,
        "candidates: {} evaluated, {} on the frontiers",
        report.candidates_evaluated(),
        report.frontier_points()
    );
    let _ = writeln!(
        out,
        "coverage cache: {} lookups, {} profiles sampled ({:.0} % hit rate)",
        report.coverage_lookups(),
        report.profile_evaluations(),
        report.cache_hit_rate() * 100.0
    );
    let _ = writeln!(out, "csv:");
    out.push_str(&report.to_csv());
    out
}

/// Renders the network-optimizer smoke run (the committed
/// `network_smoke` golden file): the `wye3` junction — three corridor
/// legs at 4/8/12 trains/h meeting at a hub, the 8 tph leg
/// double-tracked — searched at the paper-table anchors and folded
/// through the demand-aware sleep scheduler. Small enough for CI, but
/// it exercises the whole network pipeline: the graph model, the shared
/// per-edge Pareto search, the greedy boundary-repeater schedule and
/// the deterministic frontier/schedule writers.
pub fn network_smoke() -> String {
    use corridor_core::units::Meters;
    use corridor_sim::{CorridorNetwork, NetworkOptimizer, SearchSpace};

    let net = CorridorNetwork::by_name("wye3").expect("wye3 is a named topology");
    let space = SearchSpace::new().sample_step(Meters::new(10.0));
    let report = NetworkOptimizer::new()
        .workers(1)
        .run(&net, &space)
        .expect("wye3 is a valid network");

    let mut out = String::from(
        "Network optimizer smoke run — demand-aware sleep at a junction\n\n\
         topology: wye3 (three legs at 4/8/12 trains/h sharing a hub; the\n\
         8 tph leg is double track, so 16 tph of demand crosses the hub)\n\
         space: 0-10 repeater nodes at the paper-table ISDs, instant wake\n\
         schedule: greedy minimum-active-set over hub boundary repeaters\n\n",
    );
    let mut table = TextTable::new(vec![
        "edge".into(),
        "name".into(),
        "demand [t/h]".into(),
        "pick".into(),
        "ISD [m]".into(),
        "energy [Wh/day/km]".into(),
        "margin [dB]".into(),
    ]);
    for (e, pick) in report.picks().iter().enumerate() {
        let edge = report.network().edge(e);
        match pick {
            Some(p) => table.add_row(vec![
                e.to_string(),
                report.network().edge_name(e).to_owned(),
                format!("{}", edge.demand_tph()),
                format!("{} nodes", p.nodes),
                format!("{:.0}", p.isd.value()),
                format!("{:.1}", p.energy_wh_day_km),
                format!("{:.3}", p.margin_db),
            ]),
            None => table.add_row(vec![
                e.to_string(),
                report.network().edge_name(e).to_owned(),
                format!("{}", edge.demand_tph()),
                "unsolvable".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]),
        }
    }
    let _ = writeln!(out, "{}", table.render());
    let _ = writeln!(
        out,
        "sleep schedule: {} boundary repeater(s) sleep, {:.3} Wh/day net saving",
        report.plan().len(),
        report.sleep_saving_wh_day()
    );
    let _ = writeln!(
        out,
        "totals: per-corridor {:.3} Wh/day -> network {:.3} Wh/day",
        report.corridor_wh_day(),
        report.network_wh_day()
    );
    let _ = writeln!(out, "schedule:");
    out.push_str(&report.schedule_csv());
    let _ = writeln!(out, "csv:");
    out.push_str(&report.frontier_csv());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_stats_is_deterministic_and_close_to_analytic() {
        let a = poisson_stats();
        let b = poisson_stats();
        assert_eq!(a, b);
        assert!(a.contains("runs: 20"));
        // the mean sits within a percent of the closed form
        let line = a
            .lines()
            .find(|l| l.starts_with("deviation"))
            .expect("deviation line");
        let pct: f64 = line
            .split_whitespace()
            .nth(4)
            .unwrap()
            .trim_end_matches('%')
            .parse()
            .unwrap();
        assert!(pct.abs() < 1.0, "{line}");
    }

    #[test]
    fn network_smoke_is_deterministic_and_well_formed() {
        let a = network_smoke();
        assert_eq!(a, network_smoke());
        assert!(a.contains("wye3"));
        assert!(a.contains("sleep schedule"));
        // the double-tracked 8 tph leg crosses the hub at 16 tph
        assert!(a.contains("16"));
        let schedule_lines = a
            .lines()
            .skip_while(|l| *l != "schedule:")
            .skip(1)
            .take_while(|l| *l != "csv:")
            .filter(|l| !l.is_empty())
            .count();
        assert!(schedule_lines >= 2, "header plus at least one decision");
        let csv_lines = a
            .lines()
            .skip_while(|l| *l != "csv:")
            .skip(1)
            .filter(|l| !l.is_empty())
            .count();
        assert_eq!(csv_lines, 34); // header + 3 edges x 11 frontier rows
    }

    #[test]
    fn optimize_smoke_is_deterministic_and_well_formed() {
        let a = optimize_smoke();
        assert_eq!(a, optimize_smoke());
        assert!(a.contains("model-grid"));
        assert!(a.contains("hit rate"));
        // three cells x eleven solvable counts land on the frontiers
        assert!(a.contains("33 on the frontiers"), "{a}");
        let csv_lines = a
            .lines()
            .skip_while(|l| *l != "csv:")
            .skip(1)
            .filter(|l| !l.is_empty())
            .count();
        assert_eq!(csv_lines, 34); // header + 33 frontier rows
    }

    #[test]
    fn mc_smoke_is_deterministic_and_well_formed() {
        let a = mc_smoke();
        assert_eq!(a, mc_smoke());
        assert!(a.contains("10 Poisson replications"));
        // three data rows in the CSV tail (header + 3 cells)
        let csv_lines = a
            .lines()
            .skip_while(|l| *l != "csv:")
            .skip(1)
            .filter(|l| !l.is_empty())
            .count();
        assert_eq!(csv_lines, 4);
    }

    #[test]
    fn every_renderer_ends_with_a_newline() {
        for (name, text) in [
            ("headline", headline()),
            ("table1", table1()),
            ("table2", table2()),
            ("table3", table3()),
            ("table4", table4()),
        ] {
            assert!(text.ends_with('\n'), "{name}");
            assert!(!text.is_empty(), "{name}");
        }
    }

    #[test]
    fn headline_contains_the_reproduced_savings() {
        let text = headline();
        assert!(text.contains("74.0 %"));
        assert!(text.contains("79.3 %"));
    }
}
