//! Differential test harness: the event-driven simulator versus the
//! closed-form analytic model.
//!
//! The two backends compute the same physical quantity — the corridor's
//! per-kilometre energy split — by completely different means (merged
//! duty-cycle hours versus per-node event runs through per-node wake
//! state machines). On every *deterministic* paper scenario they must
//! agree to better than 0.1 %; this suite enforces that bound cell by
//! cell, through the sweep engine under 1 and 8 workers, and on random
//! scenarios via property tests. For *stochastic* timetables, where the
//! closed form cannot follow, fixed-seed statistics pin the simulator's
//! mean against the analytic value instead.
//!
//! Run it alone with `make differential`.

use corridor_core::deploy::IsdTable;
use corridor_core::traffic::{MixedTimetable, Timetable, TrafficModel};
use corridor_core::{
    experiments, AnalyticEvaluator, EnergyStrategy, ScenarioParams, SegmentEvaluator,
};
use corridor_events::{EventDrivenEvaluator, WakePolicy};
use corridor_sim::{ScenarioGrid, SweepEngine};
use proptest::prelude::*;
use rand::SeedableRng;

/// The differential bound: both backends agree to < 0.1 % on
/// deterministic scenarios.
const BOUND: f64 = 1e-3;

fn relative_diff(simulated: f64, analytic: f64) -> f64 {
    if analytic == 0.0 {
        simulated.abs()
    } else {
        (simulated - analytic).abs() / analytic.abs()
    }
}

/// Asserts the full energy split of both backends within [`BOUND`].
fn assert_split_matches(params: &ScenarioParams, n: usize, isd_m: f64, context: &str) {
    let isd = corridor_core::units::Meters::new(isd_m);
    let simulated = EventDrivenEvaluator::new();
    for strategy in EnergyStrategy::ALL {
        let sim = simulated.average_power_per_km(params, n, isd, strategy);
        let ana = AnalyticEvaluator.average_power_per_km(params, n, isd, strategy);
        for (s, a, role) in [
            (sim.hp, ana.hp, "hp"),
            (sim.service, ana.service, "service"),
            (sim.donor, ana.donor, "donor"),
        ] {
            assert!(
                relative_diff(s.value(), a.value()) < BOUND,
                "{context}: n={n} isd={isd_m} {strategy} {role}: {s} vs {a}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic paper scenarios
// ---------------------------------------------------------------------------

#[test]
fn headline_cells_match() {
    // the Section V-A headline deployments: 1 and 10 nodes
    let params = ScenarioParams::paper_default();
    let table = IsdTable::paper();
    for n in [1usize, 10] {
        assert_split_matches(&params, n, table.isd_for(n).unwrap().value(), "headline");
    }
}

#[test]
fn every_fig4_cell_matches() {
    // the full Fig. 4 sweep: conventional (n = 0) through 10 nodes
    let params = ScenarioParams::paper_default();
    let table = IsdTable::paper();
    for n in 0..=10 {
        assert_split_matches(&params, n, table.isd_for(n).unwrap().value(), "fig4");
    }
}

#[test]
fn headline_savings_match_through_both_backends() {
    let params = ScenarioParams::paper_default();
    let table = IsdTable::paper();
    let h = experiments::headline_numbers(&params);
    let simulated = EventDrivenEvaluator::new();
    let expectations = [
        (1, EnergyStrategy::SleepModeRepeaters, h.savings_sleep_1),
        (10, EnergyStrategy::SleepModeRepeaters, h.savings_sleep_10),
        (1, EnergyStrategy::SolarPoweredRepeaters, h.savings_solar_1),
        (
            10,
            EnergyStrategy::SolarPoweredRepeaters,
            h.savings_solar_10,
        ),
    ];
    for (n, strategy, analytic) in expectations {
        let isd = table.isd_for(n).unwrap();
        let sim = simulated.savings_vs_conventional(&params, n, isd, strategy);
        assert!(
            (sim - analytic).abs() < BOUND,
            "n={n} {strategy}: {sim} vs {analytic}"
        );
    }
}

#[test]
fn table3_variants_match() {
    // Table III parameter variations: every row the paper tabulates has
    // a scenario-level knob; vary each around the default
    let variants: Vec<(&str, ScenarioParams)> = vec![
        ("paper default", ScenarioParams::paper_default()),
        (
            "4 trains/h",
            ScenarioParams::builder()
                .trains_per_hour(4.0)
                .build()
                .unwrap(),
        ),
        (
            "16 h window",
            ScenarioParams::builder()
                .service_window_h(16.0)
                .build()
                .unwrap(),
        ),
        (
            "short slow train",
            ScenarioParams::builder()
                .train_length_m(200.0)
                .train_speed_kmh(120.0)
                .build()
                .unwrap(),
        ),
        (
            "150 m spacing",
            ScenarioParams::builder()
                .lp_spacing_m(150.0)
                .build()
                .unwrap(),
        ),
        (
            "600 m conventional ISD",
            ScenarioParams::builder()
                .conventional_isd_m(600.0)
                .build()
                .unwrap(),
        ),
    ];
    for (name, params) in &variants {
        assert_split_matches(params, 10, 2650.0, name);
        assert_split_matches(params, 0, params.conventional_isd().value(), name);
    }
}

#[test]
fn table4_cells_match() {
    // Table IV evaluates the same 10-node segment under four climates;
    // the climates only affect PV sizing, so every climate's energy
    // split must match the event-driven backend
    let grid =
        ScenarioGrid::new().locations(corridor_core::solar::climate::paper_regions().to_vec());
    assert_eq!(grid.len(), 4);
    assert_sweep_matches_event_driven(&grid);
}

// ---------------------------------------------------------------------------
// Through the sweep engine, 1 and 8 workers
// ---------------------------------------------------------------------------

/// A grid exercising several axes at once (12 cells).
fn mixed_grid() -> ScenarioGrid {
    ScenarioGrid::new()
        .trains_per_hour(vec![4.0, 8.0, 12.0])
        .train_speeds_kmh(vec![160.0, 200.0])
        .conventional_isds_m(vec![450.0, 550.0])
}

/// Holds every cell of the analytic sweep, under 1 and 8 workers, to
/// the event-driven backend within [`BOUND`]: each strategy's split and
/// its savings versus the cell's conventional baseline.
fn assert_sweep_matches_event_driven(grid: &ScenarioGrid) {
    let simulated = EventDrivenEvaluator::new();
    for workers in [1usize, 8] {
        let engine = SweepEngine::new().workers(workers).pv_sizing(false);
        let report = engine.run(grid).unwrap();
        assert_eq!(report.len(), grid.len());
        for a in report.results() {
            let cell = a.cell();
            let params = cell.params();
            let baseline = simulated.conventional_baseline(params);
            for strategy in EnergyStrategy::ALL {
                let s = simulated.average_power_per_km(params, cell.nodes(), cell.isd(), strategy);
                let rel = relative_diff(s.total().value(), a.split(strategy).total().value());
                assert!(rel < BOUND, "workers={workers} {cell}: {strategy} {rel}");
                let savings_gap = (s.savings_vs(&baseline) - a.savings(strategy)).abs();
                assert!(
                    savings_gap < BOUND,
                    "workers={workers} {cell}: {strategy} savings gap {savings_gap}"
                );
            }
        }
    }
}

#[test]
fn sweep_backends_agree_under_1_and_8_workers() {
    assert_sweep_matches_event_driven(&mixed_grid());
}

// ---------------------------------------------------------------------------
// Property tests: random deterministic scenarios
// ---------------------------------------------------------------------------

proptest! {
    /// Random (valid) scenarios stay inside the differential bound for
    /// every strategy and both the 1- and 10-node deployments.
    #[test]
    fn random_scenarios_stay_inside_the_bound(
        tph in 1.0..14.0f64,
        speed in 100.0..300.0f64,
        length in 100.0..600.0f64,
        spacing in 120.0..300.0f64,
        // capped at the paper's 19 h so the whole service day (which
        // starts at 05:00) fits the simulator's calendar-day horizon
        window in 10.0..19.0f64,
    ) {
        let params = ScenarioParams::builder()
            .trains_per_hour(tph)
            .train_speed_kmh(speed)
            .train_length_m(length)
            .lp_spacing_m(spacing)
            .service_window_h(window)
            .build()
            .unwrap();
        let table = IsdTable::paper();
        for n in [1usize, 10] {
            let isd = table.isd_for(n).unwrap();
            let simulated = EventDrivenEvaluator::new();
            for strategy in EnergyStrategy::ALL {
                let sim = simulated.average_power_per_km(&params, n, isd, strategy).total().value();
                let ana = AnalyticEvaluator.average_power_per_km(&params, n, isd, strategy).total().value();
                prop_assert!(
                    relative_diff(sim, ana) < BOUND,
                    "n={} {}: {} vs {}", n, strategy, sim, ana
                );
            }
        }
    }
}

/// The paper wake policy never reduces energy below the instant one, and
/// its overhead stays small at every repeater count of the paper's ISD
/// table.
#[test]
fn wake_policy_overhead_is_monotone_and_small() {
    let params = ScenarioParams::paper_default();
    let strategy = EnergyStrategy::SleepModeRepeaters;
    let table = IsdTable::paper();
    for n in 0..=10 {
        let isd = table
            .isd_for(n)
            .expect("the paper table covers 0-10 repeaters");
        let power = |evaluator: EventDrivenEvaluator| {
            evaluator
                .average_power_per_km(&params, n, isd, strategy)
                .total()
                .value()
        };
        let instant = power(EventDrivenEvaluator::new());
        let padded = power(EventDrivenEvaluator::with_policy(
            WakePolicy::paper_default(),
        ));
        assert!(padded >= instant - 1e-9, "n = {n}: {padded} < {instant}");
        // 1.5 s of padding per pass on ~11-55 s bursts stays below 2 %
        let overhead = padded / instant - 1.0;
        assert!(overhead < 0.02, "n = {n}: overhead {overhead}");
    }
}

// ---------------------------------------------------------------------------
// Stochastic timetables: statistics instead of identity
// ---------------------------------------------------------------------------

/// Mean daily service-repeater energy over `runs` seeded Poisson days —
/// the same pipeline the `poisson_stats` golden file pins
/// ([`corridor_bench::poisson_service_day`]).
fn poisson_mean_energy(runs: u64) -> f64 {
    (0..runs)
        .map(|seed| corridor_bench::poisson_service_day(seed).energy_wh)
        .sum::<f64>()
        / runs as f64
}

#[test]
fn poisson_mean_converges_to_the_analytic_value() {
    let analytic = experiments::headline_numbers(&ScenarioParams::paper_default())
        .repeater_daily_energy
        .value();
    // few runs: within 5 %; many runs: within 1 % — the N-run mean
    // approaches the deterministic closed-form energy
    let coarse = poisson_mean_energy(25);
    let fine = poisson_mean_energy(400);
    assert!(
        relative_diff(coarse, analytic) < 0.05,
        "25 runs: {coarse} vs {analytic}"
    );
    assert!(
        relative_diff(fine, analytic) < 0.01,
        "400 runs: {fine} vs {analytic}"
    );
    assert!(
        relative_diff(fine, analytic) <= relative_diff(coarse, analytic) + 0.01,
        "convergence went backwards: {fine} vs {coarse} (analytic {analytic})"
    );
}

#[test]
fn jittered_timetables_cost_no_less_than_the_deterministic_day() {
    // jitter shuffles bursts around but never removes traffic: daily HP
    // powered time stays within a few percent of the deterministic day
    let params = ScenarioParams::paper_default();
    let isd = IsdTable::paper().isd_for(10).unwrap();
    let model = TrafficModel::Jittered {
        base: Timetable::paper_default(),
        delays: corridor_core::traffic::DelayModel::typical(),
    };
    let replicator = EventDrivenEvaluator::new().replicator(&params, 10, isd);
    let deterministic = replicator
        .simulate_day(&Timetable::paper_default().passes())
        .nodes()[0]
        .trace()
        .powered()
        .value();
    for seed in 0..5u64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let passes = model.passes(&mut rng);
        let jittered = replicator.simulate_day(&passes).nodes()[0]
            .trace()
            .powered()
            .value();
        let rel = relative_diff(jittered, deterministic);
        assert!(rel < 0.05, "seed {seed}: {jittered} vs {deterministic}");
    }
}

#[test]
fn mixed_services_match_the_analytic_superposition() {
    // a mixed fast/slow day is still deterministic, so the event-driven
    // energy must match an analytic computation over the same passes —
    // here via the activity-timeline identity on the HP mast
    use corridor_core::traffic::{ActivityTimeline, TrackSection};
    use corridor_core::units::Meters;
    let params = ScenarioParams::paper_default();
    let isd = IsdTable::paper().isd_for(10).unwrap();
    let passes = MixedTimetable::paper_mixed().passes();
    let report = EventDrivenEvaluator::new()
        .replicator(&params, 10, isd)
        .simulate_day(&passes);
    let analytic = ActivityTimeline::for_section(&TrackSection::new(Meters::ZERO, isd), &passes)
        .total_active()
        .value();
    let simulated = report.nodes()[0].trace().powered().value();
    assert!(
        relative_diff(simulated, analytic) < 1e-9,
        "{simulated} vs {analytic}"
    );
}
