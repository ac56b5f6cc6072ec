//! End-to-end reproduction tests: every quantitative claim of the paper
//! that the model is expected to reproduce, checked across crate
//! boundaries.

use railway_corridor::prelude::*;

fn params() -> ScenarioParams {
    ScenarioParams::paper_default()
}

/// Paper Section I: "A regular cell site consumes an average power of
/// 3200 W" and the repeaters "consume only 5 % of the energy of a regular
/// cell site".
#[test]
fn repeater_is_five_percent_of_a_cell_site() {
    let site = Watts::new(3200.0);
    let repeater = catalog::low_power_repeater_measured().full_load_power();
    let ratio = repeater / site;
    assert!(ratio < 0.05, "repeater/site = {ratio}");
}

/// Paper Section I: "with two RRHs required per site and an ISD of 500 m,
/// the power consumption rises to 1200 W per kilometer".
#[test]
fn full_load_corridor_power_per_km() {
    let mast = catalog::high_power_mast();
    // 560 W per mast of 2 RRHs... the paper quotes 600 W (2 × 300 W
    // worst-case RRHs); with 2 masts/km the EARTH mast gives 1120 W/km,
    // the worst-case quote 1200 W/km.
    let per_km = mast.full_load_power() * 2.0;
    assert!(per_km.value() >= 1100.0 && per_km.value() <= 1200.0);
}

/// Paper Section V: full-load share of the RRHs — 2.85 % at 500 m ISD,
/// 9.66 % at 2650 m.
#[test]
fn hp_duty_fractions() {
    let h = experiments::headline_numbers(&params());
    assert!((h.hp_duty_500m - 0.0285).abs() < 2e-4);
    assert!((h.hp_duty_2650m - 0.0966).abs() < 2e-4);
}

/// Paper Section III-B / V-A: the repeater's sleep-mode average power is
/// 5.17 W = 124.1 Wh per day.
#[test]
fn repeater_average_power() {
    let h = experiments::headline_numbers(&params());
    assert!((h.repeater_average_power.value() - 5.17).abs() < 0.01);
    assert!((h.repeater_daily_energy.value() - 124.1).abs() < 0.1);
}

/// Paper abstract + Section V: savings of 50–79 % depending on strategy
/// and node count.
#[test]
fn headline_savings_window() {
    let h = experiments::headline_numbers(&params());
    assert!((h.savings_sleep_1 - 0.57).abs() < 0.01);
    assert!((h.savings_sleep_10 - 0.74).abs() < 0.01);
    assert!((h.savings_solar_1 - 0.59).abs() < 0.01);
    assert!((h.savings_solar_10 - 0.79).abs() < 0.01);
}

/// Paper Section V-A: "at least three low-power repeater nodes extends
/// the high-power ISD to a minimum of 1600 m which reduces the average
/// energy consumption ... to below 50 %" (continuous operation).
#[test]
fn continuous_crossover_at_three_nodes() {
    let table = IsdTable::paper();
    let s2 =
        energy::savings_vs_conventional(&params(), &table, 2, EnergyStrategy::ContinuousRepeaters)
            .unwrap();
    let s3 =
        energy::savings_vs_conventional(&params(), &table, 3, EnergyStrategy::ContinuousRepeaters)
            .unwrap();
    assert!(s2 < 0.50 && s3 >= 0.50, "s2 = {s2}, s3 = {s3}");
}

/// Paper Section V: the maximum-ISD sweep. The calibrated model matches
/// the published sequence exactly for 1–4 nodes and within 15 % beyond.
#[test]
fn isd_sweep_tracks_paper() {
    let sweep = experiments::isd_sweep(&params(), Meters::new(5.0));
    for n in 1..=4usize {
        assert_eq!(sweep.computed.isd_for(n), sweep.paper.isd_for(n), "n = {n}");
    }
    for n in 5..=10usize {
        let computed = sweep.computed.isd_for(n).unwrap().value();
        let paper = sweep.paper.isd_for(n).unwrap().value();
        let err = (computed - paper).abs() / paper;
        assert!(err < 0.15, "n = {n}: computed {computed}, paper {paper}");
    }
}

/// Paper Fig. 3: with 8 nodes at ISD 2400 m the total signal stays above
/// −100 dBm and every point of the track reaches the peak rate.
#[test]
fn fig3_scenario_full_coverage() {
    let p = params();
    let samples = experiments::fig3(&p);
    for s in &samples {
        assert!(s.total_signal.value() > -100.0, "at {}", s.position);
    }
    let layout =
        CorridorLayout::with_policy(Meters::new(2400.0), 8, &PlacementPolicy::paper_default())
            .unwrap();
    let profile = layout.coverage_profile(p.budget(), Meters::new(5.0));
    assert_eq!(profile.fraction_at_peak(p.budget().throughput()), 1.0);
}

/// Paper Fig. 3 text: "a mobile terminal inside that train would see the
/// decreasing cell signal power from the high-power site at 0 m, which
/// drops below −100 dBm" a few hundred metres out — and each repeater
/// produces a local peak.
#[test]
fn fig3_peaks_at_repeaters() {
    let samples = experiments::fig3(&params());
    // HP-only contribution decays monotonically after the mast
    let hp_at_100 = samples
        .iter()
        .find(|s| s.position.value() == 100.0)
        .unwrap();
    let hp_at_1200 = samples
        .iter()
        .find(|s| s.position.value() == 1200.0)
        .unwrap();
    assert!(hp_at_100.hp_left > hp_at_1200.hp_left);
    // at a repeater position the total signal is locally maximal vs the
    // midgap 100 m away
    let at_node = samples
        .iter()
        .find(|s| s.position.value() == 700.0)
        .unwrap();
    let midgap = samples
        .iter()
        .find(|s| s.position.value() == 800.0)
        .unwrap();
    assert!(at_node.total_signal > midgap.total_signal);
}

/// Paper Table IV: the sizing outcomes for the four regions.
#[test]
fn table4_sizing_outcomes() {
    let rows = experiments::table4();
    let summary: Vec<(String, f64, f64)> = rows
        .iter()
        .map(|r| {
            (
                r.location.name().to_string(),
                r.pv_peak.value(),
                r.battery.value(),
            )
        })
        .collect();
    assert_eq!(
        summary,
        vec![
            ("Madrid".to_string(), 540.0, 720.0),
            ("Lyon".to_string(), 540.0, 720.0),
            ("Vienna".to_string(), 540.0, 1440.0),
            ("Berlin".to_string(), 600.0, 1440.0),
        ]
    );
    // all four regions keep the battery full on the vast majority of days
    for row in &rows {
        assert!(
            row.days_full_pct > 85.0 && row.days_full_pct <= 100.0,
            "{}: {}",
            row.location.name(),
            row.days_full_pct
        );
    }
}

/// Paper Section I: the 1.24 TWh/year figure for 118 000 km of European
/// electrified track is consistent with the conventional corridor model.
#[test]
fn europe_wide_energy_estimate() {
    let baseline = energy::conventional_baseline(&params());
    let twh_per_year = baseline.total().value() * 118_000.0 * 24.0 * 365.0 / 1e12;
    // the paper's 1.24 TWh corresponds to ~1200 W/km installed; our
    // duty-cycled model gives the same order of magnitude
    assert!(
        (0.3..2.0).contains(&twh_per_year),
        "estimate {twh_per_year} TWh"
    );
}

/// Cross-check: Fig. 4 rows from the computed ISD table are within a few
/// percentage points of the rows from the paper's table.
#[test]
fn fig4_computed_vs_paper_mapping() {
    let p = params();
    let paper_rows = experiments::fig4(&p, &IsdTable::paper());
    let computed = experiments::isd_sweep(&p, Meters::new(10.0)).computed;
    let computed_rows = experiments::fig4(&p, &computed);
    let baseline = paper_rows[0].sleep;
    for (pr, cr) in paper_rows.iter().zip(&computed_rows).skip(1) {
        let s_paper = pr.savings_vs(baseline)[1];
        let s_computed = cr.savings_vs(baseline)[1];
        assert!(
            (s_paper - s_computed).abs() < 0.06,
            "n = {}: paper-mapping {s_paper:.3}, computed-mapping {s_computed:.3}",
            pr.n
        );
    }
}

/// The full pipeline is deterministic: re-running every experiment yields
/// identical results.
#[test]
fn experiments_are_deterministic() {
    let p = params();
    assert_eq!(experiments::fig3(&p), experiments::fig3(&p));
    assert_eq!(
        experiments::fig4(&p, &IsdTable::paper()),
        experiments::fig4(&p, &IsdTable::paper())
    );
    let a = experiments::table4();
    let b = experiments::table4();
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.days_full_pct, y.days_full_pct);
    }
}
