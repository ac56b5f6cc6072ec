//! Typed reproductions of every table and figure in the paper.
//!
//! Each function returns plain data; the `corridor-bench` binaries render
//! them as text, and EXPERIMENTS.md records the comparison with the
//! published values.

use corridor_deploy::{CorridorLayout, IsdOptimizer, IsdTable, LinkBudget};
use corridor_fronthaul::{ChainReport, FronthaulChain};
use corridor_power::{DutyCycle, RepeaterBill};
use corridor_solar::{climate, sizing, DailyLoadProfile, Location};
use corridor_traffic::{ActivityTimeline, TrackSection};
use corridor_units::{Dbm, Hours, Meters, WattHours, Watts};

use crate::{energy, EnergyStrategy, ScenarioParams};

/// One sampled position of the Fig. 3 reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Sample {
    /// Track position.
    pub position: Meters,
    /// RSRP of the left high-power site.
    pub hp_left: Dbm,
    /// RSRP of the right high-power site.
    pub hp_right: Dbm,
    /// RSRP of each low-power node, in track order.
    pub lp_nodes: Vec<Dbm>,
    /// Linear sum of all signal powers.
    pub total_signal: Dbm,
    /// Total noise power (terminal + repeater noise).
    pub total_noise: Dbm,
}

/// Fig. 3: signal and noise power along a 2400 m segment with 8 repeater
/// nodes.
///
/// # Examples
///
/// ```
/// use corridor_core::{experiments, ScenarioParams};
/// let fig3 = experiments::fig3(&ScenarioParams::paper_default());
/// assert!(fig3.iter().all(|s| s.total_signal.value() > -100.0));
/// ```
pub fn fig3(params: &ScenarioParams) -> Vec<Fig3Sample> {
    fig3_with(params, Meters::new(2400.0), 8, Meters::new(10.0))
}

/// Fig. 3 with configurable geometry and sampling.
///
/// # Panics
///
/// Panics if the repeaters cannot be placed in the segment.
pub fn fig3_with(params: &ScenarioParams, isd: Meters, n: usize, step: Meters) -> Vec<Fig3Sample> {
    let layout = CorridorLayout::with_policy(isd, n, &params.placement())
        // corridor-lint: allow(no-panic, reason = "documented `# Panics` API: the figure helpers panic on unplaceable geometry by contract")
        .expect("paper geometry is placeable");
    let model = layout.snr_model(&LinkBudget::paper_default());
    let samples = (isd.value() / step.value()).round() as usize;
    (0..=samples)
        .map(|i| {
            let position = Meters::new(i as f64 * step.value()).min(isd);
            let rsrp = model.rsrp_per_source(position);
            Fig3Sample {
                position,
                hp_left: rsrp[0],
                hp_right: rsrp[1],
                lp_nodes: rsrp[2..].to_vec(),
                // corridor-lint: allow(no-panic, reason = "layout.snr_model always installs the two mast sources, so the model is never empty")
                total_signal: model.total_signal_at(position).expect("sources exist"),
                total_noise: model.total_noise_at(position),
            }
        })
        .collect()
}

/// The max-ISD sweep of Section V: the computed table next to the
/// published one.
#[derive(Debug, Clone, PartialEq)]
pub struct IsdSweep {
    /// The table computed by this crate's calibrated model.
    pub computed: IsdTable,
    /// The paper's published sequence.
    pub paper: IsdTable,
}

/// Runs the maximum-ISD sweep for 0..=10 repeater nodes (paper Section V).
///
/// This is the expensive experiment (hundreds of coverage profiles);
/// `sample_step` trades accuracy for time (the paper-matching results use
/// 5 m).
pub fn isd_sweep(params: &ScenarioParams, sample_step: Meters) -> IsdSweep {
    let optimizer = IsdOptimizer::new(LinkBudget::paper_default())
        .with_placement(params.placement())
        .with_sample_step(sample_step);
    IsdSweep {
        computed: optimizer.sweep(10),
        paper: IsdTable::paper(),
    }
}

/// One bar group of Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig4Row {
    /// Number of low-power repeater nodes (0 = conventional).
    pub n: usize,
    /// Inter-site distance achieved with `n` nodes.
    pub isd: Meters,
    /// Average energy per hour per km, repeaters continuously powered.
    pub continuous: WattHours,
    /// Average energy per hour per km, repeaters in sleep mode.
    pub sleep: WattHours,
    /// Average energy per hour per km, repeaters solar-powered.
    pub solar: WattHours,
}

impl Fig4Row {
    /// Savings of each strategy versus `baseline` Wh/h/km, in figure
    /// order (continuous, sleep, solar).
    pub fn savings_vs(&self, baseline: WattHours) -> [f64; 3] {
        [
            1.0 - self.continuous / baseline,
            1.0 - self.sleep / baseline,
            1.0 - self.solar / baseline,
        ]
    }
}

/// Fig. 4: average energy per hour per km for the conventional corridor
/// (first row, `n = 0`) and for 1–10 repeater nodes under the three
/// strategies, using the given ISD table.
///
/// # Examples
///
/// ```
/// use corridor_core::{experiments, ScenarioParams};
/// use corridor_deploy::IsdTable;
///
/// let rows = experiments::fig4(&ScenarioParams::paper_default(), &IsdTable::paper());
/// assert_eq!(rows.len(), 11);
/// let baseline = rows[0].sleep;
/// // ten solar-powered nodes: 79 % below the conventional corridor
/// let savings = rows[10].savings_vs(baseline)[2];
/// assert!((savings - 0.79).abs() < 0.01);
/// ```
pub fn fig4(params: &ScenarioParams, table: &IsdTable) -> Vec<Fig4Row> {
    (0..=table.max_nodes())
        .filter_map(|n| {
            let isd = table.isd_for(n)?;
            let row = |strategy| {
                energy::average_power_per_km(params, n, isd, strategy).hourly_energy_per_km()
            };
            Some(Fig4Row {
                n,
                isd,
                continuous: row(EnergyStrategy::ContinuousRepeaters),
                sleep: row(EnergyStrategy::SleepModeRepeaters),
                solar: row(EnergyStrategy::SolarPoweredRepeaters),
            })
        })
        .collect()
}

/// The headline numbers quoted in the paper's text (Section V-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeadlineNumbers {
    /// HP full-load share of the day at 500 m ISD (paper: 2.85 %).
    pub hp_duty_500m: f64,
    /// HP full-load share of the day at 2650 m ISD (paper: 9.66 %).
    pub hp_duty_2650m: f64,
    /// Sleep-mode repeater average power (paper: 5.17 W).
    pub repeater_average_power: Watts,
    /// Sleep-mode repeater daily energy (paper: 124.1 Wh).
    pub repeater_daily_energy: WattHours,
    /// Savings with 1 node, sleep mode (paper: 57 %).
    pub savings_sleep_1: f64,
    /// Savings with 10 nodes, sleep mode (paper: 74 %).
    pub savings_sleep_10: f64,
    /// Savings with 1 node, solar (paper: 59 %).
    pub savings_solar_1: f64,
    /// Savings with 10 nodes, solar (paper: 79 %).
    pub savings_solar_10: f64,
}

/// Computes the paper's Section V-A headline numbers.
pub fn headline_numbers(params: &ScenarioParams) -> HeadlineNumbers {
    let duty_at = |isd: f64| {
        let section = TrackSection::new(Meters::ZERO, Meters::new(isd));
        let activity = ActivityTimeline::for_section(&section, &params.timetable().passes());
        activity.total_active().value() / 86_400.0
    };
    let service_section = TrackSection::around(Meters::new(600.0), params.lp_spacing());
    let service_activity =
        ActivityTimeline::for_section(&service_section, &params.timetable().passes());
    let duty = DutyCycle::over_day(service_activity.total_active_hours(), Hours::ZERO);
    let table = IsdTable::paper();
    let savings = |n, strategy| {
        energy::savings_vs_conventional(params, &table, n, strategy)
            // corridor-lint: allow(no-panic, reason = "n is drawn from 1..=10 below and IsdTable::paper() covers exactly 0-10 nodes")
            .expect("the paper ISD table covers 1-10 nodes")
    };

    HeadlineNumbers {
        hp_duty_500m: duty_at(500.0),
        hp_duty_2650m: duty_at(2650.0),
        repeater_average_power: duty.average_power(params.lp_node()),
        repeater_daily_energy: duty.daily_energy(params.lp_node()),
        savings_sleep_1: savings(1, EnergyStrategy::SleepModeRepeaters),
        savings_sleep_10: savings(10, EnergyStrategy::SleepModeRepeaters),
        savings_solar_1: savings(1, EnergyStrategy::SolarPoweredRepeaters),
        savings_solar_10: savings(10, EnergyStrategy::SolarPoweredRepeaters),
    }
}

/// Architecture check (paper Fig. 1): the daisy-chained V-band mmWave
/// fronthaul of a segment — every donor→node hop must close its budget.
///
/// # Panics
///
/// Panics if the repeaters cannot be placed in the segment.
///
/// # Examples
///
/// ```
/// use corridor_core::{experiments, ScenarioParams};
/// use corridor_units::Meters;
/// let report = experiments::fronthaul_check(
///     &ScenarioParams::paper_default(), Meters::new(2400.0), 8);
/// assert!(report.is_feasible());
/// ```
pub fn fronthaul_check(params: &ScenarioParams, isd: Meters, n: usize) -> ChainReport {
    let positions = params
        .placement()
        .positions(n, isd)
        // corridor-lint: allow(no-panic, reason = "documented `# Panics` API: the figure helpers panic on unplaceable geometry by contract")
        .expect("paper geometry is placeable");
    FronthaulChain::for_segment(&positions, isd).evaluate()
}

/// Table I: the repeater component bill (returns the typed bill; the
/// bench binary renders it).
pub fn table1() -> RepeaterBill {
    RepeaterBill::prototype()
}

/// One row of Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Node type name.
    pub node_type: &'static str,
    /// The EARTH model parameters.
    pub model: corridor_power::LoadDependentPower,
}

/// Table II: EARTH power-model parameters per node type.
pub fn table2() -> Vec<Table2Row> {
    vec![
        Table2Row {
            node_type: "High-Power RRH",
            model: corridor_power::catalog::high_power_rrh(),
        },
        Table2Row {
            node_type: "Low-Power Repeater",
            model: corridor_power::catalog::low_power_repeater(),
        },
    ]
}

/// Table III: the average-energy calculation parameters (returns the
/// scenario; the bench binary renders the rows).
pub fn table3() -> ScenarioParams {
    ScenarioParams::paper_default()
}

/// One row of the Table IV reproduction.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// The region.
    pub location: Location,
    /// Selected PV peak power.
    pub pv_peak: Watts,
    /// Selected battery capacity.
    pub battery: WattHours,
    /// Mean percentage of days with a full battery.
    pub days_full_pct: f64,
}

/// Table IV: PV sizing for the four example regions under the zero
/// down-time requirement.
///
/// # Panics
///
/// Panics if a region cannot be sized with the paper's candidate ladder
/// (does not happen with the embedded climate).
pub fn table4() -> Vec<Table4Row> {
    let options = sizing::SizingOptions::paper_default();
    climate::paper_regions()
        .into_iter()
        .map(|location| {
            let fit = sizing::size_for_zero_downtime(
                location.clone(),
                DailyLoadProfile::repeater_paper_default(),
                &options,
            )
            // corridor-lint: allow(no-panic, reason = "Table 4 reproduces the paper's solvable sites; an unsolvable site means the constants regressed and the table must not render")
            .unwrap_or_else(|| panic!("{} must be solvable", location.name()));
            Table4Row {
                location,
                pv_peak: fit.pv.peak(),
                battery: fit.battery_capacity,
                days_full_pct: fit.mean_full_battery_fraction() * 100.0,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ScenarioParams {
        ScenarioParams::paper_default()
    }

    #[test]
    fn fig3_structure() {
        let samples = fig3(&params());
        assert_eq!(samples.len(), 241); // 2400 m / 10 m + 1
        let first = &samples[0];
        assert_eq!(first.lp_nodes.len(), 8);
        // at the left mast the left HP dominates
        assert!(first.hp_left > first.hp_right);
        // symmetric segment: total signal symmetric within tolerance
        let last = &samples[samples.len() - 1];
        assert!((first.total_signal.value() - last.total_signal.value()).abs() < 0.1);
    }

    #[test]
    fn fig3_signal_stays_above_minus_100() {
        for s in fig3(&params()) {
            assert!(s.total_signal.value() > -100.0, "at {}", s.position);
        }
    }

    #[test]
    fn fig4_baseline_and_monotonicity() {
        let rows = fig4(&params(), &IsdTable::paper());
        assert_eq!(rows.len(), 11);
        assert_eq!(rows[0].n, 0);
        // conventional row: all strategies coincide (no repeaters)
        assert!((rows[0].continuous.value() - rows[0].solar.value()).abs() < 1e-9);
        // within a row: continuous >= sleep >= solar
        for row in &rows[1..] {
            assert!(row.continuous >= row.sleep);
            assert!(row.sleep >= row.solar);
        }
    }

    #[test]
    fn headline_numbers_match_paper() {
        let h = headline_numbers(&params());
        assert!(
            (h.hp_duty_500m - 0.0285).abs() < 0.0002,
            "{}",
            h.hp_duty_500m
        );
        assert!(
            (h.hp_duty_2650m - 0.0966).abs() < 0.0002,
            "{}",
            h.hp_duty_2650m
        );
        assert!((h.repeater_average_power.value() - 5.17).abs() < 0.01);
        assert!((h.repeater_daily_energy.value() - 124.1).abs() < 0.1);
        assert!((h.savings_sleep_1 - 0.57).abs() < 0.01);
        assert!((h.savings_sleep_10 - 0.74).abs() < 0.01);
        assert!((h.savings_solar_1 - 0.59).abs() < 0.01);
        assert!((h.savings_solar_10 - 0.79).abs() < 0.01);
    }

    #[test]
    fn table_reproductions() {
        assert_eq!(table1().components().len(), 10);
        let t2 = table2();
        assert_eq!(t2.len(), 2);
        assert_eq!(t2[0].model.p0().value(), 168.0);
        assert_eq!(table3().timetable().trains_per_hour(), 8.0);
    }

    #[test]
    fn fronthaul_feasible_for_paper_geometries() {
        let p = params();
        for (n, isd) in IsdTable::paper().iter().filter(|(n, _)| *n >= 1) {
            let report = fronthaul_check(&p, isd, n);
            assert!(report.is_feasible(), "n={n}: {report:?}");
        }
    }

    #[test]
    fn table4_matches_paper_sizing() {
        let rows = table4();
        assert_eq!(rows.len(), 4);
        // Madrid & Lyon: 540 Wp / 720 Wh
        assert_eq!(rows[0].pv_peak.value(), 540.0);
        assert_eq!(rows[0].battery.value(), 720.0);
        assert_eq!(rows[1].pv_peak.value(), 540.0);
        assert_eq!(rows[1].battery.value(), 720.0);
        // Vienna: 540 Wp / 1440 Wh
        assert_eq!(rows[2].pv_peak.value(), 540.0);
        assert_eq!(rows[2].battery.value(), 1440.0);
        // Berlin: 600 Wp / 1440 Wh
        assert_eq!(rows[3].pv_peak.value(), 600.0);
        assert_eq!(rows[3].battery.value(), 1440.0);
        // full-battery percentages decrease northwards (Madrid highest)
        assert!(rows[0].days_full_pct > rows[2].days_full_pct);
    }
}
