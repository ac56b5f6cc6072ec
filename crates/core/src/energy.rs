//! Average corridor energy per hour and kilometre (the paper's Fig. 4).

// Order-safety audit (hash-order): the memo table below is only ever
// key-probed (`entry`/`get`/`insert`); no code path iterates it, so its
// nondeterministic bucket order cannot reach a report, sink or CSV row.
// corridor-lint: allow(hash-order, reason = "memo table is key-probed only, never iterated; order cannot escape")
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock, PoisonError};

use corridor_deploy::{IsdTable, SegmentInventory};
use corridor_traffic::{ActivityTimeline, TrackSection};
use corridor_units::{Hours, Meters, WattHours, Watts};

use crate::{EnergyStrategy, ScenarioError, ScenarioParams};

/// Average mains power per kilometre of corridor, split by equipment role.
///
/// Because the traffic pattern repeats daily, the average power in watts
/// equals the average energy in watt-hours per hour — the unit of the
/// paper's Fig. 4 y-axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentEnergy {
    /// High-power masts, W/km.
    pub hp: Watts,
    /// Low-power service repeater nodes, W/km.
    pub service: Watts,
    /// Low-power donor repeater nodes, W/km.
    pub donor: Watts,
}

impl SegmentEnergy {
    /// Total average mains power per kilometre.
    pub fn total(&self) -> Watts {
        self.hp + self.service + self.donor
    }

    /// Average energy per hour per kilometre (numerically equal to
    /// [`SegmentEnergy::total`]).
    pub fn hourly_energy_per_km(&self) -> WattHours {
        WattHours::new(self.total().value())
    }

    /// Fractional savings of this deployment versus `baseline`.
    ///
    /// Convention: a baseline that draws no energy (a degenerate
    /// scenario cell, e.g. a stochastic day that sampled zero trains)
    /// admits no savings, so the method returns `0.0` instead of the
    /// NaN/∞ a naive division would produce — large sweeps must never
    /// silently poison their CSV/JSON output.
    pub fn savings_vs(&self, baseline: &SegmentEnergy) -> f64 {
        let base = baseline.total().value();
        if base <= 0.0 || !base.is_finite() {
            return 0.0;
        }
        1.0 - self.total().value() / base
    }
}

/// Everything the daily activity of a coverage section depends on —
/// the deterministic timetable and the section bounds — compared by
/// bits so distinct floats never alias.
type ActivityKey = [u64; 7];

fn activity_key(params: &ScenarioParams, section: &TrackSection) -> ActivityKey {
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

fn activity_cache() -> &'static Mutex<HashMap<ActivityKey, u64>> {
    // corridor-lint: allow(global-state, reason = "the ledger times active_hours cold on first touch; moving this memo into an explicit context is the open part of ROADMAP item 4")
    static CACHE: OnceLock<Mutex<HashMap<ActivityKey, u64>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Daily full-load hours of a node whose coverage section spans
/// `section`, memoized process-wide.
///
/// A sweep evaluates thousands of cells that share a handful of
/// `(timetable, section)` combinations; expanding the timetable into
/// passes and merging the occupancy timeline for each one is the hot
/// analytic-path cost. The memo stores the resulting hours by the bit
/// pattern of every input the timeline depends on, so a hit is exact —
/// never a nearby float — and a cached value is bit-identical to a
/// fresh computation.
pub fn active_hours(params: &ScenarioParams, section: TrackSection) -> Hours {
    let key = activity_key(params, &section);
    if let Some(&bits) = activity_cache()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(&key)
    {
        return Hours::new(f64::from_bits(bits));
    }
    let hours =
        ActivityTimeline::for_section(&section, &params.timetable().passes()).total_active_hours();
    activity_cache()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(key, hours.value().to_bits());
    hours
}

/// Average mains power per km for `n` repeater nodes at inter-site
/// distance `isd` under `strategy`.
///
/// Model (paper Section V-A):
///
/// * each high-power mast serves one ISD-long section, runs at full load
///   while a train overlaps it and sleeps otherwise;
/// * each service repeater serves a section of the node spacing
///   (Table III: 200 m) around its mast;
/// * donor repeaters (1 for a single service node, else 2) are active
///   whenever the train is inside the segment they feed (ISD-long
///   section);
/// * under [`EnergyStrategy::ContinuousRepeaters`] repeaters idle at `P0`
///   instead of sleeping; under
///   [`EnergyStrategy::SolarPoweredRepeaters`] they draw no mains power.
///
/// # Examples
///
/// ```
/// use corridor_core::{energy, EnergyStrategy, ScenarioParams};
/// use corridor_units::Meters;
///
/// let params = ScenarioParams::paper_default();
/// let conventional = energy::conventional_baseline(&params);
/// // the paper's conventional corridor: ≈ 467 Wh per hour per km
/// assert!((conventional.total().value() - 467.0).abs() < 2.0);
///
/// let one_node = energy::average_power_per_km(
///     &params, 1, Meters::new(1250.0), EnergyStrategy::SleepModeRepeaters);
/// assert!(one_node.total() < conventional.total());
/// ```
pub fn average_power_per_km(
    params: &ScenarioParams,
    n: usize,
    isd: Meters,
    strategy: EnergyStrategy,
) -> SegmentEnergy {
    let hp_active = active_hours(params, TrackSection::new(Meters::ZERO, isd));
    let service_active = active_hours(params, TrackSection::around(isd / 2.0, params.lp_spacing()));
    split_from_active_hours(params, n, isd, strategy, hp_active, service_active)
}

/// [`average_power_per_km`] with the activity integrals already in hand.
///
/// This is the entire split computation downstream of the timeline:
/// `hp_active` is the daily occupancy of the ISD-long section (driving
/// masts and donors), `service_active` that of the spacing-wide section
/// around the mid-segment service node.
pub fn split_from_active_hours(
    params: &ScenarioParams,
    n: usize,
    isd: Meters,
    strategy: EnergyStrategy,
    hp_active: Hours,
    service_active: Hours,
) -> SegmentEnergy {
    let inventory = SegmentInventory::for_nodes(n, isd);
    let per_km = inventory.segments_per_km();

    // High-power mast: full load while a train is in its ISD section,
    // asleep otherwise (all strategies).
    let hp_duty = corridor_power::DutyCycle::over_day(hp_active, Hours::ZERO);
    let hp_avg = hp_duty.average_power(params.hp_mast());

    // Service node: full load while a train is within its spacing-wide
    // section.
    let service_duty = corridor_power::DutyCycle::over_day(service_active, Hours::ZERO);

    // Donor node: full load while a train is anywhere in the segment.
    let donor_duty = corridor_power::DutyCycle::over_day(hp_active, Hours::ZERO);

    let (service_avg, donor_avg) = match strategy {
        EnergyStrategy::ContinuousRepeaters => (
            service_duty.average_power_idle_fallback(params.lp_node()),
            donor_duty.average_power_idle_fallback(params.lp_node()),
        ),
        EnergyStrategy::SleepModeRepeaters => (
            service_duty.average_power(params.lp_node()),
            donor_duty.average_power(params.lp_node()),
        ),
        EnergyStrategy::SolarPoweredRepeaters => (Watts::ZERO, Watts::ZERO),
    };

    SegmentEnergy {
        hp: hp_avg * per_km,
        service: service_avg * (inventory.service_nodes() as f64 * per_km),
        donor: donor_avg * (inventory.donor_nodes() as f64 * per_km),
    }
}

/// The conventional baseline: high-power masts every
/// [`ScenarioParams::conventional_isd`], no repeaters, masts sleeping
/// between trains.
pub fn conventional_baseline(params: &ScenarioParams) -> SegmentEnergy {
    average_power_per_km(
        params,
        0,
        params.conventional_isd(),
        EnergyStrategy::SleepModeRepeaters,
    )
}

/// Savings of the `n`-node deployment (ISD from `table`) under `strategy`
/// versus the conventional baseline, as a fraction in `[0, 1]`.
///
/// # Errors
///
/// Returns [`ScenarioError::NoIsdForNodeCount`] if `table` has no entry
/// for `n` — a recoverable condition for sweep engines expanding
/// machine-generated grids, where a panic would kill the whole parallel
/// run.
pub fn savings_vs_conventional(
    params: &ScenarioParams,
    table: &IsdTable,
    n: usize,
    strategy: EnergyStrategy,
) -> Result<f64, ScenarioError> {
    let isd = table
        .isd_for(n)
        .ok_or(ScenarioError::NoIsdForNodeCount(n))?;
    let deployment = average_power_per_km(params, n, isd, strategy);
    Ok(deployment.savings_vs(&conventional_baseline(params)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ScenarioParams {
        ScenarioParams::paper_default()
    }

    #[test]
    fn conventional_baseline_value() {
        // hand calculation: 2 masts/km, each 233.6 W average = 467 W/km
        let base = conventional_baseline(&params());
        assert!((base.total().value() - 467.1).abs() < 1.0, "{:?}", base);
        assert_eq!(base.service, Watts::ZERO);
        assert_eq!(base.donor, Watts::ZERO);
    }

    #[test]
    fn paper_sleep_mode_savings() {
        let table = IsdTable::paper();
        // paper Section V-A: 57 % with one node, 74 % with ten
        let one = savings_vs_conventional(&params(), &table, 1, EnergyStrategy::SleepModeRepeaters)
            .unwrap();
        assert!((one - 0.57).abs() < 0.01, "one node: {one}");
        let ten =
            savings_vs_conventional(&params(), &table, 10, EnergyStrategy::SleepModeRepeaters)
                .unwrap();
        assert!((ten - 0.74).abs() < 0.01, "ten nodes: {ten}");
    }

    #[test]
    fn paper_solar_savings() {
        let table = IsdTable::paper();
        // paper: 59 % with one node, 79 % with ten
        let one =
            savings_vs_conventional(&params(), &table, 1, EnergyStrategy::SolarPoweredRepeaters)
                .unwrap();
        assert!((one - 0.59).abs() < 0.01, "one node: {one}");
        let ten =
            savings_vs_conventional(&params(), &table, 10, EnergyStrategy::SolarPoweredRepeaters)
                .unwrap();
        assert!((ten - 0.79).abs() < 0.01, "ten nodes: {ten}");
    }

    #[test]
    fn paper_continuous_crosses_half_at_three_nodes() {
        let table = IsdTable::paper();
        // paper: "at least three low-power repeater nodes ... below 50 %"
        let two =
            savings_vs_conventional(&params(), &table, 2, EnergyStrategy::ContinuousRepeaters)
                .unwrap();
        let three =
            savings_vs_conventional(&params(), &table, 3, EnergyStrategy::ContinuousRepeaters)
                .unwrap();
        assert!(two < 0.5, "two nodes: {two}");
        assert!(three > 0.5, "three nodes: {three}");
    }

    #[test]
    fn strategy_ordering_everywhere() {
        let table = IsdTable::paper();
        for n in 1..=10 {
            let isd = table.isd_for(n).unwrap();
            let continuous =
                average_power_per_km(&params(), n, isd, EnergyStrategy::ContinuousRepeaters);
            let sleep = average_power_per_km(&params(), n, isd, EnergyStrategy::SleepModeRepeaters);
            let solar =
                average_power_per_km(&params(), n, isd, EnergyStrategy::SolarPoweredRepeaters);
            assert!(continuous.total() > sleep.total(), "n={n}");
            assert!(sleep.total() > solar.total(), "n={n}");
            // HP share identical across strategies
            assert_eq!(continuous.hp, sleep.hp);
            assert_eq!(sleep.hp, solar.hp);
            assert_eq!(solar.service, Watts::ZERO);
        }
    }

    #[test]
    fn savings_increase_with_node_count_for_solar() {
        let table = IsdTable::paper();
        let mut last = 0.0;
        for n in 1..=10 {
            let s = savings_vs_conventional(
                &params(),
                &table,
                n,
                EnergyStrategy::SolarPoweredRepeaters,
            )
            .unwrap();
            assert!(s > last, "n={n}: {s} <= {last}");
            last = s;
        }
    }

    #[test]
    fn segment_energy_helpers() {
        let base = conventional_baseline(&params());
        assert_eq!(base.hourly_energy_per_km().value(), base.total().value());
        assert_eq!(base.savings_vs(&base), 0.0);
    }

    #[test]
    fn missing_table_entry_is_a_recoverable_error() {
        // a missing ISD entry must not panic (it used to kill whole
        // parallel sweeps); it surfaces as a typed ScenarioError instead
        let err = savings_vs_conventional(
            &params(),
            &IsdTable::paper(),
            11,
            EnergyStrategy::SleepModeRepeaters,
        )
        .unwrap_err();
        assert_eq!(err, ScenarioError::NoIsdForNodeCount(11));
        assert!(err.to_string().contains("11"));
    }

    #[test]
    fn zero_baseline_yields_zero_savings_not_nan() {
        // regression: a zero-energy baseline used to produce NaN (0/0)
        // or -inf (x/0) that flowed silently into sweep CSV/JSON
        let zero = SegmentEnergy {
            hp: Watts::ZERO,
            service: Watts::ZERO,
            donor: Watts::ZERO,
        };
        let deployed = SegmentEnergy {
            hp: Watts::new(100.0),
            service: Watts::new(10.0),
            donor: Watts::new(5.0),
        };
        assert_eq!(deployed.savings_vs(&zero), 0.0);
        assert_eq!(zero.savings_vs(&zero), 0.0);
        // the sane direction still works
        assert!(deployed.savings_vs(&deployed).abs() < 1e-12);
        assert!(zero.savings_vs(&deployed) > 0.99);
    }

    #[test]
    fn memoized_active_hours_match_a_fresh_timeline() {
        // the memo is exact: a cached value is bit-identical to a fresh
        // timeline scan, on first use and on every repeat
        let p = params();
        for isd_m in [500.0, 1250.0, 2650.0, 3062.5] {
            for section in [
                TrackSection::new(Meters::ZERO, Meters::new(isd_m)),
                TrackSection::around(Meters::new(isd_m / 2.0), p.lp_spacing()),
            ] {
                let fresh = ActivityTimeline::for_section(&section, &p.timetable().passes())
                    .total_active_hours();
                for round in 0..2 {
                    assert_eq!(
                        active_hours(&p, section).value().to_bits(),
                        fresh.value().to_bits(),
                        "isd {isd_m}, round {round}"
                    );
                }
            }
        }
    }
}
