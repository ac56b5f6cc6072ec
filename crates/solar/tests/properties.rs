//! Property-based tests for the solar substrate.

use corridor_solar::{
    climate, Battery, DailyLoadProfile, Location, OffGridSystem, PvArray, WeatherGenerator,
};
use corridor_units::{WattHours, Watts};
use proptest::prelude::*;

proptest! {
    /// PV output is monotone in irradiance at fixed temperature.
    #[test]
    fn pv_monotone_in_irradiance(g1 in 0.0..1100.0f64, g2 in 0.0..1100.0f64, t in -20.0..45.0f64) {
        let array = PvArray::standard_modules(3);
        let (lo, hi) = if g1 <= g2 { (g1, g2) } else { (g2, g1) };
        prop_assert!(array.output_power_w(hi, t) >= array.output_power_w(lo, t));
    }

    /// Battery state of charge always stays within [min_soc, capacity]
    /// and the step never reports negative unmet/curtailed energy.
    #[test]
    fn battery_invariants(
        capacity in 100.0..3000.0f64,
        steps in prop::collection::vec((0.0..500.0f64, 0.0..500.0f64), 1..80),
    ) {
        let mut battery = Battery::with_capacity(WattHours::new(capacity));
        for (generation, load) in steps {
            let result = battery.step(WattHours::new(generation), WattHours::new(load));
            prop_assert!(result.unmet.value() >= 0.0);
            prop_assert!(result.curtailed.value() >= 0.0);
            let soc = battery.state_of_charge();
            prop_assert!(soc >= battery.min_soc() - WattHours::new(1e-9));
            prop_assert!(soc <= WattHours::new(capacity) + WattHours::new(1e-9));
        }
    }

    /// Battery energy conservation: SoC change = stored - drawn (with the
    /// configured efficiencies) within each step.
    #[test]
    fn battery_energy_conservation(gen in 0.0..400.0f64, load in 0.0..400.0f64) {
        let mut battery = Battery::with_capacity(WattHours::new(720.0));
        battery.step(WattHours::ZERO, WattHours::new(150.0)); // make headroom
        let before = battery.state_of_charge().value();
        let step = battery.step(WattHours::new(gen), WattHours::new(load));
        let after = battery.state_of_charge().value();
        let net = gen - load;
        if net >= 0.0 {
            let expected = (net - step.curtailed.value()) * 0.95;
            prop_assert!((after - before - expected).abs() < 1e-6);
        } else {
            let expected = (-net - step.unmet.value()) / 0.95;
            prop_assert!((before - after - expected).abs() < 1e-6);
        }
    }

    /// Year simulations are reproducible and consumption matches the
    /// profile exactly regardless of weather.
    #[test]
    fn simulation_reproducible(seed in 0u64..50) {
        let sys = OffGridSystem::new(
            climate::vienna(),
            PvArray::standard_modules(3),
            Battery::paper_default(),
            DailyLoadProfile::repeater_paper_default(),
        );
        let a = sys.simulate_year(seed);
        let b = sys.simulate_year(seed);
        prop_assert_eq!(a, b);
        let expected = DailyLoadProfile::repeater_paper_default().daily_energy().value() * 365.0;
        prop_assert!((a.consumption().value() - expected).abs() < 1e-6);
        prop_assert!(a.full_battery_days() <= 365);
        prop_assert!(a.downtime_days() <= 365);
    }

    /// Weather multipliers stay within the configured bounds for any
    /// variability.
    #[test]
    fn weather_bounds(seed in 0u64..100, variability in 0.0..3.0f64) {
        let mut w = WeatherGenerator::new(climate::berlin(), seed).with_variability(variability);
        for m in w.daily_multipliers_for_year() {
            if variability == 0.0 {
                prop_assert_eq!(m, 1.0);
            } else {
                prop_assert!((WeatherGenerator::MIN_MULTIPLIER
                    ..=WeatherGenerator::MAX_MULTIPLIER).contains(&m));
            }
        }
    }

    /// A larger load never improves the year's outcome.
    #[test]
    fn bigger_load_never_better(seed in 0u64..20, extra in 0.0..20.0f64) {
        let base_load = DailyLoadProfile::from_hourly([Watts::new(5.0); 24]);
        let big_load = DailyLoadProfile::from_hourly([Watts::new(5.0 + extra); 24]);
        let mk = |load: DailyLoadProfile| {
            OffGridSystem::new(
                climate::berlin(),
                PvArray::standard_modules(3),
                Battery::paper_default(),
                load,
            )
        };
        let small = mk(base_load).simulate_year(seed);
        let big = mk(big_load).simulate_year(seed);
        prop_assert!(big.downtime_days() >= small.downtime_days());
        prop_assert!(big.unmet_energy() >= small.unmet_energy());
        prop_assert!(big.full_battery_days() <= small.full_battery_days());
    }

    /// month_of_doy is consistent with cumulative month lengths.
    #[test]
    fn month_of_doy_consistent(d in 1u32..=365) {
        let m = Location::month_of_doy(d);
        prop_assert!(m < 12);
        const CUM: [u32; 13] = [0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334, 365];
        prop_assert!(d > CUM[m] && d <= CUM[m + 1]);
    }
}
