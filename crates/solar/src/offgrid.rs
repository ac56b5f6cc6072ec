//! Year-long off-grid system simulation.

use core::fmt;

use corridor_units::WattHours;

use crate::{
    Battery, DailyLoadProfile, Location, PvArray, SolarGeometry, Transposition, WeatherGenerator,
};

/// Summary statistics of one simulated year, mirroring the PVGIS off-grid
/// report used in the paper's Table IV.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct YearStats {
    days: u32,
    full_battery_days: u32,
    downtime_days: u32,
    unmet_energy: WattHours,
    curtailed_energy: WattHours,
    generation: WattHours,
    consumption: WattHours,
    min_soc_fraction: f64,
}

impl YearStats {
    /// Number of simulated days.
    pub fn days(&self) -> u32 {
        self.days
    }

    /// Days on which the battery reached full charge.
    pub fn full_battery_days(&self) -> u32 {
        self.full_battery_days
    }

    /// Fraction of days with a full battery (the paper's Table IV metric).
    pub fn full_battery_day_fraction(&self) -> f64 {
        f64::from(self.full_battery_days) / f64::from(self.days)
    }

    /// Days with unserved load (the paper requires zero).
    pub fn downtime_days(&self) -> u32 {
        self.downtime_days
    }

    /// Total unserved load energy.
    pub fn unmet_energy(&self) -> WattHours {
        self.unmet_energy
    }

    /// Generation that could not be stored or used.
    pub fn curtailed_energy(&self) -> WattHours {
        self.curtailed_energy
    }

    /// Total PV generation.
    pub fn generation(&self) -> WattHours {
        self.generation
    }

    /// Total load.
    pub fn consumption(&self) -> WattHours {
        self.consumption
    }

    /// Lowest state of charge reached, as a fraction of nominal capacity.
    pub fn min_soc_fraction(&self) -> f64 {
        self.min_soc_fraction
    }
}

impl fmt::Display for YearStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2} % days full, {} downtime day(s), {:.0} generated / {:.0} consumed",
            self.full_battery_day_fraction() * 100.0,
            self.downtime_days,
            self.generation.value(),
            self.consumption.value()
        )
    }
}

/// A complete off-grid repeater power system at a location: PV array,
/// battery and load, simulated hourly over a full year with synthetic
/// weather.
///
/// # Examples
///
/// ```
/// use corridor_solar::{climate, Battery, DailyLoadProfile, OffGridSystem, PvArray};
/// use corridor_units::WattHours;
///
/// let system = OffGridSystem::new(
///     climate::madrid(),
///     PvArray::standard_modules(3),
///     Battery::with_capacity(WattHours::new(720.0)),
///     DailyLoadProfile::repeater_paper_default(),
/// );
/// let stats = system.simulate_year(1);
/// assert_eq!(stats.days(), 365);
/// ```
#[derive(Debug, Clone)]
pub struct OffGridSystem {
    location: Location,
    pv: PvArray,
    battery: Battery,
    load: DailyLoadProfile,
    transposition: Transposition,
    variability: f64,
    persistence: f64,
}

impl OffGridSystem {
    /// Clearness floor/ceiling when converting daily GHI to an index.
    pub(crate) const KT_RANGE: (f64, f64) = (0.03, 0.85);

    /// A system with the paper's mounting (vertical, south-facing) and the
    /// default weather variability.
    pub fn new(location: Location, pv: PvArray, battery: Battery, load: DailyLoadProfile) -> Self {
        let geometry = SolarGeometry::at_latitude(location.latitude_deg());
        let persistence = location.overcast_persistence();
        OffGridSystem {
            location,
            pv,
            battery,
            load,
            transposition: Transposition::vertical_south(geometry),
            variability: WeatherGenerator::DEFAULT_VARIABILITY,
            persistence,
        }
    }

    /// Overrides the weather variability (0 = deterministic normals) and
    /// the day-to-day persistence of its anomalies.
    ///
    /// # Panics
    ///
    /// Panics if `variability` is negative or NaN, or if `persistence` is
    /// outside `[0, 1)` — the contracts of
    /// [`WeatherGenerator::with_variability`] and
    /// [`WeatherGenerator::with_persistence`], checked here rather than
    /// when a year is first simulated.
    #[must_use]
    pub fn with_weather_variability(mut self, variability: f64, persistence: f64) -> Self {
        WeatherGenerator::check_variability(variability);
        WeatherGenerator::check_persistence(persistence);
        self.variability = variability;
        self.persistence = persistence;
        self
    }

    /// The simulated site.
    pub fn location(&self) -> &Location {
        &self.location
    }

    /// The PV array.
    pub fn pv(&self) -> &PvArray {
        &self.pv
    }

    /// The battery (template state; simulations start from full).
    pub fn battery(&self) -> &Battery {
        &self.battery
    }

    /// The load profile.
    pub fn load(&self) -> &DailyLoadProfile {
        &self.load
    }

    /// Simulates one year (365 days, hourly) with weather seed `seed`.
    ///
    /// The battery starts full on January 1st; the seed fully determines
    /// the weather, so results are reproducible.
    ///
    /// The candidate-independent environment is cached process-wide in
    /// two levels. The solar geometry of the year (hourly clear-sky
    /// irradiance and beam ratios) is computed once per
    /// `(latitude, tilt, azimuth)`. Each `(site, mounting, weather, seed)`
    /// then draws its daily clearness and projects it through that table
    /// once. So a site's seed years share one geometry computation, and a
    /// sizing search re-simulating the same weather year through many
    /// PV/battery candidates pays only for the battery stepping.
    pub fn simulate_year(&self, seed: u64) -> YearStats {
        self.run_year(seed, false)
    }

    /// [`OffGridSystem::simulate_year`] for a sizing search: returns
    /// `None` at the first day with unmet load, so a rejected candidate
    /// steps no further. A year that completes ran every day, so its
    /// stats are the ones `simulate_year` returns.
    pub(crate) fn simulate_year_until_downtime(&self, seed: u64) -> Option<YearStats> {
        let stats = self.run_year(seed, true);
        (stats.downtime_days == 0).then_some(stats)
    }

    /// The hourly year loop; with `stop_at_downtime` it returns the
    /// partial stats at the end of the first day with unmet load.
    fn run_year(&self, seed: u64, stop_at_downtime: bool) -> YearStats {
        let env = crate::environment::cached_year(
            &self.location,
            &self.transposition,
            self.variability,
            self.persistence,
            seed,
        );
        let mut battery = self.battery;
        battery.reset_full();

        let mut stats = YearStats {
            days: 365,
            full_battery_days: 0,
            downtime_days: 0,
            unmet_energy: WattHours::ZERO,
            curtailed_energy: WattHours::ZERO,
            generation: WattHours::ZERO,
            consumption: WattHours::ZERO,
            min_soc_fraction: 1.0,
        };

        for day in 0..365usize {
            let ambient = env.ambient[day];

            let mut full_today = false;
            let mut unmet_today = false;
            for hour in 0..24usize {
                let poa = env.poa[day * 24 + hour];
                let generation = WattHours::new(self.pv.output_power_w(poa, ambient));
                let load = self.load.energy_at_hour(hour);
                let step = battery.step(generation, load);
                stats.generation += generation;
                stats.consumption += load;
                stats.unmet_energy += step.unmet;
                stats.curtailed_energy += step.curtailed;
                full_today |= step.full_after;
                unmet_today |= step.unmet.value() > 0.0;
                stats.min_soc_fraction = stats.min_soc_fraction.min(battery.soc_fraction());
            }
            if full_today {
                stats.full_battery_days += 1;
            }
            if unmet_today {
                stats.downtime_days += 1;
                if stop_at_downtime {
                    break;
                }
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::climate;

    fn system(location: Location, modules: u32, battery_wh: f64) -> OffGridSystem {
        OffGridSystem::new(
            location,
            PvArray::standard_modules(modules),
            Battery::with_capacity(WattHours::new(battery_wh)),
            DailyLoadProfile::repeater_paper_default(),
        )
    }

    #[test]
    fn madrid_standard_system_has_no_downtime() {
        let stats = system(climate::madrid(), 3, 720.0).simulate_year(1);
        assert_eq!(stats.downtime_days(), 0, "{stats}");
        assert!(stats.full_battery_day_fraction() > 0.90, "{stats}");
    }

    #[test]
    fn generation_dwarfs_load_in_madrid() {
        let stats = system(climate::madrid(), 3, 720.0).simulate_year(2);
        assert!(stats.generation() > stats.consumption() * 3.0);
        // most of the surplus is necessarily curtailed
        assert!(stats.curtailed_energy() > WattHours::ZERO);
    }

    #[test]
    fn berlin_worse_than_madrid() {
        let madrid = system(climate::madrid(), 3, 720.0).simulate_year(5);
        let berlin = system(climate::berlin(), 3, 720.0).simulate_year(5);
        assert!(
            berlin.full_battery_day_fraction() < madrid.full_battery_day_fraction(),
            "berlin {berlin}, madrid {madrid}"
        );
        assert!(berlin.min_soc_fraction() <= madrid.min_soc_fraction());
    }

    #[test]
    fn bigger_battery_never_hurts() {
        let small = system(climate::vienna(), 3, 720.0).simulate_year(9);
        let big = system(climate::vienna(), 3, 1440.0).simulate_year(9);
        assert!(big.downtime_days() <= small.downtime_days());
        assert!(big.unmet_energy() <= small.unmet_energy());
    }

    #[test]
    fn more_pv_never_hurts() {
        let small = system(climate::berlin(), 3, 720.0).simulate_year(13);
        let big = system(climate::berlin(), 5, 720.0).simulate_year(13);
        assert!(big.downtime_days() <= small.downtime_days());
        assert!(big.generation() > small.generation());
    }

    #[test]
    fn deterministic_weather_variant() {
        let sys = system(climate::lyon(), 3, 720.0).with_weather_variability(0.0, 0.0);
        let a = sys.simulate_year(1);
        let b = sys.simulate_year(99);
        // zero variability: the seed is irrelevant
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "variability must be non-negative")]
    fn negative_variability_rejected_when_set() {
        let _ = system(climate::lyon(), 3, 720.0).with_weather_variability(-0.5, 0.6);
    }

    #[test]
    #[should_panic(expected = "variability must be non-negative")]
    fn nan_variability_rejected_when_set() {
        let _ = system(climate::lyon(), 3, 720.0).with_weather_variability(f64::NAN, 0.6);
    }

    #[test]
    #[should_panic(expected = "persistence must be in [0, 1)")]
    fn persistence_of_one_rejected_when_set() {
        let _ = system(climate::lyon(), 3, 720.0).with_weather_variability(0.95, 1.0);
    }

    #[test]
    #[should_panic(expected = "persistence must be in [0, 1)")]
    fn nan_persistence_rejected_when_set() {
        let _ = system(climate::lyon(), 3, 720.0).with_weather_variability(0.95, f64::NAN);
    }

    #[test]
    fn reproducible_per_seed() {
        let sys = system(climate::vienna(), 3, 720.0);
        assert_eq!(sys.simulate_year(4), sys.simulate_year(4));
    }

    #[test]
    fn consumption_matches_profile() {
        let stats = system(climate::madrid(), 3, 720.0).simulate_year(3);
        let expected = DailyLoadProfile::repeater_paper_default()
            .daily_energy()
            .value()
            * 365.0;
        assert!((stats.consumption().value() - expected).abs() < 1e-6);
    }

    #[test]
    fn stats_display() {
        let stats = system(climate::madrid(), 3, 720.0).simulate_year(1);
        let s = stats.to_string();
        assert!(s.contains("% days full"));
    }
}
