//! Embedded climate normals for the paper's four example regions.
//!
//! PVGIS queries a satellite irradiation database; offline we carry, per
//! location, twelve monthly mean daily global horizontal irradiation (GHI)
//! values and monthly mean ambient temperatures, synthesized from public
//! climate normals. The absolute values are approximate; what matters for
//! the Table IV reproduction is the *ranking* and the winter minima, which
//! these normals preserve: Madrid's sunny winters vs. the overcast
//! Vienna/Berlin November–January.

/// A railway-corridor site with its climate normals.
///
/// # Examples
///
/// ```
/// use corridor_solar::climate;
/// let madrid = climate::madrid();
/// let berlin = climate::berlin();
/// // Madrid's December irradiation is roughly triple Berlin's
/// assert!(madrid.monthly_ghi_kwh_m2_day()[11] > 2.5 * berlin.monthly_ghi_kwh_m2_day()[11]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Location {
    name: &'static str,
    latitude_deg: f64,
    monthly_ghi_kwh_m2_day: [f64; 12],
    monthly_temp_c: [f64; 12],
    overcast_persistence: f64,
}

impl Location {
    /// Creates a location from climate normals.
    ///
    /// # Panics
    ///
    /// Panics if the latitude is out of range or a GHI normal is not
    /// strictly positive.
    pub fn new(
        name: &'static str,
        latitude_deg: f64,
        monthly_ghi_kwh_m2_day: [f64; 12],
        monthly_temp_c: [f64; 12],
    ) -> Self {
        assert!(
            (-90.0..=90.0).contains(&latitude_deg),
            "latitude out of range"
        );
        assert!(
            monthly_ghi_kwh_m2_day.iter().all(|g| *g > 0.0),
            "GHI normals must be positive"
        );
        Location {
            name,
            latitude_deg,
            monthly_ghi_kwh_m2_day,
            monthly_temp_c,
            overcast_persistence: 0.75,
        }
    }

    /// Overrides the day-to-day persistence of overcast anomalies.
    ///
    /// Continental sites (Vienna, Berlin) sit under quasi-stationary
    /// high-fog/anticyclonic gloom for a week or more in winter, while
    /// Madrid's and Lyon's cloudy spells clear within days; this parameter
    /// is what separates them in the battery-sizing results.
    ///
    /// # Panics
    ///
    /// Panics if `persistence` is outside `[0, 1)`.
    #[must_use]
    pub fn with_overcast_persistence(mut self, persistence: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&persistence),
            "persistence must be in [0, 1)"
        );
        self.overcast_persistence = persistence;
        self
    }

    /// Day-to-day persistence of the site's overcast anomalies.
    pub fn overcast_persistence(&self) -> f64 {
        self.overcast_persistence
    }

    /// Site name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Latitude, degrees north.
    pub fn latitude_deg(&self) -> f64 {
        self.latitude_deg
    }

    /// Monthly mean daily GHI (kWh/m²/day), January first.
    pub fn monthly_ghi_kwh_m2_day(&self) -> &[f64; 12] {
        &self.monthly_ghi_kwh_m2_day
    }

    /// Monthly mean ambient temperatures (°C), January first.
    pub fn monthly_temp_c(&self) -> &[f64; 12] {
        &self.monthly_temp_c
    }

    /// Mean daily GHI (Wh/m²/day) for a day of year (1..=365).
    pub fn ghi_for_doy_wh_m2(&self, doy: u32) -> f64 {
        self.monthly_ghi_kwh_m2_day[Self::month_of_doy(doy)] * 1e3
    }

    /// Ambient temperature for a day of year.
    pub fn temp_for_doy(&self, doy: u32) -> f64 {
        self.monthly_temp_c[Self::month_of_doy(doy)]
    }

    /// Month index (0..=11) of a day of year (1..=365; days beyond 365
    /// clamp to December).
    pub fn month_of_doy(doy: u32) -> usize {
        const CUM: [u32; 12] = [31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334, 365];
        CUM.iter().position(|&end| doy <= end).unwrap_or(11)
    }
}

/// Madrid, Spain (40.4°N) — the sunniest of the four example regions.
pub fn madrid() -> Location {
    Location::new(
        "Madrid",
        40.4,
        [2.1, 3.0, 4.4, 5.4, 6.4, 7.3, 7.6, 6.7, 5.0, 3.3, 2.3, 1.9],
        [
            6.0, 8.0, 11.0, 13.0, 18.0, 23.0, 26.0, 26.0, 21.0, 15.0, 9.0, 6.0,
        ],
    )
    .with_overcast_persistence(0.60)
}

/// Lyon, France (45.8°N).
pub fn lyon() -> Location {
    Location::new(
        "Lyon",
        45.8,
        [1.4, 2.2, 3.2, 4.3, 5.2, 6.0, 6.2, 5.3, 3.9, 2.5, 1.6, 1.25],
        [
            3.0, 5.0, 9.0, 12.0, 16.0, 20.0, 23.0, 22.0, 18.0, 13.0, 7.0, 4.0,
        ],
    )
    .with_overcast_persistence(0.65)
}

/// Vienna, Austria (48.2°N) — overcast winters.
pub fn vienna() -> Location {
    Location::new(
        "Vienna",
        48.2,
        [0.9, 1.7, 2.9, 4.1, 5.1, 5.5, 5.5, 4.8, 3.4, 2.1, 1.0, 0.7],
        [
            0.0, 2.0, 6.0, 11.0, 15.0, 19.0, 21.0, 21.0, 16.0, 10.0, 5.0, 1.0,
        ],
    )
    .with_overcast_persistence(0.84)
}

/// Berlin, Germany (52.5°N) — the darkest winters of the four.
pub fn berlin() -> Location {
    Location::new(
        "Berlin",
        52.5,
        [0.65, 1.3, 2.6, 3.9, 5.0, 5.4, 5.2, 4.5, 3.0, 1.6, 0.7, 0.55],
        [
            0.0, 1.0, 5.0, 10.0, 14.0, 18.0, 20.0, 19.0, 15.0, 10.0, 5.0, 2.0,
        ],
    )
    .with_overcast_persistence(0.84)
}

/// The paper's four example regions, in its order.
pub fn paper_regions() -> [Location; 4] {
    [madrid(), lyon(), vienna(), berlin()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn month_of_doy_boundaries() {
        assert_eq!(Location::month_of_doy(1), 0);
        assert_eq!(Location::month_of_doy(31), 0);
        assert_eq!(Location::month_of_doy(32), 1);
        assert_eq!(Location::month_of_doy(59), 1);
        assert_eq!(Location::month_of_doy(60), 2);
        assert_eq!(Location::month_of_doy(365), 11);
        assert_eq!(Location::month_of_doy(400), 11);
    }

    #[test]
    fn four_regions_ordered_by_winter_irradiation() {
        let december = |loc: &Location| loc.monthly_ghi_kwh_m2_day()[11];
        let [madrid, lyon, vienna, berlin] = paper_regions();
        assert!(december(&madrid) > december(&lyon));
        assert!(december(&lyon) > december(&vienna));
        assert!(december(&vienna) > december(&berlin));
    }

    #[test]
    fn annual_totals_in_published_ballpark() {
        // public normals: Madrid ~1650-1850, Berlin ~1000-1100 kWh/m²/year
        const DAYS: [f64; 12] = [
            31.0, 28.0, 31.0, 30.0, 31.0, 30.0, 31.0, 31.0, 30.0, 31.0, 30.0, 31.0,
        ];
        let annual = |loc: &Location| -> f64 {
            loc.monthly_ghi_kwh_m2_day()
                .iter()
                .zip(DAYS)
                .map(|(g, d)| g * d)
                .sum()
        };
        let madrid = annual(&madrid());
        assert!((1550.0..1900.0).contains(&madrid), "Madrid {madrid}");
        let berlin = annual(&berlin());
        assert!((950.0..1200.0).contains(&berlin), "Berlin {berlin}");
    }

    #[test]
    fn latitudes_increase_northward() {
        let [madrid, lyon, vienna, berlin] = paper_regions();
        assert!(madrid.latitude_deg() < lyon.latitude_deg());
        assert!(lyon.latitude_deg() < vienna.latitude_deg());
        assert!(vienna.latitude_deg() < berlin.latitude_deg());
    }

    #[test]
    fn doy_lookups_use_month_normals() {
        let m = madrid();
        assert_eq!(m.ghi_for_doy_wh_m2(15), 2100.0);
        assert_eq!(m.ghi_for_doy_wh_m2(200), 7600.0);
        assert_eq!(m.temp_for_doy(355), 6.0);
    }

    #[test]
    #[should_panic(expected = "GHI normals")]
    fn invalid_ghi_rejected() {
        let _ = Location::new("bad", 0.0, [0.0; 12], [0.0; 12]);
    }
}
