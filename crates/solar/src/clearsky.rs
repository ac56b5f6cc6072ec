//! Clear-sky irradiance (Haurwitz model).

use crate::SolarGeometry;

/// The Haurwitz clear-sky model: global horizontal irradiance under a
/// cloudless sky as a function of solar elevation only,
/// `GHI = 1098 · cosθz · exp(−0.057 / cosθz)` W/m².
///
/// Simple, robust, and accurate to a few percent against more elaborate
/// models — sufficient here because all absolute scaling is folded into the
/// per-month clearness indices calibrated per location.
///
/// # Examples
///
/// ```
/// use corridor_solar::{ClearSky, SolarGeometry};
/// let geo = SolarGeometry::at_latitude(40.4);
/// let sky = ClearSky::new(geo);
/// let noon_summer = sky.ghi_w_m2(172, 12.0);
/// assert!(noon_summer > 900.0 && noon_summer < 1100.0);
/// assert_eq!(sky.ghi_w_m2(172, 0.0), 0.0); // night
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ClearSky {
    geometry: SolarGeometry,
}

impl ClearSky {
    /// Haurwitz model coefficient (W/m²).
    const A: f64 = 1098.0;
    /// Haurwitz extinction exponent.
    const B: f64 = 0.057;

    /// A clear-sky model over the given geometry.
    pub fn new(geometry: SolarGeometry) -> Self {
        ClearSky { geometry }
    }

    /// The site geometry.
    pub fn geometry(&self) -> &SolarGeometry {
        &self.geometry
    }

    /// Clear-sky global horizontal irradiance (W/m²) at day `doy`, local
    /// solar time `hour`; zero when the sun is below the horizon.
    pub fn ghi_w_m2(&self, doy: u32, hour: f64) -> f64 {
        Self::ghi_at_elevation(self.geometry.elevation_deg(doy, hour))
    }

    /// Clear-sky GHI (W/m²) with the sun at `elev` degrees; zero when the
    /// sun is below the horizon.
    pub(crate) fn ghi_at_elevation(elev: f64) -> f64 {
        if elev <= 0.0 {
            return 0.0;
        }
        let cos_zenith = elev.to_radians().sin();
        Self::A * cos_zenith * (-Self::B / cos_zenith).exp()
    }

    /// Daily clear-sky irradiation (Wh/m²) by hourly integration.
    pub fn daily_ghi_wh_m2(&self, doy: u32) -> f64 {
        (0..24).map(|h| self.ghi_w_m2(doy, h as f64 + 0.5)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sky(lat: f64) -> ClearSky {
        ClearSky::new(SolarGeometry::at_latitude(lat))
    }

    #[test]
    fn peak_irradiance_near_standard_value() {
        // high sun: cosθz -> 1, GHI -> 1098·exp(-0.057) ≈ 1037 W/m²
        let equator = sky(0.0);
        let peak = equator.ghi_w_m2(81, 12.0); // equinox noon overhead
        assert!((peak - 1037.0).abs() < 10.0, "got {peak}");
    }

    #[test]
    fn zero_at_night() {
        let madrid = sky(40.4);
        for hour in [0.0, 2.0, 23.0] {
            assert_eq!(madrid.ghi_w_m2(172, hour), 0.0);
        }
    }

    #[test]
    fn summer_day_exceeds_winter_day() {
        let berlin = sky(52.5);
        let summer = berlin.daily_ghi_wh_m2(172);
        let winter = berlin.daily_ghi_wh_m2(355);
        assert!(summer > 3.0 * winter, "summer {summer}, winter {winter}");
        // ballpark: Berlin clear-sky summer day ~7-9 kWh/m²
        assert!(summer > 6500.0 && summer < 9500.0, "summer {summer}");
    }

    #[test]
    fn lower_latitude_gets_more_winter_sun() {
        let madrid = sky(40.4).daily_ghi_wh_m2(355);
        let berlin = sky(52.5).daily_ghi_wh_m2(355);
        assert!(madrid > 1.5 * berlin);
    }

    #[test]
    fn irradiance_symmetric_around_noon() {
        let madrid = sky(40.4);
        let morning = madrid.ghi_w_m2(100, 9.0);
        let afternoon = madrid.ghi_w_m2(100, 15.0);
        assert!((morning - afternoon).abs() < 1e-9);
    }
}
