//! Clear-sky irradiance (Haurwitz model).

/// The Haurwitz clear-sky model: global horizontal irradiance under a
/// cloudless sky as a function of solar elevation only,
/// `GHI = 1098 · cosθz · exp(−0.057 / cosθz)` W/m².
///
/// Simple, robust, and accurate to a few percent against more elaborate
/// models — sufficient here because all absolute scaling is folded into the
/// per-month clearness indices calibrated per location.
pub(crate) struct ClearSky;

impl ClearSky {
    /// Haurwitz model coefficient (W/m²).
    const A: f64 = 1098.0;
    /// Haurwitz extinction exponent.
    const B: f64 = 0.057;

    /// Clear-sky GHI (W/m²) with the sun at `elev` degrees; zero when the
    /// sun is below the horizon.
    pub(crate) fn ghi_at_elevation(elev: f64) -> f64 {
        if elev <= 0.0 {
            return 0.0;
        }
        let cos_zenith = elev.to_radians().sin();
        Self::A * cos_zenith * (-Self::B / cos_zenith).exp()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::SolarGeometry;

    /// Clear-sky GHI (W/m²) at latitude `lat`, day `doy`, solar `hour`.
    fn ghi(lat: f64, doy: u32, hour: f64) -> f64 {
        ClearSky::ghi_at_elevation(
            SolarGeometry::at_latitude(lat)
                .sun_day(doy)
                .elevation_deg(hour),
        )
    }

    /// Daily clear-sky irradiation (Wh/m²) by hourly integration, as the
    /// sky tables sum it.
    pub(crate) fn daily_ghi(lat: f64, doy: u32) -> f64 {
        (0..24).map(|h| ghi(lat, doy, h as f64 + 0.5)).sum()
    }

    #[test]
    fn peak_irradiance_near_standard_value() {
        // high sun: cosθz -> 1, GHI -> 1098·exp(-0.057) ≈ 1037 W/m²
        let peak = ghi(0.0, 81, 12.0); // equinox noon overhead
        assert!((peak - 1037.0).abs() < 10.0, "got {peak}");
    }

    #[test]
    fn zero_at_night() {
        for hour in [0.0, 2.0, 23.0] {
            assert_eq!(ghi(40.4, 172, hour), 0.0);
        }
    }

    #[test]
    fn summer_day_exceeds_winter_day() {
        let summer = daily_ghi(52.5, 172);
        let winter = daily_ghi(52.5, 355);
        assert!(summer > 3.0 * winter, "summer {summer}, winter {winter}");
        // ballpark: Berlin clear-sky summer day ~7-9 kWh/m²
        assert!(summer > 6500.0 && summer < 9500.0, "summer {summer}");
    }

    #[test]
    fn lower_latitude_gets_more_winter_sun() {
        let madrid = daily_ghi(40.4, 355);
        let berlin = daily_ghi(52.5, 355);
        assert!(madrid > 1.5 * berlin);
    }

    proptest::proptest! {
        /// GHI is non-negative, zero at night and bounded by the solar
        /// constant ballpark.
        #[test]
        fn bounded_and_zero_at_night(lat in -65.0..65.0f64, doy in 1u32..=365, hour in 0.0..24.0f64) {
            let g = ghi(lat, doy, hour);
            proptest::prop_assert!((0.0..1100.0).contains(&g));
            if SolarGeometry::at_latitude(lat).sun_day(doy).elevation_deg(hour) <= 0.0 {
                proptest::prop_assert_eq!(g, 0.0);
            }
        }
    }

    #[test]
    fn irradiance_symmetric_around_noon() {
        let morning = ghi(40.4, 100, 9.0);
        let afternoon = ghi(40.4, 100, 15.0);
        assert!((morning - afternoon).abs() < 1e-9);
    }
}
