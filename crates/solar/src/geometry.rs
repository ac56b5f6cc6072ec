//! Solar position geometry.

/// Solar geometry for a given latitude: declination, hour angles, and the
/// solar elevation/azimuth used by the transposition model.
///
/// Conventions: angles in degrees at the API surface, radians internally;
/// hour angle 0 at solar noon, negative in the morning; azimuth measured
/// from south, positive towards west (the PV convention, matching the
/// paper's "azimuth angle: 0°" for a south-facing module).
///
/// # Examples
///
/// ```
/// use corridor_solar::SolarGeometry;
/// // summer solstice: the sun stands 23.45° north of the equator
/// let dec = SolarGeometry::declination_deg(172);
/// assert!((dec - 23.45).abs() < 0.1);
/// // three hours after solar noon
/// assert_eq!(SolarGeometry::hour_angle_deg(15.0), 45.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolarGeometry {
    latitude_deg: f64,
}

impl SolarGeometry {
    /// Geometry for the given latitude (degrees, north positive).
    ///
    /// # Panics
    ///
    /// Panics if `latitude_deg` is outside `[-90, 90]`.
    pub fn at_latitude(latitude_deg: f64) -> Self {
        assert!(
            (-90.0..=90.0).contains(&latitude_deg),
            "latitude out of range"
        );
        SolarGeometry { latitude_deg }
    }

    /// Solar declination (degrees) for day of year `doy` (1..=365),
    /// Cooper's formula.
    pub fn declination_deg(doy: u32) -> f64 {
        23.45 * (std::f64::consts::TAU * (284.0 + doy as f64) / 365.0).sin()
    }

    /// Hour angle (degrees) for local solar time `hour` (0.0..24.0):
    /// 15° per hour from solar noon.
    pub fn hour_angle_deg(hour: f64) -> f64 {
        15.0 * (hour - 12.0)
    }

    /// The latitude and declination terms shared by every hour of day
    /// `doy`.
    pub(crate) fn sun_day(&self, doy: u32) -> SunDay {
        let lat = self.latitude_deg.to_radians();
        let dec = Self::declination_deg(doy).to_radians();
        SunDay {
            lat_sin: lat.sin(),
            lat_cos: lat.cos(),
            dec_sin: dec.sin(),
            dec_cos: dec.cos(),
        }
    }
}

/// One day of [`SolarGeometry`]: the sines and cosines of latitude and
/// declination, computed once so a caller that walks the day's hours can
/// also compute each hour's elevation once and pass it on. Every
/// `SolarGeometry` position method runs through these, so a table built
/// from them is bit-identical to the per-call methods.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SunDay {
    lat_sin: f64,
    lat_cos: f64,
    dec_sin: f64,
    dec_cos: f64,
}

impl SunDay {
    /// Solar elevation (degrees) at local solar time `hour`.
    pub(crate) fn elevation_deg(&self, hour: f64) -> f64 {
        let ha = SolarGeometry::hour_angle_deg(hour).to_radians();
        (self.lat_sin * self.dec_sin + self.lat_cos * self.dec_cos * ha.cos())
            .asin()
            .to_degrees()
    }

    /// Solar azimuth (degrees from south, west positive) at `hour`, whose
    /// elevation is `elevation_deg`.
    fn azimuth_deg(&self, hour: f64, elevation_deg: f64) -> f64 {
        let ha = SolarGeometry::hour_angle_deg(hour).to_radians();
        let elev = elevation_deg.to_radians();
        // standard formula; guard the acos argument against rounding
        let cos_az = (elev.sin() * self.lat_sin - self.dec_sin) / (elev.cos() * self.lat_cos);
        let az = cos_az.clamp(-1.0, 1.0).acos().to_degrees();
        if ha < 0.0 {
            -az
        } else {
            az
        }
    }

    /// [`SolarGeometry::incidence_cosine`] at `hour`, whose elevation is
    /// `elevation_deg`.
    pub(crate) fn incidence_cosine(
        &self,
        hour: f64,
        elevation_deg: f64,
        tilt_deg: f64,
        plane_azimuth_deg: f64,
    ) -> f64 {
        let elev = elevation_deg.to_radians();
        if elev <= 0.0 {
            return 0.0;
        }
        let sun_az = self.azimuth_deg(hour, elevation_deg).to_radians();
        let tilt = tilt_deg.to_radians();
        let plane_az = plane_azimuth_deg.to_radians();
        let cos_inc = elev.sin() * tilt.cos() + elev.cos() * tilt.sin() * (sun_az - plane_az).cos();
        cos_inc.max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MADRID: f64 = 40.4;
    const BERLIN: f64 = 52.5;

    fn elevation(geo: &SolarGeometry, doy: u32, hour: f64) -> f64 {
        geo.sun_day(doy).elevation_deg(hour)
    }

    fn azimuth(geo: &SolarGeometry, doy: u32, hour: f64) -> f64 {
        let day = geo.sun_day(doy);
        day.azimuth_deg(hour, day.elevation_deg(hour))
    }

    fn incidence(geo: &SolarGeometry, doy: u32, hour: f64, tilt: f64, plane_az: f64) -> f64 {
        let day = geo.sun_day(doy);
        day.incidence_cosine(hour, day.elevation_deg(hour), tilt, plane_az)
    }

    #[test]
    fn declination_extremes() {
        // summer solstice ~ +23.45, winter ~ -23.45, equinox ~ 0
        assert!((SolarGeometry::declination_deg(172) - 23.45).abs() < 0.1);
        assert!((SolarGeometry::declination_deg(355) + 23.45).abs() < 0.1);
        assert!(SolarGeometry::declination_deg(81).abs() < 1.0);
    }

    #[test]
    fn noon_elevation_formula() {
        let geo = SolarGeometry::at_latitude(MADRID);
        // at solar noon: elevation = 90 - lat + declination
        for doy in [1u32, 100, 200, 300] {
            let expected = 90.0 - MADRID + SolarGeometry::declination_deg(doy);
            assert!((elevation(&geo, doy, 12.0) - expected).abs() < 1e-6);
        }
    }

    #[test]
    fn sun_below_horizon_at_midnight() {
        let geo = SolarGeometry::at_latitude(MADRID);
        assert!(elevation(&geo, 172, 0.0) < 0.0);
        assert!(elevation(&geo, 355, 0.0) < 0.0);
    }

    #[test]
    fn azimuth_sign_convention() {
        let geo = SolarGeometry::at_latitude(MADRID);
        // morning sun in the east (negative), afternoon in the west
        assert!(azimuth(&geo, 100, 9.0) < 0.0);
        assert!(azimuth(&geo, 100, 15.0) > 0.0);
        assert!(azimuth(&geo, 100, 12.0).abs() < 1.0);
    }

    #[test]
    fn vertical_south_plane_sees_winter_sun_well() {
        let geo = SolarGeometry::at_latitude(BERLIN);
        // low winter sun hits a vertical south plane at near-normal incidence
        let winter = incidence(&geo, 355, 12.0, 90.0, 0.0);
        let summer = incidence(&geo, 172, 12.0, 90.0, 0.0);
        assert!(winter > 0.9, "winter cos(inc) = {winter}");
        assert!(summer < winter);
    }

    #[test]
    fn incidence_zero_when_sun_down_or_behind() {
        let geo = SolarGeometry::at_latitude(MADRID);
        assert_eq!(incidence(&geo, 100, 0.0, 90.0, 0.0), 0.0);
        // north-facing vertical plane at noon sees nothing
        assert_eq!(incidence(&geo, 100, 12.0, 90.0, 180.0), 0.0);
    }

    proptest::proptest! {
        /// Solar elevation is within [-90, 90].
        #[test]
        fn elevation_bounded(lat in -65.0..65.0f64, doy in 1u32..=365, hour in 0.0..24.0f64) {
            let e = elevation(&SolarGeometry::at_latitude(lat), doy, hour);
            proptest::prop_assert!((-90.0..=90.0).contains(&e));
        }
    }

    #[test]
    #[should_panic(expected = "latitude out of range")]
    fn bad_latitude_rejected() {
        let _ = SolarGeometry::at_latitude(91.0);
    }
}
