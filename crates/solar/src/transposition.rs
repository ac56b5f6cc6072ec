//! Transposition of horizontal irradiance onto a tilted plane.

use crate::geometry::SunDay;

/// Converts global horizontal irradiance to plane-of-array irradiance on a
/// tilted module: Erbs beam/diffuse decomposition followed by an
/// isotropic-sky transposition with ground reflection.
///
/// The paper's repeater modules hang *vertically* (tilt 90°) on catenary
/// masts facing south (azimuth 0°) — [`Transposition::vertical_south`].
///
/// A plane holds no latitude: the sun's path comes from the site's
/// [`SolarGeometry`](crate::SolarGeometry) wherever a year is projected.
///
/// # Examples
///
/// ```
/// use corridor_solar::Transposition;
/// let plane = Transposition::vertical_south();
/// assert_eq!(plane.tilt_deg(), 90.0);
/// // an overcast sky is almost all diffuse light, which a vertical
/// // plane still sees half of
/// assert!(Transposition::diffuse_fraction(0.15) > 0.95);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transposition {
    tilt_deg: f64,
    plane_azimuth_deg: f64,
    ground_albedo: f64,
}

impl Transposition {
    /// A plane at the given tilt and azimuth (degrees from south, west
    /// positive) with the default 0.2 ground albedo.
    ///
    /// # Panics
    ///
    /// Panics if `tilt_deg` is outside `[0, 90]`.
    pub fn new(tilt_deg: f64, plane_azimuth_deg: f64) -> Self {
        assert!((0.0..=90.0).contains(&tilt_deg), "tilt out of range");
        Transposition {
            tilt_deg,
            plane_azimuth_deg,
            ground_albedo: 0.2,
        }
    }

    /// The paper's mounting: vertical (90°) south-facing (0°).
    pub fn vertical_south() -> Self {
        Transposition::new(90.0, 0.0)
    }

    /// Overrides the ground albedo.
    ///
    /// # Panics
    ///
    /// Panics if `albedo` is outside `[0, 1]`.
    #[must_use]
    // corridor-lint: allow(unused-pub, reason = "environment::tests (sky_table_years_match_the_reference, the sizing-oracle proptest, and mounting_and_albedo_are_part_of_the_key) vary the albedo term that every production year projects")
    pub fn with_ground_albedo(mut self, albedo: f64) -> Self {
        assert!((0.0..=1.0).contains(&albedo), "albedo out of range");
        self.ground_albedo = albedo;
        self
    }

    /// Plane tilt from horizontal, degrees.
    pub fn tilt_deg(&self) -> f64 {
        self.tilt_deg
    }

    /// Plane azimuth from south, degrees.
    pub fn plane_azimuth_deg(&self) -> f64 {
        self.plane_azimuth_deg
    }

    /// Ground albedo used for the reflected irradiance term.
    pub fn ground_albedo(&self) -> f64 {
        self.ground_albedo
    }

    /// Erbs diffuse fraction of global irradiance at clearness `kt`.
    pub fn diffuse_fraction(kt: f64) -> f64 {
        let kt = kt.clamp(0.0, 1.0);
        if kt <= 0.22 {
            1.0 - 0.09 * kt
        } else if kt <= 0.80 {
            0.9511 - 0.1604 * kt + 4.388 * kt * kt - 16.638 * kt.powi(3) + 12.336 * kt.powi(4)
        } else {
            0.165
        }
    }

    /// Ratio of beam irradiance on the plane to beam on the horizontal at
    /// `hour` of `day`, whose solar elevation is `elev` degrees.
    pub(crate) fn beam_ratio(&self, day: &SunDay, hour: f64, elev: f64) -> f64 {
        let cos_zenith = elev.to_radians().sin().max(0.05); // avoid horizon blow-up
        let cos_inc = day.incidence_cosine(hour, elev, self.tilt_deg, self.plane_azimuth_deg);
        cos_inc / cos_zenith
    }

    /// The plane's isotropic sky-view and ground-view factors.
    pub(crate) fn view_factors(&self) -> (f64, f64) {
        let tilt_rad = self.tilt_deg.to_radians();
        ((1.0 + tilt_rad.cos()) / 2.0, (1.0 - tilt_rad.cos()) / 2.0)
    }

    /// Plane-of-array irradiance (W/m²) of an hour with horizontal
    /// irradiance `ghi` > 0, Erbs diffuse fraction `df` and beam ratio
    /// `rb` ([`Transposition::beam_ratio`]).
    pub(crate) fn project(&self, ghi: f64, df: f64, rb: f64, views: (f64, f64)) -> f64 {
        let (sky_view, ground_view) = views;
        let diffuse = ghi * df;
        let beam_horizontal = ghi - diffuse;
        beam_horizontal * rb + diffuse * sky_view + ghi * self.ground_albedo * ground_view
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clearsky::ClearSky;
    use crate::SolarGeometry;
    use proptest::prelude::*;

    /// Plane-of-array irradiance (W/m²) of `plane` under the sun of
    /// `geometry` at day `doy`, local solar time `hour` and daily
    /// clearness `kt`, through the steps a sky-table year takes for each
    /// hour.
    fn poa(plane: &Transposition, geometry: SolarGeometry, doy: u32, hour: f64, kt: f64) -> f64 {
        let day = geometry.sun_day(doy);
        let elev = day.elevation_deg(hour);
        let ghi = ClearSky::ghi_at_elevation(elev) * kt.clamp(0.0, 1.0);
        if ghi <= 0.0 {
            return 0.0;
        }
        let rb = plane.beam_ratio(&day, hour, elev);
        plane.project(
            ghi,
            Transposition::diffuse_fraction(kt),
            rb,
            plane.view_factors(),
        )
    }

    /// Daily plane-of-array irradiation (Wh/m²) at clearness `kt`.
    fn daily_poa(plane: &Transposition, geometry: SolarGeometry, doy: u32, kt: f64) -> f64 {
        (0..24)
            .map(|h| poa(plane, geometry, doy, h as f64 + 0.5, kt))
            .sum()
    }

    fn sun(lat: f64) -> SolarGeometry {
        SolarGeometry::at_latitude(lat)
    }

    #[test]
    fn diffuse_fraction_limits() {
        // overcast: nearly all diffuse; clear: mostly beam
        assert!(Transposition::diffuse_fraction(0.1) > 0.95);
        assert!(Transposition::diffuse_fraction(0.75) < 0.30);
        assert_eq!(Transposition::diffuse_fraction(0.9), 0.165);
        // continuous-ish at the 0.22 boundary
        let low = Transposition::diffuse_fraction(0.219);
        let high = Transposition::diffuse_fraction(0.221);
        assert!((low - high).abs() < 0.02);
    }

    #[test]
    fn zero_at_night_and_nonnegative() {
        let plane = Transposition::vertical_south();
        assert_eq!(poa(&plane, sun(48.2), 172, 1.0, 0.5), 0.0);
        for h in 0..24 {
            assert!(poa(&plane, sun(48.2), 15, h as f64 + 0.5, 0.3) >= 0.0);
        }
    }

    #[test]
    fn vertical_plane_favors_winter_relative_to_horizontal() {
        // the classic reason for vertical mounting at high latitude: the
        // POA/GHI ratio is far higher in winter than in summer
        let plane = Transposition::vertical_south();
        let daily_ghi = |doy: u32| crate::clearsky::tests::daily_ghi(52.5, doy);
        let ratio = |doy: u32| daily_poa(&plane, sun(52.5), doy, 0.6) / (daily_ghi(doy) * 0.6);
        assert!(ratio(355) > 1.2, "winter ratio {}", ratio(355));
        assert!(ratio(172) < 0.6, "summer ratio {}", ratio(172));
    }

    #[test]
    fn clearer_days_yield_more_energy() {
        let plane = Transposition::vertical_south();
        let dim = daily_poa(&plane, sun(45.8), 100, 0.2);
        let bright = daily_poa(&plane, sun(45.8), 100, 0.6);
        assert!(bright > dim);
    }

    #[test]
    fn albedo_adds_ground_reflection() {
        let base = Transposition::vertical_south();
        let snowy = base.with_ground_albedo(0.7);
        assert!(poa(&snowy, sun(48.2), 20, 12.0, 0.4) > poa(&base, sun(48.2), 20, 12.0, 0.4));
    }

    #[test]
    fn madrid_winter_poa_supports_repeater() {
        // sanity for Table IV: one clear Madrid December day on 1 m² of
        // vertical module produces far more than the repeater's 124 Wh/day
        let plane = Transposition::vertical_south();
        let wh_m2 = daily_poa(&plane, sun(40.4), 355, 0.50);
        // a 540 Wp array converts this to roughly wh_m2 × 0.54 × 0.86 Wh,
        // several times the repeater's 124 Wh/day
        assert!(wh_m2 > 1200.0, "got {wh_m2}");
        assert!(wh_m2 * 0.54 * 0.86 > 3.0 * 124.1);
    }

    #[test]
    fn accessors() {
        let plane = Transposition::vertical_south();
        assert_eq!(plane.tilt_deg(), 90.0);
        assert_eq!(plane.plane_azimuth_deg(), 0.0);
        assert_eq!(plane.ground_albedo(), 0.2);
        assert_eq!(plane.with_ground_albedo(0.7).ground_albedo(), 0.7);
    }

    #[test]
    #[should_panic(expected = "tilt out of range")]
    fn bad_tilt_rejected() {
        let _ = Transposition::new(120.0, 0.0);
    }

    proptest! {
        /// POA is non-negative everywhere; on a *horizontal* plane it is
        /// monotone in the clearness index. (On a vertical plane
        /// monotonicity can fail when the sun is behind the plane: clearer
        /// skies move energy from diffuse, which the plane sees, into
        /// beam, which it does not.)
        #[test]
        fn poa_monotone_in_clearness(lat in -65.0..65.0f64, d in 1u32..=365, hour in 6.0..18.0f64,
                                     k1 in 0.05..0.8f64, k2 in 0.05..0.8f64) {
            let vertical = Transposition::vertical_south();
            let horizontal = Transposition::new(0.0, 0.0);
            let (lo, hi) = if k1 <= k2 { (k1, k2) } else { (k2, k1) };
            prop_assert!(poa(&vertical, sun(lat), d, hour, lo) >= 0.0);
            prop_assert!(poa(&vertical, sun(lat), d, hour, hi) >= 0.0);
            // monotonicity holds away from the near-horizon clamp (elev > 5°)
            if sun(lat).sun_day(d).elevation_deg(hour) > 5.0 {
                let p_lo = poa(&horizontal, sun(lat), d, hour, lo);
                let p_hi = poa(&horizontal, sun(lat), d, hour, hi);
                prop_assert!(p_hi >= p_lo - 1e-9);
            }
        }
    }
}
