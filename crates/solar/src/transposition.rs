//! Transposition of horizontal irradiance onto a tilted plane.

use crate::clearsky::ClearSky;
use crate::geometry::SunDay;
use crate::SolarGeometry;

/// Converts global horizontal irradiance to plane-of-array irradiance on a
/// tilted module: Erbs beam/diffuse decomposition followed by an
/// isotropic-sky transposition with ground reflection.
///
/// The paper's repeater modules hang *vertically* (tilt 90°) on catenary
/// masts facing south (azimuth 0°) — [`Transposition::vertical_south`].
///
/// # Examples
///
/// ```
/// use corridor_solar::{SolarGeometry, Transposition};
/// let plane = Transposition::vertical_south(SolarGeometry::at_latitude(52.5));
/// // overcast winter noon in Berlin: mostly diffuse, some POA remains
/// let poa = plane.poa_w_m2(355, 12.0, 0.15);
/// assert!(poa > 10.0 && poa < 200.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Transposition {
    geometry: SolarGeometry,
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
    pub fn new(geometry: SolarGeometry, tilt_deg: f64, plane_azimuth_deg: f64) -> Self {
        assert!((0.0..=90.0).contains(&tilt_deg), "tilt out of range");
        Transposition {
            geometry,
            tilt_deg,
            plane_azimuth_deg,
            ground_albedo: 0.2,
        }
    }

    /// The paper's mounting: vertical (90°) south-facing (0°).
    pub fn vertical_south(geometry: SolarGeometry) -> Self {
        Transposition::new(geometry, 90.0, 0.0)
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

    /// Plane-of-array irradiance (W/m²) at day `doy`, local solar time
    /// `hour`, and daily clearness index `kt`.
    pub fn poa_w_m2(&self, doy: u32, hour: f64, kt: f64) -> f64 {
        let day = self.geometry.sun_day(doy);
        let elev = day.elevation_deg(hour);
        let ghi = ClearSky::ghi_at_elevation(elev) * kt.clamp(0.0, 1.0);
        if ghi <= 0.0 {
            return 0.0;
        }
        let rb = self.beam_ratio(&day, hour, elev);
        self.project(ghi, Self::diffuse_fraction(kt), rb, self.view_factors())
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

    /// Daily plane-of-array irradiation (Wh/m²) at clearness `kt`.
    fn daily_poa(plane: &Transposition, doy: u32, kt: f64) -> f64 {
        (0..24)
            .map(|h| plane.poa_w_m2(doy, h as f64 + 0.5, kt))
            .sum()
    }

    fn vertical(lat: f64) -> Transposition {
        Transposition::vertical_south(SolarGeometry::at_latitude(lat))
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
        let plane = vertical(48.2);
        assert_eq!(plane.poa_w_m2(172, 1.0, 0.5), 0.0);
        for h in 0..24 {
            assert!(plane.poa_w_m2(15, h as f64 + 0.5, 0.3) >= 0.0);
        }
    }

    #[test]
    fn vertical_plane_favors_winter_relative_to_horizontal() {
        // the classic reason for vertical mounting at high latitude: the
        // POA/GHI ratio is far higher in winter than in summer
        let plane = vertical(52.5);
        let daily_ghi = |doy: u32| crate::clearsky::tests::daily_ghi(52.5, doy);
        let ratio = |doy: u32| daily_poa(&plane, doy, 0.6) / (daily_ghi(doy) * 0.6);
        assert!(ratio(355) > 1.2, "winter ratio {}", ratio(355));
        assert!(ratio(172) < 0.6, "summer ratio {}", ratio(172));
    }

    #[test]
    fn clearer_days_yield_more_energy() {
        let plane = vertical(45.8);
        let dim = daily_poa(&plane, 100, 0.2);
        let bright = daily_poa(&plane, 100, 0.6);
        assert!(bright > dim);
    }

    #[test]
    fn albedo_adds_ground_reflection() {
        let base = vertical(48.2);
        let snowy = vertical(48.2).with_ground_albedo(0.7);
        assert!(snowy.poa_w_m2(20, 12.0, 0.4) > base.poa_w_m2(20, 12.0, 0.4));
    }

    #[test]
    fn madrid_winter_poa_supports_repeater() {
        // sanity for Table IV: one clear Madrid December day on 1 m² of
        // vertical module produces far more than the repeater's 124 Wh/day
        let plane = vertical(40.4);
        let wh_m2 = daily_poa(&plane, 355, 0.50);
        // a 540 Wp array converts this to roughly wh_m2 × 0.54 × 0.86 Wh,
        // several times the repeater's 124 Wh/day
        assert!(wh_m2 > 1200.0, "got {wh_m2}");
        assert!(wh_m2 * 0.54 * 0.86 > 3.0 * 124.1);
    }

    #[test]
    fn accessors() {
        let plane = vertical(40.4);
        assert_eq!(plane.tilt_deg(), 90.0);
        assert_eq!(plane.plane_azimuth_deg(), 0.0);
        assert_eq!(plane.ground_albedo(), 0.2);
        assert_eq!(plane.with_ground_albedo(0.7).ground_albedo(), 0.7);
    }

    #[test]
    #[should_panic(expected = "tilt out of range")]
    fn bad_tilt_rejected() {
        let _ = Transposition::new(SolarGeometry::at_latitude(0.0), 120.0, 0.0);
    }
}
