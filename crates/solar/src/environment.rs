//! Cached weather environments, in two levels.
//!
//! A sizing search simulates the *same* weather year through many
//! candidate PV/battery configurations, and a sweep repeats that search
//! for every grid cell sharing a location. Everything a simulated year
//! needs besides the candidate hardware — the ambient temperature and
//! 8760 plane-of-array irradiances — depends only on the site, the
//! mounting, the weather parameters and the seed. This module computes
//! it once per key and shares it process-wide, so every candidate year
//! after the first is just battery stepping.
//!
//! The environment is built in two steps, and both are cached:
//!
//! * a [`SkyTable`] per `(latitude, tilt, azimuth)`: the solar geometry
//!   of the year, which no seed changes — each hour's clear-sky GHI and
//!   beam ratio, each day's clear-sky irradiation, and the plane's view
//!   factors. Building it costs one elevation per hour;
//! * an [`EnvironmentYear`] per `(site, mounting, weather, seed)`: the
//!   seeded daily clearness draws and a cheap pass over the sky table
//!   (one clearness index and Erbs fraction per day, a few multiplies
//!   per hour).
//!
//! So a site's seed years share one geometry computation. Every value
//! goes through the same [`SolarGeometry`], `ClearSky` and
//! [`Transposition`] arithmetic, in the same order, as a direct
//! per-hour transposition, so the cached years are bit-identical to it
//! (pinned against a verbatim copy of the direct computation by the
//! tests below).

// Order-safety audit (hash-order): the process-wide sky and year maps
// below are only ever `get`/`insert`-probed by exact key; no iteration,
// so hash order cannot perturb battery stepping or any downstream report.
// corridor-lint: allow(hash-order, reason = "sky and year maps are get/insert by key only, never iterated; order cannot escape")
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::clearsky::ClearSky;
use crate::{Location, OffGridSystem, SolarGeometry, Transposition, WeatherGenerator};

/// One precomputed weather year at a site and mounting: every
/// environmental input of [`OffGridSystem::simulate_year`] that does not
/// depend on the candidate PV array, battery or load.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EnvironmentYear {
    /// Ambient temperature per day of year (°C), January 1st first.
    pub ambient: Vec<f64>,
    /// Plane-of-array irradiance (W/m²) per hour of year, day-major:
    /// `poa[day * 24 + hour]` for `day` in `0..365`, `hour` in `0..24`.
    pub poa: Vec<f64>,
}

/// The seed-independent half of a weather year: the solar geometry of
/// one latitude and plane, hour by hour.
#[derive(Debug)]
struct SkyTable {
    /// Clear-sky GHI (W/m²) per hour of year, day-major like
    /// [`EnvironmentYear::poa`]; zero with the sun below the horizon.
    clear_ghi: Vec<f64>,
    /// Beam ratio per hour of year ([`Transposition::beam_ratio`]).
    rb: Vec<f64>,
    /// Clear-sky irradiation (Wh/m²) per day: the sum of the day's
    /// `clear_ghi`.
    clear_daily: Vec<f64>,
    /// The plane's sky- and ground-view factors.
    views: (f64, f64),
}

impl SkyTable {
    /// The table at `latitude_deg` for `plane`'s tilt and azimuth (its
    /// albedo does not enter).
    fn new(latitude_deg: f64, plane: &Transposition) -> Self {
        let geometry = SolarGeometry::at_latitude(latitude_deg);
        let mut clear_ghi = Vec::with_capacity(365 * 24);
        let mut rb = Vec::with_capacity(365 * 24);
        let mut clear_daily = Vec::with_capacity(365);
        for doy in 1..=365u32 {
            let day = geometry.sun_day(doy);
            for hour in 0..24u32 {
                let hour = f64::from(hour) + 0.5;
                let elev = day.elevation_deg(hour);
                clear_ghi.push(ClearSky::ghi_at_elevation(elev));
                rb.push(plane.beam_ratio(&day, hour, elev));
            }
            clear_daily.push(clear_ghi[clear_ghi.len() - 24..].iter().sum());
        }
        SkyTable {
            clear_ghi,
            rb,
            clear_daily,
            views: plane.view_factors(),
        }
    }

    /// The weather year of `seed` under this sky: `plane` must have the
    /// table's tilt and azimuth, and supplies the ground albedo.
    fn year(
        &self,
        location: &Location,
        plane: &Transposition,
        variability: f64,
        persistence: f64,
        seed: u64,
    ) -> EnvironmentYear {
        let multipliers = WeatherGenerator::new(location.clone(), seed)
            .with_variability(variability)
            .with_persistence(persistence)
            .daily_multipliers_for_year();
        let mut ambient = Vec::with_capacity(365);
        let mut poa = Vec::with_capacity(365 * 24);
        let hours = self
            .clear_ghi
            .chunks_exact(24)
            .zip(self.rb.chunks_exact(24));
        let days = multipliers.iter().zip(&self.clear_daily).zip(hours);
        for (doy, ((&multiplier, &clear_daily), (clear_ghi, rb))) in (1..=365u32).zip(days) {
            let target_daily = location.ghi_for_doy_wh_m2(doy) * multiplier;
            let kt = (target_daily / clear_daily.max(1.0))
                .clamp(OffGridSystem::KT_RANGE.0, OffGridSystem::KT_RANGE.1);
            let clearness = kt.clamp(0.0, 1.0);
            let df = Transposition::diffuse_fraction(kt);
            ambient.push(location.temp_for_doy(doy));
            for (&clear, &rb) in clear_ghi.iter().zip(rb) {
                let ghi = clear * clearness;
                poa.push(if ghi <= 0.0 {
                    0.0
                } else {
                    plane.project(ghi, df, rb, self.views)
                });
            }
        }
        EnvironmentYear { ambient, poa }
    }
}

/// The inputs a sky table depends on, by bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SkyKey([u64; 3]);

impl SkyKey {
    fn new(latitude_deg: f64, plane: &Transposition) -> Self {
        SkyKey([
            latitude_deg.to_bits(),
            plane.tilt_deg().to_bits(),
            plane.plane_azimuth_deg().to_bits(),
        ])
    }
}

/// The full set of inputs the environment arrays depend on, compared by
/// bits so distinct floats never alias (and NaN parameters simply hash
/// to their payload instead of poisoning lookups).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct EnvKey {
    name: &'static str,
    seed: u64,
    bits: [u64; 31],
}

impl EnvKey {
    fn new(
        location: &Location,
        transposition: &Transposition,
        variability: f64,
        persistence: f64,
        seed: u64,
    ) -> Self {
        let mut bits = [0u64; 31];
        let mut at = 0;
        let mut push = |value: f64| {
            bits[at] = value.to_bits();
            at += 1;
        };
        push(location.latitude_deg());
        for &ghi in location.monthly_ghi_kwh_m2_day() {
            push(ghi);
        }
        for &temp in location.monthly_temp_c() {
            push(temp);
        }
        push(location.overcast_persistence());
        push(variability);
        push(persistence);
        push(transposition.tilt_deg());
        push(transposition.plane_azimuth_deg());
        push(transposition.ground_albedo());
        EnvKey {
            name: location.name(),
            seed,
            bits,
        }
    }
}

/// One slot per key, so a long computation never holds the map lock:
/// lookups of *other* keys proceed while the first caller of this key
/// fills the `OnceLock`.
type Slot<T> = Arc<OnceLock<Arc<T>>>;

/// The process-wide sky tables and seed years, behind one lock.
#[derive(Default)]
struct Cache {
    skies: HashMap<SkyKey, Slot<SkyTable>>,
    years: HashMap<EnvKey, Slot<EnvironmentYear>>,
}

fn cache() -> &'static Mutex<Cache> {
    // corridor-lint: allow(global-state, reason = "the ledger times size_for_zero_downtime cold on first touch; moving this cache into an explicit context is the open part of ROADMAP item 4")
    static CACHE: OnceLock<Mutex<Cache>> = OnceLock::new();
    CACHE.get_or_init(Mutex::default)
}

/// Returns the shared sky table at `location`'s latitude for `plane`,
/// computing it on first use.
fn cached_sky(location: &Location, plane: &Transposition) -> Arc<SkyTable> {
    let key = SkyKey::new(location.latitude_deg(), plane);
    let slot = {
        let mut cache = cache().lock().unwrap_or_else(PoisonError::into_inner);
        cache.skies.entry(key).or_default().clone()
    };
    slot.get_or_init(|| Arc::new(SkyTable::new(location.latitude_deg(), plane)))
        .clone()
}

/// Returns the shared environment year for the given inputs, computing
/// it on first use from the site's shared sky table.
pub(crate) fn cached_year(
    location: &Location,
    transposition: &Transposition,
    variability: f64,
    persistence: f64,
    seed: u64,
) -> Arc<EnvironmentYear> {
    let key = EnvKey::new(location, transposition, variability, persistence, seed);
    let slot = {
        let mut cache = cache().lock().unwrap_or_else(PoisonError::into_inner);
        cache.years.entry(key).or_default().clone()
    };
    slot.get_or_init(|| {
        Arc::new(cached_sky(location, transposition).year(
            location,
            transposition,
            variability,
            persistence,
            seed,
        ))
    })
    .clone()
}

/// The environment year as it was computed before the sky table, kept
/// as the oracle: `compute_year` verbatim, over verbatim copies of the
/// per-hour geometry, clear-sky and transposition arithmetic it ran
/// through (one `ClearSky` and about five elevations per hour, per seed).
#[cfg(test)]
mod reference {
    use super::EnvironmentYear;
    use crate::{Location, OffGridSystem, SolarGeometry, Transposition, WeatherGenerator};

    fn elevation_deg(latitude_deg: f64, doy: u32, hour: f64) -> f64 {
        let lat = latitude_deg.to_radians();
        let dec = SolarGeometry::declination_deg(doy).to_radians();
        let ha = SolarGeometry::hour_angle_deg(hour).to_radians();
        (lat.sin() * dec.sin() + lat.cos() * dec.cos() * ha.cos())
            .asin()
            .to_degrees()
    }

    fn azimuth_deg(latitude_deg: f64, doy: u32, hour: f64) -> f64 {
        let lat = latitude_deg.to_radians();
        let dec = SolarGeometry::declination_deg(doy).to_radians();
        let ha = SolarGeometry::hour_angle_deg(hour).to_radians();
        let elev = elevation_deg(latitude_deg, doy, hour).to_radians();
        let cos_az = (elev.sin() * lat.sin() - dec.sin()) / (elev.cos() * lat.cos());
        let az = cos_az.clamp(-1.0, 1.0).acos().to_degrees();
        if ha < 0.0 {
            -az
        } else {
            az
        }
    }

    fn incidence_cosine(
        latitude_deg: f64,
        doy: u32,
        hour: f64,
        tilt_deg: f64,
        plane_azimuth_deg: f64,
    ) -> f64 {
        let elev = elevation_deg(latitude_deg, doy, hour).to_radians();
        if elev <= 0.0 {
            return 0.0;
        }
        let sun_az = azimuth_deg(latitude_deg, doy, hour).to_radians();
        let tilt = tilt_deg.to_radians();
        let plane_az = plane_azimuth_deg.to_radians();
        let cos_inc = elev.sin() * tilt.cos() + elev.cos() * tilt.sin() * (sun_az - plane_az).cos();
        cos_inc.max(0.0)
    }

    fn clear_ghi_w_m2(latitude_deg: f64, doy: u32, hour: f64) -> f64 {
        let elev = elevation_deg(latitude_deg, doy, hour);
        if elev <= 0.0 {
            return 0.0;
        }
        let cos_zenith = elev.to_radians().sin();
        1098.0 * cos_zenith * (-0.057 / cos_zenith).exp()
    }

    fn clear_daily_ghi_wh_m2(latitude_deg: f64, doy: u32) -> f64 {
        (0..24)
            .map(|h| clear_ghi_w_m2(latitude_deg, doy, h as f64 + 0.5))
            .sum()
    }

    /// Plane-of-array irradiance (W/m²) of `plane` at `latitude_deg`,
    /// day `doy`, local solar time `hour` and daily clearness `kt`.
    fn poa_w_m2(latitude_deg: f64, plane: &Transposition, doy: u32, hour: f64, kt: f64) -> f64 {
        let ghi = clear_ghi_w_m2(latitude_deg, doy, hour) * kt.clamp(0.0, 1.0);
        if ghi <= 0.0 {
            return 0.0;
        }
        let df = Transposition::diffuse_fraction(kt);
        let diffuse = ghi * df;
        let beam_horizontal = ghi - diffuse;

        let elev = elevation_deg(latitude_deg, doy, hour);
        let cos_zenith = elev.to_radians().sin().max(0.05); // avoid horizon blow-up
        let cos_inc = incidence_cosine(
            latitude_deg,
            doy,
            hour,
            plane.tilt_deg(),
            plane.plane_azimuth_deg(),
        );
        let rb = cos_inc / cos_zenith;

        let tilt_rad = plane.tilt_deg().to_radians();
        let sky_view = (1.0 + tilt_rad.cos()) / 2.0;
        let ground_view = (1.0 - tilt_rad.cos()) / 2.0;

        beam_horizontal * rb + diffuse * sky_view + ghi * plane.ground_albedo() * ground_view
    }

    pub(super) fn compute_year(
        location: &Location,
        transposition: &Transposition,
        variability: f64,
        persistence: f64,
        seed: u64,
    ) -> EnvironmentYear {
        let latitude = location.latitude_deg();
        let mut weather = WeatherGenerator::new(location.clone(), seed)
            .with_variability(variability)
            .with_persistence(persistence);
        let multipliers = weather.daily_multipliers_for_year();

        let mut ambient = vec![0.0; 365];
        let mut poa = vec![0.0; 365 * 24];
        for doy in 1..=365u32 {
            let day = (doy - 1) as usize;
            let clear_daily = clear_daily_ghi_wh_m2(latitude, doy).max(1.0);
            let target_daily = location.ghi_for_doy_wh_m2(doy) * multipliers[day];
            let kt = (target_daily / clear_daily)
                .clamp(OffGridSystem::KT_RANGE.0, OffGridSystem::KT_RANGE.1);
            ambient[day] = location.temp_for_doy(doy);
            for hour in 0..24usize {
                poa[day * 24 + hour] =
                    poa_w_m2(latitude, transposition, doy, hour as f64 + 0.5, kt);
            }
        }
        EnvironmentYear { ambient, poa }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::climate;
    use proptest::prelude::*;

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Asserts that the sky-table year of the given inputs is
    /// bit-identical to the reference computation.
    fn assert_matches_reference(
        location: &Location,
        plane: &Transposition,
        variability: f64,
        persistence: f64,
        seed: u64,
    ) {
        let sky = SkyTable::new(location.latitude_deg(), plane);
        let year = sky.year(location, plane, variability, persistence, seed);
        let oracle = reference::compute_year(location, plane, variability, persistence, seed);
        assert_eq!(bits(&year.ambient), bits(&oracle.ambient));
        assert_eq!(bits(&year.poa), bits(&oracle.poa));
    }

    /// A site at any latitude, with a paper region's normals scaled so
    /// the clearness clamp is hit at both ends.
    fn site() -> impl Strategy<Value = Location> {
        (-89.0..=89.0f64, 0usize..4, 0.2..3.0f64).prop_map(|(latitude, region, scale)| {
            let base = climate::paper_regions()[region].clone();
            let mut ghi = *base.monthly_ghi_kwh_m2_day();
            ghi.iter_mut().for_each(|g| *g *= scale);
            Location::new(base.name(), latitude, ghi, *base.monthly_temp_c())
        })
    }

    proptest! {
        /// Any site, mounting, albedo, weather and seed: the sky-table
        /// year is bit-identical to the per-seed computation.
        #[test]
        fn sky_table_years_match_the_reference(
            location in site(),
            mounting in (0.0..=90.0f64, -180.0..=180.0f64, 0.0..=1.0f64),
            weather in (prop_oneof![Just(0.0), 0.0..3.0f64], 0.0..1.0f64, 0u64..=u64::MAX),
        ) {
            let (tilt, azimuth, albedo) = mounting;
            let (variability, persistence, seed) = weather;
            let plane = Transposition::new(tilt, azimuth).with_ground_albedo(albedo);
            assert_matches_reference(&location, &plane, variability, persistence, seed);
        }
    }

    #[test]
    fn polar_days_and_nights_match_the_reference() {
        for latitude in [-89.0, -66.6, 0.0, 66.6, 89.0] {
            let base = climate::berlin();
            let location = Location::new(
                base.name(),
                latitude,
                *base.monthly_ghi_kwh_m2_day(),
                *base.monthly_temp_c(),
            );
            let plane = Transposition::vertical_south();
            assert_matches_reference(&location, &plane, 0.95, 0.84, 7);
            assert_matches_reference(&location, &plane, 0.0, 0.0, 7);
        }
    }

    #[test]
    fn cached_year_is_bit_identical_to_the_reference() {
        let location = climate::berlin();
        let plane = Transposition::vertical_south();
        let cached = cached_year(&location, &plane, 0.95, 0.84, 7);
        let fresh = reference::compute_year(&location, &plane, 0.95, 0.84, 7);
        assert_eq!(cached.ambient.len(), 365);
        assert_eq!(cached.poa.len(), 365 * 24);
        assert_eq!(bits(&cached.ambient), bits(&fresh.ambient));
        assert_eq!(bits(&cached.poa), bits(&fresh.poa));
    }

    #[test]
    fn seeds_at_one_site_share_one_sky_table() {
        let location = climate::vienna();
        let plane = Transposition::vertical_south().with_ground_albedo(0.35);
        let sky = cached_sky(&location, &plane);
        let a = cached_year(&location, &plane, 0.95, 0.84, 46);
        let b = cached_year(&location, &plane, 0.95, 0.84, 59);
        assert!(Arc::ptr_eq(&sky, &cached_sky(&location, &plane)));
        // albedo is a year input, not a sky input
        let snowy = Transposition::vertical_south().with_ground_albedo(0.8);
        assert!(Arc::ptr_eq(&sky, &cached_sky(&location, &snowy)));
        assert_eq!(*a, sky.year(&location, &plane, 0.95, 0.84, 46));
        assert_eq!(*b, sky.year(&location, &plane, 0.95, 0.84, 59));
        assert_ne!(a.poa, b.poa);
        assert_eq!(a.ambient, b.ambient);
    }

    #[test]
    fn same_inputs_share_one_computation() {
        let location = climate::madrid();
        let plane = Transposition::vertical_south();
        let first = cached_year(&location, &plane, 0.95, 0.60, 46);
        let second = cached_year(&location, &plane, 0.95, 0.60, 46);
        assert!(Arc::ptr_eq(&first, &second));
    }

    #[test]
    fn distinct_seeds_and_sites_get_distinct_environments() {
        let madrid = climate::madrid();
        let berlin = climate::berlin();
        let plane = Transposition::vertical_south();
        let a = cached_year(&madrid, &plane, 0.95, 0.60, 7);
        let b = cached_year(&madrid, &plane, 0.95, 0.60, 8);
        let c = cached_year(&berlin, &plane, 0.95, 0.84, 7);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.poa, b.poa);
        assert_ne!(a.poa, c.poa);
        assert!(!Arc::ptr_eq(
            &cached_sky(&madrid, &plane),
            &cached_sky(&berlin, &plane)
        ));
    }

    #[test]
    fn mounting_and_albedo_are_part_of_the_key() {
        let location = climate::lyon();
        let vertical_plane = Transposition::vertical_south();
        let tilted = Transposition::new(35.0, 0.0);
        let snowy = Transposition::vertical_south().with_ground_albedo(0.7);
        let a = cached_year(&location, &vertical_plane, 0.95, 0.65, 7);
        let b = cached_year(&location, &tilted, 0.95, 0.65, 7);
        let c = cached_year(&location, &snowy, 0.95, 0.65, 7);
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        // identical weather, different projection
        assert_ne!(a.poa, b.poa);
        assert_eq!(a.ambient, b.ambient);
        assert_ne!(a.poa, c.poa);
        assert!(!Arc::ptr_eq(
            &cached_sky(&location, &vertical_plane),
            &cached_sky(&location, &tilted)
        ));
    }
}
