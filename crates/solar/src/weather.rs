//! Synthetic day-to-day weather variability.

use rand::Rng;
use rand::SeedableRng;

use crate::Location;

/// A seeded generator of daily irradiation multipliers around a location's
/// monthly normals.
///
/// Battery sizing is driven not by *average* winter irradiation but by
/// *strings of overcast days*; a deterministic monthly mean would hide
/// them. This generator draws, for each day, a multiplier on the monthly
/// GHI normal with bounded relative variability and first-order
/// persistence (overcast days cluster, as real synoptic weather does).
///
/// With `variability = 0` the generator degenerates to the deterministic
/// monthly normals (every multiplier is 1).
///
/// # Examples
///
/// ```
/// use corridor_solar::{climate, WeatherGenerator};
/// let mut weather = WeatherGenerator::new(climate::berlin(), 42);
/// let year = weather.daily_multipliers_for_year();
/// assert_eq!(year.len(), 365);
/// assert!(year.iter().all(|&w| (0.1..=2.2).contains(&w)));
/// ```
#[derive(Debug, Clone)]
pub struct WeatherGenerator {
    variability: f64,
    persistence: f64,
    rng: rand::rngs::StdRng,
}

impl WeatherGenerator {
    /// Default relative day-to-day variability (fraction of the monthly
    /// normal).
    pub const DEFAULT_VARIABILITY: f64 = 0.95;
    /// Multiplier floor: thick overcast still transmits some diffuse light.
    pub const MIN_MULTIPLIER: f64 = 0.10;
    /// Multiplier ceiling: an exceptionally clear day relative to the mean.
    pub const MAX_MULTIPLIER: f64 = 2.2;

    /// A generator for `location` with the default variability, seeded for
    /// reproducibility.
    pub fn new(location: Location, seed: u64) -> Self {
        let persistence = location.overcast_persistence();
        WeatherGenerator {
            variability: Self::DEFAULT_VARIABILITY,
            persistence,
            rng: rand::rngs::StdRng::seed_from_u64(seed),
        }
    }

    /// Overrides the relative variability (0 = deterministic normals).
    ///
    /// # Panics
    ///
    /// Panics if `variability` is negative.
    #[must_use]
    pub fn with_variability(mut self, variability: f64) -> Self {
        Self::check_variability(variability);
        self.variability = variability;
        self
    }

    /// Overrides the persistence coefficient in `[0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `persistence` is outside `[0, 1)`.
    #[must_use]
    pub fn with_persistence(mut self, persistence: f64) -> Self {
        Self::check_persistence(persistence);
        self.persistence = persistence;
        self
    }

    /// The variability contract of [`WeatherGenerator::with_variability`]:
    /// non-negative (so not NaN).
    pub(crate) fn check_variability(variability: f64) {
        assert!(variability >= 0.0, "variability must be non-negative");
    }

    /// The persistence contract of [`WeatherGenerator::with_persistence`]:
    /// in `[0, 1)` (so not NaN).
    pub(crate) fn check_persistence(persistence: f64) {
        assert!(
            (0.0..1.0).contains(&persistence),
            "persistence must be in [0, 1)"
        );
    }

    /// Draws a full year (365 days) of daily GHI multipliers; multiply by
    /// [`Location::ghi_for_doy_wh_m2`] to get the day's irradiation.
    pub fn daily_multipliers_for_year(&mut self) -> Vec<f64> {
        if self.variability == 0.0 {
            return vec![1.0; 365];
        }
        let mut anomaly: f64 = 0.0;
        (1..=365u32)
            .map(|_| {
                // AR(1) anomaly with unit-variance-preserving innovation
                let shock: f64 = self.rng.gen_range(-1.0..1.0);
                anomaly = self.persistence * anomaly
                    + (1.0 - self.persistence * self.persistence).sqrt() * shock;
                (1.0 + self.variability * anomaly).clamp(Self::MIN_MULTIPLIER, Self::MAX_MULTIPLIER)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::climate;

    #[test]
    fn deterministic_when_variability_zero() {
        let mut w = WeatherGenerator::new(climate::madrid(), 1).with_variability(0.0);
        let year = w.daily_multipliers_for_year();
        assert!(year.iter().all(|&m| m == 1.0));
    }

    #[test]
    fn reproducible_with_seed() {
        let a = WeatherGenerator::new(climate::berlin(), 7).daily_multipliers_for_year();
        let b = WeatherGenerator::new(climate::berlin(), 7).daily_multipliers_for_year();
        assert_eq!(a, b);
        let c = WeatherGenerator::new(climate::berlin(), 8).daily_multipliers_for_year();
        assert_ne!(a, c);
    }

    #[test]
    fn yearly_mean_close_to_one() {
        let mut w = WeatherGenerator::new(climate::lyon(), 3);
        let year = w.daily_multipliers_for_year();
        let mean: f64 = year.iter().sum::<f64>() / 365.0;
        assert!((mean - 1.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn bounds_respected() {
        let mut w = WeatherGenerator::new(climate::berlin(), 5).with_variability(3.0);
        for m in w.daily_multipliers_for_year() {
            assert!(
                (WeatherGenerator::MIN_MULTIPLIER..=WeatherGenerator::MAX_MULTIPLIER).contains(&m)
            );
        }
    }

    #[test]
    fn persistence_produces_runs() {
        // with high persistence, consecutive-day correlation is positive
        let mut w = WeatherGenerator::new(climate::berlin(), 11).with_persistence(0.9);
        let year = w.daily_multipliers_for_year();
        let mean: f64 = year.iter().sum::<f64>() / 365.0;
        let num: f64 = year.windows(2).map(|p| (p[0] - mean) * (p[1] - mean)).sum();
        let den: f64 = year.iter().map(|m| (m - mean) * (m - mean)).sum();
        assert!(num / den > 0.3, "lag-1 autocorrelation {}", num / den);
    }

    #[test]
    #[should_panic(expected = "persistence")]
    fn invalid_persistence_rejected() {
        let _ = WeatherGenerator::new(climate::madrid(), 0).with_persistence(1.0);
    }
}
