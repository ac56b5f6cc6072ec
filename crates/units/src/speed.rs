//! Speed quantities.

use core::fmt;
use core::ops::{Div, Mul};

use crate::{Meters, Seconds};

/// A speed in metres per second.
///
/// # Examples
///
/// ```
/// use corridor_units::{KilometersPerHour, MetersPerSecond, Seconds};
/// let v: MetersPerSecond = KilometersPerHour::new(200.0).into();
/// assert!((v.value() - 55.5556).abs() < 1e-3);
/// let travelled = v * Seconds::new(10.8);
/// assert!((travelled.value() - 600.0).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd)]
pub struct MetersPerSecond(f64);

impl MetersPerSecond {
    /// Creates a speed of `value` m/s.
    #[inline]
    pub const fn new(value: f64) -> Self {
        MetersPerSecond(value)
    }

    /// Returns the raw value in m/s.
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Total order over the raw value, as [`f64::total_cmp`]: NaN sorts
    /// after `+inf`, so comparison-based searches order NaN last instead
    /// of panicking or silently dropping elements.
    #[inline]
    #[must_use]
    pub fn total_cmp(&self, other: &Self) -> core::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }

    /// Converts to km/h.
    #[inline]
    pub fn kilometers_per_hour(self) -> KilometersPerHour {
        KilometersPerHour(self.0 * 3.6)
    }
}

impl fmt::Display for MetersPerSecond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} m/s", self.0)
    }
}

impl Mul<Seconds> for MetersPerSecond {
    type Output = Meters;
    #[inline]
    fn mul(self, rhs: Seconds) -> Meters {
        Meters::new(self.0 * rhs.value())
    }
}

impl Mul<f64> for MetersPerSecond {
    type Output = MetersPerSecond;
    #[inline]
    fn mul(self, rhs: f64) -> MetersPerSecond {
        MetersPerSecond(self.0 * rhs)
    }
}

impl Div<f64> for MetersPerSecond {
    type Output = MetersPerSecond;
    #[inline]
    fn div(self, rhs: f64) -> MetersPerSecond {
        MetersPerSecond(self.0 / rhs)
    }
}

impl From<KilometersPerHour> for MetersPerSecond {
    #[inline]
    fn from(v: KilometersPerHour) -> MetersPerSecond {
        MetersPerSecond(v.0 / 3.6)
    }
}

/// A speed in kilometres per hour (the natural unit for train timetables).
///
/// # Examples
///
/// ```
/// use corridor_units::KilometersPerHour;
/// let v = KilometersPerHour::new(200.0);
/// assert!((v.meters_per_second().value() - 55.56).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd)]
pub struct KilometersPerHour(f64);

impl KilometersPerHour {
    /// Creates a speed of `value` km/h.
    #[inline]
    pub const fn new(value: f64) -> Self {
        KilometersPerHour(value)
    }

    /// Returns the raw value in km/h.
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Total order over the raw value, as [`f64::total_cmp`]: NaN sorts
    /// after `+inf`, so comparison-based searches order NaN last instead
    /// of panicking or silently dropping elements.
    #[inline]
    #[must_use]
    pub fn total_cmp(&self, other: &Self) -> core::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }

    /// Converts to m/s.
    #[inline]
    pub fn meters_per_second(self) -> MetersPerSecond {
        MetersPerSecond(self.0 / 3.6)
    }
}

impl fmt::Display for KilometersPerHour {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} km/h", self.0)
    }
}

impl From<MetersPerSecond> for KilometersPerHour {
    #[inline]
    fn from(v: MetersPerSecond) -> KilometersPerHour {
        v.kilometers_per_hour()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kmh_ms_round_trip() {
        let v = KilometersPerHour::new(200.0);
        let back: KilometersPerHour = v.meters_per_second().into();
        assert!((back.value() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn speed_times_time() {
        let v = MetersPerSecond::new(55.555_555_6);
        let d = v * Seconds::new(54.9);
        assert!((d.value() - 3050.0).abs() < 0.1);
    }

    #[test]
    fn scaling() {
        assert_eq!(MetersPerSecond::new(10.0) * 2.0, MetersPerSecond::new(20.0));
        assert_eq!(MetersPerSecond::new(10.0) / 2.0, MetersPerSecond::new(5.0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(KilometersPerHour::new(200.0).to_string(), "200.0 km/h");
        assert_eq!(MetersPerSecond::new(55.556).to_string(), "55.56 m/s");
    }
}
