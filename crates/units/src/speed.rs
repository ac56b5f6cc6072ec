//! Speed quantities.

use core::fmt;
use core::ops::Mul;

use crate::{Meters, Seconds};

/// A speed in metres per second.
///
/// # Examples
///
/// ```
/// use corridor_units::{KilometersPerHour, Seconds};
/// let v = KilometersPerHour::new(200.0).meters_per_second();
/// assert!((v.value() - 55.5556).abs() < 1e-3);
/// let travelled = v * Seconds::new(10.8);
/// assert!((travelled.value() - 600.0).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd)]
pub struct MetersPerSecond(f64);

impl MetersPerSecond {
    /// Returns the raw value in m/s.
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Converts to km/h.
    #[inline]
    pub fn kilometers_per_hour(self) -> KilometersPerHour {
        KilometersPerHour(self.0 * 3.6)
    }
}

impl Mul<Seconds> for MetersPerSecond {
    type Output = Meters;
    #[inline]
    fn mul(self, rhs: Seconds) -> Meters {
        Meters::new(self.0 * rhs.value())
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kmh_ms_round_trip() {
        let v = KilometersPerHour::new(200.0);
        let back = v.meters_per_second().kilometers_per_hour();
        assert!((back.value() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn speed_times_time() {
        let v = KilometersPerHour::new(200.0).meters_per_second();
        let d = v * Seconds::new(54.9);
        assert!((d.value() - 3050.0).abs() < 0.1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(KilometersPerHour::new(200.0).to_string(), "200.0 km/h");
    }
}
