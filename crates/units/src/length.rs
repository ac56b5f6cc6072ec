//! Length and distance quantities.

use core::fmt;
use core::ops::{Add, Div, Mul, Sub};

use crate::{MetersPerSecond, Seconds};

/// A length or position along the track, in metres.
///
/// # Examples
///
/// ```
/// use corridor_units::{KilometersPerHour, Meters};
/// let train_length = Meters::new(400.0);
/// let speed = KilometersPerHour::new(200.0).meters_per_second();
/// let pass_time = train_length / speed;
/// assert!((pass_time.value() - 7.2).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd)]
pub struct Meters(f64);

impl Meters {
    /// Zero metres.
    pub const ZERO: Meters = Meters(0.0);

    /// Creates a length of `value` metres.
    #[inline]
    pub const fn new(value: f64) -> Self {
        Meters(value)
    }

    /// Returns the raw value in metres.
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

    /// Converts to kilometres.
    #[inline]
    pub fn kilometers(self) -> Kilometers {
        Kilometers(self.0 / 1e3)
    }

    /// Absolute distance between two positions.
    #[inline]
    pub fn distance_to(self, other: Meters) -> Meters {
        Meters((self.0 - other.0).abs())
    }

    /// Absolute value.
    #[inline]
    #[must_use]
    pub fn abs(self) -> Meters {
        Meters(self.0.abs())
    }

    /// The larger of two lengths.
    #[inline]
    #[must_use]
    pub fn max(self, other: Meters) -> Meters {
        Meters(self.0.max(other.0))
    }

    /// The smaller of two lengths.
    #[inline]
    #[must_use]
    pub fn min(self, other: Meters) -> Meters {
        Meters(self.0.min(other.0))
    }
}

impl fmt::Display for Meters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} m", self.0)
    }
}

impl Add for Meters {
    type Output = Meters;
    #[inline]
    fn add(self, rhs: Meters) -> Meters {
        Meters(self.0 + rhs.0)
    }
}

impl Sub for Meters {
    type Output = Meters;
    #[inline]
    fn sub(self, rhs: Meters) -> Meters {
        Meters(self.0 - rhs.0)
    }
}

impl Mul<f64> for Meters {
    type Output = Meters;
    #[inline]
    fn mul(self, rhs: f64) -> Meters {
        Meters(self.0 * rhs)
    }
}

impl Div<f64> for Meters {
    type Output = Meters;
    #[inline]
    fn div(self, rhs: f64) -> Meters {
        Meters(self.0 / rhs)
    }
}

impl Div for Meters {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Meters) -> f64 {
        self.0 / rhs.0
    }
}

impl Div<MetersPerSecond> for Meters {
    type Output = Seconds;
    #[inline]
    fn div(self, rhs: MetersPerSecond) -> Seconds {
        Seconds::new(self.0 / rhs.value())
    }
}

/// A length in kilometres (used for per-km energy normalization).
///
/// # Examples
///
/// ```
/// use corridor_units::{Kilometers, Meters};
/// let isd = Meters::new(2400.0);
/// assert!((isd.kilometers().value() - 2.4).abs() < 1e-12);
/// assert_eq!(Kilometers::new(1.0).meters(), Meters::new(1000.0));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd)]
pub struct Kilometers(f64);

impl Kilometers {
    /// Creates a length of `value` kilometres.
    #[inline]
    pub const fn new(value: f64) -> Self {
        Kilometers(value)
    }

    /// Returns the raw value in kilometres.
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Converts to metres.
    #[inline]
    pub fn meters(self) -> Meters {
        Meters(self.0 * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let m = Meters::new(2650.0);
        assert_eq!(m.kilometers().meters(), m);
        assert_eq!(Kilometers::new(1.5).meters(), Meters::new(1500.0));
    }

    #[test]
    fn distance_is_symmetric_and_nonnegative() {
        let a = Meters::new(100.0);
        let b = Meters::new(350.0);
        assert_eq!(a.distance_to(b), Meters::new(250.0));
        assert_eq!(b.distance_to(a), Meters::new(250.0));
    }

    #[test]
    fn arithmetic() {
        assert_eq!(Meters::new(1.0) + Meters::new(2.0), Meters::new(3.0));
        assert_eq!(Meters::new(5.0) - Meters::new(2.0), Meters::new(3.0));
        assert_eq!(Meters::new(2.0) * 3.0, Meters::new(6.0));
        assert_eq!(Meters::new(6.0) / 3.0, Meters::new(2.0));
        assert_eq!(Meters::new(6.0) / Meters::new(3.0), 2.0);
    }

    #[test]
    fn distance_over_speed_is_time() {
        let t = Meters::new(900.0) / crate::KilometersPerHour::new(200.0).meters_per_second();
        assert!((t.value() - 16.2).abs() < 0.01);
    }

    #[test]
    fn min_max_abs() {
        assert_eq!(Meters::new(-3.0).abs(), Meters::new(3.0));
        assert_eq!(Meters::new(1.0).max(Meters::new(2.0)), Meters::new(2.0));
        assert_eq!(Meters::new(1.0).min(Meters::new(2.0)), Meters::new(1.0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Meters::new(500.0).to_string(), "500.0 m");
    }
}
