//! Time durations.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub};

/// Seconds per hour.
pub const SECONDS_PER_HOUR: f64 = 3600.0;
/// Hours per day.
pub const HOURS_PER_DAY: f64 = 24.0;

/// A duration in seconds.
///
/// # Examples
///
/// ```
/// use corridor_units::Seconds;
/// let pass = Seconds::new(16.2);
/// assert!((pass.hours().value() - 0.0045).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd)]
pub struct Seconds(f64);

impl Seconds {
    /// Zero seconds.
    pub const ZERO: Seconds = Seconds(0.0);

    /// Creates a duration of `value` seconds.
    #[inline]
    pub const fn new(value: f64) -> Self {
        Seconds(value)
    }

    /// Returns the raw value in seconds.
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

    /// Converts to hours.
    #[inline]
    pub fn hours(self) -> Hours {
        Hours(self.0 / SECONDS_PER_HOUR)
    }

    /// The larger of two durations.
    #[inline]
    #[must_use]
    pub fn max(self, other: Seconds) -> Seconds {
        Seconds(self.0.max(other.0))
    }

    /// The smaller of two durations.
    #[inline]
    #[must_use]
    pub fn min(self, other: Seconds) -> Seconds {
        Seconds(self.0.min(other.0))
    }
}

impl Add for Seconds {
    type Output = Seconds;
    #[inline]
    fn add(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 + rhs.0)
    }
}

impl AddAssign for Seconds {
    #[inline]
    fn add_assign(&mut self, rhs: Seconds) {
        self.0 += rhs.0;
    }
}

impl Sub for Seconds {
    type Output = Seconds;
    #[inline]
    fn sub(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 - rhs.0)
    }
}

impl Mul<f64> for Seconds {
    type Output = Seconds;
    #[inline]
    fn mul(self, rhs: f64) -> Seconds {
        Seconds(self.0 * rhs)
    }
}

impl Sum for Seconds {
    fn sum<I: Iterator<Item = Seconds>>(iter: I) -> Seconds {
        iter.fold(Seconds::ZERO, Add::add)
    }
}

/// A duration in hours.
///
/// # Examples
///
/// ```
/// use corridor_units::{Hours, Seconds};
/// let night = Hours::new(5.0);
/// assert_eq!(night.seconds(), Seconds::new(18_000.0));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd)]
pub struct Hours(f64);

impl Hours {
    /// Zero hours.
    pub const ZERO: Hours = Hours(0.0);
    /// One full day (24 h).
    pub const DAY: Hours = Hours(HOURS_PER_DAY);

    /// Creates a duration of `value` hours.
    #[inline]
    pub const fn new(value: f64) -> Self {
        Hours(value)
    }

    /// Returns the raw value in hours.
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Converts to seconds.
    #[inline]
    pub fn seconds(self) -> Seconds {
        Seconds(self.0 * SECONDS_PER_HOUR)
    }
}

impl fmt::Display for Hours {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} h", self.0)
    }
}

impl Sub for Hours {
    type Output = Hours;
    #[inline]
    fn sub(self, rhs: Hours) -> Hours {
        Hours(self.0 - rhs.0)
    }
}

impl Div for Hours {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Hours) -> f64 {
        self.0 / rhs.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let h = Hours::new(2.5);
        assert_eq!(h.seconds().hours(), h);
        let s = Seconds::new(5400.0);
        assert_eq!(s.hours().seconds(), s);
    }

    #[test]
    fn day_constant() {
        assert_eq!(Hours::DAY.value(), 24.0);
        assert_eq!(Hours::DAY.seconds(), Seconds::new(86_400.0));
    }

    #[test]
    fn arithmetic() {
        assert_eq!(Hours::DAY - Hours::new(5.0), Hours::new(19.0));
        assert_eq!(Seconds::new(10.0) * 2.0, Seconds::new(20.0));
        assert!((Hours::new(12.0) / Hours::DAY - 0.5).abs() < 1e-12);
        let t: Seconds = [Seconds::new(16.2); 8].into_iter().sum();
        assert!((t.value() - 129.6).abs() < 1e-9);
    }

    #[test]
    fn max_picks_the_longer_time() {
        assert_eq!(Seconds::new(1.0).max(Seconds::new(2.0)), Seconds::new(2.0));
        assert_eq!(Seconds::new(2.0).max(Seconds::new(1.0)), Seconds::new(2.0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Hours::new(5.0).to_string(), "5.000 h");
    }

    #[test]
    fn total_cmp_sorts_nan_after_finite_times() {
        let mut v = [
            Seconds::new(f64::NAN),
            Seconds::new(30.0),
            Seconds::new(-1.0),
        ];
        v.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(v[0], Seconds::new(-1.0));
        assert_eq!(v[1], Seconds::new(30.0));
        assert!(v[2].value().is_nan());
    }
}
