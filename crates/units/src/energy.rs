//! Electrical power and energy quantities.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use crate::{Hours, Seconds};

/// Electrical power in watts.
///
/// # Examples
///
/// ```
/// use corridor_units::{Hours, Watts};
/// let repeater = Watts::new(4.72);            // sleep-mode draw
/// let energy = repeater * Hours::new(24.0);   // one day
/// assert!((energy.value() - 113.28).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Watts(f64);

impl Watts {
    /// Zero watts.
    pub const ZERO: Watts = Watts(0.0);

    /// Creates a power of `value` watts.
    #[inline]
    pub const fn new(value: f64) -> Self {
        Watts(value)
    }

    /// Returns the raw value in watts.
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
}

impl fmt::Display for Watts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} W", self.0)
    }
}

impl Add for Watts {
    type Output = Watts;
    #[inline]
    fn add(self, rhs: Watts) -> Watts {
        Watts(self.0 + rhs.0)
    }
}

impl AddAssign for Watts {
    #[inline]
    fn add_assign(&mut self, rhs: Watts) {
        self.0 += rhs.0;
    }
}

impl Sub for Watts {
    type Output = Watts;
    #[inline]
    fn sub(self, rhs: Watts) -> Watts {
        Watts(self.0 - rhs.0)
    }
}

impl SubAssign for Watts {
    #[inline]
    fn sub_assign(&mut self, rhs: Watts) {
        self.0 -= rhs.0;
    }
}

impl Neg for Watts {
    type Output = Watts;
    #[inline]
    fn neg(self) -> Watts {
        Watts(-self.0)
    }
}

impl Mul<f64> for Watts {
    type Output = Watts;
    #[inline]
    fn mul(self, rhs: f64) -> Watts {
        Watts(self.0 * rhs)
    }
}

impl Mul<Watts> for f64 {
    type Output = Watts;
    #[inline]
    fn mul(self, rhs: Watts) -> Watts {
        Watts(self * rhs.0)
    }
}

impl Div<f64> for Watts {
    type Output = Watts;
    #[inline]
    fn div(self, rhs: f64) -> Watts {
        Watts(self.0 / rhs)
    }
}

impl Div for Watts {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Watts) -> f64 {
        self.0 / rhs.0
    }
}

impl Mul<Hours> for Watts {
    type Output = WattHours;
    #[inline]
    fn mul(self, rhs: Hours) -> WattHours {
        WattHours(self.0 * rhs.value())
    }
}

impl Mul<Seconds> for Watts {
    type Output = WattHours;
    #[inline]
    fn mul(self, rhs: Seconds) -> WattHours {
        WattHours(self.0 * rhs.hours().value())
    }
}

impl Sum for Watts {
    fn sum<I: Iterator<Item = Watts>>(iter: I) -> Watts {
        iter.fold(Watts::ZERO, Add::add)
    }
}

/// Electrical energy in watt-hours.
///
/// # Examples
///
/// ```
/// use corridor_units::{Hours, WattHours};
/// let battery = WattHours::new(720.0);
/// let avg = battery / Hours::new(24.0);
/// assert!((avg.value() - 30.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct WattHours(f64);

impl WattHours {
    /// Zero energy.
    pub const ZERO: WattHours = WattHours(0.0);

    /// Creates an energy of `value` watt-hours.
    #[inline]
    pub const fn new(value: f64) -> Self {
        WattHours(value)
    }

    /// Returns the raw value in watt-hours.
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

    /// Clamps this energy into `[lo, hi]` (useful for battery state of charge).
    #[inline]
    #[must_use]
    pub fn clamp(self, lo: WattHours, hi: WattHours) -> WattHours {
        WattHours(self.0.clamp(lo.0, hi.0))
    }

    /// The smaller of two energies.
    #[inline]
    #[must_use]
    pub fn min(self, other: WattHours) -> WattHours {
        WattHours(self.0.min(other.0))
    }

    /// The larger of two energies.
    #[inline]
    #[must_use]
    pub fn max(self, other: WattHours) -> WattHours {
        WattHours(self.0.max(other.0))
    }
}

impl fmt::Display for WattHours {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} Wh", self.0)
    }
}

impl Add for WattHours {
    type Output = WattHours;
    #[inline]
    fn add(self, rhs: WattHours) -> WattHours {
        WattHours(self.0 + rhs.0)
    }
}

impl AddAssign for WattHours {
    #[inline]
    fn add_assign(&mut self, rhs: WattHours) {
        self.0 += rhs.0;
    }
}

impl Sub for WattHours {
    type Output = WattHours;
    #[inline]
    fn sub(self, rhs: WattHours) -> WattHours {
        WattHours(self.0 - rhs.0)
    }
}

impl SubAssign for WattHours {
    #[inline]
    fn sub_assign(&mut self, rhs: WattHours) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for WattHours {
    type Output = WattHours;
    #[inline]
    fn mul(self, rhs: f64) -> WattHours {
        WattHours(self.0 * rhs)
    }
}

impl Div<f64> for WattHours {
    type Output = WattHours;
    #[inline]
    fn div(self, rhs: f64) -> WattHours {
        WattHours(self.0 / rhs)
    }
}

impl Div<Hours> for WattHours {
    type Output = Watts;
    #[inline]
    fn div(self, rhs: Hours) -> Watts {
        Watts(self.0 / rhs.value())
    }
}

impl Div for WattHours {
    type Output = f64;
    #[inline]
    fn div(self, rhs: WattHours) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for WattHours {
    fn sum<I: Iterator<Item = WattHours>>(iter: I) -> WattHours {
        iter.fold(WattHours::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_times_time_is_energy() {
        let e = Watts::new(560.0) * Hours::new(2.0);
        assert_eq!(e, WattHours::new(1120.0));
        let e2 = Watts::new(3600.0) * Seconds::new(1.0);
        assert!((e2.value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn energy_div_time_is_power() {
        let p = WattHours::new(124.1) / Hours::new(24.0);
        assert!((p.value() - 5.1708).abs() < 1e-3);
    }

    #[test]
    fn arithmetic_and_sums() {
        let total: Watts = [Watts::new(1.5), Watts::new(2.5)].into_iter().sum();
        assert_eq!(total, Watts::new(4.0));
        let total_e: WattHours = [WattHours::new(1.0), WattHours::new(2.0)].into_iter().sum();
        assert_eq!(total_e, WattHours::new(3.0));
        assert_eq!(Watts::new(10.0) / Watts::new(4.0), 2.5);
        assert_eq!(WattHours::new(10.0) / WattHours::new(4.0), 2.5);
    }

    #[test]
    fn clamp_and_min_max() {
        let lo = WattHours::new(288.0); // 40 % of 720 Wh
        let hi = WattHours::new(720.0);
        assert_eq!(WattHours::new(100.0).clamp(lo, hi), lo);
        assert_eq!(WattHours::new(800.0).clamp(lo, hi), hi);
        assert_eq!(WattHours::new(500.0).clamp(lo, hi), WattHours::new(500.0));
        assert_eq!(lo.min(hi), lo);
        assert_eq!(lo.max(hi), hi);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Watts::new(28.375).to_string(), "28.38 W");
        assert_eq!(WattHours::new(124.1).to_string(), "124.10 Wh");
    }
}
