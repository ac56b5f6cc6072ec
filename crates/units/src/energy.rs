//! Electrical power and energy quantities.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use crate::Hours;

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

impl Mul<f64> for Watts {
    type Output = Watts;
    #[inline]
    fn mul(self, rhs: f64) -> Watts {
        Watts(self.0 * rhs)
    }
}

impl Mul<Hours> for Watts {
    type Output = WattHours;
    #[inline]
    fn mul(self, rhs: Hours) -> WattHours {
        WattHours(self.0 * rhs.value())
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

    /// The smaller of two energies.
    #[inline]
    #[must_use]
    pub fn min(self, other: WattHours) -> WattHours {
        WattHours(self.0.min(other.0))
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_times_time_is_energy() {
        let e = Watts::new(560.0) * Hours::new(2.0);
        assert_eq!(e, WattHours::new(1120.0));
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
        assert_eq!(WattHours::new(10.0) / WattHours::new(4.0), 2.5);
    }

    #[test]
    fn min_picks_the_smaller_energy() {
        let lo = WattHours::new(288.0); // 40 % of 720 Wh
        let hi = WattHours::new(720.0);
        assert_eq!(lo.min(hi), lo);
        assert_eq!(hi.min(lo), lo);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Watts::new(28.375).to_string(), "28.38 W");
        assert_eq!(WattHours::new(124.1).to_string(), "124.10 Wh");
    }
}
