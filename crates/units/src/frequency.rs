//! Frequency and wavelength.

use core::fmt;
use core::ops::{Div, Mul};

use crate::Meters;

/// Speed of light in vacuum, metres per second.
pub const SPEED_OF_LIGHT_M_PER_S: f64 = 299_792_458.0;

/// A frequency in hertz.
///
/// # Examples
///
/// ```
/// use corridor_units::Hertz;
/// let carrier = Hertz::from_ghz(3.7);
/// assert_eq!(carrier.megahertz(), 3700.0);
/// assert!((carrier.wavelength().value() - 0.08102).abs() < 1e-4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd)]
pub struct Hertz(f64);

impl Hertz {
    /// Creates a frequency of `value` hertz.
    #[inline]
    pub const fn new(value: f64) -> Self {
        Hertz(value)
    }

    /// Creates a frequency from megahertz.
    #[inline]
    pub const fn from_mhz(mhz: f64) -> Self {
        Hertz(mhz * 1e6)
    }

    /// Creates a frequency from gigahertz.
    #[inline]
    pub const fn from_ghz(ghz: f64) -> Self {
        Hertz(ghz * 1e9)
    }

    /// Returns the raw value in hertz.
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

    /// Returns the value in kilohertz.
    #[inline]
    pub fn kilohertz(self) -> f64 {
        self.0 / 1e3
    }

    /// Returns the value in megahertz.
    #[inline]
    pub fn megahertz(self) -> f64 {
        self.0 / 1e6
    }

    /// Returns the value in gigahertz.
    #[inline]
    pub fn gigahertz(self) -> f64 {
        self.0 / 1e9
    }

    /// Free-space wavelength `λ = c / f`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds for non-positive frequencies.
    #[inline]
    pub fn wavelength(self) -> Meters {
        debug_assert!(self.0 > 0.0, "wavelength of non-positive frequency");
        Meters::new(SPEED_OF_LIGHT_M_PER_S / self.0)
    }
}

impl fmt::Display for Hertz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{:.3} GHz", self.gigahertz())
        } else if self.0 >= 1e6 {
            write!(f, "{:.3} MHz", self.megahertz())
        } else if self.0 >= 1e3 {
            write!(f, "{:.3} kHz", self.kilohertz())
        } else {
            write!(f, "{:.1} Hz", self.0)
        }
    }
}

impl Mul<f64> for Hertz {
    type Output = Hertz;
    #[inline]
    fn mul(self, rhs: f64) -> Hertz {
        Hertz(self.0 * rhs)
    }
}

impl Div<f64> for Hertz {
    type Output = Hertz;
    #[inline]
    fn div(self, rhs: f64) -> Hertz {
        Hertz(self.0 / rhs)
    }
}

impl Div for Hertz {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Hertz) -> f64 {
        self.0 / rhs.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Hertz::from_ghz(3.5), Hertz::from_mhz(3500.0));
        assert_eq!(Hertz::from_mhz(1.0), Hertz::new(1e6));
    }

    #[test]
    fn wavelength_of_known_bands() {
        // 3.5 GHz (n78): ~8.57 cm
        assert!((Hertz::from_ghz(3.5).wavelength().value() - 0.08565).abs() < 1e-4);
        // 28 GHz mmWave: ~1.07 cm
        assert!((Hertz::from_ghz(28.0).wavelength().value() - 0.010_707).abs() < 1e-5);
    }

    #[test]
    fn accessors() {
        let f = Hertz::from_ghz(3.7);
        assert!((f.gigahertz() - 3.7).abs() < 1e-12);
        assert!((f.megahertz() - 3700.0).abs() < 1e-9);
        assert!((f.kilohertz() - 3_700_000.0).abs() < 1e-6);
    }

    #[test]
    fn display_picks_scale() {
        assert_eq!(Hertz::from_ghz(3.7).to_string(), "3.700 GHz");
        assert_eq!(Hertz::from_mhz(100.0).to_string(), "100.000 MHz");
        assert_eq!(Hertz::new(30_000.0).to_string(), "30.000 kHz");
        assert_eq!(Hertz::new(50.0).to_string(), "50.0 Hz");
    }

    #[test]
    fn scaling() {
        assert_eq!(Hertz::from_mhz(100.0) / 2.0, Hertz::from_mhz(50.0));
        assert_eq!(Hertz::from_mhz(100.0) * 2.0, Hertz::from_mhz(200.0));
        assert!((Hertz::from_ghz(2.0) / Hertz::from_ghz(1.0) - 2.0).abs() < 1e-12);
    }
}
