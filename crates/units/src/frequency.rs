//! Frequency and wavelength.

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
/// assert!((carrier.gigahertz() - 3.7).abs() < 1e-12);
/// assert!((carrier.wavelength().value() - 0.08102).abs() < 1e-4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd)]
pub struct Hertz(f64);

impl Hertz {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Hertz::from_ghz(3.5), Hertz::from_mhz(3500.0));
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
    }
}
