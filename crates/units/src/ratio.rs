//! Validated fractional quantities.

use core::fmt;

/// A traffic load expressed as a fraction of the maximum possible load.
///
/// The EARTH power model (paper eq. (3)) treats load χ as a value in
/// `[0, 1]`; this type enforces that invariant at construction.
///
/// # Examples
///
/// ```
/// use corridor_units::LoadFraction;
/// let full = LoadFraction::FULL;
/// assert_eq!(full.value(), 1.0);
/// let half = LoadFraction::new(0.5)?;
/// assert_eq!(half.value(), 0.5);
/// assert!(LoadFraction::new(1.5).is_err());
/// # Ok::<(), corridor_units::LoadFractionError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LoadFraction(f64);

impl LoadFraction {
    /// Zero load (no traffic). Note that in the EARTH model zero load maps
    /// to *sleep* power, not to `P0`.
    pub const ZERO: LoadFraction = LoadFraction(0.0);
    /// Full load (χ = 1).
    pub const FULL: LoadFraction = LoadFraction(1.0);

    /// Creates a load fraction, validating `0.0 <= value <= 1.0`.
    ///
    /// # Errors
    ///
    /// Returns [`LoadFractionError`] if `value` is outside `[0, 1]` or NaN.
    pub fn new(value: f64) -> Result<Self, LoadFractionError> {
        if value.is_nan() || !(0.0..=1.0).contains(&value) {
            Err(LoadFractionError { value })
        } else {
            Ok(LoadFraction(value))
        }
    }

    /// Returns the raw fraction in `[0, 1]`.
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

impl fmt::Display for LoadFraction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} %", self.0 * 100.0)
    }
}

/// Error returned when constructing a [`LoadFraction`] outside `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadFractionError {
    value: f64,
}

impl LoadFractionError {
    /// The offending value.
    pub fn value(&self) -> f64 {
        self.value
    }
}

impl fmt::Display for LoadFractionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "load fraction {} is outside [0, 1]", self.value)
    }
}

impl std::error::Error for LoadFractionError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_range_accepted() {
        for v in [0.0, 0.25, 0.5, 1.0] {
            assert_eq!(LoadFraction::new(v).unwrap().value(), v);
        }
    }

    #[test]
    fn invalid_rejected() {
        assert!(LoadFraction::new(-0.1).is_err());
        assert!(LoadFraction::new(1.1).is_err());
        assert!(LoadFraction::new(f64::NAN).is_err());
        let err = LoadFraction::new(2.0).unwrap_err();
        assert_eq!(err.value(), 2.0);
        assert_eq!(err.to_string(), "load fraction 2 is outside [0, 1]");
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync>() {}
        assert_err::<LoadFractionError>();
    }

    #[test]
    fn display_percent() {
        assert_eq!(LoadFraction::new(0.0285).unwrap().to_string(), "2.9 %");
    }
}
