//! Fractional load quantities.

/// A traffic load expressed as a fraction of the maximum possible load.
///
/// The EARTH power model (paper eq. (3)) treats load χ as a value in
/// `[0, 1]`; the study runs it at full load ([`LoadFraction::FULL`]),
/// and [`LoadFraction::ZERO`] is the other end of the range.
///
/// # Examples
///
/// ```
/// use corridor_units::LoadFraction;
/// let full = LoadFraction::FULL;
/// assert_eq!(full.value(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd)]
pub struct LoadFraction(f64);

impl LoadFraction {
    /// Zero load (no traffic). Note that in the EARTH model zero load maps
    /// to *sleep* power, not to `P0`.
    pub const ZERO: LoadFraction = LoadFraction(0.0);
    /// Full load (χ = 1).
    pub const FULL: LoadFraction = LoadFraction(1.0);

    /// Returns the raw fraction in `[0, 1]`.
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }
}
