//! Decibel ratios and absolute decibel-milliwatt powers.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A relative power ratio expressed in decibels.
///
/// `Db` models gains (positive) and losses (positive values passed to
/// subtraction, or explicit negative gains). It is the result of comparing
/// two absolute powers: `Dbm - Dbm = Db`.
///
/// # Examples
///
/// ```
/// use corridor_units::Db;
/// let antenna_gain = Db::new(17.0);
/// let cable_loss = Db::new(2.0);
/// assert_eq!((antenna_gain - cable_loss).value(), 15.0);
/// assert!((Db::from_linear(100.0).value() - 20.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Db(f64);

impl Db {
    /// The 0 dB (unit gain) ratio.
    pub const ZERO: Db = Db(0.0);

    /// Creates a ratio of `value` decibels.
    #[inline]
    pub const fn new(value: f64) -> Self {
        Db(value)
    }

    /// Returns the raw decibel value.
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

    /// Converts a linear power ratio to decibels.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `linear` is negative (a negative power
    /// ratio has no logarithmic representation).
    #[inline]
    pub fn from_linear(linear: f64) -> Self {
        debug_assert!(linear >= 0.0, "negative linear ratio: {linear}");
        Db(10.0 * linear.log10())
    }

    /// Converts this ratio to the linear domain.
    #[inline]
    pub fn linear(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }

    /// Returns the absolute value of the ratio.
    #[inline]
    pub fn abs(self) -> Self {
        Db(self.0.abs())
    }
}

impl fmt::Display for Db {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} dB", self.0)
    }
}

impl Add for Db {
    type Output = Db;
    #[inline]
    fn add(self, rhs: Db) -> Db {
        Db(self.0 + rhs.0)
    }
}

impl AddAssign for Db {
    #[inline]
    fn add_assign(&mut self, rhs: Db) {
        self.0 += rhs.0;
    }
}

impl Sub for Db {
    type Output = Db;
    #[inline]
    fn sub(self, rhs: Db) -> Db {
        Db(self.0 - rhs.0)
    }
}

impl SubAssign for Db {
    #[inline]
    fn sub_assign(&mut self, rhs: Db) {
        self.0 -= rhs.0;
    }
}

impl Neg for Db {
    type Output = Db;
    #[inline]
    fn neg(self) -> Db {
        Db(-self.0)
    }
}

impl Mul<f64> for Db {
    type Output = Db;
    #[inline]
    fn mul(self, rhs: f64) -> Db {
        Db(self.0 * rhs)
    }
}

impl Div<f64> for Db {
    type Output = Db;
    #[inline]
    fn div(self, rhs: f64) -> Db {
        Db(self.0 / rhs)
    }
}

impl Sum for Db {
    fn sum<I: Iterator<Item = Db>>(iter: I) -> Db {
        iter.fold(Db::ZERO, Add::add)
    }
}

/// An absolute power level in decibel-milliwatts.
///
/// `Dbm` is an *absolute* quantity; two `Dbm` values cannot be added
/// (that would be meaningless), but a [`Db`] gain or loss can be applied,
/// and powers can be summed in the linear domain with [`sum_power_dbm`].
///
/// # Examples
///
/// ```
/// use corridor_units::{Db, Dbm};
/// let tx = Dbm::new(40.0);            // 10 W EIRP
/// let rx = tx - Db::new(120.0);        // after 120 dB path loss
/// assert_eq!(rx.value(), -80.0);
/// // two equal powers sum to +3.01 dB:
/// let both = corridor_units::sum_power_dbm([rx, rx]).unwrap();
/// assert!((both.value() - (-76.99)).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Dbm(f64);

impl Dbm {
    /// Creates an absolute power of `value` dBm.
    #[inline]
    pub const fn new(value: f64) -> Self {
        Dbm(value)
    }

    /// Returns the raw dBm value.
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

    /// Converts an absolute power in milliwatts to dBm.
    #[inline]
    pub fn from_milliwatts(mw: f64) -> Self {
        debug_assert!(mw >= 0.0, "negative power: {mw} mW");
        Dbm(10.0 * mw.log10())
    }

    /// Returns this power in milliwatts.
    #[inline]
    pub fn milliwatts(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }
}

impl fmt::Display for Dbm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} dBm", self.0)
    }
}

impl Add<Db> for Dbm {
    type Output = Dbm;
    #[inline]
    fn add(self, rhs: Db) -> Dbm {
        Dbm(self.0 + rhs.value())
    }
}

impl AddAssign<Db> for Dbm {
    #[inline]
    fn add_assign(&mut self, rhs: Db) {
        self.0 += rhs.value();
    }
}

impl Sub<Db> for Dbm {
    type Output = Dbm;
    #[inline]
    fn sub(self, rhs: Db) -> Dbm {
        Dbm(self.0 - rhs.value())
    }
}

impl SubAssign<Db> for Dbm {
    #[inline]
    fn sub_assign(&mut self, rhs: Db) {
        self.0 -= rhs.value();
    }
}

impl Sub for Dbm {
    type Output = Db;
    #[inline]
    fn sub(self, rhs: Dbm) -> Db {
        Db::new(self.0 - rhs.0)
    }
}

/// Sums an iterator of absolute powers in the linear (milliwatt) domain.
///
/// Returns `None` for an empty iterator: the sum of no powers is zero
/// milliwatts, which has no dBm representation.
///
/// # Examples
///
/// ```
/// use corridor_units::{sum_power_dbm, Dbm};
/// let total = sum_power_dbm([Dbm::new(-100.0), Dbm::new(-100.0)]).unwrap();
/// assert!((total.value() - (-96.99)).abs() < 0.01);
/// assert!(sum_power_dbm(std::iter::empty()).is_none());
/// ```
pub fn sum_power_dbm<I: IntoIterator<Item = Dbm>>(powers: I) -> Option<Dbm> {
    let mut any = false;
    let mut mw = 0.0;
    for p in powers {
        any = true;
        mw += p.milliwatts();
    }
    any.then(|| Dbm::from_milliwatts(mw))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_linear_round_trip() {
        for v in [-30.0, -3.0, 0.0, 3.0, 10.0, 33.0] {
            let db = Db::new(v);
            assert!((Db::from_linear(db.linear()).value() - v).abs() < 1e-9);
        }
    }

    #[test]
    fn db_from_linear_known_values() {
        assert!((Db::from_linear(1.0).value()).abs() < 1e-12);
        assert!((Db::from_linear(10.0).value() - 10.0).abs() < 1e-12);
        assert!((Db::from_linear(2.0).value() - 3.0103).abs() < 1e-3);
    }

    #[test]
    fn db_arithmetic() {
        assert_eq!(Db::new(10.0) + Db::new(5.0), Db::new(15.0));
        assert_eq!(Db::new(10.0) - Db::new(5.0), Db::new(5.0));
        assert_eq!(-Db::new(10.0), Db::new(-10.0));
        assert_eq!(Db::new(10.0) * 2.0, Db::new(20.0));
        assert_eq!(Db::new(10.0) / 2.0, Db::new(5.0));
        let total: Db = [Db::new(1.0), Db::new(2.0)].into_iter().sum();
        assert_eq!(total, Db::new(3.0));
    }

    #[test]
    fn dbm_watts_round_trip() {
        let p = Dbm::from_milliwatts(10_000.0);
        assert!((p.value() - 40.0).abs() < 1e-12);
        assert!((p.milliwatts() - 10_000.0).abs() < 1e-9);
        // the paper's HP EIRP: 2500 W = 64 dBm
        let hp = Dbm::from_milliwatts(2_500_000.0);
        assert!((hp.value() - 63.98).abs() < 0.01);
    }

    #[test]
    fn dbm_gain_loss() {
        let p = Dbm::new(-50.0);
        assert_eq!(p + Db::new(20.0), Dbm::new(-30.0));
        assert_eq!(p - Db::new(20.0), Dbm::new(-70.0));
        assert_eq!(Dbm::new(-30.0) - Dbm::new(-50.0), Db::new(20.0));
    }

    #[test]
    fn dbm_sum_of_equal_powers_adds_3db() {
        let p = Dbm::new(-100.0);
        let sum = sum_power_dbm([p, p]).unwrap();
        assert!((sum.value() - (-100.0 + 10.0 * 2f64.log10())).abs() < 1e-9);
    }

    #[test]
    fn sum_power_dbm_matches_manual() {
        let powers = [Dbm::new(-90.0), Dbm::new(-95.0), Dbm::new(-120.0)];
        let manual = Dbm::from_milliwatts(powers.iter().map(|p| p.milliwatts()).sum());
        let summed = sum_power_dbm(powers).unwrap();
        assert!((summed.value() - manual.value()).abs() < 1e-12);
    }

    #[test]
    fn sum_power_dbm_empty_is_none() {
        assert!(sum_power_dbm(std::iter::empty()).is_none());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Db::new(3.014).to_string(), "3.01 dB");
        assert_eq!(Dbm::new(-100.5).to_string(), "-100.50 dBm");
    }

    #[test]
    fn total_cmp_orders_nan_last() {
        use core::cmp::Ordering;
        let nan = Db::new(f64::NAN);
        assert_eq!(nan.total_cmp(&Db::new(f64::INFINITY)), Ordering::Greater);
        assert_eq!(Db::new(-3.0).total_cmp(&Db::new(5.0)), Ordering::Less);
        // min_by with total_cmp never selects NaN unless every element is NaN
        let min = [Db::new(7.0), nan, Db::new(3.0)]
            .into_iter()
            .min_by(|a, b| a.total_cmp(b));
        assert_eq!(min, Some(Db::new(3.0)));
        let mut v = [Dbm::new(f64::NAN), Dbm::new(-90.0), Dbm::new(-120.0)];
        v.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(v[0], Dbm::new(-120.0));
        assert!(v[2].value().is_nan());
    }
}
