//! Unit-safe physical quantities for RF and energy simulation.
//!
//! This crate provides thin, zero-cost newtype wrappers around `f64` for the
//! physical quantities used throughout the railway-corridor energy study:
//! decibel ratios and absolute powers ([`Db`], [`Dbm`]), electrical power and
//! energy ([`Watts`], [`WattHours`]), geometry ([`Meters`], [`Kilometers`]),
//! spectrum ([`Hertz`]), time ([`Seconds`], [`Hours`]) and speed
//! ([`MetersPerSecond`], [`KilometersPerHour`]).
//!
//! Mixing units is a compile error; conversions are explicit. Logarithmic
//! arithmetic follows RF engineering conventions: adding a [`Db`] gain to a
//! [`Dbm`] power yields a [`Dbm`] power, subtracting two [`Dbm`] powers
//! yields a [`Db`] ratio, and combining *powers* is only possible in the
//! linear domain (see [`sum_power_dbm`]).
//!
//! # Examples
//!
//! ```
//! use corridor_units::{Db, Dbm, Hertz, Meters};
//!
//! // 10 W EIRP expressed in dBm, attenuated by a 60 dB path loss:
//! let eirp = Dbm::from_milliwatts(10_000.0);
//! let rx = eirp - Db::new(60.0);
//! assert!((rx.value() - (-20.0)).abs() < 1e-9);
//!
//! // wavelength of a 3.7 GHz carrier
//! let lambda: Meters = Hertz::from_ghz(3.7).wavelength();
//! assert!((lambda.value() - 0.081).abs() < 1e-3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod db;
mod energy;
mod frequency;
mod length;
mod ratio;
mod speed;
mod time;

pub use db::{sum_power_dbm, Db, Dbm};
pub use energy::{WattHours, Watts};
pub use frequency::{Hertz, SPEED_OF_LIGHT_M_PER_S};
pub use length::{Kilometers, Meters};
pub use ratio::{LoadFraction, LoadFractionError};
pub use speed::{KilometersPerHour, MetersPerSecond};
pub use time::{Hours, Seconds, HOURS_PER_DAY, SECONDS_PER_HOUR};

/// Convenience re-exports of every quantity type.
///
/// ```
/// use corridor_units::prelude::*;
/// let p = Dbm::new(-100.0) + Db::new(3.0);
/// assert_eq!(p, Dbm::new(-97.0));
/// ```
pub mod prelude {
    pub use crate::{
        sum_power_dbm, Db, Dbm, Hertz, Hours, Kilometers, KilometersPerHour, LoadFraction, Meters,
        MetersPerSecond, Seconds, WattHours, Watts,
    };
}
