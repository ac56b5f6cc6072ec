//! Path-loss and penetration-loss models for railway corridor links.
//!
//! The central abstraction is the [`PathLoss`] trait: a model that maps a
//! transmitter–receiver distance to an attenuation in dB. The paper's
//! calibrated Friis model (eq. (1)) is provided by [`CalibratedFriis`];
//! [`FreeSpace`] is the uncalibrated Friis loss the mmWave fronthaul hops
//! use.
//!
//! Train-wagon penetration loss (the motivation for the corridor's short
//! inter-site distances) is modelled by [`WindowTreatment`] /
//! [`PenetrationLoss`].
//!
//! # Examples
//!
//! ```
//! use corridor_propagation::{CalibratedFriis, PathLoss};
//! use corridor_units::{Db, Hertz, Meters};
//!
//! // The paper's high-power port-to-port model: Friis + 33 dB calibration.
//! let model = CalibratedFriis::new(Hertz::from_ghz(3.7), Db::new(33.0));
//! let loss = model.attenuation(Meters::new(250.0));
//! assert!(loss.value() > 120.0 && loss.value() < 130.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod friis;
mod pathloss;
mod penetration;

pub use friis::{CalibratedFriis, FreeSpace};
pub use pathloss::PathLoss;
pub use penetration::{PenetrationLoss, WindowTreatment};
