//! 5G NR link budget for linear railway cells.
//!
//! This crate implements the paper's signal model (Section III-A):
//!
//! * [`NrCarrier`] — carrier bandwidth and subcarrier accounting, converting
//!   total EIRP to per-subcarrier reference signal transmit power (RSTP);
//! * [`SignalSource`] — a transmitter (high-power RRH or low-power repeater)
//!   at a track position with its own calibrated path-loss model, optionally
//!   re-emitting amplified noise (repeaters);
//! * [`SnrModel`] — paper eq. (2): combines all sources and noise
//!   contributions into the SNR at any track position;
//! * [`ThroughputModel`] — the calibrated Shannon bound of 3GPP TR 36.942
//!   (α = 0.6, ThrMAX = 5.84 bps/Hz for 5G NR);
//! * [`CoverageProfile`] — a sampled SNR/throughput profile along the track
//!   with summary statistics.
//!
//! # Examples
//!
//! ```
//! use corridor_link::{NrCarrier, SignalSource, SnrModel, ThroughputModel};
//! use corridor_propagation::CalibratedFriis;
//! use corridor_units::{Db, Dbm, Hertz, Meters};
//!
//! let carrier = NrCarrier::paper_100mhz();
//! let hp_model = CalibratedFriis::new(Hertz::from_ghz(3.7), Db::new(33.0));
//! let rstp = carrier.per_subcarrier(Dbm::from_milliwatts(2_500_000.0));
//!
//! let model = SnrModel::new(carrier)
//!     .with_source(SignalSource::new(Meters::ZERO, rstp, hp_model))
//!     .with_source(SignalSource::new(Meters::new(500.0), rstp, hp_model));
//!
//! // eq. (2) at mid-cell: the total signal over the total noise
//! let mid = Meters::new(250.0);
//! let snr = model.total_signal_at(mid).unwrap() - model.total_noise_at(mid);
//! let thr = ThroughputModel::nr_default();
//! assert!(thr.spectral_efficiency(snr) > 5.8); // peak rate
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod carrier;
mod profile;
mod snr;
mod source;
mod throughput;

pub use carrier::NrCarrier;
pub use profile::{CoverageProfile, ProfileSample};
pub use snr::SnrModel;
pub use source::SignalSource;
pub use throughput::ThroughputModel;
