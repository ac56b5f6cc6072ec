//! mmWave out-of-band fronthaul for the repeater chain.
//!
//! The paper's repeater architecture (its Fig. 1, based on the authors'
//! mmWave-bridge prototype, refs. \[16\], \[17\]) forwards the sub-6 GHz cell
//! signal from a *donor* node at the high-power mast to the *service*
//! nodes on catenary masts over an upconverted mmWave link — out-of-band,
//! so no licensed sub-6 GHz spectrum is consumed and no donor/service
//! isolation problem arises.
//!
//! This crate provides the substrate the paper assumes but does not
//! model: the mmWave hop budget that determines whether a donor can
//! actually feed service nodes several hundred metres down the track.
//!
//! * [`MmWaveBand`] — the V-band (60 GHz, oxygen absorption) the
//!   prototype's hops use;
//! * [`atmosphere`] — simplified ITU-R style gaseous and rain specific
//!   attenuation;
//! * [`FronthaulHop`] — one donor→service (or service→service daisy
//!   chain) hop with the prototype's radio: EIRP, antenna gain, path and
//!   weather losses → SNR and link margin;
//! * [`FronthaulChain`] — a chain of hops feeding all service nodes of a
//!   segment, with end-to-end margin and availability checks.
//!
//! # Examples
//!
//! ```
//! use corridor_fronthaul::FronthaulHop;
//! use corridor_units::Meters;
//!
//! // the paper's geometry: service nodes every 200 m
//! let hop = FronthaulHop::paper_default(Meters::new(200.0));
//! assert!(hop.clear_sky_margin().value() > 10.0);
//! // heavy rain (25 mm/h) must not break the hop
//! assert!(hop.max_rain_rate_mm_h() > 25.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atmosphere;
mod band;
mod chain;
mod hop;

pub use band::MmWaveBand;
pub use chain::{ChainReport, FronthaulChain};
pub use hop::FronthaulHop;
