//! Energy-efficient 5G railway corridor planning.
//!
//! A from-scratch Rust reproduction of *"Increasing Cellular Network
//! Energy Efficiency for Railway Corridors"* (A. Schumacher, R. Merz,
//! A. Burg — DATE 2022, DOI 10.23919/DATE54114.2022.9774757).
//!
//! Modern trains act as Faraday cages; dedicated *cellular corridors* —
//! linear cells strung along the tracks — restore capacity, but burn
//! kilowatts per kilometre. The paper (and this library) shows how
//! low-power out-of-band repeater nodes let the expensive high-power
//! radio heads be thinned out by a factor of up to five while keeping
//! peak 5G throughput inside the train, how barrier-triggered sleep modes
//! shrink the repeaters' draw to single-digit watts, and how that makes
//! them fully solar-autonomous — cutting corridor energy by 50–79 %.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! | module | contents |
//! |---|---|
//! | [`units`] | unit-safe quantities (dB, dBm, W, Wh, m, Hz, s) |
//! | [`propagation`] | calibrated Friis, free-space, log-distance, two-ray, penetration loss |
//! | [`link`] | NR carrier, RSRP/SNR (paper eq. 2), TR 36.942 throughput, coverage profiles |
//! | [`power`] | EARTH power model (eq. 3), Table I/II equipment, duty cycles |
//! | [`traffic`] | timetables, train kinematics, section occupancy, wake control |
//! | [`fronthaul`] | mmWave donor→node hop budgets; the `fronthaul` golden pins that every paper segment's chain closes |
//! | [`deploy`] | corridor layout, repeater placement, max-ISD optimization |
//! | [`solar`] | solar geometry, synthetic weather, PV, battery, off-grid sizing |
//! | [`experiments`] | one function per table/figure of the paper |
//!
//! # Quickstart
//!
//! ```
//! use railway_corridor::prelude::*;
//!
//! // How far apart can masts stand with 8 repeaters in between?
//! let optimizer = IsdOptimizer::new(LinkBudget::paper_default());
//! let isd = optimizer.max_isd(8).expect("solvable");
//! assert!(isd.value() >= 2400.0);
//!
//! // And how much energy does that save over masts every 500 m?
//! let params = ScenarioParams::paper_default();
//! let savings = energy::savings_vs_conventional(
//!     &params, &IsdTable::paper(), 8, EnergyStrategy::SleepModeRepeaters).unwrap();
//! assert!(savings > 0.70);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use corridor_core::*;

/// The Rust snippets of `README.md`, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

/// The Rust snippets of `docs/backends.md`.
#[cfg(doctest)]
#[doc = include_str!("../docs/backends.md")]
struct BackendsDoctests;

/// The Rust snippets of `docs/network.md`.
#[cfg(doctest)]
#[doc = include_str!("../docs/network.md")]
struct NetworkDoctests;

/// The Rust snippets of `docs/streaming.md`.
#[cfg(doctest)]
#[doc = include_str!("../docs/streaming.md")]
struct StreamingDoctests;

/// The Rust snippets of `docs/lints.md`.
#[cfg(doctest)]
#[doc = include_str!("../docs/lints.md")]
struct LintsDoctests;
