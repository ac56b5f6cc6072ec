//! Solar resource, PV, battery and off-grid sizing simulation.
//!
//! The paper sizes the autonomous repeater power systems with PVGIS, an
//! online tool backed by satellite irradiation databases. This crate is the
//! offline substitute: a physically grounded, hourly, year-long simulation
//! built from
//!
//! * [`SolarGeometry`] — declination, hour angle, elevation/azimuth;
//! * the Haurwitz clear-sky model, scaled by per-month
//!   clearness indices from embedded climate normals ([`Location`],
//!   [`climate`]);
//! * [`WeatherGenerator`] — seeded day-to-day clearness variability (the
//!   driver of battery sizing: strings of overcast winter days);
//! * [`Transposition`] — beam/diffuse split (Erbs) and isotropic-sky
//!   projection onto the vertically mounted module (90° tilt, as on a
//!   catenary mast);
//! * [`PvModule`] and [`Battery`] — DC conversion with temperature
//!   derating, storage with a 40 % discharge cutoff;
//! * [`OffGridSystem`] — the year simulation producing [`YearStats`]
//!   (% days with full battery, downtime days — the paper's Table IV
//!   metrics) and [`sizing`] — the search for the smallest standard
//!   PV-module/battery combination with zero downtime.
//!
//! # Examples
//!
//! ```
//! use corridor_solar::{climate, Battery, DailyLoadProfile, OffGridSystem, PvArray};
//! use corridor_units::{WattHours, Watts};
//!
//! let system = OffGridSystem::new(
//!     climate::madrid(),
//!     PvArray::standard_modules(3),            // 3 × 180 Wp vertical
//!     Battery::with_capacity(WattHours::new(720.0)),
//!     DailyLoadProfile::repeater_paper_default(),
//! );
//! let stats = system.simulate_year(2022);
//! assert!(stats.full_battery_day_fraction() > 0.9);
//! assert_eq!(stats.downtime_days(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod battery;
mod clearsky;
pub mod climate;
mod environment;
mod geometry;
mod load;
mod offgrid;
mod pv;
pub mod sizing;
mod transposition;
mod weather;

pub use battery::{Battery, BatteryStep};
pub use climate::Location;
pub use geometry::SolarGeometry;
pub use load::DailyLoadProfile;
pub use offgrid::{OffGridSystem, YearStats};
pub use pv::{PvArray, PvModule};
pub use transposition::Transposition;
pub use weather::WeatherGenerator;
