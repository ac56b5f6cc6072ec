//! Scenario API and experiment reproduction for the railway-corridor
//! energy-efficiency study.
//!
//! This is the top-level crate of the reproduction of *"Increasing
//! Cellular Network Energy Efficiency for Railway Corridors"* (Schumacher,
//! Merz, Burg — DATE 2022). It ties the substrates together:
//!
//! * [`ScenarioParams`] — every parameter of the paper's Table III plus
//!   the link budget, equipment catalog and placement policy, with paper
//!   values as defaults;
//! * [`EnergyStrategy`] — the three operating strategies compared in
//!   Fig. 4 (continuously powered repeaters, sleep-mode repeaters,
//!   solar-powered repeaters);
//! * [`energy`] — average energy per hour and kilometre of corridor for
//!   any repeater count/ISD/strategy, and savings versus the conventional
//!   500 m deployment;
//! * [`experiments`] — one function per table/figure of the paper,
//!   returning typed data (the `corridor-bench` binaries print them);
//! * [`report`] — minimal fixed-width table rendering for those binaries;
//! * [`stats`] — streaming Welford statistics (mean/stddev/Student-t
//!   95 % CI) for Monte-Carlo replication sweeps;
//! * [`pareto`] — multi-objective dominance helpers for the deployment
//!   optimizer's frontier search;
//! * [`sink`] — streaming row sinks and format framing, so reports can
//!   be emitted row by row with flat memory;
//! * [`hash`] — streaming SHA-256 for digest-pinned reports, cache
//!   entry checksums and the serve protocol.
//!
//! # Examples
//!
//! ```
//! use corridor_core::{energy, EnergyStrategy, ScenarioParams};
//! use corridor_deploy::IsdTable;
//!
//! let params = ScenarioParams::paper_default();
//! let table = IsdTable::paper();
//! // ten sleep-mode repeaters: the paper's 74 % saving
//! let savings = energy::savings_vs_conventional(
//!     &params, &table, 10, EnergyStrategy::SleepModeRepeaters).unwrap();
//! assert!((savings - 0.74).abs() < 0.01);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod energy;
mod evaluator;
pub mod experiments;
pub mod hash;
pub mod margin;
pub mod pareto;
pub mod report;
mod scenario;
pub mod sink;
pub mod stats;
mod strategy;

pub use evaluator::{AnalyticEvaluator, SegmentEvaluator};
pub use scenario::{ScenarioError, ScenarioParams, ScenarioParamsBuilder};
pub use strategy::EnergyStrategy;

pub use corridor_deploy as deploy;
pub use corridor_fronthaul as fronthaul;
pub use corridor_link as link;
pub use corridor_power as power;
pub use corridor_propagation as propagation;
pub use corridor_solar as solar;
pub use corridor_traffic as traffic;
pub use corridor_units as units;

/// One-stop imports for downstream users.
pub mod prelude {
    pub use crate::energy::{self, SegmentEnergy};
    pub use crate::experiments;
    pub use crate::hash::{sha256_hex, Sha256};
    pub use crate::margin::{MarginLedger, MarginModel};
    pub use crate::sink::{
        DigestSink, RowEmitter, RowFormat, RowSink, SinkError, SinkResult, StringSink, WriteSink,
    };
    pub use crate::stats::{SummaryStats, Welford};
    pub use crate::{
        AnalyticEvaluator, EnergyStrategy, ScenarioError, ScenarioParams, ScenarioParamsBuilder,
        SegmentEvaluator,
    };
    pub use corridor_deploy::{
        CorridorLayout, CoverageCriterion, IsdOptimizer, IsdTable, LinkBudget, PlacementPolicy,
        SegmentInventory,
    };
    pub use corridor_fronthaul::{FronthaulChain, FronthaulHop, MmWaveBand};
    pub use corridor_link::{CoverageProfile, NrCarrier, SignalSource, SnrModel, ThroughputModel};
    pub use corridor_power::{
        catalog, DutyCycle, LoadDependentPower, OperatingState, RepeaterBill,
    };
    pub use corridor_propagation::{CalibratedFriis, FreeSpace, PathLoss};
    pub use corridor_solar::{
        climate, sizing, Battery, DailyLoadProfile, OffGridSystem, PvArray, PvModule,
    };
    pub use corridor_traffic::{
        ActivityTimeline, PoissonTimetable, Timetable, TrackSection, Train, TrainPass,
    };
    pub use corridor_units::prelude::*;
}
