//! Batch scenario-sweep engine for the railway-corridor energy study.
//!
//! The paper evaluates one corridor (its Table III defaults); this crate
//! opens the parameter space. A [`ScenarioGrid`] takes Cartesian sweeps
//! over
//!
//! * timetable density (trains per hour),
//! * train speed and length,
//! * low-power repeater spacing,
//! * the conventional reference ISD,
//! * HP/LP equipment pairings ([`PowerProfile`]),
//! * and solar climate ([`corridor_solar::Location`]),
//!
//! expands them into deterministic per-cell
//! [`ScenarioParams`](corridor_core::ScenarioParams) via the validating
//! builder, and a [`SweepEngine`] evaluates every [`ScenarioCell`] —
//! energy split per strategy, savings versus the cell's conventional
//! baseline, and off-grid PV sizing — on one or more worker threads,
//! through either energy backend ([`Evaluator::Analytic`]
//! closed-form math or [`Evaluator::EventDriven`] discrete-event
//! simulation). Results land in a typed [`SweepReport`] whose CSV/JSON
//! renderings are byte-identical no matter how many workers produced
//! them.
//!
//! On top of the sweep sits the deployment optimizer: a [`SearchSpace`]
//! (repeater counts × ISD resolution × wake policies, optional PV
//! sizing) searched per cell by the [`DeploymentOptimizer`] through a
//! shared, memoized coverage cache, yielding a per-cell **Pareto
//! frontier** over energy/day, nodes/km and coverage margin
//! ([`OptimizeReport`]).
//!
//! The optimizer generalizes from one corridor to a rail **network**: a
//! [`CorridorNetwork`] joins corridor edges at shared stations, the
//! [`NetworkOptimizer`] runs the same per-cell search over every edge
//! and then schedules demand-aware sleep — boundary repeaters at
//! junctions sleep whenever a co-located neighbor can absorb their
//! demand at a net energy win ([`NetworkReport`]). A degenerate
//! single-path network reproduces the linear optimizer's frontier
//! byte-for-byte.
//!
//! On top of the deterministic sweep sits the Monte-Carlo layer: a
//! [`ReplicationPlan`] replicates every grid cell over seeded stochastic
//! days (Poisson, jittered — see [`TrafficSpec`]), the [`McEngine`]
//! evaluates every cell's replications on the same worker threads
//! through the event-driven backend, and a [`McReport`] carries
//! per-cell mean/stddev/95 % CI/min/max for each tracked [`McMetric`].
//!
//! # Examples
//!
//! ```
//! use corridor_core::EnergyStrategy;
//! use corridor_sim::{ScenarioGrid, SweepEngine};
//!
//! let grid = ScenarioGrid::new().trains_per_hour(vec![4.0, 8.0, 12.0]);
//! let report = SweepEngine::new().workers(2).pv_sizing(false).run(&grid).unwrap();
//! assert_eq!(report.len(), 3);
//! // denser timetables erode the sleep-mode savings
//! let savings: Vec<f64> = report
//!     .results()
//!     .iter()
//!     .map(|r| r.savings(EnergyStrategy::SleepModeRepeaters))
//!     .collect();
//! assert!(savings[0] > savings[2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod cell;
mod context;
mod engine;
mod grid;
mod mc;
mod network;
mod optimize;
mod report;
mod sizing;
mod stream;

pub use cache::ResultCache;
pub use cell::{CellResult, PvOutcome, ScenarioCell};
pub use context::EvalContext;
pub use engine::{Evaluator, SweepEngine};
pub use grid::{PowerProfile, ScenarioGrid};
pub use mc::{
    McCellResult, McEngine, McMetric, McReport, ReplicationPlan, TrafficSpec, MC_CSV_HEADER,
};
pub use network::{
    CorridorEdge, CorridorNetwork, EdgeDayStats, NetworkDayEngine, NetworkDayReport, NetworkError,
    NetworkOptimizer, NetworkReport, SleepDecision, TrainRoute, NETWORK_DAY_CSV_HEADER,
    NETWORK_SCHEDULE_CSV_HEADER,
};
pub use optimize::{
    CellOutcome, DeploymentOptimizer, FrontierPoint, IsdSearch, OptimizeCellResult, OptimizeReport,
    SearchSpace, OPTIMIZE_CSV_HEADER,
};
pub use report::{SweepReport, CSV_HEADER};
pub use stream::{StreamError, StreamSummary};

pub use corridor_events::WakePolicy;
