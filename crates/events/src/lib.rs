//! Discrete-event corridor simulator for the railway energy study.
//!
//! The closed-form reproduction (`corridor_core::energy`) computes every
//! energy number from merged duty-cycle hours, which only works for
//! deterministic timetables. This crate models the corridor in the time
//! domain:
//!
//! * per-node days: each node's occupancy intervals on its
//!   [`TrackSection`](corridor_traffic::TrackSection), walked in entry
//!   order (nodes never share state, so each runs on its own, and nodes
//!   watching the same section share one walk);
//! * a per-node wake state machine ([`NodeState`]: asleep → waking →
//!   active → drain) that the walk bills, under one of two
//!   [`WakePolicy`] values: [`WakePolicy::instant`], or the paper's
//!   barrier lead, wake latency and guard interval
//!   ([`WakePolicy::paper_default`]);
//! * an energy integrator ([`StateTrace`]) that accumulates per-state
//!   time and converts it to Wh through the same
//!   [`DutyCycle`](corridor_power::DutyCycle) arithmetic as the closed
//!   form;
//! * an [`EventDrivenEvaluator`] implementing
//!   [`SegmentEvaluator`](corridor_core::SegmentEvaluator), so sweep
//!   engines can switch backends — and feed the simulator stochastic
//!   days (Poisson, jittered, mixed services, double track) the closed
//!   form cannot express;
//! * a [`SegmentReplicator`] that prepares one segment geometry once and
//!   replays many seeded days through it — the entry point Monte-Carlo
//!   replication sweeps use to amortize setup across seeds;
//! * a [`NetworkDaySimulator`] that lifts the backend from one segment
//!   to a rail **topology**: shared [`TrainItinerary`]s traverse
//!   [`Leg`]s edge by edge, so adjacent corridors replay the *same*
//!   trains at junction-consistent times — the event backend of the
//!   network-day engine in `corridor_sim`.
//!
//! With [`WakePolicy::instant`] the simulated energy split matches the
//! analytic backend to float precision on every deterministic paper
//! scenario; the differential suite (`tests/differential.rs`) pins the
//! two against each other at < 0.1 %.
//!
//! # Examples
//!
//! ```
//! use corridor_events::{segment_nodes, CorridorSimulator, NodeKind, WakePolicy};
//! use corridor_traffic::{PoissonTimetable, Timetable};
//! use corridor_units::Meters;
//! use rand::SeedableRng;
//!
//! // a seeded stochastic day through the paper's 10-node segment
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let passes = PoissonTimetable::paper_rate().sample_passes(&mut rng);
//! let nodes = segment_nodes(10, Meters::new(2650.0), Meters::new(200.0));
//! let report = CorridorSimulator::new()
//!     .with_policy(WakePolicy::paper_default())
//!     .simulate(&nodes, &passes);
//! let service = report.nodes_of(NodeKind::ServiceRepeater).next().unwrap();
//! assert!(service.trace().powered().value() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod evaluator;
mod network;
mod node;
mod replicate;
mod report;
mod sim;
mod trace;
mod wake;

pub use evaluator::EventDrivenEvaluator;
pub use network::{Leg, NetworkDaySimulator, TrainItinerary};
pub use node::{segment_nodes, NodeKind, NodeSpec};
pub use replicate::SegmentReplicator;
pub use report::{NodeReport, SimReport};
pub use sim::CorridorSimulator;
pub use trace::StateTrace;
pub use wake::{NodeState, WakePolicy};
