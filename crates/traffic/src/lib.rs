//! Train traffic, section occupancy and sleep-mode duty computation.
//!
//! The paper's energy results hinge on *when equipment can sleep*: a node
//! serving a track section is at full load only while a train overlaps that
//! section (detected by a photoelectric barrier) and can sleep otherwise.
//! This crate provides:
//!
//! * [`Train`] and [`TrainPass`] — kinematics of a train running along the
//!   corridor;
//! * [`Timetable`] — the paper's deterministic service pattern (8 trains/h
//!   for 19 h, 5 h night pause) and a Poisson alternative
//!   ([`PoissonTimetable`]) for sensitivity studies;
//! * [`TrafficModel`] and friends ([`DelayModel`], [`MixedTimetable`]) —
//!   seeded stochastic and irregular traffic sources for the event-driven
//!   corridor simulator;
//! * [`SeedSequence`] — SplitMix64 seed-splitting that gives every
//!   `(cell, replication)` work item of a Monte-Carlo sweep its own
//!   decorrelated RNG stream;
//! * [`TrackSection`] — a coverage section with entry/exit occupancy
//!   computation;
//! * [`ActivityTimeline`] — merged busy intervals for a node over a day,
//!   convertible to full-load hours.
//!
//! Wake latency, barrier lead and guard intervals belong to the
//! event-driven simulator (`corridor_events::WakePolicy`).
//!
//! # Examples
//!
//! ```
//! use corridor_traffic::{Timetable, TrackSection, ActivityTimeline};
//! use corridor_units::Meters;
//!
//! let timetable = Timetable::paper_default(); // 8 trains/h, 19 h service
//! let section = TrackSection::new(Meters::ZERO, Meters::new(500.0));
//! let activity = ActivityTimeline::for_section(&section, &timetable.passes());
//! // paper: HP RRH at 500 m ISD is at full load 2.85 % of the day
//! let frac = activity.total_active().value() / 86_400.0;
//! assert!((frac - 0.0285).abs() < 0.0005);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activity;
mod schedule;
mod section;
mod seed;
mod stochastic;
mod train;

pub use activity::ActivityTimeline;
pub use schedule::{PoissonTimetable, Timetable};
pub use section::TrackSection;
pub use seed::SeedSequence;
pub use stochastic::{DelayModel, MixedTimetable, TrafficModel};
pub use train::{Train, TrainPass};
