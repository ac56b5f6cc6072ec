//! Corridor layout, repeater placement and maximum-ISD optimization.
//!
//! This crate turns the link-budget machinery of [`corridor_link`] into the
//! paper's deployment question (Section V): *how far apart can the
//! high-power masts be pushed for a given number of low-power repeater
//! nodes, without losing peak 5G NR throughput anywhere on the track?*
//!
//! * [`LinkBudget`] — all RF parameters of a corridor deployment in one
//!   place, at the paper's values (only the noise floor can be
//!   overridden);
//! * [`PlacementPolicy`] — where the repeater nodes go between two masts
//!   (fixed 200 m spacing per Table III, or custom positions);
//! * [`CorridorLayout`] — one inter-site segment: two HP masts plus
//!   repeaters, convertible to an [`SnrModel`](corridor_link::SnrModel);
//! * [`CoverageCriterion`] — what "maintaining capacity" means (the paper:
//!   SNR ≥ 29 dB everywhere ⇒ peak throughput);
//! * [`IsdOptimizer`] — the 50 m-step sweep producing an [`IsdTable`]
//!   (maximum ISD per repeater count), with [`IsdTable::paper`] carrying
//!   the published sequence;
//! * [`CoverageCache`] — memoized minimum-SNR profiling under the paper
//!   budget with lookup/evaluation counters, so layered searches (per
//!   scenario cell, per wake policy) sample each layout exactly once;
//! * [`SegmentInventory`] — node counts (service + donor repeaters, masts)
//!   per segment and per kilometre.
//!
//! # Examples
//!
//! ```
//! use corridor_deploy::{CorridorLayout, LinkBudget, PlacementPolicy};
//! use corridor_units::Meters;
//!
//! let budget = LinkBudget::paper_default();
//! let layout = CorridorLayout::with_policy(
//!     Meters::new(2400.0),
//!     8,
//!     &PlacementPolicy::paper_default(),
//! )?;
//! let profile = layout.coverage_profile(&budget, Meters::new(10.0));
//! assert!(profile.min_snr().unwrap().value() > 25.0);
//! # Ok::<(), corridor_deploy::PlacementError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod cache;
mod criteria;
mod inventory;
mod layout;
mod placement;
mod search;
mod sweep;
mod table;

pub use budget::LinkBudget;
pub use cache::CoverageCache;
pub use criteria::CoverageCriterion;
pub use inventory::SegmentInventory;
pub use layout::CorridorLayout;
pub use placement::{PlacementError, PlacementPolicy};
pub use sweep::IsdOptimizer;
pub use table::IsdTable;
