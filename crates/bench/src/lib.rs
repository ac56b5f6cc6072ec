//! Shared helpers for the reproduction binaries.
//!
//! The binaries (`fig3`, `fig4`, `isd_sweep`, `table1`–`table4`,
//! `headline`, `sweep`) regenerate, as text, every table and figure of
//! the paper plus the batch scenario sweeps.
//! The [`render`] module holds the exact text each reproduction binary
//! prints, so the golden-file regression test can assert it against the
//! committed outputs under `docs/results/`. The [`args`] module is the
//! one argument grammar of the engine CLIs and of `serve`'s request
//! lines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod render;
pub mod snapshot;

use corridor_core::deploy::IsdTable;
use corridor_core::traffic::PoissonTimetable;
use corridor_core::ScenarioParams;
use corridor_events::{EventDrivenEvaluator, NodeKind};
use rand::SeedableRng;

/// The scenario every binary uses: the paper's defaults.
pub fn scenario() -> ScenarioParams {
    ScenarioParams::paper_default()
}

/// Formats a watt-hour quantity the way the paper's Fig. 4 axis does.
pub fn wh(value: f64) -> String {
    format!("{value:.1}")
}

/// One seeded Poisson day through the event-driven simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonDay {
    /// Trains sampled for the day.
    pub trains: usize,
    /// Mean powered time of one service repeater, in seconds.
    pub powered_s: f64,
    /// Mean daily energy of one service repeater (sleep strategy), Wh.
    pub energy_wh: f64,
}

/// Replays one seeded Poisson day (the paper's mean rate) through the
/// event-driven simulator on the paper's 10-node segment, instant wake
/// policy, and averages the service repeaters.
///
/// Both the `poisson_stats` golden rendering and the differential
/// suite's convergence test measure *this* quantity, so they cannot
/// silently diverge in what they pin.
pub fn poisson_service_day(seed: u64) -> PoissonDay {
    let params = scenario();
    let isd = IsdTable::paper().isd_for(10).expect("paper table has 10");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let passes = PoissonTimetable::paper_rate().sample_passes(&mut rng);
    let report = EventDrivenEvaluator::new().simulate_segment(&params, 10, isd, &passes);
    let service: Vec<_> = report.nodes_of(NodeKind::ServiceRepeater).collect();
    let count = service.len() as f64;
    PoissonDay {
        trains: passes.len(),
        powered_s: service
            .iter()
            .map(|n| n.trace().powered().value())
            .sum::<f64>()
            / count,
        energy_wh: service
            .iter()
            .map(|n| n.trace().daily_energy(params.lp_node()).value())
            .sum::<f64>()
            / count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_is_paper_default() {
        assert_eq!(scenario(), ScenarioParams::paper_default());
    }

    #[test]
    fn wh_formats_one_decimal() {
        assert_eq!(wh(467.04), "467.0");
    }
}
