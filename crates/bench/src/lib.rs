//! Shared helpers for the reproduction binaries.
//!
//! The binaries (`fig3`, `fig4`, `isd_sweep`, `table1`–`table4`,
//! `headline`, `sweep`) regenerate, as text, every table and figure of
//! the paper plus the batch scenario sweeps.
//! The [`render`] module holds the exact text each reproduction binary
//! prints, so the golden-file regression test can assert it against the
//! committed outputs under `docs/results/`. The [`args`] module is the
//! one argument grammar of the engine CLIs and of `serve`'s request
//! lines, and the one fallible stdout every binary writes through. [`ChunkSum`] is the checksum `serve`'s workers and coordinator
//! put on each chunk of row frames.

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
use std::hash::{DefaultHasher, Hasher};

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
    let report = EventDrivenEvaluator::new()
        .replicator(&params, 10, isd)
        .simulate_day(&passes);
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

/// The checksum of one chunk of `serve` row frames: std's SipHash
/// (`DefaultHasher`) over each row's length and bytes, in order.
///
/// It guards the local pipe between a `serve --worker` and its
/// coordinator, two copies of the same executable, against protocol
/// desync (a lost, torn or misread frame). It is a 64-bit
/// non-cryptographic checksum, not a digest: the SHA-256 in `serve`'s
/// `END` trailer is what certifies every byte a client receives.
/// `DefaultHasher`'s algorithm may change between Rust releases, so a
/// sum is only compared within one build.
#[derive(Debug, Clone, Default)]
pub struct ChunkSum(DefaultHasher);

impl ChunkSum {
    /// The sum of an empty chunk.
    pub fn new() -> ChunkSum {
        ChunkSum::default()
    }

    /// Folds in the next row of the chunk (without its frame terminator).
    pub fn add(&mut self, row: &[u8]) {
        self.0.write_u64(row.len() as u64);
        self.0.write(row);
    }

    /// The sum as the 16 lowercase hex digits of the `done` trailer's
    /// `sum=` field.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0.finish())
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

    #[test]
    fn chunk_sum_covers_row_boundaries_order_and_every_byte() {
        let sum = |rows: &[&str]| {
            let mut sum = ChunkSum::new();
            for row in rows {
                sum.add(row.as_bytes());
            }
            sum.hex()
        };
        let base = sum(&["ab", "c"]);
        assert_eq!(base.len(), 16);
        assert!(base
            .bytes()
            .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase()));
        assert_eq!(base, sum(&["ab", "c"]));
        for other in [
            sum(&["a", "bc"]),
            sum(&["c", "ab"]),
            sum(&["ab", "b"]),
            sum(&["ab", "c", ""]),
            sum(&["ab"]),
        ] {
            assert_ne!(other, base);
        }
    }
}
