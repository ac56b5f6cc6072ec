//! Shared coverage-margin accounting for the optimizer and scheduler.
//!
//! Before this module, the margin arithmetic lived in two places: the
//! deployment optimizer computed `min_snr - threshold` inline when
//! building frontier points, and the network sleep scheduler froze the
//! margin entirely (boundary repeaters only, interior untouched). The
//! Pollakis margin-trading search (arXiv 1503.08627) needs one shared
//! model instead: the [`MarginModel`] owns the threshold and the
//! margin/floor arithmetic, prices the *post-sleep* margin of a
//! deployment with repeaters removed through the same
//! [`CoverageCache`] the optimizer uses, and the [`MarginLedger`]
//! tracks the residual margin per edge as the scheduler commits sleeps
//! against a configurable floor.

use corridor_deploy::{CoverageCache, PlacementPolicy};
use corridor_units::{Db, Meters};

/// The coverage-margin model: an SNR threshold plus the arithmetic
/// turning cached minimum-SNR profiles into margins and floor checks.
///
/// # Examples
///
/// ```
/// use corridor_core::margin::MarginModel;
/// use corridor_units::Db;
///
/// let model = MarginModel::new(Db::new(29.0)); // the paper's threshold
/// assert_eq!(model.margin_db(Db::new(32.0)), 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarginModel {
    threshold: Db,
}

impl MarginModel {
    /// A model at an explicit SNR threshold.
    pub fn new(threshold: Db) -> Self {
        MarginModel { threshold }
    }

    /// The SNR threshold the margin is measured against.
    pub fn threshold(&self) -> Db {
        self.threshold
    }

    /// Coverage margin in dB of a deployment whose worst sampled SNR is
    /// `min_snr`: the headroom above (or deficit below) the threshold.
    pub fn margin_db(&self, min_snr: Db) -> f64 {
        (min_snr - self.threshold).value()
    }

    /// Margin of the full `n`-repeater deployment at `isd` under
    /// `placement`, through the shared coverage cache. `None` when the
    /// placement cannot realize `n` repeaters in the segment.
    pub fn margin_of(
        &self,
        cache: &CoverageCache,
        n: usize,
        isd: Meters,
        placement: &PlacementPolicy,
    ) -> Option<f64> {
        cache
            .min_snr(n, isd, placement)
            .map(|snr| self.margin_db(snr))
    }

    /// Margin of the deployment after the repeaters at the (sorted,
    /// deduplicated) `slept` position indices are removed: the survivors
    /// keep their positions, so the reduced layout is priced as a
    /// custom placement through the same cache. `None` when the base
    /// placement is unrealizable, an index is out of range, or no
    /// repeater survives.
    pub fn margin_without(
        &self,
        cache: &CoverageCache,
        n: usize,
        isd: Meters,
        placement: &PlacementPolicy,
        slept: &[usize],
    ) -> Option<f64> {
        if slept.iter().any(|&k| k >= n) {
            return None;
        }
        let positions = placement.positions(n, isd).ok()?;
        let remaining: Vec<Meters> = positions
            .iter()
            .enumerate()
            .filter(|(k, _)| !slept.contains(k))
            .map(|(_, &p)| p)
            .collect();
        if remaining.is_empty() {
            return None;
        }
        let custom = PlacementPolicy::Custom(remaining.clone());
        cache
            .min_snr(remaining.len(), isd, &custom)
            .map(|snr| self.margin_db(snr))
    }
}

/// Residual coverage margin per edge as the scheduler spends it, with
/// the floor every edge must stay at or above.
///
/// Entries are `None` for edges without a deployment (unsolvable or
/// zero repeaters) — those neither hold nor spend margin.
#[derive(Debug, Clone, PartialEq)]
pub struct MarginLedger {
    floor_db: f64,
    margins: Vec<Option<f64>>,
}

impl MarginLedger {
    /// A ledger over the edges' starting margins and the floor.
    pub fn new(floor_db: f64, margins: Vec<Option<f64>>) -> Self {
        MarginLedger { floor_db, margins }
    }

    /// The residual margin of `edge` (`None` for undeployed edges).
    pub fn margin(&self, edge: usize) -> Option<f64> {
        self.margins.get(edge).copied().flatten()
    }

    /// The residual margins, in edge order.
    pub fn margins(&self) -> &[Option<f64>] {
        &self.margins
    }

    /// True when dropping `edge` to `margin_after` keeps it at or above
    /// the floor (and the edge holds margin at all).
    pub fn affords(&self, edge: usize, margin_after: f64) -> bool {
        self.margin(edge).is_some() && margin_after >= self.floor_db
    }

    /// Commits a spend: `edge`'s residual margin becomes `margin_after`.
    ///
    /// # Panics
    ///
    /// Panics if the edge holds no margin or the spend would cross the
    /// floor — callers must gate on [`MarginLedger::affords`] first.
    pub fn commit(&mut self, edge: usize, margin_after: f64) {
        assert!(
            self.affords(edge, margin_after),
            "margin spend on edge {edge} to {margin_after} dB crosses the {} dB floor",
            self.floor_db
        );
        self.margins[edge] = Some(margin_after);
    }

    /// True when every deployed edge sits at or above the floor.
    pub fn all_at_or_above_floor(&self) -> bool {
        self.margins.iter().flatten().all(|&m| m >= self.floor_db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn margin_is_headroom_above_the_threshold() {
        let model = MarginModel::new(Db::new(29.0));
        assert_eq!(model.margin_db(Db::new(32.5)), 3.5);
        assert_eq!(model.margin_db(Db::new(27.0)), -2.0);
    }

    #[test]
    fn removing_a_repeater_never_raises_the_margin() {
        let cache = CoverageCache::with_sample_step(Meters::new(10.0));
        let model = MarginModel::new(Db::new(29.0));
        let placement = PlacementPolicy::paper_default();
        let (n, isd) = (10, Meters::new(2650.0));
        let full = model.margin_of(&cache, n, isd, &placement).unwrap();
        for k in 1..n - 1 {
            let reduced = model
                .margin_without(&cache, n, isd, &placement, &[k])
                .unwrap();
            assert!(
                reduced <= full + 1e-12,
                "dropping repeater {k}: {reduced} > {full}"
            );
        }
        // removing nothing is the identity
        assert_eq!(
            model.margin_without(&cache, n, isd, &placement, &[]),
            Some(full)
        );
        // out-of-range and total removal are unrealizable
        assert_eq!(model.margin_without(&cache, n, isd, &placement, &[n]), None);
        let all: Vec<usize> = (0..n).collect();
        assert_eq!(model.margin_without(&cache, n, isd, &placement, &all), None);
    }

    #[test]
    fn ledger_enforces_the_floor() {
        let mut ledger = MarginLedger::new(-1.0, vec![Some(3.0), None, Some(0.5)]);
        assert_eq!(ledger.margin(0), Some(3.0));
        assert_eq!(ledger.margin(1), None);
        assert!(ledger.affords(0, -1.0));
        assert!(!ledger.affords(0, -1.1));
        assert!(!ledger.affords(1, 5.0), "undeployed edges hold no margin");
        ledger.commit(0, -0.5);
        assert_eq!(ledger.margin(0), Some(-0.5));
        assert!(ledger.all_at_or_above_floor());
        ledger.commit(2, -1.0);
        assert!(ledger.all_at_or_above_floor());
    }

    #[test]
    #[should_panic(expected = "crosses")]
    fn ledger_commit_panics_below_the_floor() {
        let mut ledger = MarginLedger::new(0.0, vec![Some(1.0)]);
        ledger.commit(0, -0.1);
    }
}
