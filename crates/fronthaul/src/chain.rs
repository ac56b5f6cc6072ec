//! Feeding a whole segment: donors, hops and end-to-end checks.

use core::fmt;

use corridor_units::Meters;

use crate::{FronthaulHop, MmWaveBand};

/// The fronthaul of one corridor segment.
///
/// Two donor nodes sit at the high-power masts (positions `0` and `isd`),
/// each feeding the service nodes on its half of the segment as a
/// **daisy chain** (the prototype's architecture, built by
/// [`for_segment`](FronthaulChain::for_segment)): the donor feeds the
/// nearest node, which relays to the next, so every hop is short.
///
/// # Examples
///
/// ```
/// use corridor_fronthaul::{FronthaulChain, MmWaveBand};
/// use corridor_units::Meters;
///
/// // the paper's Fig. 3 geometry: 8 nodes at 200 m spacing in 2400 m
/// let positions: Vec<Meters> = (0..8).map(|i| Meters::new(500.0 + 200.0 * i as f64)).collect();
/// let daisy = FronthaulChain::for_segment(
///     MmWaveBand::v_band_60ghz(), &positions, Meters::new(2400.0));
/// assert!(daisy.evaluate().is_feasible());
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FronthaulChain {
    hops: Vec<FronthaulHop>,
}

impl FronthaulChain {
    fn validate(positions: &[Meters], isd: Meters) {
        for &pos in positions {
            assert!(
                pos.value() > 0.0 && pos < isd,
                "service node at {pos} outside segment (0, {isd})"
            );
        }
    }

    /// Splits node positions by their feeding mast (nearest wins; ties go
    /// left) and returns (left-side sorted ascending, right-side sorted
    /// descending — i.e. in hop order from each donor).
    fn split_sides(positions: &[Meters], isd: Meters) -> (Vec<Meters>, Vec<Meters>) {
        let mut left: Vec<Meters> = positions
            .iter()
            .copied()
            .filter(|p| *p <= isd / 2.0)
            .collect();
        let mut right: Vec<Meters> = positions
            .iter()
            .copied()
            .filter(|p| *p > isd / 2.0)
            .collect();
        left.sort_by(|a, b| a.total_cmp(b));
        right.sort_by(|a, b| b.total_cmp(a));
        (left, right)
    }

    /// Builds the daisy-chain fronthaul (the prototype architecture):
    /// each donor feeds its nearest node, and each node relays onward, so
    /// hop lengths equal the node gaps.
    ///
    /// # Panics
    ///
    /// Panics if a position lies outside the open segment.
    pub fn for_segment(band: MmWaveBand, positions: &[Meters], isd: Meters) -> Self {
        Self::validate(positions, isd);
        let (left, right) = Self::split_sides(positions, isd);
        let mut hops = Vec::with_capacity(positions.len());
        let mut previous = Meters::ZERO;
        for &pos in &left {
            hops.push(FronthaulHop::new(band, pos.distance_to(previous)));
            previous = pos;
        }
        previous = isd;
        for &pos in &right {
            hops.push(FronthaulHop::new(band, pos.distance_to(previous)));
            previous = pos;
        }
        FronthaulChain { hops }
    }

    /// The hops, in feeding order (left donor outward, then right donor
    /// outward for the daisy topology).
    pub fn hops(&self) -> &[FronthaulHop] {
        &self.hops
    }

    /// Evaluates every hop.
    pub fn evaluate(&self) -> ChainReport {
        let margins: Vec<f64> = self
            .hops
            .iter()
            .map(|h| h.clear_sky_margin().value())
            .collect();
        let worst_margin = margins.iter().copied().fold(f64::INFINITY, f64::min);
        let availability = self
            .hops
            .iter()
            .map(FronthaulHop::rain_availability)
            .fold(1.0, |acc, a| acc * a);
        ChainReport {
            hop_count: self.hops.len(),
            worst_margin_db: if self.hops.is_empty() {
                0.0
            } else {
                worst_margin
            },
            availability,
        }
    }
}

/// The evaluation of a segment's fronthaul.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ChainReport {
    /// Number of hops (served nodes).
    pub hop_count: usize,
    /// The smallest clear-sky margin across hops, dB.
    pub worst_margin_db: f64,
    /// Joint rain availability (independent-hop approximation).
    pub availability: f64,
}

impl ChainReport {
    /// True if every hop closes its budget under clear sky.
    pub fn is_feasible(&self) -> bool {
        self.hop_count > 0 && self.worst_margin_db > 0.0
    }
}

impl fmt::Display for ChainReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hop(s), worst margin {:.1} dB, availability {:.4} %",
            self.hop_count,
            self.worst_margin_db,
            self.availability * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig3_positions() -> Vec<Meters> {
        (0..8)
            .map(|i| Meters::new(500.0 + 200.0 * i as f64))
            .collect()
    }

    #[test]
    fn fig3_daisy_chain_is_feasible() {
        let chain = FronthaulChain::for_segment(
            MmWaveBand::v_band_60ghz(),
            &fig3_positions(),
            Meters::new(2400.0),
        );
        let report = chain.evaluate();
        assert!(report.is_feasible(), "{report}");
        assert_eq!(report.hop_count, 8);
        assert!(report.availability > 0.99);
    }

    #[test]
    fn daisy_hop_lengths_are_gaps() {
        let chain = FronthaulChain::for_segment(
            MmWaveBand::v_band_60ghz(),
            &fig3_positions(),
            Meters::new(2400.0),
        );
        let lengths: Vec<f64> = chain.hops().iter().map(|h| h.distance().value()).collect();
        // left donor: 500 m to the first node, then 200 m gaps; mirrored
        // on the right side
        assert_eq!(
            lengths,
            vec![500.0, 200.0, 200.0, 200.0, 500.0, 200.0, 200.0, 200.0]
        );
    }

    #[test]
    fn empty_chain_not_feasible() {
        let chain =
            FronthaulChain::for_segment(MmWaveBand::v_band_60ghz(), &[], Meters::new(2400.0));
        let report = chain.evaluate();
        assert!(!report.is_feasible());
        assert_eq!(report.hop_count, 0);
    }

    #[test]
    fn single_node_daisy() {
        let chain = FronthaulChain::for_segment(
            MmWaveBand::v_band_60ghz(),
            &[Meters::new(625.0)],
            Meters::new(1250.0),
        );
        assert_eq!(chain.hops().len(), 1);
        assert_eq!(chain.hops()[0].distance(), Meters::new(625.0));
        assert!(chain.evaluate().to_string().contains("1 hop(s)"));
    }

    #[test]
    #[should_panic(expected = "outside segment")]
    fn out_of_segment_node_rejected() {
        let _ = FronthaulChain::for_segment(
            MmWaveBand::v_band_60ghz(),
            &[Meters::new(3000.0)],
            Meters::new(2400.0),
        );
    }

    #[test]
    fn nan_position_does_not_panic_the_side_sort() {
        // regression: the side sorts used partial_cmp + expect, which
        // panicked on NaN. total_cmp orders NaN deterministically; here a
        // NaN position fails both side filters and lands in neither half.
        let positions = [
            Meters::new(500.0),
            Meters::new(f64::NAN),
            Meters::new(1900.0),
        ];
        let (left, right) = FronthaulChain::split_sides(&positions, Meters::new(2400.0));
        assert_eq!(left, vec![Meters::new(500.0)]);
        assert_eq!(right, vec![Meters::new(1900.0)]);
    }

    #[test]
    #[should_panic(expected = "outside segment")]
    fn nan_position_rejected_by_validation() {
        let _ = FronthaulChain::for_segment(
            MmWaveBand::v_band_60ghz(),
            &[Meters::new(f64::NAN)],
            Meters::new(2400.0),
        );
    }
}
