//! Whole-line corridors: chains of heterogeneous segments.

use core::fmt;

use corridor_link::CoverageProfile;
use corridor_units::{Kilometers, Meters};

use crate::{CorridorLayout, LinkBudget, PlacementError, PlacementPolicy, SegmentInventory};

/// A complete railway line: consecutive corridor segments, each with its
/// own inter-site distance and repeater count.
///
/// Real lines are not homogeneous — station throats and tunnels keep
/// short conventional ISDs while open track stretches out with repeaters.
/// `Corridor` chains [`CorridorLayout`]s and aggregates inventory,
/// coverage and length so whole-line plans can be evaluated with the same
/// machinery as single segments.
///
/// # Examples
///
/// ```
/// use corridor_deploy::{Corridor, LinkBudget, PlacementPolicy};
/// use corridor_units::Meters;
///
/// // 2 km of station approach at 500 m, then open track at 2400 m
/// let mut corridor = Corridor::new();
/// for _ in 0..4 {
///     corridor.push_conventional(Meters::new(500.0));
/// }
/// for _ in 0..3 {
///     corridor.push_with_repeaters(Meters::new(2400.0), 8, &PlacementPolicy::paper_default())?;
/// }
/// assert_eq!(corridor.total_length().meters(), Meters::new(9200.0));
/// assert_eq!(corridor.mast_count(), 8); // 7 segments + closing mast
/// assert_eq!(corridor.service_node_count(), 24);
/// # Ok::<(), corridor_deploy::PlacementError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Corridor {
    segments: Vec<CorridorLayout>,
}

impl Corridor {
    /// An empty corridor.
    pub fn new() -> Self {
        Corridor::default()
    }

    /// Appends a conventional (repeater-free) segment.
    ///
    /// # Panics
    ///
    /// Panics if `isd` is not strictly positive.
    pub fn push_conventional(&mut self, isd: Meters) {
        self.segments.push(CorridorLayout::conventional(isd));
    }

    /// Appends a repeater-extended segment.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError`] if the policy cannot place `n` nodes.
    pub fn push_with_repeaters(
        &mut self,
        isd: Meters,
        n: usize,
        policy: &PlacementPolicy,
    ) -> Result<(), PlacementError> {
        self.segments
            .push(CorridorLayout::with_policy(isd, n, policy)?);
        Ok(())
    }

    /// The segments, in track order.
    pub fn segments(&self) -> &[CorridorLayout] {
        &self.segments
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True if no segments have been added.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Total line length.
    pub fn total_length(&self) -> Kilometers {
        self.segments
            .iter()
            .map(|s| s.isd())
            .sum::<Meters>()
            .kilometers()
    }

    /// Number of high-power masts: one per segment boundary, so
    /// `segments + 1` for a non-empty line.
    pub fn mast_count(&self) -> usize {
        if self.segments.is_empty() {
            0
        } else {
            self.segments.len() + 1
        }
    }

    /// Total repeater service nodes on the line.
    pub fn service_node_count(&self) -> usize {
        self.segments
            .iter()
            .map(CorridorLayout::repeater_count)
            .sum()
    }

    /// Total donor nodes on the line (the paper's per-segment donor rule).
    pub fn donor_node_count(&self) -> usize {
        self.segments
            .iter()
            .map(|s| SegmentInventory::donor_rule(s.repeater_count()))
            .sum()
    }

    /// Per-segment inventories, in track order.
    pub fn inventories(&self) -> Vec<SegmentInventory> {
        self.segments
            .iter()
            .map(|s| SegmentInventory::for_nodes(s.repeater_count(), s.isd()))
            .collect()
    }

    /// The absolute track position at which segment `index` starts.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn segment_start(&self, index: usize) -> Meters {
        assert!(index < self.segments.len(), "segment index out of range");
        self.segments[..index].iter().map(|s| s.isd()).sum()
    }

    /// The worst (minimum) SNR across all segments under `budget`,
    /// sampling each segment at `step`. Returns `None` for an empty
    /// corridor.
    pub fn min_snr(&self, budget: &LinkBudget, step: Meters) -> Option<corridor_units::Db> {
        self.segments
            .iter()
            .filter_map(|s| s.coverage_profile(budget, step).min_snr())
            .min_by(|a, b| a.total_cmp(b))
    }

    /// Coverage profiles for every segment, in track order.
    pub fn coverage_profiles(&self, budget: &LinkBudget, step: Meters) -> Vec<CoverageProfile> {
        self.segments
            .iter()
            .map(|s| s.coverage_profile(budget, step))
            .collect()
    }
}

impl FromIterator<CorridorLayout> for Corridor {
    fn from_iter<I: IntoIterator<Item = CorridorLayout>>(iter: I) -> Self {
        Corridor {
            segments: iter.into_iter().collect(),
        }
    }
}

impl Extend<CorridorLayout> for Corridor {
    fn extend<I: IntoIterator<Item = CorridorLayout>>(&mut self, iter: I) {
        self.segments.extend(iter);
    }
}

impl fmt::Display for Corridor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "corridor of {} segment(s), {}, {} mast(s), {} repeater(s)",
            self.len(),
            self.total_length(),
            self.mast_count(),
            self.service_node_count() + self.donor_node_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_line() -> Corridor {
        let mut c = Corridor::new();
        c.push_conventional(Meters::new(500.0));
        c.push_conventional(Meters::new(500.0));
        c.push_with_repeaters(Meters::new(2400.0), 8, &PlacementPolicy::paper_default())
            .unwrap();
        c.push_with_repeaters(Meters::new(1250.0), 1, &PlacementPolicy::paper_default())
            .unwrap();
        c
    }

    #[test]
    fn aggregates() {
        let c = mixed_line();
        assert_eq!(c.len(), 4);
        assert!(!c.is_empty());
        assert_eq!(c.total_length().meters(), Meters::new(4650.0));
        assert_eq!(c.mast_count(), 5);
        assert_eq!(c.service_node_count(), 9);
        assert_eq!(c.donor_node_count(), 3); // 0 + 0 + 2 + 1
    }

    #[test]
    fn segment_starts() {
        let c = mixed_line();
        assert_eq!(c.segment_start(0), Meters::ZERO);
        assert_eq!(c.segment_start(1), Meters::new(500.0));
        assert_eq!(c.segment_start(2), Meters::new(1000.0));
        assert_eq!(c.segment_start(3), Meters::new(3400.0));
    }

    #[test]
    fn whole_line_coverage() {
        let c = mixed_line();
        let budget = LinkBudget::paper_default();
        let min = c.min_snr(&budget, Meters::new(10.0)).unwrap();
        // every segment is a paper geometry, so the line keeps peak rate
        assert!(min.value() > 29.0, "min SNR {min}");
        let profiles = c.coverage_profiles(&budget, Meters::new(10.0));
        assert_eq!(profiles.len(), 4);
    }

    #[test]
    fn empty_corridor() {
        let c = Corridor::new();
        assert!(c.is_empty());
        assert_eq!(c.mast_count(), 0);
        assert_eq!(
            c.min_snr(&LinkBudget::paper_default(), Meters::new(10.0)),
            None
        );
        assert_eq!(c.total_length().meters(), Meters::ZERO);
    }

    #[test]
    fn from_iterator_and_extend() {
        let layouts = vec![
            CorridorLayout::conventional(Meters::new(500.0)),
            CorridorLayout::conventional(Meters::new(600.0)),
        ];
        let mut c: Corridor = layouts.clone().into_iter().collect();
        assert_eq!(c.len(), 2);
        c.extend(layouts);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn inventories_match_segments() {
        let c = mixed_line();
        let inv = c.inventories();
        assert_eq!(inv.len(), 4);
        assert_eq!(inv[2].service_nodes(), 8);
        assert_eq!(inv[2].donor_nodes(), 2);
        assert_eq!(inv[3].donor_nodes(), 1);
    }

    #[test]
    fn display() {
        let c = mixed_line();
        let s = c.to_string();
        assert!(s.contains("4 segment(s)"));
        assert!(s.contains("5 mast(s)"));
        assert!(s.contains("12 repeater(s)"));
    }

    #[test]
    #[should_panic(expected = "index out of range")]
    fn bad_segment_index() {
        let _ = mixed_line().segment_start(4);
    }
}
