//! Node inventory per corridor segment and per kilometre.

use corridor_units::{Kilometers, Meters};

/// The equipment deployed per corridor segment (one inter-site distance).
///
/// A corridor is a chain of identical segments, so each segment *owns* one
/// high-power mast (masts sit on segment boundaries and are shared), its
/// repeater service nodes, and the donor repeater nodes mounted at the
/// masts that feed the wireless fronthaul. The paper's donor accounting:
/// one donor node for a single service node, two donors (one per feeding
/// direction) for two or more.
///
/// # Examples
///
/// ```
/// use corridor_deploy::SegmentInventory;
/// use corridor_units::Meters;
///
/// let seg = SegmentInventory::for_nodes(8, Meters::new(2400.0));
/// assert_eq!(seg.service_nodes(), 8);
/// assert_eq!(seg.donor_nodes(), 2);
/// assert!((seg.segments_per_km() - 0.4167).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentInventory {
    service_nodes: usize,
    donor_nodes: usize,
    isd: Meters,
}

impl SegmentInventory {
    /// Inventory for `n` service nodes in a segment of `isd`, using the
    /// paper's donor rule.
    ///
    /// # Panics
    ///
    /// Panics if `isd` is not strictly positive.
    pub fn for_nodes(n: usize, isd: Meters) -> Self {
        assert!(isd.value() > 0.0, "ISD must be positive");
        SegmentInventory {
            service_nodes: n,
            donor_nodes: Self::donor_rule(n),
            isd,
        }
    }

    /// The paper's donor-node rule: 0 for a conventional segment, 1 donor
    /// for one service node, 2 donors for two or more.
    pub fn donor_rule(service_nodes: usize) -> usize {
        match service_nodes {
            0 => 0,
            1 => 1,
            _ => 2,
        }
    }

    /// Service (coverage) repeater nodes per segment.
    pub fn service_nodes(&self) -> usize {
        self.service_nodes
    }

    /// Donor (fronthaul) repeater nodes per segment.
    pub fn donor_nodes(&self) -> usize {
        self.donor_nodes
    }

    /// All repeater nodes per segment.
    pub fn total_repeaters(&self) -> usize {
        self.service_nodes + self.donor_nodes
    }

    /// High-power masts per segment (always 1: shared boundaries).
    pub fn masts(&self) -> usize {
        1
    }

    /// Segments per kilometre of corridor.
    pub fn segments_per_km(&self) -> f64 {
        Kilometers::new(1.0).meters() / self.isd
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn donor_rule_matches_paper() {
        assert_eq!(SegmentInventory::donor_rule(0), 0);
        assert_eq!(SegmentInventory::donor_rule(1), 1);
        assert_eq!(SegmentInventory::donor_rule(2), 2);
        assert_eq!(SegmentInventory::donor_rule(10), 2);
    }

    #[test]
    fn conventional_segment() {
        let seg = SegmentInventory::for_nodes(0, Meters::new(500.0));
        assert_eq!(seg.total_repeaters(), 0);
        assert_eq!(seg.masts(), 1);
        // 2 masts per km at 500 m ISD
        assert!((seg.segments_per_km() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ten_node_segment() {
        let seg = SegmentInventory::for_nodes(10, Meters::new(2650.0));
        assert_eq!(seg.service_nodes(), 10);
        assert_eq!(seg.donor_nodes(), 2);
        assert_eq!(seg.total_repeaters(), 12);
        assert!((seg.segments_per_km() - 0.3774).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "ISD must be positive")]
    fn zero_isd_rejected() {
        let _ = SegmentInventory::for_nodes(1, Meters::ZERO);
    }
}
