//! Property-based tests for deployment and optimization invariants.

use corridor_deploy::{
    CorridorLayout, IsdOptimizer, LinkBudget, PlacementPolicy, SegmentInventory,
};
use corridor_units::{Db, Dbm, Meters};
use proptest::prelude::*;

proptest! {
    /// Placement positions are sorted, strictly inside the segment, and of
    /// the requested count, for both built-in policies.
    #[test]
    fn placement_invariants(n in 0usize..12, isd in 300.0..4000.0f64) {
        for policy in [PlacementPolicy::paper_default(), PlacementPolicy::EvenlySpaced] {
            match policy.positions(n, Meters::new(isd)) {
                Ok(pos) => {
                    prop_assert_eq!(pos.len(), n);
                    for w in pos.windows(2) {
                        prop_assert!(w[0] < w[1]);
                    }
                    if n > 0 {
                        prop_assert!(pos[0].value() > 0.0);
                        prop_assert!(pos[n - 1].value() < isd);
                    }
                }
                Err(_) => {
                    // only the fixed-spacing cluster can fail, and only when
                    // it genuinely does not fit
                    prop_assert!(matches!(policy, PlacementPolicy::FixedSpacing(_)));
                    prop_assert!(200.0 * (n as f64 - 1.0) >= isd);
                }
            }
        }
    }

    /// Fixed-spacing placement is symmetric about the segment midpoint.
    #[test]
    fn placement_symmetry(n in 1usize..10, isd in 2000.0..4000.0f64) {
        let pos = PlacementPolicy::paper_default().positions(n, Meters::new(isd)).unwrap();
        for (i, p) in pos.iter().enumerate() {
            let mirror = pos[n - 1 - i];
            let reflected = isd - p.value();
            prop_assert!((mirror.value() - reflected).abs() < 1e-9);
        }
    }

    /// Min SNR of a layout is non-increasing in the ISD (the assumption
    /// behind the optimizer's binary search).
    #[test]
    fn min_snr_monotone_in_isd(n in 0usize..6, base in 1500.0..2500.0f64, delta in 50.0..1000.0f64) {
        let budget = LinkBudget::paper_default();
        let policy = PlacementPolicy::paper_default();
        let step = Meters::new(20.0);
        let small = CorridorLayout::with_policy(Meters::new(base), n, &policy).unwrap();
        let large = CorridorLayout::with_policy(Meters::new(base + delta), n, &policy).unwrap();
        let snr_small = small.coverage_profile(&budget, step).min_snr().unwrap();
        let snr_large = large.coverage_profile(&budget, step).min_snr().unwrap();
        prop_assert!(snr_large <= snr_small + Db::new(0.05),
            "min SNR rose from {} to {} when stretching {} -> {}",
            snr_small, snr_large, base, base + delta);
    }

    /// More repeaters never shrink the achievable ISD, at any noise
    /// floor within ±2 dB of the paper's.
    #[test]
    fn more_nodes_never_worse(offset in -2.0..2.0f64) {
        let budget = LinkBudget::paper_default().with_noise_floor(Dbm::new(-132.0 + offset));
        let opt = IsdOptimizer::new(budget).with_sample_step(Meters::new(20.0));
        let a = opt.max_isd(1);
        let b = opt.max_isd(2);
        match (a, b) {
            (Some(a), Some(b)) => prop_assert!(b >= a),
            (Some(_), None) => prop_assert!(false, "two nodes unsolvable but one solvable"),
            _ => {}
        }
    }

    /// Inventory per-km figures scale linearly with segment density.
    #[test]
    fn inventory_scaling(n in 0usize..12, isd in 200.0..4000.0f64) {
        let seg = SegmentInventory::for_nodes(n, Meters::new(isd));
        let per_km = 1000.0 / isd;
        prop_assert!((seg.segments_per_km() - per_km).abs() < 1e-9);
        prop_assert!(seg.donor_nodes() <= 2);
        prop_assert_eq!(seg.total_repeaters(), seg.service_nodes() + seg.donor_nodes());
    }
}
