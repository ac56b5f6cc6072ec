//! Property-based tests for path-loss model invariants.

use corridor_propagation::{CalibratedFriis, FreeSpace, PathLoss};
use corridor_units::{Db, Hertz, Meters};
use proptest::prelude::*;

fn freq() -> impl Strategy<Value = Hertz> {
    (0.7..30.0f64).prop_map(Hertz::from_ghz)
}

fn distance() -> impl Strategy<Value = Meters> {
    (0.0..20_000.0f64).prop_map(Meters::new)
}

proptest! {
    /// Free-space attenuation is non-negative and monotone in distance.
    #[test]
    fn free_space_monotone(f in freq(), d1 in distance(), d2 in distance()) {
        let model = FreeSpace::new(f);
        let (near, far) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(model.attenuation(far) >= model.attenuation(near));
        prop_assert!(model.attenuation(near).value() >= 0.0);
    }

    /// Attenuation increases with frequency at fixed distance.
    #[test]
    fn free_space_monotone_in_frequency(d in 10.0..10_000.0f64, f1 in 1.0..5.9f64, f2 in 1.0..5.9f64) {
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        let near = FreeSpace::new(Hertz::from_ghz(lo));
        let far = FreeSpace::new(Hertz::from_ghz(hi));
        prop_assert!(far.attenuation(Meters::new(d)) >= near.attenuation(Meters::new(d)));
    }

    /// Calibration adds exactly its constant at any distance.
    #[test]
    fn calibration_is_constant_offset(f in freq(), d in distance(), c in 0.0..60.0f64) {
        let base = FreeSpace::new(f);
        let calib = CalibratedFriis::new(f, Db::new(c));
        let delta = calib.attenuation(d) - base.attenuation(d);
        prop_assert!((delta.value() - c).abs() < 1e-9);
    }
}
