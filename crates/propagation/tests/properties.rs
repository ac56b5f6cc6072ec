//! Property-based tests for path-loss model invariants.

use corridor_propagation::{CalibratedFriis, FreeSpace, LogDistance, PathLoss, TwoRayGround};
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

    /// Log-distance with n = 2 coincides with free space everywhere.
    #[test]
    fn log_distance_reduces_to_friis(f in freq(), d in distance()) {
        let ld = LogDistance::new(f, 2.0);
        let fs = FreeSpace::new(f);
        let a = ld.attenuation(d).value();
        let b = fs.attenuation(d).value();
        prop_assert!((a - b).abs() < 1e-9);
    }

    /// Log-distance attenuation is monotone in the exponent beyond d0.
    #[test]
    fn log_distance_monotone_in_exponent(f in freq(), d in 2.0..10_000.0f64, n1 in 1.5..4.0f64, n2 in 1.5..4.0f64) {
        let (lo, hi) = if n1 <= n2 { (n1, n2) } else { (n2, n1) };
        let a = LogDistance::new(f, lo).attenuation(Meters::new(d));
        let b = LogDistance::new(f, hi).attenuation(Meters::new(d));
        prop_assert!(b >= a);
    }

    /// Two-ray never predicts less loss than free space.
    #[test]
    fn two_ray_at_least_free_space(f in freq(), d in distance(), ht in 5.0..40.0f64, hr in 1.0..5.0f64) {
        let tr = TwoRayGround::new(f, Meters::new(ht), Meters::new(hr));
        let fs = FreeSpace::new(f);
        prop_assert!(tr.attenuation(d).value() >= fs.attenuation(d).value() - 1e-9);
    }

    /// Two-ray attenuation is monotone in distance.
    #[test]
    fn two_ray_monotone(f in freq(), d1 in distance(), d2 in distance()) {
        let tr = TwoRayGround::new(f, Meters::new(15.0), Meters::new(3.0));
        let (near, far) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(tr.attenuation(far) >= tr.attenuation(near));
    }
}
