//! Property-based tests for unit arithmetic invariants.

use corridor_units::prelude::*;
use proptest::prelude::*;

fn finite_db() -> impl Strategy<Value = f64> {
    -200.0..200.0f64
}

fn positive_linear() -> impl Strategy<Value = f64> {
    1e-12..1e12f64
}

proptest! {
    /// dB -> linear -> dB is the identity (within float tolerance).
    #[test]
    fn db_linear_round_trip(v in finite_db()) {
        let db = Db::new(v);
        prop_assert!((Db::from_linear(db.linear()).value() - v).abs() < 1e-9);
    }

    /// linear -> dB -> linear is the identity (relative tolerance).
    #[test]
    fn linear_db_round_trip(lin in positive_linear()) {
        let back = Db::from_linear(lin).linear();
        prop_assert!(((back - lin) / lin).abs() < 1e-9);
    }

    /// Adding decibels multiplies linear ratios.
    #[test]
    fn db_addition_is_linear_multiplication(a in -80.0..80.0f64, b in -80.0..80.0f64) {
        let sum = Db::new(a) + Db::new(b);
        let prod = Db::new(a).linear() * Db::new(b).linear();
        prop_assert!(((sum.linear() - prod) / prod).abs() < 1e-9);
    }

    /// Summing two powers is commutative and exceeds the larger operand.
    #[test]
    fn dbm_sum_commutative_and_monotone(a in -150.0..60.0f64, b in -150.0..60.0f64) {
        let pa = Dbm::new(a);
        let pb = Dbm::new(b);
        let ab = sum_power_dbm([pa, pb]).unwrap();
        let ba = sum_power_dbm([pb, pa]).unwrap();
        prop_assert!((ab.value() - ba.value()).abs() < 1e-9);
        prop_assert!(ab.value() >= a.max(b) - 1e-9);
        // summing two can add at most 3.0103 dB (equal powers)
        prop_assert!(ab.value() <= a.max(b) + 3.011);
    }

    /// sum_power_dbm over a list equals summing it pairwise in sequence.
    #[test]
    fn sum_power_matches_sequential_pairwise_sums(values in prop::collection::vec(-150.0..30.0f64, 1..12)) {
        let powers: Vec<Dbm> = values.iter().copied().map(Dbm::new).collect();
        let seq = powers[1..]
            .iter()
            .fold(powers[0], |acc, &p| sum_power_dbm([acc, p]).unwrap());
        let sum = sum_power_dbm(powers.iter().copied()).unwrap();
        prop_assert!((seq.value() - sum.value()).abs() < 1e-6);
    }

    /// Watts <-> dBm round trip.
    #[test]
    fn watts_dbm_round_trip(w in 1e-9..1e6f64) {
        let p = Dbm::from_milliwatts(w * 1e3);
        prop_assert!(((p.milliwatts() * 1e-3 - w) / w).abs() < 1e-9);
    }

    /// Energy integration is linear in duration.
    #[test]
    fn energy_linear_in_time(p in 0.0..1e4f64, h1 in 0.0..100.0f64, h2 in 0.0..100.0f64) {
        let power = Watts::new(p);
        let split = power * Hours::new(h1) + power * Hours::new(h2);
        let joint = power * Hours::new(h1 + h2);
        prop_assert!((split.value() - joint.value()).abs() < 1e-6);
    }

    /// Metres <-> kilometres round trip.
    #[test]
    fn length_round_trip(m in -1e7..1e7f64) {
        let len = Meters::new(m);
        prop_assert!((Meters::from(len.kilometers()).value() - m).abs() < 1e-6);
    }

    /// distance_to is symmetric, non-negative, and satisfies identity.
    #[test]
    fn distance_metric_properties(a in -1e6..1e6f64, b in -1e6..1e6f64) {
        let pa = Meters::new(a);
        let pb = Meters::new(b);
        prop_assert_eq!(pa.distance_to(pb), pb.distance_to(pa));
        prop_assert!(pa.distance_to(pb).value() >= 0.0);
        prop_assert_eq!(pa.distance_to(pa), Meters::ZERO);
    }

    /// Speed conversions round trip.
    #[test]
    fn speed_round_trip(kmh in 0.0..1000.0f64) {
        let v = KilometersPerHour::new(kmh);
        let back: KilometersPerHour = v.meters_per_second().into();
        prop_assert!((back.value() - kmh).abs() < 1e-9);
    }

    /// time = distance / speed is consistent with distance = speed * time.
    #[test]
    fn kinematics_consistent(d in 1.0..1e6f64, v in 1.0..200.0f64) {
        let dist = Meters::new(d);
        let speed = MetersPerSecond::new(v);
        let t = dist / speed;
        let back = speed * t;
        prop_assert!(((back.value() - d) / d).abs() < 1e-9);
    }

    /// Hours <-> seconds round trip.
    #[test]
    fn time_round_trip(h in 0.0..1e5f64) {
        let hours = Hours::new(h);
        prop_assert!((Hours::from(hours.seconds()).value() - h).abs() < 1e-9);
    }

    /// LoadFraction::new accepts exactly [0,1].
    #[test]
    fn load_fraction_validation(v in -2.0..3.0f64) {
        let result = LoadFraction::new(v);
        prop_assert_eq!(result.is_ok(), (0.0..=1.0).contains(&v));
    }
}
