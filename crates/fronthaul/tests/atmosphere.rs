//! Integration tests for the public `atmosphere` API: edge inputs,
//! monotonicity and scaling of the ITU-R-style attenuation helpers.

use corridor_fronthaul::atmosphere;
use corridor_units::{Db, Hertz, Meters};

#[test]
fn zero_rain_means_zero_attenuation_at_every_frequency() {
    for ghz in [30.0, 45.0, 60.0, 80.0, 100.0] {
        assert_eq!(
            atmosphere::rain_db_per_km(Hertz::from_ghz(ghz), 0.0),
            Db::ZERO
        );
    }
}

#[test]
fn rain_attenuation_is_monotone_in_rain_rate() {
    let f = Hertz::from_ghz(60.0);
    let mut last = Db::ZERO;
    for rate in [0.5, 1.0, 5.0, 10.0, 25.0, 50.0, 100.0] {
        let gamma = atmosphere::rain_db_per_km(f, rate);
        assert!(gamma > last, "rate {rate}: {gamma} !> {last}");
        last = gamma;
    }
}

#[test]
fn rain_attenuation_is_monotone_in_frequency_over_the_anchored_band() {
    let mut last = Db::ZERO;
    for ghz in [30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0] {
        let gamma = atmosphere::rain_db_per_km(Hertz::from_ghz(ghz), 25.0);
        assert!(gamma > last, "{ghz} GHz: {gamma} !> {last}");
        last = gamma;
    }
}

#[test]
fn out_of_band_frequencies_clamp_to_the_anchors() {
    // below 30 GHz and above 100 GHz the coefficients saturate
    let low = atmosphere::rain_db_per_km(Hertz::from_ghz(10.0), 25.0);
    let at30 = atmosphere::rain_db_per_km(Hertz::from_ghz(30.0), 25.0);
    assert_eq!(low, at30);
    let high = atmosphere::rain_db_per_km(Hertz::from_ghz(150.0), 25.0);
    let at100 = atmosphere::rain_db_per_km(Hertz::from_ghz(100.0), 25.0);
    assert_eq!(high, at100);
}

#[test]
fn interpolation_is_continuous_at_the_anchor_points() {
    for anchor_ghz in [60.0, 80.0] {
        let below = atmosphere::rain_db_per_km(Hertz::from_ghz(anchor_ghz - 1e-6), 25.0);
        let at = atmosphere::rain_db_per_km(Hertz::from_ghz(anchor_ghz), 25.0);
        let above = atmosphere::rain_db_per_km(Hertz::from_ghz(anchor_ghz + 1e-6), 25.0);
        assert!(
            (below.value() - at.value()).abs() < 1e-3,
            "{anchor_ghz} GHz"
        );
        assert!(
            (above.value() - at.value()).abs() < 1e-3,
            "{anchor_ghz} GHz"
        );
    }
}

#[test]
fn excess_attenuation_is_linear_in_distance_and_additive_in_gammas() {
    let oxy = Db::new(15.0);
    let rain = Db::new(10.0);
    let half = atmosphere::excess_attenuation(Meters::new(100.0), oxy, rain);
    let full = atmosphere::excess_attenuation(Meters::new(200.0), oxy, rain);
    assert!((full.value() - 2.0 * half.value()).abs() < 1e-12);
    // additivity: oxygen-only plus rain-only equals combined
    let oxy_only = atmosphere::excess_attenuation(Meters::new(200.0), oxy, Db::ZERO);
    let rain_only = atmosphere::excess_attenuation(Meters::new(200.0), Db::ZERO, rain);
    assert!((oxy_only.value() + rain_only.value() - full.value()).abs() < 1e-12);
    // zero-length hop: no excess loss
    assert_eq!(
        atmosphere::excess_attenuation(Meters::ZERO, oxy, rain),
        Db::ZERO
    );
}

#[test]
#[should_panic(expected = "rain rate must be non-negative")]
fn negative_rain_rate_rejected() {
    let _ = atmosphere::rain_db_per_km(Hertz::from_ghz(60.0), -0.1);
}
