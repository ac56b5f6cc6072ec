//! Integration tests for the public `WeatherGenerator` API: edge inputs,
//! bounds, seeding and statistical shape.

use corridor_solar::{climate, WeatherGenerator};

#[test]
fn year_has_365_days_for_every_paper_region() {
    for location in climate::paper_regions() {
        let mut weather = WeatherGenerator::new(location, 1);
        assert_eq!(weather.daily_multipliers_for_year().len(), 365);
    }
}

#[test]
fn zero_variability_degenerates_to_normals() {
    let mut weather = WeatherGenerator::new(climate::berlin(), 99).with_variability(0.0);
    assert!(weather
        .daily_multipliers_for_year()
        .iter()
        .all(|&m| m == 1.0));
}

#[test]
fn multipliers_respect_the_documented_bounds_even_at_extreme_variability() {
    for variability in [0.1, 1.0, 5.0, 50.0] {
        let mut weather = WeatherGenerator::new(climate::madrid(), 3).with_variability(variability);
        for m in weather.daily_multipliers_for_year() {
            assert!(
                (WeatherGenerator::MIN_MULTIPLIER..=WeatherGenerator::MAX_MULTIPLIER).contains(&m),
                "variability {variability}: multiplier {m}"
            );
        }
    }
}

#[test]
fn same_seed_same_year_different_seed_different_year() {
    let a = WeatherGenerator::new(climate::lyon(), 7).daily_multipliers_for_year();
    let b = WeatherGenerator::new(climate::lyon(), 7).daily_multipliers_for_year();
    let c = WeatherGenerator::new(climate::lyon(), 8).daily_multipliers_for_year();
    assert_eq!(a, b);
    assert_ne!(a, c);
}

#[test]
fn consecutive_years_from_one_generator_differ() {
    // the generator keeps drawing from its stream: no accidental reset
    let mut weather = WeatherGenerator::new(climate::vienna(), 5);
    let first = weather.daily_multipliers_for_year();
    let second = weather.daily_multipliers_for_year();
    assert_ne!(first, second);
}

#[test]
fn persistence_increases_lag1_autocorrelation_monotonically() {
    // monotonicity of the AR(1) knob: higher persistence, higher
    // day-to-day correlation
    let autocorr = |persistence: f64| {
        let mut weather = WeatherGenerator::new(climate::berlin(), 17)
            .with_variability(0.5)
            .with_persistence(persistence);
        let year = weather.daily_multipliers_for_year();
        let mean: f64 = year.iter().sum::<f64>() / year.len() as f64;
        let num: f64 = year.windows(2).map(|p| (p[0] - mean) * (p[1] - mean)).sum();
        let den: f64 = year.iter().map(|m| (m - mean) * (m - mean)).sum();
        num / den
    };
    let low = autocorr(0.0);
    let mid = autocorr(0.5);
    let high = autocorr(0.95);
    assert!(low < mid, "{low} !< {mid}");
    assert!(mid < high, "{mid} !< {high}");
    assert!(high > 0.8, "high-persistence autocorrelation {high}");
}

#[test]
fn variability_widens_the_spread() {
    let spread = |variability: f64| {
        let mut weather =
            WeatherGenerator::new(climate::madrid(), 23).with_variability(variability);
        let year = weather.daily_multipliers_for_year();
        let mean: f64 = year.iter().sum::<f64>() / year.len() as f64;
        (year.iter().map(|m| (m - mean) * (m - mean)).sum::<f64>() / year.len() as f64).sqrt()
    };
    let narrow = spread(0.1);
    let wide = spread(0.9);
    assert!(narrow < wide, "{narrow} !< {wide}");
}

#[test]
#[should_panic(expected = "variability must be non-negative")]
fn negative_variability_rejected() {
    let _ = WeatherGenerator::new(climate::berlin(), 0).with_variability(-0.1);
}

#[test]
#[should_panic(expected = "persistence must be in [0, 1)")]
fn unit_persistence_rejected() {
    let _ = WeatherGenerator::new(climate::berlin(), 0).with_persistence(1.0);
}
