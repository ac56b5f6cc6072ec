//! Property-based tests for the mmWave fronthaul substrate.

use corridor_fronthaul::{atmosphere, FronthaulChain, FronthaulHop};
use corridor_units::{Hertz, Meters};
use proptest::prelude::*;

proptest! {
    /// Rain attenuation is non-negative and monotone in the rain rate.
    #[test]
    fn rain_monotone(f in 30.0..100.0f64, r1 in 0.0..150.0f64, r2 in 0.0..150.0f64) {
        let freq = Hertz::from_ghz(f);
        let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        let g_lo = atmosphere::rain_db_per_km(freq, lo);
        let g_hi = atmosphere::rain_db_per_km(freq, hi);
        prop_assert!(g_lo.value() >= 0.0);
        prop_assert!(g_hi >= g_lo);
    }

    /// Hop SNR decreases monotonically with distance and rain.
    #[test]
    fn hop_snr_monotone(d1 in 50.0..2000.0f64, d2 in 50.0..2000.0f64, rain in 0.0..100.0f64) {
        let (near, far) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        let hop_near = FronthaulHop::paper_default(Meters::new(near));
        let hop_far = FronthaulHop::paper_default(Meters::new(far));
        prop_assert!(hop_near.snr(rain) >= hop_far.snr(rain));
        prop_assert!(hop_near.snr(0.0) >= hop_near.snr(rain));
    }

    /// The max-tolerated rain rate is consistent with the margin: at that
    /// rate the margin is ~zero, just below it is positive.
    #[test]
    fn max_rain_rate_consistent(d in 100.0..800.0f64) {
        let hop = FronthaulHop::paper_default(Meters::new(d));
        let max_rain = hop.max_rain_rate_mm_h();
        if max_rain > 0.0 && max_rain < 500.0 {
            // the margin over the required SNR at a given rain rate
            let margin = |rain: f64| (hop.clear_sky_margin() - (hop.snr(0.0) - hop.snr(rain))).value();
            prop_assert!(margin(max_rain * 0.95) > -0.5);
            prop_assert!(margin(max_rain * 1.05) < 0.5);
        }
    }

    /// Availability is a probability and monotone in the clear-sky margin.
    #[test]
    fn availability_bounded(d1 in 100.0..1500.0f64, d2 in 100.0..1500.0f64) {
        let (near, far) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        let a_near = FronthaulHop::paper_default(Meters::new(near)).rain_availability();
        let a_far = FronthaulHop::paper_default(Meters::new(far)).rain_availability();
        prop_assert!((0.0..=1.0).contains(&a_near));
        prop_assert!((0.0..=1.0).contains(&a_far));
        prop_assert!(a_near >= a_far - 1e-12);
    }

    /// Daisy chains over evenly spaced nodes have hop count = node count,
    /// and their worst margin is the longest hop's: the donor gap or the
    /// node spacing, never more than half the ISD.
    #[test]
    fn daisy_chain_structure(n in 1usize..10, isd in 1400.0..3000.0f64) {
        let spacing = 200.0;
        let span = spacing * (n - 1) as f64;
        prop_assume!(span < isd - 100.0);
        let first = (isd - span) / 2.0;
        let positions: Vec<Meters> =
            (0..n).map(|i| Meters::new(first + spacing * i as f64)).collect();
        let report = FronthaulChain::for_segment(
            &positions, Meters::new(isd)).evaluate();
        prop_assert_eq!(report.hop_count, n);
        let margin = |d: f64| FronthaulHop::paper_default(Meters::new(d)).clear_sky_margin().value();
        // every daisy hop is at most the donor gap, which is < isd/2
        prop_assert!(report.worst_margin_db >= margin(isd / 2.0) - 1e-9);
        let longest = if n == 1 { first } else { first.max(spacing) };
        prop_assert!((report.worst_margin_db - margin(longest)).abs() < 1e-9);
    }
}
