//! Simplified atmospheric attenuation for mmWave links.
//!
//! Rain attenuation follows the ITU-R P.838 power-law form
//! `γ = k · R^α` (dB/km) with coefficients interpolated for the two bands
//! of interest; gaseous absorption is carried by the band preset. The
//! goal is hop-budget realism at the few-hundred-metre scale, not
//! frequency-plan accuracy.

use corridor_units::{Db, Hertz, Meters};

/// ITU-R P.838-style specific rain attenuation (dB/km) at `frequency`
/// for a rain rate of `rain_mm_h` (mm/h).
///
/// Coefficients are log-interpolated between anchor points at 30, 60, 80
/// and 100 GHz (horizontal polarization).
///
/// # Examples
///
/// ```
/// use corridor_fronthaul::atmosphere;
/// use corridor_units::Hertz;
///
/// // heavy rain at 60 GHz: roughly 10-12 dB/km
/// let gamma = atmosphere::rain_db_per_km(Hertz::from_ghz(60.0), 25.0);
/// assert!(gamma.value() > 8.0 && gamma.value() < 14.0);
/// ```
pub fn rain_db_per_km(frequency: Hertz, rain_mm_h: f64) -> Db {
    assert!(rain_mm_h >= 0.0, "rain rate must be non-negative");
    if rain_mm_h == 0.0 {
        return Db::ZERO;
    }
    // anchor points (f GHz, k, alpha), ITU-R P.838-3 ballpark
    const ANCHORS: [(f64, f64, f64); 4] = [
        (30.0, 0.2403, 0.9485),
        (60.0, 0.8606, 0.7656),
        (80.0, 1.1946, 0.7077),
        (100.0, 1.3701, 0.6815),
    ];
    let f = frequency.gigahertz().clamp(ANCHORS[0].0, ANCHORS[3].0);
    let (k, alpha) = interpolate(f, &ANCHORS);
    Db::new(k * rain_mm_h.powf(alpha))
}

fn interpolate(f: f64, anchors: &[(f64, f64, f64)]) -> (f64, f64) {
    for pair in anchors.windows(2) {
        let (f0, k0, a0) = pair[0];
        let (f1, k1, a1) = pair[1];
        if f <= f1 {
            let t = (f - f0) / (f1 - f0);
            return (k0 + t * (k1 - k0), a0 + t * (a1 - a0));
        }
    }
    let last = anchors[anchors.len() - 1];
    (last.1, last.2)
}

/// Total weather + gaseous excess attenuation over a hop of `distance`:
/// `(γ_rain + γ_oxygen) · d`.
pub fn excess_attenuation(distance: Meters, oxygen_db_per_km: Db, rain_db_per_km: Db) -> Db {
    let km = distance.kilometers().value();
    Db::new((oxygen_db_per_km.value() + rain_db_per_km.value()) * km)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_rain_no_attenuation() {
        assert_eq!(rain_db_per_km(Hertz::from_ghz(60.0), 0.0), Db::ZERO);
    }

    #[test]
    fn rain_attenuation_grows_with_rate_and_frequency() {
        let f60 = Hertz::from_ghz(60.0);
        let light = rain_db_per_km(f60, 5.0);
        let heavy = rain_db_per_km(f60, 50.0);
        assert!(heavy > light);
        let f80 = Hertz::from_ghz(80.0);
        assert!(rain_db_per_km(f80, 25.0) > rain_db_per_km(f60, 25.0));
    }

    #[test]
    fn anchor_values_ballpark() {
        // 60 GHz, 25 mm/h: k·R^α = 0.8606·25^0.7656 ≈ 10.1 dB/km
        let g = rain_db_per_km(Hertz::from_ghz(60.0), 25.0).value();
        assert!((g - 10.1).abs() < 0.5, "got {g}");
    }

    #[test]
    fn excess_attenuation_scales_with_distance() {
        let rain = rain_db_per_km(Hertz::from_ghz(60.0), 25.0);
        let oxy = Db::new(15.0);
        let short = excess_attenuation(Meters::new(200.0), oxy, rain);
        let long = excess_attenuation(Meters::new(400.0), oxy, rain);
        assert!((long.value() - 2.0 * short.value()).abs() < 1e-9);
        // 200 m at (15 + 10.1) dB/km ≈ 5 dB
        assert!((short.value() - 5.02).abs() < 0.2);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rain_rejected() {
        let _ = rain_db_per_km(Hertz::from_ghz(60.0), -1.0);
    }
}
