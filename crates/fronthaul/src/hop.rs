//! A single mmWave fronthaul hop.

use corridor_propagation::{FreeSpace, PathLoss};
use corridor_units::{Db, Dbm, Hertz, Meters};

use crate::{atmosphere, MmWaveBand};

/// One donor→service (or service→service) mmWave hop.
///
/// The hop carries the upconverted 100 MHz cell signal; for the repeater
/// chain to be transparent, the fronthaul SNR must comfortably exceed the
/// access-link SNR target (29 dB), so the requirement is 32 dB (3 dB
/// implementation margin). Every hop uses the prototype's radio: V-band
/// 60 GHz at the band's 40 dBm EIRP ceiling, a 42 dBi lens receive
/// antenna and an 8 dB receiver noise figure; only the hop length varies.
///
/// # Examples
///
/// ```
/// use corridor_fronthaul::FronthaulHop;
/// use corridor_units::Meters;
///
/// let hop = FronthaulHop::paper_default(Meters::new(200.0));
/// // clear sky: tens of dB of margin at the paper's node spacing
/// assert!(hop.clear_sky_margin().value() > 10.0);
/// // five-nines availability against rain in a temperate climate
/// assert!(hop.rain_availability() > 0.999);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FronthaulHop {
    distance: Meters,
}

impl FronthaulHop {
    const BAND: MmWaveBand = MmWaveBand::v_band_60ghz();
    const RX_ANTENNA_GAIN: Db = Db::new(42.0);
    const BANDWIDTH: Hertz = Hertz::from_mhz(100.0);
    const RX_NOISE_FIGURE: Db = Db::new(8.0);
    const REQUIRED_SNR: Db = Db::new(32.0);

    /// The prototype's hop over `distance` (see the type-level
    /// parameters).
    ///
    /// # Panics
    ///
    /// Panics if `distance` is not strictly positive.
    pub fn paper_default(distance: Meters) -> Self {
        assert!(distance.value() > 0.0, "hop distance must be positive");
        FronthaulHop { distance }
    }

    /// Thermal noise over the hop bandwidth including the receiver noise
    /// figure.
    pub fn noise_power(&self) -> Dbm {
        Dbm::new(-174.0 + 10.0 * Self::BANDWIDTH.value().log10()) + Self::RX_NOISE_FIGURE
    }

    /// Received power at a given rain rate.
    pub fn received_power(&self, rain_mm_h: f64) -> Dbm {
        let fspl = FreeSpace::new(Self::BAND.frequency()).attenuation(self.distance);
        let excess = atmosphere::excess_attenuation(
            self.distance,
            Self::BAND.oxygen_db_per_km(),
            atmosphere::rain_db_per_km(Self::BAND.frequency(), rain_mm_h),
        );
        Self::BAND.max_eirp() - fspl - excess + Self::RX_ANTENNA_GAIN
    }

    /// SNR at a given rain rate.
    pub fn snr(&self, rain_mm_h: f64) -> Db {
        self.received_power(rain_mm_h) - self.noise_power()
    }

    /// Margin over the required SNR under clear sky.
    pub fn clear_sky_margin(&self) -> Db {
        self.snr(0.0) - Self::REQUIRED_SNR
    }

    /// The heaviest rain rate (mm/h) the hop tolerates at zero margin,
    /// from the power-law rain model.
    pub fn max_rain_rate_mm_h(&self) -> f64 {
        let margin = self.clear_sky_margin().value();
        if margin <= 0.0 {
            return 0.0;
        }
        let km = self.distance.kilometers().value();
        // invert margin = gamma(R) * km via the power law at this band
        let gamma_needed = margin / km;
        let frequency = Self::BAND.frequency();
        let gamma_at_1mm = atmosphere::rain_db_per_km(frequency, 1.0).value();
        let gamma_at_50mm = atmosphere::rain_db_per_km(frequency, 50.0).value();
        let alpha = (gamma_at_50mm / gamma_at_1mm).ln() / 50f64.ln();
        (gamma_needed / gamma_at_1mm).powf(1.0 / alpha)
    }

    /// Fraction of the year the hop meets its required SNR, considering
    /// rain only (temperate European climate).
    pub fn rain_availability(&self) -> f64 {
        let max_rain = self.max_rain_rate_mm_h();
        if max_rain <= 0.0 {
            return 0.0;
        }
        // invert the exceedance curve R(p) = 32·(0.01/p)^0.55
        let p_percent = 0.01 * (32.0 / max_rain).powf(1.0 / 0.55);
        (1.0 - (p_percent / 100.0).min(1.0)).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_hop_budget_ballpark() {
        let hop = FronthaulHop::paper_default(Meters::new(200.0));
        // FSPL(200 m, 60 GHz) ≈ 114 dB; EIRP 40 + 42 dBi - 114 - 3 dB O2
        let rx = hop.received_power(0.0).value();
        assert!((rx - (-35.0)).abs() < 1.0, "rx {rx}");
        // noise: -174 + 80 + 8 = -86 dBm
        assert!((hop.noise_power().value() - (-86.0)).abs() < 0.1);
        let snr = hop.snr(0.0).value();
        assert!((snr - 51.0).abs() < 1.5, "snr {snr}");
    }

    #[test]
    fn margin_decreases_with_distance_and_rain() {
        let short = FronthaulHop::paper_default(Meters::new(200.0));
        let long = FronthaulHop::paper_default(Meters::new(600.0));
        assert!(short.clear_sky_margin() > long.clear_sky_margin());
        assert!(short.snr(25.0) < short.snr(0.0));
    }

    #[test]
    fn paper_spacing_survives_extreme_rain() {
        // the 200 m V-band hop has enough margin for >100 mm/h downpours
        let hop = FronthaulHop::paper_default(Meters::new(200.0));
        assert!(hop.max_rain_rate_mm_h() > 100.0);
        assert!(hop.rain_availability() > 0.9999);
    }

    #[test]
    fn dead_hop_has_zero_availability() {
        // 5 km of V-band: the oxygen absorption alone eats the budget
        let hop = FronthaulHop::paper_default(Meters::new(5000.0));
        assert!(hop.clear_sky_margin().value() < 0.0);
        assert_eq!(hop.max_rain_rate_mm_h(), 0.0);
        assert_eq!(hop.rain_availability(), 0.0);
    }

    #[test]
    fn accessors() {
        let hop = FronthaulHop::paper_default(Meters::new(200.0));
        assert_eq!(hop.clear_sky_margin(), hop.snr(0.0) - Db::new(32.0));
    }

    #[test]
    #[should_panic(expected = "distance must be positive")]
    fn zero_distance_rejected() {
        let _ = FronthaulHop::paper_default(Meters::ZERO);
    }
}
