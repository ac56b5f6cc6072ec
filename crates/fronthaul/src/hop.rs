//! A single mmWave fronthaul hop.

use corridor_propagation::{FreeSpace, PathLoss};
use corridor_units::{Db, Dbm, Hertz, Meters};

use crate::{atmosphere, MmWaveBand};

/// One donor→service (or service→service) mmWave hop.
///
/// The hop carries the upconverted 100 MHz cell signal; for the repeater
/// chain to be transparent, the fronthaul SNR must comfortably exceed the
/// access-link SNR target (29 dB), so the default requirement is 32 dB
/// (3 dB implementation margin).
///
/// # Examples
///
/// ```
/// use corridor_fronthaul::{FronthaulHop, MmWaveBand};
/// use corridor_units::Meters;
///
/// let hop = FronthaulHop::paper_default(Meters::new(200.0));
/// // clear sky: tens of dB of margin at the paper's node spacing
/// assert!(hop.clear_sky_margin().value() > 10.0);
/// // five-nines availability against rain in a temperate climate
/// assert!(hop.rain_availability() > 0.999);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FronthaulHop {
    band: MmWaveBand,
    distance: Meters,
    tx_eirp: Dbm,
    rx_antenna_gain: Db,
    bandwidth: Hertz,
    rx_noise_figure: Db,
    required_snr: Db,
}

impl FronthaulHop {
    /// The prototype's configuration: V-band 60 GHz at the full 40 dBm
    /// EIRP, a 42 dBi lens receive antenna, 100 MHz carrier, 8 dB noise
    /// figure, 32 dB required SNR.
    pub fn paper_default(distance: Meters) -> Self {
        FronthaulHop::new(MmWaveBand::v_band_60ghz(), distance)
    }

    /// A hop over `distance` in `band` with the default RF parameters,
    /// transmitting at the band's EIRP ceiling.
    ///
    /// # Panics
    ///
    /// Panics if `distance` is not strictly positive.
    pub fn new(band: MmWaveBand, distance: Meters) -> Self {
        assert!(distance.value() > 0.0, "hop distance must be positive");
        FronthaulHop {
            band,
            distance,
            tx_eirp: band.max_eirp(),
            rx_antenna_gain: Db::new(42.0),
            bandwidth: Hertz::from_mhz(100.0),
            rx_noise_figure: Db::new(8.0),
            required_snr: Db::new(32.0),
        }
    }

    /// Overrides the transmit EIRP (clamped to the band ceiling).
    #[must_use]
    pub fn with_tx_eirp(mut self, eirp: Dbm) -> Self {
        self.tx_eirp = if eirp > self.band.max_eirp() {
            self.band.max_eirp()
        } else {
            eirp
        };
        self
    }

    /// Overrides the required SNR.
    #[must_use]
    pub fn with_required_snr(mut self, snr: Db) -> Self {
        self.required_snr = snr;
        self
    }

    /// The band in use.
    pub fn band(&self) -> &MmWaveBand {
        &self.band
    }

    /// Hop length.
    pub fn distance(&self) -> Meters {
        self.distance
    }

    /// Transmit EIRP.
    pub fn tx_eirp(&self) -> Dbm {
        self.tx_eirp
    }

    /// The SNR the hop must deliver.
    pub fn required_snr(&self) -> Db {
        self.required_snr
    }

    /// Thermal noise over the hop bandwidth including the receiver noise
    /// figure.
    pub fn noise_power(&self) -> Dbm {
        Dbm::new(-174.0 + 10.0 * self.bandwidth.value().log10()) + self.rx_noise_figure
    }

    /// Received power at a given rain rate.
    pub fn received_power(&self, rain_mm_h: f64) -> Dbm {
        let fspl = FreeSpace::new(self.band.frequency()).attenuation(self.distance);
        let excess = atmosphere::excess_attenuation(
            self.distance,
            self.band.oxygen_db_per_km(),
            atmosphere::rain_db_per_km(self.band.frequency(), rain_mm_h),
        );
        self.tx_eirp - fspl - excess + self.rx_antenna_gain
    }

    /// SNR at a given rain rate.
    pub fn snr(&self, rain_mm_h: f64) -> Db {
        self.received_power(rain_mm_h) - self.noise_power()
    }

    /// Margin over the required SNR under clear sky.
    pub fn clear_sky_margin(&self) -> Db {
        self.snr(0.0) - self.required_snr
    }

    /// Margin over the required SNR at `rain_mm_h`.
    pub fn margin_in_rain(&self, rain_mm_h: f64) -> Db {
        self.snr(rain_mm_h) - self.required_snr
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
        let gamma_at_1mm = atmosphere::rain_db_per_km(self.band.frequency(), 1.0).value();
        let gamma_at_50mm = atmosphere::rain_db_per_km(self.band.frequency(), 50.0).value();
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
        assert!(short.margin_in_rain(25.0) < short.clear_sky_margin());
    }

    #[test]
    fn paper_spacing_survives_extreme_rain() {
        // the 200 m V-band hop has enough margin for >100 mm/h downpours
        let hop = FronthaulHop::paper_default(Meters::new(200.0));
        assert!(hop.max_rain_rate_mm_h() > 100.0);
        assert!(hop.rain_availability() > 0.9999);
    }

    #[test]
    fn e_band_reaches_farther() {
        let v = FronthaulHop::new(MmWaveBand::v_band_60ghz(), Meters::new(1000.0));
        let e = FronthaulHop::new(MmWaveBand::e_band_80ghz(), Meters::new(1000.0));
        // E-band: +15 dB EIRP and ~no oxygen absorption beat the extra FSPL
        assert!(e.clear_sky_margin() > v.clear_sky_margin());
    }

    #[test]
    fn eirp_clamped_to_band_ceiling() {
        let hop = FronthaulHop::paper_default(Meters::new(200.0)).with_tx_eirp(Dbm::new(60.0));
        assert_eq!(hop.tx_eirp(), Dbm::new(40.0));
    }

    #[test]
    fn dead_hop_has_zero_availability() {
        let hop = FronthaulHop::paper_default(Meters::new(200.0)).with_required_snr(Db::new(90.0));
        assert!(hop.clear_sky_margin().value() < 0.0);
        assert_eq!(hop.max_rain_rate_mm_h(), 0.0);
        assert_eq!(hop.rain_availability(), 0.0);
    }

    #[test]
    fn accessors() {
        let hop = FronthaulHop::paper_default(Meters::new(200.0));
        assert_eq!(hop.distance(), Meters::new(200.0));
        assert_eq!(hop.band().name(), "V-band 60 GHz");
        assert_eq!(hop.required_snr(), Db::new(32.0));
    }

    #[test]
    #[should_panic(expected = "distance must be positive")]
    fn zero_distance_rejected() {
        let _ = FronthaulHop::paper_default(Meters::ZERO);
    }
}
