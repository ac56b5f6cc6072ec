//! Calibrated Shannon-bound throughput mapping (3GPP TR 36.942, A.2).

use corridor_units::Db;

/// Throughput as a function of SNR, per the calibrated Shannon bound of
/// 3GPP TR 36.942 Annex A.2:
///
/// ```text
/// Thr(SNR) = 0                        SNR < SNR_min
///          = α · log2(1 + SNR)        SNR_min ≤ SNR, below the cap
///          = Thr_MAX                  once α·log2(1+SNR) ≥ Thr_MAX
/// ```
///
/// The paper instantiates it with the attenuation factor `α = 0.6` and the
/// maximum spectral efficiency of 5G NR, `Thr_MAX = 5.84 bps/Hz`; with those
/// values the cap is reached at SNR ≈ 29.3 dB (the paper quotes
/// "SNR > 29 dB").
///
/// # Examples
///
/// ```
/// use corridor_link::ThroughputModel;
/// use corridor_units::Db;
///
/// let m = ThroughputModel::nr_default();
/// assert_eq!(m.spectral_efficiency(Db::new(-15.0)), 0.0);
/// assert_eq!(m.spectral_efficiency(Db::new(40.0)), 5.84);
/// assert!((m.peak_snr().value() - 29.3).abs() < 0.05);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputModel {
    alpha: f64,
    max_spectral_efficiency: f64,
    snr_min: Db,
}

impl ThroughputModel {
    /// The paper's 5G NR parameters: `α = 0.6`, `Thr_MAX = 5.84 bps/Hz`,
    /// `SNR_min = −10 dB`.
    pub const fn nr_default() -> Self {
        ThroughputModel {
            alpha: 0.6,
            max_spectral_efficiency: 5.84,
            snr_min: Db::new(-10.0),
        }
    }

    /// Spectral efficiency in bps/Hz at `snr`.
    pub fn spectral_efficiency(&self, snr: Db) -> f64 {
        if snr < self.snr_min {
            return 0.0;
        }
        let shannon = self.alpha * (1.0 + snr.linear()).log2();
        shannon.min(self.max_spectral_efficiency)
    }

    /// The exact SNR at which the cap is reached:
    /// `2^(Thr_MAX / α) − 1`.
    pub fn peak_snr(&self) -> Db {
        Db::from_linear(2f64.powf(self.max_spectral_efficiency / self.alpha) - 1.0)
    }

    /// True if `snr` delivers the full peak rate.
    pub fn is_peak(&self, snr: Db) -> bool {
        snr >= self.peak_snr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_of_the_curve() {
        let m = ThroughputModel::nr_default();
        // below SNR_min: zero
        assert_eq!(m.spectral_efficiency(Db::new(-10.1)), 0.0);
        // at SNR_min: alpha * log2(1 + 0.1) = 0.0825
        let at_min = m.spectral_efficiency(Db::new(-10.0));
        assert!((at_min - 0.6 * (1.1f64).log2()).abs() < 1e-9);
        // mid-range: 10 dB -> 0.6*log2(11) = 2.076
        let mid = m.spectral_efficiency(Db::new(10.0));
        assert!((mid - 2.0758).abs() < 1e-3);
        // capped
        assert_eq!(m.spectral_efficiency(Db::new(35.0)), 5.84);
    }

    #[test]
    fn peak_snr_is_about_29_3_db() {
        let m = ThroughputModel::nr_default();
        let peak = m.peak_snr().value();
        assert!((peak - 29.3).abs() < 0.05, "got {peak}");
        assert!(m.is_peak(Db::new(29.31)));
        assert!(!m.is_peak(Db::new(29.0)));
    }

    #[test]
    fn continuous_at_cap() {
        let m = ThroughputModel::nr_default();
        let just_below = m.spectral_efficiency(m.peak_snr() - Db::new(0.001));
        assert!((just_below - 5.84).abs() < 0.01);
    }

    #[test]
    fn monotone_nondecreasing() {
        let m = ThroughputModel::nr_default();
        let mut last = 0.0;
        for snr_db in -150..600 {
            let se = m.spectral_efficiency(Db::new(f64::from(snr_db) / 10.0));
            assert!(se >= last);
            last = se;
        }
    }
}
