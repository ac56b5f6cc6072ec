//! The corridor SNR model (paper eq. (2)).

use corridor_propagation::PathLoss;
use corridor_units::{sum_power_dbm, Db, Dbm, Meters};

use crate::{NrCarrier, SignalSource};

/// SNR along the track, combining every signal source and noise contributor.
///
/// Implements paper eq. (2):
///
/// ```text
///            P_HP,left(d) + P_HP,right(d) + Σ P_LP,n(d)
/// SNR(d) = ─────────────────────────────────────────────
///            N_RSRP · NF_MT + Σ N_LP,n(d)
/// ```
///
/// where the numerator sums the *linear* received powers of all sources and
/// the denominator adds the terminal's thermal noise (floor × noise figure)
/// and the amplified noise received from every repeater.
///
/// The linear cell is single-frequency: all sources carry the *same* cell
/// signal, so their powers combine constructively (a distributed antenna
/// system), not as interference.
///
/// # Examples
///
/// ```
/// use corridor_link::{NrCarrier, SignalSource, SnrModel};
/// use corridor_propagation::CalibratedFriis;
/// use corridor_units::{Db, Dbm, Hertz, Meters};
///
/// let hp = CalibratedFriis::new(Hertz::from_ghz(3.7), Db::new(33.0));
/// let model = SnrModel::new(NrCarrier::paper_100mhz())
///     .with_source(SignalSource::new(Meters::ZERO, Dbm::new(28.8), hp));
/// // eq. (2): the total signal over the total noise
/// let at = Meters::new(250.0);
/// let snr = model.total_signal_at(at).unwrap() - model.total_noise_at(at);
/// assert!(snr.value() > 25.0 && snr.value() < 40.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SnrModel<M> {
    carrier: NrCarrier,
    noise_floor: Dbm,
    sources: Vec<SignalSource<M>>,
}

impl<M: PathLoss> SnrModel<M> {
    /// Paper value: thermal noise floor per subcarrier, −132 dBm.
    pub const PAPER_NOISE_FLOOR: Dbm = Dbm::new(-132.0);
    /// Paper value: mobile terminal noise figure, 5 dB.
    pub const PAPER_TERMINAL_NF: Db = Db::new(5.0);

    /// Creates an empty model with the paper's noise constants
    /// (−132 dBm floor, 5 dB terminal noise figure).
    pub fn new(carrier: NrCarrier) -> Self {
        SnrModel {
            carrier,
            noise_floor: Self::PAPER_NOISE_FLOOR,
            sources: Vec::new(),
        }
    }

    /// Overrides the per-subcarrier thermal noise floor `N_RSRP`.
    #[must_use]
    pub fn with_noise_floor(mut self, noise_floor: Dbm) -> Self {
        self.noise_floor = noise_floor;
        self
    }

    /// Adds a source (builder style).
    #[must_use]
    pub fn with_source(mut self, source: SignalSource<M>) -> Self {
        self.sources.push(source);
        self
    }

    /// Adds a source in place.
    pub fn add_source(&mut self, source: SignalSource<M>) {
        self.sources.push(source);
    }

    /// All signal sources.
    pub fn sources(&self) -> &[SignalSource<M>] {
        &self.sources
    }

    /// The terminal's own noise: `N_RSRP · NF_MT`, independent of position.
    pub fn terminal_noise(&self) -> Dbm {
        self.noise_floor + Self::PAPER_TERMINAL_NF
    }

    /// Per-source RSRP at track position `at`.
    pub fn rsrp_per_source(&self, at: Meters) -> Vec<Dbm> {
        self.sources.iter().map(|s| s.rsrp_at(at)).collect()
    }

    /// Total received signal power at `at` (linear sum of all sources), or
    /// `None` if the model has no sources.
    pub fn total_signal_at(&self, at: Meters) -> Option<Dbm> {
        sum_power_dbm(self.sources.iter().map(|s| s.rsrp_at(at)))
    }

    /// Total noise power at `at`: terminal noise plus every repeater's
    /// received re-emitted noise.
    pub fn total_noise_at(&self, at: Meters) -> Dbm {
        let repeater_noise = self.sources.iter().filter_map(|s| s.received_noise_at(at));
        sum_power_dbm(repeater_noise.chain(std::iter::once(self.terminal_noise())))
            .unwrap_or_else(|| self.terminal_noise())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corridor_propagation::CalibratedFriis;
    use corridor_units::Hertz;

    fn hp_model() -> CalibratedFriis {
        CalibratedFriis::new(Hertz::from_ghz(3.7), Db::new(33.0))
    }

    fn lp_model() -> CalibratedFriis {
        CalibratedFriis::new(Hertz::from_ghz(3.7), Db::new(20.0))
    }

    /// Eq. (2): the total signal over the total noise, `None` without
    /// sources.
    fn snr_at(m: &SnrModel<CalibratedFriis>, at: Meters) -> Option<Db> {
        Some(m.total_signal_at(at)? - m.total_noise_at(at))
    }

    fn hp_pair(isd: f64) -> SnrModel<CalibratedFriis> {
        SnrModel::new(NrCarrier::paper_100mhz())
            .with_source(SignalSource::new(Meters::ZERO, Dbm::new(28.81), hp_model()))
            .with_source(SignalSource::new(
                Meters::new(isd),
                Dbm::new(28.81),
                hp_model(),
            ))
    }

    #[test]
    fn empty_model_has_no_snr() {
        let m: SnrModel<CalibratedFriis> = SnrModel::new(NrCarrier::paper_100mhz());
        assert_eq!(snr_at(&m, Meters::ZERO), None);
        assert_eq!(m.total_signal_at(Meters::ZERO), None);
    }

    #[test]
    fn terminal_noise_is_paper_value() {
        let m = hp_pair(500.0);
        assert_eq!(m.terminal_noise(), Dbm::new(-127.0));
    }

    #[test]
    fn conventional_midpoint_snr_exceeds_peak_threshold() {
        // At ISD 500 m the paper's conventional corridor maintains peak rate.
        let m = hp_pair(500.0);
        let snr = snr_at(&m, Meters::new(250.0)).unwrap();
        assert!(snr.value() > 29.0, "got {snr}");
    }

    #[test]
    fn snr_symmetric_for_symmetric_deployment() {
        let m = hp_pair(500.0);
        let a = snr_at(&m, Meters::new(100.0)).unwrap();
        let b = snr_at(&m, Meters::new(400.0)).unwrap();
        assert!((a.value() - b.value()).abs() < 1e-9);
    }

    #[test]
    fn second_source_never_decreases_snr_without_noise() {
        let single = SnrModel::new(NrCarrier::paper_100mhz()).with_source(SignalSource::new(
            Meters::ZERO,
            Dbm::new(28.81),
            hp_model(),
        ));
        let pair = hp_pair(500.0);
        for d in [50.0, 150.0, 250.0, 400.0] {
            let s1 = snr_at(&single, Meters::new(d)).unwrap();
            let s2 = snr_at(&pair, Meters::new(d)).unwrap();
            assert!(s2 >= s1, "at {d} m: {s2} < {s1}");
        }
    }

    #[test]
    fn repeater_noise_raises_noise_level() {
        let repeater = SignalSource::new(Meters::new(250.0), Dbm::new(4.81), lp_model())
            .with_emitted_noise(Dbm::new(-124.0));
        let without = hp_pair(500.0);
        let with = without.clone().with_source(repeater);
        let at = Meters::new(250.0);
        assert!(with.total_noise_at(at) > without.total_noise_at(at));
        // ... but terminal noise still dominates far from the repeater,
        // since the emitted noise is re-attenuated by the path loss.
        let far = Meters::new(10.0);
        let delta = with.total_noise_at(far) - without.total_noise_at(far);
        assert!(delta.value() < 0.1, "noise delta {delta} too large");
    }

    #[test]
    fn builder_accessors() {
        let m = hp_pair(500.0).with_noise_floor(Dbm::new(-129.2));
        assert_eq!(m.sources().len(), 2);
        assert_eq!(m.rsrp_per_source(Meters::new(100.0)).len(), 2);
        let mut m2 = m.clone();
        m2.add_source(SignalSource::new(
            Meters::new(250.0),
            Dbm::new(4.81),
            lp_model(),
        ));
        assert_eq!(m2.sources().len(), 3);
    }

    #[test]
    fn total_signal_matches_manual_sum() {
        let m = hp_pair(2400.0);
        let at = Meters::new(777.0);
        let manual = corridor_units::sum_power_dbm(m.rsrp_per_source(at)).unwrap();
        let total = m.total_signal_at(at).unwrap();
        assert!((total.value() - manual.value()).abs() < 1e-12);
    }
}
