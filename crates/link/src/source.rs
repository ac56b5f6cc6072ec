//! Signal sources along the corridor.

use corridor_propagation::PathLoss;
use corridor_units::{Db, Dbm, Meters};

/// A downlink transmitter at a position along the track.
///
/// Both high-power RRHs and low-power repeater service nodes are
/// `SignalSource`s; they differ in their per-subcarrier RSTP, their
/// calibrated path-loss model and — for repeaters — the amplified noise
/// they re-emit ([`SignalSource::with_emitted_noise`]).
///
/// The generic parameter `M` is the path-loss model; using one model type
/// with different calibrations (as the paper does) keeps sources `Copy` and
/// collections homogeneous, while `M = Box<dyn PathLoss + Send + Sync>`
/// allows heterogeneous mixes.
///
/// # Examples
///
/// ```
/// use corridor_link::SignalSource;
/// use corridor_propagation::CalibratedFriis;
/// use corridor_units::{Db, Dbm, Meters, Hertz};
///
/// let lp_model = CalibratedFriis::new(Hertz::from_ghz(3.7), Db::new(20.0));
/// // A repeater at 600 m with 4.8 dBm/subcarrier RSTP and 8 dB noise figure
/// // applied to a -132 dBm noise floor:
/// let repeater = SignalSource::new(Meters::new(600.0), Dbm::new(4.8), lp_model)
///     .with_emitted_noise(Dbm::new(-132.0) + Db::new(8.0));
/// let rsrp = repeater.rsrp_at(Meters::new(700.0));
/// assert!(rsrp.value() < 4.8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignalSource<M> {
    position: Meters,
    rstp: Dbm,
    path_loss: M,
    emitted_noise: Option<Dbm>,
}

impl<M: PathLoss> SignalSource<M> {
    /// Creates a source at `position` transmitting `rstp` per subcarrier
    /// through `path_loss`.
    pub fn new(position: Meters, rstp: Dbm, path_loss: M) -> Self {
        SignalSource {
            position,
            rstp,
            path_loss,
            emitted_noise: None,
        }
    }

    /// Marks this source as re-emitting amplified noise at `noise` dBm per
    /// subcarrier (at the transmit port). Per the paper's eq. (2) the noise
    /// reaching a receiver is `noise / L(d)` with the same port-to-port
    /// attenuation as the signal.
    #[must_use]
    pub fn with_emitted_noise(mut self, noise: Dbm) -> Self {
        self.emitted_noise = Some(noise);
        self
    }

    /// Port-to-port attenuation from this source to track position `at`.
    pub fn attenuation_to(&self, at: Meters) -> Db {
        self.path_loss.attenuation(self.position.distance_to(at))
    }

    /// Received per-subcarrier power (RSRP) at track position `at`.
    pub fn rsrp_at(&self, at: Meters) -> Dbm {
        self.rstp - self.attenuation_to(at)
    }

    /// Received re-emitted noise at `at`, if this source emits noise.
    pub fn received_noise_at(&self, at: Meters) -> Option<Dbm> {
        self.emitted_noise.map(|n| n - self.attenuation_to(at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corridor_propagation::CalibratedFriis;
    use corridor_units::Hertz;

    const LP_RSTP: Dbm = Dbm::new(4.81);

    fn lp_model() -> CalibratedFriis {
        CalibratedFriis::new(Hertz::from_ghz(3.7), Db::new(20.0))
    }

    fn lp_source() -> SignalSource<CalibratedFriis> {
        SignalSource::new(Meters::new(600.0), LP_RSTP, lp_model())
    }

    #[test]
    fn rsrp_is_rstp_minus_attenuation() {
        let s = lp_source();
        let at = Meters::new(700.0);
        let expected = LP_RSTP - lp_model().attenuation(Meters::new(100.0));
        assert_eq!(s.rsrp_at(at), expected);
    }

    #[test]
    fn rsrp_symmetric_around_source() {
        let s = lp_source();
        assert_eq!(s.rsrp_at(Meters::new(500.0)), s.rsrp_at(Meters::new(700.0)));
    }

    #[test]
    fn no_noise_by_default() {
        let s = lp_source();
        assert_eq!(s.received_noise_at(Meters::new(700.0)), None);
    }

    #[test]
    fn emitted_noise_propagates_like_signal() {
        let s = lp_source().with_emitted_noise(Dbm::new(-124.0));
        let at = Meters::new(800.0);
        let noise = s.received_noise_at(at).unwrap();
        let signal = s.rsrp_at(at);
        // signal-to-own-noise ratio is constant: rstp - emitted_noise
        assert!(((signal - noise).value() - (4.81 + 124.0)).abs() < 1e-9);
    }

    #[test]
    fn rsrp_close_to_source_is_near_rstp() {
        // at the near-field guard distance the loss is the 1 m loss
        let s = lp_source();
        let at_mast = s.rsrp_at(Meters::new(600.0));
        let expected = LP_RSTP - lp_model().attenuation(Meters::new(1.0));
        assert_eq!(at_mast, expected);
    }
}
