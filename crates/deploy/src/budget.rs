//! Link-budget parameters of a corridor deployment.

use corridor_link::{NrCarrier, ThroughputModel};
use corridor_propagation::CalibratedFriis;
use corridor_units::{Db, Dbm, Hertz};

/// Every RF parameter of a corridor deployment, at the paper's values
/// (Sections III-A and V):
///
/// | parameter | paper value |
/// |---|---|
/// | carrier | 100 MHz NR, 3300 subcarriers |
/// | HP EIRP | 64 dBm (2500 W) |
/// | LP EIRP | 40 dBm (10 W) |
/// | HP calibration | 33 dB |
/// | LP calibration | 20 dB |
/// | noise floor | −132 dBm/subcarrier |
/// | terminal NF | 5 dB (`SnrModel::PAPER_TERMINAL_NF`) |
/// | repeater NF | 8 dB |
///
/// The carrier frequency is not stated in the paper ("sub-6 GHz");
/// 3.5 GHz (band n78) is the value for which the model
/// reproduces the paper's published maximum-ISD anchors exactly for one to
/// four nodes (1250, 1450, 1600, 1800 m) and within ~13 % beyond.
///
/// Every parameter is the paper's; only this crate's tests move the
/// noise floor, to reach the optimizer's unsolvable and range-capped
/// answers.
///
/// # Examples
///
/// ```
/// use corridor_deploy::LinkBudget;
/// let budget = LinkBudget::paper_default();
/// assert!((budget.hp_rstp().value() - 28.81).abs() < 0.01);
/// assert!((budget.lp_rstp().value() - 4.81).abs() < 0.01);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinkBudget {
    noise_floor: Dbm,
}

impl LinkBudget {
    const FREQUENCY: Hertz = Hertz::from_ghz(3.5);
    const CARRIER: NrCarrier = NrCarrier::paper_100mhz();
    const HP_EIRP: Dbm = Dbm::new(64.0);
    const LP_EIRP: Dbm = Dbm::new(40.0);
    const HP_CALIBRATION: Db = Db::new(33.0);
    const LP_CALIBRATION: Db = Db::new(20.0);
    const REPEATER_NOISE_FIGURE: Db = Db::new(8.0);
    const THROUGHPUT: ThroughputModel = ThroughputModel::nr_default();

    /// The paper's parameters (see the type-level table).
    pub fn paper_default() -> Self {
        LinkBudget {
            noise_floor: Dbm::new(-132.0),
        }
    }

    /// Carrier frequency.
    pub fn frequency(&self) -> Hertz {
        Self::FREQUENCY
    }

    /// NR carrier.
    pub fn carrier(&self) -> &NrCarrier {
        &Self::CARRIER
    }

    /// High-power EIRP (total over the carrier).
    pub fn hp_eirp(&self) -> Dbm {
        Self::HP_EIRP
    }

    /// Low-power EIRP (total over the carrier).
    pub fn lp_eirp(&self) -> Dbm {
        Self::LP_EIRP
    }

    /// HP calibration factor `L_HP,calib`.
    pub fn hp_calibration(&self) -> Db {
        Self::HP_CALIBRATION
    }

    /// LP calibration factor `L_LP,calib`.
    pub fn lp_calibration(&self) -> Db {
        Self::LP_CALIBRATION
    }

    /// Per-subcarrier noise floor `N_RSRP`.
    pub fn noise_floor(&self) -> Dbm {
        self.noise_floor
    }

    /// Throughput model.
    pub fn throughput(&self) -> &ThroughputModel {
        &Self::THROUGHPUT
    }

    /// Per-subcarrier RSTP of a high-power RRH.
    pub fn hp_rstp(&self) -> Dbm {
        Self::CARRIER.per_subcarrier(Self::HP_EIRP)
    }

    /// Per-subcarrier RSTP of a low-power repeater.
    pub fn lp_rstp(&self) -> Dbm {
        Self::CARRIER.per_subcarrier(Self::LP_EIRP)
    }

    /// The calibrated path-loss model of the high-power link.
    pub fn hp_path_loss(&self) -> CalibratedFriis {
        CalibratedFriis::new(Self::FREQUENCY, Self::HP_CALIBRATION)
    }

    /// The calibrated path-loss model of the low-power link.
    pub fn lp_path_loss(&self) -> CalibratedFriis {
        CalibratedFriis::new(Self::FREQUENCY, Self::LP_CALIBRATION)
    }

    /// Noise re-emitted at a repeater's transmit port per the paper's
    /// eq. (2): `N_RSRP · NF_LP`.
    pub fn repeater_emitted_noise(&self) -> Dbm {
        self.noise_floor + Self::REPEATER_NOISE_FIGURE
    }
}

#[cfg(test)]
impl LinkBudget {
    /// The paper's budget under another noise floor.
    pub(crate) fn with_noise_floor(mut self, floor: Dbm) -> Self {
        self.noise_floor = floor;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rstps() {
        let b = LinkBudget::paper_default();
        assert!((b.hp_rstp().value() - 28.81).abs() < 0.01);
        assert!((b.lp_rstp().value() - 4.81).abs() < 0.01);
    }

    #[test]
    fn repeater_noise_value() {
        let b = LinkBudget::paper_default();
        assert_eq!(b.repeater_emitted_noise(), Dbm::new(-124.0));
    }

    #[test]
    fn hp_model_stronger_than_lp_model() {
        // HP has 13 dB more calibration loss but 24 dB more EIRP: net the
        // HP link reaches farther.
        let b = LinkBudget::paper_default();
        let d = corridor_units::Meters::new(300.0);
        use corridor_propagation::PathLoss;
        let hp_rsrp = b.hp_rstp() - b.hp_path_loss().attenuation(d);
        let lp_rsrp = b.lp_rstp() - b.lp_path_loss().attenuation(d);
        assert!(hp_rsrp.value() > lp_rsrp.value());
    }
}
