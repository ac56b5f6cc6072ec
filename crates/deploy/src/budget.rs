//! Link-budget parameters of a corridor deployment.

use corridor_link::{NrCarrier, ThroughputModel};
use corridor_propagation::CalibratedFriis;
use corridor_units::{Db, Dbm, Hertz};

/// Every RF parameter of a corridor deployment, with the paper's values as
/// defaults (Sections III-A and V):
///
/// | parameter | paper value |
/// |---|---|
/// | carrier | 100 MHz NR, 3300 subcarriers |
/// | HP EIRP | 64 dBm (2500 W) |
/// | LP EIRP | 40 dBm (10 W) |
/// | HP calibration | 33 dB |
/// | LP calibration | 20 dB |
/// | noise floor | −132 dBm/subcarrier |
/// | terminal NF | 5 dB |
/// | repeater NF | 8 dB |
///
/// The carrier frequency is not stated in the paper ("sub-6 GHz"); the
/// default of 3.5 GHz (band n78) is the value for which the model
/// reproduces the paper's published maximum-ISD anchors exactly for one to
/// four nodes (1250, 1450, 1600, 1800 m) and within ~13 % beyond.
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
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LinkBudget {
    frequency: Hertz,
    carrier: NrCarrier,
    hp_eirp: Dbm,
    lp_eirp: Dbm,
    hp_calibration: Db,
    lp_calibration: Db,
    noise_floor: Dbm,
    terminal_noise_figure: Db,
    repeater_noise_figure: Db,
    throughput: ThroughputModel,
}

impl LinkBudget {
    /// The paper's parameters (see the type-level table).
    pub fn paper_default() -> Self {
        LinkBudget {
            frequency: Hertz::from_ghz(3.5),
            carrier: NrCarrier::paper_100mhz(),
            hp_eirp: Dbm::new(64.0),
            lp_eirp: Dbm::new(40.0),
            hp_calibration: Db::new(33.0),
            lp_calibration: Db::new(20.0),
            noise_floor: Dbm::new(-132.0),
            terminal_noise_figure: Db::new(5.0),
            repeater_noise_figure: Db::new(8.0),
            throughput: ThroughputModel::nr_default(),
        }
    }

    /// Overrides the carrier frequency.
    #[must_use]
    pub fn with_frequency(mut self, frequency: Hertz) -> Self {
        self.frequency = frequency;
        self
    }

    /// Overrides the high-power EIRP.
    #[must_use]
    pub fn with_hp_eirp(mut self, eirp: Dbm) -> Self {
        self.hp_eirp = eirp;
        self
    }

    /// Overrides the low-power (repeater) EIRP.
    #[must_use]
    pub fn with_lp_eirp(mut self, eirp: Dbm) -> Self {
        self.lp_eirp = eirp;
        self
    }

    /// Overrides both calibration factors.
    #[must_use]
    pub fn with_calibrations(mut self, hp: Db, lp: Db) -> Self {
        self.hp_calibration = hp;
        self.lp_calibration = lp;
        self
    }

    /// Overrides the noise floor.
    #[must_use]
    pub fn with_noise_floor(mut self, floor: Dbm) -> Self {
        self.noise_floor = floor;
        self
    }

    /// Overrides the repeater noise figure.
    #[must_use]
    pub fn with_repeater_noise_figure(mut self, nf: Db) -> Self {
        self.repeater_noise_figure = nf;
        self
    }

    /// Carrier frequency.
    pub fn frequency(&self) -> Hertz {
        self.frequency
    }

    /// NR carrier.
    pub fn carrier(&self) -> &NrCarrier {
        &self.carrier
    }

    /// High-power EIRP (total over the carrier).
    pub fn hp_eirp(&self) -> Dbm {
        self.hp_eirp
    }

    /// Low-power EIRP (total over the carrier).
    pub fn lp_eirp(&self) -> Dbm {
        self.lp_eirp
    }

    /// HP calibration factor `L_HP,calib`.
    pub fn hp_calibration(&self) -> Db {
        self.hp_calibration
    }

    /// LP calibration factor `L_LP,calib`.
    pub fn lp_calibration(&self) -> Db {
        self.lp_calibration
    }

    /// Per-subcarrier noise floor `N_RSRP`.
    pub fn noise_floor(&self) -> Dbm {
        self.noise_floor
    }

    /// Terminal noise figure `NF_MT`.
    pub fn terminal_noise_figure(&self) -> Db {
        self.terminal_noise_figure
    }

    /// Repeater noise figure `NF_LP`.
    pub fn repeater_noise_figure(&self) -> Db {
        self.repeater_noise_figure
    }

    /// Throughput model.
    pub fn throughput(&self) -> &ThroughputModel {
        &self.throughput
    }

    /// Per-subcarrier RSTP of a high-power RRH.
    pub fn hp_rstp(&self) -> Dbm {
        self.carrier.per_subcarrier(self.hp_eirp)
    }

    /// Per-subcarrier RSTP of a low-power repeater.
    pub fn lp_rstp(&self) -> Dbm {
        self.carrier.per_subcarrier(self.lp_eirp)
    }

    /// The calibrated path-loss model of the high-power link.
    pub fn hp_path_loss(&self) -> CalibratedFriis {
        CalibratedFriis::new(self.frequency, self.hp_calibration)
    }

    /// The calibrated path-loss model of the low-power link.
    pub fn lp_path_loss(&self) -> CalibratedFriis {
        CalibratedFriis::new(self.frequency, self.lp_calibration)
    }

    /// Noise re-emitted at a repeater's transmit port per the paper's
    /// eq. (2): `N_RSRP · NF_LP`.
    pub fn repeater_emitted_noise(&self) -> Dbm {
        self.noise_floor + self.repeater_noise_figure
    }
}

impl Default for LinkBudget {
    /// Returns [`LinkBudget::paper_default`].
    fn default() -> Self {
        LinkBudget::paper_default()
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
    fn builders_override() {
        let b = LinkBudget::paper_default()
            .with_frequency(Hertz::from_ghz(2.1))
            .with_hp_eirp(Dbm::new(60.0))
            .with_lp_eirp(Dbm::new(36.0))
            .with_calibrations(Db::new(30.0), Db::new(18.0))
            .with_noise_floor(Dbm::new(-129.0))
            .with_repeater_noise_figure(Db::new(6.0));
        assert_eq!(b.frequency(), Hertz::from_ghz(2.1));
        assert_eq!(b.hp_eirp(), Dbm::new(60.0));
        assert_eq!(b.lp_eirp(), Dbm::new(36.0));
        assert_eq!(b.hp_calibration(), Db::new(30.0));
        assert_eq!(b.lp_calibration(), Db::new(18.0));
        assert_eq!(b.noise_floor(), Dbm::new(-129.0));
        assert_eq!(b.repeater_noise_figure(), Db::new(6.0));
        assert_eq!(b.hp_path_loss().frequency(), Hertz::from_ghz(2.1));
        assert_eq!(b.lp_path_loss().calibration(), Db::new(18.0));
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

    #[test]
    fn default_is_paper() {
        assert_eq!(LinkBudget::default(), LinkBudget::paper_default());
    }
}
