//! Train-wagon penetration loss.

use core::fmt;

use corridor_units::{Db, Hertz};

/// Window treatment of a train wagon.
///
/// Modern wagons act as Faraday cages: metal-coated (low-emissivity) windows
/// attenuate sub-6 GHz signals by tens of dB, which is the core motivation
/// for dedicated railway corridors. Frequency-selective surfaces (FSS) laser
/// structure the coating to let mobile bands through while keeping the
/// thermal insulation.
///
/// Loss values follow the measurement literature cited by the paper
/// (refs. \[8\], \[9\], \[11\]): plain windows ≈ 5 dB, coated ≈ 25–30 dB,
/// FSS-treated ≈ 10 dB at 3.5 GHz with a mild frequency slope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WindowTreatment {
    /// Plain uncoated glass (older rolling stock).
    Uncoated,
    /// Metal-coated low-emissivity windows (Faraday-cage behaviour).
    CoatedLowE,
    /// Laser-structured frequency-selective-surface windows.
    FssTreated,
}

impl WindowTreatment {
    /// All treatments, for sweeps.
    pub const ALL: [WindowTreatment; 3] = [
        WindowTreatment::Uncoated,
        WindowTreatment::CoatedLowE,
        WindowTreatment::FssTreated,
    ];
}

impl fmt::Display for WindowTreatment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            WindowTreatment::Uncoated => "uncoated",
            WindowTreatment::CoatedLowE => "coated Low-E",
            WindowTreatment::FssTreated => "FSS-treated",
        };
        f.write_str(name)
    }
}

/// Frequency-dependent penetration loss into a train wagon.
///
/// The paper folds penetration into the calibration constants of eq. (1);
/// this type makes the effect explicit so that scenarios with different
/// rolling stock can be compared (e.g. to reproduce the argument that
/// conventional macro coverage fails for coated wagons).
///
/// # Examples
///
/// ```
/// use corridor_propagation::{PenetrationLoss, WindowTreatment};
/// use corridor_units::Hertz;
///
/// let coated = PenetrationLoss::new(WindowTreatment::CoatedLowE);
/// let fss = PenetrationLoss::new(WindowTreatment::FssTreated);
/// let f = Hertz::from_ghz(3.5);
/// assert!(coated.loss_at(f).value() > fss.loss_at(f).value() + 10.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PenetrationLoss {
    treatment: WindowTreatment,
}

impl PenetrationLoss {
    /// Reference frequency for the base loss values.
    const REF_GHZ: f64 = 3.5;

    /// Creates the loss model for the given window treatment.
    pub fn new(treatment: WindowTreatment) -> Self {
        PenetrationLoss { treatment }
    }

    /// Base loss at the 3.5 GHz reference frequency.
    pub fn base_loss(&self) -> Db {
        match self.treatment {
            WindowTreatment::Uncoated => Db::new(5.0),
            WindowTreatment::CoatedLowE => Db::new(28.0),
            WindowTreatment::FssTreated => Db::new(10.0),
        }
    }

    /// Loss at `frequency`, applying a gentle `+2 dB per frequency octave`
    /// slope observed in the measurement literature.
    pub fn loss_at(&self, frequency: Hertz) -> Db {
        let octaves = (frequency.gigahertz() / Self::REF_GHZ).log2();
        let slope = Db::new(2.0 * octaves);
        let total = self.base_loss() + slope;
        // physical floor: penetration loss cannot be negative
        Db::new(total.value().max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_of_treatments() {
        let f = Hertz::from_ghz(3.5);
        let unc = PenetrationLoss::new(WindowTreatment::Uncoated).loss_at(f);
        let fss = PenetrationLoss::new(WindowTreatment::FssTreated).loss_at(f);
        let coated = PenetrationLoss::new(WindowTreatment::CoatedLowE).loss_at(f);
        assert!(unc < fss && fss < coated);
    }

    #[test]
    fn base_loss_at_reference() {
        let m = PenetrationLoss::new(WindowTreatment::CoatedLowE);
        assert_eq!(m.loss_at(Hertz::from_ghz(3.5)), m.base_loss());
    }

    #[test]
    fn loss_increases_with_frequency() {
        let m = PenetrationLoss::new(WindowTreatment::FssTreated);
        assert!(m.loss_at(Hertz::from_ghz(7.0)) > m.loss_at(Hertz::from_ghz(3.5)));
        // one octave up: +2 dB
        let delta = m.loss_at(Hertz::from_ghz(7.0)) - m.loss_at(Hertz::from_ghz(3.5));
        assert!((delta.value() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn loss_never_negative() {
        let m = PenetrationLoss::new(WindowTreatment::Uncoated);
        assert!(m.loss_at(Hertz::from_mhz(100.0)).value() >= 0.0);
    }

    #[test]
    fn all_and_display() {
        assert_eq!(WindowTreatment::ALL.len(), 3);
        assert_eq!(WindowTreatment::CoatedLowE.to_string(), "coated Low-E");
        assert_eq!(WindowTreatment::Uncoated.to_string(), "uncoated");
        assert_eq!(WindowTreatment::FssTreated.to_string(), "FSS-treated");
    }
}
