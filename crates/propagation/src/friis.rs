//! Free-space (Friis) and calibrated-Friis path loss.

use corridor_units::{Db, Hertz, Meters};

use crate::PathLoss;

/// Free-space path loss: `L(d) = (4π d / λ)^2`.
///
/// # Examples
///
/// ```
/// use corridor_propagation::{FreeSpace, PathLoss};
/// use corridor_units::{Hertz, Meters};
///
/// let fs = FreeSpace::new(Hertz::from_ghz(3.5));
/// // canonical value: FSPL(1 km, 3.5 GHz) ≈ 103.3 dB
/// let loss = fs.attenuation(Meters::new(1000.0));
/// assert!((loss.value() - 103.3).abs() < 0.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FreeSpace {
    frequency: Hertz,
}

impl FreeSpace {
    /// Creates a free-space model at `frequency` with a 1 m near-field guard.
    pub fn new(frequency: Hertz) -> Self {
        FreeSpace { frequency }
    }

    /// `20·log10(4π/λ)`: the frequency-dependent constant of the model.
    pub fn frequency_constant_db(&self) -> Db {
        let lambda = self.frequency.wavelength().value();
        Db::new(20.0 * (4.0 * std::f64::consts::PI / lambda).log10())
    }
}

impl PathLoss for FreeSpace {
    fn attenuation(&self, distance: Meters) -> Db {
        let d = distance.abs().max(self.min_distance()).value();
        Db::new(20.0 * d.log10()) + self.frequency_constant_db()
    }

    fn min_distance(&self) -> Meters {
        Meters::new(1.0)
    }
}

/// The paper's port-to-port attenuation (eq. (1)):
/// `L(d) = (d − d_a)^2 (4π/λ)^2 · L_calib`.
///
/// A fixed calibration factor accounts for antenna-dependent losses into the
/// train wagons: 33 dB for the high-power RRH link and 20 dB for the
/// low-power repeater link in the paper (in line with the measurement
/// campaigns of refs. \[17\], \[18\]).
///
/// # Examples
///
/// ```
/// use corridor_propagation::{CalibratedFriis, FreeSpace, PathLoss};
/// use corridor_units::{Db, Hertz, Meters};
///
/// let hp = CalibratedFriis::new(Hertz::from_ghz(3.7), Db::new(33.0));
/// let fs = FreeSpace::new(Hertz::from_ghz(3.7));
/// let d = Meters::new(500.0);
/// let delta = hp.attenuation(d) - fs.attenuation(d);
/// assert!((delta.value() - 33.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibratedFriis {
    free_space: FreeSpace,
    calibration: Db,
}

impl CalibratedFriis {
    /// Creates a calibrated Friis model.
    pub fn new(frequency: Hertz, calibration: Db) -> Self {
        CalibratedFriis {
            free_space: FreeSpace::new(frequency),
            calibration,
        }
    }
}

impl PathLoss for CalibratedFriis {
    fn attenuation(&self, distance: Meters) -> Db {
        self.free_space.attenuation(distance) + self.calibration
    }

    fn min_distance(&self) -> Meters {
        self.free_space.min_distance()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs35() -> FreeSpace {
        FreeSpace::new(Hertz::from_ghz(3.5))
    }

    #[test]
    fn free_space_canonical_values() {
        // FSPL(d, f) = 20 log10(d_km) + 20 log10(f_MHz) + 32.44
        let cases = [
            (100.0, 3500.0, 83.32),
            (1000.0, 3500.0, 103.32),
            (250.0, 3700.0, 91.76),
        ];
        for (d_m, f_mhz, expected) in cases {
            let model = FreeSpace::new(Hertz::from_mhz(f_mhz));
            let got = model.attenuation(Meters::new(d_m)).value();
            assert!(
                (got - expected).abs() < 0.05,
                "FSPL({d_m} m, {f_mhz} MHz) = {got}, expected {expected}"
            );
        }
    }

    #[test]
    fn doubling_distance_adds_6db() {
        let model = fs35();
        let l1 = model.attenuation(Meters::new(200.0));
        let l2 = model.attenuation(Meters::new(400.0));
        assert!(((l2 - l1).value() - 6.0206).abs() < 1e-3);
    }

    #[test]
    fn near_field_clamps() {
        let model = fs35();
        assert_eq!(
            model.attenuation(Meters::ZERO),
            model.attenuation(Meters::new(1.0))
        );
        assert_eq!(
            model.attenuation(Meters::new(0.5)),
            model.attenuation(Meters::new(1.0))
        );
    }

    #[test]
    fn negative_distance_treated_as_magnitude() {
        let model = fs35();
        assert_eq!(
            model.attenuation(Meters::new(-250.0)),
            model.attenuation(Meters::new(250.0))
        );
    }

    #[test]
    fn calibration_shifts_uniformly() {
        let calib = CalibratedFriis::new(Hertz::from_ghz(3.7), Db::new(20.0));
        let base = FreeSpace::new(Hertz::from_ghz(3.7));
        for d in [1.0, 50.0, 500.0, 2650.0] {
            let delta = calib.attenuation(Meters::new(d)) - base.attenuation(Meters::new(d));
            assert!((delta.value() - 20.0).abs() < 1e-9);
        }
    }

    #[test]
    fn paper_hp_attenuation_ballpark() {
        // HP model at 3.7 GHz, 33 dB calib: at 250 m the attenuation should
        // put a 28.8 dBm/subcarrier RSTP near -96 dBm RSRP (paper Fig. 3
        // drops below -100 dBm a little past 250 m).
        let hp = CalibratedFriis::new(Hertz::from_ghz(3.7), Db::new(33.0));
        let l = hp.attenuation(Meters::new(250.0)).value();
        assert!((l - 124.76).abs() < 0.1, "got {l}");
    }
}
