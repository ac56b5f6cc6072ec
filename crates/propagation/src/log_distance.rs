//! Log-distance path loss baseline.

use corridor_units::{Db, Hertz, Meters};

use crate::{FreeSpace, PathLoss};

/// Log-distance path loss: free-space loss at a reference distance, then a
/// `10·n·log10(d/d0)` roll-off with configurable exponent `n`.
///
/// Used as an ablation baseline: railway corridors with mast-top pencil-beam
/// antennas are close to free-space (`n = 2`), but `n` in `[2, 4]` lets the
/// sensitivity of the max-ISD result to the environment be explored.
///
/// # Examples
///
/// ```
/// use corridor_propagation::{LogDistance, PathLoss};
/// use corridor_units::{Hertz, Meters};
///
/// let urban = LogDistance::new(Hertz::from_ghz(3.5), 3.5);
/// let suburban = LogDistance::new(Hertz::from_ghz(3.5), 2.2);
/// let d = Meters::new(500.0);
/// assert!(urban.attenuation(d) > suburban.attenuation(d));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LogDistance {
    reference: FreeSpace,
    reference_distance: Meters,
    exponent: f64,
}

impl LogDistance {
    /// Creates a log-distance model with path-loss exponent `exponent` and a
    /// 1 m reference distance.
    ///
    /// # Panics
    ///
    /// Panics if `exponent` is not strictly positive.
    pub fn new(frequency: Hertz, exponent: f64) -> Self {
        assert!(exponent > 0.0, "path-loss exponent must be positive");
        LogDistance {
            reference: FreeSpace::new(frequency),
            reference_distance: Meters::new(1.0),
            exponent,
        }
    }

    /// The path-loss exponent `n`.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }
}

impl PathLoss for LogDistance {
    fn attenuation(&self, distance: Meters) -> Db {
        let d = distance.abs().max(self.reference_distance).value();
        let d0 = self.reference_distance.value();
        self.reference.attenuation(self.reference_distance)
            + Db::new(10.0 * self.exponent * (d / d0).log10())
    }

    fn min_distance(&self) -> Meters {
        self.reference_distance
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponent_two_equals_free_space() {
        let ld = LogDistance::new(Hertz::from_ghz(3.5), 2.0);
        let fs = FreeSpace::new(Hertz::from_ghz(3.5));
        for d in [1.0, 10.0, 100.0, 1000.0] {
            let a = ld.attenuation(Meters::new(d)).value();
            let b = fs.attenuation(Meters::new(d)).value();
            assert!((a - b).abs() < 1e-9, "at {d} m: {a} vs {b}");
        }
    }

    #[test]
    fn higher_exponent_more_loss_beyond_reference() {
        let low = LogDistance::new(Hertz::from_ghz(3.5), 2.0);
        let high = LogDistance::new(Hertz::from_ghz(3.5), 4.0);
        assert!(high.attenuation(Meters::new(100.0)) > low.attenuation(Meters::new(100.0)));
        // equal exactly at the reference distance
        assert_eq!(
            high.attenuation(Meters::new(1.0)),
            low.attenuation(Meters::new(1.0))
        );
    }

    #[test]
    fn decade_adds_ten_n_db() {
        let ld = LogDistance::new(Hertz::from_ghz(3.5), 3.0);
        let l1 = ld.attenuation(Meters::new(10.0));
        let l2 = ld.attenuation(Meters::new(100.0));
        assert!(((l2 - l1).value() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn reference_distance_clamps() {
        // distances inside the 1 m reference read the reference loss
        let ld = LogDistance::new(Hertz::from_ghz(3.5), 2.5);
        assert_eq!(ld.min_distance(), Meters::new(1.0));
        assert_eq!(
            ld.attenuation(Meters::new(0.2)),
            ld.attenuation(Meters::new(1.0))
        );
    }

    #[test]
    #[should_panic(expected = "exponent must be positive")]
    fn zero_exponent_rejected() {
        let _ = LogDistance::new(Hertz::from_ghz(3.5), 0.0);
    }
}
