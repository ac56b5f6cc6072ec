//! The [`PathLoss`] trait.

use corridor_units::{Db, Meters};

/// A distance-dependent attenuation model.
///
/// Implementations return the *port-to-port* attenuation between a
/// transmitter and a receiver separated by `distance`: everything from the
/// transmit antenna port to the receive antenna port, including antenna and
/// penetration effects if the model folds them into a calibration constant
/// (as the paper's eq. (1) does).
///
/// # Contract
///
/// * `attenuation` must be non-negative for distances at or beyond the
///   model's minimum distance, and non-decreasing in distance.
/// * Implementations must clamp distances below [`min_distance`] rather than
///   produce unbounded (or negative-infinite) values at `d = 0`.
///
/// [`min_distance`]: PathLoss::min_distance
pub trait PathLoss {
    /// Attenuation (positive dB) at `distance`.
    fn attenuation(&self, distance: Meters) -> Db;

    /// The near-field guard distance below which `attenuation` clamps.
    ///
    /// Defaults to 1 m.
    fn min_distance(&self) -> Meters {
        Meters::new(1.0)
    }
}

impl<T: PathLoss + ?Sized> PathLoss for &T {
    fn attenuation(&self, distance: Meters) -> Db {
        (**self).attenuation(distance)
    }
    fn min_distance(&self) -> Meters {
        (**self).min_distance()
    }
}

impl<T: PathLoss + ?Sized> PathLoss for Box<T> {
    fn attenuation(&self, distance: Meters) -> Db {
        (**self).attenuation(distance)
    }
    fn min_distance(&self) -> Meters {
        (**self).min_distance()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FreeSpace;
    use corridor_units::Hertz;

    #[test]
    fn trait_object_usable() {
        let boxed: Box<dyn PathLoss + Send + Sync> = Box::new(FreeSpace::new(Hertz::from_ghz(3.5)));
        assert!(boxed.attenuation(Meters::new(100.0)).value() > 80.0);
        assert_eq!(boxed.min_distance(), Meters::new(1.0));
    }

    #[test]
    fn reference_forwards() {
        let model = FreeSpace::new(Hertz::from_ghz(3.5));
        let by_ref: &dyn PathLoss = &model;
        assert_eq!(
            by_ref.attenuation(Meters::new(10.0)),
            model.attenuation(Meters::new(10.0))
        );
    }
}
