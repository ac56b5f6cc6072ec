//! Battery storage with a discharge cutoff.

use core::fmt;

use corridor_units::WattHours;

/// The outcome of one simulation step of a [`Battery`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct BatteryStep {
    /// Load energy that could not be served (battery at cutoff).
    pub unmet: WattHours,
    /// Generation that could not be stored (battery full).
    pub curtailed: WattHours,
    /// True if the battery was at full capacity after the step.
    pub full_after: bool,
}

/// A battery with usable capacity between a discharge cutoff and full.
///
/// The paper's PVGIS runs use a 720 Wh battery with a 40 % discharge
/// cutoff limit: only the top 60 % of the nominal capacity is usable
/// ([`Battery::paper_default`]). Charging and discharging each apply a
/// 95 % efficiency.
///
/// # Examples
///
/// ```
/// use corridor_solar::Battery;
/// use corridor_units::WattHours;
///
/// let mut battery = Battery::paper_default();
/// // a night of repeater load is easily covered
/// let step = battery.step(WattHours::ZERO, WattHours::new(124.1));
/// assert_eq!(step.unmet, WattHours::ZERO);
/// assert!(battery.state_of_charge() < WattHours::new(720.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Battery {
    capacity: WattHours,
    cutoff_fraction: f64,
    charge_efficiency: f64,
    discharge_efficiency: f64,
    soc: WattHours,
}

impl Battery {
    /// The paper's storage: 720 Wh, 40 % discharge cutoff.
    pub fn paper_default() -> Self {
        Battery::with_capacity(WattHours::new(720.0))
    }

    /// A battery of the given nominal capacity with the paper's 40 %
    /// cutoff and 95 % charge/discharge efficiencies, starting full.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not strictly positive.
    pub fn with_capacity(capacity: WattHours) -> Self {
        assert!(capacity.value() > 0.0, "capacity must be positive");
        Battery {
            capacity,
            cutoff_fraction: 0.4,
            charge_efficiency: 0.95,
            discharge_efficiency: 0.95,
            soc: capacity,
        }
    }

    /// Nominal capacity.
    pub fn capacity(&self) -> WattHours {
        self.capacity
    }

    /// Discharge cutoff fraction.
    pub fn cutoff_fraction(&self) -> f64 {
        self.cutoff_fraction
    }

    /// The state of charge floor implied by the cutoff.
    pub fn min_soc(&self) -> WattHours {
        self.capacity * self.cutoff_fraction
    }

    /// Current state of charge.
    // corridor-lint: allow(unused-pub, reason = "battery::tests (discharge_stops_at_cutoff, round_trip_efficiency) and tests/properties.rs (battery_invariants, battery_energy_conservation) read the charge that the live step() leaves")
    pub fn state_of_charge(&self) -> WattHours {
        self.soc
    }

    /// Current state of charge as a fraction of nominal capacity.
    pub fn soc_fraction(&self) -> f64 {
        self.soc / self.capacity
    }

    /// True if at full capacity.
    pub fn is_full(&self) -> bool {
        (self.capacity - self.soc).value() < 1e-9
    }

    /// Resets to a full battery.
    pub fn reset_full(&mut self) {
        self.soc = self.capacity;
    }

    /// Advances one step: `generation` serves `load` directly; surplus is
    /// stored (with charge losses), deficit is drawn from the battery
    /// (with discharge losses) down to the cutoff.
    pub fn step(&mut self, generation: WattHours, load: WattHours) -> BatteryStep {
        let mut result = BatteryStep::default();
        let net = generation - load;
        if net.value() >= 0.0 {
            let storable = net * self.charge_efficiency;
            let headroom = self.capacity - self.soc;
            let stored = storable.min(headroom);
            self.soc += stored;
            result.curtailed = (storable - stored) / self.charge_efficiency;
        } else {
            let deficit = WattHours::new(-net.value());
            let draw_needed = deficit / self.discharge_efficiency;
            let available = self.soc - self.min_soc();
            if draw_needed <= available {
                self.soc -= draw_needed;
            } else {
                self.soc = self.min_soc();
                result.unmet = (draw_needed - available) * self.discharge_efficiency;
            }
        }
        result.full_after = self.is_full();
        result
    }
}

impl fmt::Display for Battery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "battery {} (cutoff {:.0} %, SoC {:.1} %)",
            self.capacity,
            self.cutoff_fraction * 100.0,
            self.soc_fraction() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wh(v: f64) -> WattHours {
        WattHours::new(v)
    }

    #[test]
    fn paper_battery_parameters() {
        let b = Battery::paper_default();
        assert_eq!(b.capacity(), wh(720.0));
        assert_eq!(b.min_soc(), wh(288.0));
        assert!(b.is_full());
    }

    #[test]
    fn discharge_stops_at_cutoff() {
        let mut b = Battery::paper_default();
        // demand far beyond usable capacity
        let step = b.step(WattHours::ZERO, wh(10_000.0));
        assert_eq!(b.state_of_charge(), wh(288.0));
        // unmet = demand - usable*discharge_eff
        let served = 432.0 * 0.95;
        assert!((step.unmet.value() - (10_000.0 - served)).abs() < 1e-6);
        assert!(!step.full_after);
    }

    #[test]
    fn charge_stops_at_capacity() {
        let mut b = Battery::paper_default();
        b.step(WattHours::ZERO, wh(100.0)); // make room
        let step = b.step(wh(10_000.0), WattHours::ZERO);
        assert!(b.is_full());
        assert!(step.full_after);
        assert!(step.curtailed.value() > 0.0);
    }

    #[test]
    fn round_trip_efficiency() {
        let mut b = Battery::paper_default();
        b.step(WattHours::ZERO, wh(100.0)); // draw 100 Wh of load
        let drawn = 720.0 - b.state_of_charge().value();
        assert!((drawn - 100.0 / 0.95).abs() < 1e-9);
        b.step(wh(drawn), WattHours::ZERO); // put the same energy back
        let back = b.state_of_charge().value();
        assert!((720.0 - back - drawn * (1.0 - 0.95)).abs() < 1e-9);
    }

    #[test]
    fn generation_serves_load_first() {
        let mut b = Battery::paper_default();
        // equal generation and load: battery untouched
        let step = b.step(wh(50.0), wh(50.0));
        assert!(b.is_full());
        assert_eq!(step.unmet, WattHours::ZERO);
        assert_eq!(step.curtailed, WattHours::ZERO);
    }

    #[test]
    fn night_of_repeater_load_ok() {
        let mut b = Battery::paper_default();
        // 24 h of the repeater's average 5.17 W = 124.1 Wh
        let step = b.step(WattHours::ZERO, wh(124.1));
        assert_eq!(step.unmet, WattHours::ZERO);
        // about 3.3 such days fit in the usable window
        let mut days = 1;
        loop {
            let s = b.step(WattHours::ZERO, wh(124.1));
            if s.unmet.value() > 0.0 {
                break;
            }
            days += 1;
        }
        assert_eq!(days, 3);
    }

    #[test]
    fn reset_and_accessors() {
        let mut b = Battery::paper_default();
        b.step(WattHours::ZERO, wh(100.0));
        assert!(!b.is_full());
        b.reset_full();
        assert!(b.is_full());
        assert!((b.soc_fraction() - 1.0).abs() < 1e-12);
        assert_eq!(b.cutoff_fraction(), 0.4);
    }

    #[test]
    fn display() {
        let b = Battery::paper_default();
        assert_eq!(
            b.to_string(),
            "battery 720.00 Wh (cutoff 40 %, SoC 100.0 %)"
        );
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Battery::with_capacity(WattHours::ZERO);
    }
}
