//! Duty cycles: time-weighted average power and energy.

use core::fmt;

use corridor_units::{Hours, WattHours, Watts};

use crate::{LoadDependentPower, OperatingState};

/// Error constructing a [`DutyCycle`] whose state durations exceed the
/// period or are negative.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DutyCycleError {
    active: Hours,
    idle: Hours,
    period: Hours,
}

impl fmt::Display for DutyCycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid duty cycle: active {} + idle {} exceeds period {} (or a duration is negative)",
            self.active, self.idle, self.period
        )
    }
}

impl std::error::Error for DutyCycleError {}

/// How a node's time is split between operating states over a period.
///
/// The remainder of the period after `active` (full load) and `idle`
/// (awake, no traffic) hours is spent in whichever fallback state the
/// energy strategy dictates: [`DutyCycle::average_power`] assumes sleep for
/// the remainder, [`DutyCycle::average_power_idle_fallback`] assumes idle
/// (for equipment without a sleep mode, the paper's "continuous
/// operation" repeaters).
///
/// # Examples
///
/// ```
/// use corridor_power::{catalog, DutyCycle};
/// use corridor_units::Hours;
///
/// // HP mast at ISD 500 m: full load 2.85 % of the day, sleep otherwise
/// let duty = DutyCycle::over_day(Hours::new(0.684), Hours::ZERO);
/// let avg = duty.average_power(&catalog::high_power_mast());
/// assert!((avg.value() - 233.6).abs() < 0.2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DutyCycle {
    active: Hours,
    idle: Hours,
    period: Hours,
}

impl DutyCycle {
    /// A duty cycle over one day with the given active and idle hours; the
    /// rest of the day is the fallback state.
    ///
    /// # Panics
    ///
    /// Panics if durations are negative or exceed 24 h in total; use
    /// [`DutyCycle::new`] for a fallible constructor.
    pub fn over_day(active: Hours, idle: Hours) -> Self {
        // corridor-lint: allow(no-panic, reason = "documented `# Panics` convenience constructor; DutyCycle::new is the fallible form")
        DutyCycle::new(active, idle, Hours::DAY).expect("valid daily duty cycle")
    }

    /// A duty cycle over an arbitrary period.
    ///
    /// # Errors
    ///
    /// Returns [`DutyCycleError`] if a duration is negative or
    /// `active + idle > period`.
    pub fn new(active: Hours, idle: Hours, period: Hours) -> Result<Self, DutyCycleError> {
        let ok = active.value() >= 0.0
            && idle.value() >= 0.0
            && period.value() > 0.0
            && active.value() + idle.value() <= period.value() + 1e-12;
        if ok {
            Ok(DutyCycle {
                active,
                idle,
                period,
            })
        } else {
            Err(DutyCycleError {
                active,
                idle,
                period,
            })
        }
    }

    /// Hours at full load per period.
    pub fn active(&self) -> Hours {
        self.active
    }

    /// Hours awake but idle per period.
    pub fn idle(&self) -> Hours {
        self.idle
    }

    /// The accounting period.
    pub fn period(&self) -> Hours {
        self.period
    }

    /// Hours in the fallback (sleep or idle) state per period.
    pub fn remainder(&self) -> Hours {
        self.period - self.active - self.idle
    }

    /// Energy per period when the remainder of the time is spent asleep.
    pub fn energy(&self, model: &LoadDependentPower) -> WattHours {
        self.energy_with_fallback(model, OperatingState::Sleep)
    }

    /// Energy per period when the remainder is spent in `fallback`.
    pub fn energy_with_fallback(
        &self,
        model: &LoadDependentPower,
        fallback: OperatingState,
    ) -> WattHours {
        model.input_power(OperatingState::full_load()) * self.active
            + model.input_power(OperatingState::Idle) * self.idle
            + model.input_power(fallback) * self.remainder()
    }

    /// Time-averaged power with a sleeping remainder.
    pub fn average_power(&self, model: &LoadDependentPower) -> Watts {
        self.energy(model) / self.period
    }

    /// Time-averaged power when the node cannot sleep (remainder idles).
    pub fn average_power_idle_fallback(&self, model: &LoadDependentPower) -> Watts {
        self.energy_with_fallback(model, OperatingState::Idle) / self.period
    }

    /// Energy over one day (scales the period energy to 24 h).
    pub fn daily_energy(&self, model: &LoadDependentPower) -> WattHours {
        self.energy(model) * (Hours::DAY / self.period)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn paper_repeater_daily_energy() {
        // LP service node: 152 trains/day × 10.8 s = 0.456 h at full load,
        // sleeping otherwise -> 124.1 Wh/day, 5.17 W average.
        let duty = DutyCycle::over_day(Hours::new(0.456), Hours::ZERO);
        let model = catalog::low_power_repeater_measured();
        let daily = duty.daily_energy(&model);
        assert!((daily.value() - 124.07).abs() < 0.1, "got {daily}");
        let avg = duty.average_power(&model);
        assert!((avg.value() - 5.17).abs() < 0.01, "got {avg}");
    }

    #[test]
    fn paper_hp_duty_fractions() {
        // ISD 500 m: 2.85 % full load; ISD 2650 m: 9.66 %.
        let short = DutyCycle::over_day(Hours::new(0.684), Hours::ZERO);
        assert!((short.active() / short.period() - 0.0285).abs() < 0.0001);
        let long = DutyCycle::over_day(Hours::new(2.318), Hours::ZERO);
        assert!((long.active() / long.period() - 0.0966).abs() < 0.0001);
    }

    #[test]
    fn continuous_operation_uses_idle_fallback() {
        let duty = DutyCycle::over_day(Hours::new(0.456), Hours::ZERO);
        let model = catalog::low_power_repeater_measured();
        let avg = duty.average_power_idle_fallback(&model);
        // (0.456·28.38 + 23.544·24.26)/24 = 24.34 W
        assert!((avg.value() - 24.34).abs() < 0.01, "got {avg}");
    }

    #[test]
    fn remainder_and_accessors() {
        let duty = DutyCycle::over_day(Hours::new(2.0), Hours::new(3.0));
        assert_eq!(duty.active(), Hours::new(2.0));
        assert_eq!(duty.idle(), Hours::new(3.0));
        assert_eq!(duty.period(), Hours::DAY);
        assert_eq!(duty.remainder(), Hours::new(19.0));
    }

    #[test]
    fn invalid_cycles_rejected() {
        assert!(DutyCycle::new(Hours::new(20.0), Hours::new(10.0), Hours::DAY).is_err());
        assert!(DutyCycle::new(Hours::new(-1.0), Hours::ZERO, Hours::DAY).is_err());
        assert!(DutyCycle::new(Hours::ZERO, Hours::ZERO, Hours::ZERO).is_err());
        let err = DutyCycle::new(Hours::new(20.0), Hours::new(10.0), Hours::DAY).unwrap_err();
        assert!(err.to_string().contains("exceeds period"));
    }

    #[test]
    fn energy_with_fallbacks_ordering() {
        let duty = DutyCycle::over_day(Hours::new(1.0), Hours::ZERO);
        let model = catalog::low_power_repeater();
        let sleeping = duty.energy(&model);
        let idling = duty.energy_with_fallback(&model, OperatingState::Idle);
        assert!(idling > sleeping);
    }

    #[test]
    fn daily_energy_scales_period() {
        let model = catalog::low_power_repeater();
        let hourly = DutyCycle::new(Hours::new(0.019), Hours::ZERO, Hours::new(1.0)).unwrap();
        let daily = DutyCycle::over_day(Hours::new(0.456), Hours::ZERO);
        assert!(
            (hourly.daily_energy(&model).value() - daily.daily_energy(&model).value()).abs() < 1e-9
        );
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync>() {}
        assert_err::<DutyCycleError>();
    }
}
