//! Property-based tests for the EARTH power model.

use corridor_power::{catalog, DutyCycle, LoadDependentPower, OperatingState};
use corridor_units::{Hours, LoadFraction, Watts};
use proptest::prelude::*;

fn model() -> impl Strategy<Value = LoadDependentPower> {
    (0.1..100.0f64, 1.0..500.0f64, 0.0..10.0f64, 0.0..200.0f64).prop_map(
        |(pmax, p0, dp, psleep)| {
            LoadDependentPower::new(
                Watts::new(pmax),
                Watts::new(p0),
                dp,
                Watts::new(psleep.min(p0)),
            )
        },
    )
}

proptest! {
    /// Sleep consumes no more than idle, idle no more than zero load,
    /// and zero load no more than full load.
    #[test]
    fn state_ordering(m in model()) {
        let sleep = m.input_power(OperatingState::Sleep);
        let idle = m.input_power(OperatingState::Idle);
        let zero = m.input_power(OperatingState::Active(LoadFraction::ZERO));
        let full = m.input_power(OperatingState::Active(LoadFraction::FULL));
        prop_assert!(sleep <= idle);
        prop_assert!(idle <= zero);
        prop_assert!(zero <= full);
    }

    /// The load ends of P(χ) = P0 + χ·(Pfull − P0): P0 at zero load and
    /// the full-load power at full load.
    #[test]
    fn load_ends(m in model()) {
        let zero = m.input_power(OperatingState::Active(LoadFraction::ZERO)).value();
        let full = m.input_power(OperatingState::Active(LoadFraction::FULL)).value();
        prop_assert!((zero - m.p0().value()).abs() < 1e-9);
        prop_assert!((full - m.full_load_power().value()).abs() < 1e-9);
    }

    /// Scaling by n multiplies every state's power by n.
    #[test]
    fn scaling_scales_all_states(m in model(), n in 0.0..8.0f64) {
        let scaled = m.scaled(n);
        let states = [
            OperatingState::Sleep,
            OperatingState::Idle,
            OperatingState::Active(LoadFraction::ZERO),
            OperatingState::Active(LoadFraction::FULL),
        ];
        for s in states {
            let expected = m.input_power(s).value() * n;
            prop_assert!((scaled.input_power(s).value() - expected).abs() < 1e-9);
        }
    }

    /// Average power is bounded by the sleep and full-load powers.
    #[test]
    fn duty_average_bounded(m in model(), active_h in 0.0..24.0f64, idle_frac in 0.0..1.0f64) {
        let idle_h = (24.0 - active_h) * idle_frac;
        let duty = DutyCycle::over_day(Hours::new(active_h), Hours::new(idle_h));
        let avg = duty.average_power(&m);
        prop_assert!(avg.value() >= m.input_power(OperatingState::Sleep).value() - 1e-9);
        prop_assert!(avg.value() <= m.full_load_power().value() + 1e-9);
    }

    /// Energy with an idle fallback is never below energy with sleep.
    #[test]
    fn idle_fallback_never_cheaper(m in model(), active_h in 0.0..24.0f64) {
        let duty = DutyCycle::over_day(Hours::new(active_h), Hours::ZERO);
        prop_assert!(duty.average_power_idle_fallback(&m) >= duty.average_power(&m));
    }

    /// Daily energy equals average power times 24 h.
    #[test]
    fn daily_energy_consistent(active_h in 0.0..24.0f64) {
        let m = catalog::low_power_repeater_measured();
        let duty = DutyCycle::over_day(Hours::new(active_h), Hours::ZERO);
        let daily = duty.daily_energy(&m).value();
        let from_avg = duty.average_power(&m).value() * 24.0;
        prop_assert!((daily - from_avg).abs() < 1e-9);
    }
}
