//! Equipment presets (paper Table II).

use corridor_units::Watts;

use crate::LoadDependentPower;

/// One high-power remote radio head (one sector/antenna), paper Table II:
/// `Pmax = 40 W`, `P0 = 168 W`, `Δp = 2.8`, `Psleep = 112 W`.
///
/// # Examples
///
/// ```
/// use corridor_power::catalog;
/// assert_eq!(catalog::high_power_rrh().full_load_power().value(), 280.0);
/// ```
pub fn high_power_rrh() -> LoadDependentPower {
    LoadDependentPower::new(Watts::new(40.0), Watts::new(168.0), 2.8, Watts::new(112.0))
}

/// A full corridor mast: two high-power RRHs mounted back-to-back.
///
/// Full load 560 W, idle 336 W, sleep 224 W — the values quoted in the
/// paper's Section III-B.
pub fn high_power_mast() -> LoadDependentPower {
    high_power_rrh().scaled(2.0)
}

/// One low-power repeater node, paper Table II:
/// `Pmax = 1 W`, `P0 = 24.26 W`, `Δp = 4.0`, `Psleep = 4.72 W`.
///
/// The paper's text quotes 28.4 W at full load (the prototype's measured
/// component bill); the EARTH parameterization gives 28.26 W. All headline
/// results (5.17 W average, 124.1 Wh/day) are consistent with the Table I
/// sleep value of 4.72 W and a full-load draw of ≈28.4 W.
pub fn low_power_repeater() -> LoadDependentPower {
    LoadDependentPower::new(Watts::new(1.0), Watts::new(24.26), 4.0, Watts::new(4.72))
}

/// The low-power repeater with the *measured* full-load draw of the
/// prototype (28.38 W per Table I) rather than the EARTH fit.
///
/// Expressed in EARTH form by setting `Δp·Pmax = 28.38 − 24.26 = 4.12 W`.
pub fn low_power_repeater_measured() -> LoadDependentPower {
    LoadDependentPower::new(Watts::new(1.0), Watts::new(24.26), 4.12, Watts::new(4.72))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OperatingState;

    #[test]
    fn rrh_matches_table_ii() {
        let m = high_power_rrh();
        assert_eq!(m.p_max(), Watts::new(40.0));
        assert_eq!(m.p0(), Watts::new(168.0));
        assert_eq!(m.delta_p(), 2.8);
        assert_eq!(m.p_sleep(), Watts::new(112.0));
    }

    #[test]
    fn mast_is_two_rrhs() {
        let mast = high_power_mast();
        assert_eq!(mast.full_load_power(), Watts::new(560.0));
        assert_eq!(mast.input_power(OperatingState::Idle), Watts::new(336.0));
        assert_eq!(mast.input_power(OperatingState::Sleep), Watts::new(224.0));
    }

    #[test]
    fn repeater_matches_table_ii() {
        let m = low_power_repeater();
        assert_eq!(m.p0(), Watts::new(24.26));
        assert_eq!(m.p_sleep(), Watts::new(4.72));
        assert!((m.full_load_power().value() - 28.26).abs() < 1e-9);
    }

    #[test]
    fn measured_repeater_hits_28_38() {
        let m = low_power_repeater_measured();
        assert!((m.full_load_power().value() - 28.38).abs() < 1e-9);
        assert_eq!(m.p_sleep(), Watts::new(4.72));
    }

    #[test]
    fn repeater_is_small_fraction_of_rrh() {
        // the paper's "5 % of the energy of a regular cell site" claim
        let repeater = low_power_repeater_measured().full_load_power();
        let mast = high_power_mast().full_load_power();
        let fraction = repeater / mast;
        assert!(fraction < 0.06, "repeater/mast = {fraction}");
    }
}
