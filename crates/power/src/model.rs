//! The EARTH load-dependent power model (paper eq. (3)).

use corridor_units::{LoadFraction, Watts};

/// The operating state of a radio node.
///
/// The EARTH model distinguishes three regimes:
///
/// * **Sleep** — deep sleep with transceivers off (`P_sleep`);
/// * **Idle** — awake, synchronized, but carrying no traffic (`P0`);
/// * **Active(χ)** — carrying traffic at load fraction χ
///   (`P0 + Δp·Pmax·χ`).
///
/// `Active(LoadFraction::ZERO)` and `Idle` consume the same power; they are
/// kept distinct because schedulers treat them differently (an idle node can
/// sleep, an active one cannot).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum OperatingState {
    /// Deep sleep: only wake-up circuitry powered.
    Sleep,
    /// Awake with zero traffic.
    #[default]
    Idle,
    /// Carrying traffic at the given load fraction.
    Active(LoadFraction),
}

impl OperatingState {
    /// Active at full load (χ = 1).
    pub fn full_load() -> Self {
        OperatingState::Active(LoadFraction::FULL)
    }
}

/// The EARTH parameterized power model of one radio node.
///
/// # Examples
///
/// ```
/// use corridor_power::{LoadDependentPower, OperatingState};
/// use corridor_units::{LoadFraction, Watts};
///
/// // paper Table II, high-power RRH (one sector)
/// let rrh = LoadDependentPower::new(
///     Watts::new(40.0),   // Pmax (RF output)
///     Watts::new(168.0),  // P0
///     2.8,                // Δp
///     Watts::new(112.0),  // Psleep
/// );
/// assert_eq!(rrh.input_power(OperatingState::full_load()), Watts::new(280.0));
/// assert_eq!(rrh.input_power(OperatingState::Idle), Watts::new(168.0));
/// assert_eq!(rrh.input_power(OperatingState::Sleep), Watts::new(112.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadDependentPower {
    p_max: Watts,
    p0: Watts,
    delta_p: f64,
    p_sleep: Watts,
}

impl LoadDependentPower {
    /// Creates a model from the four EARTH parameters.
    ///
    /// # Panics
    ///
    /// Panics if any power is negative or `delta_p` is negative.
    pub fn new(p_max: Watts, p0: Watts, delta_p: f64, p_sleep: Watts) -> Self {
        assert!(p_max.value() >= 0.0, "Pmax must be non-negative");
        assert!(p0.value() >= 0.0, "P0 must be non-negative");
        assert!(delta_p >= 0.0, "Δp must be non-negative");
        assert!(p_sleep.value() >= 0.0, "Psleep must be non-negative");
        LoadDependentPower {
            p_max,
            p0,
            delta_p,
            p_sleep,
        }
    }

    /// Maximum RF output power `Pmax`.
    pub fn p_max(&self) -> Watts {
        self.p_max
    }

    /// Zero-load input power `P0`.
    pub fn p0(&self) -> Watts {
        self.p0
    }

    /// Load-dependence slope `Δp`.
    pub fn delta_p(&self) -> f64 {
        self.delta_p
    }

    /// Sleep-mode input power `P_sleep`.
    pub fn p_sleep(&self) -> Watts {
        self.p_sleep
    }

    /// Input (consumed) power in the given state.
    pub fn input_power(&self, state: OperatingState) -> Watts {
        match state {
            OperatingState::Sleep => self.p_sleep,
            OperatingState::Idle => self.p0,
            OperatingState::Active(load) => self.p0 + self.p_max * (self.delta_p * load.value()),
        }
    }

    /// Input power at full load, `P0 + Δp·Pmax`.
    pub fn full_load_power(&self) -> Watts {
        self.input_power(OperatingState::full_load())
    }

    /// Scales the model to `count` identical units operated together
    /// (e.g. the two RRHs of one mast): `P0`, `Pmax` and `Psleep` scale,
    /// `Δp` is a per-unit slope and stays.
    #[must_use]
    pub fn scaled(&self, count: f64) -> Self {
        assert!(count >= 0.0, "count must be non-negative");
        LoadDependentPower {
            p_max: self.p_max * count,
            p0: self.p0 * count,
            delta_p: self.delta_p,
            p_sleep: self.p_sleep * count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rrh() -> LoadDependentPower {
        LoadDependentPower::new(Watts::new(40.0), Watts::new(168.0), 2.8, Watts::new(112.0))
    }

    #[test]
    fn state_powers_match_table_ii() {
        let m = rrh();
        assert_eq!(m.input_power(OperatingState::Sleep), Watts::new(112.0));
        assert_eq!(m.input_power(OperatingState::Idle), Watts::new(168.0));
        assert_eq!(m.full_load_power(), Watts::new(280.0));
    }

    #[test]
    fn active_zero_load_equals_idle() {
        let m = rrh();
        assert_eq!(
            m.input_power(OperatingState::Active(LoadFraction::ZERO)),
            m.input_power(OperatingState::Idle)
        );
    }

    #[test]
    fn mast_scaling_matches_paper() {
        // two RRHs per mast: 560 W full, 336 W idle, 224 W sleep
        let mast = rrh().scaled(2.0);
        assert_eq!(mast.full_load_power(), Watts::new(560.0));
        assert_eq!(mast.input_power(OperatingState::Idle), Watts::new(336.0));
        assert_eq!(mast.input_power(OperatingState::Sleep), Watts::new(224.0));
    }

    #[test]
    fn state_helpers() {
        assert_eq!(
            OperatingState::full_load(),
            OperatingState::Active(LoadFraction::FULL)
        );
        assert_eq!(OperatingState::default(), OperatingState::Idle);
    }

    #[test]
    #[should_panic(expected = "P0 must be non-negative")]
    fn negative_p0_rejected() {
        let _ = LoadDependentPower::new(Watts::new(1.0), Watts::new(-1.0), 1.0, Watts::ZERO);
    }
}
