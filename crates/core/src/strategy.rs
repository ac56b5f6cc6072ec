//! The three operating strategies of the paper's Fig. 4.

use core::fmt;

/// How the low-power repeater nodes are operated and powered.
///
/// The high-power RRHs always use their sleep mode between trains (the
/// paper's Section V-A assumption); the strategies differ only in the
/// repeaters:
///
/// * [`ContinuousRepeaters`](EnergyStrategy::ContinuousRepeaters) — the
///   repeaters stay awake around the clock (idle at `P0` between trains);
/// * [`SleepModeRepeaters`](EnergyStrategy::SleepModeRepeaters) — the
///   barrier-triggered sleep mode drops them to 4.72 W between trains;
/// * [`SolarPoweredRepeaters`](EnergyStrategy::SolarPoweredRepeaters) —
///   sleep mode plus off-grid PV supply: repeaters draw no mains energy at
///   all, only the high-power masts remain grid-powered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnergyStrategy {
    /// Repeaters powered continuously (idle between trains).
    ContinuousRepeaters,
    /// Repeaters sleep between trains.
    SleepModeRepeaters,
    /// Repeaters sleep and are solar-powered (zero mains draw).
    SolarPoweredRepeaters,
}

impl EnergyStrategy {
    /// All strategies in the paper's Fig. 4 order (left to right).
    pub const ALL: [EnergyStrategy; 3] = [
        EnergyStrategy::ContinuousRepeaters,
        EnergyStrategy::SleepModeRepeaters,
        EnergyStrategy::SolarPoweredRepeaters,
    ];
}

impl fmt::Display for EnergyStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            EnergyStrategy::ContinuousRepeaters => "continuous operation",
            EnergyStrategy::SleepModeRepeaters => "sleep mode",
            EnergyStrategy::SolarPoweredRepeaters => "solar powered",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_in_figure_order() {
        assert_eq!(EnergyStrategy::ALL.len(), 3);
        assert_eq!(EnergyStrategy::ALL[0], EnergyStrategy::ContinuousRepeaters);
        assert_eq!(
            EnergyStrategy::ALL[2],
            EnergyStrategy::SolarPoweredRepeaters
        );
    }

    #[test]
    fn display_matches_figure_legend() {
        assert_eq!(
            EnergyStrategy::ContinuousRepeaters.to_string(),
            "continuous operation"
        );
        assert_eq!(EnergyStrategy::SleepModeRepeaters.to_string(), "sleep mode");
        assert_eq!(
            EnergyStrategy::SolarPoweredRepeaters.to_string(),
            "solar powered"
        );
    }
}
