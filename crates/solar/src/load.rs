//! Hourly load profiles for the off-grid simulation.

use core::fmt;

use corridor_units::{WattHours, Watts};

/// A repeating 24-hour load profile (hourly mean powers).
///
/// The paper's PVGIS runs use "5 h per night continuously in sleep mode
/// while the low-power repeater nodes operate in a mix of sleep mode and
/// full load for the remaining 19 h" — a daily total of 124.1 Wh
/// ([`DailyLoadProfile::repeater_paper_default`]).
///
/// # Examples
///
/// ```
/// use corridor_solar::DailyLoadProfile;
/// let load = DailyLoadProfile::repeater_paper_default();
/// assert!((load.daily_energy().value() - 124.1).abs() < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DailyLoadProfile {
    hourly: [Watts; 24],
}

impl DailyLoadProfile {
    /// The paper's repeater profile: sleep power (4.72 W) during the 5
    /// night hours (00:00–05:00), and the service-day average (5.29 W,
    /// sleep + train full-load bursts) for the remaining 19 h.
    pub fn repeater_paper_default() -> Self {
        Self::repeater_profile(Watts::new(4.72), Watts::new(5.2884), 5)
    }

    /// A repeater profile: `night_hours` hours of `sleep_power` starting
    /// at midnight, `day_power` otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `night_hours > 24` or a power is negative.
    pub fn repeater_profile(sleep_power: Watts, day_power: Watts, night_hours: usize) -> Self {
        assert!(night_hours <= 24, "night hours exceed a day");
        assert!(
            sleep_power.value() >= 0.0 && day_power.value() >= 0.0,
            "powers must be non-negative"
        );
        let mut hourly = [day_power; 24];
        hourly[..night_hours].fill(sleep_power);
        DailyLoadProfile { hourly }
    }

    /// A profile from explicit hourly powers.
    // corridor-lint: allow(unused-pub, reason = "tests/cross_crate.rs::traffic_to_solar_pipeline sizes a traffic-derived hourly load with the live OffGridSystem::simulate_year; solar's own tests build flat loads with it")
    pub fn from_hourly(hourly: [Watts; 24]) -> Self {
        assert!(
            hourly.iter().all(|p| p.value() >= 0.0),
            "powers must be non-negative"
        );
        DailyLoadProfile { hourly }
    }

    /// Mean power of hour `hour` (0..=23).
    ///
    /// # Panics
    ///
    /// Panics if `hour >= 24`.
    pub fn power_at_hour(&self, hour: usize) -> Watts {
        self.hourly[hour]
    }

    /// Energy drawn during hour `hour`.
    pub fn energy_at_hour(&self, hour: usize) -> WattHours {
        WattHours::new(self.hourly[hour].value())
    }

    /// Total energy per day.
    pub fn daily_energy(&self) -> WattHours {
        WattHours::new(self.hourly.iter().map(|p| p.value()).sum())
    }

    /// Average power over the day.
    pub fn average_power(&self) -> Watts {
        Watts::new(self.daily_energy().value() / 24.0)
    }
}

impl fmt::Display for DailyLoadProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "daily load {} (avg {})",
            self.daily_energy(),
            self.average_power()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_profile_daily_energy() {
        let load = DailyLoadProfile::repeater_paper_default();
        // 5·4.72 + 19·5.2884 = 124.08 Wh ≈ paper's 124.1 Wh
        assert!((load.daily_energy().value() - 124.08).abs() < 0.02);
        // 5.17 W average
        assert!((load.average_power().value() - 5.17).abs() < 0.01);
    }

    #[test]
    fn night_hours_use_sleep_power() {
        let load = DailyLoadProfile::repeater_paper_default();
        for h in 0..5 {
            assert_eq!(load.power_at_hour(h), Watts::new(4.72));
        }
        for h in 5..24 {
            assert_eq!(load.power_at_hour(h), Watts::new(5.2884));
        }
    }

    #[test]
    fn flat_profile() {
        let load = DailyLoadProfile::from_hourly([Watts::new(10.0); 24]);
        assert_eq!(load.daily_energy(), WattHours::new(240.0));
        assert_eq!(load.average_power(), Watts::new(10.0));
    }

    #[test]
    fn custom_hourly() {
        let mut hours = [Watts::ZERO; 24];
        hours[12] = Watts::new(24.0);
        let load = DailyLoadProfile::from_hourly(hours);
        assert_eq!(load.daily_energy(), WattHours::new(24.0));
        assert_eq!(load.energy_at_hour(12), WattHours::new(24.0));
        assert_eq!(load.energy_at_hour(0), WattHours::ZERO);
        assert_eq!(load.average_power(), Watts::new(1.0));
    }

    #[test]
    fn display() {
        let load = DailyLoadProfile::from_hourly([Watts::new(5.0); 24]);
        assert_eq!(load.to_string(), "daily load 120.00 Wh (avg 5.00 W)");
    }

    #[test]
    #[should_panic(expected = "night hours exceed a day")]
    fn invalid_night_hours_rejected() {
        let _ = DailyLoadProfile::repeater_profile(Watts::ZERO, Watts::ZERO, 25);
    }
}
