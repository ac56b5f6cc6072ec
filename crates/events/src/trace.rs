//! The energy integrator: per-state time accounting for one node.

use corridor_power::{DutyCycle, LoadDependentPower};
use corridor_units::{Hours, Seconds, WattHours, Watts};

use crate::NodeState;

/// Accumulated per-state time of one node over the simulation horizon,
/// plus wake statistics.
///
/// The integrator bills the three powered states (`Waking`, `Active`,
/// `Drain`) at full load and the remainder of the horizon at the
/// strategy's fallback state, reusing the exact
/// [`DutyCycle`] arithmetic of the closed-form model — which is what
/// lets the differential harness pin the two backends against each other
/// to fractions of a percent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateTrace {
    horizon: Seconds,
    asleep: Seconds,
    waking: Seconds,
    active: Seconds,
    drain: Seconds,
    wakes: usize,
    uncovered: Seconds,
}

impl StateTrace {
    /// An empty trace over the given horizon.
    ///
    /// # Panics
    ///
    /// Panics if the horizon is not strictly positive.
    pub fn new(horizon: Seconds) -> Self {
        assert!(horizon.value() > 0.0, "horizon must be positive");
        StateTrace {
            horizon,
            asleep: Seconds::ZERO,
            waking: Seconds::ZERO,
            active: Seconds::ZERO,
            drain: Seconds::ZERO,
            wakes: 0,
            uncovered: Seconds::ZERO,
        }
    }

    /// Adds `duration` spent in `state` (negative durations are clamped
    /// to zero).
    pub(crate) fn add(&mut self, state: NodeState, duration: Seconds) {
        let duration = duration.max(Seconds::ZERO);
        match state {
            NodeState::Asleep => self.asleep += duration,
            NodeState::Waking => self.waking += duration,
            NodeState::Active => self.active += duration,
            NodeState::Drain => self.drain += duration,
        }
    }

    /// Records one asleep→waking transition.
    pub(crate) fn count_wake(&mut self) {
        self.wakes += 1;
    }

    /// Adds time during which a train was in the section while the node
    /// was still waking.
    pub(crate) fn add_uncovered(&mut self, duration: Seconds) {
        self.uncovered += duration.max(Seconds::ZERO);
    }

    /// Time asleep.
    pub fn asleep(&self) -> Seconds {
        self.asleep
    }

    /// Time in the wake transition.
    // corridor-lint: allow(unused-pub, reason = "crates/events/tests/sim_differential.rs (DayBits::of, report_digest) compares each node's waking time with the global-loop oracle and the heap-era digests bit for bit; production bills it through powered()")
    pub fn waking(&self) -> Seconds {
        self.waking
    }

    /// Time fully operational.
    // corridor-lint: allow(unused-pub, reason = "crates/events/tests/sim_differential.rs (DayBits::of, report_digest) compares each node's active time with the global-loop oracle and the heap-era digests bit for bit; production bills it through powered()")
    pub fn active(&self) -> Seconds {
        self.active
    }

    /// Time in the post-train guard interval.
    pub fn drain(&self) -> Seconds {
        self.drain
    }

    /// Total powered time (waking + active + drain).
    pub fn powered(&self) -> Seconds {
        self.waking + self.active + self.drain
    }

    /// Number of asleep→waking transitions.
    pub fn wakes(&self) -> usize {
        self.wakes
    }

    /// Total time a train was in the section while the node was not yet
    /// operational (the wake-latency coverage gap).
    pub fn uncovered(&self) -> Seconds {
        self.uncovered
    }

    /// The equivalent duty cycle over the horizon: powered time at full
    /// load, no idle time, the remainder in the fallback state.
    ///
    /// # Panics
    ///
    /// Panics if the accumulated powered time exceeds the horizon (the
    /// simulator never produces such a trace).
    pub fn duty_cycle(&self) -> DutyCycle {
        DutyCycle::new(self.powered().hours(), Hours::ZERO, self.horizon.hours())
            // corridor-lint: allow(no-panic, reason = "documented `# Panics` API: the simulator clamps powered time to the horizon by construction")
            .expect("powered time is within the horizon")
    }

    /// Time-averaged power with the horizon remainder asleep.
    pub fn average_power(&self, model: &LoadDependentPower) -> Watts {
        self.duty_cycle().average_power(model)
    }

    /// Time-averaged power when the node cannot sleep (remainder idles
    /// at `P0` — the continuous-operation strategy).
    pub fn average_power_idle_fallback(&self, model: &LoadDependentPower) -> Watts {
        self.duty_cycle().average_power_idle_fallback(model)
    }

    /// Energy over one day with a sleeping remainder.
    pub fn daily_energy(&self, model: &LoadDependentPower) -> WattHours {
        self.duty_cycle().daily_energy(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corridor_power::catalog;

    fn sec(v: f64) -> Seconds {
        Seconds::new(v)
    }

    #[test]
    fn accumulates_per_state() {
        let mut t = StateTrace::new(Seconds::new(86_400.0));
        t.add(NodeState::Asleep, sec(100.0));
        t.add(NodeState::Waking, sec(1.0));
        t.add(NodeState::Active, sec(20.0));
        t.add(NodeState::Drain, sec(0.5));
        t.add(NodeState::Active, sec(-5.0)); // clamped
        t.count_wake();
        assert_eq!(t.asleep(), sec(100.0));
        assert_eq!(t.waking(), sec(1.0));
        assert_eq!(t.active(), sec(20.0));
        assert_eq!(t.drain(), sec(0.5));
        assert_eq!(t.powered(), sec(21.5));
        assert_eq!(t.wakes(), 1);
    }

    #[test]
    fn matches_closed_form_duty_cycle() {
        // the paper's service repeater: 0.456 h powered per day
        let mut t = StateTrace::new(Seconds::new(86_400.0));
        t.add(NodeState::Active, Hours::new(0.456).seconds());
        let model = catalog::low_power_repeater_measured();
        let reference = DutyCycle::over_day(Hours::new(0.456), Hours::ZERO);
        // the seconds→hours round trip may wiggle the last ulp
        assert!(
            (t.average_power(&model).value() - reference.average_power(&model).value()).abs()
                < 1e-9
        );
        assert!(
            (t.daily_energy(&model).value() - reference.daily_energy(&model).value()).abs() < 1e-9
        );
        assert!((t.daily_energy(&model).value() - 124.07).abs() < 0.1);
    }

    #[test]
    fn idle_fallback_exceeds_sleep_fallback() {
        let mut t = StateTrace::new(Seconds::new(86_400.0));
        t.add(NodeState::Active, sec(3600.0));
        let model = catalog::low_power_repeater_measured();
        assert!(t.average_power_idle_fallback(&model) > t.average_power(&model));
    }

    #[test]
    fn uncovered_accumulates() {
        let mut t = StateTrace::new(Seconds::new(1000.0));
        t.add_uncovered(sec(0.3));
        t.add_uncovered(sec(0.2));
        t.add_uncovered(sec(-1.0));
        assert!((t.uncovered().value() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "horizon must be positive")]
    fn zero_horizon_rejected() {
        let _ = StateTrace::new(Seconds::ZERO);
    }
}
