//! Barrier-triggered sleep/wake control.

use corridor_units::Seconds;

/// The photoelectric-barrier wake controller of a sleeping repeater node.
///
/// The paper states that sleep⇄active transitions take "a few hundred
/// milliseconds" and that a passing train is detected by a photoelectric
/// barrier. This type models the two timing parameters that matter:
///
/// * `lead` — how far in advance the barrier trips before the train enters
///   the coverage section (barriers are installed a little up-track, so the
///   node is powered `lead` seconds early);
/// * `wake_delay` — how long the node takes to become operational after
///   being triggered.
///
/// If `wake_delay > lead`, the first `wake_delay − lead` seconds of each
/// pass are *uncovered*: the node is still waking while the train is
/// already in its section. [`WakeController::uncovered_time`] quantifies
/// that gap for the ablation study; the paper's argument is that a few
/// hundred ms at 55 m/s (≈15–30 m of track) is negligible, which the bench
/// confirms.
///
/// # Examples
///
/// ```
/// use corridor_traffic::WakeController;
/// use corridor_units::Seconds;
///
/// let ctl = WakeController::new(Seconds::new(1.0), Seconds::new(0.3));
/// assert_eq!(ctl.uncovered_time(), Seconds::ZERO); // barrier leads the delay
///
/// let tight = WakeController::new(Seconds::ZERO, Seconds::new(0.3));
/// assert_eq!(tight.uncovered_time(), Seconds::new(0.3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct WakeController {
    lead: Seconds,
    wake_delay: Seconds,
}

impl WakeController {
    /// A controller with the given barrier lead and wake-up delay.
    ///
    /// # Panics
    ///
    /// Panics if either duration is negative.
    pub fn new(lead: Seconds, wake_delay: Seconds) -> Self {
        assert!(lead.value() >= 0.0, "lead must be non-negative");
        assert!(wake_delay.value() >= 0.0, "wake delay must be non-negative");
        WakeController { lead, wake_delay }
    }

    /// The paper's nominal design: transition time of 300 ms with the
    /// barrier placed to trigger one second early.
    pub fn paper_default() -> Self {
        WakeController::new(Seconds::new(1.0), Seconds::new(0.3))
    }

    /// An idealized controller with instant transitions.
    pub fn instant() -> Self {
        WakeController::default()
    }

    /// Barrier lead time.
    pub fn lead(&self) -> Seconds {
        self.lead
    }

    /// Sleep-to-active transition time.
    pub fn wake_delay(&self) -> Seconds {
        self.wake_delay
    }

    /// The powered interval for an occupancy `(enter, exit)`: power-on at
    /// `enter − lead` (when the barrier trips) and off at `exit`.
    pub fn powered_interval(&self, occupancy: (Seconds, Seconds)) -> (Seconds, Seconds) {
        (occupancy.0 - self.lead, occupancy.1)
    }

    /// Time per pass during which the train is in the section but the node
    /// is not yet operational: `max(0, wake_delay − lead)`.
    pub fn uncovered_time(&self) -> Seconds {
        (self.wake_delay - self.lead).max(Seconds::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_has_no_gap() {
        let ctl = WakeController::paper_default();
        assert_eq!(ctl.uncovered_time(), Seconds::ZERO);
    }

    #[test]
    fn instant_controller_neutral() {
        let ctl = WakeController::instant();
        let occ = (Seconds::new(10.0), Seconds::new(20.0));
        assert_eq!(ctl.powered_interval(occ), occ);
        assert_eq!(ctl.uncovered_time(), Seconds::ZERO);
    }

    #[test]
    fn powered_interval_extends_by_lead() {
        let ctl = WakeController::new(Seconds::new(2.0), Seconds::new(0.5));
        let (on, off) = ctl.powered_interval((Seconds::new(100.0), Seconds::new(110.0)));
        assert_eq!(on, Seconds::new(98.0));
        assert_eq!(off, Seconds::new(110.0));
    }

    #[test]
    fn uncovered_when_delay_exceeds_lead() {
        let ctl = WakeController::new(Seconds::new(0.1), Seconds::new(0.5));
        assert!((ctl.uncovered_time().value() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn accessors() {
        let ctl = WakeController::new(Seconds::new(1.5), Seconds::new(0.2));
        assert_eq!(ctl.lead(), Seconds::new(1.5));
        assert_eq!(ctl.wake_delay(), Seconds::new(0.2));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_lead_rejected() {
        let _ = WakeController::new(Seconds::new(-1.0), Seconds::ZERO);
    }
}
