//! Wake policies and the per-node operating state machine.

use core::fmt;

use corridor_units::Seconds;

/// The state of a node's sleep controller in the time-domain simulation.
///
/// Transitions (driven by the event loop):
///
/// ```text
/// Asleep --barrier trip--> Waking --wake delay elapsed--> Active
/// Active --last train cleared--> Drain --guard elapsed--> Asleep
/// Drain  --barrier trip / train enters--> Active
/// ```
///
/// `Waking`, `Active` and `Drain` are all *powered* states (the
/// integrator bills them at full load); only `Asleep` falls back to the
/// strategy's low-power state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodeState {
    /// Deep sleep between trains.
    #[default]
    Asleep,
    /// Powering up after a barrier trigger.
    Waking,
    /// Fully operational (a train is in or approaching the section).
    Active,
    /// Guard interval after the last train cleared, before sleeping.
    Drain,
}

impl NodeState {}

impl fmt::Display for NodeState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NodeState::Asleep => "asleep",
            NodeState::Waking => "waking",
            NodeState::Active => "active",
            NodeState::Drain => "drain",
        })
    }
}

/// The timing parameters of the sleep/wake state machine.
///
/// Extends the analytic [`WakeController`](corridor_traffic::WakeController) (barrier lead + wake delay)
/// with a *guard* interval: how long a node stays powered after the last
/// train clears its section before dropping back to sleep, absorbing
/// sensor debounce and closely following trains.
///
/// # Examples
///
/// ```
/// use corridor_events::WakePolicy;
/// use corridor_units::Seconds;
///
/// let policy = WakePolicy::paper_default();
/// assert_eq!(policy.lead(), Seconds::new(1.0));
/// assert_eq!(policy.wake_delay(), Seconds::new(0.3));
///
/// // the differential harness runs with instant transitions
/// assert_eq!(WakePolicy::instant().guard(), Seconds::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WakePolicy {
    lead: Seconds,
    wake_delay: Seconds,
    guard: Seconds,
}

impl WakePolicy {
    /// A policy with the given barrier lead, wake delay and guard
    /// interval.
    ///
    /// # Panics
    ///
    /// Panics if any duration is negative.
    pub fn new(lead: Seconds, wake_delay: Seconds, guard: Seconds) -> Self {
        assert!(lead.value() >= 0.0, "lead must be non-negative");
        assert!(wake_delay.value() >= 0.0, "wake delay must be non-negative");
        assert!(guard.value() >= 0.0, "guard must be non-negative");
        WakePolicy {
            lead,
            wake_delay,
            guard,
        }
    }

    /// Idealized instant transitions: the node is powered exactly while a
    /// train overlaps its section — the policy under which the
    /// event-driven backend reproduces the closed-form numbers.
    pub fn instant() -> Self {
        WakePolicy::default()
    }

    /// The paper's nominal design: barrier trips 1 s early, the node
    /// wakes in 300 ms, and a 500 ms guard absorbs sensor debounce.
    pub fn paper_default() -> Self {
        WakePolicy::new(Seconds::new(1.0), Seconds::new(0.3), Seconds::new(0.5))
    }

    /// Barrier lead time (the node is triggered this early).
    pub fn lead(&self) -> Seconds {
        self.lead
    }

    /// Sleep-to-active transition time.
    pub fn wake_delay(&self) -> Seconds {
        self.wake_delay
    }

    /// Powered dwell after the last train clears the section.
    pub fn guard(&self) -> Seconds {
        self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_policy_is_all_zero() {
        let p = WakePolicy::instant();
        assert_eq!(p.lead(), Seconds::ZERO);
        assert_eq!(p.wake_delay(), Seconds::ZERO);
        assert_eq!(p.guard(), Seconds::ZERO);
    }

    #[test]
    fn paper_default_values() {
        let p = WakePolicy::paper_default();
        assert_eq!(p.lead(), Seconds::new(1.0));
        assert_eq!(p.wake_delay(), Seconds::new(0.3));
        assert_eq!(p.guard(), Seconds::new(0.5));
    }

    #[test]
    fn state_helpers_and_display() {
        assert_eq!(NodeState::default(), NodeState::Asleep);
        assert_eq!(NodeState::Asleep.to_string(), "asleep");
        assert_eq!(NodeState::Drain.to_string(), "drain");
    }

    #[test]
    #[should_panic(expected = "guard must be non-negative")]
    fn negative_guard_rejected() {
        let _ = WakePolicy::new(Seconds::ZERO, Seconds::ZERO, Seconds::new(-1.0));
    }
}
