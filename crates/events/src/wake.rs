//! Wake policies and the per-node operating state machine.

use corridor_units::Seconds;

/// The state of a node's sleep controller in the time-domain simulation.
///
/// Transitions (billed as the simulator walks a node's occupancy
/// intervals in entry order):
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

/// The timing parameters of the sleep/wake state machine.
///
/// The photoelectric barrier's *lead* (how early it trips before a
/// train enters the section), the node's *wake delay* (how long it takes
/// to become operational) and a *guard* interval: how long a node stays
/// powered after the last train clears its section before dropping back
/// to sleep, absorbing sensor debounce and closely following trains.
///
/// There are two policies, [`WakePolicy::instant`] and
/// [`WakePolicy::paper_default`]. Each finishes every wake no later than
/// the entry that triggered it, `(enter − lead) + wake_delay <= enter`,
/// so no train is ever in a section whose node is still waking.
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
    /// Idealized instant transitions: the node is powered exactly while a
    /// train overlaps its section — the policy under which the
    /// event-driven backend reproduces the closed-form numbers.
    pub fn instant() -> Self {
        WakePolicy::default()
    }

    /// The paper's nominal design: barrier trips 1 s early, the node
    /// wakes in 300 ms, and a 500 ms guard absorbs sensor debounce.
    pub fn paper_default() -> Self {
        WakePolicy {
            lead: Seconds::new(1.0),
            wake_delay: Seconds::new(0.3),
            guard: Seconds::new(0.5),
        }
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
    fn default_state_is_asleep() {
        assert_eq!(NodeState::default(), NodeState::Asleep);
    }

    #[test]
    fn every_wake_ends_by_its_entry() {
        // the premise of the simulator's walk, over hostile entries: a
        // barrier tripping `lead` before the entry wakes the node by then
        let big = 2f64.powi(53).to_bits();
        let subnormal = f64::from_bits(1);
        let mut entries = vec![0.0, subnormal, f64::MIN_POSITIVE / 2.0, 1.0];
        entries.extend([big - 1, big, big + 1].map(f64::from_bits));
        entries.extend([f64::MAX, f64::INFINITY]);
        for entry in entries.clone() {
            entries.push(-entry);
        }
        for policy in [WakePolicy::instant(), WakePolicy::paper_default()] {
            for &entry in &entries {
                let enter = Seconds::new(entry);
                let ready = (enter - policy.lead()) + policy.wake_delay();
                assert!(
                    ready <= enter,
                    "{policy:?}: entry {entry} ready at {ready:?}"
                );
            }
        }
    }
}
