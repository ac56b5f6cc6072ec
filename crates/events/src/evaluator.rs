//! The event-driven energy backend: a [`SegmentEvaluator`] computing the
//! paper's per-kilometre figures from simulated state traces.

use corridor_core::energy::SegmentEnergy;
use corridor_core::{EnergyStrategy, ScenarioParams, SegmentEvaluator};
use corridor_deploy::SegmentInventory;
use corridor_units::{Meters, Watts};

use crate::{NodeKind, SimReport, WakePolicy};

/// Computes the corridor energy split by replaying train passes through
/// the discrete-event simulator instead of the closed-form duty-cycle
/// math.
///
/// With the default [`WakePolicy::instant`] the backend reproduces the
/// analytic numbers to float precision on deterministic timetables (the
/// differential suite enforces < 0.1 %); with a realistic policy it
/// quantifies what the closed form leaves out (wake latency, guard
/// intervals). Its [`replicator`](EventDrivenEvaluator::replicator)
/// replays arbitrary pass lists — Poisson days, jittered schedules,
/// mixed services — that the closed form cannot express at all, and
/// [`EventDrivenEvaluator::power_from_report`] prices each simulated day.
///
/// # Examples
///
/// ```
/// use corridor_core::{AnalyticEvaluator, EnergyStrategy, ScenarioParams, SegmentEvaluator};
/// use corridor_events::EventDrivenEvaluator;
/// use corridor_units::Meters;
///
/// let params = ScenarioParams::paper_default();
/// let isd = Meters::new(2650.0);
/// let strategy = EnergyStrategy::SleepModeRepeaters;
/// let simulated = EventDrivenEvaluator::new().average_power_per_km(&params, 10, isd, strategy);
/// let analytic = AnalyticEvaluator.average_power_per_km(&params, 10, isd, strategy);
/// let diff = (simulated.total().value() - analytic.total().value()).abs();
/// assert!(diff / analytic.total().value() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EventDrivenEvaluator {
    policy: WakePolicy,
}

impl EventDrivenEvaluator {
    /// An evaluator with instant wake transitions (the differential
    /// reference configuration).
    pub fn new() -> Self {
        EventDrivenEvaluator {
            policy: WakePolicy::instant(),
        }
    }

    /// An evaluator simulating under the given wake policy.
    pub fn with_policy(policy: WakePolicy) -> Self {
        EventDrivenEvaluator { policy }
    }

    /// The wake policy in effect.
    pub fn policy(&self) -> WakePolicy {
        self.policy
    }

    /// Derives the per-kilometre energy split of one strategy from an
    /// already simulated [`SimReport`]. The simulation depends only on
    /// the geometry and passes, so one report serves all three
    /// strategies — the sweep engine relies on this to simulate each
    /// cell once, not once per strategy.
    pub fn power_from_report(
        params: &ScenarioParams,
        n: usize,
        isd: Meters,
        strategy: EnergyStrategy,
        report: &SimReport,
    ) -> SegmentEnergy {
        let per_km = SegmentInventory::for_nodes(n, isd).segments_per_km();

        // the HP mast sleeps between trains under every strategy
        let hp_avg: Watts = report
            .nodes_of(NodeKind::HighPowerMast)
            .map(|node| node.trace().average_power(params.hp_mast()))
            .sum();

        let repeater_avg = |kind: NodeKind| -> Watts {
            report
                .nodes_of(kind)
                .map(|node| match strategy {
                    EnergyStrategy::ContinuousRepeaters => {
                        node.trace().average_power_idle_fallback(params.lp_node())
                    }
                    EnergyStrategy::SleepModeRepeaters => {
                        node.trace().average_power(params.lp_node())
                    }
                    EnergyStrategy::SolarPoweredRepeaters => Watts::ZERO,
                })
                .sum()
        };

        SegmentEnergy {
            hp: hp_avg * per_km,
            service: repeater_avg(NodeKind::ServiceRepeater) * per_km,
            donor: repeater_avg(NodeKind::DonorRepeater) * per_km,
        }
    }
}

impl SegmentEvaluator for EventDrivenEvaluator {
    fn name(&self) -> &'static str {
        "event-driven"
    }

    fn average_power_per_km(
        &self,
        params: &ScenarioParams,
        n: usize,
        isd: Meters,
        strategy: EnergyStrategy,
    ) -> SegmentEnergy {
        let report = self
            .replicator(params, n, isd)
            .simulate_day(&params.timetable().passes());
        Self::power_from_report(params, n, isd, strategy, &report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corridor_core::AnalyticEvaluator;
    use corridor_deploy::IsdTable;

    fn relative_diff(a: f64, b: f64) -> f64 {
        if b == 0.0 {
            a.abs()
        } else {
            (a - b).abs() / b.abs()
        }
    }

    #[test]
    fn matches_analytic_on_every_paper_cell() {
        let params = ScenarioParams::paper_default();
        let table = IsdTable::paper();
        let simulated = EventDrivenEvaluator::new();
        for n in 0..=10 {
            let isd = table.isd_for(n).unwrap();
            for strategy in EnergyStrategy::ALL {
                let sim = simulated.average_power_per_km(&params, n, isd, strategy);
                let ana = AnalyticEvaluator.average_power_per_km(&params, n, isd, strategy);
                for (s, a, role) in [
                    (sim.hp, ana.hp, "hp"),
                    (sim.service, ana.service, "service"),
                    (sim.donor, ana.donor, "donor"),
                ] {
                    assert!(
                        relative_diff(s.value(), a.value()) < 1e-9,
                        "n={n} {strategy} {role}: {} vs {}",
                        s,
                        a
                    );
                }
            }
        }
    }

    #[test]
    fn baseline_matches_analytic() {
        let params = ScenarioParams::paper_default();
        let sim = EventDrivenEvaluator::new().conventional_baseline(&params);
        let ana = AnalyticEvaluator.conventional_baseline(&params);
        assert!(relative_diff(sim.total().value(), ana.total().value()) < 1e-9);
        assert_eq!(sim.service, Watts::ZERO);
    }

    #[test]
    fn realistic_policy_costs_slightly_more() {
        let params = ScenarioParams::paper_default();
        let isd = Meters::new(2650.0);
        let instant = EventDrivenEvaluator::new().average_power_per_km(
            &params,
            10,
            isd,
            EnergyStrategy::SleepModeRepeaters,
        );
        let padded = EventDrivenEvaluator::with_policy(WakePolicy::paper_default())
            .average_power_per_km(&params, 10, isd, EnergyStrategy::SleepModeRepeaters);
        assert!(padded.total() > instant.total());
        // ... but the overhead is tiny (the paper's argument): < 1 %
        let overhead = padded.total().value() / instant.total().value() - 1.0;
        assert!(overhead < 0.01, "overhead {overhead}");
    }

    #[test]
    fn name_and_policy_accessors() {
        let ev = EventDrivenEvaluator::with_policy(WakePolicy::paper_default());
        assert_eq!(ev.name(), "event-driven");
        assert_eq!(ev.policy(), WakePolicy::paper_default());
        assert_eq!(EventDrivenEvaluator::default(), EventDrivenEvaluator::new());
    }
}
