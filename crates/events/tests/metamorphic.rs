//! Metamorphic properties of the event-driven backend on Poisson days:
//! relations between two runs that must hold whatever the exact figures
//! are, under the instant, paper and custom wake policies.
//!
//! - Adding a pass to a day never lowers any node's powered time.
//! - Sleep-mode repeaters never draw more than continuous repeaters on
//!   the same day.

use corridor_core::deploy::IsdTable;
use corridor_core::traffic::{PoissonTimetable, Train, TrainPass};
use corridor_core::units::{Hours, KilometersPerHour, Meters, Seconds, Watts};
use corridor_core::{EnergyStrategy, ScenarioParams};
use corridor_events::{EventDrivenEvaluator, WakePolicy};
use proptest::prelude::*;
use rand::SeedableRng;

/// How far a powered time may drop when a pass is added: the state
/// times are sums of differences, and splitting a segment where an
/// added pass cancels a drain or straddles the horizon can round the
/// sum down by a few ulps of the day.
const ROUNDING_S: f64 = 1e-9;

/// Instant, paper, or a custom policy with lead/delay/guard up to 10 s.
fn policy_strategy() -> impl Strategy<Value = WakePolicy> {
    (0u8..=3, (0u8..=4, 0u8..=4, 0u8..=4)).prop_map(|(which, (lead, delay, guard))| match which {
        0 => WakePolicy::instant(),
        1 => WakePolicy::paper_default(),
        _ => {
            let s = |k: u8| Seconds::new(f64::from(k) * 2.5);
            WakePolicy::new(s(lead), s(delay), s(guard))
        }
    })
}

/// One seeded Poisson day at 2, 8 or 20 trains/h over the paper's
/// service window: sparse, paper-rate and overlapping traffic.
fn poisson_day(rate: u8, seed: u64) -> Vec<TrainPass> {
    let per_hour = [2.0, 8.0, 20.0][usize::from(rate)];
    let timetable = PoissonTimetable::new(
        per_hour,
        Hours::new(19.0),
        Hours::new(5.0).seconds(),
        Train::paper_default(),
    );
    timetable.sample_passes(&mut rand::rngs::StdRng::seed_from_u64(seed))
}

/// The paper's repeater count and its inter-site distance.
fn segment(n: usize) -> (usize, Meters) {
    (
        n,
        IsdTable::paper()
            .isd_for(n)
            .expect("the paper table covers 0-10 repeaters"),
    )
}

proptest! {
    /// Every node is powered at least as long with one more pass
    /// anywhere in (or around) the day, whatever train it is.
    #[test]
    fn adding_a_pass_never_lowers_powered_time(
        policy in policy_strategy(),
        rate in 0u8..=2,
        seed in 0u64..1_000_000,
        n in 0usize..=10,
        origin in -200.0..=90_000.0f64,
        fast in 0u8..=1,
    ) {
        let params = ScenarioParams::paper_default();
        let (n, isd) = segment(n);
        let evaluator = EventDrivenEvaluator::with_policy(policy);
        let day = poisson_day(rate, seed);
        let train = if fast == 1 {
            Train::new(Meters::new(400.0), KilometersPerHour::new(288.0).meters_per_second())
        } else {
            Train::paper_default()
        };
        let mut busier = day.clone();
        let at = busier.partition_point(|p| p.origin_time().value() < origin);
        busier.insert(at, TrainPass::new(train, Seconds::new(origin)));

        let replicator = evaluator.replicator(&params, n, isd);
        let before = replicator.simulate_day(&day);
        let after = replicator.simulate_day(&busier);
        for (b, a) in before.nodes().iter().zip(after.nodes()) {
            let (b, a) = (b.trace().powered().value(), a.trace().powered().value());
            prop_assert!(a >= b - ROUNDING_S, "n = {n}: powered {b} s, then {a} s");
        }
    }

    /// On every day, the sleep-mode repeaters' power is at most the
    /// continuous repeaters', role by role: same powered time, and the
    /// remainder sleeps instead of idling.
    #[test]
    fn sleep_mode_repeaters_draw_no_more_than_continuous_ones(
        policy in policy_strategy(),
        rate in 0u8..=2,
        seed in 0u64..1_000_000,
        n in 0usize..=10,
    ) {
        let params = ScenarioParams::paper_default();
        let (n, isd) = segment(n);
        let report = EventDrivenEvaluator::with_policy(policy)
            .replicator(&params, n, isd)
            .simulate_day(&poisson_day(rate, seed));
        let energy = |strategy| EventDrivenEvaluator::power_from_report(&params, n, isd, strategy, &report);
        let sleep = energy(EnergyStrategy::SleepModeRepeaters);
        let continuous = energy(EnergyStrategy::ContinuousRepeaters);
        prop_assert!(sleep.service <= continuous.service);
        prop_assert!(sleep.donor <= continuous.donor);
        prop_assert!(sleep.service + sleep.donor <= continuous.service + continuous.donor);
        if n > 0 {
            prop_assert!(sleep.service < continuous.service, "{n} repeaters sleep part of the day");
        } else {
            prop_assert_eq!(sleep.service, Watts::ZERO);
        }
    }
}
