//! Property-based tests for traffic and occupancy invariants.

use corridor_traffic::{
    ActivityTimeline, PoissonTimetable, Timetable, TrackSection, Train, TrainPass, WakeController,
};
use corridor_units::{Hours, KilometersPerHour, Meters, Seconds};
use proptest::prelude::*;
use rand::SeedableRng;

fn train() -> impl Strategy<Value = Train> {
    (50.0..600.0f64, 40.0..350.0f64).prop_map(|(len, kmh)| {
        Train::new(
            Meters::new(len),
            KilometersPerHour::new(kmh).meters_per_second(),
        )
    })
}

proptest! {
    /// Occupancy duration is exactly (section + train)/v.
    #[test]
    fn occupancy_duration_formula(t in train(), start in 0.0..5000.0f64, len in 0.0..3000.0f64, t0 in 0.0..86400.0f64) {
        let section = TrackSection::new(Meters::new(start), Meters::new(start + len));
        let pass = TrainPass::new(t, Seconds::new(t0));
        let (enter, exit) = section.occupancy(&pass);
        let expected = (len + t.length().value()) / t.speed().value();
        prop_assert!(((exit - enter).value() - expected).abs() < 1e-9);
    }

    /// Timelines never double-count: total <= n_passes * per-pass duration,
    /// with equality when headways are long enough to avoid overlap.
    #[test]
    fn merged_total_bounded(trains_per_hour in 1.0..40.0f64, isd in 100.0..3000.0f64) {
        let timetable = Timetable::new(
            trains_per_hour,
            Hours::new(19.0),
            Seconds::ZERO,
            Train::paper_default(),
        );
        let section = TrackSection::new(Meters::ZERO, Meters::new(isd));
        let passes = timetable.passes();
        let activity = ActivityTimeline::for_section(&section, &passes);
        let (enter, exit) = section.occupancy(&TrainPass::new(Train::paper_default(), Seconds::ZERO));
        let per_pass = (exit - enter).value();
        let upper = passes.len() as f64 * per_pass;
        prop_assert!(activity.total_active().value() <= upper + 1e-6);
        // headway > per-pass duration implies no merging
        let headway = 3600.0 / trains_per_hour;
        if headway > per_pass + 1.0 {
            prop_assert!((activity.total_active().value() - upper).abs() < 1e-6);
            prop_assert_eq!(activity.len(), passes.len());
        }
    }

    /// Intervals of a timeline are sorted, disjoint and well-formed.
    #[test]
    fn intervals_sorted_disjoint(seed in 0u64..500) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let timetable = PoissonTimetable::paper_rate();
        let passes = timetable.sample_passes(&mut rng);
        let section = TrackSection::new(Meters::ZERO, Meters::new(2400.0));
        let activity = ActivityTimeline::for_section(&section, &passes);
        let intervals = activity.intervals();
        for w in intervals.windows(2) {
            prop_assert!(w[0].1 < w[1].0, "intervals overlap after merge");
        }
        for (s, e) in intervals {
            prop_assert!(e > s);
        }
    }

    /// active_within partitions: summing over any partition of the day
    /// equals the total.
    #[test]
    fn active_within_partitions(seed in 0u64..200, parts in 1usize..48) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let passes = PoissonTimetable::paper_rate().sample_passes(&mut rng);
        let section = TrackSection::around(Meters::new(600.0), Meters::new(200.0));
        let activity = ActivityTimeline::for_section(&section, &passes);
        let day = 86_400.0 * 2.0; // cover spill past midnight
        let step = day / parts as f64;
        let mut sum = 0.0;
        for i in 0..parts {
            sum += activity
                .active_within(Seconds::new(i as f64 * step), Seconds::new((i + 1) as f64 * step))
                .value();
        }
        prop_assert!((sum - activity.total_active().value()).abs() < 1e-6);
    }

    /// Wake lead only ever extends the powered interval at the front.
    #[test]
    fn wake_extends_front(lead in 0.0..5.0f64, delay in 0.0..2.0f64, enter in 0.0..1000.0f64, dur in 1.0..100.0f64) {
        let ctl = WakeController::new(Seconds::new(lead), Seconds::new(delay));
        let occ = (Seconds::new(enter), Seconds::new(enter + dur));
        let (on, off) = ctl.powered_interval(occ);
        prop_assert!(on <= occ.0);
        prop_assert_eq!(off, occ.1);
        prop_assert!(((occ.0 - on).value() - lead).abs() < 1e-12);
    }

    /// The uncovered time is the wake delay beyond the barrier lead.
    #[test]
    fn uncovered_is_the_delay_beyond_the_lead(lead in 0.0..5.0f64, delay in 0.0..5.0f64) {
        let ctl = WakeController::new(Seconds::new(lead), Seconds::new(delay));
        let u = ctl.uncovered_time().value();
        prop_assert!((u - (delay - lead).max(0.0)).abs() < 1e-12);
    }

    /// A timeline with wake control is a superset in time of the plain one.
    #[test]
    fn wake_timeline_never_shorter(lead in 0.0..10.0f64) {
        let ctl = WakeController::new(Seconds::new(lead), Seconds::new(0.3));
        let passes = Timetable::paper_default().passes();
        let section = TrackSection::around(Meters::new(600.0), Meters::new(200.0));
        let plain = ActivityTimeline::for_section(&section, &passes);
        let waked = ActivityTimeline::for_section_with_wake(&section, &passes, &ctl);
        prop_assert!(waked.total_active() >= plain.total_active());
    }
}
