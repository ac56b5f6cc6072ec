//! Merged activity timelines for a node over a day.

use corridor_units::{Hours, Seconds};

use crate::{TrackSection, TrainPass, WakeController};

/// The intervals during which a node is at full load over one day.
///
/// Built from a coverage section and the day's train passes; overlapping
/// intervals (dense traffic or long sections) are merged so the total never
/// double-counts.
///
/// # Examples
///
/// ```
/// use corridor_traffic::{ActivityTimeline, Timetable, TrackSection};
/// use corridor_units::Meters;
///
/// let section = TrackSection::around(Meters::new(600.0), Meters::new(200.0));
/// let activity = ActivityTimeline::for_section(&section, &Timetable::paper_default().passes());
/// assert_eq!(activity.len(), 152);
/// // 152 trains × 10.8 s = 1641.6 s ≈ 0.456 h of full load per day
/// assert!((activity.total_active_hours().value() - 0.456).abs() < 0.001);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ActivityTimeline {
    intervals: Vec<(Seconds, Seconds)>,
}

impl ActivityTimeline {
    /// Builds the timeline of a node serving `section` for the given
    /// passes. Intervals are sorted and merged.
    pub fn for_section(section: &TrackSection, passes: &[TrainPass]) -> Self {
        Self::from_intervals(passes.iter().map(|p| section.occupancy(p)))
    }

    /// Builds the timeline with a sleep controller's wake lead and delay
    /// applied to every occupancy interval.
    pub fn for_section_with_wake(
        section: &TrackSection,
        passes: &[TrainPass],
        wake: &WakeController,
    ) -> Self {
        Self::from_intervals(
            passes
                .iter()
                .map(|p| wake.powered_interval(section.occupancy(p))),
        )
    }

    /// Builds a timeline from raw `(start, end)` intervals; inverted
    /// intervals are discarded, the rest sorted and merged.
    pub fn from_intervals<I: IntoIterator<Item = (Seconds, Seconds)>>(intervals: I) -> Self {
        let mut raw: Vec<(Seconds, Seconds)> =
            intervals.into_iter().filter(|(s, e)| e > s).collect();
        raw.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut merged: Vec<(Seconds, Seconds)> = Vec::with_capacity(raw.len());
        for (start, end) in raw {
            match merged.last_mut() {
                Some((_, last_end)) if start <= *last_end => {
                    *last_end = last_end.max(end);
                }
                _ => merged.push((start, end)),
            }
        }
        ActivityTimeline { intervals: merged }
    }

    /// The merged busy intervals, sorted by start time.
    pub fn intervals(&self) -> &[(Seconds, Seconds)] {
        &self.intervals
    }

    /// Number of distinct busy intervals.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// True if the node is never active.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Total full-load time.
    pub fn total_active(&self) -> Seconds {
        self.intervals.iter().map(|(s, e)| *e - *s).sum()
    }

    /// Total full-load time in hours (the input to a
    /// `DutyCycle`-style energy computation in `corridor_power`).
    pub fn total_active_hours(&self) -> Hours {
        self.total_active().hours()
    }

    /// Total active time within the clock window `[from, to]` (used to
    /// build hourly load profiles for the solar simulation).
    // corridor-lint: allow(unused-pub, reason = "tests/cross_crate.rs::traffic_to_solar_pipeline builds the hourly load it sizes with OffGridSystem::simulate_year from it, and crates/events/tests/clipping.rs clips its analytic reference with it")
    pub fn active_within(&self, from: Seconds, to: Seconds) -> Seconds {
        self.intervals
            .iter()
            .map(|(s, e)| {
                let lo = s.max(from);
                let hi = e.min(to);
                if hi > lo {
                    hi - lo
                } else {
                    Seconds::ZERO
                }
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Timetable, Train};
    use corridor_units::Meters;

    fn sec(v: f64) -> Seconds {
        Seconds::new(v)
    }

    #[test]
    fn paper_hp_mast_activity() {
        // HP mast section = one ISD of 500 m: 152 × 16.2 s = 0.684 h/day
        let section = TrackSection::new(Meters::ZERO, Meters::new(500.0));
        let activity =
            ActivityTimeline::for_section(&section, &Timetable::paper_default().passes());
        assert!((activity.total_active_hours().value() - 0.684).abs() < 0.001);
        // full-load share of the day: 2.85 %
        let frac = activity.total_active().value() / 86_400.0;
        assert!((frac - 0.0285).abs() < 0.0001, "got {frac}");
    }

    #[test]
    fn paper_extended_isd_activity() {
        let section = TrackSection::new(Meters::ZERO, Meters::new(2650.0));
        let activity =
            ActivityTimeline::for_section(&section, &Timetable::paper_default().passes());
        let frac = activity.total_active().value() / 86_400.0;
        assert!((frac - 0.0966).abs() < 0.0002, "got {frac}");
    }

    #[test]
    fn merging_overlapping_intervals() {
        let t = ActivityTimeline::from_intervals([
            (sec(0.0), sec(10.0)),
            (sec(5.0), sec(20.0)),
            (sec(30.0), sec(40.0)),
            (sec(40.0), sec(45.0)), // touching intervals merge
        ]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.total_active(), sec(35.0));
        assert_eq!(t.intervals()[0], (sec(0.0), sec(20.0)));
        assert_eq!(t.intervals()[1], (sec(30.0), sec(45.0)));
    }

    #[test]
    fn inverted_intervals_discarded() {
        let t = ActivityTimeline::from_intervals([(sec(10.0), sec(5.0)), (sec(0.0), sec(1.0))]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.total_active(), sec(1.0));
    }

    #[test]
    fn unsorted_input_handled() {
        let t = ActivityTimeline::from_intervals([
            (sec(100.0), sec(110.0)),
            (sec(0.0), sec(10.0)),
            (sec(50.0), sec(60.0)),
        ]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.intervals()[0].0, sec(0.0));
        assert_eq!(t.intervals()[2].0, sec(100.0));
    }

    #[test]
    fn activity_queries() {
        let t = ActivityTimeline::from_intervals([(sec(10.0), sec(20.0))]);
        assert_eq!(t.active_within(sec(0.0), sec(15.0)), sec(5.0));
        assert_eq!(t.active_within(sec(12.0), sec(18.0)), sec(6.0));
        assert_eq!(t.active_within(sec(30.0), sec(40.0)), Seconds::ZERO);
    }

    #[test]
    fn empty_timeline() {
        let t = ActivityTimeline::default();
        assert!(t.is_empty());
        assert_eq!(t.total_active(), Seconds::ZERO);
    }

    #[test]
    fn hourly_sums_equal_total() {
        let section = TrackSection::around(Meters::new(600.0), Meters::new(200.0));
        let t = ActivityTimeline::for_section(&section, &Timetable::paper_default().passes());
        let mut hourly_sum = Seconds::ZERO;
        for h in 0..24 {
            hourly_sum += t.active_within(sec(h as f64 * 3600.0), sec((h + 1) as f64 * 3600.0));
        }
        assert!((hourly_sum.value() - t.total_active().value()).abs() < 1e-6);
    }

    #[test]
    fn slow_short_trains_occupy_less() {
        let fast = Timetable::paper_default();
        let slow_train = Train::new(
            Meters::new(200.0),
            corridor_units::KilometersPerHour::new(100.0).meters_per_second(),
        );
        let slow = Timetable::new(8.0, Hours::new(19.0), Hours::new(5.0).seconds(), slow_train);
        let section = TrackSection::new(Meters::ZERO, Meters::new(500.0));
        let fast_total = ActivityTimeline::for_section(&section, &fast.passes()).total_active();
        let slow_total = ActivityTimeline::for_section(&section, &slow.passes()).total_active();
        // slower trains spend longer in the section despite being shorter
        assert!(slow_total > fast_total);
    }

    #[test]
    fn nan_intervals_are_discarded_not_panicked() {
        // regression: the interval sort used partial_cmp + expect, which
        // panicked on NaN start times. NaN endpoints fail the `end > start`
        // filter (all NaN comparisons are false), so such intervals drop
        // out before the sort, and total_cmp keeps the rest ordered.
        let activity = ActivityTimeline::from_intervals([
            (sec(f64::NAN), sec(5.0)),
            (sec(1.0), sec(f64::NAN)),
            (sec(f64::NAN), sec(f64::NAN)),
            (sec(2.0), sec(4.0)),
        ]);
        assert_eq!(activity.intervals(), &[(sec(2.0), sec(4.0))]);
        assert_eq!(activity.total_active(), sec(2.0));
    }
}
