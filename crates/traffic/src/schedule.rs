//! Train timetables: deterministic and stochastic.

use corridor_units::{Hours, Seconds};
use rand::Rng;

use crate::{Train, TrainPass};

/// The paper's deterministic service pattern: a fixed number of trains per
/// hour, evenly spaced, during a service window; no traffic for the rest of
/// the day (the "5 h per night" pause of Table III).
///
/// # Examples
///
/// ```
/// use corridor_traffic::Timetable;
/// let t = Timetable::paper_default();
/// assert_eq!(t.passes().len(), 152); // 8 trains/h × 19 h
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timetable {
    trains_per_hour: f64,
    service_window: Hours,
    service_start: Seconds,
    train: Train,
}

impl Timetable {
    /// Paper Table III: 8 trains/h over a 19 h service day (5 h night
    /// pause), 400 m trains at 200 km/h, service starting at 05:00.
    pub fn paper_default() -> Self {
        Timetable {
            trains_per_hour: 8.0,
            service_window: Hours::new(19.0),
            service_start: Hours::new(5.0).seconds(),
            train: Train::paper_default(),
        }
    }

    /// Creates a timetable.
    ///
    /// # Panics
    ///
    /// Panics if `trains_per_hour` is not strictly positive or the service
    /// window is not within (0, 24] hours.
    pub fn new(
        trains_per_hour: f64,
        service_window: Hours,
        service_start: Seconds,
        train: Train,
    ) -> Self {
        assert!(trains_per_hour > 0.0, "trains per hour must be positive");
        assert!(
            service_window.value() > 0.0 && service_window.value() <= 24.0,
            "service window must be in (0, 24] hours"
        );
        Timetable {
            trains_per_hour,
            service_window,
            service_start,
            train,
        }
    }

    /// Trains per service hour.
    pub fn trains_per_hour(&self) -> f64 {
        self.trains_per_hour
    }

    /// Length of the daily service window.
    pub fn service_window(&self) -> Hours {
        self.service_window
    }

    /// Time of day at which service begins.
    pub fn service_start(&self) -> Seconds {
        self.service_start
    }

    /// The rolling stock.
    pub fn train(&self) -> Train {
        self.train
    }

    /// Number of trains per day.
    pub fn trains_per_day(&self) -> usize {
        (self.trains_per_hour * self.service_window.value()).round() as usize
    }

    /// The day's train passes, evenly spaced across the service window.
    pub fn passes(&self) -> Vec<TrainPass> {
        let n = self.trains_per_day();
        let headway = Seconds::new(3600.0 / self.trains_per_hour);
        (0..n)
            .map(|i| TrainPass::new(self.train, self.service_start + headway * i as f64))
            .collect()
    }
}

/// A stochastic timetable: Poisson arrivals at a mean rate over the service
/// window, for sensitivity analysis of the deterministic results.
///
/// # Examples
///
/// ```
/// use corridor_traffic::PoissonTimetable;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let t = PoissonTimetable::paper_rate();
/// let passes = t.sample_passes(&mut rng);
/// // mean 152 trains/day; a seeded draw is within wide bounds
/// assert!(passes.len() > 100 && passes.len() < 210);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonTimetable {
    rate_per_hour: f64,
    service_window: Hours,
    service_start: Seconds,
    train: Train,
}

impl PoissonTimetable {
    /// Poisson arrivals matching the paper's mean rate (8 trains/h, 19 h).
    pub fn paper_rate() -> Self {
        PoissonTimetable {
            rate_per_hour: 8.0,
            service_window: Hours::new(19.0),
            service_start: Hours::new(5.0).seconds(),
            train: Train::paper_default(),
        }
    }

    /// Creates a Poisson timetable.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Timetable::new`].
    pub fn new(
        rate_per_hour: f64,
        service_window: Hours,
        service_start: Seconds,
        train: Train,
    ) -> Self {
        assert!(rate_per_hour > 0.0, "rate must be positive");
        assert!(
            service_window.value() > 0.0 && service_window.value() <= 24.0,
            "service window must be in (0, 24] hours"
        );
        PoissonTimetable {
            rate_per_hour,
            service_window,
            service_start,
            train,
        }
    }

    /// The rolling stock.
    pub fn train(&self) -> Train {
        self.train
    }

    /// Samples one day of passes using exponential inter-arrival times.
    pub fn sample_passes<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<TrainPass> {
        let mean_gap = 3600.0 / self.rate_per_hour;
        let window_s = self.service_window.seconds().value();
        let mut passes = Vec::new();
        let mut t = 0.0;
        loop {
            // inverse-CDF sample of Exp(1/mean_gap)
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -mean_gap * u.ln();
            if t > window_s {
                break;
            }
            passes.push(TrainPass::new(
                self.train,
                self.service_start + Seconds::new(t),
            ));
        }
        passes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn paper_timetable_counts() {
        let t = Timetable::paper_default();
        assert_eq!(t.trains_per_day(), 152);
        let passes = t.passes();
        assert_eq!(passes.len(), 152);
        // headway 450 s
        let gap = passes[1].origin_time() - passes[0].origin_time();
        assert!((gap.value() - 450.0).abs() < 1e-9);
        // first train at 05:00
        assert_eq!(passes[0].origin_time(), Seconds::new(18_000.0));
    }

    #[test]
    fn all_passes_inside_service_window() {
        let t = Timetable::paper_default();
        let end = t.service_start() + t.service_window().seconds();
        for p in t.passes() {
            assert!(p.origin_time() >= t.service_start());
            assert!(p.origin_time() < end);
        }
    }

    #[test]
    fn fractional_rates_round() {
        let t = Timetable::new(2.5, Hours::new(10.0), Seconds::ZERO, Train::paper_default());
        assert_eq!(t.trains_per_day(), 25);
    }

    #[test]
    fn accessors() {
        let t = Timetable::paper_default();
        assert_eq!(t.trains_per_hour(), 8.0);
        assert_eq!(t.service_window(), Hours::new(19.0));
        assert_eq!(t.train(), Train::paper_default());
    }

    #[test]
    fn poisson_mean_close_to_rate() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let t = PoissonTimetable::paper_rate();
        let total: usize = (0..200).map(|_| t.sample_passes(&mut rng).len()).sum();
        let mean = total as f64 / 200.0;
        assert!((mean - 152.0).abs() < 5.0, "mean {mean}");
    }

    #[test]
    fn poisson_passes_sorted_and_in_window() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let t = PoissonTimetable::paper_rate();
        let passes = t.sample_passes(&mut rng);
        let end = Seconds::new(18_000.0) + Hours::new(19.0).seconds();
        for w in passes.windows(2) {
            assert!(w[0].origin_time() < w[1].origin_time());
        }
        for p in &passes {
            assert!(p.origin_time() >= Seconds::new(18_000.0));
            assert!(p.origin_time() <= end);
        }
    }

    #[test]
    fn poisson_reproducible_with_seed() {
        let t = PoissonTimetable::paper_rate();
        let a = t.sample_passes(&mut rand::rngs::StdRng::seed_from_u64(9));
        let b = t.sample_passes(&mut rand::rngs::StdRng::seed_from_u64(9));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.origin_time(), y.origin_time());
        }
    }

    #[test]
    #[should_panic(expected = "trains per hour must be positive")]
    fn zero_rate_rejected() {
        let _ = Timetable::new(0.0, Hours::new(19.0), Seconds::ZERO, Train::paper_default());
    }

    #[test]
    #[should_panic(expected = "service window")]
    fn oversized_window_rejected() {
        let _ = Timetable::new(8.0, Hours::new(25.0), Seconds::ZERO, Train::paper_default());
    }
}
