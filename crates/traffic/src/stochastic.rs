//! Stochastic and irregular traffic sources for the event-driven
//! simulator.
//!
//! The paper's energy numbers assume a perfectly regular timetable
//! (evenly spaced passes, fixed rolling stock). Real corridors are
//! messier: trains jitter around their slots, a fraction run late, fast
//! inter-city services interleave with slow regionals, and double-track
//! lines carry traffic in both directions. This module provides seeded,
//! reproducible generators for all of those patterns; the event-driven
//! corridor simulator (`corridor_events`) consumes their pass lists
//! directly.

use corridor_units::{KilometersPerHour, Meters, Seconds};
use rand::Rng;

use crate::{PoissonTimetable, Timetable, Train, TrainPass};

/// Seeded per-pass schedule perturbations: small symmetric jitter on
/// every pass plus occasional larger delays.
///
/// Jitter models the normal few-seconds slop around a slot; delays model
/// disrupted runs (a fraction `delay_probability` of passes is pushed
/// back by up to `max_delay`). Both draws come from the caller's RNG, so
/// a seeded generator reproduces the same disturbed day every time.
///
/// # Examples
///
/// ```
/// use corridor_traffic::{DelayModel, Timetable};
/// use corridor_units::Seconds;
/// use rand::SeedableRng;
///
/// let delays = DelayModel::new(0.2, Seconds::new(300.0), Seconds::new(15.0));
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let disturbed = delays.apply(&Timetable::paper_default().passes(), &mut rng);
/// assert_eq!(disturbed.len(), 152); // delays shift passes, never drop them
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayModel {
    delay_probability: f64,
    max_delay: Seconds,
    jitter: Seconds,
}

impl DelayModel {
    /// Creates a delay model.
    ///
    /// # Panics
    ///
    /// Panics if `delay_probability` is outside `[0, 1]` or a duration is
    /// negative.
    pub fn new(delay_probability: f64, max_delay: Seconds, jitter: Seconds) -> Self {
        assert!(
            (0.0..=1.0).contains(&delay_probability),
            "delay probability must be in [0, 1]"
        );
        assert!(max_delay.value() >= 0.0, "max delay must be non-negative");
        assert!(jitter.value() >= 0.0, "jitter must be non-negative");
        DelayModel {
            delay_probability,
            max_delay,
            jitter,
        }
    }

    /// A mildly disturbed day: ±15 s jitter on every pass, 10 % of
    /// passes delayed by up to 5 minutes.
    pub fn typical() -> Self {
        DelayModel::new(0.1, Seconds::new(300.0), Seconds::new(15.0))
    }

    /// Probability that a pass picks up a delay.
    pub fn delay_probability(&self) -> f64 {
        self.delay_probability
    }

    /// Largest possible delay per pass.
    pub fn max_delay(&self) -> Seconds {
        self.max_delay
    }

    /// Half-width of the symmetric per-pass jitter.
    pub fn jitter(&self) -> Seconds {
        self.jitter
    }

    /// Applies the model to a day of passes: every pass is jittered, a
    /// seeded fraction additionally delayed; the result is re-sorted by
    /// origin time (an overtaken slot stays a valid pass).
    pub fn apply<R: Rng + ?Sized>(&self, passes: &[TrainPass], rng: &mut R) -> Vec<TrainPass> {
        let mut out: Vec<TrainPass> = passes
            .iter()
            .map(|pass| {
                let mut t = pass.origin_time();
                if self.jitter.value() > 0.0 {
                    t += Seconds::new(rng.gen_range(-self.jitter.value()..self.jitter.value()));
                }
                if self.delay_probability > 0.0
                    && rng.gen_range(0.0..1.0) < self.delay_probability
                    && self.max_delay.value() > 0.0
                {
                    t += Seconds::new(rng.gen_range(0.0..self.max_delay.value()));
                }
                TrainPass::new(pass.train(), t.max(Seconds::ZERO))
            })
            .collect();
        out.sort_by(|a, b| a.origin_time().total_cmp(&b.origin_time()));
        out
    }
}

/// Interleaved service classes on one track: e.g. fast inter-city trains
/// sharing the corridor with slow regionals.
///
/// Each class is a full [`Timetable`] (own rate, rolling stock and
/// service window); the merged day is the union of all class passes,
/// sorted by origin time.
///
/// # Examples
///
/// ```
/// use corridor_traffic::MixedTimetable;
/// let mixed = MixedTimetable::paper_mixed();
/// // 6 fast + 2 slow per hour over 19 h
/// assert_eq!(mixed.passes().len(), 152);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MixedTimetable {
    services: Vec<Timetable>,
}

impl MixedTimetable {
    /// Creates a mixed timetable from service classes.
    ///
    /// # Panics
    ///
    /// Panics if `services` is empty.
    pub fn new(services: Vec<Timetable>) -> Self {
        assert!(!services.is_empty(), "mixed timetable needs a service");
        MixedTimetable { services }
    }

    /// The paper's corridor re-cast as a mixed service: 6 fast trains/h
    /// (400 m at 200 km/h) plus 2 slow regionals/h (150 m at 120 km/h),
    /// both over the 19 h service window. Total rate matches the paper's
    /// 8 trains/h.
    pub fn paper_mixed() -> Self {
        let fast = Timetable::paper_default();
        let slow_train = Train::new(
            Meters::new(150.0),
            KilometersPerHour::new(120.0).meters_per_second(),
        );
        let slow = Timetable::new(
            2.0,
            fast.service_window(),
            fast.service_start() + Seconds::new(225.0), // offset into the fast headway
            slow_train,
        );
        let fast = Timetable::new(
            6.0,
            fast.service_window(),
            fast.service_start(),
            fast.train(),
        );
        MixedTimetable::new(vec![fast, slow])
    }

    /// The merged day of passes, sorted by origin time.
    pub fn passes(&self) -> Vec<TrainPass> {
        let mut out: Vec<TrainPass> = self
            .services
            .iter()
            .flat_map(|service| service.passes())
            .collect();
        out.sort_by(|a, b| a.origin_time().total_cmp(&b.origin_time()));
        out
    }
}

/// A unified traffic source: every pattern the event-driven simulator can
/// replay, deterministic or seeded.
///
/// # Examples
///
/// ```
/// use corridor_traffic::{PoissonTimetable, Timetable, TrafficModel};
/// use rand::SeedableRng;
///
/// let det = TrafficModel::Deterministic(Timetable::paper_default());
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// assert_eq!(det.passes(&mut rng).len(), 152);
///
/// let poisson = TrafficModel::Poisson(PoissonTimetable::paper_rate());
/// let day = poisson.passes(&mut rng);
/// assert!(!day.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficModel {
    /// The paper's evenly spaced timetable.
    Deterministic(Timetable),
    /// Poisson arrivals at a mean rate.
    Poisson(PoissonTimetable),
    /// A deterministic base timetable with seeded jitter and delays.
    Jittered {
        /// The undisturbed timetable.
        base: Timetable,
        /// The perturbations applied to it.
        delays: DelayModel,
    },
    /// Interleaved fast/slow service classes (deterministic).
    Mixed(MixedTimetable),
}

impl TrafficModel {
    /// One day of passes. Deterministic variants ignore the RNG;
    /// stochastic ones draw from it (seed the RNG for reproducibility).
    pub fn passes<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<TrainPass> {
        match self {
            TrafficModel::Deterministic(timetable) => timetable.passes(),
            TrafficModel::Poisson(poisson) => poisson.sample_passes(rng),
            TrafficModel::Jittered { base, delays } => delays.apply(&base.passes(), rng),
            TrafficModel::Mixed(mixed) => mixed.passes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn delay_model_preserves_count_and_order() {
        let delays = DelayModel::typical();
        let base = Timetable::paper_default().passes();
        let disturbed = delays.apply(&base, &mut rng(1));
        assert_eq!(disturbed.len(), base.len());
        for w in disturbed.windows(2) {
            assert!(w[0].origin_time() <= w[1].origin_time());
        }
    }

    #[test]
    fn delay_model_is_seeded() {
        let delays = DelayModel::typical();
        let base = Timetable::paper_default().passes();
        let a = delays.apply(&base, &mut rng(9));
        let b = delays.apply(&base, &mut rng(9));
        assert_eq!(a, b);
        let c = delays.apply(&base, &mut rng(10));
        assert_ne!(a, c);
    }

    #[test]
    fn zero_model_is_identity() {
        let delays = DelayModel::new(0.0, Seconds::ZERO, Seconds::ZERO);
        let base = Timetable::paper_default().passes();
        assert_eq!(delays.apply(&base, &mut rng(4)), base);
    }

    #[test]
    fn delays_only_push_later_on_average() {
        let delays = DelayModel::new(1.0, Seconds::new(600.0), Seconds::ZERO);
        let base = Timetable::paper_default().passes();
        let disturbed = delays.apply(&base, &mut rng(2));
        let base_sum: f64 = base.iter().map(|p| p.origin_time().value()).sum();
        let new_sum: f64 = disturbed.iter().map(|p| p.origin_time().value()).sum();
        assert!(new_sum > base_sum);
        for (orig, moved) in base.iter().zip(&disturbed) {
            assert!(moved.origin_time() >= orig.origin_time());
        }
    }

    #[test]
    fn delay_accessors() {
        let d = DelayModel::new(0.25, Seconds::new(120.0), Seconds::new(5.0));
        assert_eq!(d.delay_probability(), 0.25);
        assert_eq!(d.max_delay(), Seconds::new(120.0));
        assert_eq!(d.jitter(), Seconds::new(5.0));
    }

    #[test]
    #[should_panic(expected = "delay probability")]
    fn invalid_probability_rejected() {
        let _ = DelayModel::new(1.5, Seconds::ZERO, Seconds::ZERO);
    }

    #[test]
    fn mixed_timetable_merges_sorted() {
        let mixed = MixedTimetable::paper_mixed();
        assert_eq!(mixed.services.len(), 2);
        let passes = mixed.passes();
        assert_eq!(passes.len(), 152);
        for w in passes.windows(2) {
            assert!(w[0].origin_time() <= w[1].origin_time());
        }
        // both rolling-stock classes appear
        let slow = passes
            .iter()
            .filter(|p| p.train().length() == Meters::new(150.0))
            .count();
        assert_eq!(slow, 38); // 2/h x 19 h
    }

    #[test]
    #[should_panic(expected = "needs a service")]
    fn empty_mixed_rejected() {
        let _ = MixedTimetable::new(Vec::new());
    }

    #[test]
    fn traffic_model_dispatch() {
        let det = TrafficModel::Deterministic(Timetable::paper_default());
        assert_eq!(det.passes(&mut rng(0)), Timetable::paper_default().passes());

        let poisson = TrafficModel::Poisson(PoissonTimetable::paper_rate());
        assert_eq!(poisson.passes(&mut rng(5)), poisson.passes(&mut rng(5)));
    }
}
