//! Train kinematics.

use core::fmt;

use corridor_units::{KilometersPerHour, Meters, MetersPerSecond, Seconds};

/// A train: length and (constant) speed.
///
/// # Examples
///
/// ```
/// use corridor_traffic::Train;
/// let train = Train::paper_default();
/// assert_eq!(train.length().value(), 400.0);
/// assert!((train.speed().value() - 55.56).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Train {
    length: Meters,
    speed: MetersPerSecond,
}

impl Train {
    /// The paper's Table III train: 400 m long at 200 km/h.
    pub fn paper_default() -> Self {
        Train {
            length: Meters::new(400.0),
            speed: KilometersPerHour::new(200.0).meters_per_second(),
        }
    }

    /// Creates a train.
    ///
    /// # Panics
    ///
    /// Panics if length is negative or speed is not strictly positive.
    pub fn new(length: Meters, speed: MetersPerSecond) -> Self {
        assert!(length.value() >= 0.0, "train length must be non-negative");
        assert!(speed.value() > 0.0, "train speed must be positive");
        Train { length, speed }
    }

    /// Train length.
    pub fn length(&self) -> Meters {
        self.length
    }

    /// Train speed.
    pub fn speed(&self) -> MetersPerSecond {
        self.speed
    }
}

impl Default for Train {
    /// Returns [`Train::paper_default`].
    fn default() -> Self {
        Train::paper_default()
    }
}

impl fmt::Display for Train {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "train ({} at {})", self.length, self.speed)
    }
}

/// One run of a train along the corridor.
///
/// `origin_time` is the time of day at which the train's *head* crosses
/// track position 0 m; the train then proceeds in the positive direction at
/// constant speed.
///
/// # Examples
///
/// ```
/// use corridor_traffic::{Train, TrainPass};
/// use corridor_units::{Meters, Seconds};
///
/// let pass = TrainPass::new(Train::paper_default(), Seconds::new(3600.0));
/// // at 200 km/h the head is 555.6 m down the track 10 s later
/// let arrival = pass.head_reaches(Meters::new(555.6));
/// assert!((arrival.value() - 3610.0).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TrainPass {
    train: Train,
    origin_time: Seconds,
}

impl TrainPass {
    /// Creates a pass of `train` whose head crosses 0 m at `origin_time`.
    pub fn new(train: Train, origin_time: Seconds) -> Self {
        TrainPass { train, origin_time }
    }

    /// The train making this pass.
    pub fn train(&self) -> Train {
        self.train
    }

    /// Time the head crosses position 0 m.
    pub fn origin_time(&self) -> Seconds {
        self.origin_time
    }

    /// Time at which the head reaches track position `x`.
    pub fn head_reaches(&self, x: Meters) -> Seconds {
        self.origin_time + x / self.train.speed()
    }

    /// Time at which the tail clears track position `x`.
    pub fn tail_clears(&self, x: Meters) -> Seconds {
        self.origin_time + (x + self.train.length()) / self.train.speed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_values() {
        let t = Train::paper_default();
        assert_eq!(t.length(), Meters::new(400.0));
        assert!((t.speed().value() - 55.5556).abs() < 1e-3);
        assert_eq!(Train::default(), t);
    }

    #[test]
    fn clear_times_match_paper_range() {
        let t = Train::paper_default();
        // ISD 500 m -> 16.2 s; ISD 2650 m -> 54.9 s (paper: 16 s – 55 s)
        let clear = |isd: f64| {
            let section = crate::TrackSection::new(Meters::ZERO, Meters::new(isd));
            let (enter, exit) = section.occupancy(&TrainPass::new(t, Seconds::ZERO));
            (exit - enter).value()
        };
        assert!((clear(500.0) - 16.2).abs() < 0.01);
        assert!((clear(2650.0) - 54.9).abs() < 0.01);
    }

    #[test]
    fn reach_and_clear_times() {
        let pass = TrainPass::new(Train::paper_default(), Seconds::new(500.0));
        let x = Meters::new(750.0);
        // 750 m at 200 km/h takes 13.5 s; the 400 m train clears 7.2 s later
        let t_head = pass.head_reaches(x);
        assert!((t_head.value() - 513.5).abs() < 1e-9);
        let t_tail = pass.tail_clears(x);
        assert!((t_tail.value() - 520.7).abs() < 1e-9);
    }

    #[test]
    fn accessors_and_display() {
        let train = Train::new(Meters::new(200.0), MetersPerSecond::new(40.0));
        let pass = TrainPass::new(train, Seconds::new(60.0));
        assert_eq!(pass.train(), train);
        assert_eq!(pass.origin_time(), Seconds::new(60.0));
        assert!(train.to_string().contains("200.0 m"));
    }

    #[test]
    #[should_panic(expected = "speed must be positive")]
    fn zero_speed_rejected() {
        let _ = Train::new(Meters::new(400.0), MetersPerSecond::new(0.0));
    }
}
