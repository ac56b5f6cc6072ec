//! Track sections and their occupancy by passing trains.

use core::fmt;

use corridor_units::{Meters, Seconds};

use crate::TrainPass;

/// A contiguous coverage section of the track, `[start, end]`.
///
/// Each radio node serves one section: a high-power mast serves one
/// inter-site distance, a low-power repeater serves the span around its
/// catenary mast (the paper's 200 m node spacing).
///
/// # Examples
///
/// ```
/// use corridor_traffic::{TrackSection, Train, TrainPass};
/// use corridor_units::{Meters, Seconds};
///
/// let section = TrackSection::around(Meters::new(600.0), Meters::new(200.0));
/// assert_eq!(section.start(), Meters::new(500.0));
/// assert_eq!(section.end(), Meters::new(700.0));
///
/// let pass = TrainPass::new(Train::paper_default(), Seconds::ZERO);
/// let (enter, exit) = section.occupancy(&pass);
/// assert!((exit - enter).value() - 10.8 < 0.01); // (200 + 400 m) / 55.6 m/s
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TrackSection {
    start: Meters,
    end: Meters,
}

impl TrackSection {
    /// Creates a section from `start` to `end`.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn new(start: Meters, end: Meters) -> Self {
        assert!(end >= start, "section end before start");
        TrackSection { start, end }
    }

    /// Creates a section of the given `length` centered on `center`.
    pub fn around(center: Meters, length: Meters) -> Self {
        let half = length / 2.0;
        TrackSection::new(center - half, center + half)
    }

    /// Section start position.
    pub fn start(&self) -> Meters {
        self.start
    }

    /// Section end position.
    pub fn end(&self) -> Meters {
        self.end
    }

    /// Section length.
    pub fn length(&self) -> Meters {
        self.end - self.start
    }

    /// The interval `[enter, exit]` during which any part of the train of
    /// `pass` overlaps this section: the head entering at `start` to the
    /// tail clearing `end`. Its duration is `(length + train) / v`.
    pub fn occupancy(&self, pass: &TrainPass) -> (Seconds, Seconds) {
        (pass.head_reaches(self.start), pass.tail_clears(self.end))
    }
}

impl fmt::Display for TrackSection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {}]", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Train;

    #[test]
    fn around_constructs_symmetric_section() {
        let s = TrackSection::around(Meters::new(1000.0), Meters::new(200.0));
        assert_eq!(s.start(), Meters::new(900.0));
        assert_eq!(s.end(), Meters::new(1100.0));
        assert_eq!(s.length(), Meters::new(200.0));
    }

    #[test]
    fn occupancy_duration_matches_paper() {
        let train = Train::paper_default();
        let pass = TrainPass::new(train, Seconds::new(1000.0));
        // HP section of one ISD (500 m): 16.2 s
        let hp = TrackSection::new(Meters::ZERO, Meters::new(500.0));
        let (enter, exit) = hp.occupancy(&pass);
        assert!(((exit - enter).value() - 16.2).abs() < 0.01);
        // LP section (200 m): 10.8 s
        let lp = TrackSection::around(Meters::new(600.0), Meters::new(200.0));
        let (enter, exit) = lp.occupancy(&pass);
        assert!(((exit - enter).value() - 10.8).abs() < 0.01);
    }

    #[test]
    fn occupancy_ordering_along_track() {
        let pass = TrainPass::new(Train::paper_default(), Seconds::ZERO);
        let near = TrackSection::new(Meters::ZERO, Meters::new(200.0));
        let far = TrackSection::new(Meters::new(2000.0), Meters::new(2200.0));
        let (enter_near, _) = near.occupancy(&pass);
        let (enter_far, _) = far.occupancy(&pass);
        assert!(enter_far > enter_near);
    }

    #[test]
    fn zero_length_section_occupied_for_train_pass_time() {
        let pass = TrainPass::new(Train::paper_default(), Seconds::ZERO);
        let point = TrackSection::new(Meters::new(100.0), Meters::new(100.0));
        let (enter, exit) = point.occupancy(&pass);
        assert!(((exit - enter).value() - 7.2).abs() < 0.01); // 400 m / 55.6
    }

    #[test]
    fn display() {
        let s = TrackSection::new(Meters::ZERO, Meters::new(500.0));
        assert_eq!(s.to_string(), "[0.0 m .. 500.0 m]");
    }

    #[test]
    #[should_panic(expected = "end before start")]
    fn inverted_section_rejected() {
        let _ = TrackSection::new(Meters::new(10.0), Meters::ZERO);
    }
}
