//! Scenario parameters (paper Table III plus equipment and RF budget).

use core::fmt;

use corridor_deploy::{LinkBudget, PlacementPolicy};
use corridor_power::{catalog, LoadDependentPower};
use corridor_traffic::{Timetable, Train};
use corridor_units::{Hours, KilometersPerHour, Meters, Seconds};

/// Every parameter of the corridor energy study in one place, defaulting
/// to the paper's Table III values:
///
/// | parameter | value |
/// |---|---|
/// | trains per hour | 8 |
/// | hours per night without traffic | 5 h |
/// | train length / speed | 400 m / 200 km/h |
/// | LP repeater node spacing | 200 m |
/// | HP mast power (full / sleep) | 560 W / 224 W |
/// | LP node power (full / idle / sleep) | 28.4 W / 24.3 W / 4.7 W |
/// | conventional reference ISD | 500 m |
///
/// # Examples
///
/// ```
/// use corridor_core::ScenarioParams;
/// let params = ScenarioParams::paper_default();
/// assert_eq!(params.timetable().trains_per_day(), 152);
/// assert_eq!(params.conventional_isd().value(), 500.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioParams {
    timetable: Timetable,
    lp_spacing: Meters,
    conventional_isd: Meters,
    hp_mast: LoadDependentPower,
    lp_node: LoadDependentPower,
    budget: LinkBudget,
    placement: PlacementPolicy,
}

impl ScenarioParams {
    /// A validating builder initialized with the paper's defaults.
    ///
    /// Unlike the panicking `with_*` setters, the builder collects plain
    /// numbers and reports invalid combinations as [`ScenarioError`]s —
    /// the right shape for sweep engines expanding machine-generated
    /// parameter grids.
    ///
    /// # Examples
    ///
    /// ```
    /// use corridor_core::ScenarioParams;
    /// let params = ScenarioParams::builder()
    ///     .trains_per_hour(12.0)
    ///     .lp_spacing_m(150.0)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(params.timetable().trains_per_hour(), 12.0);
    /// ```
    pub fn builder() -> ScenarioParamsBuilder {
        ScenarioParamsBuilder::new()
    }

    /// The paper's scenario (see the type-level table).
    pub fn paper_default() -> Self {
        ScenarioParams {
            timetable: Timetable::paper_default(),
            lp_spacing: Meters::new(200.0),
            conventional_isd: Meters::new(500.0),
            hp_mast: catalog::high_power_mast(),
            lp_node: catalog::low_power_repeater_measured(),
            budget: LinkBudget::paper_default(),
            placement: PlacementPolicy::paper_default(),
        }
    }

    /// Overrides the timetable.
    #[must_use]
    pub fn with_timetable(mut self, timetable: Timetable) -> Self {
        self.timetable = timetable;
        self
    }

    /// The daily timetable.
    pub fn timetable(&self) -> &Timetable {
        &self.timetable
    }

    /// The rolling stock.
    pub fn train(&self) -> Train {
        self.timetable.train()
    }

    /// Repeater node spacing (Table III: 200 m).
    pub fn lp_spacing(&self) -> Meters {
        self.lp_spacing
    }

    /// The conventional reference ISD (500 m).
    pub fn conventional_isd(&self) -> Meters {
        self.conventional_isd
    }

    /// The high-power mast power model (two RRHs).
    pub fn hp_mast(&self) -> &LoadDependentPower {
        &self.hp_mast
    }

    /// The low-power repeater power model.
    pub fn lp_node(&self) -> &LoadDependentPower {
        &self.lp_node
    }

    /// The RF link budget.
    pub fn budget(&self) -> &LinkBudget {
        &self.budget
    }

    /// The repeater placement policy.
    pub fn placement(&self) -> &PlacementPolicy {
        &self.placement
    }
}

impl Default for ScenarioParams {
    /// Returns [`ScenarioParams::paper_default`].
    fn default() -> Self {
        ScenarioParams::paper_default()
    }
}

/// Why a [`ScenarioParamsBuilder`] rejected its inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioError {
    /// The repeater node spacing is zero or negative.
    NonPositiveSpacing,
    /// The conventional reference ISD is zero or negative.
    NonPositiveIsd,
    /// The timetable carries no trains (non-positive rate, or a rate so
    /// low the daily train count rounds to zero).
    EmptyTimetable,
    /// The daily service window is not a finite number of hours in
    /// `(0, 24]` — NaN, zero, negative and longer-than-a-day windows all
    /// produce nonsense duty cycles downstream, so they are rejected at
    /// the builder instead.
    InvalidServiceWindow,
    /// The train speed is zero or negative.
    NonPositiveTrainSpeed,
    /// The train length is negative.
    NegativeTrainLength,
    /// A sweep engine was configured with an explicit worker count of
    /// zero (omit the setting for automatic machine parallelism).
    ZeroWorkers,
    /// An ISD table has no entry for the requested repeater node count
    /// (the paper's table covers 0–10 nodes).
    NoIsdForNodeCount(usize),
    /// A Monte-Carlo engine was configured with zero replications
    /// (statistics over no simulated days).
    ZeroReplications,
    /// An internal bookkeeping invariant failed (e.g. a scheduler slot
    /// referencing an edge without a committed pick). The payload names
    /// the violated invariant. Reaching this variant is a bug in the
    /// engine, not bad user input — but engines surface it as a typed
    /// error rather than panicking mid-run.
    Invariant(&'static str),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::NonPositiveSpacing => {
                f.write_str("repeater node spacing must be strictly positive")
            }
            ScenarioError::NonPositiveIsd => {
                f.write_str("conventional ISD must be strictly positive")
            }
            ScenarioError::EmptyTimetable => f.write_str(
                "timetable is empty: trains per hour must be positive and \
                 yield at least one train per day",
            ),
            ScenarioError::InvalidServiceWindow => {
                f.write_str("service window must be a finite number of hours in (0, 24]")
            }
            ScenarioError::NonPositiveTrainSpeed => {
                f.write_str("train speed must be strictly positive")
            }
            ScenarioError::NegativeTrainLength => f.write_str("train length must be non-negative"),
            ScenarioError::ZeroWorkers => f.write_str(
                "worker count must be strictly positive (omit the setting for \
                 automatic machine parallelism)",
            ),
            ScenarioError::NoIsdForNodeCount(n) => {
                write!(f, "ISD table has no entry for {n} repeater nodes")
            }
            ScenarioError::ZeroReplications => {
                f.write_str("replication count must be strictly positive")
            }
            ScenarioError::Invariant(what) => {
                write!(f, "internal invariant violated: {what}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// A validating builder for [`ScenarioParams`], initialized with the
/// paper's Table III defaults.
///
/// Every numeric setter takes plain units (trains/h, km/h, metres) so
/// sweep engines can feed machine-generated grids directly; [`build`]
/// validates the combination and returns a [`ScenarioError`] instead of
/// panicking.
///
/// [`build`]: ScenarioParamsBuilder::build
///
/// # Examples
///
/// ```
/// use corridor_core::{ScenarioError, ScenarioParams};
///
/// let err = ScenarioParams::builder().lp_spacing_m(0.0).build().unwrap_err();
/// assert_eq!(err, ScenarioError::NonPositiveSpacing);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioParamsBuilder {
    trains_per_hour: f64,
    service_window: Hours,
    service_start: Seconds,
    train_length: Meters,
    train_speed_kmh: f64,
    lp_spacing: Meters,
    conventional_isd: Meters,
    hp_mast: LoadDependentPower,
    lp_node: LoadDependentPower,
    budget: LinkBudget,
}

impl ScenarioParamsBuilder {
    /// A builder holding the paper's defaults.
    pub fn new() -> Self {
        let timetable = Timetable::paper_default();
        let train = timetable.train();
        ScenarioParamsBuilder {
            trains_per_hour: timetable.trains_per_hour(),
            service_window: timetable.service_window(),
            service_start: timetable.service_start(),
            train_length: train.length(),
            train_speed_kmh: train.speed().kilometers_per_hour().value(),
            lp_spacing: Meters::new(200.0),
            conventional_isd: Meters::new(500.0),
            hp_mast: catalog::high_power_mast(),
            lp_node: catalog::low_power_repeater_measured(),
            budget: LinkBudget::paper_default(),
        }
    }

    /// Sets the timetable density (trains per service hour).
    #[must_use]
    pub fn trains_per_hour(mut self, trains_per_hour: f64) -> Self {
        self.trains_per_hour = trains_per_hour;
        self
    }

    /// Sets the daily service window length in hours.
    #[must_use]
    pub fn service_window_h(mut self, hours: f64) -> Self {
        self.service_window = Hours::new(hours);
        self
    }

    /// Sets the train length in metres.
    #[must_use]
    pub fn train_length_m(mut self, metres: f64) -> Self {
        self.train_length = Meters::new(metres);
        self
    }

    /// Sets the train speed in km/h.
    #[must_use]
    pub fn train_speed_kmh(mut self, kmh: f64) -> Self {
        self.train_speed_kmh = kmh;
        self
    }

    /// Sets the low-power repeater node spacing in metres.
    #[must_use]
    pub fn lp_spacing_m(mut self, metres: f64) -> Self {
        self.lp_spacing = Meters::new(metres);
        self
    }

    /// Sets the conventional reference ISD in metres.
    #[must_use]
    pub fn conventional_isd_m(mut self, metres: f64) -> Self {
        self.conventional_isd = Meters::new(metres);
        self
    }

    /// Sets the high-power mast power model.
    #[must_use]
    pub fn hp_mast(mut self, model: LoadDependentPower) -> Self {
        self.hp_mast = model;
        self
    }

    /// Sets the low-power repeater power model.
    #[must_use]
    pub fn lp_node(mut self, model: LoadDependentPower) -> Self {
        self.lp_node = model;
        self
    }

    /// Sets the RF link budget.
    #[must_use]
    pub fn budget(mut self, budget: LinkBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Validates the inputs and builds the scenario.
    ///
    /// # Errors
    ///
    /// Returns the first applicable [`ScenarioError`]:
    /// [`NonPositiveSpacing`](ScenarioError::NonPositiveSpacing),
    /// [`NonPositiveIsd`](ScenarioError::NonPositiveIsd),
    /// [`InvalidServiceWindow`](ScenarioError::InvalidServiceWindow),
    /// [`EmptyTimetable`](ScenarioError::EmptyTimetable),
    /// [`NonPositiveTrainSpeed`](ScenarioError::NonPositiveTrainSpeed) or
    /// [`NegativeTrainLength`](ScenarioError::NegativeTrainLength).
    pub fn build(self) -> Result<ScenarioParams, ScenarioError> {
        let positive = |x: f64| x > 0.0; // false for NaN as well
        if !positive(self.lp_spacing.value()) {
            return Err(ScenarioError::NonPositiveSpacing);
        }
        if !positive(self.conventional_isd.value()) {
            return Err(ScenarioError::NonPositiveIsd);
        }
        let window = self.service_window.value();
        if !positive(window) || window > 24.0 {
            return Err(ScenarioError::InvalidServiceWindow);
        }
        if !positive(self.trains_per_hour) {
            return Err(ScenarioError::EmptyTimetable);
        }
        if (self.trains_per_hour * window).round() < 1.0 {
            return Err(ScenarioError::EmptyTimetable);
        }
        if !positive(self.train_speed_kmh) {
            return Err(ScenarioError::NonPositiveTrainSpeed);
        }
        if self.train_length.value() < 0.0 || self.train_length.value().is_nan() {
            return Err(ScenarioError::NegativeTrainLength);
        }
        let train = Train::new(
            self.train_length,
            KilometersPerHour::new(self.train_speed_kmh).meters_per_second(),
        );
        let timetable = Timetable::new(
            self.trains_per_hour,
            self.service_window,
            self.service_start,
            train,
        );
        Ok(ScenarioParams {
            timetable,
            lp_spacing: self.lp_spacing,
            conventional_isd: self.conventional_isd,
            hp_mast: self.hp_mast,
            lp_node: self.lp_node,
            budget: self.budget,
            placement: PlacementPolicy::FixedSpacing(self.lp_spacing),
        })
    }
}

impl Default for ScenarioParamsBuilder {
    /// Returns [`ScenarioParamsBuilder::new`].
    fn default() -> Self {
        ScenarioParamsBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corridor_units::Watts;

    #[test]
    fn paper_defaults() {
        let p = ScenarioParams::paper_default();
        assert_eq!(p.timetable().trains_per_hour(), 8.0);
        assert_eq!(p.lp_spacing(), Meters::new(200.0));
        assert_eq!(p.conventional_isd(), Meters::new(500.0));
        assert_eq!(p.hp_mast().full_load_power(), Watts::new(560.0));
        assert!((p.lp_node().full_load_power().value() - 28.38).abs() < 1e-9);
        assert_eq!(ScenarioParams::default(), p);
    }

    #[test]
    fn train_accessor() {
        let p = ScenarioParams::paper_default();
        assert_eq!(p.train().length(), Meters::new(400.0));
    }

    #[test]
    fn builder_defaults_reproduce_paper_default() {
        let built = ScenarioParams::builder().build().unwrap();
        assert_eq!(built, ScenarioParams::paper_default());
        assert_eq!(ScenarioParamsBuilder::default(), ScenarioParams::builder());
    }

    #[test]
    fn builder_sets_every_axis() {
        let p = ScenarioParams::builder()
            .trains_per_hour(4.0)
            .service_window_h(16.0)
            .train_length_m(250.0)
            .train_speed_kmh(160.0)
            .lp_spacing_m(150.0)
            .conventional_isd_m(600.0)
            .hp_mast(catalog::high_power_rrh())
            .lp_node(catalog::low_power_repeater())
            .budget(LinkBudget::paper_default())
            .build()
            .unwrap();
        assert_eq!(p.timetable().trains_per_hour(), 4.0);
        assert_eq!(p.timetable().service_window(), Hours::new(16.0));
        assert_eq!(p.train().length(), Meters::new(250.0));
        assert!((p.train().speed().kilometers_per_hour().value() - 160.0).abs() < 1e-9);
        assert_eq!(p.lp_spacing(), Meters::new(150.0));
        assert_eq!(p.conventional_isd(), Meters::new(600.0));
        assert_eq!(p.hp_mast(), &catalog::high_power_rrh());
        assert_eq!(p.lp_node(), &catalog::low_power_repeater());
        assert_eq!(
            p.placement(),
            &PlacementPolicy::FixedSpacing(Meters::new(150.0))
        );
    }

    #[test]
    fn builder_rejects_zero_spacing() {
        let err = ScenarioParams::builder()
            .lp_spacing_m(0.0)
            .build()
            .unwrap_err();
        assert_eq!(err, ScenarioError::NonPositiveSpacing);
        let err = ScenarioParams::builder()
            .lp_spacing_m(-5.0)
            .build()
            .unwrap_err();
        assert_eq!(err, ScenarioError::NonPositiveSpacing);
    }

    #[test]
    fn builder_rejects_non_positive_isd() {
        let err = ScenarioParams::builder()
            .conventional_isd_m(-500.0)
            .build()
            .unwrap_err();
        assert_eq!(err, ScenarioError::NonPositiveIsd);
    }

    #[test]
    fn builder_rejects_empty_timetable() {
        for builder in [
            ScenarioParams::builder().trains_per_hour(0.0),
            ScenarioParams::builder().trains_per_hour(-8.0),
            ScenarioParams::builder().trains_per_hour(f64::NAN),
            // rounds to zero trains per day
            ScenarioParams::builder()
                .trains_per_hour(0.02)
                .service_window_h(1.0),
        ] {
            assert_eq!(builder.build().unwrap_err(), ScenarioError::EmptyTimetable);
        }
    }

    #[test]
    fn builder_rejects_invalid_service_window() {
        for hours in [0.0, -3.0, 25.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = ScenarioParams::builder()
                .service_window_h(hours)
                .build()
                .unwrap_err();
            assert_eq!(err, ScenarioError::InvalidServiceWindow, "hours={hours}");
        }
    }

    #[test]
    fn builder_rejects_non_positive_train_speed() {
        let err = ScenarioParams::builder()
            .train_speed_kmh(0.0)
            .build()
            .unwrap_err();
        assert_eq!(err, ScenarioError::NonPositiveTrainSpeed);
    }

    #[test]
    fn builder_rejects_negative_train_length() {
        let err = ScenarioParams::builder()
            .train_length_m(-1.0)
            .build()
            .unwrap_err();
        assert_eq!(err, ScenarioError::NegativeTrainLength);
    }

    #[test]
    fn scenario_error_displays() {
        assert!(ScenarioError::NonPositiveSpacing
            .to_string()
            .contains("spacing"));
        assert!(ScenarioError::NonPositiveIsd.to_string().contains("ISD"));
        assert!(ScenarioError::EmptyTimetable
            .to_string()
            .contains("timetable"));
        assert!(ScenarioError::InvalidServiceWindow
            .to_string()
            .contains("service window"));
        assert!(ScenarioError::NonPositiveTrainSpeed
            .to_string()
            .contains("speed"));
        assert!(ScenarioError::NegativeTrainLength
            .to_string()
            .contains("length"));
        assert!(ScenarioError::ZeroWorkers.to_string().contains("worker"));
        assert!(ScenarioError::NoIsdForNodeCount(11)
            .to_string()
            .contains("11 repeater nodes"));
        assert!(ScenarioError::ZeroReplications
            .to_string()
            .contains("replication count"));
    }
}
