//! Grid cells and their evaluated results.

use core::fmt;

use corridor_core::{energy::SegmentEnergy, EnergyStrategy, ScenarioParams};
use corridor_solar::Location;
use corridor_units::Meters;

/// The equipment label in every row and cache key: the paper's pairing
/// of a two-RRH mast and the measured repeater, which every cell runs
/// (the [`ScenarioParams::builder`] default).
pub(crate) const POWER_PROFILE: &str = "paper";

/// One point of an expanded [`ScenarioGrid`](crate::ScenarioGrid): a fully
/// built scenario plus the axis labels that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioCell {
    index: usize,
    params: ScenarioParams,
    location: Location,
    nodes: usize,
    isd: Meters,
}

impl ScenarioCell {
    /// Creates a cell (used by the grid expansion).
    pub(crate) fn new(
        index: usize,
        params: ScenarioParams,
        location: Location,
        nodes: usize,
        isd: Meters,
    ) -> Self {
        ScenarioCell {
            index,
            params,
            location,
            nodes,
            isd,
        }
    }

    /// The same cell under another index (a network numbers its edge
    /// cells by edge).
    pub(crate) fn numbered(mut self, index: usize) -> Self {
        self.index = index;
        self
    }

    /// The cell's position in the grid's deterministic expansion order.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The scenario evaluated in this cell.
    pub fn params(&self) -> &ScenarioParams {
        &self.params
    }

    /// The cell's solar climate.
    pub fn location(&self) -> &Location {
        &self.location
    }

    /// The deployment's repeater count.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The deployment's inter-site distance.
    pub fn isd(&self) -> Meters {
        self.isd
    }

    /// The cell's timetable density (trains per service hour).
    pub fn trains_per_hour(&self) -> f64 {
        self.params.timetable().trains_per_hour()
    }

    /// The cell's daily service window in hours.
    pub fn service_window_h(&self) -> f64 {
        self.params.timetable().service_window().value()
    }

    /// The cell's train speed in km/h.
    pub fn train_speed_kmh(&self) -> f64 {
        self.params.train().speed().kilometers_per_hour().value()
    }

    /// The cell's train length in metres.
    pub fn train_length_m(&self) -> f64 {
        self.params.train().length().value()
    }

    /// The cell's repeater spacing in metres.
    pub fn lp_spacing_m(&self) -> f64 {
        self.params.lp_spacing().value()
    }

    /// The cell's conventional reference ISD in metres.
    pub fn conventional_isd_m(&self) -> f64 {
        self.params.conventional_isd().value()
    }
}

impl fmt::Display for ScenarioCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cell {} ({} tph, {:.0} km/h, {} @ {}, {})",
            self.index,
            self.trains_per_hour(),
            self.train_speed_kmh(),
            self.nodes,
            self.isd,
            self.location.name()
        )
    }
}

/// The outcome of the per-cell PV sizing step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PvOutcome {
    /// Sizing was disabled on the engine.
    Skipped,
    /// No candidate configuration reached zero downtime.
    Unsolvable,
    /// The smallest zero-downtime configuration.
    Sized {
        /// Selected PV peak power in Wp.
        pv_wp: f64,
        /// Selected battery capacity in Wh.
        battery_wh: f64,
        /// Mean percentage of days with a full battery.
        days_full_pct: f64,
    },
}

/// The evaluated result of one cell: the energy split per strategy, the
/// savings versus the cell's conventional baseline, and the PV sizing.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    cell: ScenarioCell,
    baseline: SegmentEnergy,
    continuous: SegmentEnergy,
    sleep: SegmentEnergy,
    solar: SegmentEnergy,
    pv: PvOutcome,
}

impl CellResult {
    /// Creates a result (used by the engine).
    pub(crate) fn new(
        cell: ScenarioCell,
        baseline: SegmentEnergy,
        continuous: SegmentEnergy,
        sleep: SegmentEnergy,
        solar: SegmentEnergy,
        pv: PvOutcome,
    ) -> Self {
        CellResult {
            cell,
            baseline,
            continuous,
            sleep,
            solar,
            pv,
        }
    }

    /// The cell this result belongs to.
    pub fn cell(&self) -> &ScenarioCell {
        &self.cell
    }

    /// The conventional baseline of this cell (masts at the cell's
    /// conventional ISD, sleeping between trains).
    pub fn baseline(&self) -> &SegmentEnergy {
        &self.baseline
    }

    /// The energy split under the given strategy.
    pub fn split(&self, strategy: EnergyStrategy) -> &SegmentEnergy {
        match strategy {
            EnergyStrategy::ContinuousRepeaters => &self.continuous,
            EnergyStrategy::SleepModeRepeaters => &self.sleep,
            EnergyStrategy::SolarPoweredRepeaters => &self.solar,
        }
    }

    /// Fractional savings of the given strategy versus the baseline.
    pub fn savings(&self, strategy: EnergyStrategy) -> f64 {
        self.split(strategy).savings_vs(&self.baseline)
    }

    /// The PV sizing outcome.
    pub fn pv(&self) -> PvOutcome {
        self.pv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corridor_solar::climate;
    use corridor_units::Watts;

    fn cell() -> ScenarioCell {
        ScenarioCell::new(
            3,
            ScenarioParams::paper_default(),
            climate::madrid(),
            10,
            Meters::new(2650.0),
        )
    }

    fn split(hp: f64, service: f64, donor: f64) -> SegmentEnergy {
        SegmentEnergy {
            hp: Watts::new(hp),
            service: Watts::new(service),
            donor: Watts::new(donor),
        }
    }

    #[test]
    fn accessors_expose_axis_labels() {
        let c = cell();
        assert_eq!(c.index(), 3);
        assert_eq!(c.trains_per_hour(), 8.0);
        assert_eq!(c.service_window_h(), 19.0);
        assert!((c.train_speed_kmh() - 200.0).abs() < 1e-9);
        assert_eq!(c.train_length_m(), 400.0);
        assert_eq!(c.lp_spacing_m(), 200.0);
        assert_eq!(c.conventional_isd_m(), 500.0);
        assert!(c.to_string().contains("Madrid"));
    }

    #[test]
    fn result_savings_and_splits() {
        let result = CellResult::new(
            cell(),
            split(400.0, 0.0, 0.0),
            split(100.0, 80.0, 20.0),
            split(100.0, 30.0, 10.0),
            split(100.0, 0.0, 0.0),
            PvOutcome::Skipped,
        );
        assert_eq!(
            result.split(EnergyStrategy::SleepModeRepeaters).total(),
            Watts::new(140.0)
        );
        assert!((result.savings(EnergyStrategy::ContinuousRepeaters) - 0.5).abs() < 1e-12);
        assert!((result.savings(EnergyStrategy::SolarPoweredRepeaters) - 0.75).abs() < 1e-12);
        assert_eq!(result.pv(), PvOutcome::Skipped);
        assert_eq!(result.cell().index(), 3);
        assert_eq!(result.baseline().total(), Watts::new(400.0));
    }
}
