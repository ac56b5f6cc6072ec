//! Cartesian scenario grids: the sweep engine's input.

use core::fmt;

use corridor_core::{ScenarioError, ScenarioParams};
use corridor_deploy::IsdTable;
use corridor_power::{catalog, LoadDependentPower};
use corridor_solar::{climate, Location};
use corridor_units::Meters;

use crate::cell::ScenarioCell;

/// A named pairing of high-power-mast and low-power-repeater power models
/// — one point of the grid's equipment axis.
///
/// # Examples
///
/// ```
/// use corridor_sim::PowerProfile;
/// let paper = PowerProfile::paper();
/// assert_eq!(paper.name(), "paper");
/// assert_eq!(paper.hp().full_load_power().value(), 560.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PowerProfile {
    name: String,
    hp: LoadDependentPower,
    lp: LoadDependentPower,
}

impl PowerProfile {
    /// The paper's equipment: a two-RRH mast (560 W full load) and the
    /// prototype repeater with its measured 28.38 W full-load draw.
    pub fn paper() -> Self {
        PowerProfile {
            name: "paper".to_owned(),
            hp: catalog::high_power_mast(),
            lp: catalog::low_power_repeater_measured(),
        }
    }

    /// A custom profile under the given name.
    pub fn custom(name: &str, hp: LoadDependentPower, lp: LoadDependentPower) -> Self {
        PowerProfile {
            name: name.to_owned(),
            hp,
            lp,
        }
    }

    /// The profile's name (the grid axis label).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The high-power mast model.
    pub fn hp(&self) -> &LoadDependentPower {
        &self.hp
    }

    /// The low-power repeater model.
    pub fn lp(&self) -> &LoadDependentPower {
        &self.lp
    }
}

impl fmt::Display for PowerProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

/// A Cartesian sweep over scenario parameters.
///
/// Every axis defaults to the single paper value, so `ScenarioGrid::new()`
/// expands to exactly one cell — [`ScenarioParams::paper_default`] under
/// the Berlin climate. Setting an axis replaces its values; the expansion
/// is the Cartesian product of all axes in a fixed, documented order
/// (timetable density outermost, then train speed, train length, LP
/// spacing, conventional ISD, power profile, and climate innermost), so
/// cell indices are stable across runs.
///
/// # Examples
///
/// ```
/// use corridor_sim::ScenarioGrid;
/// let grid = ScenarioGrid::new()
///     .trains_per_hour(vec![4.0, 8.0])
///     .train_speeds_kmh(vec![160.0, 200.0, 250.0]);
/// assert_eq!(grid.len(), 6);
/// let cells = grid.expand().unwrap();
/// assert_eq!(cells.len(), 6);
/// assert_eq!(cells[0].trains_per_hour(), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioGrid {
    trains_per_hour: Vec<f64>,
    train_speeds_kmh: Vec<f64>,
    train_lengths_m: Vec<f64>,
    lp_spacings_m: Vec<f64>,
    conventional_isds_m: Vec<f64>,
    power_profiles: Vec<PowerProfile>,
    locations: Vec<Location>,
    service_window_h: f64,
    nodes: usize,
    /// The paper-table ISD for `nodes`, resolved when `nodes` is set —
    /// carrying the looked-up value around (instead of re-deriving it
    /// with an `expect()` in `expand`/`deployment_isd`) makes "every
    /// node count has an ISD" an invariant the type proves.
    isd: Meters,
}

impl ScenarioGrid {
    /// The paper's Table III deployment ISD for the default ten-node
    /// corridor, in metres. Written out as a literal (and pinned to the
    /// [`IsdTable::paper`] entry by a unit test) so constructing the
    /// default grid carries no panic path at all.
    const PAPER_DEFAULT_ISD_M: f64 = 2650.0;

    /// The one-cell grid of paper defaults (Berlin climate, ten repeater
    /// nodes).
    pub fn new() -> Self {
        ScenarioGrid {
            trains_per_hour: vec![8.0],
            train_speeds_kmh: vec![200.0],
            train_lengths_m: vec![400.0],
            lp_spacings_m: vec![200.0],
            conventional_isds_m: vec![500.0],
            power_profiles: vec![PowerProfile::paper()],
            locations: vec![climate::berlin()],
            service_window_h: 19.0,
            nodes: 10,
            isd: Meters::new(Self::PAPER_DEFAULT_ISD_M),
        }
    }

    /// The 3-cell smoke grid (timetable densities 4/8/12 trains per
    /// hour) used by `mc --smoke` and the committed `mc_smoke` golden.
    pub fn smoke_3() -> Self {
        ScenarioGrid::new().trains_per_hour(vec![4.0, 8.0, 12.0])
    }

    /// The 200-cell screening grid used by the `sweep` binary and the
    /// serial-vs-parallel bench: 5 conventional ISDs × 5 timetable
    /// densities × 4 train speeds × 2 climates.
    pub fn screening_200() -> Self {
        ScenarioGrid::new()
            .conventional_isds_m(vec![400.0, 450.0, 500.0, 550.0, 600.0])
            .trains_per_hour(vec![4.0, 6.0, 8.0, 10.0, 12.0])
            .train_speeds_kmh(vec![120.0, 160.0, 200.0, 250.0])
            .locations(vec![climate::madrid(), climate::berlin()])
    }

    fn set_axis<T>(axis: &mut Vec<T>, values: Vec<T>, name: &str) {
        assert!(!values.is_empty(), "{name} axis must not be empty");
        *axis = values;
    }

    /// Sets the timetable-density axis (trains per service hour).
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    #[must_use]
    pub fn trains_per_hour(mut self, values: Vec<f64>) -> Self {
        Self::set_axis(&mut self.trains_per_hour, values, "trains per hour");
        self
    }

    /// Sets the train-speed axis in km/h.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    #[must_use]
    pub fn train_speeds_kmh(mut self, values: Vec<f64>) -> Self {
        Self::set_axis(&mut self.train_speeds_kmh, values, "train speed");
        self
    }

    /// Sets the train-length axis in metres.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    #[must_use]
    pub fn train_lengths_m(mut self, values: Vec<f64>) -> Self {
        Self::set_axis(&mut self.train_lengths_m, values, "train length");
        self
    }

    /// Sets the repeater-spacing axis in metres.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    #[must_use]
    pub fn lp_spacings_m(mut self, values: Vec<f64>) -> Self {
        Self::set_axis(&mut self.lp_spacings_m, values, "LP spacing");
        self
    }

    /// Sets the conventional-reference-ISD axis in metres.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    #[must_use]
    pub fn conventional_isds_m(mut self, values: Vec<f64>) -> Self {
        Self::set_axis(&mut self.conventional_isds_m, values, "conventional ISD");
        self
    }

    /// Sets the equipment axis (HP/LP power-model pairings).
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    #[must_use]
    pub fn power_profiles(mut self, values: Vec<PowerProfile>) -> Self {
        Self::set_axis(&mut self.power_profiles, values, "power profile");
        self
    }

    /// Sets the solar-climate axis.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    #[must_use]
    pub fn locations(mut self, values: Vec<Location>) -> Self {
        Self::set_axis(&mut self.locations, values, "location");
        self
    }

    /// Sets the daily service-window length (a single value, not an axis).
    #[must_use]
    pub fn service_window_h(mut self, hours: f64) -> Self {
        self.service_window_h = hours;
        self
    }

    /// Sets the deployment evaluated in every cell: `nodes` low-power
    /// repeaters at the paper's maximum ISD for that count.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::NoIsdForNodeCount`] if the paper's ISD
    /// table has no entry for `nodes` (it covers 0–10).
    pub fn repeater_nodes(mut self, nodes: usize) -> Result<Self, ScenarioError> {
        self.isd = IsdTable::paper()
            .isd_for(nodes)
            .ok_or(ScenarioError::NoIsdForNodeCount(nodes))?;
        self.nodes = nodes;
        Ok(self)
    }

    /// Number of cells the grid expands to: the product of all axis
    /// lengths.
    #[allow(clippy::len_without_is_empty)] // axes are never empty
    pub fn len(&self) -> usize {
        self.trains_per_hour.len()
            * self.train_speeds_kmh.len()
            * self.train_lengths_m.len()
            * self.lp_spacings_m.len()
            * self.conventional_isds_m.len()
            * self.power_profiles.len()
            * self.locations.len()
    }

    /// The deployment's repeater count.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Builds the single cell at `index` without materializing the rest
    /// of the grid: the mixed-radix decomposition of `index` along the
    /// documented axis order (timetable density outermost, climate
    /// innermost). The streaming engines and the serve shards construct
    /// their cells lazily through this accessor, so a million-cell study
    /// holds one cell at a time; [`ScenarioGrid::expand`] is implemented
    /// on top of it, so there is exactly one construction path and the
    /// two can never disagree.
    ///
    /// # Errors
    ///
    /// Returns the [`ScenarioError`] of the cell whose parameters fail
    /// validation (e.g. a zero spacing or an empty timetable on some
    /// axis).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()` — an out-of-range index is a
    /// caller bug, not a scenario property.
    pub fn cell_at(&self, index: usize) -> Result<ScenarioCell, ScenarioError> {
        assert!(
            index < self.len(),
            "cell index {index} out of range for a {}-cell grid",
            self.len()
        );
        // peel axes off innermost-first: the inverse of expand's loops
        let mut rest = index;
        let mut take = |len: usize| {
            let at = rest % len;
            rest /= len;
            at
        };
        let location = &self.locations[take(self.locations.len())];
        let profile = &self.power_profiles[take(self.power_profiles.len())];
        let conv_isd = self.conventional_isds_m[take(self.conventional_isds_m.len())];
        let spacing = self.lp_spacings_m[take(self.lp_spacings_m.len())];
        let length = self.train_lengths_m[take(self.train_lengths_m.len())];
        let speed = self.train_speeds_kmh[take(self.train_speeds_kmh.len())];
        let tph = self.trains_per_hour[rest];
        let params = ScenarioParams::builder()
            .trains_per_hour(tph)
            .service_window_h(self.service_window_h)
            .train_speed_kmh(speed)
            .train_length_m(length)
            .lp_spacing_m(spacing)
            .conventional_isd_m(conv_isd)
            .hp_mast(*profile.hp())
            .lp_node(*profile.lp())
            .build()?;
        Ok(ScenarioCell::new(
            index,
            params,
            location.clone(),
            profile.name().to_owned(),
            self.nodes,
            self.isd,
        ))
    }

    /// Expands the grid into its cells, in the fixed axis order.
    ///
    /// # Errors
    ///
    /// Returns the [`ScenarioError`] of the first cell whose parameters
    /// fail validation (e.g. a zero spacing or an empty timetable on some
    /// axis).
    pub fn expand(&self) -> Result<Vec<ScenarioCell>, ScenarioError> {
        (0..self.len()).map(|index| self.cell_at(index)).collect()
    }

    /// Resolves the grid names shared by the CLI binaries and the serve
    /// protocol's `grid=` parameter; `None` for an unknown name.
    pub fn by_name(name: &str) -> Option<ScenarioGrid> {
        match name {
            "paper" => Some(ScenarioGrid::new()),
            "smoke-3" => Some(ScenarioGrid::smoke_3()),
            "mixed-8" => Some(
                ScenarioGrid::new()
                    .trains_per_hour(vec![4.0, 8.0])
                    .train_speeds_kmh(vec![160.0, 200.0])
                    .locations(vec![climate::madrid(), climate::berlin()]),
            ),
            "screening-200" => Some(ScenarioGrid::screening_200()),
            _ => None,
        }
    }

    /// The deployment ISD every cell is evaluated at.
    pub fn deployment_isd(&self) -> Meters {
        self.isd
    }
}

impl Default for ScenarioGrid {
    /// Returns [`ScenarioGrid::new`].
    fn default() -> Self {
        ScenarioGrid::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corridor_core::ScenarioError;
    use corridor_units::Watts;

    /// The Table II EARTH-fit repeater behind the measured-bill mast.
    fn earth_fit() -> PowerProfile {
        PowerProfile::custom(
            "earth-fit",
            catalog::high_power_mast(),
            catalog::low_power_repeater(),
        )
    }

    #[test]
    fn default_grid_is_one_paper_cell() {
        let grid = ScenarioGrid::new();
        assert_eq!(grid.len(), 1);
        let cells = grid.expand().unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].params(), &ScenarioParams::paper_default());
        assert_eq!(cells[0].location().name(), "Berlin");
        assert_eq!(cells[0].nodes(), 10);
        assert_eq!(cells[0].isd(), Meters::new(2650.0));
    }

    #[test]
    fn screening_grid_has_200_cells() {
        let grid = ScenarioGrid::screening_200();
        assert_eq!(grid.len(), 200);
        assert_eq!(grid.expand().unwrap().len(), 200);
    }

    #[test]
    fn expansion_order_is_row_major() {
        let cells = ScenarioGrid::new()
            .trains_per_hour(vec![4.0, 8.0])
            .locations(vec![climate::madrid(), climate::berlin()])
            .expand()
            .unwrap();
        let summary: Vec<(f64, &str)> = cells
            .iter()
            .map(|c| (c.trains_per_hour(), c.location().name()))
            .collect();
        assert_eq!(
            summary,
            vec![
                (4.0, "Madrid"),
                (4.0, "Berlin"),
                (8.0, "Madrid"),
                (8.0, "Berlin"),
            ]
        );
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.index(), i);
        }
    }

    #[test]
    fn invalid_axis_value_propagates_scenario_error() {
        let grid = ScenarioGrid::new().lp_spacings_m(vec![200.0, 0.0]);
        assert_eq!(
            grid.expand().unwrap_err(),
            ScenarioError::NonPositiveSpacing
        );
        let grid = ScenarioGrid::new().trains_per_hour(vec![-1.0]);
        assert_eq!(grid.expand().unwrap_err(), ScenarioError::EmptyTimetable);
    }

    #[test]
    #[should_panic(expected = "axis must not be empty")]
    fn empty_axis_rejected() {
        let _ = ScenarioGrid::new().trains_per_hour(Vec::new());
    }

    #[test]
    fn oversized_node_count_is_a_recoverable_error() {
        let err = ScenarioGrid::new().repeater_nodes(11).unwrap_err();
        assert_eq!(err, ScenarioError::NoIsdForNodeCount(11));
        // the fallible path sets nodes and ISD together on success
        let grid = ScenarioGrid::new().repeater_nodes(3).unwrap();
        assert_eq!(grid.nodes(), 3);
        assert_eq!(grid.deployment_isd(), Meters::new(1600.0));
    }

    #[test]
    fn default_isd_literal_matches_paper_table() {
        assert_eq!(
            Meters::new(ScenarioGrid::PAPER_DEFAULT_ISD_M),
            IsdTable::paper().isd_for(10).unwrap()
        );
    }

    #[test]
    fn invalid_service_window_rejected_at_expand() {
        for hours in [0.0, -5.0, 25.0, f64::NAN, f64::INFINITY] {
            let grid = ScenarioGrid::new().service_window_h(hours);
            assert_eq!(
                grid.expand().unwrap_err(),
                ScenarioError::InvalidServiceWindow,
                "hours={hours}"
            );
        }
        // the boundary itself is legal: a 24 h service window expands
        assert!(ScenarioGrid::new().service_window_h(24.0).expand().is_ok());
    }

    #[test]
    fn power_profiles_named() {
        assert_eq!(PowerProfile::paper().to_string(), "paper");
        let flat = LoadDependentPower::new(Watts::ZERO, Watts::new(650.0), 0.0, Watts::new(650.0));
        let custom = PowerProfile::custom("flat", catalog::high_power_mast(), flat);
        assert_eq!(custom.name(), "flat");
        assert_eq!(custom.lp().p0().value(), 650.0);
    }

    #[test]
    fn cell_at_agrees_with_expand_on_an_uneven_grid() {
        // deliberately unequal axis lengths so a radix mix-up cannot
        // cancel out
        let grid = ScenarioGrid::new()
            .trains_per_hour(vec![2.0, 6.0, 10.0])
            .train_speeds_kmh(vec![160.0, 250.0])
            .lp_spacings_m(vec![150.0, 200.0, 300.0, 350.0])
            .power_profiles(vec![PowerProfile::paper(), earth_fit()])
            .locations(vec![climate::madrid(), climate::berlin(), climate::lyon()]);
        let cells = grid.expand().unwrap();
        assert_eq!(cells.len(), grid.len());
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(&grid.cell_at(i).unwrap(), cell, "index {i}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cell_at_rejects_out_of_range_indices() {
        let _ = ScenarioGrid::new().cell_at(1);
    }

    #[test]
    fn named_grids_resolve() {
        assert_eq!(ScenarioGrid::by_name("paper").unwrap().len(), 1);
        assert_eq!(ScenarioGrid::by_name("smoke-3").unwrap().len(), 3);
        assert_eq!(ScenarioGrid::by_name("mixed-8").unwrap().len(), 8);
        assert_eq!(ScenarioGrid::by_name("screening-200").unwrap().len(), 200);
        assert!(ScenarioGrid::by_name("nope").is_none());
    }

    #[test]
    fn nodes_axis_changes_deployment() {
        let grid = ScenarioGrid::new().repeater_nodes(1).unwrap();
        assert_eq!(grid.nodes(), 1);
        assert_eq!(grid.deployment_isd(), Meters::new(1250.0));
        let cells = grid.expand().unwrap();
        assert_eq!(cells[0].nodes(), 1);
        assert_eq!(cells[0].isd(), Meters::new(1250.0));
    }
}
