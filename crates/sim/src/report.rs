//! Typed sweep results with deterministic CSV and JSON writers.

use core::fmt::Write as _;

use corridor_core::sink::{RowEmitter, RowFormat, RowSink, SinkResult, StringSink};
use corridor_core::EnergyStrategy;

use crate::{CellResult, PvOutcome, ScenarioCell};

/// The CSV names of the nine scenario-cell columns every sweep, mc and
/// optimize row starts with ([`cell_csv`] writes their values), with
/// the comma that follows them.
macro_rules! cell_header {
    () => {
        "cell,trains_per_hour,service_window_h,train_speed_kmh,train_length_m,\
         lp_spacing_m,conventional_isd_m,power_profile,climate,"
    };
}
pub(crate) use cell_header;

/// The CSV header [`SweepReport::to_csv`] writes.
pub const CSV_HEADER: &str = concat!(
    cell_header!(),
    "nodes,deployment_isd_m,evaluator,baseline_wh_km,continuous_wh_km,sleep_wh_km,solar_wh_km,\
     sleep_hp_wh_km,sleep_service_wh_km,sleep_donor_wh_km,\
     saving_continuous_pct,saving_sleep_pct,saving_solar_pct,pv_wp,battery_wh,days_full_pct"
);

/// The evaluated results of a sweep, in grid order.
///
/// The writers use fixed-precision formatting, so a report's CSV/JSON
/// rendering is byte-identical for identical results — the property the
/// determinism tests pin across worker counts.
///
/// # Examples
///
/// ```
/// use corridor_sim::{ScenarioGrid, SweepEngine};
///
/// let report = SweepEngine::new().pv_sizing(false).run(&ScenarioGrid::new()).unwrap();
/// let csv = report.to_csv();
/// assert!(csv.starts_with("cell,trains_per_hour"));
/// assert_eq!(csv.lines().count(), 2); // header + one cell
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    results: Vec<CellResult>,
}

impl SweepReport {
    /// Wraps evaluated results (kept in grid order by the engine).
    pub fn new(results: Vec<CellResult>) -> Self {
        SweepReport { results }
    }

    /// The per-cell results, in grid order.
    pub fn results(&self) -> &[CellResult] {
        &self.results
    }

    /// Number of evaluated cells.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// True if the report holds no cells.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// Mean fractional savings of a strategy across all cells.
    pub fn mean_savings(&self, strategy: EnergyStrategy) -> f64 {
        if self.results.is_empty() {
            return 0.0;
        }
        self.results
            .iter()
            .map(|r| r.savings(strategy))
            .sum::<f64>()
            / self.results.len() as f64
    }

    /// The cell with the highest savings under `strategy`, if any.
    ///
    /// Non-finite savings (still producible by a custom
    /// [`PowerProfile`](crate::PowerProfile) carrying NaN/∞ powers, which
    /// sidestep the zero-baseline convention of
    /// [`SegmentEnergy::savings_vs`](corridor_core::energy::SegmentEnergy::savings_vs))
    /// rank below every finite value, so a poisoned cell can never be
    /// "best" and the comparison never panics. Ties keep the later grid
    /// cell, a deterministic total order via [`f64::total_cmp`].
    pub fn best_cell(&self, strategy: EnergyStrategy) -> Option<&CellResult> {
        let key = |r: &CellResult| {
            let savings = r.savings(strategy);
            // NaN *and* +inf demote (a -inf deployed energy yields +inf
            // "savings", which must not outrank any finite cell)
            if savings.is_finite() {
                savings
            } else {
                f64::NEG_INFINITY
            }
        };
        self.results.iter().max_by(|a, b| key(a).total_cmp(&key(b)))
    }

    /// Streams the report's rows into `sink` in grid order, returning
    /// the row count. The output is byte-identical to
    /// [`SweepReport::to_csv`] / [`SweepReport::to_json`] — those
    /// writers are this method pointed at a [`StringSink`].
    ///
    /// # Errors
    ///
    /// Propagates the sink's [`SinkError`](corridor_core::sink::SinkError).
    pub fn stream_into(&self, format: RowFormat, sink: &mut dyn RowSink) -> SinkResult<u64> {
        let mut rows = RowEmitter::begin(sink, format, CSV_HEADER)?;
        for r in &self.results {
            rows.row(&render_sweep_row(r, format))?;
        }
        rows.finish()
    }

    /// Renders the report as CSV ([`CSV_HEADER`] plus one line per cell).
    pub fn to_csv(&self) -> String {
        StringSink::render(64 + 160 * self.results.len(), |sink| {
            self.stream_into(RowFormat::Csv, sink)
        })
    }

    /// Renders the report as a JSON array of cell objects.
    pub fn to_json(&self) -> String {
        StringSink::render(64 + 320 * self.results.len(), |sink| {
            self.stream_into(RowFormat::Json, sink)
        })
    }
}

/// Renders one sweep result as a report row: CSV rows carry their own
/// trailing newline; JSON rows start with two spaces of indent and
/// carry no separators (the emitter owns `,\n`).
pub(crate) fn render_sweep_row(r: &CellResult, format: RowFormat) -> String {
    match format {
        RowFormat::Csv => sweep_csv_row(r),
        RowFormat::Json => sweep_json_row(r),
    }
}

fn sweep_csv_row(r: &CellResult) -> String {
    let sleep = r.split(EnergyStrategy::SleepModeRepeaters);
    let mut out = String::with_capacity(160);
    cell_csv(&mut out, r.cell(), true);
    let _ = write!(
        out,
        ",{},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.2},{:.2},{:.2},",
        r.evaluator(),
        r.baseline().total().value(),
        r.split(EnergyStrategy::ContinuousRepeaters).total().value(),
        sleep.total().value(),
        r.split(EnergyStrategy::SolarPoweredRepeaters)
            .total()
            .value(),
        sleep.hp.value(),
        sleep.service.value(),
        sleep.donor.value(),
        r.savings(EnergyStrategy::ContinuousRepeaters) * 100.0,
        r.savings(EnergyStrategy::SleepModeRepeaters) * 100.0,
        r.savings(EnergyStrategy::SolarPoweredRepeaters) * 100.0,
    );
    pv_csv(&mut out, r.pv());
    out.push('\n');
    out
}

fn sweep_json_row(r: &CellResult) -> String {
    let sleep = r.split(EnergyStrategy::SleepModeRepeaters);
    let mut out = String::with_capacity(320);
    out.push_str("  {");
    cell_json(&mut out, r.cell(), true);
    let _ = write!(
        out,
        ", \"evaluator\": {}, \
         \"baseline_wh_km\": {:.3}, \"continuous_wh_km\": {:.3}, \
         \"sleep_wh_km\": {:.3}, \"solar_wh_km\": {:.3}, \
         \"sleep_split_wh_km\": {{\"hp\": {:.3}, \"service\": {:.3}, \"donor\": {:.3}}}, \
         \"saving_pct\": {{\"continuous\": {:.2}, \"sleep\": {:.2}, \"solar\": {:.2}}}, ",
        json_string(r.evaluator()),
        r.baseline().total().value(),
        r.split(EnergyStrategy::ContinuousRepeaters).total().value(),
        sleep.total().value(),
        r.split(EnergyStrategy::SolarPoweredRepeaters)
            .total()
            .value(),
        sleep.hp.value(),
        sleep.service.value(),
        sleep.donor.value(),
        r.savings(EnergyStrategy::ContinuousRepeaters) * 100.0,
        r.savings(EnergyStrategy::SleepModeRepeaters) * 100.0,
        r.savings(EnergyStrategy::SolarPoweredRepeaters) * 100.0,
    );
    pv_json(&mut out, r.pv());
    out.push('}');
    out
}

/// Writes the nine scenario-cell columns of a CSV row, plus `nodes`
/// and `deployment_isd_m` when `deployment` is set, with no separator
/// before or after.
pub(crate) fn cell_csv(out: &mut String, c: &ScenarioCell, deployment: bool) {
    let _ = write!(
        out,
        "{},{},{},{:.1},{},{},{},{},{}",
        c.index(),
        c.trains_per_hour(),
        c.service_window_h(),
        c.train_speed_kmh(),
        c.train_length_m(),
        c.lp_spacing_m(),
        c.conventional_isd_m(),
        csv_field(c.profile_name()),
        csv_field(c.location().name()),
    );
    if deployment {
        let _ = write!(out, ",{},{:.0}", c.nodes(), c.isd().value());
    }
}

/// Writes the JSON members of [`cell_csv`]'s columns, with no separator
/// before or after.
pub(crate) fn cell_json(out: &mut String, c: &ScenarioCell, deployment: bool) {
    let _ = write!(
        out,
        "\"cell\": {}, \"trains_per_hour\": {}, \"service_window_h\": {}, \
         \"train_speed_kmh\": {:.1}, \"train_length_m\": {}, \"lp_spacing_m\": {}, \
         \"conventional_isd_m\": {}, \"power_profile\": {}, \"climate\": {}",
        c.index(),
        c.trains_per_hour(),
        c.service_window_h(),
        c.train_speed_kmh(),
        c.train_length_m(),
        c.lp_spacing_m(),
        c.conventional_isd_m(),
        json_string(c.profile_name()),
        json_string(c.location().name()),
    );
    if deployment {
        let _ = write!(
            out,
            ", \"nodes\": {}, \"deployment_isd_m\": {}",
            c.nodes(),
            c.isd().value()
        );
    }
}

/// Writes the `pv_wp,battery_wh,days_full_pct` CSV columns of a PV
/// sizing outcome: empty when skipped, `-` when unsolvable.
pub(crate) fn pv_csv(out: &mut String, pv: PvOutcome) {
    match pv {
        PvOutcome::Skipped => out.push_str(",,"),
        PvOutcome::Unsolvable => out.push_str("-,-,-"),
        PvOutcome::Sized {
            pv_wp,
            battery_wh,
            days_full_pct,
        } => {
            let _ = write!(out, "{pv_wp:.0},{battery_wh:.0},{days_full_pct:.2}");
        }
    }
}

/// Writes the JSON members of a PV sizing outcome: `pv_status`, plus
/// the sized system when there is one.
pub(crate) fn pv_json(out: &mut String, pv: PvOutcome) {
    match pv {
        PvOutcome::Skipped => out.push_str("\"pv_status\": \"skipped\""),
        PvOutcome::Unsolvable => out.push_str("\"pv_status\": \"unsolvable\""),
        PvOutcome::Sized {
            pv_wp,
            battery_wh,
            days_full_pct,
        } => {
            let _ = write!(
                out,
                "\"pv_status\": \"sized\", \"pv_wp\": {pv_wp:.0}, \
                 \"battery_wh\": {battery_wh:.0}, \"days_full_pct\": {days_full_pct:.2}"
            );
        }
    }
}

/// Quotes a CSV field when it contains a delimiter, quote or newline
/// (RFC 4180): names like `PowerProfile::custom("2x2,mimo", …)` must not
/// shift the column layout.
pub(crate) fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

/// Quotes a string for JSON (the report only emits short ASCII names).
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ScenarioGrid, SweepEngine};
    use corridor_solar::climate;

    fn small_report() -> SweepReport {
        SweepEngine::new()
            .workers(1)
            .pv_sizing(false)
            .run(&ScenarioGrid::new().trains_per_hour(vec![4.0, 8.0]))
            .unwrap()
    }

    #[test]
    fn csv_shape_and_header() {
        let report = small_report();
        let csv = report.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], CSV_HEADER);
        assert_eq!(lines[0].split(',').count(), 25);
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), 25, "{line}");
            assert!(line.contains(",analytic,"), "{line}");
        }
        // skipped PV → empty trailing columns
        assert!(lines[1].ends_with(",,,"));
    }

    #[test]
    fn json_is_structurally_sound() {
        let report = small_report();
        let json = report.to_json();
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("]\n"));
        assert_eq!(json.matches("\"cell\":").count(), 2);
        assert_eq!(json.matches("\"evaluator\": \"analytic\"").count(), 2);
        assert_eq!(json.matches("\"pv_status\": \"skipped\"").count(), 2);
        // balanced braces (no nested strings with braces in this report)
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn summary_helpers() {
        let report = small_report();
        let mean = report.mean_savings(EnergyStrategy::SleepModeRepeaters);
        assert!(mean > 0.5 && mean < 1.0);
        let best = report
            .best_cell(EnergyStrategy::SleepModeRepeaters)
            .unwrap();
        // fewer trains → longer sleep → higher savings
        assert_eq!(best.cell().trains_per_hour(), 4.0);
        assert_eq!(report.len(), 2);
        assert!(!report.is_empty());
        assert!(SweepReport::new(Vec::new()).is_empty());
        assert_eq!(
            SweepReport::new(Vec::new()).mean_savings(EnergyStrategy::SleepModeRepeaters),
            0.0
        );
        assert!(SweepReport::new(Vec::new())
            .best_cell(EnergyStrategy::SleepModeRepeaters)
            .is_none());
    }

    #[test]
    fn best_cell_survives_non_finite_savings() {
        use crate::{CellResult, ScenarioCell};
        use corridor_core::energy::SegmentEnergy;
        use corridor_core::ScenarioParams;
        use corridor_units::{Meters, Watts};

        let split = |w: f64| SegmentEnergy {
            hp: Watts::new(w),
            service: Watts::ZERO,
            donor: Watts::ZERO,
        };
        let cell_with = |index: usize, deployed_w: f64| {
            let cell = ScenarioCell::new(
                index,
                ScenarioParams::paper_default(),
                climate::berlin(),
                "nan-profile".to_owned(),
                10,
                Meters::new(2650.0),
            );
            let e = split(deployed_w);
            // finite positive baseline: savings = 1 - deployed/400, so a
            // NaN/inf deployed energy flows straight into the savings
            // (the pre-PR-4 reachability via custom PowerProfiles)
            CellResult::new(cell, "analytic", split(400.0), e, e, e, PvOutcome::Skipped)
        };
        let report = SweepReport::new(vec![
            cell_with(0, f64::NAN),          // savings NaN
            cell_with(1, 100.0),             // savings 0.75 — the real winner
            cell_with(2, f64::INFINITY),     // savings -inf
            cell_with(3, 200.0),             // savings 0.5
            cell_with(4, f64::NEG_INFINITY), // savings +inf — must not win
        ]);
        // regression: this used to panic on partial_cmp of NaN
        let best = report
            .best_cell(EnergyStrategy::SleepModeRepeaters)
            .unwrap();
        assert_eq!(best.cell().index(), 1);
        assert!((best.savings(EnergyStrategy::SleepModeRepeaters) - 0.75).abs() < 1e-12);

        // an all-non-finite report still yields a deterministic winner
        let poisoned = SweepReport::new(vec![cell_with(0, f64::NAN), cell_with(1, f64::INFINITY)]);
        let best = poisoned
            .best_cell(EnergyStrategy::SleepModeRepeaters)
            .unwrap();
        assert_eq!(best.cell().index(), 1);
    }

    #[test]
    fn sized_pv_lands_in_both_writers() {
        let report = SweepEngine::new()
            .workers(1)
            .run(&ScenarioGrid::new().locations(vec![climate::madrid()]))
            .unwrap();
        let csv = report.to_csv();
        assert!(csv.lines().nth(1).unwrap().contains(",540,720,"), "{csv}");
        assert!(report.to_json().contains("\"pv_status\": \"sized\""));
    }

    #[test]
    fn csv_escapes_awkward_axis_names() {
        use crate::PowerProfile;
        use corridor_power::catalog;
        let grid = ScenarioGrid::new().power_profiles(vec![PowerProfile::custom(
            "2x2,\"mimo\"",
            catalog::high_power_mast(),
            catalog::low_power_repeater_measured(),
        )]);
        let report = SweepEngine::new()
            .workers(1)
            .pv_sizing(false)
            .run(&grid)
            .unwrap();
        let csv = report.to_csv();
        let row = csv.lines().nth(1).unwrap();
        assert!(row.contains("\"2x2,\"\"mimo\"\"\""), "{row}");
        // the quoted field keeps the column count at 25 for a CSV parser
        // (naive comma splitting sees the extra comma inside the quotes)
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("a\"b"), "\"a\"\"b\"");

        // mc and optimize rows start with the same nine quoted cell
        // fields and JSON members, under the same header prefix
        let ninth = row
            .char_indices()
            .filter(|&(at, ch)| ch == ',' && row[..at].matches('"').count() % 2 == 0)
            .nth(8)
            .map(|(at, _)| at + 1)
            .unwrap();
        let cells = &row[..ninth];
        assert!(cells.ends_with(",Berlin,"), "{cells}");
        let json = report.to_json();
        let members = json.lines().nth(1).unwrap();
        let members = &members[..members.find(", \"nodes\"").unwrap()];
        assert!(members.ends_with("\"climate\": \"Berlin\""), "{members}");
        let mc = crate::McEngine::new()
            .workers(1)
            .run(&grid, &crate::ReplicationPlan::new(2))
            .unwrap();
        let optimize = crate::DeploymentOptimizer::new()
            .workers(1)
            .run(&grid, &crate::SearchSpace::new().node_counts(vec![8, 10]))
            .unwrap();
        for (header, csv, json) in [
            (crate::MC_CSV_HEADER, mc.to_csv(), mc.to_json()),
            (
                crate::OPTIMIZE_CSV_HEADER,
                optimize.to_csv(),
                optimize.to_json(),
            ),
        ] {
            assert!(header.starts_with(cell_header!()), "{header}");
            assert!(csv.lines().count() > 1, "{csv}");
            for line in csv.lines().skip(1) {
                assert!(line.starts_with(cells), "{line}");
            }
            for line in json.lines().skip(1).filter(|l| l.starts_with("  {")) {
                assert!(line.starts_with(members), "{line}");
            }
        }
        assert!(CSV_HEADER.starts_with(cell_header!()));
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_string("a\\b"), "\"a\\\\b\"");
        assert_eq!(json_string("a\nb"), "\"a\\nb\"");
        assert_eq!(json_string("a\tb"), "\"a\\u0009b\"");
    }
}
