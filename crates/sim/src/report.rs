//! Typed sweep results with deterministic CSV and JSON writers, and the
//! row-writing helpers every engine's rows share: the scenario-cell
//! columns, CSV and JSON quoting, and one exact fixed-point number
//! writer ([`push_fixed`], [`push_plain`]) that writes the bytes
//! `core::fmt` would, without its float formatting.

use core::fmt::Write as _;

use corridor_core::sink::{RowEmitter, RowFormat, RowSink, SinkResult};
use corridor_core::EnergyStrategy;

use crate::cell::POWER_PROFILE;
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

/// The CSV header of [`SweepReport::stream_into`]'s CSV rows.
pub const CSV_HEADER: &str = concat!(
    cell_header!(),
    "nodes,deployment_isd_m,evaluator,baseline_wh_km,continuous_wh_km,sleep_wh_km,solar_wh_km,\
     sleep_hp_wh_km,sleep_service_wh_km,sleep_donor_wh_km,\
     saving_continuous_pct,saving_sleep_pct,saving_solar_pct,pv_wp,battery_wh,days_full_pct"
);

/// The evaluated results of a sweep, in grid order.
///
/// The writers print each number at a fixed precision through one
/// exact fixed-point writer (the bytes of `format!("{v:.N}")`, written
/// with integer arithmetic), so a report's CSV/JSON rendering is
/// byte-identical for identical results — the property the determinism
/// tests pin across worker counts.
///
/// # Examples
///
/// ```
/// use corridor_core::sink::{RowFormat, StringSink};
/// use corridor_sim::{ScenarioGrid, SweepEngine};
///
/// let report = SweepEngine::new().pv_sizing(false).run(&ScenarioGrid::new()).unwrap();
/// let csv = StringSink::render(0, |sink| report.stream_into(RowFormat::Csv, sink));
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
    /// Non-finite savings (a NaN/∞ energy split sidesteps the
    /// zero-baseline convention of
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
    /// the row count; into a
    /// [`StringSink`](corridor_core::sink::StringSink) it renders the
    /// report in memory.
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

/// The ten numbers of a sweep row after its `evaluator` column, each
/// with its decimals: the baseline, the three strategy totals and the
/// sleep split in Wh/km, then the three savings in percent.
fn sweep_numbers(r: &CellResult) -> [(f64, usize); 10] {
    let sleep = r.split(EnergyStrategy::SleepModeRepeaters);
    [
        (r.baseline().total().value(), 3),
        (
            r.split(EnergyStrategy::ContinuousRepeaters).total().value(),
            3,
        ),
        (sleep.total().value(), 3),
        (
            r.split(EnergyStrategy::SolarPoweredRepeaters)
                .total()
                .value(),
            3,
        ),
        (sleep.hp.value(), 3),
        (sleep.service.value(), 3),
        (sleep.donor.value(), 3),
        (r.savings(EnergyStrategy::ContinuousRepeaters) * 100.0, 2),
        (r.savings(EnergyStrategy::SleepModeRepeaters) * 100.0, 2),
        (r.savings(EnergyStrategy::SolarPoweredRepeaters) * 100.0, 2),
    ]
}

/// What precedes each of [`sweep_numbers`] in a JSON row.
const SWEEP_JSON_KEYS: [&str; 10] = [
    ", \"baseline_wh_km\": ",
    ", \"continuous_wh_km\": ",
    ", \"sleep_wh_km\": ",
    ", \"solar_wh_km\": ",
    ", \"sleep_split_wh_km\": {\"hp\": ",
    ", \"service\": ",
    ", \"donor\": ",
    "}, \"saving_pct\": {\"continuous\": ",
    ", \"sleep\": ",
    ", \"solar\": ",
];

fn sweep_csv_row(r: &CellResult) -> String {
    let mut out = String::with_capacity(160);
    cell_csv(&mut out, r.cell(), true);
    out.push_str(",analytic");
    for (v, decimals) in sweep_numbers(r) {
        out.push(',');
        push_fixed(&mut out, v, decimals);
    }
    out.push(',');
    pv_csv(&mut out, r.pv());
    out.push('\n');
    out
}

fn sweep_json_row(r: &CellResult) -> String {
    let mut out = String::with_capacity(640);
    out.push_str("  {");
    cell_json(&mut out, r.cell(), true);
    out.push_str(", \"evaluator\": \"analytic\"");
    for (key, (v, decimals)) in SWEEP_JSON_KEYS.into_iter().zip(sweep_numbers(r)) {
        out.push_str(key);
        push_fixed(&mut out, v, decimals);
    }
    out.push_str("}, ");
    pv_json(&mut out, r.pv());
    out.push('}');
    out
}

/// Writes the nine scenario-cell columns of a CSV row, plus `nodes`
/// and `deployment_isd_m` when `deployment` is set, with no separator
/// before or after.
pub(crate) fn cell_csv(out: &mut String, c: &ScenarioCell, deployment: bool) {
    push_uint(out, c.index() as u64);
    out.push(',');
    push_plain(out, c.trains_per_hour());
    out.push(',');
    push_plain(out, c.service_window_h());
    out.push(',');
    push_fixed(out, c.train_speed_kmh(), 1);
    out.push(',');
    push_plain(out, c.train_length_m());
    out.push(',');
    push_plain(out, c.lp_spacing_m());
    out.push(',');
    push_plain(out, c.conventional_isd_m());
    out.push(',');
    csv_field(out, POWER_PROFILE);
    out.push(',');
    csv_field(out, c.location().name());
    if deployment {
        out.push(',');
        push_uint(out, c.nodes() as u64);
        out.push(',');
        push_fixed(out, c.isd().value(), 0);
    }
}

/// Writes the JSON members of [`cell_csv`]'s columns, with no separator
/// before or after.
pub(crate) fn cell_json(out: &mut String, c: &ScenarioCell, deployment: bool) {
    out.push_str("\"cell\": ");
    push_uint(out, c.index() as u64);
    out.push_str(", \"trains_per_hour\": ");
    push_plain(out, c.trains_per_hour());
    out.push_str(", \"service_window_h\": ");
    push_plain(out, c.service_window_h());
    out.push_str(", \"train_speed_kmh\": ");
    push_fixed(out, c.train_speed_kmh(), 1);
    out.push_str(", \"train_length_m\": ");
    push_plain(out, c.train_length_m());
    out.push_str(", \"lp_spacing_m\": ");
    push_plain(out, c.lp_spacing_m());
    out.push_str(", \"conventional_isd_m\": ");
    push_plain(out, c.conventional_isd_m());
    out.push_str(", \"power_profile\": ");
    json_string(out, POWER_PROFILE);
    out.push_str(", \"climate\": ");
    json_string(out, c.location().name());
    if deployment {
        out.push_str(", \"nodes\": ");
        push_uint(out, c.nodes() as u64);
        out.push_str(", \"deployment_isd_m\": ");
        push_plain(out, c.isd().value());
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
            push_fixed(out, pv_wp, 0);
            out.push(',');
            push_fixed(out, battery_wh, 0);
            out.push(',');
            push_fixed(out, days_full_pct, 2);
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
            out.push_str("\"pv_status\": \"sized\", \"pv_wp\": ");
            push_fixed(out, pv_wp, 0);
            out.push_str(", \"battery_wh\": ");
            push_fixed(out, battery_wh, 0);
            out.push_str(", \"days_full_pct\": ");
            push_fixed(out, days_full_pct, 2);
        }
    }
}

/// Writes a CSV field, quoted when it contains a delimiter, quote or
/// newline (RFC 4180): a climate name like `Location::new("Berlin, Mitte",
/// …)` must not shift the column layout.
pub(crate) fn csv_field(out: &mut String, s: &str) {
    if s.contains([',', '"', '\n', '\r']) {
        out.push('"');
        for ch in s.chars() {
            if ch == '"' {
                out.push('"');
            }
            out.push(ch);
        }
        out.push('"');
    } else {
        out.push_str(s);
    }
}

/// Writes a string quoted for JSON (the report only emits short ASCII
/// names).
pub(crate) fn json_string(out: &mut String, s: &str) {
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
}

/// The powers of ten [`push_fixed`] scales by, one per decimal it
/// writes itself.
const POW10: [u64; 5] = [1, 10, 100, 1_000, 10_000];

/// 2^63: [`push_fixed`] writes the integer part of a smaller magnitude
/// as a `u64`.
const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;

/// 2^53: every integer of smaller magnitude is an `f64`, and `{}` prints
/// it as its plain digits.
const TWO_POW_53: f64 = 9_007_199_254_740_992.0;

/// Appends `v` exactly as `format!("{v:.decimals$}")` would.
///
/// The value is split into `m·2^e` from its bits. The fractional bits
/// times `10^decimals` are shifted right by `-e` in integer arithmetic,
/// and the dropped remainder decides the last digit, rounding half to
/// even as `core::fmt` does. Rounding `v·10^decimals` as a float would
/// round before the tie decision, and away from zero: `0.125` at two
/// decimals is `0.12`, not `0.13`. The sign bit writes the `-`, so
/// `-0.0` and tiny negatives print `-0.000` as in `core::fmt`.
/// NaN, ±∞, `|v| ≥ 2^63` and more than four decimals go through
/// `core::fmt` itself.
pub(crate) fn push_fixed(out: &mut String, v: f64, decimals: usize) {
    let scale = match POW10.get(decimals) {
        // false for NaN and ±∞ too
        Some(&scale) if v.abs() < TWO_POW_63 => scale,
        _ => {
            let _ = write!(out, "{v:.decimals$}");
            return;
        }
    };
    let bits = v.to_bits();
    let biased = (bits >> 52) & 0x7ff;
    let fraction = bits & ((1 << 52) - 1);
    // subnormals have no implicit leading bit
    let (mantissa, exponent) = if biased == 0 {
        (fraction, -1074)
    } else {
        (fraction | 1 << 52, biased as i32 - 1075)
    };
    let (int, frac) = if exponent >= 0 {
        (mantissa << exponent, 0)
    } else {
        let shift = exponent.unsigned_abs();
        let (int, rest) = if shift < 64 {
            (mantissa >> shift, mantissa & ((1 << shift) - 1))
        } else {
            (0, mantissa)
        };
        // rest·10^decimals / 2^shift, rounded half to even; below 2^67,
        // so a shift of 128 or more leaves less than half a unit
        let scaled = u128::from(rest) * u128::from(scale);
        if shift >= 128 {
            (int, 0)
        } else {
            let digits = (scaled >> shift) as u64;
            let dropped = scaled & ((1 << shift) - 1);
            let half = 1 << (shift - 1);
            // the last written digit: the integer's at zero decimals
            let last = if decimals == 0 { int } else { digits };
            let up = dropped > half || (dropped == half && last & 1 == 1);
            match digits + u64::from(up) {
                carry if carry == scale => (int + 1, 0),
                frac => (int, frac),
            }
        }
    };
    if v.is_sign_negative() {
        out.push('-');
    }
    push_uint(out, int);
    if decimals > 0 {
        out.push('.');
        let mut buf = [b'0'; 4];
        let mut rest = frac;
        for digit in buf[..decimals].iter_mut().rev() {
            *digit = b'0' + (rest % 10) as u8;
            rest /= 10;
        }
        for &digit in &buf[..decimals] {
            out.push(char::from(digit));
        }
    }
}

/// Appends `v` exactly as `format!("{v}")` would: integral values below
/// 2^53 (but not `-0.0`) as their digits, anything else through
/// `core::fmt`.
pub(crate) fn push_plain(out: &mut String, v: f64) {
    if v.abs() < TWO_POW_53 {
        let int = v as i64;
        if int as f64 == v && (int != 0 || v.is_sign_positive()) {
            if int < 0 {
                out.push('-');
            }
            push_uint(out, int.unsigned_abs());
            return;
        }
    }
    let _ = write!(out, "{v}");
}

/// Appends the decimal digits of `n`.
pub(crate) fn push_uint(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    for &digit in &buf[at..] {
        out.push(char::from(digit));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ScenarioGrid, SweepEngine};
    use corridor_core::sink::StringSink;
    use corridor_solar::climate;

    /// Renders an in-memory report in `format` through its `stream_into`
    /// (each report type has its own).
    macro_rules! render {
        ($report:expr, $format:expr) => {
            StringSink::render(0, |s| $report.stream_into($format, s))
        };
    }

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
        let csv = render!(report, RowFormat::Csv);
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
        let json = render!(report, RowFormat::Json);
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
                10,
                Meters::new(2650.0),
            );
            let e = split(deployed_w);
            // finite positive baseline: savings = 1 - deployed/400, so a
            // NaN/inf deployed energy flows straight into the savings
            CellResult::new(cell, split(400.0), e, e, e, PvOutcome::Skipped)
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
        let csv = render!(report, RowFormat::Csv);
        assert!(csv.lines().nth(1).unwrap().contains(",540,720,"), "{csv}");
        assert!(render!(report, RowFormat::Json).contains("\"pv_status\": \"sized\""));
    }

    #[test]
    fn csv_escapes_awkward_axis_names() {
        // Berlin's climate under a name that needs quoting in both formats
        let berlin = climate::berlin();
        let awkward = corridor_solar::Location::new(
            "Berlin, \"Mitte\"",
            berlin.latitude_deg(),
            *berlin.monthly_ghi_kwh_m2_day(),
            *berlin.monthly_temp_c(),
        );
        let grid = ScenarioGrid::new().locations(vec![awkward]);
        let report = SweepEngine::new()
            .workers(1)
            .pv_sizing(false)
            .run(&grid)
            .unwrap();
        let csv = render!(report, RowFormat::Csv);
        let row = csv.lines().nth(1).unwrap();
        assert!(row.contains(",\"Berlin, \"\"Mitte\"\"\","), "{row}");
        // the quoted field keeps the column count at 25 for a CSV parser
        // (naive comma splitting sees the extra comma inside the quotes)
        let field = |s: &str| {
            let mut out = String::new();
            csv_field(&mut out, s);
            out
        };
        assert_eq!(field("plain"), "plain");
        assert_eq!(field("a,b"), "\"a,b\"");
        assert_eq!(field("a\"b"), "\"a\"\"b\"");

        // mc and optimize rows start with the same nine quoted cell
        // fields and JSON members, under the same header prefix
        let ninth = row
            .char_indices()
            .filter(|&(at, ch)| ch == ',' && row[..at].matches('"').count() % 2 == 0)
            .nth(8)
            .map(|(at, _)| at + 1)
            .unwrap();
        let cells = &row[..ninth];
        assert!(cells.ends_with(",\"Berlin, \"\"Mitte\"\"\","), "{cells}");
        let json = render!(report, RowFormat::Json);
        let members = json.lines().nth(1).unwrap();
        let members = &members[..members.find(", \"nodes\"").unwrap()];
        assert!(
            members.ends_with("\"climate\": \"Berlin, \\\"Mitte\\\"\""),
            "{members}"
        );
        let mc = crate::McEngine::new()
            .workers(1)
            .run(&grid, &crate::ReplicationPlan::new(2))
            .unwrap();
        let optimize = crate::DeploymentOptimizer::new()
            .workers(1)
            .run(&grid, &crate::SearchSpace::new().node_counts(vec![8, 10]))
            .unwrap();
        for (header, csv, json) in [
            (
                crate::MC_CSV_HEADER,
                mc.to_csv(),
                render!(mc, RowFormat::Json),
            ),
            (
                crate::OPTIMIZE_CSV_HEADER,
                optimize.to_csv(),
                render!(optimize, RowFormat::Json),
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
        let json_string = |s: &str| {
            let mut out = String::new();
            json_string(&mut out, s);
            out
        };
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_string("a\\b"), "\"a\\\\b\"");
        assert_eq!(json_string("a\nb"), "\"a\\nb\"");
        assert_eq!(json_string("a\tb"), "\"a\\u0009b\"");
    }
}

#[cfg(test)]
mod oracle {
    //! The row oracle: the `core::fmt` row renderers that the fixed-point
    //! writer ([`push_fixed`], [`push_plain`]) replaced, kept verbatim as
    //! the reference. The live renderers must write the same bytes over
    //! every cell of `mixed-8` and `screening-200`, over hostile numbers
    //! (NaN, ±∞, `-0.0`, subnormals, exact ties, magnitudes of 2^63 and
    //! more) and over real engine output; a property test holds the writer
    //! itself to `core::fmt` over arbitrary bit patterns.
    //!
    //! `make render-oracle` runs this module in release, where the served
    //! binaries run.

    use corridor_core::energy::SegmentEnergy;
    use corridor_core::sink::RowFormat;
    use corridor_core::stats::SummaryStats;
    use corridor_core::EnergyStrategy;
    use corridor_units::{Meters, Watts};
    use proptest::prelude::*;

    use super::{push_fixed, push_plain, render_sweep_row};
    use crate::mc::render_mc_row;
    use crate::network::day::render_day_row;
    use crate::network::render_schedule_row;
    use crate::optimize::render_optimize_row;
    use crate::{
        CellOutcome, CellResult, CorridorEdge, CorridorNetwork, DeploymentOptimizer, EdgeDayStats,
        FrontierPoint, McCellResult, McEngine, OptimizeCellResult, PvOutcome, ReplicationPlan,
        ScenarioCell, ScenarioGrid, SearchSpace, SleepDecision, SweepEngine,
    };

    /// The renderers as they were, verbatim apart from visibility; the
    /// schedule line is the body of the former `schedule_csv` loop.
    mod reference {
        use core::fmt::Write as _;

        use corridor_core::sink::RowFormat;
        use corridor_core::EnergyStrategy;

        use crate::cell::POWER_PROFILE;
        use crate::{
            CellResult, CorridorNetwork, EdgeDayStats, McCellResult, McMetric, OptimizeCellResult,
            PvOutcome, ScenarioCell, SleepDecision,
        };

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
                ",analytic,{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.2},{:.2},{:.2},",
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
                json_string("analytic"),
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
                csv_field(POWER_PROFILE),
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
                json_string(POWER_PROFILE),
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
        /// (RFC 4180): a climate name like `Location::new("Berlin, Mitte", …)`
        /// must not shift the column layout.
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

        /// Renders one cell's Monte-Carlo statistics as a report row. The plan
        /// metadata (`traffic`, `replications`, `master_seed`) rides along in
        /// every row, so a row renders identically whether it comes from an
        /// in-memory [`McReport`] or a streaming evaluation.
        pub(crate) fn render_mc_row(
            r: &McCellResult,
            traffic: &str,
            replications: usize,
            master_seed: u64,
            format: RowFormat,
        ) -> String {
            match format {
                RowFormat::Csv => {
                    let mut out = String::with_capacity(400);
                    cell_csv(&mut out, r.cell(), true);
                    let _ = write!(out, ",{traffic},{replications},{master_seed}");
                    for metric in McMetric::ALL {
                        let s = r.stats(metric);
                        let _ = write!(
                            out,
                            ",{:.4},{:.4},{:.4},{:.4},{:.4}",
                            s.mean, s.stddev, s.ci95, s.min, s.max
                        );
                    }
                    out.push('\n');
                    out
                }
                RowFormat::Json => {
                    let mut out = String::with_capacity(700);
                    out.push_str("  {");
                    cell_json(&mut out, r.cell(), true);
                    let _ = write!(
                        out,
                        ", \"traffic\": {}, \"replications\": {replications}, \
                         \"master_seed\": {master_seed}, \"stats\": {{",
                        json_string(traffic),
                    );
                    for (j, metric) in McMetric::ALL.into_iter().enumerate() {
                        let s = r.stats(metric);
                        let _ = write!(
                            out,
                            "{}{}: {{\"mean\": {:.4}, \"stddev\": {:.4}, \"ci95\": {:.4}, \
                             \"min\": {:.4}, \"max\": {:.4}}}",
                            if j == 0 { "" } else { ", " },
                            json_string(metric.key()),
                            s.mean,
                            s.stddev,
                            s.ci95,
                            s.min,
                            s.max,
                        );
                    }
                    out.push_str("}}");
                    out
                }
            }
        }

        /// Renders one cell's search outcome as a report chunk. The CSV chunk
        /// spans one line per frontier point (each with its own newline); the
        /// JSON chunk is one cell object with its nested frontier array.
        pub(crate) fn render_optimize_row(
            r: &OptimizeCellResult,
            isd_search: &str,
            format: RowFormat,
        ) -> String {
            match format {
                RowFormat::Csv => {
                    let mut prefix = String::with_capacity(96);
                    cell_csv(&mut prefix, r.cell(), false);
                    let _ = write!(prefix, ",{isd_search}");
                    let mut out = String::with_capacity(160 * r.frontier().len().max(1));
                    if r.is_unsolvable() {
                        let _ = writeln!(out, "{prefix},unsolvable,-,-,-,-,-,-,-,-,-,-,-,-");
                        return out;
                    }
                    for p in r.frontier() {
                        let _ = write!(
                            out,
                            "{prefix},frontier,{},{:.0},{},{},{:.3},{:.4},{:.3},{:.2},{:.3},",
                            p.nodes,
                            p.isd.value(),
                            csv_field(&p.policy),
                            p.evaluator,
                            p.energy_wh_day_km,
                            p.nodes_per_km,
                            p.margin_db,
                            p.saving_sleep_pct,
                            p.repeater_wh_day,
                        );
                        pv_csv(&mut out, p.pv);
                        out.push('\n');
                    }
                    out
                }
                RowFormat::Json => {
                    let mut out = String::with_capacity(320 * r.frontier().len().max(1));
                    out.push_str("  {");
                    cell_json(&mut out, r.cell(), false);
                    let _ = write!(
                        out,
                        ", \"isd_search\": {}, \"status\": {}, \"frontier\": [",
                        json_string(isd_search),
                        json_string(if r.is_unsolvable() {
                            "unsolvable"
                        } else {
                            "frontier"
                        }),
                    );
                    for (j, p) in r.frontier().iter().enumerate() {
                        let _ = write!(
                            out,
                            "{}{{\"nodes\": {}, \"isd_m\": {:.0}, \"policy\": {}, \"evaluator\": {}, \
                             \"energy_wh_day_km\": {:.3}, \"nodes_per_km\": {:.4}, \"margin_db\": {:.3}, \
                             \"saving_sleep_pct\": {:.2}, \"repeater_wh_day\": {:.3}, ",
                            if j == 0 { "" } else { ", " },
                            p.nodes,
                            p.isd.value(),
                            json_string(&p.policy),
                            json_string(p.evaluator),
                            p.energy_wh_day_km,
                            p.nodes_per_km,
                            p.margin_db,
                            p.saving_sleep_pct,
                            p.repeater_wh_day,
                        );
                        pv_json(&mut out, p.pv);
                        out.push('}');
                    }
                    out.push_str("]}");
                    out
                }
            }
        }

        /// Renders one edge's day row in the requested format.
        pub(crate) fn render_day_row(
            net: &CorridorNetwork,
            s: &EdgeDayStats,
            reps: usize,
            format: RowFormat,
        ) -> String {
            match format {
                RowFormat::Csv => {
                    let mut out = String::with_capacity(128);
                    let _ = writeln!(
                        out,
                        "{},{},{},{},{},{:.0},{},{:.3},{:.3},{:.2},{:.2}",
                        s.edge,
                        csv_field(&net.edge_name(s.edge)),
                        s.demand_tph,
                        s.routes,
                        s.nodes,
                        s.isd_m,
                        reps,
                        s.mean_wh_day,
                        s.ci95_wh_day,
                        s.mean_passes,
                        s.mean_wakes,
                    );
                    out
                }
                RowFormat::Json => {
                    let mut out = String::with_capacity(256);
                    let _ = write!(
                        out,
                        "  {{\"edge\": {}, \"edge_name\": {}, \"demand_tph\": {}, \"routes\": {}, \
                         \"nodes\": {}, \"isd_m\": {:.0}, \"reps\": {}, \"mean_wh_day\": {:.3}, \
                         \"ci95_wh_day\": {:.3}, \"mean_passes\": {:.2}, \"mean_wakes\": {:.2}}}",
                        s.edge,
                        json_string(&net.edge_name(s.edge)),
                        s.demand_tph,
                        s.routes,
                        s.nodes,
                        s.isd_m,
                        reps,
                        s.mean_wh_day,
                        s.ci95_wh_day,
                        s.mean_passes,
                        s.mean_wakes,
                    );
                    out
                }
            }
        }

        /// One line of the former `NetworkReport::schedule_csv` loop.
        pub(crate) fn schedule_row(out: &mut String, net: &CorridorNetwork, d: &SleepDecision) {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{:.3},{:.3},{:.3},{}",
                d.edge,
                csv_field(&net.edge_name(d.edge)),
                d.station,
                csv_field(net.station_name(d.station)),
                d.absorber_edge,
                csv_field(&net.edge_name(d.absorber_edge)),
                d.slept_wh_day,
                d.absorber_delta_wh_day,
                d.net_wh_day,
                d.absorbed_demand_tph,
            );
        }
    }

    const FORMATS: [RowFormat; 2] = [RowFormat::Csv, RowFormat::Json];

    /// Numbers no real row holds that every renderer must still write as
    /// `core::fmt` does: non-finite values, signed zeros, subnormals, the
    /// neighbours of 2^53 and 2^63 and beyond, and exact ties at zero to
    /// four decimals, of both signs. The ties are the odd multiples of
    /// 2^-(d+1): the only binary fractions half-way between two
    /// `d`-decimal numbers.
    fn hostile_numbers() -> Vec<f64> {
        let two = 2f64;
        let mut values = vec![
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            -1e-5,
            4e-5,
            0.3,
            1.0 / 3.0,
            9.9995,
            0.999_95,
            f64::EPSILON,
            two.powi(52) + 0.5,
            two.powi(53) - 1.0,
            two.powi(53),
            two.powi(53) + 2.0,
            two.powi(63) - 1024.0,
            two.powi(63),
            -two.powi(63),
            two.powi(64),
            1e300,
            f64::MAX,
            f64::MIN,
        ];
        for decimals in 0..=4 {
            let unit = 0.5f64.powi(decimals + 1);
            for whole in [0.0, 1.0, 2.0, 123.0, 1e6] {
                for odd in (1..2i32.pow(decimals as u32 + 1)).step_by(2) {
                    let tie = whole + f64::from(odd) * unit;
                    values.extend([tie, -tie]);
                }
            }
        }
        values
    }

    /// Every number a sweep result's rows write, cell columns included.
    fn numbers_of(r: &CellResult) -> Vec<f64> {
        let c = r.cell();
        let mut values = vec![
            c.trains_per_hour(),
            c.service_window_h(),
            c.train_speed_kmh(),
            c.isd().value(),
        ];
        for e in [r.baseline()]
            .into_iter()
            .chain(EnergyStrategy::ALL.map(|s| r.split(s)))
        {
            values.extend([
                e.hp.value(),
                e.service.value(),
                e.donor.value(),
                e.total().value(),
            ]);
        }
        values.extend(EnergyStrategy::ALL.map(|s| r.savings(s) * 100.0));
        if let PvOutcome::Sized {
            pv_wp,
            battery_wh,
            days_full_pct,
        } = r.pv()
        {
            values.extend([pv_wp, battery_wh, days_full_pct]);
        }
        values
    }

    /// Hands out `values` in turn from `start`, wrapping around.
    fn cycle(values: &[f64], start: usize) -> impl FnMut() -> f64 + '_ {
        let mut values = values.iter().copied().cycle().skip(start);
        move || values.next().expect("a non-empty pool")
    }

    fn energy(next: &mut impl FnMut() -> f64) -> SegmentEnergy {
        SegmentEnergy {
            hp: Watts::new(next()),
            service: Watts::new(next()),
            donor: Watts::new(next()),
        }
    }

    fn sized(next: &mut impl FnMut() -> f64) -> PvOutcome {
        PvOutcome::Sized {
            pv_wp: next(),
            battery_wh: next(),
            days_full_pct: next(),
        }
    }

    fn frontier_point(
        next: &mut impl FnMut() -> f64,
        policy: &str,
        pv: PvOutcome,
    ) -> FrontierPoint {
        FrontierPoint {
            nodes: 10,
            isd: Meters::new(next()),
            policy: policy.to_owned(),
            evaluator: "event-driven",
            energy_wh_day_km: next(),
            nodes_per_km: next(),
            margin_db: next(),
            saving_sleep_pct: next(),
            repeater_wh_day: next(),
            pv,
        }
    }

    /// Two edges meeting at a station whose name needs CSV quoting.
    fn network() -> CorridorNetwork {
        let mut net = CorridorNetwork::new();
        let north = net.add_station("north");
        let junction = net.add_station("junction, \"west\"");
        let south = net.add_station("south");
        for (a, b) in [(north, junction), (junction, south)] {
            net.add_edge(CorridorEdge::between(a, b))
                .expect("a valid edge");
        }
        net
    }

    fn assert_sweep_rows(r: &CellResult) {
        for format in FORMATS {
            assert_eq!(
                render_sweep_row(r, format),
                reference::render_sweep_row(r, format),
                "{}",
                r.cell()
            );
        }
    }

    /// Builds every row kind from `cell` and numbers drawn from `next`,
    /// and holds each live rendering to the reference's bytes.
    fn assert_rows_match(
        cell: &ScenarioCell,
        net: &CorridorNetwork,
        next: &mut impl FnMut() -> f64,
    ) {
        let (baseline, continuous, sleep, solar) =
            (energy(next), energy(next), energy(next), energy(next));
        let pv = sized(next);
        assert_sweep_rows(&CellResult::new(
            cell.clone(),
            baseline,
            continuous,
            sleep,
            solar,
            pv,
        ));
        let mc = McCellResult {
            cell: cell.clone(),
            stats: core::array::from_fn(|_| SummaryStats {
                n: 3,
                mean: next(),
                stddev: next(),
                ci95: next(),
                min: next(),
                max: next(),
            }),
        };
        let pv = sized(next);
        let optimize = OptimizeCellResult {
            cell: cell.clone(),
            evaluated: 2,
            outcome: CellOutcome::Frontier(vec![
                frontier_point(next, "paper", pv),
                frontier_point(next, "1,0.3,\"0.5\"", PvOutcome::Unsolvable),
            ]),
        };
        let day = EdgeDayStats {
            edge: 1,
            demand_tph: next(),
            routes: 2,
            nodes: 7,
            isd_m: next(),
            mean_wh_day: next(),
            ci95_wh_day: next(),
            mean_passes: next(),
            mean_wakes: next(),
        };
        for format in FORMATS {
            assert_eq!(
                render_mc_row(&mc, "poisson", 25, u64::MAX, format),
                reference::render_mc_row(&mc, "poisson", 25, u64::MAX, format),
            );
            assert_eq!(
                render_optimize_row(&optimize, "grid", format),
                reference::render_optimize_row(&optimize, "grid", format),
            );
            assert_eq!(
                render_day_row(net, &day, 3, format),
                reference::render_day_row(net, &day, 3, format),
            );
        }
        let decision = SleepDecision {
            station: 1,
            edge: 0,
            absorber_edge: 1,
            repeater: None,
            slept_wh_day: next(),
            absorber_delta_wh_day: next(),
            net_wh_day: next(),
            absorbed_demand_tph: next(),
            margin_cost_db: next(),
        };
        let (mut live, mut old) = (String::new(), String::new());
        render_schedule_row(&mut live, net, &decision);
        reference::schedule_row(&mut old, net, &decision);
        assert_eq!(live, old);
    }

    #[test]
    fn named_grid_rows_match_the_reference() {
        let net = network();
        for name in ["mixed-8", "screening-200"] {
            let grid = ScenarioGrid::by_name(name).expect("a named grid");
            let report = SweepEngine::new()
                .workers(2)
                .run(&grid)
                .expect("a valid grid");
            assert_eq!(report.len(), grid.len());
            for r in report.results() {
                assert_sweep_rows(r);
                // every other row kind, from this cell's own numbers
                assert_rows_match(r.cell(), &net, &mut cycle(&numbers_of(r), 0));
            }
        }
    }

    #[test]
    fn hostile_rows_match_the_reference() {
        let net = network();
        // fractional axes (the `{}` columns off the integer path) and a
        // climate name that needs quoting in both formats
        let berlin = corridor_solar::climate::berlin();
        let awkward = ScenarioGrid::new()
            .trains_per_hour(vec![2.5, 7.0 / 3.0])
            .train_speeds_kmh(vec![160.25, 99.95])
            .locations(vec![corridor_solar::Location::new(
                "Berlin,\"Mitte\"\n\t",
                berlin.latitude_deg(),
                *berlin.monthly_ghi_kwh_m2_day(),
                *berlin.monthly_temp_c(),
            )])
            .expand()
            .expect("a valid grid");
        let values = hostile_numbers();
        for start in 0..values.len() {
            let cell = &awkward[start % awkward.len()];
            // a hostile deployment ISD too
            let cell = ScenarioCell::new(
                cell.index() + start,
                cell.params().clone(),
                cell.location().clone(),
                cell.nodes(),
                Meters::new(values[start]),
            );
            assert_rows_match(&cell, &net, &mut cycle(&values, start));
        }
        let cell = &awkward[0];
        let split = energy(&mut cycle(&values, 0));
        for pv in [PvOutcome::Skipped, PvOutcome::Unsolvable] {
            assert_sweep_rows(&CellResult::new(
                cell.clone(),
                split,
                split,
                split,
                split,
                pv,
            ));
        }
        let unsolvable = OptimizeCellResult {
            cell: cell.clone(),
            evaluated: 0,
            outcome: CellOutcome::Unsolvable,
        };
        for format in FORMATS {
            assert_eq!(
                render_optimize_row(&unsolvable, "table", format),
                reference::render_optimize_row(&unsolvable, "table", format),
            );
        }
    }

    #[test]
    fn engine_rows_match_the_reference() {
        let grid = ScenarioGrid::by_name("smoke-3").expect("a named grid");
        let mc = McEngine::new()
            .workers(1)
            .run(&grid, &ReplicationPlan::new(3).master_seed(9))
            .expect("a valid grid");
        let optimize = DeploymentOptimizer::new()
            .workers(1)
            .run(&grid, &SearchSpace::new())
            .expect("a valid grid");
        for format in FORMATS {
            for r in mc.results() {
                assert_eq!(
                    render_mc_row(r, mc.traffic(), mc.replications(), mc.master_seed(), format),
                    reference::render_mc_row(
                        r,
                        mc.traffic(),
                        mc.replications(),
                        mc.master_seed(),
                        format
                    ),
                );
            }
            for r in optimize.results() {
                assert_eq!(
                    render_optimize_row(r, "grid", format),
                    reference::render_optimize_row(r, "grid", format),
                );
            }
        }
    }

    /// Holds the writer to `core::fmt` on one value: every fixed precision
    /// it writes itself, one it hands to `core::fmt`, and `{}`.
    fn assert_writer_matches(v: f64) {
        for decimals in 0..=5 {
            let mut out = String::new();
            push_fixed(&mut out, v, decimals);
            assert_eq!(out, format!("{v:.decimals$}"), "{v:e} at {decimals}");
        }
        let mut out = String::new();
        push_plain(&mut out, v);
        assert_eq!(out, format!("{v}"), "{v:e}");
    }

    proptest! {
        /// Any bit pattern: mostly magnitudes far below a unit or at 2^63
        /// and above, so the round-to-zero and `core::fmt` paths.
        #[test]
        fn writer_matches_core_fmt_on_any_bits(bits in prop::collection::vec(0u64..=u64::MAX, 32..33)) {
            for bits in bits {
                assert_writer_matches(f64::from_bits(bits));
            }
        }

        /// Row magnitudes, 2^-20 to 2^64 with random sign and mantissa, and
        /// integers of either sign up to 2^54.
        #[test]
        fn writer_matches_core_fmt_on_row_magnitudes(
            parts in prop::collection::vec((0u64..=u64::MAX, 1003u64..=1087), 64..65),
        ) {
            for (random, biased) in parts {
                let sign_and_mantissa = random & (1 << 63 | ((1 << 52) - 1));
                assert_writer_matches(f64::from_bits(sign_and_mantissa | biased << 52));
                let int = (random >> 10) as f64;
                assert_writer_matches(int);
                assert_writer_matches(-int);
            }
        }
    }
}
