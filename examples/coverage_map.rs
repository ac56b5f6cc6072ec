//! Render an ASCII coverage map of a corridor segment (the paper's
//! Fig. 3 as a terminal plot) and compare rolling-stock window
//! treatments.
//!
//! Run with `cargo run --release --example coverage_map`.

use std::io::{self, Write as _};
use std::process::ExitCode;

use corridor_bench::args::{self, Stdout};
use railway_corridor::prelude::*;
use railway_corridor::propagation::{PenetrationLoss, WindowTreatment};

fn main() -> ExitCode {
    args::output("coverage_map", run)
}

fn run(out: &mut Stdout) -> io::Result<ExitCode> {
    let budget = LinkBudget::paper_default();
    let layout =
        CorridorLayout::with_policy(Meters::new(2400.0), 8, &PlacementPolicy::paper_default())
            .expect("Fig. 3 geometry");

    writeln!(
        out,
        "ISD 2400 m, 8 low-power repeaters (o = repeater, M = mast)\n"
    )?;
    let profile = layout.coverage_profile(&budget, Meters::new(25.0));

    // vertical axis: -60 dBm (top) to -130 dBm (bottom), 2.5 dB per row
    const TOP: f64 = -60.0;
    const BOTTOM: f64 = -130.0;
    const ROWS: usize = 28;
    let row_of = |dbm: f64| -> Option<usize> {
        if !(BOTTOM..=TOP).contains(&dbm) {
            return None;
        }
        Some(((TOP - dbm) / (TOP - BOTTOM) * (ROWS as f64 - 1.0)).round() as usize)
    };
    let columns = profile.len();
    let mut canvas = vec![vec![' '; columns]; ROWS];
    for (col, sample) in profile.samples().iter().enumerate() {
        if let Some(r) = row_of(sample.noise.value()) {
            canvas[r][col] = '.';
        }
        if let Some(r) = row_of(sample.signal.value()) {
            canvas[r][col] = '#';
        }
    }
    for (r, row) in canvas.iter().enumerate() {
        let label = TOP - (TOP - BOTTOM) * r as f64 / (ROWS as f64 - 1.0);
        let line: String = row.iter().collect();
        writeln!(out, "{label:>7.1} |{line}")?;
    }
    let mut axis = vec![' '; columns];
    axis[0] = 'M';
    axis[columns - 1] = 'M';
    for &pos in layout.repeater_positions() {
        let col = (pos.value() / 2400.0 * (columns as f64 - 1.0)).round() as usize;
        axis[col] = 'o';
    }
    writeln!(out, "        +{}", "-".repeat(columns))?;
    writeln!(out, "         {}", axis.iter().collect::<String>())?;
    writeln!(
        out,
        "         0 m {: >width$}",
        "2400 m",
        width = columns - 5
    )?;
    writeln!(out, "\n# = total signal [dBm], . = total noise [dBm]")?;
    writeln!(
        out,
        "min SNR {:.1} dB; {:.0} % of the track at peak rate",
        profile.min_snr().unwrap().value(),
        profile.fraction_at_peak(budget.throughput()) * 100.0
    )?;

    // Rolling-stock comparison: the calibration constants of the paper
    // assume treated windows; explicit penetration losses show why
    // untreated coated stock kills the link budget.
    writeln!(
        out,
        "\nwindow-treatment comparison at the worst-served point:"
    )?;
    let worst = profile.worst_sample().unwrap();
    for treatment in WindowTreatment::ALL {
        let loss = PenetrationLoss::new(treatment).loss_at(budget.frequency());
        let inside = worst.snr - loss + Db::new(10.0); // +10 dB: calibration already held ~10 dB of FSS loss
        let thr = budget.throughput().spectral_efficiency(inside);
        writeln!(
            out,
            "  {treatment:13}: extra loss {loss}, in-train SNR {:.1} dB -> {:.2} bps/Hz",
            inside.value(),
            thr
        )?;
    }
    Ok(ExitCode::SUCCESS)
}
