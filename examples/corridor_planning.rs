//! Plan a full railway corridor: pick the repeater count that minimizes
//! annual energy for a given line length and print the bill of materials.
//!
//! Run with `cargo run --release --example corridor_planning`.

use std::io::{self, Write as _};
use std::process::ExitCode;

use corridor_bench::args::{self, Stdout};
use railway_corridor::prelude::*;

/// Length of the corridor to plan.
const LINE_KM: f64 = 50.0;

fn main() -> ExitCode {
    args::output("corridor_planning", run)
}

fn run(out: &mut Stdout) -> io::Result<ExitCode> {
    let params = ScenarioParams::paper_default();

    // sweep the achievable ISD per node count with the calibrated model
    let optimizer =
        IsdOptimizer::new(LinkBudget::paper_default()).with_placement(params.placement());
    let table = optimizer.sweep(10);
    writeln!(out, "achievable inter-site distances (computed):\n{table}")?;

    // evaluate annual mains energy for every option, sleep-mode repeaters
    let hours_per_year = 24.0 * 365.0;
    let mut best: Option<(usize, Meters, f64)> = None;
    writeln!(
        out,
        "option evaluation for a {LINE_KM:.0} km line (sleep-mode repeaters):"
    )?;
    writeln!(
        out,
        "{:>6} {:>9} {:>10} {:>12} {:>10}",
        "nodes", "ISD [m]", "masts", "MWh/year", "savings"
    )?;
    let baseline =
        energy::conventional_baseline(&params).total().value() * LINE_KM * hours_per_year / 1e6;
    for (n, isd) in table.iter() {
        let deployment =
            energy::average_power_per_km(&params, n, isd, EnergyStrategy::SleepModeRepeaters);
        let mwh_year = deployment.total().value() * LINE_KM * hours_per_year / 1e6;
        let masts = (LINE_KM * 1000.0 / isd.value()).ceil() as usize + 1;
        let savings = 1.0 - mwh_year / baseline;
        writeln!(
            out,
            "{n:>6} {:>9.0} {masts:>10} {mwh_year:>12.1} {:>9.1} %",
            isd.value(),
            savings * 100.0
        )?;
        if best.is_none_or(|(_, _, best_mwh)| mwh_year < best_mwh) {
            best = Some((n, isd, mwh_year));
        }
    }

    let (n, isd, mwh) = best.expect("at least one option");
    let inventory = SegmentInventory::for_nodes(n, isd);
    let segments = (LINE_KM * 1000.0 / isd.value()).ceil() as usize;
    writeln!(
        out,
        "\nselected plan: {n} repeater(s) per segment at ISD {isd}"
    )?;
    writeln!(out, "  segments:        {segments}")?;
    writeln!(out, "  HP masts:        {}", segments + 1)?;
    writeln!(
        out,
        "  service nodes:   {}",
        segments * inventory.service_nodes()
    )?;
    writeln!(
        out,
        "  donor nodes:     {}",
        segments * inventory.donor_nodes()
    )?;
    writeln!(
        out,
        "  annual energy:   {mwh:.1} MWh (baseline {baseline:.1} MWh)"
    )?;

    // if the repeaters go solar, the repeater share of that energy is zero
    let solar =
        energy::average_power_per_km(&params, n, isd, EnergyStrategy::SolarPoweredRepeaters);
    let solar_mwh = solar.total().value() * LINE_KM * hours_per_year / 1e6;
    writeln!(
        out,
        "  with solar nodes: {solar_mwh:.1} MWh ({:.1} % below baseline)",
        (1.0 - solar_mwh / baseline) * 100.0
    )?;

    // verify the selected plan really keeps peak throughput
    let layout =
        CorridorLayout::with_policy(isd, n, &params.placement()).expect("plan is placeable");
    let profile = layout.coverage_profile(&LinkBudget::paper_default(), Meters::new(5.0));
    writeln!(
        out,
        "  coverage check:  min SNR {:.1} dB (peak requires ≥ 29 dB)",
        profile.min_snr().unwrap().value()
    )?;
    Ok(ExitCode::SUCCESS)
}
