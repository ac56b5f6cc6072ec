//! Quickstart: the paper's pipeline in five minutes.
//!
//! Run with `cargo run --release --example quickstart`.

use std::io::{self, Write as _};
use std::process::ExitCode;

use corridor_bench::args::{self, Stdout};
use railway_corridor::prelude::*;

fn main() -> ExitCode {
    args::output("quickstart", run)
}

fn run(out: &mut Stdout) -> io::Result<ExitCode> {
    // 1. The RF side: how far can two high-power masts stand apart when
    //    n low-power repeaters fill the gap, without losing peak 5G NR
    //    throughput inside the train?
    let budget = LinkBudget::paper_default();
    let optimizer = IsdOptimizer::new(budget.clone());
    writeln!(
        out,
        "maximum inter-site distance (min SNR ≥ 29 dB everywhere):"
    )?;
    for n in [0usize, 1, 4, 8] {
        match optimizer.max_isd(n) {
            Some(isd) => writeln!(out, "  {n:2} repeater(s): {isd}")?,
            None => writeln!(out, "  {n:2} repeater(s): not achievable")?,
        }
    }

    // 2. A single coverage profile: the paper's Fig. 3 scenario.
    let layout =
        CorridorLayout::with_policy(Meters::new(2400.0), 8, &PlacementPolicy::paper_default())
            .expect("8 nodes fit in 2400 m");
    let profile = layout.coverage_profile(&budget, Meters::new(5.0));
    writeln!(
        out,
        "\nISD 2400 m with 8 repeaters: min SNR {:.1} dB at {}, {:.0} % of track at peak rate",
        profile.min_snr().unwrap().value(),
        profile.worst_sample().unwrap().position,
        profile.fraction_at_peak(budget.throughput()) * 100.0,
    )?;

    // 3. The energy side: average energy per hour and km of corridor.
    let params = ScenarioParams::paper_default();
    let baseline = energy::conventional_baseline(&params);
    writeln!(
        out,
        "\nconventional corridor (masts every 500 m): {:.0} Wh per hour per km",
        baseline.total().value()
    )?;
    for strategy in EnergyStrategy::ALL {
        let savings = energy::savings_vs_conventional(&params, &IsdTable::paper(), 10, strategy)
            .expect("the paper ISD table covers 10 nodes");
        writeln!(
            out,
            "  10 repeaters, {strategy}: {:.0} % savings",
            savings * 100.0
        )?;
    }

    // 4. The solar side: can the repeaters run off-grid?
    let system = OffGridSystem::new(
        climate::madrid(),
        PvArray::standard_modules(3),
        Battery::paper_default(),
        DailyLoadProfile::repeater_paper_default(),
    );
    let stats = system.simulate_year(2);
    writeln!(
        out,
        "\nMadrid, 3 × 180 Wp vertical + 720 Wh battery: {stats}"
    )?;
    Ok(ExitCode::SUCCESS)
}
