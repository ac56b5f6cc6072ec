//! Size autonomous PV systems for repeater nodes across Europe and show
//! why winters, not annual sums, drive the design.
//!
//! Run with `cargo run --release --example solar_sizing`.

use std::io::{self, Write as _};
use std::process::ExitCode;

use corridor_bench::args::{self, Stdout};
use railway_corridor::prelude::*;
use railway_corridor::solar::sizing::SizingOptions;
use railway_corridor::solar::{Location, WeatherGenerator, YearStats};

fn main() -> ExitCode {
    args::output("solar_sizing", run)
}

fn run(out: &mut Stdout) -> io::Result<ExitCode> {
    let load = DailyLoadProfile::repeater_paper_default();
    writeln!(
        out,
        "repeater load: {} per day (avg {})\n",
        load.daily_energy(),
        load.average_power()
    )?;

    // 1. The paper's four regions, sized with the standard ladder.
    let options = SizingOptions::paper_default();
    writeln!(out, "zero-downtime sizing (paper Table IV):")?;
    for location in climate::paper_regions() {
        match sizing::size_for_zero_downtime(location.clone(), load.clone(), &options) {
            Some(fit) => writeln!(out, "  {:8} -> {fit}", location.name())?,
            None => writeln!(
                out,
                "  {:8} -> not solvable with the standard ladder",
                location.name()
            )?,
        }
    }

    // 2. Why Berlin needs more: December energy balance per candidate.
    writeln!(
        out,
        "\nBerlin, month-by-month balance (540 Wp, deterministic weather):"
    )?;
    let berlin = climate::berlin();
    let system = OffGridSystem::new(
        berlin.clone(),
        PvArray::standard_modules(3),
        Battery::paper_default(),
        load.clone(),
    )
    .with_weather_variability(0.0, 0.0);
    let stats = system.simulate_year(0);
    print_year(out, "  deterministic normals", &stats)?;
    let stochastic = OffGridSystem::new(
        berlin,
        PvArray::standard_modules(3),
        Battery::paper_default(),
        load.clone(),
    );
    print_year(
        out,
        "  with overcast strings",
        &stochastic.simulate_year(10),
    )?;

    // 3. A custom site: a south-facing alpine valley wall at 46.5°N with
    //    strong winter fog (synthetic normals).
    let alpine = Location::new(
        "Alpine valley",
        46.5,
        [0.8, 1.5, 2.8, 4.0, 4.9, 5.4, 5.6, 4.8, 3.5, 2.0, 0.9, 0.6],
        [
            -2.0, 0.0, 4.0, 9.0, 13.0, 17.0, 19.0, 18.0, 14.0, 9.0, 3.0, -1.0,
        ],
    )
    .with_overcast_persistence(0.85);
    writeln!(out, "\ncustom site:")?;
    match sizing::size_for_zero_downtime(alpine, load, &options) {
        Some(fit) => writeln!(out, "  Alpine valley -> {fit}")?,
        None => writeln!(
            out,
            "  Alpine valley -> needs more than the standard ladder"
        )?,
    }

    // 4. Show a sampled stretch of synthetic winter weather.
    writeln!(
        out,
        "\nten January days of synthetic Berlin weather (GHI multipliers):"
    )?;
    let mut weather = WeatherGenerator::new(climate::berlin(), 10);
    let multipliers = weather.daily_multipliers_for_year();
    let days: Vec<String> = multipliers[..10]
        .iter()
        .map(|m| format!("{m:.2}"))
        .collect();
    writeln!(out, "  {}", days.join("  "))?;
    Ok(ExitCode::SUCCESS)
}

fn print_year(out: &mut Stdout, label: &str, stats: &YearStats) -> io::Result<()> {
    writeln!(
        out,
        "{label}: {:.1} % days full, {} downtime day(s), min SoC {:.0} %",
        stats.full_battery_day_fraction() * 100.0,
        stats.downtime_days(),
        stats.min_soc_fraction() * 100.0
    )
}
