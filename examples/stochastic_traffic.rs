//! Sensitivity of the energy savings to the traffic model: Poisson
//! arrivals versus the deterministic timetable, traffic growth, and the
//! sleep controller's wake latency.
//!
//! Run with `cargo run --release --example stochastic_traffic`.

use std::io::{self, Write as _};
use std::process::ExitCode;

use corridor_bench::args::{self, Stdout};
use railway_corridor::prelude::*;
use rand::SeedableRng;

fn main() -> ExitCode {
    args::output("stochastic_traffic", run)
}

fn run(out: &mut Stdout) -> io::Result<ExitCode> {
    let params = ScenarioParams::paper_default();
    let isd = Meters::new(2400.0);
    let section_hp = TrackSection::new(Meters::ZERO, isd);
    let section_lp = TrackSection::around(isd / 2.0, params.lp_spacing());

    // 1. Deterministic vs Poisson occupancy for the same mean rate.
    let deterministic =
        ActivityTimeline::for_section(&section_hp, &Timetable::paper_default().passes());
    writeln!(
        out,
        "deterministic timetable: HP mast active {:.3} h/day ({:.2} % duty)",
        deterministic.total_active_hours().value(),
        deterministic.total_active().value() / 864.0
    )?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let poisson = PoissonTimetable::paper_rate();
    let mut total = 0.0;
    const DRAWS: usize = 20;
    for _ in 0..DRAWS {
        let passes = poisson.sample_passes(&mut rng);
        total += ActivityTimeline::for_section(&section_hp, &passes)
            .total_active_hours()
            .value();
    }
    writeln!(
        out,
        "Poisson arrivals (mean of {DRAWS} days): HP mast active {:.3} h/day",
        total / DRAWS as f64
    )?;

    // 2. Energy savings versus traffic intensity.
    writeln!(
        out,
        "\nsleep-mode savings vs traffic intensity (10 nodes, ISD 2650 m):"
    )?;
    for trains_per_hour in [2.0, 4.0, 8.0, 16.0, 32.0] {
        let timetable = Timetable::new(
            trains_per_hour,
            Hours::new(19.0),
            Hours::new(5.0).seconds(),
            Train::paper_default(),
        );
        let scenario = ScenarioParams::paper_default().with_timetable(timetable);
        let savings = energy::savings_vs_conventional(
            &scenario,
            &IsdTable::paper(),
            10,
            EnergyStrategy::SleepModeRepeaters,
        )
        .expect("the paper ISD table covers 10 nodes");
        writeln!(
            out,
            "  {trains_per_hour:>5.0} trains/h: {:.1} % savings",
            savings * 100.0
        )?;
    }

    // 3. Wake latency: how much coverage time is lost per pass, and how
    //    much track the train covers while the node wakes.
    writeln!(out, "\nwake-latency study (train at 200 km/h):")?;
    let v = Train::paper_default().speed();
    let passes = Timetable::paper_default().passes();
    for delay_ms in [100.0, 300.0, 500.0, 1000.0] {
        let delay = Seconds::new(delay_ms / 1000.0);
        // a barrier at the section edge has no lead: the node is still
        // waking for the part of the delay beyond the lead
        let lead = Seconds::ZERO;
        let uncovered = (delay - lead).max(Seconds::ZERO);
        let distance = v * uncovered;
        // a barrier `delay` up-track powers the node that much earlier
        let with_wake = ActivityTimeline::from_intervals(passes.iter().map(|pass| {
            let (enter, exit) = section_lp.occupancy(pass);
            (enter - delay, exit)
        }));
        let extra = with_wake.total_active_hours().value()
            - ActivityTimeline::for_section(&section_lp, &passes)
                .total_active_hours()
                .value();
        writeln!(
            out,
            "  {delay_ms:>5.0} ms delay: {:.1} m of track uncovered per pass \
             (barrier lead compensates at +{:.1} Wh/day)",
            distance.value(),
            extra * 28.38
        )?;
    }
    Ok(ExitCode::SUCCESS)
}
