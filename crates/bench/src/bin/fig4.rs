//! Regenerates the paper's Fig. 4: average energy consumption per hour,
//! normalized to 1 km, for the conventional corridor and 1-10 repeater
//! nodes under the three operating strategies.
//!
//! The rendering lives in [`corridor_bench::render`] so the golden-file
//! test can assert it against `docs/results/`.

use std::process::ExitCode;

fn main() -> ExitCode {
    corridor_bench::args::print("fig4", &corridor_bench::render::fig4())
}
