//! Regenerates the paper's Table III: parameters for the average energy
//! consumption calculations.
//!
//! The rendering lives in [`corridor_bench::render`] so the golden-file
//! test can assert it against `docs/results/`.

use std::process::ExitCode;

fn main() -> ExitCode {
    corridor_bench::args::print("table3", &corridor_bench::render::table3())
}
