//! Regenerates the paper's Table II: EARTH power-model parameters for the
//! RRH and the repeater node.
//!
//! The rendering lives in [`corridor_bench::render`] so the golden-file
//! test can assert it against `docs/results/`.

use std::process::ExitCode;

fn main() -> ExitCode {
    corridor_bench::args::print("table2", &corridor_bench::render::table2())
}
