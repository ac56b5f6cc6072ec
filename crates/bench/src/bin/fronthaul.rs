//! Prints whether the mmWave fronthaul closes for every paper segment.
//!
//! The rendering lives in [`corridor_bench::render`] so the golden-file
//! test can assert it against `docs/results/`.

use std::process::ExitCode;

fn main() -> ExitCode {
    corridor_bench::args::print("fronthaul", &corridor_bench::render::fronthaul())
}
