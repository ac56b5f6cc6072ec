//! Regenerates the paper's Fig. 3: signal and noise power values for
//! d_ISD = 2400 m and N = 8 low-power repeater nodes.
//!
//! The rendering lives in [`corridor_bench::render`] so the golden-file
//! test can assert it against `docs/results/`.

use std::process::ExitCode;

fn main() -> ExitCode {
    corridor_bench::args::print("fig3", &corridor_bench::render::fig3())
}
