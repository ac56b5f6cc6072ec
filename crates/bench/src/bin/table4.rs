//! Regenerates the paper's Table IV: PVGIS-style sizing results for the
//! four exemplary regions over one year.
//!
//! The rendering lives in [`corridor_bench::render`] so the golden-file
//! test can assert it against `docs/results/`.

use std::process::ExitCode;

fn main() -> ExitCode {
    corridor_bench::args::print("table4", &corridor_bench::render::table4())
}
