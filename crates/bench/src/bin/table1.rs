//! Regenerates the paper's Table I: low-power repeater node power
//! consumption by component.
//!
//! The rendering lives in [`corridor_bench::render`] so the golden-file
//! test can assert it against `docs/results/`.

use std::process::ExitCode;

fn main() -> ExitCode {
    corridor_bench::args::print("table1", &corridor_bench::render::table1())
}
