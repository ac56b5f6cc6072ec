//! Prints the paper's Section V headline numbers next to the model's.
//!
//! The rendering lives in [`corridor_bench::render`] so the golden-file
//! test can assert it against `docs/results/`.

use std::process::ExitCode;

fn main() -> ExitCode {
    corridor_bench::args::print("headline", &corridor_bench::render::headline())
}
