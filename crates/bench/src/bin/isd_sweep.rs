//! Regenerates the maximum-ISD list of Section V: for 0-10 repeater
//! nodes, the largest inter-site distance that still delivers peak 5G NR
//! throughput everywhere (SNR >= 29 dB).
//!
//! The rendering lives in [`corridor_bench::render`] so the golden-file
//! test can assert it against `docs/results/`.

use std::process::ExitCode;

fn main() -> ExitCode {
    corridor_bench::args::print("isd_sweep", &corridor_bench::render::isd_sweep())
}
