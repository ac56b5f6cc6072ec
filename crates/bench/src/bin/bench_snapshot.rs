//! Regenerates the committed `BENCH_*.json` throughput snapshots at
//! the repository root (`make bench-snapshot`).
//!
//! Each snapshot measures one hot path single-threaded — raw event
//! throughput, serial Monte-Carlo cell-days/s, serial sweep cells/s,
//! serial network-day edge-days/s — and records it against its fixed
//! baseline. The guard test in `tests/bench_snapshots.rs` keeps the
//! committed values above the floors, so run this on a quiet machine
//! and eyeball the diff before committing.

use std::io::Write as _;
use std::process::ExitCode;

use corridor_bench::args::{self, Stdout};
use corridor_bench::snapshot::{
    measure_events, measure_mc, measure_network, measure_sweep, Snapshot,
};

fn main() -> ExitCode {
    args::output("bench_snapshot", |out| {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        for snap in [
            measure_events(),
            measure_mc(),
            measure_sweep(),
            measure_network(),
        ] {
            write_snapshot(root, &snap, out)?;
        }
        Ok(ExitCode::SUCCESS)
    })
}

fn write_snapshot(root: &str, snap: &Snapshot, out: &mut Stdout) -> std::io::Result<()> {
    let path = format!("{root}/BENCH_{}.json", snap.name);
    std::fs::write(&path, snap.to_json()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    writeln!(
        out,
        "{}: {:.0} {} ({:.2}x baseline) -> {path}",
        snap.name,
        snap.value,
        snap.metric,
        snap.speedup()
    )
}
