//! Machine-readable throughput snapshots (`BENCH_events.json`,
//! `BENCH_mc.json`, `BENCH_sweep.json`, `BENCH_network.json`).
//!
//! The `bench_snapshot` binary re-measures the four hot paths and
//! rewrites the snapshots at the repository root; they are committed so
//! the perf trajectory is tracked commit-over-commit the same way the
//! goldens under `docs/results/` track output bytes. The guard test in
//! `tests/bench_snapshots.rs` keeps the committed values above the
//! floors (PR 6 for the first three, PR 9 for the network day) and
//! (opt-in) re-measures against them.
//!
//! The rendered JSON is deterministic — no timestamps, fixed field
//! order, fixed float formatting — so regenerating on the same machine
//! with the same code produces an empty diff modulo measurement noise
//! in `value`/`speedup_vs_baseline`.

use std::time::Instant;

use corridor_core::traffic::Timetable;
use corridor_core::units::Meters;
use corridor_events::{segment_nodes, CorridorSimulator, WakePolicy};
use corridor_sim::{
    CorridorNetwork, McEngine, NetworkDayEngine, ReplicationPlan, ScenarioGrid, SearchSpace,
    SweepEngine,
};

/// Pre-overhaul (PR 5) events/s on the paper segment, the snapshot's
/// fixed comparison point.
pub const EVENTS_BASELINE: f64 = 8.0e6;
/// Pre-overhaul serial Monte-Carlo cell-days/s on the screening grid.
pub const MC_BASELINE: f64 = 700.0;
/// Pre-overhaul serial sweep cells/s (PV sizing on) on the screening grid.
pub const SWEEP_BASELINE: f64 = 110.0;
/// Serial network-day edge-days/s on the wye junction at the backend's
/// introduction (PR 9) — the fixed comparison point for the time-domain
/// network backend.
pub const NETWORK_BASELINE: f64 = 100.0;

/// Required multiple over [`EVENTS_BASELINE`] (the PR-6 target: ≥5×).
pub const EVENTS_REQUIRED_SPEEDUP: f64 = 5.0;
/// Required multiple over [`MC_BASELINE`] (the PR-6 target: ≥5×).
pub const MC_REQUIRED_SPEEDUP: f64 = 5.0;
/// Required multiple over [`SWEEP_BASELINE`] (the PR-6 target: ≥3×).
pub const SWEEP_REQUIRED_SPEEDUP: f64 = 3.0;
/// Required multiple over [`NETWORK_BASELINE`]: the backend lands with
/// PR 9, so the floor is the introduction figure itself (≥1×) — it only
/// guards against future regressions.
pub const NETWORK_REQUIRED_SPEEDUP: f64 = 1.0;

/// One committed throughput measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Snapshot name; also the `BENCH_<name>.json` file stem.
    pub name: String,
    /// What `value` measures (e.g. `events_per_second`).
    pub metric: String,
    /// Measured throughput, higher is better.
    pub value: f64,
    /// The pre-overhaul throughput the measurement is compared against.
    pub baseline: f64,
    /// Core count of the machine that produced the measurement
    /// (context for the committed number; all three paths run serial).
    pub host_cores: usize,
}

impl Snapshot {
    /// `value / baseline` — the headline multiple the PR targets pin.
    pub fn speedup(&self) -> f64 {
        self.value / self.baseline
    }

    /// Renders the snapshot as deterministic pretty-printed JSON.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"name\": \"{}\",\n  \"metric\": \"{}\",\n  \"value\": {:.1},\n  \
             \"baseline\": {:.1},\n  \"speedup_vs_baseline\": {:.2},\n  \"host_cores\": {}\n}}\n",
            self.name,
            self.metric,
            self.value,
            self.baseline,
            self.speedup(),
            self.host_cores
        )
    }

    /// Parses a snapshot rendered by [`Snapshot::to_json`]. Returns
    /// `None` on any missing or malformed field — the guard test turns
    /// that into a hard failure with the offending file named.
    pub fn parse(json: &str) -> Option<Snapshot> {
        Some(Snapshot {
            name: json_str(json, "name")?,
            metric: json_str(json, "metric")?,
            value: json_num(json, "value")?,
            baseline: json_num(json, "baseline")?,
            host_cores: json_num(json, "host_cores")? as usize,
        })
    }
}

/// Extracts a string field from a flat JSON object (no escapes — the
/// snapshot fields are plain identifiers).
fn json_str(json: &str, key: &str) -> Option<String> {
    let rest = raw_field(json, key)?;
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// Extracts a numeric field from a flat JSON object.
fn json_num(json: &str, key: &str) -> Option<f64> {
    let rest = raw_field(json, key)?;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Slice starting right after `"key":` (whitespace skipped).
fn raw_field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    Some(json[at..].trim_start())
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Measures raw event throughput: the paper's 10-node segment under the
/// paper wake policy, 200 deterministic timetable days, single thread.
pub fn measure_events() -> Snapshot {
    let params = crate::scenario();
    let nodes = segment_nodes(10, Meters::new(2650.0), params.lp_spacing());
    let passes = Timetable::paper_default().passes();
    let sim = CorridorSimulator::new().with_policy(WakePolicy::paper_default());

    let _ = sim.simulate(&nodes, &passes); // warm up
    const DAYS: usize = 200;
    let started = Instant::now();
    let mut events = 0usize;
    for _ in 0..DAYS {
        events += sim.simulate(&nodes, &passes).events_processed();
    }
    Snapshot {
        name: "events".into(),
        metric: "events_per_second".into(),
        value: events as f64 / started.elapsed().as_secs_f64().max(1e-9),
        baseline: EVENTS_BASELINE,
        host_cores: host_cores(),
    }
}

/// Measures serial Monte-Carlo throughput: the 200-cell screening grid
/// × 5 replications (1000 cell-days), one worker.
pub fn measure_mc() -> Snapshot {
    let grid = ScenarioGrid::screening_200();
    let plan = ReplicationPlan::new(5);
    let engine = McEngine::new().workers(1);

    let warmup = ScenarioGrid::new().trains_per_hour(vec![4.0]);
    let _ = engine.run(&warmup, &plan);
    let started = Instant::now();
    let report = engine.run(&grid, &plan).expect("screening grid is valid");
    Snapshot {
        name: "mc".into(),
        metric: "cell_days_per_second".into(),
        value: report.cell_days() as f64 / started.elapsed().as_secs_f64().max(1e-9),
        baseline: MC_BASELINE,
        host_cores: host_cores(),
    }
}

/// Measures serial sweep throughput with PV sizing on: the 200-cell
/// screening grid, one worker.
pub fn measure_sweep() -> Snapshot {
    let grid = ScenarioGrid::screening_200();
    let engine = SweepEngine::new().workers(1).pv_sizing(true);

    let _ = engine.run(&grid);
    let started = Instant::now();
    let report = engine.run(&grid).expect("screening grid is valid");
    Snapshot {
        name: "sweep".into(),
        metric: "cells_per_second".into(),
        value: report.results().len() as f64 / started.elapsed().as_secs_f64().max(1e-9),
        baseline: SWEEP_BASELINE,
        host_cores: host_cores(),
    }
}

/// Measures serial network-day throughput: the wye3 junction through
/// the time-domain backend (routed itineraries, shared days), 40
/// replications per edge, one worker.
pub fn measure_network() -> Snapshot {
    let net = CorridorNetwork::by_name("wye3").expect("committed topology");
    let space = SearchSpace::new().sample_step(Meters::new(10.0));
    let engine = NetworkDayEngine::new().workers(1).reps(40);

    let _ = engine.reps(1).run(&net, &space); // warm the coverage search
    let started = Instant::now();
    let report = engine.run(&net, &space).expect("wye3 is valid");
    Snapshot {
        name: "network".into(),
        metric: "edge_days_per_second".into(),
        value: (report.per_edge().len() * report.reps()) as f64
            / started.elapsed().as_secs_f64().max(1e-9),
        baseline: NETWORK_BASELINE,
        host_cores: host_cores(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips() {
        let snap = Snapshot {
            name: "events".into(),
            metric: "events_per_second".into(),
            value: 70_370_000.0,
            baseline: EVENTS_BASELINE,
            host_cores: 1,
        };
        let parsed = Snapshot::parse(&snap.to_json()).expect("rendered JSON parses");
        assert_eq!(parsed, snap);
        assert!((parsed.speedup() - 8.80).abs() < 0.005);
    }

    #[test]
    fn parse_rejects_missing_fields() {
        assert_eq!(Snapshot::parse("{}"), None);
        assert_eq!(Snapshot::parse("{\"name\": \"x\"}"), None);
    }
}
