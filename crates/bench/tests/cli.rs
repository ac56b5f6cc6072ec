//! End-to-end tests for the argument grammar of the engine CLIs and
//! `serve`: `--help`, usage errors, non-finite floats, the stand-alone
//! rule of fixed renderings, output-flag exclusivity, the shared
//! replication bound, the "only applies to" combinations and the exit
//! status of a closed stdout; and for the row output of `--csv`/`--json`,
//! which must carry the library writers' bytes.

use std::process::{Command, Output};

use corridor_core::sink::{RowFormat, StringSink};
use corridor_sim::SweepEngine;
use corridor_sim::{DeploymentOptimizer, McEngine, ReplicationPlan, ScenarioGrid, SearchSpace};

/// Renders an in-memory report in `format` through its `stream_into`
/// (each report type has its own).
macro_rules! render {
    ($report:expr, $format:expr) => {
        StringSink::render(0, |s| $report.stream_into($format, s))
    };
}

const BINARIES: [&str; 6] = ["sweep", "mc", "optimize", "network", "simulate", "serve"];

fn exe(name: &str) -> &'static str {
    match name {
        "sweep" => env!("CARGO_BIN_EXE_sweep"),
        "mc" => env!("CARGO_BIN_EXE_mc"),
        "optimize" => env!("CARGO_BIN_EXE_optimize"),
        "network" => env!("CARGO_BIN_EXE_network"),
        "simulate" => env!("CARGO_BIN_EXE_simulate"),
        "serve" => env!("CARGO_BIN_EXE_serve"),
        other => panic!("no binary {other}"),
    }
}

fn run(name: &str, args: &[&str]) -> Output {
    Command::new(exe(name))
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {name}: {e}"))
}

/// The stdout of `name args`, which must succeed, and its stderr.
fn ran(name: &str, args: &[&str]) -> (String, String) {
    let output = run(name, args);
    let stderr = String::from_utf8(output.stderr).expect("utf-8 stderr");
    assert!(output.status.success(), "{name} {args:?}: {stderr}");
    (
        String::from_utf8(output.stdout).expect("utf-8 stdout"),
        stderr,
    )
}

/// Asserts that `name args` is a usage error: exit 1, `<name>: …` and
/// the usage on stderr, nothing on stdout, no panic. Returns the
/// message line.
fn rejected(name: &str, args: &[&str]) -> String {
    let output = run(name, args);
    let stderr = String::from_utf8(output.stderr).expect("utf-8 stderr");
    assert_eq!(
        output.status.code(),
        Some(1),
        "{name} {args:?} must be rejected: {stderr}"
    );
    assert!(output.stdout.is_empty(), "{name} {args:?} printed a result");
    assert!(!stderr.contains("panicked"), "{name} {args:?}: {stderr}");
    let (message, usage) = stderr.split_once('\n').expect("message and usage");
    assert!(
        message.starts_with(&format!("{name}: ")),
        "{name} {args:?}: {stderr}"
    );
    assert!(
        usage.starts_with(&format!("usage: {name}")),
        "{name} {args:?}: {stderr}"
    );
    message.to_owned()
}

#[test]
fn help_prints_the_usage_and_exits_zero() {
    for name in BINARIES {
        for flag in ["--help", "-h"] {
            let output = run(name, &[flag]);
            assert!(output.status.success(), "{name} {flag}");
            let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
            assert!(stdout.starts_with(&format!("usage: {name}")), "{stdout}");
        }
    }
}

#[test]
fn unknown_options_and_missing_values_are_usage_errors() {
    for name in BINARIES {
        rejected(name, &["--no-such-option"]);
        rejected(name, &["stray"]);
    }
    for (name, option) in [
        ("sweep", "--workers"),
        ("mc", "--reps"),
        ("optimize", "--threshold"),
        ("network", "--topology"),
        ("simulate", "--days"),
    ] {
        let message = rejected(name, &[option]);
        assert!(message.ends_with("needs a value"), "{message}");
    }
}

#[test]
fn non_finite_floats_are_rejected() {
    for value in ["NaN", "inf", "-inf"] {
        rejected("optimize", &["--threshold", value]);
        rejected("optimize", &["--sample-step", value]);
        rejected("network", &["--sample-step", value]);
        rejected("network", &["--capacity", value]);
        rejected("network", &["--margin-floor", value]);
    }
}

#[test]
fn fixed_renderings_stand_alone() {
    rejected("mc", &["--smoke", "--reps", "3"]);
    rejected("optimize", &["--smoke", "--csv"]);
    rejected("network", &["--topology", "wye3", "--smoke"]);
    // --stats used to print its golden and ignore the seed
    rejected("simulate", &["--stats", "--seed", "7"]);
    assert!(run("simulate", &["--stats"]).status.success());
}

#[test]
fn csv_and_json_are_exclusive() {
    rejected("optimize", &["--csv", "--json"]);
    rejected("network", &["--csv", "--json"]);
}

#[test]
fn replication_and_day_counts_share_the_serve_bound() {
    // used to panic on `Vec::with_capacity` (capacity overflow)
    rejected("simulate", &["--days", "18446744073709551615"]);
    rejected("simulate", &["--days", "10001"]);
    rejected("mc", &["--grid", "paper", "--reps", "10001"]);
    rejected("network", &["--simulate", "--reps", "10001"]);
    rejected("mc", &["--reps", "0"]);
}

#[test]
fn options_outside_their_mode_are_rejected() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-only-applies");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = |file: &str| dir.join(file).to_str().expect("utf-8 path").to_owned();
    let (stream, report) = (path("stream.csv"), path("report"));
    let demo = ["--demo", "--no-pv"];
    // sweep has no --stream or --format: its rows stream to stdout
    // under --csv/--json, so both are unknown options
    for extra in [
        vec!["--format", "json"],
        vec!["--stream", &stream],
        vec!["--stream", &stream, "--csv", &report],
        vec!["--stream", &stream, "--json", &report],
    ] {
        rejected("sweep", &[&demo[..], &extra[..]].concat());
    }
    // the summary writes no rows, so a cache has nothing to serve
    let message = rejected("sweep", &[&demo[..], &["--cache", &report]].concat());
    assert_eq!(message, "sweep: --cache only applies to --csv/--json");
    rejected("network", &["--simulate", "--capacity", "20"]);
    rejected("network", &["--simulate", "--margin-floor", "-3"]);
    rejected("network", &["--seed", "7"]);
}

#[test]
fn a_closed_stdout_is_exit_status_2_not_a_panic() {
    for (name, args) in [
        ("sweep", &["--demo", "--no-pv"][..]),
        ("sweep", &["--demo", "--no-pv", "--csv"]),
        ("mc", &["--grid", "smoke-3", "--reps", "3"]),
        ("mc", &["--grid", "smoke-3", "--reps", "3", "--csv"]),
        ("optimize", &["--grid", "smoke-3", "--csv"]),
        ("network", &["--csv"]),
        ("simulate", &[]),
    ] {
        // the read end is gone before the binary starts, so its first
        // write to stdout fails, as under `| head -c 0`
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let output = Command::new(exe(name))
            .args(args)
            .stdout(writer)
            .output()
            .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
        let stderr = String::from_utf8(output.stderr).expect("utf-8 stderr");
        assert_eq!(output.status.code(), Some(2), "{name} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name} {args:?}: {stderr}");
        assert!(
            stderr
                .lines()
                .any(|line| line.starts_with(&format!("{name}: stdout: "))),
            "{name} {args:?}: {stderr}"
        );
    }
}

#[test]
fn row_output_is_the_library_writers_bytes() {
    // `sweep --demo` is the mixed-8 grid at the default 10 nodes; mc and
    // optimize run at their defaults (seed 42, Poisson; the paper ISD
    // table, the instant wake policy, no PV sizing)
    let demo = ScenarioGrid::by_name("mixed-8")
        .and_then(|grid| grid.repeater_nodes(10).ok())
        .expect("the demo grid");
    let sweep = SweepEngine::new()
        .pv_sizing(false)
        .run(&demo)
        .expect("sweep");
    let smoke = ScenarioGrid::by_name("smoke-3").expect("smoke-3");
    let mc = McEngine::new()
        .run(&smoke, &ReplicationPlan::new(3))
        .expect("mc");
    let optimize = DeploymentOptimizer::new()
        .run(&smoke, &SearchSpace::new())
        .expect("optimize");
    for (name, args, expected) in [
        (
            "sweep",
            &["--demo", "--no-pv", "--csv"][..],
            render!(sweep, RowFormat::Csv),
        ),
        (
            "sweep",
            &["--demo", "--no-pv", "--json"],
            render!(sweep, RowFormat::Json),
        ),
        (
            "mc",
            &["--grid", "smoke-3", "--reps", "3", "--csv"],
            mc.to_csv(),
        ),
        (
            "optimize",
            &["--grid", "smoke-3", "--csv"],
            optimize.to_csv(),
        ),
        (
            "optimize",
            &["--grid", "smoke-3", "--json"],
            render!(optimize, RowFormat::Json),
        ),
    ] {
        let (stdout, stderr) = ran(name, args);
        assert!(stdout == expected, "{name} {args:?}: rows differ");
        assert!(stderr.starts_with("streamed "), "{name} {args:?}: {stderr}");
    }
}

#[test]
fn a_warm_sweep_cache_serves_every_row_with_the_same_bytes() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-sweep-cache");
    // a cache left by an earlier run would make the cold run warm
    let _ = std::fs::remove_dir_all(&dir);
    let dir = dir.to_str().expect("utf-8 path");
    let args = ["--demo", "--no-pv", "--csv", "--cache", dir];
    let (cold, cold_stderr) = ran("sweep", &args);
    let (warm, warm_stderr) = ran("sweep", &args);
    assert!(cold.starts_with("cell,"), "{cold}");
    assert!(cold == warm, "the warm run changed the rows");
    assert!(
        cold_stderr.contains("cache: 0 hits, 8 misses (0 % warm)"),
        "{cold_stderr}"
    );
    assert!(
        warm_stderr.contains("cache: 8 hits, 0 misses (100 % warm)"),
        "{warm_stderr}"
    );
}
