//! End-to-end tests for the argument grammar of the engine CLIs and
//! `serve`: `--help`, usage errors, non-finite floats, the stand-alone
//! rule of fixed renderings, output-flag exclusivity, the shared
//! replication bound, the "only applies to" combinations and the exit
//! status of a closed stdout.

use std::process::{Command, Output};

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
    for extra in [
        vec!["--format", "json"],
        vec!["--cache", &report],
        vec!["--stream", &stream, "--csv", &report],
        vec!["--stream", &stream, "--json", &report],
    ] {
        rejected("sweep", &[&demo[..], &extra[..]].concat());
    }
    rejected("network", &["--simulate", "--capacity", "20"]);
    rejected("network", &["--simulate", "--margin-floor", "-3"]);
    rejected("network", &["--seed", "7"]);
}

#[test]
fn a_closed_stdout_is_exit_status_2_not_a_panic() {
    for (name, args) in [
        ("sweep", &["--demo", "--no-pv"][..]),
        ("mc", &["--grid", "smoke-3", "--reps", "3"]),
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
