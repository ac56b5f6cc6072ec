//! The `lint` binary: runs the workspace-invariant pass and reports.
//!
//! ```text
//! lint [--root <dir>] [--json <path>] [--list-rules]
//! ```
//!
//! Human-readable diagnostics go to stdout; `--json` additionally
//! writes the machine-readable report (CI uploads it as a build
//! artifact). Exit status: `0` clean, `1` violations found, `2` the
//! pass itself failed (bad root, unreadable file, a failed write to
//! stdout).

use std::env;
use std::fmt::Write as _;
use std::fs;
use std::io::{self, Write as _};
use std::path::PathBuf;
use std::process::ExitCode;

use corridor_lint::rules::Rule;
use corridor_lint::{run_workspace, LintReport};

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json: Option<PathBuf> = None;
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage("--root needs a path"),
            },
            "--json" => match args.next() {
                Some(v) => json = Some(PathBuf::from(v)),
                None => return usage("--json needs a path"),
            },
            "--list-rules" => {
                let mut rules = String::new();
                for rule in Rule::ALL {
                    let _ = writeln!(rules, "{:<16} {}", rule.id(), rule.summary());
                }
                return stdout(&rules, ExitCode::SUCCESS);
            }
            "--help" | "-h" => return stdout(USAGE, ExitCode::SUCCESS),
            other => return usage(&format!("unknown argument: {other}")),
        }
    }

    let root = match root.or_else(find_workspace_root) {
        Some(root) => root,
        None => {
            eprintln!("lint: no workspace root found (run inside the repo or pass --root)");
            return ExitCode::from(2);
        }
    };

    let report = match run_workspace(&root) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("lint: {err}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = json {
        if let Err(err) = fs::write(&path, render_json(&report)) {
            eprintln!("lint: cannot write JSON report {}: {err}", path.display());
            return ExitCode::from(2);
        }
    }
    let code = if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    };
    stdout(&render_human(&report), code)
}

const USAGE: &str = "usage: lint [--root <dir>] [--json <path>] [--list-rules]\n";

fn usage(message: &str) -> ExitCode {
    eprintln!("lint: {message}");
    eprint!("{USAGE}");
    ExitCode::from(2)
}

/// Writes `text` to stdout and exits with `code`, or with `2` when the
/// write fails (a reader that went away), instead of panicking.
fn stdout(text: &str, code: ExitCode) -> ExitCode {
    let mut out = io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Ok(()) => code,
        Err(err) => {
            eprintln!("lint: stdout: {err}");
            ExitCode::from(2)
        }
    }
}

/// Walks upward from the current directory to the first `Cargo.toml`
/// holding a `[workspace]` table.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Renders the human-readable report.
fn render_human(report: &LintReport) -> String {
    let mut out = String::with_capacity(1024);
    let _ = writeln!(
        out,
        "corridor_lint: scanned {} files under {}",
        report.files_scanned,
        report.root.display()
    );
    for diagnostic in &report.diagnostics {
        let _ = writeln!(out, "{diagnostic}");
    }
    let declared = report.waivers.len();
    let used = report.waivers.iter().filter(|w| w.used).count();
    let _ = writeln!(out, "waivers: {declared} declared, {used} used");
    for stale in report.unused_waivers() {
        let _ = writeln!(
            out,
            "note: unused waiver at {}:{} ({})",
            stale.file, stale.line, stale.rule_id
        );
    }
    if report.is_clean() {
        out.push_str("LINT OK\n");
    } else {
        let _ = writeln!(out, "LINT FAIL: {} violation(s)", report.diagnostics.len());
    }
    out
}

/// Renders the machine-readable report (stable field order, sorted
/// entries — the artifact is diffable between CI runs).
fn render_json(report: &LintReport) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\n");
    let _ = writeln!(
        out,
        "  \"files_scanned\": {},\n  \"violation_count\": {},\n  \"waiver_count\": {},",
        report.files_scanned,
        report.diagnostics.len(),
        report.waivers.len()
    );
    out.push_str("  \"violations\": [\n");
    for (i, d) in report.diagnostics.iter().enumerate() {
        let comma = if i + 1 < report.diagnostics.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"snippet\": {}}}{comma}",
            json_string(&d.file),
            d.line,
            json_string(d.rule_id),
            json_string(&d.snippet)
        );
    }
    out.push_str("  ],\n  \"waivers\": [\n");
    for (i, w) in report.waivers.iter().enumerate() {
        let comma = if i + 1 < report.waivers.len() {
            ","
        } else {
            ""
        };
        let reason = match &w.reason {
            Some(reason) => json_string(reason),
            None => "null".to_string(),
        };
        let _ = writeln!(
            out,
            "    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"reason\": {}, \"used\": {}}}{comma}",
            json_string(&w.file),
            w.line,
            json_string(&w.rule_id),
            reason,
            w.used
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
