//! `corridor_lint` — workspace-invariant static analysis for the
//! railway-corridor reproduction.
//!
//! The reproduction's value rests on invariants no compiler checks:
//! byte-deterministic reports across worker counts, NaN-safe float
//! ordering and typed errors instead of panics in library crates. This
//! crate is a dependency-free, offline pass that walks every workspace
//! `src/` file and example, masks comments and string literals with a lossless
//! tokenizer ([`sanitize`]) and runs a rule set ([`rules::Rule`])
//! encoding those invariants. It ships three ways so it cannot rot:
//!
//! * the `lint` binary (human and JSON output) — `make lint`;
//! * the `self_check` workspace test, which runs the pass over the live
//!   tree so `cargo test` fails on a new violation;
//! * fixture tests pinning every rule's trigger/waive/clean behavior.
//!
//! Safe sites are waived inline with a reasoned directive (see
//! [`waiver`]); a waiver without a reason is itself a violation, so the
//! tree can never accumulate undocumented exceptions. The rule
//! catalogue and the waiver syntax are documented in `docs/lints.md`.

#![forbid(unsafe_code)]

pub mod rules;
pub mod sanitize;
pub mod waiver;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use rules::{Counts, Scope};

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Workspace-relative file path (`/`-separated).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule id (`no-panic`, `float-ord`, … or one of the waiver
    /// hygiene ids `unknown-rule`, `missing-reason`, `bad-waiver`).
    pub rule_id: &'static str,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule_id, self.snippet
        )
    }
}

/// One waiver directive found in the tree, with its resolution.
#[derive(Debug, Clone)]
pub struct WaiverRecord {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the directive.
    pub line: usize,
    /// The rule id as written.
    pub rule_id: String,
    /// The documented reason (present on every healthy waiver).
    pub reason: Option<String>,
    /// Whether the waiver suppressed at least one rule hit.
    pub used: bool,
}

/// The findings of one scanned source text, or of a set of them.
#[derive(Debug, Clone, Default)]
pub struct FileFindings {
    /// Violations, in line order.
    pub diagnostics: Vec<Diagnostic>,
    /// Every waiver directive in the text.
    pub waivers: Vec<WaiverRecord>,
}

/// The whole-workspace report.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// The workspace root that was scanned.
    pub root: PathBuf,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Every violation, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Every waiver directive, sorted by (file, line).
    pub waivers: Vec<WaiverRecord>,
}

impl LintReport {
    /// True when the tree carries no violations.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Waivers that suppressed nothing (stale candidates).
    pub fn unused_waivers(&self) -> impl Iterator<Item = &WaiverRecord> {
        self.waivers.iter().filter(|w| !w.used)
    }
}

/// A failure of the pass itself (not a lint violation).
#[derive(Debug)]
pub enum LintError {
    /// A file or directory could not be read.
    Io {
        /// The path that failed.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// The given root does not look like the workspace (no `Cargo.toml`
    /// with a `[workspace]` table).
    NotAWorkspace(PathBuf),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Io { path, source } => {
                write!(f, "cannot read {}: {}", path.display(), source)
            }
            LintError::NotAWorkspace(path) => write!(
                f,
                "{} is not a cargo workspace root (no [workspace] in Cargo.toml)",
                path.display()
            ),
        }
    }
}

impl std::error::Error for LintError {}

/// Scans one source text under `file` (a workspace-relative label) with
/// the rules of `scope`, all but the workspace-level `unused-pub` (see
/// [`check_tree`]).
// corridor-lint: allow(unused-pub, reason = "tests/fixtures.rs (every CASES row) and tests/self_check.rs::injected_violation_in_a_live_file_is_detected scan one text at a time through the engine check_tree runs")
pub fn check_source(file: &str, source: &str, scope: Scope) -> FileFindings {
    check_sanitized(file, source, &sanitize::sanitize(source), scope, None)
}

/// The engine [`check_source`] and [`check_tree`] share: the hits of
/// [`rules::scan`] resolved against the file's waivers, plus waiver
/// hygiene. `index` holds the workspace name and call-site indexes
/// `unused-pub` needs.
fn check_sanitized(
    file: &str,
    source: &str,
    sanitized: &sanitize::Sanitized,
    scope: Scope,
    index: Option<(&Counts, &Counts)>,
) -> FileFindings {
    let mut waivers = waiver::parse_waivers(&sanitized.comments);
    let hits = rules::scan(sanitized, scope, index);

    let mut used = vec![false; waivers.len()];
    let mut diagnostics = Vec::new();
    for hit in hits {
        let covered = waivers.iter().position(|w| w.covers(hit.rule, hit.line));
        match covered {
            Some(idx) => used[idx] = true,
            None => diagnostics.push(Diagnostic {
                file: file.to_string(),
                line: hit.line,
                rule_id: hit.rule.id(),
                snippet: snippet(source, hit.line),
            }),
        }
    }

    // Waiver hygiene: malformed directives, unknown rule ids and
    // missing reasons are violations in their own right — "zero
    // undocumented waivers" is enforced here.
    for w in &waivers {
        let rule_id = if !w.well_formed {
            Some("bad-waiver")
        } else if w.rule.is_none() {
            Some("unknown-rule")
        } else if w.reason.is_none() {
            Some("missing-reason")
        } else {
            None
        };
        if let Some(rule_id) = rule_id {
            diagnostics.push(Diagnostic {
                file: file.to_string(),
                line: w.line,
                rule_id,
                snippet: snippet(source, w.line),
            });
        }
    }
    diagnostics.sort_by(|a, b| (a.line, a.rule_id).cmp(&(b.line, b.rule_id)));

    let records = waivers
        .drain(..)
        .zip(used)
        .map(|(w, used)| WaiverRecord {
            file: file.to_string(),
            line: w.line,
            rule_id: w.rule_id,
            reason: w.reason,
            used,
        })
        .collect();
    FileFindings {
        diagnostics,
        waivers: records,
    }
}

/// The trimmed source line `line` (1-based), cut to 120 bytes on a char
/// boundary.
fn snippet(source: &str, line: usize) -> String {
    let text = source.lines().nth(line.saturating_sub(1)).unwrap_or("");
    let trimmed = text.trim();
    if trimmed.len() > 120 {
        let mut end = 117;
        while end > 0 && !trimmed.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}...", &trimmed[..end])
    } else {
        trimmed.to_string()
    }
}

/// Scans a set of workspace files, each given as its workspace-relative
/// path and its text: every file in scope (see [`scope_for`]) with
/// [`check_source`]'s rules plus the workspace-level `unused-pub`. That
/// rule indexes the names of every scanned file and of the benchmark
/// helper's sources (`perfbench/src/`, which links the library crates),
/// and reports each `pub` item of a library file that no other site
/// names. Files outside both sets are ignored.
pub fn check_tree(files: &[(&str, &str)]) -> FileFindings {
    let indexed: Vec<_> = files
        .iter()
        .filter(|(rel, _)| scope_for(rel).is_some() || rel.starts_with("perfbench/src/"))
        .map(|&(rel, source)| (rel, source, sanitize::sanitize(source)))
        .collect();
    let (mut names, mut calls) = (Counts::new(), Counts::new());
    for (_, _, sanitized) in &indexed {
        rules::index_names(&sanitized.masked, &mut names, &mut calls);
    }

    let mut out = FileFindings::default();
    for (rel, source, sanitized) in &indexed {
        let Some(scope) = scope_for(rel) else {
            continue;
        };
        let findings = check_sanitized(rel, source, sanitized, scope, Some((&names, &calls)));
        out.diagnostics.extend(findings.diagnostics);
        out.waivers.extend(findings.waivers);
    }
    out.diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.rule_id).cmp(&(&b.file, b.line, b.rule_id)));
    out.waivers
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

/// The scope a workspace-relative path is scanned under, or `None` for
/// paths the pass does not cover (tests, benches, fixtures, goldens).
pub fn scope_for(rel_path: &str) -> Option<Scope> {
    let p = rel_path.replace('\\', "/");
    if p.starts_with("shims/") && p.contains("/src/") {
        return Some(Scope::Harness);
    }
    if p.starts_with("crates/bench/src/") || p.starts_with("examples/") {
        return Some(Scope::Harness);
    }
    if p.starts_with("crates/") && p.contains("/src/") {
        return Some(Scope::Library);
    }
    if p.starts_with("src/") {
        return Some(Scope::Library);
    }
    None
}

/// Runs the pass over every workspace `src/` file and every example
/// under `root`, with the benchmark helper's sources in the
/// `unused-pub` index (see [`check_tree`]).
///
/// # Errors
///
/// Returns [`LintError`] when `root` is not the workspace or a source
/// file cannot be read; lint *violations* are not errors — they are the
/// report's [`LintReport::diagnostics`].
pub fn run_workspace(root: &Path) -> Result<LintReport, LintError> {
    let manifest = root.join("Cargo.toml");
    let manifest_text = fs::read_to_string(&manifest).map_err(|source| LintError::Io {
        path: manifest.clone(),
        source,
    })?;
    if !manifest_text.contains("[workspace]") {
        return Err(LintError::NotAWorkspace(root.to_path_buf()));
    }

    let mut files = Vec::new();
    collect_rs(&root.join("src"), &mut files)?;
    collect_rs(&root.join("examples"), &mut files)?;
    collect_rs(&root.join("perfbench").join("src"), &mut files)?;
    for family in ["crates", "shims"] {
        let family_dir = root.join(family);
        for member in sorted_dirs(&family_dir)? {
            collect_rs(&member.join("src"), &mut files)?;
        }
    }
    files.sort();

    let mut sources = Vec::with_capacity(files.len());
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let source = fs::read_to_string(file).map_err(|source| LintError::Io {
            path: file.clone(),
            source,
        })?;
        sources.push((rel, source));
    }
    let texts: Vec<(&str, &str)> = sources
        .iter()
        .map(|(rel, source)| (rel.as_str(), source.as_str()))
        .collect();
    let findings = check_tree(&texts);
    Ok(LintReport {
        root: root.to_path_buf(),
        files_scanned: texts
            .iter()
            .filter(|(rel, _)| scope_for(rel).is_some())
            .count(),
        diagnostics: findings.diagnostics,
        waivers: findings.waivers,
    })
}

/// The immediate subdirectories of `dir`, sorted by name; empty when
/// `dir` does not exist.
fn sorted_dirs(dir: &Path) -> Result<Vec<PathBuf>, LintError> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(_) => return Ok(out),
    };
    for entry in entries {
        let entry = entry.map_err(|source| LintError::Io {
            path: dir.to_path_buf(),
            source,
        })?;
        let path = entry.path();
        if path.is_dir() {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

/// Recursively collects `.rs` files under `dir` (no-op when absent).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(_) => return Ok(()),
    };
    let mut batch = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|source| LintError::Io {
            path: dir.to_path_buf(),
            source,
        })?;
        batch.push(entry.path());
    }
    batch.sort();
    for path in batch {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waived_hit_produces_no_diagnostic_and_marks_the_waiver_used() {
        let src = "\
// corridor-lint: allow(no-panic, reason = \"documented invariant\")
let x = y.unwrap();
";
        let findings = check_source("lib.rs", src, Scope::Library);
        assert!(
            findings.diagnostics.is_empty(),
            "{:?}",
            findings.diagnostics
        );
        assert_eq!(findings.waivers.len(), 1);
        assert!(findings.waivers[0].used);
    }

    #[test]
    fn waiver_without_reason_is_a_violation_and_suppresses_nothing() {
        let src = "\
// corridor-lint: allow(no-panic)
let x = y.unwrap();
";
        let findings = check_source("lib.rs", src, Scope::Library);
        let ids: Vec<&str> = findings.diagnostics.iter().map(|d| d.rule_id).collect();
        assert!(ids.contains(&"no-panic"), "{ids:?}");
        assert!(ids.contains(&"missing-reason"), "{ids:?}");
    }

    #[test]
    fn scope_mapping_covers_the_workspace_shape() {
        assert_eq!(scope_for("crates/core/src/lib.rs"), Some(Scope::Library));
        assert_eq!(
            scope_for("crates/sim/src/network/day.rs"),
            Some(Scope::Library)
        );
        assert_eq!(
            scope_for("crates/bench/src/bin/mc.rs"),
            Some(Scope::Harness)
        );
        assert_eq!(scope_for("shims/rayon/src/lib.rs"), Some(Scope::Harness));
        assert_eq!(scope_for("examples/quickstart.rs"), Some(Scope::Harness));
        assert_eq!(scope_for("src/lib.rs"), Some(Scope::Library));
        assert_eq!(scope_for("crates/sim/tests/mc.rs"), None);
        assert_eq!(scope_for("tests/golden_outputs.rs"), None);
    }

    #[test]
    fn long_snippets_are_truncated_on_a_char_boundary() {
        let long = format!("let x = y.unwrap(); // {}", "é".repeat(80));
        let findings = check_source("lib.rs", &long, Scope::Library);
        assert_eq!(findings.diagnostics.len(), 1);
        assert!(findings.diagnostics[0].snippet.ends_with("..."));
        assert!(findings.diagnostics[0].snippet.len() <= 120);
    }
}
