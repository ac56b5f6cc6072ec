//! Every `cargo run` and `cargo bench` command that `README.md` and
//! `docs/*.md` show names a target that exists: a `--bin`, `--bench` or
//! `--example` of the package it selects with `-p` (the root package
//! without one). A target that is renamed or was never there fails here,
//! not in a reader's terminal.

use std::fs;
use std::path::{Path, PathBuf};

/// The repository root (the umbrella package's manifest directory).
fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The value of the first `name = "…"` line after `[section]` in a
/// manifest, for `[package]` and for each `[[bin]]`/`[[bench]]`/
/// `[[example]]` table.
fn table_names(manifest: &str, section: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut inside = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            inside = line == section;
        } else if inside {
            if let Some(value) = line.strip_prefix("name") {
                let value = value.trim_start().trim_start_matches('=').trim();
                names.push(value.trim_matches('"').to_string());
                inside = false;
            }
        }
    }
    names
}

/// The `.rs` file stems directly inside `dir`, plus its subdirectories
/// holding a `main.rs` (cargo's auto-discovered targets).
fn discovered(dir: &Path) -> Vec<String> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    entries
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            if path.is_dir() {
                path.join("main.rs")
                    .is_file()
                    .then(|| path.file_name()?.to_str().map(String::from))?
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                path.file_stem()?.to_str().map(String::from)
            } else {
                None
            }
        })
        .collect()
}

/// One workspace package: its name and directory.
struct Package {
    name: String,
    dir: PathBuf,
}

impl Package {
    /// The package's targets of one kind: `bin`, `bench` or `example`.
    fn targets(&self, kind: &str) -> Vec<String> {
        let manifest = fs::read_to_string(self.dir.join("Cargo.toml")).expect("package manifest");
        let mut names = table_names(&manifest, &format!("[[{kind}]]"));
        match kind {
            "bin" => {
                names.extend(discovered(&self.dir.join("src/bin")));
                if self.dir.join("src/main.rs").is_file() {
                    names.push(self.name.clone());
                }
            }
            "bench" => names.extend(discovered(&self.dir.join("benches"))),
            _ => names.extend(discovered(&self.dir.join("examples"))),
        }
        names
    }
}

/// The root package and every package under `crates/`.
fn packages() -> Vec<Package> {
    let crates = fs::read_dir(root().join("crates")).expect("crates/");
    std::iter::once(root().to_path_buf())
        .chain(crates.filter_map(|entry| Some(entry.ok()?.path())))
        .filter_map(|dir| {
            let manifest = fs::read_to_string(dir.join("Cargo.toml")).ok()?;
            let name = table_names(&manifest, "[package]").into_iter().next()?;
            Some(Package { name, dir })
        })
        .collect()
}

/// A `cargo run`/`cargo bench` command as a document shows it.
struct Command {
    at: String,
    package: Option<String>,
    kind: &'static str,
    target: String,
}

/// The commands in `text` that name a target. A command's cargo
/// arguments run from `cargo run|bench` up to `--` (the program's own
/// arguments), a comment, a shell operator, the next prompt or command,
/// or the end of an inline code span; line continuations (`\` at the
/// end of a line) and prose wrapped inside a code span are followed.
fn commands(file: &str, text: &str) -> Vec<Command> {
    let mut found = Vec::new();
    for (line_no, line) in text.lines().enumerate() {
        let mut rest = line;
        while let Some(at) = rest.find("cargo ") {
            let after = &rest[at + "cargo ".len()..];
            rest = after;
            if !(after.starts_with("run ") || after.starts_with("bench ")) {
                continue;
            }
            // the tokens may go on past the line: after a `\`, or in
            // a code span wrapped with the prose
            let offset = text
                .lines()
                .take(line_no)
                .map(|l| l.len() + 1)
                .sum::<usize>()
                + (line.len() - after.len());
            let mut span_ends = false;
            let mut tokens = text[offset..]
                .split_whitespace()
                .skip(1)
                .filter(|&token| token != "\\")
                .map_while(|token| {
                    if span_ends {
                        return None;
                    }
                    let (token, end) = token
                        .split_once('`')
                        .map_or((token, false), |(t, _)| (t, true));
                    span_ends = end;
                    let stop = ["--", "#", "|", ">", ";", "&&", "$", "cargo"].contains(&token);
                    (!stop).then_some(token)
                });
            let (mut package, mut target) = (None, None);
            while let Some(token) = tokens.next() {
                match token {
                    "-p" | "--package" => package = tokens.next().map(String::from),
                    "--bin" | "--bench" | "--example" => {
                        let kind = &token[2..];
                        let kind = ["bin", "bench", "example"]
                            .into_iter()
                            .find(|k| *k == kind)
                            .expect("target kind");
                        target = tokens.next().map(|name| (kind, name.to_string()));
                    }
                    _ => {}
                }
            }
            if let Some((kind, target)) = target {
                found.push(Command {
                    at: format!("{file}:{}", line_no + 1),
                    package,
                    kind,
                    target,
                });
            }
        }
    }
    found
}

/// `README.md` and every `docs/*.md`, as (name, text).
fn documents() -> Vec<(String, String)> {
    let docs = fs::read_dir(root().join("docs")).expect("docs/");
    let mut paths: Vec<PathBuf> = docs
        .filter_map(|entry| Some(entry.ok()?.path()))
        .filter(|path| path.extension().is_some_and(|ext| ext == "md"))
        .collect();
    paths.sort();
    std::iter::once(root().join("README.md"))
        .chain(paths)
        .map(|path| {
            let name = path
                .strip_prefix(root())
                .unwrap_or(&path)
                .display()
                .to_string();
            let text = fs::read_to_string(&path).expect("readable document");
            (name, text)
        })
        .collect()
}

#[test]
fn documented_cargo_targets_exist() {
    let packages = packages();
    let root_name = table_names(
        &fs::read_to_string(root().join("Cargo.toml")).expect("root manifest"),
        "[package]",
    )
    .remove(0);
    let mut checked = 0;
    let mut missing = Vec::new();
    for (file, text) in documents() {
        for command in commands(&file, &text) {
            let package = command.package.as_deref().unwrap_or(&root_name);
            let exists = packages
                .iter()
                .find(|p| p.name == package)
                .is_some_and(|p| p.targets(command.kind).contains(&command.target));
            if !exists {
                missing.push(format!(
                    "{}: {} `{}` of {package}",
                    command.at, command.kind, command.target
                ));
            }
            checked += 1;
        }
    }
    assert!(
        missing.is_empty(),
        "no such target:\n{}",
        missing.join("\n")
    );
    // the scan must keep seeing the documented commands
    assert!(checked >= 50, "only {checked} documented commands found");
}

#[test]
fn the_scan_reads_commands_as_cargo_would() {
    let text = "\
$ cargo run --release -p corridor_bench --bin mc -- --bin sweep   # not the target
$ cargo bench -p corridor_bench --bench optimize
Run `cargo run --release
--example quickstart` to start, then `cargo test --bin nothing`.
$ cargo run --release \\
    -p corridor_bench --bin serve < requests.txt
";
    let commands = commands("doc.md", text);
    let found: Vec<(Option<&str>, &str, &str)> = commands
        .iter()
        .map(|c| (c.package.as_deref(), c.kind, c.target.as_str()))
        .collect();
    assert_eq!(
        found,
        [
            (Some("corridor_bench"), "bin", "mc"),
            (Some("corridor_bench"), "bench", "optimize"),
            (None, "example", "quickstart"),
            (Some("corridor_bench"), "bin", "serve"),
        ]
    );
    // `optimize` is a binary of corridor_bench, not a bench target
    let bench = packages()
        .into_iter()
        .find(|p| p.name == "corridor_bench")
        .expect("corridor_bench");
    assert!(bench.targets("bin").contains(&"optimize".to_string()));
    assert!(!bench.targets("bench").contains(&"optimize".to_string()));
}
