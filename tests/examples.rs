//! The examples write their stdout through `corridor_bench::args`, so a
//! reader that goes away ends them with exit status 2 and a
//! `<name>: stdout: <error>` line, never a panic.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// An example binary of this build: cargo puts it in the profile's
/// `examples/` directory, next to the `deps/` directory holding this
/// test binary. A plain `cargo test` builds it; `cargo test --test
/// examples` alone does not, so a binary that is missing, or older than
/// its `examples/<name>.rs`, fails here instead of being run.
fn example(name: &str) -> PathBuf {
    let exe = std::env::current_exe().expect("test binary path");
    let profile = exe
        .parent()
        .and_then(|deps| deps.parent())
        .expect("test binary in <profile>/deps");
    let path = profile.join("examples").join(name);
    let modified = |path: &Path| fs::metadata(path).and_then(|meta| meta.modified());
    let Ok(built) = modified(&path) else {
        panic!(
            "{} is missing: run `cargo build --examples`",
            path.display()
        );
    };
    let source = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples")
        .join(format!("{name}.rs"));
    let edited = modified(&source).expect("example source");
    assert!(
        built >= edited,
        "{} is stale: run `cargo build --examples`",
        path.display()
    );
    path
}

#[test]
fn quickstart_exits_2_on_a_closed_stdout() {
    // the read end is gone before the example starts, so its first
    // write to stdout fails, as under `| head -c 0`
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let output = Command::new(example("quickstart"))
        .stdout(writer)
        .output()
        .expect("spawn quickstart");
    let stderr = String::from_utf8(output.stderr).expect("utf-8 stderr");
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        stderr
            .lines()
            .any(|line| line.starts_with("quickstart: stdout: ")),
        "{stderr}"
    );
}
