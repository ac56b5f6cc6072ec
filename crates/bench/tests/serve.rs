//! End-to-end tests for the `serve` binary: protocol shape, byte
//! equivalence with the in-memory writers, retry-on-worker-death fault
//! injection, cache behaviour across requests, the worker's task-line
//! frames, and typed errors for hostile requests and task lines.

use std::io::Write;
use std::process::{Command, Stdio};

use corridor_core::hash::sha256_hex;
use corridor_core::sink::RowFormat;
use corridor_sim::{
    DeploymentOptimizer, McEngine, ReplicationPlan, ScenarioGrid, SearchSpace, SweepEngine,
};

/// Runs the serve coordinator with `requests` on stdin (plus any extra
/// environment), returning `(stdout, stderr)`.
fn serve(requests: &str, envs: &[(&str, &str)]) -> (String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .envs(envs.iter().copied())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(requests.as_bytes())
        .expect("write requests");
    let output = child.wait_with_output().expect("serve exits");
    assert!(
        output.status.success(),
        "serve failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    (
        String::from_utf8(output.stdout).expect("utf-8 stdout"),
        String::from_utf8(output.stderr).expect("utf-8 stderr"),
    )
}

/// Runs one `serve --worker` child with `tasks` on stdin, returning its
/// stdout after it exits cleanly.
fn worker(tasks: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .arg("--worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve --worker");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(tasks.as_bytes())
        .expect("write tasks");
    let output = child.wait_with_output().expect("worker exits");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "worker failed: {stderr}");
    assert!(!stderr.contains("panicked"), "worker panicked: {stderr}");
    String::from_utf8(output.stdout).expect("utf-8 stdout")
}

/// Splits one response into `(begin_line, payload, end_line)` and checks
/// the END trailer's sha256/row count against the payload bytes.
fn parse_response(stdout: &str) -> (String, String, String) {
    let begin_end = stdout.find('\n').expect("BEGIN line");
    let (begin, rest) = stdout.split_at(begin_end + 1);
    assert!(begin.starts_with("BEGIN "), "got {begin:?}");
    let end_start = rest.find("END ").expect("END line");
    let (payload, end) = rest.split_at(end_start);
    let sha = end
        .split_whitespace()
        .find_map(|w| w.strip_prefix("sha256="))
        .expect("sha256 field");
    assert_eq!(sha, sha256_hex(payload.as_bytes()), "trailer digest");
    (
        begin.trim_end().to_owned(),
        payload.to_owned(),
        end.trim_end().to_owned(),
    )
}

fn trailer_field(end: &str, name: &str) -> u64 {
    end.split_whitespace()
        .find_map(|w| w.strip_prefix(&format!("{name}=")))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {name} in {end:?}"))
}

#[test]
fn sweep_stream_matches_in_memory_writers() {
    let grid = ScenarioGrid::by_name("mixed-8").unwrap();
    let report = SweepEngine::new().workers(2).run(&grid).unwrap();
    for (format, expected) in [("csv", report.to_csv()), ("json", report.to_json())] {
        let (stdout, _) = serve(
            &format!("sweep grid=mixed-8 format={format} shards=2\n"),
            &[],
        );
        let (begin, payload, end) = parse_response(&stdout);
        assert_eq!(
            begin,
            format!("BEGIN sweep grid=mixed-8 format={format} cells=8 shards=2")
        );
        assert_eq!(payload, expected, "{format} payload");
        assert_eq!(trailer_field(&end, "rows"), 8);
    }
}

#[test]
fn mc_and_optimize_streams_match_in_memory_writers() {
    let grid = ScenarioGrid::by_name("smoke-3").unwrap();

    let plan = ReplicationPlan::new(3).master_seed(9);
    let mc = McEngine::new().workers(2).run(&grid, &plan).unwrap();
    let (stdout, _) = serve("mc grid=smoke-3 format=csv shards=2 reps=3 seed=9\n", &[]);
    let (_, payload, end) = parse_response(&stdout);
    assert_eq!(payload, mc.to_csv());
    assert_eq!(trailer_field(&end, "rows"), 3);

    let space = SearchSpace::new().node_counts((0..=6).collect());
    let optimize = DeploymentOptimizer::new()
        .workers(2)
        .run(&grid, &space)
        .unwrap();
    let (stdout, _) = serve("optimize grid=smoke-3 format=json shards=2\n", &[]);
    let (_, payload, end) = parse_response(&stdout);
    assert_eq!(payload, optimize.to_json());
    assert_eq!(trailer_field(&end, "rows"), 3);
}

#[test]
fn killed_worker_is_retried_and_the_stream_is_byte_identical() {
    let request = "sweep grid=mixed-8 format=json shards=2\n";
    let (clean, _) = serve(request, &[]);
    // cell 5 lands in the second shard (cells 4..8); its worker dies on
    // the first attempt, is respawned, and the retry must reproduce the
    // exact same frames
    let (faulted, stderr) = serve(request, &[("CORRIDOR_SERVE_CRASH_CELL", "5")]);
    assert_eq!(faulted, clean, "retried stream drifted");
    assert!(
        stderr.contains("respawning worker and retrying"),
        "no retry happened — the fault did not fire: {stderr}"
    );
}

#[test]
fn cache_warms_across_requests_and_heals_corruption() {
    let dir = std::env::temp_dir().join(format!("corridor-serve-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let request = format!(
        "sweep grid=mixed-8 format=csv shards=2 cache={}\n",
        dir.display()
    );

    let (cold, _) = serve(&request, &[]);
    let (_, cold_payload, cold_end) = parse_response(&cold);
    assert_eq!(trailer_field(&cold_end, "cache_misses"), 8);

    let (warm, _) = serve(&request, &[]);
    let (_, warm_payload, warm_end) = parse_response(&warm);
    assert_eq!(warm_payload, cold_payload);
    assert_eq!(trailer_field(&warm_end, "cache_hits"), 8);
    assert_eq!(trailer_field(&warm_end, "cache_misses"), 0);

    // truncate one stored entry: the checksum check must reject it and
    // recompute exactly that cell
    let entry = find_entry(&dir);
    let bytes = std::fs::read(&entry).unwrap();
    std::fs::write(&entry, &bytes[..bytes.len() / 2]).unwrap();
    let (healed, _) = serve(&request, &[]);
    let (_, healed_payload, healed_end) = parse_response(&healed);
    assert_eq!(healed_payload, cold_payload);
    assert_eq!(trailer_field(&healed_end, "cache_hits"), 7);
    assert_eq!(trailer_field(&healed_end, "cache_misses"), 1);

    let _ = std::fs::remove_dir_all(&dir);
}

fn find_entry(dir: &std::path::Path) -> std::path::PathBuf {
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "entry") {
                return path;
            }
        }
    }
    panic!("no cache entries under {}", dir.display());
}

#[test]
fn bad_requests_get_error_lines_not_crashes() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"sweep grid=no-such-grid format=csv\nfrobnicate the corridor\n")
        .unwrap();
    let output = child.wait_with_output().unwrap();
    assert!(!output.status.success(), "bad requests must fail the run");
    let stdout = String::from_utf8(output.stdout).unwrap();
    let errors: Vec<&str> = stdout.lines().filter(|l| l.starts_with("ERROR ")).collect();
    assert_eq!(errors.len(), 2, "one ERROR line per bad request: {stdout}");
}

#[test]
fn zero_replications_are_a_bad_request_not_a_worker_panic() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"mc grid=paper reps=0 shards=1\n")
        .unwrap();
    let output = child.wait_with_output().unwrap();
    assert!(!output.status.success(), "a bad request must fail the run");
    let stdout = String::from_utf8(output.stdout).unwrap();
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(
        !stdout.contains("BEGIN"),
        "rejected before any payload: {stdout}"
    );
    assert!(stdout.starts_with("ERROR bad request: "), "{stdout}");
    assert!(
        !stderr.contains("panicked"),
        "no worker may panic: {stderr}"
    );
}

#[test]
fn reps_above_the_cap_are_a_bad_request() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    child
        .stdin
        .take()
        .unwrap()
        // one past the cap on a one-cell grid: without the cap the request
        // is served (and the test fails) in seconds instead of running on
        .write_all(b"mc grid=paper reps=10001 shards=1\n")
        .unwrap();
    let output = child.wait_with_output().unwrap();
    assert!(!output.status.success(), "a bad request must fail the run");
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(
        !stdout.contains("BEGIN"),
        "rejected before any payload: {stdout}"
    );
    assert!(stdout.starts_with("ERROR bad request: "), "{stdout}");
}

#[test]
fn worker_answers_the_task_line_the_benchmark_sends() {
    let grid = ScenarioGrid::by_name("paper").unwrap();
    let mut rows = Vec::new();
    SweepEngine::new()
        .workers(1)
        .stream_rows(&grid, 0..1, RowFormat::Csv, None, |row| {
            rows.push(row.to_owned());
            Ok(())
        })
        .unwrap();
    let [row] = rows.as_slice() else {
        panic!("one row expected, got {rows:?}");
    };
    let stdout = worker("task sweep grid=paper format=csv range=0:1 reps=5 seed=7\n");
    assert_eq!(
        stdout,
        format!(
            "row {}\n{row}\ndone rows=1 cache_hits=0 cache_misses=0 sha256={}\n",
            row.len(),
            sha256_hex(row.as_bytes())
        )
    );
}

#[test]
fn hostile_task_ranges_get_error_lines_and_the_worker_keeps_serving() {
    let good = "task sweep grid=paper format=csv range=0:1 reps=5 seed=7\n";
    let stdout = worker(&format!(
        "task sweep grid=paper format=csv range=0:5 reps=5 seed=7\n\
         task sweep grid=paper format=csv range=3:1 reps=5 seed=7\n\
         {good}"
    ));
    let parts: Vec<&str> = stdout.splitn(3, '\n').collect();
    let [first, second, rest] = parts.as_slice() else {
        panic!("two error lines and an answer expected: {stdout}");
    };
    assert!(first.starts_with("error "), "{stdout}");
    assert!(second.starts_with("error "), "{stdout}");
    assert_eq!(*rest, worker(good), "the worker still answers a good task");
}
