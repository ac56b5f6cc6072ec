//! End-to-end tests for the `serve` binary: protocol shape, byte
//! equivalence with the in-memory writers, retry-on-worker-death fault
//! injection (a crash and a flipped frame byte), cache behaviour across
//! requests, the worker's task-line frames, typed errors for hostile
//! requests, request lines and task lines, a client that closes stdout,
//! and the session-wide worker pool (reuse, respawn, trimming, flat
//! memory).

use std::io::{Read, Write};
use std::process::{Command, Stdio};

use corridor_bench::ChunkSum;
use corridor_core::hash::sha256_hex;
use corridor_core::sink::{RowFormat, StringSink};
use corridor_sim::{
    DeploymentOptimizer, McEngine, ReplicationPlan, ScenarioGrid, SearchSpace, SweepEngine,
};

/// Renders an in-memory optimizer report in `format` through its
/// `stream_into`.
macro_rules! render {
    ($report:expr, $format:expr) => {
        StringSink::render(0, |s| $report.stream_into($format, s))
    };
}

/// The sweep of `grid` on two workers, streamed into memory in `format`.
fn sweep_rows(grid: &ScenarioGrid, format: RowFormat) -> String {
    let mut sink = StringSink::default();
    SweepEngine::new()
        .workers(2)
        .stream(grid, format, &mut sink)
        .unwrap();
    sink.into_string()
}

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
    for (format, expected) in [
        ("csv", sweep_rows(&grid, RowFormat::Csv)),
        ("json", sweep_rows(&grid, RowFormat::Json)),
    ] {
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
    assert_eq!(payload, render!(optimize, RowFormat::Json));
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
fn a_fault_hook_that_is_not_a_cell_index_stops_serve_at_startup() {
    for hook in ["CORRIDOR_SERVE_CRASH_CELL", "CORRIDOR_SERVE_FLIP_CELL"] {
        for value in ["five", "-1", "", "3 "] {
            let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
                .env(hook, value)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn serve");
            // serve may exit before it reads this; a failed write is fine
            let _ = child
                .stdin
                .take()
                .expect("piped stdin")
                .write_all(b"sweep grid=smoke-3 format=csv\n");
            let output = child.wait_with_output().expect("serve exits");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert_eq!(output.status.code(), Some(1), "{hook}={value:?}: {stderr}");
            assert!(
                output.stdout.is_empty(),
                "{hook}={value:?} answered a request"
            );
            assert_eq!(stderr.lines().count(), 1, "{hook}={value:?}: {stderr}");
            assert!(
                stderr.starts_with(&format!("serve: {hook}="))
                    && stderr.contains("not a cell index"),
                "{hook}={value:?}: {stderr}"
            );
        }
    }
}

#[test]
fn a_flipped_frame_byte_fails_the_chunk_check_and_is_retried_once() {
    let grid = ScenarioGrid::by_name("mixed-8").unwrap();
    for format in [RowFormat::Csv, RowFormat::Json] {
        let mut sink = StringSink::default();
        SweepEngine::new()
            .workers(1)
            .stream(&grid, format, &mut sink)
            .unwrap();
        let expected = sha256_hex(sink.into_string().as_bytes());
        for shards in [1, 2] {
            let request = format!(
                "sweep grid=mixed-8 format={} shards={shards}\n",
                format.label()
            );
            // cell 3's frame reaches the coordinator with one byte flipped
            // after the worker summed it
            let (stdout, stderr) = serve(&request, &[("CORRIDOR_SERVE_FLIP_CELL", "3")]);
            let (_, _, end) = parse_response(&stdout);
            let sha = end
                .split_whitespace()
                .find_map(|w| w.strip_prefix("sha256="))
                .expect("sha256 field");
            assert_eq!(sha, expected, "{request}");
            assert_eq!(
                stderr.matches("respawning worker and retrying").count(),
                1,
                "{request}: {stderr}"
            );
            assert!(
                stderr.contains("worker trailer does not match received frames"),
                "{request}: the chunk check did not fire: {stderr}"
            );
        }
    }
}

#[test]
fn a_closed_stdout_ends_the_session_without_a_panic() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    // ~120 KB per response, far more than a pipe holds, so serve writes
    // after the client is gone
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(&b"sweep grid=screening-200 format=json shards=2\n".repeat(3))
        .expect("write requests");
    let mut stdout = child.stdout.take().expect("piped stdout");
    let mut head = [0u8; 10];
    stdout.read_exact(&mut head).expect("read the head");
    assert_eq!(&head, b"BEGIN swee");
    // the client stops reading, like `serve | head -c 10`
    drop(stdout);
    let output = child.wait_with_output().expect("serve exits");
    let stderr = String::from_utf8(output.stderr).expect("utf-8 stderr");
    // the documented status: not 101, a panic's
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "one diagnostic line: {stderr}");
    assert!(lines[0].starts_with("serve: stdout: "), "{stderr}");
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
    let mut sum = ChunkSum::new();
    sum.add(row.as_bytes());
    assert_eq!(
        stdout,
        format!(
            "row {}\n{row}\ndone rows=1 cache_hits=0 cache_misses=0 sum={}\n",
            row.len(),
            sum.hex()
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

/// The session-wide worker pool, watched through `/proc`: worker reuse
/// across requests, respawn only on death, trimming and flat memory.
#[cfg(target_os = "linux")]
mod session {
    use std::collections::{BTreeMap, BTreeSet};
    use std::io::{BufRead, BufReader, Read, Write};
    use std::process::{Child, ChildStdin, ChildStdout, Command, ExitStatus, Stdio};
    use std::thread::JoinHandle;

    use super::{find_entry, parse_response, sweep_rows, trailer_field};
    use corridor_core::hash::sha256_hex;
    use corridor_core::sink::{RowFormat, StringSink};
    use corridor_sim::{
        DeploymentOptimizer, McEngine, ReplicationPlan, ScenarioGrid, SearchSpace, SweepEngine,
    };

    /// A running `serve` coordinator driven one request at a time, so the
    /// test can look at its worker processes between requests.
    struct Session {
        child: Child,
        stdin: ChildStdin,
        stdout: BufReader<ChildStdout>,
        stderr: JoinHandle<String>,
    }

    impl Session {
        fn start(envs: &[(&str, &str)]) -> Session {
            let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
                .envs(envs.iter().copied())
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn serve");
            let stdin = child.stdin.take().expect("piped stdin");
            let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
            let mut stderr = child.stderr.take().expect("piped stderr");
            // drained on its own thread so a chatty stderr never blocks serve
            let stderr = std::thread::spawn(move || {
                let mut text = String::new();
                stderr.read_to_string(&mut text).expect("utf-8 stderr");
                text
            });
            Session {
                child,
                stdin,
                stdout,
                stderr,
            }
        }

        /// Sends one request line and returns its whole response, up to and
        /// including the `END` (or `ERROR`) line.
        fn request(&mut self, line: &str) -> String {
            self.send(format!("{line}\n").as_bytes());
            self.response()
        }

        /// Writes raw bytes to serve's stdin.
        fn send(&mut self, bytes: &[u8]) {
            self.stdin.write_all(bytes).expect("write request");
            self.stdin.flush().expect("flush request");
        }

        /// Reads the next whole response, up to and including its `END`
        /// (or `ERROR`) line.
        fn response(&mut self) -> String {
            let mut response = String::new();
            loop {
                let start = response.len();
                let n = self.stdout.read_line(&mut response).expect("read response");
                assert!(n > 0, "serve closed stdout mid-response: {response}");
                let last = &response[start..];
                if last.starts_with("END ") || last.starts_with("ERROR ") {
                    return response;
                }
            }
        }

        /// The PIDs of serve's child processes (its workers).
        fn workers(&self) -> BTreeSet<u32> {
            children(self.child.id())
        }

        /// Closes stdin and waits for serve to exit: `(status, stderr)`.
        fn finish(mut self) -> (ExitStatus, String) {
            drop(self.stdin);
            let mut rest = String::new();
            self.stdout.read_to_string(&mut rest).expect("read stdout");
            assert!(rest.is_empty(), "output after the last response: {rest}");
            let status = self.child.wait().expect("serve exits");
            (status, self.stderr.join().expect("stderr reader"))
        }
    }

    /// The child PIDs of `pid`, from `/proc/<pid>/task/*/children` (a worker
    /// is listed under the thread that spawned it). Kernels built without
    /// those files get the same set from each process's parent PID.
    fn children(pid: u32) -> BTreeSet<u32> {
        let tasks = std::fs::read_dir(format!("/proc/{pid}/task")).expect("serve is running");
        let lists: Vec<String> = tasks
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("children")).ok())
            .collect();
        if !lists.is_empty() {
            return lists
                .iter()
                .flat_map(|list| list.split_whitespace())
                .map(|pid| pid.parse().expect("pid"))
                .collect();
        }
        std::fs::read_dir("/proc")
            .expect("/proc")
            .filter_map(|entry| {
                let child: u32 = entry.ok()?.file_name().to_str()?.parse().ok()?;
                let stat = std::fs::read_to_string(format!("/proc/{child}/stat")).ok()?;
                // the field after the `(comm)` state letter is the parent PID
                let ppid: u32 = stat
                    .rsplit_once(')')?
                    .1
                    .split_whitespace()
                    .nth(1)?
                    .parse()
                    .ok()?;
                (ppid == pid).then_some(child)
            })
            .collect()
    }

    /// A process's peak resident set size, in KiB.
    fn vm_hwm_kib(pid: u32) -> u64 {
        let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("worker status");
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .unwrap_or_else(|| panic!("no VmHWM for {pid}"))
    }

    /// The payload of a one-request response, its trailer checked.
    fn payload(response: &str) -> String {
        parse_response(response).1
    }

    fn retries(stderr: &str) -> usize {
        stderr.matches("respawning worker and retrying").count()
    }

    #[test]
    fn a_session_serves_later_requests_on_the_same_workers() {
        let mut session = Session::start(&[]);
        let first = session.request("sweep grid=mixed-8 format=csv shards=1");
        let workers = session.workers();
        assert_eq!(workers.len(), 1, "one shard, one worker: {workers:?}");
        let second = session.request("sweep grid=mixed-8 format=csv shards=1");
        assert_eq!(session.workers(), workers, "the second request respawned");
        assert_eq!(second, first);
        let (status, stderr) = session.finish();
        assert!(status.success(), "{stderr}");
    }

    #[test]
    fn a_mixed_session_matches_the_in_memory_writers() {
        let mixed = ScenarioGrid::by_name("mixed-8").unwrap();
        let smoke = ScenarioGrid::by_name("smoke-3").unwrap();
        let mc = |seed| {
            let plan = ReplicationPlan::new(3).master_seed(seed);
            McEngine::new()
                .workers(2)
                .run(&smoke, &plan)
                .unwrap()
                .to_csv()
        };
        let space = SearchSpace::new().node_counts((0..=6).collect());
        let optimize = DeploymentOptimizer::new()
            .workers(2)
            .run(&smoke, &space)
            .unwrap();

        let mut session = Session::start(&[]);
        for (line, expected) in [
            (
                "sweep grid=mixed-8 format=csv shards=2",
                sweep_rows(&mixed, RowFormat::Csv),
            ),
            ("mc grid=smoke-3 format=csv shards=2 reps=3 seed=9", mc(9)),
            ("mc grid=smoke-3 format=csv shards=2 reps=3 seed=10", mc(10)),
            (
                "optimize grid=smoke-3 format=json shards=2",
                render!(optimize, RowFormat::Json),
            ),
            (
                "sweep grid=mixed-8 format=json shards=2",
                sweep_rows(&mixed, RowFormat::Json),
            ),
        ] {
            assert_eq!(payload(&session.request(line)), expected, "{line}");
        }
        let (status, stderr) = session.finish();
        assert!(status.success(), "{stderr}");
        assert_eq!(retries(&stderr), 0, "{stderr}");
    }

    /// The `sha256` of a response's END trailer, checked against its payload.
    fn end_digest(response: &str) -> String {
        let (_, _, end) = parse_response(response);
        end.split_whitespace()
            .find_map(|w| w.strip_prefix("sha256="))
            .expect("sha256 field")
            .to_owned()
    }

    #[test]
    fn warm_worker_contexts_answer_with_the_digests_of_fresh_streams() {
        let screening = ScenarioGrid::screening_200();
        let smoke = ScenarioGrid::by_name("smoke-3").unwrap();
        let sweep = |format| {
            let mut sink = StringSink::default();
            SweepEngine::new()
                .workers(2)
                .stream(&screening, format, &mut sink)
                .unwrap();
            sha256_hex(sink.into_string().as_bytes())
        };
        let mut sink = StringSink::default();
        let space = SearchSpace::new().node_counts((0..=6).collect());
        DeploymentOptimizer::new()
            .workers(2)
            .stream(&smoke, &space, RowFormat::Csv, &mut sink)
            .unwrap();
        let optimize = sha256_hex(sink.into_string().as_bytes());
        let (csv, json) = (sweep(RowFormat::Csv), sweep(RowFormat::Json));

        for shards in [1, 2] {
            let screening = format!("sweep grid=screening-200 format=csv shards={shards}");
            let mut session = Session::start(&[]);
            for (line, expected) in [
                (screening.clone(), &csv),
                (
                    format!("sweep grid=screening-200 format=json shards={shards}"),
                    &json,
                ),
                (
                    format!("optimize grid=smoke-3 format=csv shards={shards}"),
                    &optimize,
                ),
            ] {
                assert_eq!(&end_digest(&session.request(&line)), expected, "{line}");
            }
            // every chunk's worker answers `error` and stays pooled, its
            // context still warm
            let failed = session.request(&format!("{screening} cache=/dev/null/x"));
            assert!(
                failed.lines().last().unwrap().starts_with("ERROR "),
                "{failed}"
            );
            assert_eq!(end_digest(&session.request(&screening)), csv, "{screening}");
            let (status, stderr) = session.finish();
            assert!(!status.success(), "a failed request must fail the run");
            assert_eq!(retries(&stderr), 0, "{stderr}");
        }
    }

    /// `(cache_hits, cache_misses)` from a response's END trailer.
    fn cache_counts(response: &str) -> (u64, u64) {
        let (_, _, end) = parse_response(response);
        (
            trailer_field(&end, "cache_hits"),
            trailer_field(&end, "cache_misses"),
        )
    }

    #[test]
    fn a_rendering_corrupted_mid_session_misses_on_the_warm_worker() {
        let dir = std::env::temp_dir().join(format!(
            "corridor-serve-session-cache-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let request = format!(
            "optimize grid=smoke-3 format=json shards=1 cache={}",
            dir.display()
        );
        let mut session = Session::start(&[]);
        let cold = session.request(&request);
        assert_eq!(cache_counts(&cold), (0, 3));
        let workers = session.workers();
        let warm = session.request(&request);
        assert_eq!(cache_counts(&warm), (3, 0));
        assert_eq!(payload(&warm), payload(&cold));

        // flip one byte of one stored JSON rendering in place: its length
        // is unchanged, so only its checksum can catch it
        let entry = find_entry(&dir);
        let mut bytes = std::fs::read(&entry).unwrap();
        let mut lines = bytes.splitn(3, |&b| b == b'\n');
        let (magic, header) = (lines.next().unwrap(), lines.next().unwrap());
        let payload_at = magic.len() + header.len() + 2;
        let lens: Vec<usize> = std::str::from_utf8(header)
            .unwrap()
            .split(' ')
            .take(2)
            .map(|len| len.parse().unwrap())
            .collect();
        bytes[payload_at + lens[0] + lens[1] / 2] ^= 0x01;
        std::fs::write(&entry, &bytes).unwrap();

        let healed = session.request(&request);
        assert_eq!(cache_counts(&healed), (2, 1));
        assert_eq!(payload(&healed), payload(&cold));
        let again = session.request(&request);
        assert_eq!(cache_counts(&again), (3, 0));
        assert_eq!(payload(&again), payload(&cold));
        assert_eq!(
            session.workers(),
            workers,
            "the session respawned its worker"
        );
        let (status, stderr) = session.finish();
        assert!(status.success(), "{stderr}");
        assert_eq!(retries(&stderr), 0, "{stderr}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_worker_killed_while_idle_is_replaced_and_the_response_is_unchanged() {
        let request = "sweep grid=mixed-8 format=json shards=1";
        let mut session = Session::start(&[]);
        let clean = session.request(request);
        let workers = session.workers();
        let [pid] = workers.iter().copied().collect::<Vec<_>>()[..] else {
            panic!("one shard, one worker: {workers:?}");
        };
        let killed = Command::new("kill")
            .args(["-KILL", &pid.to_string()])
            .status()
            .expect("run kill");
        assert!(killed.success());
        // serve has not reaped it yet: wait until it is a zombie
        let stat = format!("/proc/{pid}/stat");
        for _ in 0..500 {
            let state = std::fs::read_to_string(&stat).unwrap_or_default();
            if state
                .rsplit_once(')')
                .is_some_and(|(_, rest)| rest.trim_start().starts_with('Z'))
            {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }

        assert_eq!(session.request(request), clean, "retried stream drifted");
        let replaced = session.workers();
        assert_eq!(replaced.len(), 1, "{replaced:?}");
        assert!(!replaced.contains(&pid), "the dead worker is still pooled");
        let (status, stderr) = session.finish();
        assert!(status.success(), "{stderr}");
        assert_eq!(retries(&stderr), 1, "{stderr}");
    }

    #[test]
    fn a_crash_in_one_request_leaves_the_next_unaffected() {
        let mixed = ScenarioGrid::by_name("mixed-8").unwrap();
        let smoke = ScenarioGrid::by_name("smoke-3").unwrap();
        let plan = ReplicationPlan::new(3).master_seed(9);
        let mc = McEngine::new().workers(2).run(&smoke, &plan).unwrap();

        // cell 5 is in the mixed-8 request only: its chunk's worker dies once
        let mut session = Session::start(&[("CORRIDOR_SERVE_CRASH_CELL", "5")]);
        let first = session.request("sweep grid=mixed-8 format=json shards=2");
        assert_eq!(payload(&first), sweep_rows(&mixed, RowFormat::Json));
        let second = session.request("mc grid=smoke-3 format=csv shards=2 reps=3 seed=9");
        assert_eq!(payload(&second), mc.to_csv());
        let (status, stderr) = session.finish();
        assert!(status.success(), "{stderr}");
        assert_eq!(retries(&stderr), 1, "{stderr}");
    }

    #[test]
    fn an_error_answer_fails_the_chunk_once_and_keeps_the_worker() {
        let mut session = Session::start(&[]);
        let failed = session.request("sweep grid=paper format=csv shards=1 cache=/dev/null/x");
        assert!(
            failed.lines().last().unwrap().starts_with("ERROR "),
            "{failed}"
        );
        let workers = session.workers();
        assert_eq!(workers.len(), 1, "no worker after the failure: {workers:?}");
        let served = session.request("sweep grid=paper format=csv shards=1");
        parse_response(&served);
        assert_eq!(session.workers(), workers, "the error answer cost a worker");
        let (status, stderr) = session.finish();
        assert!(!status.success(), "a failed request must fail the run");
        assert!(
            !stderr.contains("retrying"),
            "an error answer was retried: {stderr}"
        );
        assert_eq!(
            failed.matches("ERROR").count() + served.matches("ERROR").count(),
            1
        );
    }

    #[test]
    fn a_wide_request_leaves_at_most_one_idle_worker_per_cpu_and_exit_reaps_them() {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut session = Session::start(&[]);
        parse_response(&session.request("sweep grid=mixed-8 format=csv shards=8"));
        let workers = session.workers();
        assert!(
            !workers.is_empty() && workers.len() <= cpus,
            "{} workers on {cpus} CPUs",
            workers.len()
        );
        let (status, stderr) = session.finish();
        assert!(status.success(), "{stderr}");
        for pid in workers {
            assert!(
                !std::path::Path::new(&format!("/proc/{pid}")).exists(),
                "worker {pid} outlived serve"
            );
        }
    }

    #[test]
    fn worker_memory_stays_flat_over_a_hundred_requests() {
        // no more shards than CPUs, so no worker is trimmed between
        // requests and the same workers are measured at 10 and 100
        let shards = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
        let mut session = Session::start(&[]);
        let mut peaks_at_10 = BTreeMap::new();
        for i in 0..100u32 {
            let grid = if (i / 3) % 2 == 0 {
                "mixed-8"
            } else {
                "smoke-3"
            };
            let format = if i % 2 == 0 { "csv" } else { "json" };
            let line = match i % 3 {
                0 => format!("sweep grid={grid} format={format} shards={shards}"),
                // a new Monte-Carlo seed every time
                1 => format!(
                    "mc grid={grid} format={format} shards={shards} reps=2 seed={}",
                    100 + i
                ),
                _ => format!("optimize grid={grid} format={format} shards={shards}"),
            };
            parse_response(&session.request(&line));
            if i + 1 == 10 {
                peaks_at_10 = session
                    .workers()
                    .into_iter()
                    .map(|pid| (pid, vm_hwm_kib(pid)))
                    .collect();
            }
        }
        let workers = session.workers();
        let kept: Vec<u32> = workers
            .iter()
            .copied()
            .filter(|pid| peaks_at_10.contains_key(pid))
            .collect();
        assert!(!kept.is_empty(), "{peaks_at_10:?} vs {workers:?}");
        for pid in kept {
            let (before, after) = (peaks_at_10[&pid], vm_hwm_kib(pid));
            assert!(
                after <= before + 1024,
                "worker {pid}: VmHWM {before} KiB after request 10, {after} KiB after request 100"
            );
        }
        let (status, stderr) = session.finish();
        assert!(status.success(), "{stderr}");
    }

    /// The END digest of a fresh in-process stream of the paper grid as CSV.
    fn paper_csv_digest() -> String {
        let mut sink = StringSink::default();
        SweepEngine::new()
            .workers(1)
            .stream(
                &ScenarioGrid::by_name("paper").unwrap(),
                RowFormat::Csv,
                &mut sink,
            )
            .unwrap();
        sha256_hex(sink.into_string().as_bytes())
    }

    #[test]
    fn an_over_long_request_line_is_drained_not_kept() {
        const LINE: usize = 8 << 20;
        // a peak far below the line: the coordinator never holds it
        const PEAK_BOUND_KIB: u64 = 6 << 10;
        let request = "sweep grid=paper format=csv shards=1";
        let mut session = Session::start(&[]);
        // 8 MiB without a newline, then the newline that ends the line
        let mut long = vec![b'x'; LINE];
        long.push(b'\n');
        session.send(&long);
        assert_eq!(session.response(), "ERROR bad request: line too long\n");
        assert_eq!(end_digest(&session.request(request)), paper_csv_digest());
        let peak = vm_hwm_kib(session.child.id());
        assert!(
            peak < PEAK_BOUND_KIB,
            "coordinator VmHWM {peak} KiB after an {LINE}-byte line"
        );
        let (status, stderr) = session.finish();
        assert!(!status.success(), "a bad request must fail the run");
        assert!(stderr.contains("line too long"), "{stderr}");
    }

    #[test]
    fn a_non_utf8_request_line_gets_an_error_and_the_session_goes_on() {
        let mut session = Session::start(&[]);
        session.send(
            b"sweep grid=paper format=csv shards=1 \xff\nsweep grid=paper format=csv shards=1\n",
        );
        let failed = session.response();
        assert!(failed.starts_with("ERROR bad request: "), "{failed}");
        assert_eq!(failed.lines().count(), 1, "{failed}");
        assert_eq!(end_digest(&session.response()), paper_csv_digest());
        let (status, stderr) = session.finish();
        assert!(!status.success(), "a bad request must fail the run");
        assert!(!stderr.contains("stdin"), "{stderr}");
    }
}
