//! Long-running sweep service: reads grid specs from stdin, shards the
//! cells across worker *processes*, and streams the result rows back on
//! stdout in grid order — byte-identical to the in-memory writers.
//!
//! ```console
//! $ echo "sweep grid=mixed-8 format=csv shards=2" \
//!     | cargo run --release -p corridor_bench --bin serve
//! ```
//!
//! # Request protocol (one request per stdin line)
//!
//! ```text
//! sweep|mc|optimize grid=NAME format=csv|json [shards=N] [reps=N] [seed=N] [cache=DIR]
//! ```
//!
//! `grid` is a named grid (`paper`, `smoke-3`, `mixed-8`,
//! `screening-200`); `shards` is the worker-process count (default 2);
//! `reps`/`seed` configure the Monte-Carlo replication plan (defaults 5
//! and 7; `reps` at most 10 000); `cache` points every worker at a
//! shared scenario-hash [`ResultCache`] directory. Request lines, the
//! worker's task lines and the engine CLIs share one field grammar,
//! `corridor_bench::args`.
//!
//! # Response
//!
//! ```text
//! BEGIN <engine> grid=<name> format=<fmt> cells=<n> shards=<n>
//! <the exact bytes the engine's stream writer produces>
//! END rows=<n> sha256=<hex> cache_hits=<n> cache_misses=<n>
//! ```
//!
//! The payload between `BEGIN` and `END` is byte-identical to
//! `SweepEngine::stream` (respectively `McEngine` / `DeploymentOptimizer`)
//! writing into a sink, and the `sha256` trailer is the digest of those
//! payload bytes — so a client can verify integrity without re-hashing
//! upstream state. Diagnostics (worker deaths, retries) go to stderr.
//!
//! # Worker pool
//!
//! Cells are cut into chunks and run on `rayon::stream_ordered`, the
//! ordered executor every engine uses: `shards` threads (the calling
//! thread alone for one shard), at most `2 × shards` chunks in flight,
//! and rows emitted in chunk order. Each thread hands its chunk to a
//! child process (`serve --worker`) taken from the session's idle pool,
//! over a line protocol with length-prefixed row frames, and spawns a
//! child only when no idle one is left. Workers outlive the request: the
//! ones the first request spawns answer every later request with their
//! process-wide memos (`active_hours`, the solar sky tables and seed
//! years) already warm. The pool stays bounded without a setting: after
//! each request, before its trailer is written, idle workers beyond
//! `std::thread::available_parallelism()` are killed and reaped. At
//! stdin EOF every worker is killed and reaped before `serve` exits, so
//! worker CPU time counts in the caller's `RUSAGE_CHILDREN`.
//!
//! # Fault tolerance
//!
//! The first failed chunk in order cancels the chunks not yet
//! dispatched and ends the response with `ERROR`. A worker's `error`
//! answer (an unusable cache directory, say) fails its chunk at once,
//! and the worker, still in step, goes back to the pool. Only a worker
//! death respawns one: EOF or a truncated frame mid-chunk, a `done`
//! trailer that does not match the frames, any other line outside the
//! protocol, or a failed write to an idle worker that died. The dead
//! child is reaped and the chunk re-dispatched, up to [`MAX_ATTEMPTS`]
//! attempts (the rows are deterministic, so a retry reproduces them
//! exactly); no worker is spawned after the last one fails. Setting
//! `CORRIDOR_SERVE_CRASH_CELL=<index>` makes the *first* attempt at the
//! chunk holding that cell, in every request, kill its worker
//! mid-shard — the fault-injection hook the serve tests use.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::sync::{Mutex, MutexGuard, PoisonError};

use corridor_bench::args::{self, Fields};
use corridor_core::hash::Sha256;
use corridor_core::sink::{RowEmitter, RowFormat};
use corridor_sim::{
    DeploymentOptimizer, McEngine, ReplicationPlan, ResultCache, ScenarioGrid, SearchSpace,
    StreamError, SweepEngine, CSV_HEADER, MC_CSV_HEADER, OPTIMIZE_CSV_HEADER,
};

/// Cells per dispatched chunk: small enough that a retry is cheap and
/// the in-flight buffer stays bounded, large enough to amortize the
/// frame protocol.
const CHUNK_CELLS: usize = 64;

/// Attempts per chunk before the request is declared failed.
const MAX_ATTEMPTS: u32 = 3;

const USAGE: &str = "\
usage: serve [--worker]

Coordinator mode (default): reads one request per stdin line —
  sweep|mc|optimize grid=NAME format=csv|json [shards=N] [reps=N] [seed=N] [cache=DIR]
— and streams the rows back on stdout between BEGIN/END markers.

--worker is the internal child-process mode the coordinator spawns;
it is not meant to be invoked by hand.
";

/// Which engine a request drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EngineKind {
    Sweep,
    Mc,
    Optimize,
}

impl EngineKind {
    fn label(self) -> &'static str {
        match self {
            EngineKind::Sweep => "sweep",
            EngineKind::Mc => "mc",
            EngineKind::Optimize => "optimize",
        }
    }

    fn from_label(label: &str) -> Option<Self> {
        match label {
            "sweep" => Some(EngineKind::Sweep),
            "mc" => Some(EngineKind::Mc),
            "optimize" => Some(EngineKind::Optimize),
            _ => None,
        }
    }

    fn csv_header(self) -> &'static str {
        match self {
            EngineKind::Sweep => CSV_HEADER,
            EngineKind::Mc => MC_CSV_HEADER,
            EngineKind::Optimize => OPTIMIZE_CSV_HEADER,
        }
    }
}

/// One parsed request (shared between coordinator and worker: the task
/// lines the coordinator sends are requests plus a cell range).
#[derive(Debug)]
struct Request {
    engine: EngineKind,
    grid_name: String,
    grid: ScenarioGrid,
    format: RowFormat,
    shards: usize,
    replications: usize,
    master_seed: u64,
    cache: Option<String>,
}

impl Request {
    fn parse(line: &str) -> Result<Request, String> {
        let (engine, mut fields) = Request::fields(line)?;
        Request::read(engine, &mut fields)
    }

    /// Splits a line into its engine word and its fields.
    fn fields(line: &str) -> Result<(EngineKind, Fields), String> {
        let mut words = line.split_whitespace();
        let engine = words
            .next()
            .and_then(EngineKind::from_label)
            .ok_or("request must start with sweep|mc|optimize")?;
        Ok((engine, Fields::line(words)))
    }

    /// Reads the request fields; any field left over is an error.
    fn read(engine: EngineKind, f: &mut Fields) -> Result<Request, String> {
        let (grid_name, grid) = f.grid("mixed-8")?;
        let request = Request {
            engine,
            grid_name,
            grid,
            format: f.format()?,
            shards: f.checked("shards", |&n| n > 0, "at least 1")?.unwrap_or(2),
            replications: f.reps("reps")?.unwrap_or(5),
            master_seed: f.parse("seed")?.unwrap_or(7),
            cache: f.value("cache")?,
        };
        f.finish()?;
        Ok(request)
    }

    /// The task line dispatched to a worker for one chunk.
    fn task_line(&self, range: &std::ops::Range<usize>, crash: Option<usize>) -> String {
        let mut line = format!(
            "task {} grid={} format={} range={}:{} reps={} seed={}",
            self.engine.label(),
            self.grid_name,
            self.format.label(),
            range.start,
            range.end,
            self.replications,
            self.master_seed,
        );
        if let Some(dir) = &self.cache {
            line.push_str(&format!(" cache={dir}"));
        }
        if let Some(cell) = crash {
            line.push_str(&format!(" crash={cell}"));
        }
        line
    }
}

/// The fixed search space the `optimize` engine serves: the quick
/// variant the optimizer determinism suite pins (0–6 repeaters at the
/// default ISD resolution).
fn serve_search_space() -> SearchSpace {
    SearchSpace::new().node_counts((0..=6).collect())
}

fn main() -> ExitCode {
    args::run("serve", USAGE, &["worker"], |f| {
        let worker = f.flag("worker");
        f.finish()?;
        Ok(if worker {
            worker_main()
        } else {
            coordinator_main()
        })
    })
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

/// A chunk's rows as returned by one worker.
struct ChunkResult {
    rows: Vec<Vec<u8>>,
    cache_hits: u64,
    cache_misses: u64,
}

fn coordinator_main() -> ExitCode {
    let pool = WorkerPool::new();
    let mut failed = false;
    for line in io::stdin().lock().lines() {
        let line = match line {
            Ok(line) => line,
            Err(error) => {
                eprintln!("serve: stdin: {error}");
                failed = true;
                break;
            }
        };
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        match Request::parse(trimmed) {
            Ok(request) => {
                if let Err(error) = serve_request(&request, &pool) {
                    // the protocol stays parseable: an ERROR line instead
                    // of an END trailer tells the client the stream is void
                    println!("ERROR {error}");
                    eprintln!("serve: {error}");
                    failed = true;
                }
            }
            Err(error) => {
                println!("ERROR bad request: {error}");
                eprintln!("serve: bad request: {error}");
                failed = true;
            }
        }
    }
    // kill and reap every worker before exiting, so their CPU time
    // counts in the caller's RUSAGE_CHILDREN
    drop(pool);
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn serve_request(request: &Request, pool: &WorkerPool) -> Result<(), String> {
    let cells = request.grid.len();
    // small grids still split across every shard; large grids cap the
    // chunk so a retry never re-evaluates more than CHUNK_CELLS cells
    let chunk_cells = cells.div_ceil(request.shards).clamp(1, CHUNK_CELLS);
    let chunks = (0..cells)
        .step_by(chunk_cells)
        .map(|start| start..(start + chunk_cells).min(cells));
    // no more threads than chunks: a one-chunk request runs on this thread
    let shards = request.shards.min(cells.div_ceil(chunk_cells));
    let crash_cell: Option<usize> = std::env::var("CORRIDOR_SERVE_CRASH_CELL")
        .ok()
        .and_then(|v| v.parse().ok());

    println!(
        "BEGIN {} grid={} format={} cells={} shards={}",
        request.engine.label(),
        request.grid_name,
        request.format.label(),
        cells,
        request.shards,
    );

    let stdout = io::stdout();
    let mut sink = HashingSink {
        out: io::BufWriter::new(stdout.lock()),
        digest: Sha256::new(),
    };
    let mut emitter = RowEmitter::begin(&mut sink, request.format, request.engine.csv_header())
        .map_err(|e| format!("stdout: {e}"))?;
    let (mut cache_hits, mut cache_misses) = (0u64, 0u64);
    let streamed = rayon::stream_ordered(
        chunks.enumerate(),
        shards,
        2 * shards,
        |(index, range)| run_chunk_with_retry(pool, request, index, &range, crash_cell),
        |result| -> Result<(), String> {
            let chunk = result.map_err(|e| format!("chunk failed: {e}"))?;
            for row in &chunk.rows {
                let text = std::str::from_utf8(row).map_err(|e| format!("bad row bytes: {e}"))?;
                emitter.row(text).map_err(|e| format!("stdout: {e}"))?;
            }
            cache_hits += chunk.cache_hits;
            cache_misses += chunk.cache_misses;
            Ok(())
        },
    );
    // trimmed before the trailer, so a client that has read END sees
    // the bounded pool
    pool.trim();
    streamed?;
    let rows = emitter.finish().map_err(|e| format!("stdout: {e}"))?;
    let sha256 = sink.digest.finalize_hex();
    writeln!(
        sink.out,
        "END rows={rows} sha256={sha256} cache_hits={cache_hits} cache_misses={cache_misses}"
    )
    .and_then(|()| sink.out.flush())
    .map_err(|e| format!("stdout: {e}"))
}

/// Writes to stdout while folding every byte into a SHA-256, so the END
/// trailer can certify exactly what was sent.
struct HashingSink<W: Write> {
    out: W,
    digest: Sha256,
}

impl<W: Write> corridor_core::sink::RowSink for HashingSink<W> {
    fn write(&mut self, chunk: &str) -> corridor_core::sink::SinkResult<()> {
        self.digest.update(chunk.as_bytes());
        self.out
            .write_all(chunk.as_bytes())
            .map_err(corridor_core::sink::SinkError::Io)
    }

    fn finish(&mut self) -> corridor_core::sink::SinkResult<()> {
        self.out.flush().map_err(corridor_core::sink::SinkError::Io)
    }
}

/// One child worker process with line-buffered stdin and framed stdout.
struct WorkerHandle {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl WorkerHandle {
    fn spawn() -> io::Result<WorkerHandle> {
        let exe = std::env::current_exe()?;
        let mut child = Command::new(exe)
            .arg("--worker")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(WorkerHandle {
            child,
            stdin,
            stdout,
        })
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The session's idle worker processes. An executor thread takes one
/// per chunk (spawning a child only when none is idle) and puts it back
/// once the chunk is answered; dropping the pool kills and reaps them.
struct WorkerPool {
    idle: Mutex<Vec<WorkerHandle>>,
    /// Idle workers kept between requests: one per available CPU.
    keep: usize,
}

impl WorkerPool {
    fn new() -> WorkerPool {
        WorkerPool {
            idle: Mutex::new(Vec::new()),
            keep: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    fn idle(&self) -> MutexGuard<'_, Vec<WorkerHandle>> {
        self.idle.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// An idle worker, or a freshly spawned one. The pool is not locked
    /// while a child is spawned.
    fn take(&self) -> io::Result<WorkerHandle> {
        let idle = self.idle().pop();
        idle.map_or_else(WorkerHandle::spawn, Ok)
    }

    fn put(&self, worker: WorkerHandle) {
        self.idle().push(worker);
    }

    /// Kills and reaps the idle workers beyond [`WorkerPool::keep`],
    /// keeping the ones put back first.
    fn trim(&self) {
        self.idle().truncate(self.keep);
    }
}

/// How a chunk failed on its worker.
enum ChunkFailure {
    /// The worker answered `error`: it is still in step, so it goes back
    /// to the pool, and a retry would fail the same way.
    Answer(String),
    /// The worker died or left the frame protocol: it is reaped and the
    /// chunk retried on another worker.
    Death(String),
}

/// Runs one chunk on a pooled worker. A worker death reaps the worker
/// and re-dispatches the chunk, up to [`MAX_ATTEMPTS`]; any other
/// outcome puts the worker back in the pool.
fn run_chunk_with_retry(
    pool: &WorkerPool,
    request: &Request,
    index: usize,
    range: &std::ops::Range<usize>,
    crash_cell: Option<usize>,
) -> Result<ChunkResult, String> {
    let mut last_error = String::new();
    for attempt in 1..=MAX_ATTEMPTS {
        // the injected fault fires on the first attempt only: the retry
        // must succeed and reproduce the exact rows
        let crash = crash_cell.filter(|cell| attempt == 1 && range.contains(cell));
        let mut worker = match pool.take() {
            Ok(worker) => worker,
            Err(error) => {
                last_error = format!("cannot spawn worker: {error}");
                continue;
            }
        };
        match run_chunk(&mut worker, request, range, crash) {
            Ok(result) => {
                pool.put(worker);
                return Ok(result);
            }
            Err(ChunkFailure::Answer(error)) => {
                pool.put(worker);
                return Err(format!(
                    "chunk {index} (cells {}..{}): worker: {error}",
                    range.start, range.end
                ));
            }
            Err(ChunkFailure::Death(error)) => {
                // dropping the handle kills and reaps the child
                drop(worker);
                if attempt < MAX_ATTEMPTS {
                    eprintln!(
                        "serve: chunk {index} (cells {}..{}) attempt {attempt} failed: {error}; \
                         respawning worker and retrying",
                        range.start, range.end,
                    );
                }
                last_error = error;
            }
        }
    }
    Err(format!(
        "chunk {index} failed after {MAX_ATTEMPTS} attempts: {last_error}"
    ))
}

/// Dispatches one task line and reads the framed rows back.
fn run_chunk(
    worker: &mut WorkerHandle,
    request: &Request,
    range: &std::ops::Range<usize>,
    crash: Option<usize>,
) -> Result<ChunkResult, ChunkFailure> {
    use ChunkFailure::Death;
    let task = request.task_line(range, crash);
    writeln!(worker.stdin, "{task}")
        .and_then(|()| worker.stdin.flush())
        .map_err(|e| Death(format!("worker stdin: {e}")))?;

    let mut rows = Vec::new();
    let mut digest = Sha256::new();
    loop {
        let mut line = String::new();
        let n = worker
            .stdout
            .read_line(&mut line)
            .map_err(|e| Death(format!("worker stdout: {e}")))?;
        if n == 0 {
            return Err(Death("worker died mid-chunk (eof)".into()));
        }
        let line = line.trim_end_matches('\n');
        if let Some(length) = line.strip_prefix("row ") {
            let length: usize = length
                .parse()
                .map_err(|e| Death(format!("bad frame: {e}")))?;
            let mut bytes = vec![0u8; length + 1];
            worker
                .stdout
                .read_exact(&mut bytes)
                .map_err(|_| Death("worker died mid-frame".into()))?;
            if bytes.pop() != Some(b'\n') {
                return Err(Death("frame missing terminator".into()));
            }
            digest.update(&bytes);
            rows.push(bytes);
        } else if let Some(trailer) = line.strip_prefix("done ") {
            let (count, hits, misses, sha) = parse_done(trailer).map_err(Death)?;
            if count != rows.len() as u64 || sha != digest.finalize_hex() {
                return Err(Death(
                    "worker trailer does not match received frames".into(),
                ));
            }
            return Ok(ChunkResult {
                rows,
                cache_hits: hits,
                cache_misses: misses,
            });
        } else if let Some(error) = line.strip_prefix("error ") {
            return Err(ChunkFailure::Answer(error.to_owned()));
        } else {
            return Err(Death(format!("unexpected worker line {line:?}")));
        }
    }
}

fn parse_done(trailer: &str) -> Result<(u64, u64, u64, String), String> {
    let (mut rows, mut hits, mut misses, mut sha) = (None, None, None, None);
    for word in trailer.split_whitespace() {
        match word.split_once('=') {
            Some(("rows", v)) => rows = v.parse().ok(),
            Some(("cache_hits", v)) => hits = v.parse().ok(),
            Some(("cache_misses", v)) => misses = v.parse().ok(),
            Some(("sha256", v)) => sha = Some(v.to_owned()),
            _ => return Err(format!("bad done field {word:?}")),
        }
    }
    match (rows, hits, misses, sha) {
        (Some(r), Some(h), Some(m), Some(s)) => Ok((r, h, m, s)),
        _ => Err("incomplete done trailer".into()),
    }
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

/// Child-process mode: evaluates task lines from the coordinator,
/// streaming each chunk's rows back as length-prefixed frames.
fn worker_main() -> ExitCode {
    let stdin = io::stdin();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(line) => line,
            Err(_) => return ExitCode::FAILURE,
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Err(error) = run_task(trimmed) {
            println!("error {error}");
            let _ = io::stdout().flush();
        }
    }
    ExitCode::SUCCESS
}

fn run_task(line: &str) -> Result<(), String> {
    let rest = line
        .strip_prefix("task ")
        .ok_or_else(|| format!("unexpected line {line:?}"))?;
    // a task line is a request plus the chunk's cell range (and the
    // fault hook), all in one field list
    let (engine, mut fields) = Request::fields(rest)?;
    let range = fields.range("range")?.unwrap_or(0..0);
    let crash: Option<usize> = fields.parse("crash")?;
    let request = Request::read(engine, &mut fields)?;
    let grid = &request.grid;
    if range.start > range.end || range.end > grid.len() {
        return Err(format!(
            "range {}:{} outside the {}-cell grid",
            range.start,
            range.end,
            grid.len()
        ));
    }
    let cache = match &request.cache {
        Some(dir) => Some(ResultCache::open(dir).map_err(|e| format!("cache {dir}: {e}"))?),
        None => None,
    };

    let stdout = io::stdout();
    let mut out = io::BufWriter::new(stdout.lock());
    let mut emitted = 0usize;
    let mut digest = Sha256::new();
    let mut emit = |row: &str| -> Result<(), StreamError> {
        // the injected fault: die mid-shard right before this cell's row
        if crash == Some(range.start + emitted) {
            let _ = out.flush();
            std::process::exit(101);
        }
        emitted += 1;
        digest.update(row.as_bytes());
        out.write_all(format!("row {}\n", row.len()).as_bytes())
            .and_then(|()| out.write_all(row.as_bytes()))
            .and_then(|()| out.write_all(b"\n"))
            .map_err(|e| StreamError::Sink(corridor_core::sink::SinkError::Io(e)))
    };

    let summary = match request.engine {
        EngineKind::Sweep => SweepEngine::new().workers(1).stream_rows(
            grid,
            range.clone(),
            request.format,
            cache.as_ref(),
            &mut emit,
        ),
        EngineKind::Mc => {
            let plan = ReplicationPlan::new(request.replications).master_seed(request.master_seed);
            McEngine::new().workers(1).stream_rows(
                grid,
                &plan,
                range.clone(),
                request.format,
                cache.as_ref(),
                &mut emit,
            )
        }
        EngineKind::Optimize => DeploymentOptimizer::new().workers(1).stream_rows(
            grid,
            &serve_search_space(),
            range.clone(),
            request.format,
            cache.as_ref(),
            &mut emit,
        ),
    }
    .map_err(|e| format!("{e}"))?;

    writeln!(
        out,
        "done rows={} cache_hits={} cache_misses={} sha256={}",
        summary.rows,
        summary.cache_hits,
        summary.cache_misses,
        digest.finalize_hex(),
    )
    .and_then(|()| out.flush())
    .map_err(|e| format!("stdout: {e}"))
}
