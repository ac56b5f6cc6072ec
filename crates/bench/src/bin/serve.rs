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
//! `corridor_bench::args`. A line longer than [`MAX_REQUEST_LINE`]
//! (64 KiB) is drained without being kept and answered `ERROR bad
//! request: line too long`; a line that is not UTF-8 is answered `ERROR
//! bad request: not UTF-8: …`. Either way the session goes on.
//!
//! # Response
//!
//! ```text
//! BEGIN <engine> grid=<name> format=<fmt> cells=<n> shards=<n>
//! <the exact bytes the engine's stream writer produces>
//! END rows=<n> sha256=<hex> cache_hits=<n> cache_misses=<n>
//! ```
//!
//! The payload is produced by one entry, [`RowEngine::stream_rows`]:
//! the request word picks the [`RowEngine`], which fixes the served
//! configuration and the CSV header, so this binary names no engine.
//! The payload between `BEGIN` and `END` is byte-identical to that
//! engine's own `stream` writing into a sink, and the `sha256` trailer
//! is the digest of those payload bytes — so a client can verify
//! integrity without re-hashing upstream state. Diagnostics (worker
//! deaths, retries) go to stderr.
//!
//! # Worker pool
//!
//! Cells are cut into chunks and run on `rayon::stream_ordered`, the
//! ordered executor every engine uses: `shards` threads (the calling
//! thread alone for one shard), at most `2 × shards` chunks in flight,
//! and rows emitted in chunk order. Each thread hands its chunk to a
//! child process (`serve --worker`) taken from the session's idle pool,
//! over a line protocol with length-prefixed row frames, and spawns a
//! child only when no idle one is left. The worker ends each chunk with
//! a `done rows=<n> cache_hits=<n> cache_misses=<n> sum=<16 hex>`
//! trailer, and the coordinator checks the row count and the
//! [`ChunkSum`] of the frames it read against it. That sum is SipHash,
//! not SHA-256, on purpose: it only has to catch a desynced or torn
//! frame on a local pipe between two copies of this executable, and the
//! `END` trailer's SHA-256 still certifies every byte the client gets,
//! so each served row is SHA-256'd once, for `END`. Workers outlive the
//! request: the ones the first request spawns answer every later
//! request warm. Each worker keeps one [`EvalContext`] for its whole
//! session and runs every task through it, so it never repeats a PV
//! sizing (Table IV) search it has made; the context holds at most
//! [`EvalContext::SIZING_CAPACITY`] outcomes. It keeps the
//! [`ResultCache`] it opened the same way, for as long as its tasks name
//! one `cache` directory, so it creates that directory once, and a hit
//! on an entry whose bytes the cache has already verified in that format
//! serves them without hashing them again. The process-wide memos
//! (`active_hours`, the solar sky tables and seed years) stay warm the
//! same way. The pool stays bounded without a setting: after each
//! request, before its trailer is written, idle workers beyond
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
//! trailer whose row count or sum does not match the frames, any other
//! line outside the protocol, or a failed write to an idle worker that
//! died. A frame header announcing more than [`MAX_FRAME`] bytes is a
//! death too, and nothing is allocated for it. The dead child is reaped
//! and the chunk re-dispatched, up to [`MAX_ATTEMPTS`] attempts (the
//! rows are deterministic, so a retry reproduces them exactly); no
//! worker is spawned after the last one fails. Two fault-injection
//! hooks, which the serve tests and `make serve-smoke` use, fire on the
//! *first* attempt at the chunk holding a cell, in every request:
//! `CORRIDOR_SERVE_CRASH_CELL=<index>` kills its worker mid-shard, and
//! `CORRIDOR_SERVE_FLIP_CELL=<index>` makes the worker flip one byte of
//! that cell's frame after summing it, so the chunk check fails. A hook
//! set to anything but a cell index stops `serve` before it reads a
//! request, with one line on stderr and exit status 1.
//!
//! # Exit status
//!
//! `0` when every request ended with `END`; `1` when one ended with
//! `ERROR`, stdin failed, or a fault hook is not a cell index; [`args::STDOUT_CLOSED`] (`2`) when a write to
//! stdout failed, a client that stopped reading, say. After that
//! failure `serve` writes nothing more to stdout: it reaps every worker,
//! prints one line on stderr and exits.

use std::borrow::Cow;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::ops::Range;
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::sync::{Mutex, MutexGuard, PoisonError};

use corridor_bench::args::{self, Fields, Stdout, Stop};
use corridor_bench::ChunkSum;
use corridor_core::hash::Sha256;
use corridor_core::sink::{RowEmitter, RowFormat, SinkError};
use corridor_sim::{
    EvalContext, ReplicationPlan, ResultCache, RowEngine, ScenarioGrid, StreamError,
};

/// Cells per dispatched chunk: small enough that a retry is cheap and
/// the in-flight buffer stays bounded, large enough to amortize the
/// frame protocol.
const CHUNK_CELLS: usize = 64;

/// Attempts per chunk before the request is declared failed.
const MAX_ATTEMPTS: u32 = 3;

/// Longest request line read, its newline excluded: a bound on what one
/// client line can make the coordinator hold, not a setting.
const MAX_REQUEST_LINE: usize = 64 * 1024;

/// Longest row frame a worker may announce, its newline excluded: the
/// longest row any engine renders is about 2 KB, so a longer `row <len>`
/// is a garbled header, and the coordinator allocates nothing for it.
const MAX_FRAME: usize = 64 * 1024;

const USAGE: &str = "\
usage: serve [--worker]

Coordinator mode (default): reads one request per stdin line —
  sweep|mc|optimize grid=NAME format=csv|json [shards=N] [reps=N] [seed=N] [cache=DIR]
— and streams the rows back on stdout between BEGIN/END markers.

--worker is the internal child-process mode the coordinator spawns;
it is not meant to be invoked by hand.
";

/// One parsed request (shared between coordinator and worker: the task
/// lines the coordinator sends are requests plus a cell range).
#[derive(Debug)]
struct Request {
    engine: RowEngine,
    grid_name: String,
    grid: ScenarioGrid,
    format: RowFormat,
    shards: usize,
    plan: ReplicationPlan,
    cache: Option<String>,
}

impl Request {
    fn parse(line: &str) -> Result<Request, String> {
        let (engine, mut fields) = Request::fields(line)?;
        Request::read(engine, &mut fields)
    }

    /// Splits a line into its engine word and its fields.
    fn fields(line: &str) -> Result<(RowEngine, Fields), String> {
        let mut words = line.split_whitespace();
        let engine = words
            .next()
            .and_then(RowEngine::from_label)
            .ok_or("request must start with sweep|mc|optimize")?;
        Ok((engine, Fields::line(words)))
    }

    /// Reads the request fields; any field left over is an error.
    fn read(engine: RowEngine, f: &mut Fields) -> Result<Request, String> {
        let (grid_name, grid) = f.grid("mixed-8")?;
        let request = Request {
            engine,
            grid_name,
            grid,
            format: f.format()?,
            shards: f.checked("shards", |&n| n > 0, "at least 1")?.unwrap_or(2),
            plan: ReplicationPlan::new(f.reps("reps")?.unwrap_or(5))
                .master_seed(f.parse("seed")?.unwrap_or(7)),
            cache: f.value("cache")?,
        };
        f.finish()?;
        Ok(request)
    }

    /// The task line dispatched to a worker for one chunk.
    fn task_line(&self, range: &Range<usize>, faults: Faults) -> String {
        let mut line = format!(
            "task {} grid={} format={} range={}:{} reps={} seed={}",
            self.engine.label(),
            self.grid_name,
            self.format.label(),
            range.start,
            range.end,
            self.plan.replications(),
            self.plan.seeds().master(),
        );
        if let Some(dir) = &self.cache {
            line.push_str(&format!(" cache={dir}"));
        }
        if let Some(cell) = faults.crash {
            line.push_str(&format!(" crash={cell}"));
        }
        if let Some(cell) = faults.flip {
            line.push_str(&format!(" flip={cell}"));
        }
        line
    }
}

/// The fault-injection hooks: cells whose chunk fails on its first
/// attempt.
#[derive(Clone, Copy)]
struct Faults {
    /// `CORRIDOR_SERVE_CRASH_CELL`: the worker dies right before this
    /// cell's row.
    crash: Option<usize>,
    /// `CORRIDOR_SERVE_FLIP_CELL`: the worker flips one byte of this
    /// cell's frame after adding the row to the chunk's sum.
    flip: Option<usize>,
}

impl Faults {
    /// Reads the hooks from the environment. A hook that is set but is
    /// not a cell index is an error, so a mistyped hook cannot silently
    /// turn fault injection off.
    fn from_env() -> Result<Faults, String> {
        let cell = |name: &str| match std::env::var_os(name) {
            None => Ok(None),
            Some(value) => value
                .to_str()
                .and_then(|v| v.parse().ok())
                .map(Some)
                .ok_or_else(|| format!("{name}={value:?} is not a cell index")),
        };
        Ok(Faults {
            crash: cell("CORRIDOR_SERVE_CRASH_CELL")?,
            flip: cell("CORRIDOR_SERVE_FLIP_CELL")?,
        })
    }

    /// The hooks that fire on this attempt at the chunk `range`: on the
    /// first attempt only, so the retry must succeed and reproduce the
    /// exact rows.
    fn on_attempt(self, attempt: u32, range: &Range<usize>) -> Faults {
        let fire = |cell: Option<usize>| cell.filter(|c| attempt == 1 && range.contains(c));
        Faults {
            crash: fire(self.crash),
            flip: fire(self.flip),
        }
    }
}

fn main() -> ExitCode {
    args::run("serve", USAGE, &["worker"], |f, out| {
        let worker = f.flag("worker");
        f.finish()?;
        if worker {
            worker_main(out)
        } else {
            coordinator_main(out)
        }
    })
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

/// A chunk's rows as returned by one worker.
#[derive(Debug)]
struct ChunkResult {
    rows: Vec<Vec<u8>>,
    cache_hits: u64,
    cache_misses: u64,
}

/// Why a request did not end with `END`.
enum Failure {
    /// The request failed: its response ends with an `ERROR` line.
    Request(String),
    /// A write to stdout failed: the session ends without another line.
    Stdout(io::Error),
}

impl From<String> for Failure {
    fn from(error: String) -> Failure {
        Failure::Request(error)
    }
}

impl From<io::Error> for Failure {
    fn from(error: io::Error) -> Failure {
        Failure::Stdout(error)
    }
}

impl From<SinkError> for Failure {
    fn from(error: SinkError) -> Failure {
        Failure::Stdout(match error {
            SinkError::Io(error) => error,
            SinkError::Closed => io::ErrorKind::BrokenPipe.into(),
        })
    }
}

fn coordinator_main(out: &mut Stdout) -> Result<ExitCode, Stop> {
    let faults = match Faults::from_env() {
        Ok(faults) => faults,
        Err(error) => {
            eprintln!("serve: {error}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let pool = WorkerPool::new();
    let mut out = io::BufWriter::new(out);
    let mut failed = false;
    let mut stdin = io::stdin().lock();
    let mut line = Vec::new();
    loop {
        let text = match read_request_line(&mut stdin, &mut line) {
            Ok(Some(text)) => text,
            Ok(None) => break,
            Err(error) => {
                eprintln!("serve: stdin: {error}");
                failed = true;
                break;
            }
        };
        let answered = match text.map(str::trim) {
            Ok(text) if text.is_empty() || text.starts_with('#') => continue,
            Ok(text) => Request::parse(text),
            Err(error) => Err(error),
        }
        .map_err(|error| Failure::Request(format!("bad request: {error}")))
        .and_then(|request| serve_request(&request, &pool, faults, &mut out));
        let written = match answered {
            Ok(()) => Ok(()),
            Err(Failure::Request(error)) => {
                // the protocol stays parseable: an ERROR line instead
                // of an END trailer tells the client the stream is void
                eprintln!("serve: {error}");
                failed = true;
                writeln!(out, "ERROR {error}").and_then(|()| out.flush())
            }
            Err(Failure::Stdout(error)) => Err(error),
        };
        if let Err(error) = written {
            // drop the unwritten bytes: nothing more goes to stdout
            let _ = out.into_parts();
            drop(pool);
            let error = format!("{error}; stopped and reaped every worker");
            return Err(Stop::Stdout(io::Error::other(error)));
        }
    }
    // kill and reap every worker before exiting, so their CPU time
    // counts in the caller's RUSAGE_CHILDREN
    drop(pool);
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Reads the next request line into `line`, keeping at most
/// [`MAX_REQUEST_LINE`] bytes of it: `Ok(None)` at EOF, else the line's
/// text or why it cannot be a request. A longer line is drained to its
/// newline without being kept.
fn read_request_line<'a>(
    reader: &mut impl BufRead,
    line: &'a mut Vec<u8>,
) -> io::Result<Option<Result<&'a str, String>>> {
    // at most one byte past the cap, so an over-long line shows itself
    let mut piece = |line: &mut Vec<u8>| {
        line.clear();
        let limit = MAX_REQUEST_LINE as u64 + 1;
        reader.by_ref().take(limit).read_until(b'\n', line)
    };
    if piece(line)? == 0 {
        return Ok(None);
    }
    if line.last() == Some(&b'\n') {
        line.pop();
    } else if line.len() > MAX_REQUEST_LINE {
        // drain the rest, one bounded piece at a time
        while line.last() != Some(&b'\n') && piece(line)? > 0 {}
        return Ok(Some(Err("line too long".into())));
    }
    Ok(Some(
        std::str::from_utf8(line).map_err(|e| format!("not UTF-8: {e}")),
    ))
}

fn serve_request(
    request: &Request,
    pool: &WorkerPool,
    faults: Faults,
    out: &mut impl Write,
) -> Result<(), Failure> {
    let cells = request.grid.len();
    // small grids still split across every shard; large grids cap the
    // chunk so a retry never re-evaluates more than CHUNK_CELLS cells
    let chunk_cells = cells.div_ceil(request.shards).clamp(1, CHUNK_CELLS);
    let chunks = (0..cells)
        .step_by(chunk_cells)
        .map(|start| start..(start + chunk_cells).min(cells));
    // no more threads than chunks: a one-chunk request runs on this thread
    let shards = request.shards.min(cells.div_ceil(chunk_cells));

    writeln!(
        out,
        "BEGIN {} grid={} format={} cells={} shards={}",
        request.engine.label(),
        request.grid_name,
        request.format.label(),
        cells,
        request.shards,
    )
    .and_then(|()| out.flush())?;

    let mut sink = HashingSink {
        out,
        digest: Sha256::new(),
    };
    let mut emitter = RowEmitter::begin(&mut sink, request.format, request.engine.csv_header())?;
    let (mut cache_hits, mut cache_misses) = (0u64, 0u64);
    let streamed = rayon::stream_ordered(
        chunks.enumerate(),
        shards,
        2 * shards,
        |(index, range)| run_chunk_with_retry(pool, request, index, &range, faults),
        |result| -> Result<(), Failure> {
            let chunk = result.map_err(|e| Failure::Request(format!("chunk failed: {e}")))?;
            for row in &chunk.rows {
                let text = std::str::from_utf8(row)
                    .map_err(|e| Failure::Request(format!("bad row bytes: {e}")))?;
                emitter.row(text)?;
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
    let rows = emitter.finish()?;
    let sha256 = sink.digest.finalize_hex();
    writeln!(
        sink.out,
        "END rows={rows} sha256={sha256} cache_hits={cache_hits} cache_misses={cache_misses}"
    )
    .and_then(|()| sink.out.flush())
    .map_err(Failure::from)
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
#[derive(Debug)]
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
    range: &Range<usize>,
    faults: Faults,
) -> Result<ChunkResult, String> {
    let mut last_error = String::new();
    for attempt in 1..=MAX_ATTEMPTS {
        let mut worker = match pool.take() {
            Ok(worker) => worker,
            Err(error) => {
                last_error = format!("cannot spawn worker: {error}");
                continue;
            }
        };
        let hooks = faults.on_attempt(attempt, range);
        match run_chunk(&mut worker, request, range, hooks) {
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
    range: &Range<usize>,
    faults: Faults,
) -> Result<ChunkResult, ChunkFailure> {
    let task = request.task_line(range, faults);
    writeln!(worker.stdin, "{task}")
        .and_then(|()| worker.stdin.flush())
        .map_err(|e| ChunkFailure::Death(format!("worker stdin: {e}")))?;
    read_chunk(&mut worker.stdout)
}

/// Reads one chunk's answer: `row <len>` frames up to a `done` trailer
/// whose row count and [`ChunkSum`] match them, or an `error` line.
fn read_chunk(reader: &mut impl BufRead) -> Result<ChunkResult, ChunkFailure> {
    use ChunkFailure::Death;
    let mut rows = Vec::new();
    let mut sum = ChunkSum::new();
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader
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
            if length > MAX_FRAME {
                return Err(Death(format!(
                    "frame of {length} bytes exceeds {MAX_FRAME}"
                )));
            }
            let mut bytes = vec![0u8; length + 1];
            reader
                .read_exact(&mut bytes)
                .map_err(|_| Death("worker died mid-frame".into()))?;
            if bytes.pop() != Some(b'\n') {
                return Err(Death("frame missing terminator".into()));
            }
            sum.add(&bytes);
            rows.push(bytes);
        } else if let Some(trailer) = line.strip_prefix("done ") {
            let (count, hits, misses, trailer_sum) = parse_done(trailer).map_err(Death)?;
            if count != rows.len() as u64 || trailer_sum != sum.hex() {
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
    let (mut rows, mut hits, mut misses, mut sum) = (None, None, None, None);
    for word in trailer.split_whitespace() {
        match word.split_once('=') {
            Some(("rows", v)) => rows = v.parse().ok(),
            Some(("cache_hits", v)) => hits = v.parse().ok(),
            Some(("cache_misses", v)) => misses = v.parse().ok(),
            Some(("sum", v)) => sum = Some(v.to_owned()),
            _ => return Err(format!("bad done field {word:?}")),
        }
    }
    match (rows, hits, misses, sum) {
        (Some(r), Some(h), Some(m), Some(s)) => Ok((r, h, m, s)),
        _ => Err("incomplete done trailer".into()),
    }
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

/// Child-process mode: evaluates task lines from the coordinator,
/// streaming each chunk's rows back as length-prefixed frames. Every
/// task runs through one [`EvalContext`], kept until stdin EOF, and
/// every task naming the same cache directory as the one before it
/// through the same [`ResultCache`]. A failed task is answered with an
/// `error` line; a failed write to stdout (the coordinator is gone)
/// ends the worker.
fn worker_main(out: &mut Stdout) -> Result<ExitCode, Stop> {
    let context = EvalContext::new();
    let mut cache = None;
    let stdin = io::stdin();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(line) => line,
            Err(_) => return Ok(ExitCode::FAILURE),
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        match run_task(trimmed, &context, &mut cache, out) {
            Err(Failure::Request(error)) => {
                writeln!(out, "error {error}")?;
                out.flush()?;
            }
            Err(Failure::Stdout(error)) => return Err(Stop::Stdout(error)),
            Ok(()) => {}
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Runs one task line. `held` is the session's open cache and the
/// directory it was opened for: a task naming another directory opens
/// that one in its place, so a worker keeps the checksums its cache has
/// verified for as long as its tasks name one directory.
fn run_task(
    line: &str,
    context: &EvalContext,
    held: &mut Option<(String, ResultCache)>,
    out: &mut Stdout,
) -> Result<(), Failure> {
    let rest = line
        .strip_prefix("task ")
        .ok_or_else(|| format!("unexpected line {line:?}"))?;
    // a task line is a request plus the chunk's cell range (and the
    // fault hooks), all in one field list
    let (engine, mut fields) = Request::fields(rest)?;
    let range = fields.range("range")?.unwrap_or(0..0);
    let crash: Option<usize> = fields.parse("crash")?;
    let flip: Option<usize> = fields.parse("flip")?;
    let request = Request::read(engine, &mut fields)?;
    let grid = &request.grid;
    if range.start > range.end || range.end > grid.len() {
        return Err(format!(
            "range {}:{} outside the {}-cell grid",
            range.start,
            range.end,
            grid.len()
        )
        .into());
    }
    let cache = match &request.cache {
        Some(dir) => {
            if !matches!(held, Some((open, _)) if open == dir) {
                let cache = ResultCache::open(dir).map_err(|e| format!("cache {dir}: {e}"))?;
                *held = Some((dir.clone(), cache));
            }
            held.as_ref().map(|(_, cache)| cache)
        }
        None => None,
    };

    let mut out = io::BufWriter::new(out);
    let mut emitted = 0usize;
    let mut sum = ChunkSum::new();
    let mut emit = |row: &str| -> Result<(), StreamError> {
        let cell = range.start + emitted;
        // the injected fault: die mid-shard right before this cell's row
        if crash == Some(cell) {
            let _ = out.flush();
            std::process::exit(101);
        }
        emitted += 1;
        sum.add(row.as_bytes());
        let mut frame = Cow::Borrowed(row.as_bytes());
        // the other injected fault: a frame that no longer matches the sum
        if flip == Some(cell) {
            if let Some(byte) = frame.to_mut().first_mut() {
                *byte ^= 1;
            }
        }
        writeln!(out, "row {}", frame.len())
            .and_then(|()| out.write_all(&frame))
            .and_then(|()| out.write_all(b"\n"))
            .map_err(|e| StreamError::Sink(SinkError::Io(e)))
    };

    let summary = match request.engine.stream_rows(
        context,
        grid,
        &request.plan,
        range.clone(),
        request.format,
        cache,
        &mut emit,
    ) {
        Ok(summary) => summary,
        // emit's only sink is stdout
        Err(StreamError::Sink(error)) => return Err(error.into()),
        Err(error) => return Err(Failure::Request(error.to_string())),
    };

    writeln!(
        out,
        "done rows={} cache_hits={} cache_misses={} sum={}",
        summary.cells,
        summary.cache_hits,
        summary.cache_misses,
        sum.hex(),
    )
    .and_then(|()| out.flush())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `sum=` of a chunk of `rows`.
    fn sum(rows: &[&str]) -> String {
        let mut sum = ChunkSum::new();
        for row in rows {
            sum.add(row.as_bytes());
        }
        sum.hex()
    }

    fn read(answer: &str) -> Result<ChunkResult, ChunkFailure> {
        read_chunk(&mut answer.as_bytes())
    }

    /// Asserts that `answer` is a worker death whose message says `why`.
    fn death(answer: &str, why: &str) {
        match read(answer) {
            Err(ChunkFailure::Death(message)) => {
                assert!(message.contains(why), "{answer:?}: {message}");
            }
            other => panic!("{answer:?}: a death expected, got {other:?}"),
        }
    }

    #[test]
    fn a_chunk_whose_trailer_matches_its_frames_is_read() {
        let answer = format!(
            "row 3\nabc\nrow 0\n\ndone rows=2 cache_hits=1 cache_misses=1 sum={}\n",
            sum(&["abc", ""])
        );
        let chunk = read(&answer).expect("a good chunk");
        assert_eq!(chunk.rows, [b"abc".to_vec(), Vec::new()]);
        assert_eq!((chunk.cache_hits, chunk.cache_misses), (1, 1));
    }

    #[test]
    fn eof_mid_chunk_is_a_death() {
        death("row 3\nabc\n", "eof");
        death("", "eof");
    }

    #[test]
    fn a_truncated_frame_is_a_death() {
        death("row 10\nabc", "mid-frame");
    }

    #[test]
    fn a_frame_without_its_terminator_is_a_death() {
        death("row 3\nabcd\n", "terminator");
    }

    #[test]
    fn a_non_numeric_frame_length_is_a_death() {
        death("row three\nabc\n", "bad frame");
        death("row -1\n", "bad frame");
    }

    #[test]
    fn an_oversized_frame_length_is_a_death_not_an_allocation() {
        death("row 1099511627776\n", "exceeds");
        death(&format!("row {}\nabc\n", usize::MAX), "exceeds");
        death(&format!("row {}\n", MAX_FRAME + 1), "exceeds");
        // a frame of exactly the bound is still read
        let row = "x".repeat(MAX_FRAME);
        let answer = format!(
            "row {MAX_FRAME}\n{row}\ndone rows=1 cache_hits=0 cache_misses=0 sum={}\n",
            sum(&[&row])
        );
        assert_eq!(read(&answer).expect("a frame at the bound").rows.len(), 1);
    }

    #[test]
    fn a_wrong_row_count_is_a_death() {
        let abc = sum(&["abc"]);
        death(
            &format!("row 3\nabc\ndone rows=2 cache_hits=0 cache_misses=0 sum={abc}\n"),
            "does not match",
        );
        death(
            &format!("done rows=1 cache_hits=0 cache_misses=0 sum={abc}\n"),
            "does not match",
        );
    }

    #[test]
    fn a_checksum_mismatch_is_a_death() {
        // one flipped byte, as the CORRIDOR_SERVE_FLIP_CELL hook sends it
        death(
            &format!(
                "row 3\nabd\ndone rows=1 cache_hits=0 cache_misses=0 sum={}\n",
                sum(&["abc"])
            ),
            "does not match",
        );
        // the same bytes, framed as other rows
        death(
            &format!(
                "row 2\nab\nrow 1\nc\ndone rows=2 cache_hits=0 cache_misses=0 sum={}\n",
                sum(&["a", "bc"])
            ),
            "does not match",
        );
        // the trailer's checksum field is `sum=`, nothing else
        death(
            "row 3\nabc\ndone rows=1 cache_hits=0 cache_misses=0 sha256=ba7816bf\n",
            "bad done field",
        );
        death("done rows=0 cache_hits=0 cache_misses=0\n", "incomplete");
    }

    #[test]
    fn an_unknown_line_is_a_death() {
        death("hello\n", "unexpected worker line");
        death("row 3\nabc\nrows 1\n", "unexpected worker line");
    }

    /// Every request line of `input`, read as the coordinator reads them.
    fn request_lines(mut input: &[u8]) -> Vec<Result<String, String>> {
        let mut line = Vec::new();
        let mut lines = Vec::new();
        while let Some(text) = read_request_line(&mut input, &mut line).expect("in memory") {
            lines.push(text.map(str::to_owned));
        }
        lines
    }

    #[test]
    fn request_lines_are_capped_and_the_rest_of_a_long_line_is_dropped() {
        let cap = "x".repeat(MAX_REQUEST_LINE);
        let over = "x".repeat(MAX_REQUEST_LINE + 1);
        let huge = "x".repeat(3 * MAX_REQUEST_LINE + 5);
        let too_long = || Err("line too long".to_owned());
        assert_eq!(
            request_lines(format!("{cap}\n{over}\na\n{huge}\n{huge}").as_bytes()),
            [Ok(cap), too_long(), Ok("a".into()), too_long(), too_long()]
        );
        assert_eq!(
            request_lines(b"a\n\nb"),
            [Ok("a".into()), Ok("".into()), Ok("b".into())]
        );
        assert!(request_lines(b"").is_empty());
    }

    #[test]
    fn a_line_that_is_not_utf8_is_an_error_and_the_next_line_is_read() {
        match request_lines(b"sweep \xff\nmc\n").as_slice() {
            [Err(error), Ok(next)] => {
                assert!(error.starts_with("not UTF-8: "), "{error}");
                assert_eq!(next, "mc");
            }
            other => panic!("an error and a line expected, got {other:?}"),
        }
    }

    #[test]
    fn an_error_line_is_an_answer_not_a_death() {
        match read("error cache /dev/null/x: not a directory\n") {
            Err(ChunkFailure::Answer(message)) => {
                assert_eq!(message, "cache /dev/null/x: not a directory");
            }
            other => panic!("an answer expected, got {other:?}"),
        }
    }
}
