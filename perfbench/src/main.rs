//! Helper binary of the corridor benchmark (`perfbench/run.py`).
//!
//! ```console
//! $ corridor_perfbench info
//! $ echo "mc grid=screening-200 reps=10 seed=5 format=csv" | corridor_perfbench digest
//! $ corridor_perfbench ledger --work-dir DIR --mc REQUEST --network REQUEST... --probe REQUEST...
//! ```
//!
//! `digest` prints, for every request line on stdin, the SHA-256 of the
//! bytes the library's in-process `stream` writes for it: the reference
//! every `serve` payload is checked against.
//! `ledger` is the traced per-layer run (see `ledger.rs`).

mod ledger;
mod trace;

use std::io::{self, BufRead, Write};
use std::process::ExitCode;

use corridor_core::sink::{DigestSink, RowFormat, RowSink};
use corridor_core::units::Meters;
use corridor_sim::{
    CorridorNetwork, DeploymentOptimizer, McEngine, ReplicationPlan, ScenarioGrid, SearchSpace,
    StreamSummary, SweepEngine,
};

/// One request in the `serve` line protocol (`sweep|mc|optimize`), or a
/// `network` invocation written as `network topology=T reps=R seed=S`.
#[derive(Debug, Clone)]
pub struct Request {
    pub engine: String,
    pub grid: String,
    pub topology: String,
    pub format: RowFormat,
    pub workers: usize,
    pub reps: usize,
    pub seed: u64,
}

impl Request {
    /// Parses a request line; defaults mirror `serve` (reps 5, seed 7,
    /// csv, 2 shards) and `network --simulate` (20 reps, seed 42).
    pub fn parse(line: &str) -> Result<Request, String> {
        let mut words = line.split_whitespace();
        let engine = words.next().ok_or("empty request")?.to_owned();
        let network = engine == "network";
        if !network && !matches!(engine.as_str(), "sweep" | "mc" | "optimize") {
            return Err(format!("unknown engine {engine:?}"));
        }
        let mut request = Request {
            engine,
            grid: "mixed-8".into(),
            topology: "wye3".into(),
            format: RowFormat::Csv,
            workers: 2,
            reps: if network { 20 } else { 5 },
            seed: if network { 42 } else { 7 },
        };
        for word in words {
            let (key, value) = word
                .split_once('=')
                .ok_or_else(|| format!("malformed field {word:?}"))?;
            let number = |what: &str| format!("{what}: bad number {value:?}");
            match key {
                "grid" => request.grid = value.to_owned(),
                "topology" => request.topology = value.to_owned(),
                "format" => {
                    request.format = RowFormat::from_label(value)
                        .ok_or_else(|| format!("unknown format {value:?}"))?;
                }
                "shards" | "workers" => {
                    request.workers = value.parse().map_err(|_| number(key))?;
                }
                "reps" => request.reps = value.parse().map_err(|_| number(key))?,
                "seed" => request.seed = value.parse().map_err(|_| number(key))?,
                // the in-process reference is the uncached stream: a
                // cache hit must reproduce exactly these bytes
                "cache" => {}
                other => return Err(format!("unknown field {other:?}")),
            }
        }
        if request.workers == 0 || request.reps == 0 {
            return Err("workers and reps must be positive".into());
        }
        Ok(request)
    }

    pub fn grid(&self) -> Result<ScenarioGrid, String> {
        ScenarioGrid::by_name(&self.grid).ok_or_else(|| format!("unknown grid {:?}", self.grid))
    }

    pub fn plan(&self) -> ReplicationPlan {
        ReplicationPlan::new(self.reps).master_seed(self.seed)
    }

    pub fn network(&self) -> Result<CorridorNetwork, String> {
        CorridorNetwork::by_name(&self.topology)
            .ok_or_else(|| format!("unknown topology {:?}", self.topology))
    }

    /// Streams a `serve` request's response in-process at the request's
    /// worker count.
    pub fn stream(&self, sink: &mut dyn RowSink) -> Result<StreamSummary, String> {
        let err = |e: &dyn std::fmt::Display| e.to_string();
        match self.engine.as_str() {
            "sweep" => SweepEngine::new()
                .workers(self.workers)
                .stream(&self.grid()?, self.format, sink)
                .map_err(|e| err(&e)),
            "mc" => McEngine::new()
                .workers(self.workers)
                .stream(&self.grid()?, &self.plan(), self.format, sink)
                .map_err(|e| err(&e)),
            "optimize" => DeploymentOptimizer::new()
                .workers(self.workers)
                .stream(&self.grid()?, &serve_search_space(), self.format, sink)
                .map_err(|e| err(&e)),
            other => Err(format!("{other} requests are not served")),
        }
    }
}

/// The search space `serve` answers `optimize` requests with (0–6
/// repeaters at the default ISD resolution). A change to the served
/// space shows up here as a digest mismatch.
pub fn serve_search_space() -> SearchSpace {
    SearchSpace::new().node_counts((0..=6).collect())
}

/// The search space of the `network` binary's default options.
pub fn network_search_space() -> SearchSpace {
    SearchSpace::new().sample_step(Meters::new(10.0))
}

/// SHA-256 of the in-process stream of `request`.
pub fn reference_digest(request: &Request) -> Result<String, String> {
    let mut sink = DigestSink::new();
    request.stream(&mut sink)?;
    Ok(sink.hex())
}

fn digest_main() -> Result<(), String> {
    let stdout = io::stdout();
    let mut out = stdout.lock();
    for line in io::stdin().lock().lines() {
        let line = line.map_err(|e| format!("stdin: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        let sha = reference_digest(&Request::parse(&line)?)?;
        writeln!(out, "{sha}").map_err(|e| format!("stdout: {e}"))?;
    }
    out.flush().map_err(|e| format!("stdout: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("info") => {
            let nproc = std::thread::available_parallelism().map_or(1, usize::from);
            println!("nproc {nproc}");
            Ok(())
        }
        Some("digest") => digest_main(),
        Some("ledger") => ledger::main(&args[1..]),
        _ => Err("usage: corridor_perfbench info | digest | ledger [options]".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("corridor_perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
