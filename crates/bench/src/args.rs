//! The one argument grammar of the engine CLIs (`sweep`, `mc`,
//! `optimize`, `network`, `simulate`) and of `serve`'s request and
//! worker task lines.
//!
//! A CLI's `--key value` and bare `--flag` arguments and a line's
//! `key=value` words become the same [`Fields`]. Every binary reads its
//! options through the typed readers here, so the rules live in one
//! place: `<name>: <parse error>` messages, bounds, the stand-alone rule
//! of fixed renderings, the "only applies to" rule and the rejection of
//! unknown fields. A repeated field keeps its last value.
//!
//! Every binary also writes its stdout through this module: [`run`] and
//! [`output`] own the one fallible writer, so a reader that goes away
//! ends the binary with `<name>: stdout: <error>` and exit status
//! [`STDOUT_CLOSED`] instead of a panic. [`stream`] is the one row
//! output of the engine CLIs' `--csv`/`--json`.

use std::fmt;
use std::io::{self, BufWriter, Write as _};
use std::ops::Range;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Instant;

use corridor_core::sink::{RowFormat, RowSink, SinkError, WriteSink};
use corridor_sim::{IsdSearch, NetworkError, ScenarioGrid, StreamError, StreamSummary};

/// Largest replication or simulated-day count any CLI or request may
/// ask for, so no invocation can occupy the workers for days.
pub const MAX_REPS: usize = 10_000;

/// Exit status after a failed write to stdout: a reader that went away,
/// say (`sweep | head -c 1`).
pub const STDOUT_CLOSED: u8 = 2;

/// The one stdout every binary writes through: std's own line-buffered
/// handle, locked once for the whole run, so a result written here and
/// a timing line on stderr keep their order on a terminal.
pub type Stdout = io::StdoutLock<'static>;

/// Why a binary's body stopped early.
#[derive(Debug)]
pub enum Stop {
    /// A usage error: [`run`] prints `<name>: <message>` and the usage
    /// on stderr, and the exit status is 1.
    Usage(String),
    /// A write to stdout failed: `<name>: stdout: <error>` goes to
    /// stderr, and the exit status is [`STDOUT_CLOSED`].
    Stdout(io::Error),
}

impl From<String> for Stop {
    fn from(message: String) -> Stop {
        Stop::Usage(message)
    }
}

impl From<io::Error> for Stop {
    fn from(error: io::Error) -> Stop {
        Stop::Stdout(error)
    }
}

/// Runs a binary on its process arguments: `--help` or `-h` prints
/// `usage` and exits 0; otherwise `body` reads its options, calls
/// [`Fields::finish`] and runs, writing its results to the [`Stdout`]
/// of [`output`]. A [`Stop::Usage`] from `body` is a usage error:
/// `<name>: <message>` and the usage go to stderr, and the exit code is
/// 1. `flags` are the options that take no value.
pub fn run(
    name: &str,
    usage: &str,
    flags: &[&str],
    body: impl FnOnce(&mut Fields, &mut Stdout) -> Result<ExitCode, Stop>,
) -> ExitCode {
    output(name, |out| {
        let ran = match Fields::cli(std::env::args().skip(1), flags) {
            Ok(Some(mut fields)) => body(&mut fields, out),
            Ok(None) => return out.write_all(usage.as_bytes()).map(|()| ExitCode::SUCCESS),
            Err(message) => Err(Stop::Usage(message)),
        };
        match ran {
            Ok(code) => Ok(code),
            Err(Stop::Usage(message)) => {
                eprintln!("{name}: {message}");
                eprint!("{usage}");
                Ok(ExitCode::FAILURE)
            }
            Err(Stop::Stdout(error)) => Err(error),
        }
    })
}

/// Runs `body` on the process's one [`Stdout`] and flushes it. If a
/// write fails, `<name>: stdout: <error>` goes to stderr and the exit
/// status is [`STDOUT_CLOSED`]; nothing panics.
pub fn output(name: &str, body: impl FnOnce(&mut Stdout) -> io::Result<ExitCode>) -> ExitCode {
    let mut out = io::stdout().lock();
    match body(&mut out).and_then(|code| out.flush().map(|()| code)) {
        Ok(code) => code,
        Err(error) => {
            eprintln!("{name}: stdout: {error}");
            ExitCode::from(STDOUT_CLOSED)
        }
    }
}

/// Prints `text` through [`output`]: the whole body of the fixed
/// reproduction binaries.
pub fn print(name: &str, text: &str) -> ExitCode {
    output(name, |out| {
        out.write_all(text.as_bytes()).map(|()| ExitCode::SUCCESS)
    })
}

/// An engine's streaming error: a failed write to stdout, or anything
/// else that stopped the rows.
pub trait RowsError: fmt::Display + Sized {
    /// The failed write to stdout this error carries, or the error
    /// itself when it carries none.
    fn into_stdout(self) -> Result<io::Error, Self>;
}

impl RowsError for StreamError {
    fn into_stdout(self) -> Result<io::Error, Self> {
        match self {
            StreamError::Sink(SinkError::Io(error)) => Ok(error),
            other => Err(other),
        }
    }
}

impl RowsError for NetworkError {
    fn into_stdout(self) -> Result<io::Error, Self> {
        match self {
            NetworkError::Stream(error) => error.into_stdout().map_err(NetworkError::Stream),
            other => Err(other),
        }
    }
}

/// Streams an engine's rows to `out` (the `--csv`/`--json` mode of
/// every engine CLI) and reports the count, the time and any result
/// cache traffic on stderr. A failed write to stdout is a
/// [`Stop::Stdout`]; any other engine error prints `<name>: <error>`
/// and the exit status is 1.
pub fn stream<E: RowsError>(
    name: &str,
    out: &mut Stdout,
    label: &str,
    workers: Option<usize>,
    rows: impl FnOnce(&mut dyn RowSink) -> Result<StreamSummary, E>,
) -> Result<ExitCode, Stop> {
    let started = Instant::now();
    let mut sink = WriteSink::new(BufWriter::new(out));
    let summary = match rows(&mut sink).map_err(E::into_stdout) {
        Ok(summary) => summary,
        Err(Ok(error)) => return Err(error.into()),
        Err(Err(error)) => {
            eprintln!("{name}: {error}");
            return Ok(ExitCode::FAILURE);
        }
    };
    sink.into_inner().flush()?;
    eprintln!(
        "streamed {} {label} in {:.0} ms (workers: {})",
        summary.cells,
        started.elapsed().as_secs_f64() * 1e3,
        workers_label(workers),
    );
    if summary.cache_hits + summary.cache_misses > 0 {
        eprintln!(
            "cache: {} hits, {} misses ({:.0} % warm)",
            summary.cache_hits,
            summary.cache_misses,
            summary.hit_rate() * 100.0,
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// The `auto` label of an unset worker count.
pub fn workers_label(workers: Option<usize>) -> String {
    workers.map_or_else(|| "auto".to_owned(), |n| n.to_string())
}

/// The `key[=value]` fields of one command line or request line.
#[derive(Debug)]
pub struct Fields {
    fields: Vec<(String, Option<String>)>,
    /// Spelled `--key` (a command line), not `key` (a request line).
    cli: bool,
}

impl Fields {
    /// The fields of a command line (without the binary name); `None`
    /// when `--help` or `-h` asks for the usage. Each `--key` not among
    /// `flags` takes the next argument as its value.
    pub fn cli(
        args: impl IntoIterator<Item = String>,
        flags: &[&str],
    ) -> Result<Option<Fields>, String> {
        let mut args = args.into_iter();
        let mut fields = Vec::new();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                _ if arg == "--help" || arg == "-h" => return Ok(None),
                Some(key) if !key.is_empty() => {
                    let value = if flags.contains(&key) {
                        None
                    } else {
                        args.next()
                    };
                    fields.push((key.to_owned(), value));
                }
                _ => return Err(format!("unknown option {arg}")),
            }
        }
        Ok(Some(Fields { fields, cli: true }))
    }

    /// The fields of a request line's `key=value` words.
    pub fn line<'a>(words: impl IntoIterator<Item = &'a str>) -> Fields {
        let field = |word: &str| match word.split_once('=') {
            Some((key, value)) => (key.to_owned(), Some(value.to_owned())),
            None => (word.to_owned(), None),
        };
        let fields = words.into_iter().map(field).collect();
        Fields { fields, cli: false }
    }

    fn name(&self, key: &str) -> String {
        format!("{}{key}", if self.cli { "--" } else { "" })
    }

    /// Removes every `key` field and returns the last one's value.
    fn take(&mut self, key: &str) -> Option<Option<String>> {
        let last = self.fields.iter().rev().find(|(k, _)| k == key);
        let last = last.map(|(_, value)| value.clone());
        self.fields.retain(|(k, _)| k != key);
        last
    }

    /// Whether the bare flag `key` is given.
    pub fn flag(&mut self, key: &str) -> bool {
        self.take(key).is_some()
    }

    /// The text value of `key`.
    pub fn value(&mut self, key: &str) -> Result<Option<String>, String> {
        match self.take(key) {
            Some(None) => Err(format!("{} needs a value", self.name(key))),
            value => Ok(value.flatten()),
        }
    }

    /// The value of `key` parsed as `T`.
    pub fn parse<T: FromStr<Err: fmt::Display>>(&mut self, key: &str) -> Result<Option<T>, String> {
        let value = self.value(key)?;
        value
            .map(|v| v.parse().map_err(|e| format!("{}: {e}", self.name(key))))
            .transpose()
    }

    /// The value of `key` parsed as `T`; `<name> must be <rule>` unless
    /// it is `valid`.
    pub fn checked<T: FromStr<Err: fmt::Display>>(
        &mut self,
        key: &str,
        valid: impl FnOnce(&T) -> bool,
        rule: &str,
    ) -> Result<Option<T>, String> {
        match self.parse(key)? {
            Some(v) if !valid(&v) => Err(format!("{} must be {rule}", self.name(key))),
            v => Ok(v),
        }
    }

    /// A replication or simulated-day count, 1 to [`MAX_REPS`].
    pub fn reps(&mut self, key: &str) -> Result<Option<usize>, String> {
        let rule = format!("between 1 and {MAX_REPS}");
        self.checked(key, |n| (1..=MAX_REPS).contains(n), &rule)
    }

    /// `--nodes`: repeaters per segment, 0-10 (default 10).
    pub fn nodes(&mut self) -> Result<usize, String> {
        let nodes = self.checked("nodes", |n| *n <= 10, "0-10 (the paper's ISD table)")?;
        Ok(nodes.unwrap_or(10))
    }

    /// A finite float: NaN or ±∞ parse, but would silently poison the
    /// search they configure.
    pub fn finite(&mut self, key: &str) -> Result<Option<f64>, String> {
        self.checked(key, |x: &f64| x.is_finite(), "finite")
    }

    /// A positive, finite float.
    pub fn positive(&mut self, key: &str) -> Result<Option<f64>, String> {
        self.checked(
            key,
            |x: &f64| x.is_finite() && *x > 0.0,
            "positive and finite",
        )
    }

    /// The choice `key` names, with its label; the first choice when
    /// `key` is absent.
    pub fn pick<T, const N: usize>(
        &mut self,
        key: &str,
        choices: [(&'static str, T); N],
    ) -> Result<(&'static str, T), String> {
        let wanted = self.value(key)?;
        let labels: Vec<&str> = choices.iter().map(|(label, _)| *label).collect();
        let mut choices = choices.into_iter();
        let chosen = match &wanted {
            None => choices.next(),
            Some(wanted) => choices.find(|(label, _)| label == wanted),
        };
        chosen.ok_or_else(|| {
            let wanted = wanted.unwrap_or_default();
            let labels = labels.join(" | ");
            format!(
                "{}: unknown value {wanted:?} (expected {labels})",
                self.name(key)
            )
        })
    }

    /// A cell range `A:B`.
    pub fn range(&mut self, key: &str) -> Result<Option<Range<usize>>, String> {
        let Some(value) = self.value(key)? else {
            return Ok(None);
        };
        let (a, b) = value
            .split_once(':')
            .ok_or_else(|| format!("{} needs A:B", self.name(key)))?;
        let bound = |s: &str| s.parse().map_err(|e| format!("{}: {e}", self.name(key)));
        Ok(Some(bound(a)?..bound(b)?))
    }

    /// `grid`: a named [`ScenarioGrid`] and its name.
    pub fn grid(&mut self, default: &str) -> Result<(String, ScenarioGrid), String> {
        let name = self.value("grid")?.unwrap_or_else(|| default.to_owned());
        let grid = ScenarioGrid::by_name(&name).ok_or_else(|| format!("unknown grid {name:?}"))?;
        Ok((name, grid))
    }

    /// `--isd paper|model` (default paper).
    pub fn isd(&mut self) -> Result<IsdSearch, String> {
        let choices = [
            ("paper", IsdSearch::PaperTable),
            ("model", IsdSearch::model_paper_grid()),
        ];
        self.pick("isd", choices).map(|(_, isd)| isd)
    }

    /// `format=csv|json` (default csv).
    pub fn format(&mut self) -> Result<RowFormat, String> {
        let choices = [("csv", RowFormat::Csv), ("json", RowFormat::Json)];
        self.pick("format", choices).map(|(_, format)| format)
    }

    /// The `--csv`/`--json` output flags; `None` prints the summary.
    pub fn output(&mut self) -> Result<Option<RowFormat>, String> {
        match (self.flag("csv"), self.flag("json")) {
            (true, true) => Err(format!(
                "{} and {} are mutually exclusive",
                self.name("csv"),
                self.name("json")
            )),
            (true, false) => Ok(Some(RowFormat::Csv)),
            (false, true) => Ok(Some(RowFormat::Json)),
            (false, false) => Ok(None),
        }
    }

    /// `--workers N`; `None` (0, the default) leaves the engine's own
    /// pool.
    pub fn workers(&mut self) -> Result<Option<usize>, String> {
        Ok(self.parse("workers")?.filter(|&n| n > 0))
    }

    /// Whether the flag `key` of a fixed rendering (`--smoke`,
    /// `--stats`) is given. Read it first: the rendering is fixed, so
    /// any other field would be silently ignored and is rejected.
    pub fn standalone(&mut self, key: &str) -> Result<bool, String> {
        let given = self.flag(key);
        match self.fields.first() {
            Some((other, _)) if given => Err(format!(
                "{} renders a fixed configuration and cannot be combined with {}",
                self.name(key),
                self.name(other)
            )),
            _ => Ok(given),
        }
    }

    /// The "only applies to" rule, checked before `keys` are read: any
    /// of `keys` is rejected unless `context` is given too (`with`), or
    /// when it is (`!with`).
    pub fn applies(&self, keys: &[&str], context: &str, with: bool) -> Result<(), String> {
        let has = |key: &str| self.fields.iter().any(|(k, _)| k == key);
        if has(context) == with || !keys.iter().any(|k| has(k)) {
            return Ok(());
        }
        let keys: Vec<String> = keys.iter().map(|k| self.name(k)).collect();
        let rule = if with { "only" } else { "do not" };
        Err(format!(
            "{} {rule} apply to {}",
            keys.join("/"),
            self.name(context)
        ))
    }

    /// Rejects the first field no reader took.
    pub fn finish(&self) -> Result<(), String> {
        match self.fields.first() {
            Some((key, _)) if self.cli => Err(format!("unknown option {}", self.name(key))),
            Some((key, _)) => Err(format!("unknown field {key:?}")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[&str] = &["csv", "json", "smoke", "simulate"];

    fn cli(args: &[&str]) -> Fields {
        Fields::cli(args.iter().map(|a| a.to_string()), FLAGS)
            .expect("valid argv")
            .expect("not --help")
    }

    /// The grid, reps and seed a CLI argv or a serve line names.
    fn request(f: &mut Fields) -> (String, ScenarioGrid, Option<usize>, Option<u64>) {
        let (name, grid) = f.grid("mixed-8").expect("known grid");
        let reps = f.reps("reps").expect("reps in range");
        let seed = f.parse("seed").expect("numeric seed");
        f.finish().expect("no left-over fields");
        (name, grid, reps, seed)
    }

    #[test]
    fn argv_and_serve_line_read_the_same_request() {
        let argv = request(&mut cli(&[
            "--grid", "smoke-3", "--reps", "5", "--seed", "9",
        ]));
        let line = request(&mut Fields::line(
            "grid=smoke-3 reps=5 seed=9".split_whitespace(),
        ));
        assert_eq!(argv, line);
        assert_eq!(argv.1, ScenarioGrid::by_name("smoke-3").unwrap());
        assert_eq!((argv.2, argv.3), (Some(5), Some(9)));
        // both spellings fall back to the same defaults
        assert_eq!(request(&mut cli(&[])), request(&mut Fields::line([])));
    }

    #[test]
    fn repeated_fields_keep_the_last_value() {
        let mut f = cli(&["--seed", "1", "--seed", "2"]);
        assert_eq!(f.parse::<u64>("seed"), Ok(Some(2)));
        assert_eq!(f.finish(), Ok(()));
    }

    #[test]
    fn help_wins_and_positionals_are_unknown_options() {
        let args = ["--seed", "x", "-h"].map(String::from);
        assert!(Fields::cli(args, FLAGS).unwrap().is_none());
        assert_eq!(
            Fields::cli(["stray".to_owned()], FLAGS).unwrap_err(),
            "unknown option stray"
        );
    }

    #[test]
    fn errors_name_the_field_in_its_own_spelling() {
        assert_eq!(
            cli(&["--reps"]).reps("reps"),
            Err("--reps needs a value".into())
        );
        assert_eq!(
            Fields::line(["reps=0"]).reps("reps"),
            Err("reps must be between 1 and 10000".into())
        );
        let seed = cli(&["--seed", "-1"]).parse::<u64>("seed");
        assert!(seed.unwrap_err().starts_with("--seed: "));
        assert_eq!(
            cli(&["--bogus", "1"]).finish(),
            Err("unknown option --bogus".into())
        );
        assert_eq!(
            Fields::line(["bogus=1"]).finish(),
            Err("unknown field \"bogus\"".into())
        );
    }

    #[test]
    fn floats_must_be_finite_and_positive_where_asked() {
        for bad in ["NaN", "inf", "-inf"] {
            assert!(cli(&["--threshold", bad]).finite("threshold").is_err());
            assert!(cli(&["--capacity", bad]).positive("capacity").is_err());
        }
        assert!(cli(&["--capacity", "0"]).positive("capacity").is_err());
        let floor = cli(&["--margin-floor", "-3"]).finite("margin-floor");
        assert_eq!(floor, Ok(Some(-3.0)));
    }

    #[test]
    fn pick_defaults_to_the_first_choice_and_rejects_others() {
        let choices = [("paper", 1), ("model", 2)];
        assert_eq!(cli(&[]).pick("isd", choices), Ok(("paper", 1)));
        let model = cli(&["--isd", "model"]).pick("isd", choices);
        assert_eq!(model, Ok(("model", 2)));
        assert_eq!(
            cli(&["--isd", "x"]).pick("isd", choices),
            Err("--isd: unknown value \"x\" (expected paper | model)".into())
        );
    }

    #[test]
    fn standalone_and_exclusive_flags() {
        assert_eq!(cli(&["--smoke"]).standalone("smoke"), Ok(true));
        assert_eq!(cli(&["--csv"]).standalone("smoke"), Ok(false));
        assert_eq!(
            cli(&["--grid", "paper", "--smoke"]).standalone("smoke"),
            Err("--smoke renders a fixed configuration and cannot be combined with --grid".into())
        );
        assert_eq!(cli(&["--json"]).output(), Ok(Some(RowFormat::Json)));
        assert!(cli(&["--csv", "--json"]).output().is_err());
    }

    #[test]
    fn only_applies_to_rule() {
        let f = cli(&["--seed", "7"]);
        assert_eq!(
            f.applies(&["reps", "seed"], "simulate", true),
            Err("--reps/--seed only apply to --simulate".into())
        );
        assert_eq!(f.applies(&["capacity"], "simulate", false), Ok(()));
        let f = cli(&["--simulate", "--seed", "7"]);
        assert_eq!(f.applies(&["reps", "seed"], "simulate", true), Ok(()));
        assert_eq!(
            f.applies(&["seed"], "simulate", false),
            Err("--seed do not apply to --simulate".into())
        );
    }

    #[test]
    fn ranges_read_a_colon_b() {
        assert_eq!(Fields::line(["range=3:7"]).range("range"), Ok(Some(3..7)));
        assert_eq!(Fields::line([]).range("range"), Ok(None));
        assert!(Fields::line(["range=3"]).range("range").is_err());
        assert!(Fields::line(["range=3:x"]).range("range").is_err());
    }

    #[test]
    fn unset_workers_are_auto() {
        assert_eq!(cli(&["--workers", "0"]).workers(), Ok(None));
        assert_eq!(workers_label(None), "auto");
        assert_eq!(
            workers_label(cli(&["--workers", "4"]).workers().unwrap()),
            "4"
        );
    }
}
