//! Streaming row sinks: report rows flow to a [`RowSink`] as they are
//! produced, so a million-cell study renders with flat memory.
//!
//! The contract is byte-oriented: the engines render each row to the
//! exact bytes the in-memory writers would produce, and a [`RowEmitter`]
//! adds the format's framing (CSV header, JSON array brackets and
//! separators). Streaming any report into a [`StringSink`] therefore
//! yields *byte-identical* output to the report's `to_csv`/`to_json`
//! method — the equivalence the streaming test layer pins with SHA-256
//! digests across worker counts.
//!
//! Sink implementations:
//!
//! * [`StringSink`] — accumulates in memory (the in-memory reports are
//!   this sink plus framing);
//! * [`WriteSink`] — forwards to any [`std::io::Write`] (files, pipes,
//!   sockets);
//! * [`DigestSink`] — O(1) memory: counts bytes and folds them into a
//!   streaming [`Sha256`], for determinism checks at scales where the
//!   rendered report must never exist in memory.
//!
//! # Examples
//!
//! ```
//! use corridor_core::sink::{RowEmitter, RowFormat, RowSink, StringSink};
//!
//! let mut sink = StringSink::default();
//! let mut rows = RowEmitter::begin(&mut sink, RowFormat::Csv, "a,b").unwrap();
//! rows.row("1,2\n").unwrap();
//! rows.row("3,4\n").unwrap();
//! assert_eq!(rows.finish().unwrap(), 2);
//! assert_eq!(sink.into_string(), "a,b\n1,2\n3,4\n");
//! ```

use core::fmt;
use std::io;

use crate::hash::Sha256;

/// Why a sink rejected a chunk.
#[derive(Debug)]
pub enum SinkError {
    /// The underlying writer failed.
    Io(io::Error),
    /// The consumer on the other end of the sink vanished (e.g. a serve
    /// client hung up); producers should stop instead of computing rows
    /// nobody will read.
    Closed,
}

impl fmt::Display for SinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SinkError::Io(err) => write!(f, "row sink I/O error: {err}"),
            SinkError::Closed => write!(f, "row sink closed by consumer"),
        }
    }
}

impl std::error::Error for SinkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SinkError::Io(err) => Some(err),
            SinkError::Closed => None,
        }
    }
}

impl From<io::Error> for SinkError {
    fn from(err: io::Error) -> Self {
        SinkError::Io(err)
    }
}

/// Shorthand for sink operations.
pub type SinkResult<T> = Result<T, SinkError>;

/// The two report renderings every engine can stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RowFormat {
    /// Comma-separated values: header line, then one line per row.
    #[default]
    Csv,
    /// A JSON array of row objects.
    Json,
}

impl RowFormat {
    /// Stable lowercase label (`csv` / `json`), used by CLI flags and
    /// the serve protocol.
    pub fn label(&self) -> &'static str {
        match self {
            RowFormat::Csv => "csv",
            RowFormat::Json => "json",
        }
    }

    /// Parses [`RowFormat::label`] back; `None` for anything else.
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "csv" => Some(RowFormat::Csv),
            "json" => Some(RowFormat::Json),
            _ => None,
        }
    }
}

/// A destination for rendered report bytes, fed in grid order.
///
/// Implementations must write chunks verbatim and in call order — the
/// byte-determinism contract of the reports extends through every sink.
pub trait RowSink {
    /// Appends one chunk of rendered output.
    ///
    /// # Errors
    ///
    /// Returns a [`SinkError`] when the chunk cannot be delivered; the
    /// producer stops at the first failure.
    fn write(&mut self, chunk: &str) -> SinkResult<()>;

    /// Flushes any buffered bytes after the final chunk.
    ///
    /// # Errors
    ///
    /// Returns a [`SinkError`] when the flush fails.
    fn finish(&mut self) -> SinkResult<()> {
        Ok(())
    }
}

/// A sink that accumulates everything in one `String` — the in-memory
/// report writers are exactly this sink behind a [`RowEmitter`].
#[derive(Debug, Default, Clone)]
pub struct StringSink {
    out: String,
}

impl StringSink {
    /// An empty sink with pre-allocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        StringSink {
            out: String::with_capacity(capacity),
        }
    }

    /// Consumes the sink, returning the accumulated output.
    pub fn into_string(self) -> String {
        self.out
    }

    /// Runs `emit` against a fresh sink of the given capacity and
    /// returns the accumulated output — the one-liner behind every
    /// in-memory `to_csv`/`to_json` report renderer.
    ///
    /// [`StringSink`]'s `write` never returns `Err`, and row emitters
    /// fail only by propagating sink errors, so the `expect` below
    /// cannot fire. Centralizing it here keeps that reasoning (and its
    /// lint waiver) in exactly one audited place.
    pub fn render<T, F>(capacity: usize, emit: F) -> String
    where
        F: FnOnce(&mut StringSink) -> SinkResult<T>,
    {
        let mut sink = StringSink::with_capacity(capacity);
        // corridor-lint: allow(no-panic, reason = "StringSink::write is Ok-only and emitters fail only by propagating sink errors, so this expect is unreachable")
        emit(&mut sink).expect("string sinks cannot fail");
        sink.into_string()
    }
}

impl RowSink for StringSink {
    fn write(&mut self, chunk: &str) -> SinkResult<()> {
        self.out.push_str(chunk);
        Ok(())
    }
}

/// A sink forwarding to any [`io::Write`] (file, pipe, socket).
#[derive(Debug)]
pub struct WriteSink<W: io::Write> {
    inner: W,
}

impl<W: io::Write> WriteSink<W> {
    /// Wraps a writer. Callers that care about syscall count should pass
    /// a [`io::BufWriter`].
    pub fn new(inner: W) -> Self {
        WriteSink { inner }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: io::Write> RowSink for WriteSink<W> {
    fn write(&mut self, chunk: &str) -> SinkResult<()> {
        self.inner.write_all(chunk.as_bytes())?;
        Ok(())
    }

    fn finish(&mut self) -> SinkResult<()> {
        self.inner.flush()?;
        Ok(())
    }
}

/// A constant-memory sink: counts bytes and folds them into a streaming
/// SHA-256. The memory-ceiling regression test pushes ≥ 100k cells
/// through this sink — if anyone reintroduces whole-report buffering
/// upstream, the asserted RSS budget trips.
#[derive(Debug, Default, Clone)]
pub struct DigestSink {
    digest: Sha256,
}

impl DigestSink {
    /// A fresh digest sink.
    pub fn new() -> Self {
        DigestSink::default()
    }

    /// Total bytes written so far.
    pub fn bytes(&self) -> u64 {
        self.digest.bytes_hashed()
    }

    /// Consumes the sink, returning the SHA-256 of everything written,
    /// as 64 lowercase hex characters.
    pub fn hex(self) -> String {
        self.digest.finalize_hex()
    }
}

impl RowSink for DigestSink {
    fn write(&mut self, chunk: &str) -> SinkResult<()> {
        self.digest.update(chunk.as_bytes());
        Ok(())
    }
}

/// Adds a format's framing around raw rows: the CSV header line, or the
/// JSON array brackets and `",\n"` separators.
///
/// Row conventions (matching the in-memory writers byte for byte):
///
/// * CSV rows carry their own trailing newline (a row may span several
///   physical lines, as the optimizer's per-cell frontier blocks do);
/// * JSON rows carry no separators — the emitter inserts `",\n"`
///   between rows, and `finish` closes the array as `"\n]\n"` (or
///   `"]\n"` when no rows were emitted, matching an empty report).
pub struct RowEmitter<'a> {
    sink: &'a mut dyn RowSink,
    format: RowFormat,
    rows: u64,
}

impl<'a> RowEmitter<'a> {
    /// Writes the preamble for `format` (`csv_header` plus a newline, or
    /// `"[\n"`) and returns the emitter.
    ///
    /// # Errors
    ///
    /// Propagates the sink's [`SinkError`].
    pub fn begin(
        sink: &'a mut dyn RowSink,
        format: RowFormat,
        csv_header: &str,
    ) -> SinkResult<Self> {
        match format {
            RowFormat::Csv => {
                sink.write(csv_header)?;
                sink.write("\n")?;
            }
            RowFormat::Json => sink.write("[\n")?,
        }
        Ok(RowEmitter {
            sink,
            format,
            rows: 0,
        })
    }

    /// Emits one rendered row (see the row conventions above).
    ///
    /// # Errors
    ///
    /// Propagates the sink's [`SinkError`].
    pub fn row(&mut self, row: &str) -> SinkResult<()> {
        if self.format == RowFormat::Json && self.rows > 0 {
            self.sink.write(",\n")?;
        }
        self.sink.write(row)?;
        self.rows += 1;
        Ok(())
    }

    /// Writes the postamble, flushes the sink and returns the row count.
    ///
    /// # Errors
    ///
    /// Propagates the sink's [`SinkError`].
    pub fn finish(self) -> SinkResult<u64> {
        match self.format {
            RowFormat::Csv => {}
            RowFormat::Json => {
                if self.rows > 0 {
                    self.sink.write("\n")?;
                }
                self.sink.write("]\n")?;
            }
        }
        self.sink.finish()?;
        Ok(self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::sha256_hex;

    #[test]
    fn csv_framing_matches_writeln_style() {
        let mut sink = StringSink::default();
        let mut rows = RowEmitter::begin(&mut sink, RowFormat::Csv, "h1,h2").unwrap();
        rows.row("1,2\n").unwrap();
        rows.row("3,4\n").unwrap();
        assert_eq!(rows.finish().unwrap(), 2);
        assert_eq!(sink.out.as_str(), "h1,h2\n1,2\n3,4\n");
    }

    #[test]
    fn json_framing_inserts_separators() {
        let mut sink = StringSink::default();
        let mut rows = RowEmitter::begin(&mut sink, RowFormat::Json, "ignored").unwrap();
        rows.row("  {\"a\": 1}").unwrap();
        rows.row("  {\"a\": 2}").unwrap();
        assert_eq!(rows.finish().unwrap(), 2);
        assert_eq!(sink.out.as_str(), "[\n  {\"a\": 1},\n  {\"a\": 2}\n]\n");
    }

    #[test]
    fn empty_reports_frame_like_the_in_memory_writers() {
        // CSV: header only; JSON: "[\n]\n" with no blank line
        let mut csv = StringSink::default();
        assert_eq!(
            RowEmitter::begin(&mut csv, RowFormat::Csv, "h")
                .unwrap()
                .finish()
                .unwrap(),
            0
        );
        assert_eq!(csv.out.as_str(), "h\n");
        let mut json = StringSink::default();
        RowEmitter::begin(&mut json, RowFormat::Json, "h")
            .unwrap()
            .finish()
            .unwrap();
        assert_eq!(json.out.as_str(), "[\n]\n");
    }

    #[test]
    fn digest_sink_matches_string_sink() {
        let mut s = StringSink::default();
        let mut d = DigestSink::new();
        for sink in [&mut s as &mut dyn RowSink, &mut d as &mut dyn RowSink] {
            let mut rows = RowEmitter::begin(sink, RowFormat::Csv, "a,b").unwrap();
            rows.row("1,2\n").unwrap();
            rows.finish().unwrap();
        }
        assert_eq!(d.bytes(), s.out.as_str().len() as u64);
        assert_eq!(d.hex(), sha256_hex(s.out.as_bytes()));
    }

    #[test]
    fn write_sink_forwards_and_flushes() {
        let mut sink = WriteSink::new(Vec::new());
        let mut rows = RowEmitter::begin(&mut sink, RowFormat::Json, "").unwrap();
        rows.row("  {}").unwrap();
        rows.finish().unwrap();
        assert_eq!(sink.into_inner(), b"[\n  {}\n]\n");
    }

    #[test]
    fn format_labels_roundtrip() {
        for format in [RowFormat::Csv, RowFormat::Json] {
            assert_eq!(RowFormat::from_label(format.label()), Some(format));
        }
        assert_eq!(RowFormat::from_label("xml"), None);
        assert_eq!(RowFormat::default(), RowFormat::Csv);
    }

    #[test]
    fn sink_error_formats_and_sources() {
        let io_err = SinkError::from(io::Error::other("boom"));
        assert!(io_err.to_string().contains("boom"));
        assert!(std::error::Error::source(&io_err).is_some());
        assert!(SinkError::Closed.to_string().contains("closed"));
        assert!(std::error::Error::source(&SinkError::Closed).is_none());
    }
}
