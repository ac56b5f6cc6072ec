//! In-memory spans for the traced run.
//!
//! A span records its name, its parent (the span open when it started),
//! and its start and end in nanoseconds since the tracer was created.
//! Spans stay in memory; [`Tracer::table`] reduces them to per-name
//! call counts, total time and self time (total minus the time covered
//! by child spans) when the ledger ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// Something a composition can open spans on. [`Tracer`] records them;
/// [`NoTrace`] compiles them away, which gives the untraced twin of the
/// same code for the tracing-overhead measurement.
pub trait Probe {
    /// Runs `f` inside a span called `name`.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T;
}

/// Records nothing.
pub struct NoTrace;

impl Probe for NoTrace {
    #[inline(always)]
    fn span<T>(&mut self, _name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        f(self)
    }
}

/// End marker of a span that has not closed yet.
const OPEN: u64 = u64::MAX;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Aggregated spans of one name.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Duration of the last-started closed span, in seconds (the span
    /// just closed, when it was a leaf).
    pub fn last_s(&self) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.end_ns != OPEN)
            .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 * 1e-9)
    }

    /// Per-name count, total and self time, in name order. Call it once
    /// every span is closed.
    pub fn table(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut table: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let total = span.end_ns - span.start_ns;
            let entry = table.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += total;
            entry.self_ns += total.saturating_sub(children);
        }
        table
    }

    /// Total seconds spent in spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }
}

impl Probe for Tracer {
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: OPEN,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }
}
