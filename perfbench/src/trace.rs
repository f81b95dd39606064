//! In-memory span recorder for the traced run.
//!
//! Spans are recorded in the benchmark's own code, around the calls it
//! makes into each module's public API. Each span keeps its name, start
//! and end (nanoseconds since the tracer was created), the index of the
//! span that caused it, and the sample or request id it belongs to. The
//! spans stay in memory until [`Tracer::write`] writes them as TSV when
//! the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// Marks "no parent" in [`Span::parent`].
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `dnn.conv1.fwd`.
    pub name: Rc<str>,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end: u64,
    /// Index of the causing span, or [`ROOT`].
    pub parent: u32,
    /// Sample or request id.
    pub id: u64,
}

/// Collects spans against one time origin.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// Creates an empty tracer whose time origin is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the tracer's origin to `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span from `start` to `end`; returns its index for use as
    /// a parent.
    pub fn record(
        &mut self,
        name: impl Into<Rc<str>>,
        start: Instant,
        end: Instant,
        parent: u32,
        id: u64,
    ) -> u32 {
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        self.spans.push(Span {
            name: name.into(),
            start: self.ns(start),
            end: self.ns(end),
            parent,
            id,
        });
        index
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: impl Into<Rc<str>>,
        parent: u32,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, id);
        out
    }

    /// Opens a parent span whose end is filled in by [`close`](Self::close).
    pub fn open(&mut self, name: impl Into<Rc<str>>, parent: u32, id: u64) -> u32 {
        let now = Instant::now();
        self.record(name, now, now, parent, id)
    }

    /// Closes a span opened with [`open`](Self::open).
    pub fn close(&mut self, index: u32) {
        let end = self.ns(Instant::now());
        self.spans[index as usize].end = end;
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration in microseconds per span name.
    pub fn totals_us(&self) -> BTreeMap<Rc<str>, f64> {
        let mut totals = BTreeMap::new();
        for s in &self.spans {
            *totals.entry(Rc::clone(&s.name)).or_insert(0.0) += (s.end - s.start) as f64 / 1e3;
        }
        totals
    }

    /// Writes the spans as TSV (`index name start_ns end_ns parent id`;
    /// `parent` is `-` for a root span) to `path`, creating its directory.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\tid")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start, s.end, s.id
            )?;
        }
        out.flush()
    }
}
