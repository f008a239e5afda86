//! In-memory span recorder for the traced run.
//!
//! A span is one timed call the benchmark made into a layer: its name,
//! start and end in ns since the recorder was created, and its parent —
//! the id of the in-flight call it was made for (0 when none was).
//! Spans stay in memory until the run ends and are then written out as
//! one CSV file.

use std::io::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer function the span times.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// Id of the in-flight call this work was done for; 0 for none.
    pub parent: u64,
}

/// The recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 20),
        }
    }

    /// Records a span that ran from `start` to `end`.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, parent: u64) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
        });
    }

    /// Writes every span as `name,start_ns,end_ns,parent` lines.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name,start_ns,end_ns,parent")?;
        for s in &self.spans {
            writeln!(out, "{},{},{},{}", s.name, s.start_ns, s.end_ns, s.parent)?;
        }
        out.flush()
    }
}
