//! The benchmark's own spans: one per call into a layer, kept in memory
//! and written out as JSONL when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    run: u64,
    parent: Option<usize>,
    start: Duration,
    end: Option<Duration>,
}

/// An append-only span log; span ids are indices into it.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    run: u64,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            epoch: Instant::now(),
            run: 0,
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    /// Starts a new run: later spans carry the next run id.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name,
            run: self.run,
            parent,
            start: self.epoch.elapsed(),
            end: None,
        });
        self.spans.len() - 1
    }

    /// Ends span `id` and returns its duration.
    pub fn close(&mut self, id: usize) -> Duration {
        let now = self.epoch.elapsed();
        let span = &mut self.spans[id];
        span.end = Some(now);
        now - span.start
    }

    /// Writes one JSON object per span: name, run, id, parent, start and
    /// end in nanoseconds since the log was created.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let end = s
                .end
                .map_or("null".to_string(), |e| e.as_nanos().to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"run\":{},\"id\":{id},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{end}}}",
                s.name,
                s.run,
                s.start.as_nanos()
            )?;
        }
        out.flush()
    }
}
