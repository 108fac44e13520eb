//! The benchmark's own spans: recorded around calls into each layer's
//! public functions, kept in memory and written out when the run ends.
//! The program's telemetry stays off.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

pub struct Span {
    pub name: &'static str,
    /// Program (`als`, …) or request outcome (`hit`, …); may be empty.
    pub tag: &'static str,
    pub op: u64,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// Spans of one thread. Spans nest: a span begun while another is open
/// is its child.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

pub struct SpanId(usize);

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Spans begun from now on belong to op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn begin(&mut self, name: &'static str, tag: &'static str) -> SpanId {
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            tag,
            op: self.op,
            start: now,
            end: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
        SpanId(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: SpanId) {
        self.end_tagged(id, None);
    }

    /// End a span, setting its tag if the outcome was only known now.
    pub fn end_tagged(&mut self, id: SpanId, tag: Option<&'static str>) {
        assert_eq!(
            self.open.pop(),
            Some(id.0),
            "spans must close innermost first"
        );
        let span = &mut self.spans[id.0];
        span.end = self.epoch.elapsed();
        if let Some(tag) = tag {
            span.tag = tag;
        }
    }

    /// Close the spans still open inside `id`: a panic unwound past
    /// their ends.
    pub fn close_to(&mut self, id: &SpanId) {
        while let Some(&top) = self.open.last() {
            if top == id.0 {
                break;
            }
            self.end(SpanId(top));
        }
    }

    /// Each span's self time in ms: its duration minus its children's.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] -= span.ms();
            }
        }
        own
    }

    /// Per op, the summed self time (ms) of the spans named `name`
    /// (and tagged `tag`, if given): one sample per op that has any.
    pub fn per_op_self_ms(&self, name: &str, tag: Option<&str>) -> Vec<f64> {
        let own = self.self_ms();
        let mut per_op: Vec<(u64, f64)> = Vec::new();
        for (span, ms) in self.spans.iter().zip(own) {
            if span.name != name || tag.is_some_and(|t| t != span.tag) {
                continue;
            }
            match per_op.last_mut() {
                Some((op, total)) if *op == span.op => *total += ms,
                _ => per_op.push((span.op, ms)),
            }
        }
        per_op.into_iter().map(|(_, ms)| ms).collect()
    }

    /// Append the spans as JSON objects to `out` (comma-separated),
    /// labelled with `thread`.
    pub fn write_json(&self, thread: usize, out: &mut String) {
        for (i, s) in self.spans.iter().enumerate() {
            if !out.ends_with('[') {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"thread\": {thread}, \"id\": {i}, \"parent\": {parent}, \"op\": {}, \"name\": \"{}\", \"tag\": \"{}\", \"start_us\": {}, \"end_us\": {}}}",
                s.op,
                s.name,
                s.tag,
                s.start.as_micros(),
                s.end.as_micros()
            );
        }
    }
}

/// Write a traced run's spans and its deterministic counts to
/// `perfbench/out/<workload>-seed<seed>.trace.json`.
pub fn write_out(
    workload: &str,
    seed: u64,
    tracers: &[&Tracer],
    counts: &[(String, String)],
) -> Result<std::path::PathBuf, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}-seed{seed}.trace.json"));
    let mut out = format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"host_cores\": {},\n\"counts\": {{",
        crate::report::host_cores()
    );
    let counts: Vec<String> = counts
        .iter()
        .map(|(k, v)| format!("\n  \"{k}\": \"{v}\""))
        .collect();
    out.push_str(&counts.join(","));
    out.push_str("},\n\"spans\": [");
    for (thread, t) in tracers.iter().enumerate() {
        t.write_json(thread, &mut out);
    }
    out.push_str("]}\n");
    std::fs::write(&path, out).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}
