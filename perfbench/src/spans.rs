//! In-memory span recorder for the traced run.
//!
//! A span is one call the benchmark makes into a layer's public
//! function: name, start, end and the span that caused it. Spans are
//! kept in memory and written out once, when the run ends, with each
//! span's self time (its duration minus the part of it covered by its
//! children).

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end_s - self.start_s
    }
}

pub struct Tracer {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's id so it can open children. Safe to call from
    /// several threads at once (one span per simulated rank).
    pub fn span<T>(&self, name: &str, parent: Option<u64>, f: impl FnOnce(u64) -> T) -> T {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_s = self.origin.elapsed().as_secs_f64();
        let out = f(id);
        let end_s = self.origin.elapsed().as_secs_f64();
        self.spans
            .lock()
            .expect("a span recorder thread panicked")
            .push(Span {
                id,
                parent,
                name: name.to_string(),
                start_s,
                end_s,
            });
        out
    }

    fn spans(&self) -> Vec<Span> {
        let mut all = self
            .spans
            .lock()
            .expect("a span recorder thread panicked")
            .clone();
        all.sort_by_key(|s| s.id);
        all
    }

    /// Writes every span as one JSON array to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < spans.len() { "," } else { "" };
            writeln!(
                out,
                "  {{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_s\": {:?}, \
                 \"end_s\": {:?}, \"self_s\": {:?}}}{comma}",
                s.id,
                s.name,
                s.start_s,
                s.end_s,
                self_time(s, &spans)
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// Runs `f` inside a span when `tracer` is armed, bare otherwise; `f`
/// receives the id to parent its children on.
pub fn maybe_span<T>(
    tracer: Option<&Tracer>,
    name: &str,
    parent: Option<u64>,
    f: impl FnOnce(Option<u64>) -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, parent, |id| f(Some(id))),
        None => f(None),
    }
}

/// A span's duration minus the union of its children's intervals
/// (children of concurrent ranks may overlap).
fn self_time(span: &Span, all: &[Span]) -> f64 {
    let mut kids: Vec<(f64, f64)> = all
        .iter()
        .filter(|c| c.parent == Some(span.id))
        .map(|c| (c.start_s, c.end_s))
        .collect();
    kids.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = f64::NEG_INFINITY;
    for (s, e) in kids {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    span.duration() - covered
}
