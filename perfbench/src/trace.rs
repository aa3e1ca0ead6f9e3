//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a name, its start and end (host ns since the tracer was
//! made) and the span that was open when it started. Names are
//! `<layer>.<call>`; a layer's self time is the time its spans cover minus
//! the time their direct children cover. A disabled tracer records nothing
//! and only runs the closure, so untraced code paths can share the calls.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Tracer {
    enabled: bool,
    run_id: u64,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            run_id: 0,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer whose spans all carry `run_id`.
    pub fn on(run_id: u64) -> Self {
        Tracer {
            enabled: true,
            run_id,
            ..Tracer::off()
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Durations of every span named `name`, in ns, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Summed duration of the spans named `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum::<u64>() as f64 / 1e9
    }

    /// Self time per layer, seconds: each span's duration minus its direct
    /// children's (siblings never overlap on one thread), summed by layer.
    pub fn self_s_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.layer()).or_insert(0.0) += (s.duration_ns() - c) as f64 / 1e9;
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":\"{:016x}\",\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                self.run_id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::on(1);
        t.span("a.outer", |t| {
            t.span("b.inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        let by_layer = t.self_s_by_layer();
        let total = s[0].duration_ns() as f64 / 1e9;
        assert!((by_layer["a"] + by_layer["b"] - total).abs() < 1e-9);
        assert!(by_layer["b"] >= 0.002);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("a.x", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
