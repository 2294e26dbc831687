//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start, an end and the id of the span that was open
//! when it started (its parent). Spans are recorded around the benchmark's
//! own calls into each layer's public functions; nothing inside the
//! program is instrumented. The layer of a span is its name up to the
//! first `.` (`engine.process` belongs to `engine`). A span's self time is
//! its duration minus the durations of its children, which on one thread
//! nest without overlapping.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span (times in ns since the tracer's origin).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.call` name.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, `u32::MAX` for a root.
    pub parent: u32,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans of one thread. A disabled tracer records nothing and
/// costs one branch per call, so the same driver code serves the
/// untraced and the traced run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(self.spans.len() as u32);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        let id = self.open.pop().expect("exit without enter") as usize;
        self.spans[id].end_ns = end;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Durations (ns) of every span named exactly `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Self time (ns) summed per span name.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child[s.parent as usize] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(c);
        }
        out
    }

    /// Self time (ns) summed per layer.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (name, ns) in self.self_time_by_name() {
            *out.entry(layer_of(name)).or_insert(0) += ns;
        }
        out
    }

    /// Write every span as CSV (`id,parent,name,start_ns,end_ns`).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id,parent,name,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            writeln!(w, "{i},{parent},{},{},{}", s.name, s.start_ns, s.end_ns)?;
        }
        w.flush()
    }
}

/// The layer a span name belongs to.
pub fn layer_of(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.enter("outer.run");
        std::thread::sleep(Duration::from_millis(2));
        t.span("inner.call", || {
            std::thread::sleep(Duration::from_millis(5))
        });
        t.exit();
        let by = t.self_time_by_layer();
        let outer = by["outer"] as f64 / 1e6;
        let inner = by["inner"] as f64 / 1e6;
        assert!(inner >= 5.0, "inner {inner}");
        assert!((2.0..5.0).contains(&outer), "outer {outer}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.span("a.b", || ());
        assert!(t.durations("a.b").is_empty());
        assert!(t.self_time_by_layer().is_empty());
    }
}
