//! In-memory span recorder for the traced run.
//!
//! A span is a named interval with the span that caused it as parent. The
//! benchmark opens spans around its own calls into each layer's public
//! functions; nothing inside the program is instrumented. A layer's self
//! time is the duration of its spans minus the part their child spans
//! cover, so the self times of every span under a root add up to the
//! root's duration exactly. The root's own self time is the explicit
//! `unattributed` bucket: benchmark glue no layer span covers.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Records spans when enabled; with tracing off, [`Tracer::span`] only
/// calls its closure. Counts are kept either way (they cost an add).
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Adds `v` to the counter `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    /// Raises the counter `name` to `v` if `v` is larger.
    pub fn count_max(&mut self, name: &'static str, v: f64) {
        let c = self.counts.entry(name).or_insert(v);
        *c = c.max(v);
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds of the spans named `name`, summed over every occurrence.
    #[cfg(test)]
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Self time in seconds per span name: duration minus the duration of
    /// direct children, summed over every span of that name.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }

    #[cfg(test)]
    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_and_sums_to_the_root() {
        let mut t = Tracer::new(true);
        t.push("root", 0, 100, None); // 0
        t.push("a", 10, 40, Some(0)); // 1
        t.push("b", 20, 30, Some(1)); // 2
        t.push("c", 50, 90, Some(0)); // 3
        t.push("b", 60, 65, Some(3)); // 4
        let st = t.self_times();
        let ns = |k: &str| (st[k] * 1e9).round() as u64;
        assert_eq!(ns("root"), 30, "unattributed: 100 - 30 - 40");
        assert_eq!(ns("a"), 20);
        assert_eq!(ns("b"), 15, "both b spans");
        assert_eq!(ns("c"), 35);
        let total: f64 = st.values().sum();
        assert_eq!((total * 1e9).round() as u64, 100);
        assert_eq!((t.total_s("b") * 1e9).round() as u64, 15);
    }

    #[test]
    fn nested_spans_record_parents_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let v = t.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(v, 7);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[0].parent, None);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[1].start_ns >= t.spans()[0].start_ns);
        assert!(t.spans()[1].end_ns <= t.spans()[0].end_ns);
        let total: f64 = t.self_times().values().sum();
        assert!((total - t.total_s("outer")).abs() < 1e-12);

        let mut off = Tracer::new(false);
        off.span("outer", |t| t.count("n", 2.0));
        assert!(off.spans().is_empty());
        assert_eq!(off.counter("n"), 2.0);
    }
}
