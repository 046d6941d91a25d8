//! Spans for the layer replay: recorded in memory around each call into a
//! layer, summarised and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call. Spans of one epoch share `epoch`; `parent` is the span
/// that caused this one (`""` for a root).
pub struct Span {
    pub name: &'static str,
    pub parent: &'static str,
    pub epoch: u32,
    pub node: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans, or — switched off — only passes calls through, so the
/// same replay code measures its own tracing overhead.
pub struct Tracer {
    origin: Instant,
    spans: Option<Vec<Span>>,
}

impl Tracer {
    pub fn on() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Some(Vec::new()),
        }
    }

    pub fn off() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: None,
        }
    }

    /// Nanoseconds since the tracer was made (0 when switched off).
    pub fn now(&self) -> u64 {
        match self.spans {
            Some(_) => self.origin.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// Closes a span opened at `start_ns` (a [`Tracer::now`] reading).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: &'static str,
        epoch: u32,
        node: usize,
        start_ns: u64,
    ) {
        if let Some(spans) = self.spans.as_mut() {
            let end_ns = self.origin.elapsed().as_nanos() as u64;
            spans.push(Span {
                name,
                parent,
                epoch,
                node: node as u32,
                start_ns,
                end_ns,
            });
        }
    }

    /// Runs `f` inside a span whose parent is the `epoch` span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        epoch: u32,
        node: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now();
        let out = f();
        self.record(name, "epoch", epoch, node, start);
        out
    }

    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"name\": \"{}\", \"parent\": \"{}\", \"epoch\": {}, \"node\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.parent, s.epoch, s.node, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Where the `epoch` spans' time went.
pub struct Summary {
    /// Number of `epoch` spans.
    pub epochs: usize,
    /// Mean duration of an `epoch` span, ms.
    pub epoch_ms: f64,
    /// Share of the `epoch` spans' time their child spans cover.
    pub coverage: f64,
    /// Per child name: `(calls, share of the epoch spans' time)`. A child
    /// has no children of its own here, so its span is its self time; the
    /// epoch's self time is `1 - coverage`.
    pub children: BTreeMap<&'static str, (u64, f64)>,
}

/// Children run one after another on one thread, so their durations add
/// up without overlap and coverage is a plain ratio of sums.
pub fn summarise(spans: &[Span]) -> Summary {
    let mut epoch_ns = 0u64;
    let mut epochs = 0usize;
    let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let ns = s.end_ns.saturating_sub(s.start_ns);
        if s.name == "epoch" {
            epoch_ns += ns;
            epochs += 1;
        } else if s.parent == "epoch" {
            let entry = by_name.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += ns;
        }
    }
    let total = epoch_ns.max(1) as f64;
    let child_ns: u64 = by_name.values().map(|v| v.1).sum();
    Summary {
        epochs,
        epoch_ms: epoch_ns as f64 / epochs.max(1) as f64 / 1e6,
        coverage: child_ns as f64 / total,
        children: by_name
            .into_iter()
            .map(|(name, (calls, ns))| (name, (calls, ns as f64 / total)))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            epoch: 0,
            node: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn coverage_is_children_over_epochs_and_ignores_other_roots() {
        let spans = [
            span("a", "epoch", 0, 40),
            span("b", "epoch", 40, 90),
            span("epoch", "", 0, 100),
            span("q", "query", 100, 150),
        ];
        let s = summarise(&spans);
        assert_eq!(s.epochs, 1);
        assert!((s.coverage - 0.9).abs() < 1e-12);
        assert_eq!(s.children["a"], (1, 0.4));
        assert_eq!(s.children["b"], (1, 0.5));
        assert!(!s.children.contains_key("q"));
    }

    #[test]
    fn a_tracer_switched_off_records_nothing_and_still_runs_the_call() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", 0, 0, || 7), 7);
        assert!(t.spans().is_empty());
        let mut t = Tracer::on();
        assert_eq!(t.span("x", 3, 1, || 7), 7);
        assert_eq!(t.spans().len(), 1);
        assert_eq!((t.spans()[0].parent, t.spans()[0].epoch), ("epoch", 3));
    }
}
