//! Spans recorded by the benchmark around its calls into each layer.
//! They stay in memory and are summarised on standard error when the
//! traced run ends; the per-layer metrics are read from them.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, such as `wire.ingest_batches`.
    pub name: &'static str,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// The span recorder. A disabled tracer records nothing, so the
/// untraced run pays one branch per call.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, Instant)>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Records a finished call that started at `start`, under the
    /// innermost open phase.
    pub fn record(&mut self, name: &'static str, start: Instant) {
        if self.on {
            let end = Instant::now();
            self.push(name, start, end);
        }
    }

    /// Opens a phase span; calls recorded until [`Tracer::exit`] are
    /// its children.
    pub fn enter(&mut self, name: &'static str) {
        if self.on {
            let now = Instant::now();
            let id = self.push(name, now, now);
            self.open.push((id, now));
        }
    }

    /// Closes the innermost phase span.
    pub fn exit(&mut self) {
        if let Some((id, start)) = self.open.pop() {
            self.spans[id].dur_ns = nanos(start.elapsed());
        }
    }

    fn push(&mut self, name: &'static str, start: Instant, end: Instant) -> usize {
        self.spans.push(Span {
            name,
            parent: self.open.last().map(|&(id, _)| id),
            start_ns: nanos(start.duration_since(self.epoch)),
            dur_ns: nanos(end.duration_since(start)),
        });
        self.spans.len() - 1
    }

    /// Every span recorded with `name`.
    pub fn spans<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations of every span named `name`, in seconds.
    pub fn seconds(&self, name: &str) -> Vec<f64> {
        self.spans(name).map(|s| s.dur_ns as f64 / 1e9).collect()
    }

    /// Total duration of the spans named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.seconds(name).iter().sum()
    }

    /// Per name: count, first start, total and self time (total minus
    /// the time its children cover), one line each.
    pub fn summary(&self) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        let mut by_name: BTreeMap<&str, (u64, u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = by_name.entry(s.name).or_insert((0, s.start_ns, 0, 0));
            e.0 += 1;
            e.2 += s.dur_ns;
            e.3 += s.dur_ns.saturating_sub(child_ns[i]);
        }
        let mut out = format!(
            "{:<28} {:>8} {:>12} {:>12} {:>12}\n",
            "span", "count", "first_at_ms", "total_ms", "self_ms"
        );
        for (name, (count, first, total, own)) in by_name {
            out.push_str(&format!(
                "{name:<28} {count:>8} {:>12.3} {:>12.3} {:>12.3}\n",
                first as f64 / 1e6,
                total as f64 / 1e6,
                own as f64 / 1e6
            ));
        }
        out
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
