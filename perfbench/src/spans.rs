//! Spans recorded from the benchmark's own code around each call into a
//! crate. The program itself carries no instrumentation: a span covers
//! exactly one public call, or one task a sweep reports in its own
//! `TaskRecord`s.

use std::time::Instant;

use primecache::obs::Json;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.run_tenant_mix`.
    pub name: &'static str,
    /// Seconds since the tracer's epoch.
    pub start_s: f64,
    /// Seconds since the tracer's epoch.
    pub end_s: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Iteration (one closed-loop request) the span belongs to.
    pub iteration: usize,
}

/// An in-memory span recorder. A disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    iteration: usize,
}

/// Handle of an open span; `usize::MAX` when the tracer is disabled.
pub type SpanId = usize;

impl Tracer {
    /// A tracer that records when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iteration: 0,
        }
    }

    /// Switches recording on or off between iterations.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Tags subsequent spans with `iteration`.
    pub fn set_iteration(&mut self, iteration: usize) {
        self.iteration = iteration;
    }

    /// Opens a span named `name` inside the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_s: self.now_s(),
            end_s: f64::NAN,
            parent: self.open.last().copied(),
            iteration: self.iteration,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span left open inside it).
    pub fn end(&mut self, id: SpanId) {
        if id == usize::MAX {
            return;
        }
        let now = self.now_s();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_s = now;
            if top == id {
                break;
            }
        }
    }

    /// Records an interval measured elsewhere as a child of `parent`
    /// (sweep tasks, whose times the sweep itself reports).
    pub fn record(&mut self, name: &'static str, start_s: f64, end_s: f64, parent: SpanId) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_s,
                end_s,
                parent: (parent != usize::MAX).then_some(parent),
                iteration: self.iteration,
            });
        }
    }

    /// Seconds since the tracer's epoch.
    #[must_use]
    pub fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Start of span `id` in seconds since the epoch.
    #[must_use]
    pub fn start_of(&self, id: SpanId) -> f64 {
        self.spans.get(id).map_or(f64::NAN, |s| s.start_s)
    }

    /// Total duration of spans named `name` in `iteration`.
    #[must_use]
    pub fn total_s(&self, name: &str, iteration: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.iteration == iteration)
            .map(|s| s.end_s - s.start_s)
            .sum()
    }

    /// Median over `iterations` of the per-iteration total of spans
    /// named `name`.
    #[must_use]
    pub fn median_total(&self, name: &str, iterations: &[usize]) -> f64 {
        let totals: Vec<f64> = iterations.iter().map(|&i| self.total_s(name, i)).collect();
        crate::stats::median(&totals)
    }

    /// The spans as JSON lines with `id`, `parent`, `iteration`, `name`,
    /// `start_s` and `end_s`.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let line = Json::obj(vec![
                ("id", Json::U64(i as u64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                ),
                ("iteration", Json::U64(s.iteration as u64)),
                ("name", Json::Str(s.name.to_owned())),
                ("start_s", Json::F64(s.start_s)),
                ("end_s", Json::F64(s.end_s)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.end(inner);
        t.end(outer);
        assert!(t.total_s("outer", 0) >= t.total_s("inner", 0));
        assert!(t.total_s("inner", 0) >= 0.005);
        let lines = t.to_jsonl();
        assert!(lines
            .lines()
            .nth(1)
            .is_some_and(|l| l.contains("\"parent\":0")));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x");
        t.end(id);
        t.record("y", 0.0, 1.0, id);
        assert!(t.to_jsonl().is_empty());
    }
}
