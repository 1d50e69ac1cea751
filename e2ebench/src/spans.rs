//! In-memory span and counter recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! A span's *self time* is its duration minus the time its direct children
//! cover, so a parent that only dispatches to children reports near zero.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Instant,
    end: Option<Instant>,
}

/// Records nested spans and named counters.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
}

/// Handle of an open span; pass it back to [`Tracer::close`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a span nested in the innermost open span.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: Instant::now(),
            end: None,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Close `id`, which must be the innermost open span.
    ///
    /// # Panics
    ///
    /// If spans are closed out of order: a benchmark bug.
    pub fn close(&mut self, id: SpanId) {
        let now = Instant::now();
        assert_eq!(self.open.pop(), Some(id.0), "spans close innermost first");
        self.spans[id.0].end = Some(now);
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Add `by` to the counter `name`.
    pub fn count(&mut self, name: &'static str, by: f64) {
        *self.counters.entry(name).or_insert(0.0) += by;
    }

    /// Current value of a counter (0 if never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Total duration of every closed span named `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.closed()
            .filter(|(_, s, _)| s.name == name)
            .map(|(_, _, d)| d)
            .sum()
    }

    /// Self time per span name: duration minus direct children's durations.
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for (_, span, d) in self.closed() {
            if let Some(p) = span.parent {
                child_time[p] += d;
            }
        }
        let mut out: BTreeMap<&'static str, Duration> = BTreeMap::new();
        for (i, span, d) in self.closed() {
            *out.entry(span.name).or_default() += d.saturating_sub(child_time[i]);
        }
        out
    }

    fn closed(&self) -> impl Iterator<Item = (usize, &Span, Duration)> {
        self.spans
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.end.map(|end| (i, s, end - s.start)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.open("root");
        t.span("child", || spin(Duration::from_millis(20)));
        spin(Duration::from_millis(5));
        t.close(root);
        let selfs = t.self_times();
        let root_total = t.total("root");
        assert!(t.total("child") >= Duration::from_millis(20));
        assert_eq!(selfs["root"] + selfs["child"], root_total);
        assert!(selfs["root"] >= Duration::from_millis(5));
        assert!(selfs["root"] < t.total("child"));
    }

    #[test]
    fn counters_accumulate() {
        let mut t = Tracer::new();
        t.count("probes", 3.0);
        t.count("probes", 4.0);
        assert_eq!(t.counter("probes"), 7.0);
        assert_eq!(t.counter("absent"), 0.0);
    }

    #[test]
    #[should_panic(expected = "innermost")]
    fn out_of_order_close_panics() {
        let mut t = Tracer::new();
        let a = t.open("a");
        let _b = t.open("b");
        t.close(a);
    }
}
