//! Benchmark-side spans around calls into the crates' public functions.
//!
//! Spans are kept in memory and written out once, when the run ends, so
//! recording one costs a clock read and a push under a mutex. A disabled
//! tracer (the end-to-end runs) records nothing: the closure is called
//! straight through.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are microseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id, unique within the run (0 is never used).
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// Trace id: every span of one request (or one search) shares it.
    pub trace: u64,
    /// Layer-qualified name, e.g. `core.prepare_session`.
    pub name: &'static str,
    /// Start, µs since the tracer was created.
    pub start_us: f64,
    /// End, µs since the tracer was created.
    pub end_us: f64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// In-memory span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so
    /// nested calls can name it as their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        trace: u64,
        parent: Option<u64>,
        f: impl FnOnce(Option<u64>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_us = self.now_us();
        let out = f(Some(id));
        let end_us = self.now_us();
        self.push(Span {
            id,
            parent,
            trace,
            name,
            start_us,
            end_us,
        });
        out
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("a span recorder panicked while holding the span list")
            .push(span);
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a span recorder panicked while holding the span list")
            .clone()
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }
}

/// Per parent name: how much of the parents' time their direct children
/// cover, as `(parent count, covered %)`. Children of one parent may run
/// concurrently; their time is clipped to the parent and summed, so
/// concurrent children can cover more than 100 %.
pub fn coverage(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64)> {
    let mut child_us: BTreeMap<u64, f64> = BTreeMap::new();
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| by_id.get(&p)) {
            let covered = (s.end_us.min(p.end_us) - s.start_us.max(p.start_us)).max(0.0);
            *child_us.entry(p.id).or_default() += covered;
        }
    }
    let mut acc: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for s in spans {
        if let Some(&covered) = child_us.get(&s.id) {
            let e = acc.entry(s.name).or_default();
            e.0 += 1;
            e.1 += covered;
            e.2 += s.end_us - s.start_us;
        }
    }
    acc.into_iter()
        .map(|(name, (n, covered, total))| (name, (n, 100.0 * covered / total.max(1e-9))))
        .collect()
}

/// The span file: one JSON object per line, then one coverage line per
/// parent name.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\": {}, \"parent\": {parent}, \"trace\": {}, \"name\": \"{}\", \
             \"start_us\": {:.1}, \"end_us\": {:.1}}}",
            s.id, s.trace, s.name, s.start_us, s.end_us
        );
    }
    for (name, (n, pct)) in coverage(spans) {
        let _ = writeln!(
            out,
            "{{\"coverage\": \"{name}\", \"parents\": {n}, \"covered_pct\": {pct:.2}}}"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            trace: 1,
            name,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn coverage_sums_children_clipped_to_the_parent() {
        let spans = [
            span(1, None, "root", 0.0, 100.0),
            span(2, Some(1), "a", 0.0, 40.0),
            span(3, Some(1), "b", 50.0, 120.0),
        ];
        let cov = coverage(&spans);
        assert_eq!(cov["root"], (1, 90.0));
        assert!(!cov.contains_key("a"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", 1, None, |id| id), None);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        let id = t.span("x", 7, None, |id| id);
        assert_eq!(t.spans()[0].id, id.unwrap());
        assert_eq!(t.spans()[0].trace, 7);
    }
}
