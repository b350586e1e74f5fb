//! The benchmark's own span recorder: every call it times in a traced
//! run becomes one span (name, start, end, parent), kept in memory and
//! written out as JSON lines when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Metric-style name of the call (`nn.fwd.dense.conv3`, ...).
    pub name: String,
    /// Nanoseconds from the recorder's origin to the call's start.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// In-memory span store with a stack of open spans.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: cap_obs::clock::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration in nanoseconds.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: 0,
            dur_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let start = cap_obs::clock::now();
        let out = f(self);
        let end = cap_obs::clock::now();
        self.open.pop();
        let span = &mut self.spans[index];
        span.start_ns = start.duration_since(self.origin).as_nanos() as u64;
        span.dur_ns = end.duration_since(start).as_nanos() as u64;
        (out, span.dur_ns as f64)
    }

    /// The spans as JSON lines (`{"span":..,"start_ns":..,"dur_ns":..,"parent":..}`).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"parent\":{}}}",
                s.name, s.start_ns, s.dur_ns, parent
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_durations() {
        let mut t = Tracer::default();
        let (v, outer_ns) = t.time("outer", |t| t.time("inner", |_| 7).0);
        assert_eq!(v, 7);
        let spans = &t.spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].dur_ns as f64 <= outer_ns);
        assert!(spans[1].start_ns >= spans[0].start_ns);
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }
}
