//! The benchmark's own span recorder. Spans are taken in the
//! benchmark's code around calls into the program's public functions,
//! kept in memory, and written out as JSON lines when the run ends.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `core.parse_zql`.
    pub name: &'static str,
    /// Start, relative to the recorder's epoch.
    pub start: Duration,
    /// End, relative to the recorder's epoch.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (or planning round) the span belongs to.
    pub request: u64,
}

impl Span {
    /// Wall time covered by the span.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans when enabled; a disabled recorder costs one branch per
/// call and keeps nothing.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Recorder {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Run `f` inside a span named `name` for request `request`. Spans
    /// opened inside `f` become its children.
    pub fn span<T>(&self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            let start = self.epoch.elapsed();
            spans.push(Span {
                name,
                start,
                end: start,
                parent: self.open.borrow().last().copied(),
                request,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end = self.epoch.elapsed();
        out
    }

    /// Record an already-measured interval as a child of the innermost
    /// open span (e.g. submit-to-first-event, seen only by the client).
    pub fn record(&self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let parent = self.open.borrow().last().copied();
        self.spans.borrow_mut().push(Span {
            name,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
            parent,
            request,
        });
    }

    /// Number of spans named `name`, and their mean duration.
    pub fn stats(&self, name: &str) -> (usize, Duration) {
        let spans = self.spans.borrow();
        let (count, total) = spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0usize, Duration::ZERO), |(c, t), s| {
                (c + 1, t + s.duration())
            });
        let mean = if count == 0 {
            Duration::ZERO
        } else {
            total / count as u32
        };
        (count, mean)
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.request
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_requests() {
        let rec = Recorder::new(true);
        let v = rec.span("outer", 7, || rec.span("inner", 7, || 41) + 1);
        assert_eq!(v, 42);
        let spans = rec.spans.borrow();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans.iter().all(|s| s.request == 7 && s.end >= s.start));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let rec = Recorder::new(false);
        assert_eq!(rec.span("outer", 1, || 5), 5);
        assert_eq!(rec.stats("outer").0, 0);
        assert!(rec.to_jsonl().is_empty());
    }
}
