//! The benchmark's own spans, recorded around each public call it makes
//! into a layer.
//!
//! Spans stay in memory for the whole traced run and are written once at
//! the end through [`mwl_obs::chrome_trace_json`], merged with any trace
//! events the program itself emitted.  Every span carries the id of the
//! job or request it belongs to and the index of the span that caused it.

use std::time::Instant;

use mwl_obs::{ArgValue, TraceEvent};

/// Trace lane of the benchmark's spans (the program's own events use
/// their worker index).
const BENCH_TID: u64 = 1_000;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name, e.g. `"core.alloc"`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Job or request id shared by all spans of one job.
    pub id: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose epoch is now.
    #[must_use]
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// The recorder's epoch, shared with program-side trace contexts so
    /// both render on one timeline.
    #[must_use]
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        self.spans.len() - 1
    }

    /// Closes a span and returns its duration in nanoseconds.
    pub fn close(&mut self, span: usize) -> u64 {
        let end_ns = self.now_ns();
        let s = &mut self.spans[span];
        s.end_ns = end_ns;
        s.dur_ns()
    }

    /// Runs `f` inside a span and returns its result and duration (ns).
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let span = self.open(name, parent, id);
        let value = f();
        (value, self.close(span))
    }

    /// Records an interval measured elsewhere (e.g. on a client thread).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, id: u64) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end).max(at(start)),
            parent: None,
            id,
        });
    }

    /// Start (ns since the epoch) of a recorded span.
    #[must_use]
    pub fn start_ns(&self, span: usize) -> u64 {
        self.spans[span].start_ns
    }

    /// Number of spans recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The spans as Chrome trace events (`args`: id, parent).
    #[must_use]
    pub fn to_events(&self) -> Vec<TraceEvent> {
        self.spans
            .iter()
            .map(|s| TraceEvent {
                name: s.name,
                cat: "bench",
                ts_ns: s.start_ns,
                dur_ns: s.dur_ns(),
                tid: BENCH_TID,
                args: vec![
                    ("id", ArgValue::Int(s.id as i64)),
                    ("parent", ArgValue::Int(s.parent.map_or(-1, |p| p as i64))),
                ],
            })
            .collect()
    }
}
