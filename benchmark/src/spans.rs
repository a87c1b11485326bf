//! The benchmark's own spans: one per call into a layer, recorded from the
//! benchmark's side of the API boundary.
//!
//! Spans are kept in memory and written out when the driver ends. A span
//! carries its name, start, end, the span that caused it and the request it
//! belongs to; the spans of one request share the request id. With tracing
//! off (the end-to-end runs) recording is a branch on a bool.

use crate::json::Json;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span, used as the `parent` of the spans it caused.
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called, as `layer.operation`.
    pub name: &'static str,
    /// Microseconds since the recorder was created.
    pub start_us: f64,
    /// Microseconds since the recorder was created.
    pub end_us: f64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The request the span belongs to (0 for work outside any request).
    pub request: u64,
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder; a disabled one records nothing.
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a finished span and returns its id (0 when disabled).
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let mut spans = self.spans.lock().expect("span recorder poisoned: a recording thread panicked");
        spans.push(Span { name, start_us: us(start), end_us: us(end), parent, request });
        spans.len() - 1
    }

    /// Reserves a span whose end is not known yet (a request that is about
    /// to call into a layer) so its children can name it as their parent;
    /// [`Recorder::close`] stamps the end.
    pub fn open(&self, name: &'static str, start: Instant, request: u64) -> SpanId {
        self.record(name, start, start, None, request)
    }

    /// Stamps the end of a span reserved with [`Recorder::open`].
    pub fn close(&self, id: SpanId, end: Instant) {
        if !self.enabled {
            return;
        }
        let end_us = end.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let mut spans = self.spans.lock().expect("span recorder poisoned: a recording thread panicked");
        if let Some(span) = spans.get_mut(id) {
            span.end_us = end_us;
        }
    }

    /// Times `call` as a child span of `parent` and returns its result.
    pub fn time<T>(&self, name: &'static str, parent: Option<SpanId>, request: u64, call: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return call();
        }
        let start = Instant::now();
        let out = call();
        self.record(name, start, Instant::now(), parent, request);
        out
    }

    /// A copy of everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned: a recording thread panicked").clone()
    }

    /// The recorded spans as a JSON array of records.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans()
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj()
                        .with("id", id as u64)
                        .with("name", s.name)
                        .with("start_us", s.start_us)
                        .with("end_us", s.end_us)
                        .with("parent", s.parent.map_or(Json::Null, |p| Json::from(p as u64)))
                        .with("request", s.request)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_share_the_request_and_name_their_parent() {
        let rec = Recorder::new(true);
        let start = Instant::now();
        let request = rec.open("request.scan", start, 7);
        let value = rec.time("engine.run_olap", Some(request), 7, || 41 + 1);
        rec.close(request, Instant::now());
        assert_eq!(value, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(request));
        assert_eq!(spans[1].request, spans[0].request);
        assert!(spans[0].start_us <= spans[1].start_us && spans[1].end_us <= spans[0].end_us);
        let json = rec.to_json();
        assert_eq!(json.as_array().unwrap()[1].get("parent").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn a_disabled_recorder_still_runs_the_call() {
        let rec = Recorder::new(false);
        assert_eq!(rec.time("x.y", None, 0, || 5), 5);
        assert!(rec.spans().is_empty());
    }
}
