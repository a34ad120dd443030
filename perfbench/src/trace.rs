//! The benchmark's span recorder.
//!
//! Spans are recorded here, in the benchmark, around each public call it
//! makes into the program; the program itself is not instrumented. Spans
//! stay in memory and are written once, at the end of a traced run, as
//! Chrome trace-event JSON (loadable in Perfetto or `chrome://tracing`).
//! A disabled tracer records nothing and reads no clock.

use serde_json::{json, Value};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Name of the call, e.g. `qd4::train`.
    pub name: String,
    /// Start, microseconds since the tracer was created.
    pub start_us: f64,
    /// End, microseconds since the tracer was created.
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// In-memory span recorder for one run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    workload: String,
    run_id: String,
}

impl Tracer {
    /// A recorder for `workload`; `enabled = false` makes every call a
    /// plain pass-through.
    pub fn new(enabled: bool, workload: &str, run_id: String) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            workload: workload.to_string(),
            run_id,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span called `name`; `f` receives the tracer so it
    /// can open child spans.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a Chrome trace-event document, with `provenance`
    /// stored under `otherData`.
    pub fn chrome_json(&self, provenance: Value) -> Value {
        let events: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                json!({
                    "name": s.name.clone(),
                    "cat": "perfbench",
                    "ph": "X",
                    "ts": s.start_us,
                    "dur": s.end_us - s.start_us,
                    "pid": 1,
                    "tid": 1,
                    "args": {
                        "span_id": id,
                        "parent": s.parent.map_or(Value::Null, |p| json!(p)),
                        "workload": self.workload.clone(),
                        "run_id": self.run_id.clone(),
                    },
                })
            })
            .collect();
        json!({ "traceEvents": events, "displayTimeUnit": "ms", "otherData": provenance })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents() {
        let mut t = Tracer::new(true, "w", "r".into());
        t.span("outer", |t| t.span("inner", |_| ()));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_us <= spans[1].start_us && spans[1].end_us <= spans[0].end_us);
        let doc = t.chrome_json(json!({}));
        assert_eq!(
            doc.get("traceEvents")
                .and_then(|e| e.as_array())
                .map(Vec::len),
            Some(2)
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, "w", "r".into());
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
