//! Per-request trace spans: cheap, thread-aware timers over a shared
//! monotonic epoch, exportable as Chrome trace-event JSON.
//!
//! A [`Trace`] is created once per traced request and threaded (as an
//! `Arc`) through every layer the request touches — the connection
//! thread that decodes it and the worker that analyzes it included,
//! since the collector is an explicit handle, never thread-local state.
//! Each instrumentation site measures with [`Trace::now_us`] and
//! deposits a completed span with [`Trace::record`]; at the end of the
//! request [`Trace::take`] drains the spans into a serializable
//! [`TraceData`] carried in the report.
//!
//! Determinism contract: spans read the monotonic clock and an atomic
//! thread-id counter only. No RNG is touched anywhere in this module,
//! and no instrumented code path branches on a span's value, so running
//! with tracing on or off yields bit-identical estimates.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Deserialize, JsonEmitter, Serialize};

/// One key/value annotation on a span (both sides carried as text).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpanArg {
    /// Annotation name, e.g. `boxes`.
    pub key: String,
    /// Annotation value, preformatted.
    pub value: String,
}

/// One completed span.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Span name, e.g. `paving` or `round`.
    pub name: String,
    /// Category (Chrome trace `cat`), e.g. `icp`, `sampling`.
    pub cat: String,
    /// Start offset from the trace epoch, microseconds.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Small dense id of the recording thread (stable within a process).
    pub tid: u64,
    /// Annotations.
    pub args: Vec<SpanArg>,
}

/// A drained trace: the serializable span list carried in a `Report`.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceData {
    /// All recorded spans, ordered by start time.
    pub spans: Vec<SpanRecord>,
}

/// Small dense id for the current thread (first use assigns the next
/// free id). Purely cosmetic — it groups spans per track in Perfetto.
fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

/// A live per-request span collector. See the module docs.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Trace {
    /// A fresh collector whose epoch is "now".
    pub fn new() -> Arc<Trace> {
        Arc::new(Trace {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Microseconds elapsed since the trace epoch — the `start_us` of a
    /// span about to begin.
    #[inline]
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Records a span that started at `start_us` (from [`Trace::now_us`])
    /// and ends now, on the calling thread's track.
    pub fn record(&self, name: &str, cat: &str, start_us: u64, args: Vec<SpanArg>) {
        let end = self.now_us();
        self.record_at(name, cat, start_us, end.max(start_us), args);
    }

    /// Records a span with explicit start and end offsets.
    pub fn record_at(&self, name: &str, cat: &str, start_us: u64, end_us: u64, args: Vec<SpanArg>) {
        let record = SpanRecord {
            name: name.to_string(),
            cat: cat.to_string(),
            start_us,
            dur_us: end_us.saturating_sub(start_us),
            tid: thread_id(),
            args,
        };
        self.spans.lock().expect("trace spans").push(record);
    }

    /// Number of spans collected so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("trace spans").len()
    }

    /// Whether no spans were collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains the collected spans, sorted by start time (a span is
    /// deposited when it ends, after the spans nested in it).
    pub fn take(&self) -> TraceData {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("trace spans"));
        spans.sort_by_key(|s| (s.start_us, s.tid));
        TraceData { spans }
    }
}

/// Convenience: `now_us` through an optional trace handle, for the
/// pervasive `Option<Arc<Trace>>` call sites. `None` costs one branch.
#[inline]
pub fn span_start(trace: &Option<Arc<Trace>>) -> u64 {
    match trace {
        Some(t) => t.now_us(),
        None => 0,
    }
}

/// Builds a `SpanArg`, formatting the value.
pub fn arg(key: &str, value: impl std::fmt::Display) -> SpanArg {
    SpanArg {
        key: key.to_string(),
        value: value.to_string(),
    }
}

impl TraceData {
    /// Renders the spans as Chrome trace-event JSON (the
    /// `{"traceEvents": […]}` object form), loadable in Perfetto or
    /// `chrome://tracing`. Each span becomes a complete (`"ph": "X"`)
    /// event with its args as a string-valued object.
    pub fn to_chrome_json(&self) -> String {
        let mut e = JsonEmitter::new(false);
        e.begin_object();
        e.key("traceEvents");
        e.begin_array();
        for s in &self.spans {
            e.elem();
            e.begin_object();
            e.key("name");
            e.string(&s.name);
            e.key("cat");
            e.string(&s.cat);
            e.key("ph");
            e.string("X");
            e.key("ts");
            e.raw(&s.start_us.to_string());
            e.key("dur");
            e.raw(&s.dur_us.to_string());
            e.key("pid");
            e.raw("1");
            e.key("tid");
            e.raw(&s.tid.to_string());
            e.key("args");
            e.begin_object();
            for a in &s.args {
                e.key(&a.key);
                e.string(&a.value);
            }
            e.end_object();
            e.end_object();
        }
        e.end_array();
        e.end_object();
        e.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_and_drain_sorted() {
        let t = Trace::new();
        let s0 = t.now_us();
        t.record("outer", "test", s0, vec![arg("k", 42)]);
        t.record_at("inner", "test", 5, 9, vec![]);
        assert_eq!(t.len(), 2);
        let data = t.take();
        assert!(t.is_empty(), "take drains");
        assert_eq!(data.spans.len(), 2);
        assert!(
            data.spans
                .windows(2)
                .all(|w| w[0].start_us <= w[1].start_us),
            "sorted by start"
        );
        let inner = data.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!((inner.start_us, inner.dur_us), (5, 4));
    }

    #[test]
    fn chrome_export_is_valid_json_with_expected_shape() {
        let t = Trace::new();
        t.record_at("paving", "icp", 0, 10, vec![arg("boxes", 7)]);
        t.record_at("round", "sampling", 10, 30, vec![]);
        let json = t.take().to_chrome_json();
        let v = serde::JsonValue::parse(&json).expect("valid JSON");
        let serde::JsonValue::Array(events) = v.get("traceEvents").expect("traceEvents") else {
            panic!("traceEvents is not an array");
        };
        assert_eq!(events.len(), 2);
        for ev in events {
            assert_eq!(ev.get("ph"), Some(&serde::JsonValue::String("X".into())));
            assert!(ev.get("ts").is_some() && ev.get("dur").is_some());
            assert!(ev.get("pid").is_some() && ev.get("tid").is_some());
        }
        assert!(json.contains("\"boxes\":\"7\""));
    }

    #[test]
    fn wire_round_trip_is_lossless() {
        let t = Trace::new();
        t.record_at("span \"quoted\"", "cat", 1, 2, vec![arg("a", "b\nc")]);
        let data = t.take();
        let json = serde_json::to_string(&data).expect("serializes");
        let back: TraceData = serde_json::from_str(&json).expect("round trip");
        assert_eq!(back, data);
    }
}
