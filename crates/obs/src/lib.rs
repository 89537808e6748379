//! Observability substrate for the qCORAL reproduction.
//!
//! Three independent pillars, all built on the same offline-shim
//! discipline as `qcoral-failpoints` (std only, plus the vendored
//! `serde` shim for the wire types):
//!
//! * [`metrics`] — per-instance registries of counters, gauges and
//!   log-bucket [`Histogram`]s, rendered as Prometheus-style text
//!   exposition. A server's scheduler, store and analysis totals all
//!   count through these primitives instead of bespoke atomics, so every
//!   number the service reports has exactly one source of truth.
//! * [`trace`] — cheap, thread-aware span timers collected into a
//!   per-request [`Trace`], returned in analysis reports when
//!   `Options.trace` is set and exportable as Chrome trace-event JSON
//!   (loads directly in Perfetto / `chrome://tracing`). Spans use
//!   monotonic clocks only and never touch an RNG, so tracing cannot
//!   perturb estimates: trace-on and trace-off runs are bit-identical.
//! * [`log`] — single-line structured JSON log records on stderr
//!   (timestamp, level, event, fields), level-filtered through the
//!   `QCORAL_LOG` environment variable (`error|warn|info|debug`,
//!   default `info`).
//!
//! [`Histogram`]: metrics::Histogram
//! [`Trace`]: trace::Trace

#![warn(missing_docs)]

pub mod log;
pub mod metrics;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};
pub use trace::{SpanArg, SpanRecord, Trace, TraceData};
