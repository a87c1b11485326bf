//! Observability for the Caldera H2TAP engine.
//!
//! Three pieces:
//!
//! * [`Tracer`] — per-query typed spans ([`SpanKind`]: placement,
//!   cache lookup, materialise, hash build, compute, kernel, merge, fallback)
//!   recorded into a bounded ring. The hot path pays one relaxed atomic
//!   load when tracing is off and one relaxed cursor bump plus an
//!   uncontended slot store when it is on; a contended slot drops the span
//!   rather than blocking the query.
//! * [`MetricsSnapshot`] — a name-keyed view of counters, gauges and
//!   log-bucketed latency [`Histogram`]s (p50/p95/p99/max). It holds no
//!   live state: `HtapStats::metrics` derives it from the engine's typed
//!   stats, which are the only place a counter lives.
//! * [`chrome_trace_json`] — exports captured spans as Chrome
//!   trace-event JSON, loadable in Perfetto / `chrome://tracing`.
//!
//! The histogram itself lives in `h2tap_common::stats` (re-exported here)
//! so latency percentiles are available below this crate in the dependency
//! graph; this crate owns the span recording and the export formats.

#![forbid(unsafe_code)]

pub mod export;
pub mod metrics;
pub mod trace;

pub use export::{chrome_trace_json, json_is_valid};
pub use h2tap_common::Histogram;
pub use metrics::{format_latency_secs, MetricsSnapshot};
pub use trace::{ObsConfig, SpanEvent, SpanKind, SpanRecord, Tracer};
