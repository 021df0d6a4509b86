//! # wino-obs
//!
//! Dependency-free observability for the winofpga workspace: tracing
//! spans, an aggregating phase profiler, a bounded trace recorder that
//! exports Chrome `trace_event` JSON, and a metrics exposition layer
//! (Prometheus text + JSON) behind one [`ObsReport`] entry point.
//!
//! ## Design
//!
//! The hot path is the *disabled* path. [`Span::enter`] performs a
//! single relaxed atomic load when nothing is listening — no
//! allocation, no locking, no timestamp. Work is only done when a sink
//! is active, which happens in exactly two ways:
//!
//! * **Global tracing** ([`enable`]) dispatches every completed span to
//!   the installed [`Recorder`] (see [`set_recorder`]). This is what
//!   benches use to build profile trees and Chrome traces.
//! * **Thread-local collection** ([`collect`]) captures the spans that
//!   complete on the current thread during a closure. This is how
//!   `wino-exec` fills `LayerReport::phase_millis` without turning
//!   tracing on for the whole process.
//!
//! Span stacks are thread-local, so self-time (total minus time spent
//! in child spans *on the same thread*) needs no synchronisation.
//! Cross-thread intervals that cannot be expressed as a lexical scope
//! — e.g. a serve request's queue wait, measured between threads — are
//! reported with [`record_interval`].
//!
//! ## Request-scoped tracing (v2)
//!
//! Spans answer "where does the time go"; they cannot answer "what
//! happened to request 4711". The [`ReqEvent`] vocabulary (admitted,
//! enqueued, batched, stolen shard→shard, panic-retry, shed,
//! resolved/failed) traces one request's causal path through the
//! sharded serving layer. Events flow through
//! [`record_req`] — the same one-relaxed-load-when-off discipline as
//! spans — into a [`TraceIndex`] that reassembles per-request
//! timelines, verifies their causal shape, and exports Chrome trace
//! JSON. Independently of the global tracing switch, a
//! [`FlightRecorder`] (bounded per-lane rings, one lane per shard)
//! keeps the newest events always-on and dumps a black-box JSON
//! artifact on fault, shed, or drain.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use wino_obs::{collect, AggregatingProfiler, Span};
//!
//! // Thread-local collection: no global state touched.
//! let ((), spans) = collect(|| {
//!     let _outer = Span::enter("demo", "outer");
//!     let _inner = Span::enter("demo", "inner");
//! });
//! assert_eq!(spans.len(), 2);
//! assert_eq!(spans[0].path, "outer/inner"); // inner closes first
//!
//! // Global tracing into an aggregating profiler.
//! let profiler = Arc::new(AggregatingProfiler::new());
//! wino_obs::set_recorder(profiler.clone());
//! wino_obs::enable();
//! {
//!     let _span = Span::enter("demo", "traced");
//! }
//! wino_obs::disable();
//! wino_obs::clear_recorder();
//! assert_eq!(profiler.snapshot().entries.len(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod artifact;
mod json;
mod recorder;
mod report;
mod req;
mod span;

pub use artifact::write_atomic;
pub use json::validate_json;
pub use recorder::{AggregatingProfiler, ProfileEntry, ProfileSnapshot, Recorder, TraceRecorder};
pub use report::{json_escape, MetricFamily, MetricKind, MetricSample, ObsReport};
pub use req::{FlightRecorder, ReqEvent, ReqEventKind, TraceIndex, TraceStats};
pub use span::{
    clear_recorder, collect, disable, enable, epoch_elapsed, is_enabled, record_interval,
    record_req, set_recorder, Span, SpanRecord,
};
