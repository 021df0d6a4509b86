//! # wino-obs
//!
//! Dependency-free observability for the winofpga workspace: timing
//! spans collected per thread, request-scoped causal traces, and the
//! always-on flight recorder. Nothing here is a process global; every
//! sink is owned by whoever emits into it.
//!
//! ## Spans
//!
//! [`Span::enter`] opens a timing scope that is delivered, when it
//! closes, to the current thread's [`collect`] scope. With no `collect`
//! active on the thread (the common case) the guard is inert: one
//! thread-local read, no allocation, no timestamp. This is how
//! `wino-exec` fills `LayerReport::phase_millis` — the executor wraps
//! each layer in `collect` and folds the `exec.phase` spans it gets
//! back. Spans on other threads are never armed by this thread's
//! `collect`.
//!
//! ## Request-scoped tracing
//!
//! Spans answer "where does the time go"; they cannot answer "what
//! happened to request 4711". The [`ReqEvent`] vocabulary (admitted,
//! enqueued, batched, stolen shard→shard, panic-retry, shed,
//! resolved/failed) traces one request's causal path through the
//! sharded serving layer. The serving layer's `ShardSet` is the one
//! emitter: it writes every event into its [`FlightRecorder`] (bounded
//! per-lane rings, one lane per shard, dumped as a black-box JSON
//! artifact on fault, shed, or drain) and, when one is attached, into
//! a [`TraceIndex`] that reassembles per-request timelines, verifies
//! their causal shape, and exports Chrome trace JSON.
//!
//! ## Example
//!
//! ```
//! use wino_obs::{collect, Span};
//!
//! // Spans outside a collect scope are inert…
//! {
//!     let _ghost = Span::enter("demo", "ghost");
//! }
//! // …and a collect scope sees what completes on its thread inside it.
//! let ((), spans) = collect(|| {
//!     let _outer = Span::enter("demo", "outer");
//!     let _inner = Span::enter("demo", "inner");
//! });
//! assert_eq!(spans.len(), 2);
//! assert_eq!(spans[0].label, "inner"); // inner closes first
//! assert!(spans[1].duration >= spans[0].duration);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod artifact;
mod json;
mod req;
mod span;

pub use artifact::write_atomic;
pub use json::{json_escape, validate_json};
pub use req::{FlightRecorder, ReqEvent, ReqEventKind, TraceIndex, TraceStats};
pub use span::{collect, Span, SpanRecord};
