//! # wino-serve
//!
//! Multi-tenant batched inference serving on top of the `wino-exec`
//! Winograd execution engine — the `winofpga` workspace's software
//! analogue of the paper's central systems argument: fast-algorithm
//! datapaths only pay off when the machinery around them keeps the
//! compute saturated. The rest of the workspace searches, schedules
//! and executes designs; this crate puts a *request path* in front of
//! them.
//!
//! The pieces, front to back:
//!
//! * [`ModelRegistry`] — the four `wino-models` workloads in float and
//!   fixed-point variants behind stable [`ModelId`]s, each with its
//!   schedule pre-lowered and every Winograd kernel bank pre-transformed
//!   (via `wino_exec::PreparedPlan`), so no request ever pays transform
//!   generation;
//! * [`DynamicBatcher`] — coalesces single-image requests into batches
//!   up to the model's batch dimension, work-conserving (an idle worker
//!   takes whatever is queued; `max_wait` ranks a partial batch against
//!   full ones), with per-[`Priority`]-class FIFO ordering and bounded
//!   queues for backpressure, as a clock-free state machine;
//! * [`ShardSet`] — per-shard batcher queues behind home routing
//!   (`model % shards`) with optional work stealing of whole released
//!   batches, so idle shards soak up another shard's backlog without
//!   disturbing per-class FIFO order; it is also the one booker of a
//!   request's life — admission control (bounded queues, optional
//!   SLO-based shedding), completion and failure — into its own
//!   [`Metrics`], its attached flight recorder and (optionally) a
//!   `wino_obs::TraceIndex`;
//! * [`Server`] — per-shard `std::thread` worker groups that drive the
//!   set and execute released batches through the cached banks —
//!   the release is the one place a batch's membership is decided —
//!   and fulfill per-request [`ResponseHandle`]s;
//!   worker faults are caught and retried solo, so admitted requests
//!   resolve (served, or failed with an explicit [`RequestError`])
//!   rather than vanish;
//! * [`Metrics`] — per-model and per-shard throughput and
//!   p50/p95/p99/p99.9 latency from constant-space log histograms,
//!   plus server-wide per-priority-class queue-wait and latency
//!   distributions;
//! * [`SloEngine`] — declarative [`SloPolicy`] latency objectives
//!   (per-class or pooled) evaluated as multi-window error-budget
//!   burn rates over successive metrics snapshots, firing
//!   rising-edge [`SloAlert`]s — clock-free, so the storm bench
//!   drives it on the virtual clock;
//! * [`Clock`] — real ([`SystemClock`]) or deterministic
//!   ([`VirtualClock`]) time, so every deadline and latency figure is
//!   unit-testable without sleeps.
//!
//! Two properties carry the whole design and are pinned by tests
//! (including proptests over arbitrary batch splits, shard counts and
//! steal schedules): a served request's output is **bitwise
//! identical** to running it alone (batching never changes results:
//! every Winograd work item touches one image only, in a fixed
//! accumulation order), and an admitted request is
//! **always resolved** (refusal happens only at admission; shutdown
//! drains every shard before the pool stops; faults surface as
//! explicit errors).
//!
//! ```
//! use wino_serve::{ModelRegistry, Priority, ServeConfig, Server};
//!
//! // Four models × {f32, Q24.8}, kernel banks transformed up front.
//! let registry = ModelRegistry::standard(4, 2)?;
//! let direct = registry.get(&"tinycnn-f32".into()).unwrap().infer_one(7);
//!
//! let config = ServeConfig { shards: 2, ..ServeConfig::default() };
//! let server = Server::start(registry, config);
//! let handle = server.submit(&"tinycnn-f32".into(), Priority::High, 7)?;
//! let result = handle.wait()?;
//! assert_eq!(result.output, direct); // batched == solo, bitwise
//! let metrics = server.shutdown();
//! assert_eq!(metrics.total_completed(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod batcher;
mod clock;
mod metrics;
mod registry;
mod server;
mod shard;
mod slo;

pub use batcher::{
    Batch, BatchConfig, BatchConfigError, BatchItem, DynamicBatcher, Poll, Priority, SubmitError,
};
pub use clock::{Clock, SystemClock, VirtualClock};
pub use metrics::{
    ClassWaitSnapshot, LatencyHistogram, Metrics, MetricsSnapshot, ModelSnapshot, ShardSnapshot,
};
pub use registry::{InferOutput, ModelEntry, ModelId, ModelRegistry, RegistryError};
pub use server::{AdmissionError, InferResult, RequestError, ResponseHandle, ServeConfig, Server};
pub use shard::{ShardPoll, ShardSet};
pub use slo::{BurnWindow, SloAlert, SloEngine, SloPolicy};
