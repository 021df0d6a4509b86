//! The serving front end: admission control, sharded worker groups,
//! batch execution, and response delivery.
//!
//! A [`Server`] owns one clamped [`ModelRegistry`] clone *per shard*, a
//! [`ShardSet`] of per-shard [`DynamicBatcher`](crate::DynamicBatcher)s,
//! and `shards × workers` threads. The request lifecycle:
//!
//! 1. **Submit** — [`Server::submit`] resolves the model ID and hands
//!    the request to [`ShardSet::submit`], which applies admission
//!    control under the home-shard lock (shutdown; optionally, the SLO
//!    test: refuse when `backlog × smoothed-per-image-service-time`
//!    already exceeds the configured SLO; the bounded home-shard
//!    queue), stamps the arrival time, enqueues the request and books
//!    any refusal. The caller gets a [`ResponseHandle`] — a one-shot
//!    slot the serving side fulfills.
//! 2. **Batch** — an idle worker takes whatever its home shard has
//!    queued at once: a full batch, else one whose oldest request has
//!    waited `max_wait`, else the oldest partial batch. Requests that
//!    arrive while every worker is busy coalesce. An idle shard's
//!    worker may **steal** a batch from another shard
//!    ([`ShardSet::poll_at`]); stealing moves only whole released
//!    batches, so ordering is untouched.
//! 3. **Execute** — the worker drives the released batch, layer by
//!    layer, through the model's cached plans
//!    ([`ModelEntry::infer_batch`](crate::ModelEntry::infer_batch)).
//!    The release decided the batch's membership; nothing joins or
//!    leaves it in flight.
//! 4. **Respond** — per-request outputs (bitwise identical to a solo
//!    run, whoever shared the batch) are split out,
//!    [`ShardSet::complete`] books per-model, per-shard and per-class
//!    figures and traces each lane resolved, and each handle is
//!    fulfilled.
//!
//! **Faults.** A worker panic mid-batch (exercised by
//! [`ServeConfig::inject_panic_seed`]) is caught; the worker retries
//! every lane of the doomed batch solo, so innocents still get their
//! bitwise-correct outputs and only the poisoned lane fails — with an
//! explicit [`RequestError`], never silence. Each solo retry is its own
//! batch of one: booked as such and answered as soon as it finishes.
//! Admitted requests are thus *resolved* (served or explicitly
//! failed), never lost, and [`Server::shutdown`] still drains and joins
//! cleanly.

use crate::{
    Batch, BatchConfig, BatchItem, Clock, InferOutput, MetricsSnapshot, ModelId, ModelRegistry,
    Priority, ShardPoll, ShardSet, SubmitError, SystemClock,
};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use wino_obs::{FlightRecorder, ReqEvent, ReqEventKind, TraceIndex};

/// Server policy knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Executor shards (clamped to ≥ 1). Each shard owns a worker
    /// group, a registry clone clamped to the shard's thread budget,
    /// and its own batcher queue; models route to `model % shards`.
    pub shards: usize,
    /// Worker threads **per shard** taking batches from the queues
    /// (clamped to ≥ 1). Each worker executes one batch at a time; the
    /// *intra*-batch thread fan-out is the `ExecConfig` the registry's
    /// executors were built with, clamped at startup to the per-worker
    /// budget below.
    pub workers: usize,
    /// Whether an idle shard's workers may steal released batches from
    /// other shards' queues. Stealing moves whole released batches
    /// only, so it cannot reorder or re-bit anything.
    pub steal: bool,
    /// Per-worker execution thread budget. At startup every shard's
    /// registry clone is clamped to at most this many threads per
    /// call, so total demand is bounded by `shards × workers × budget`
    /// regardless of the `ExecConfig` the registry was built with.
    /// `None` (the default) divides the machine evenly:
    /// `max(1, available_parallelism / (shards × workers))`. Clamping
    /// cannot change results — engine outputs are bitwise
    /// thread-count-invariant.
    pub exec_threads_per_worker: Option<usize>,
    /// Dynamic batching policy (see [`BatchConfig`]), applied per
    /// shard.
    pub batch: BatchConfig,
    /// End-to-end latency objective. When set, admission refuses
    /// requests whose estimated queueing delay (model backlog ×
    /// smoothed per-image service time) already exceeds it — shedding
    /// load early instead of serving answers that are already late.
    pub slo: Option<Duration>,
    /// Fault injection: a worker that finds this seed in its batch
    /// panics mid-execution, exercising the catch → solo-retry →
    /// explicit-failure path. The poisoned seed fails deterministically
    /// (its solo retry is refused too); everyone else in the batch is
    /// still served correctly. Testing knob — leave `None` in
    /// production.
    pub inject_panic_seed: Option<u64>,
    /// Flight-recorder ring capacity **per shard** (clamped to ≥ 1).
    /// The black box is always on; 256 events per shard cost a few
    /// kilobytes and one short per-shard mutex hold per event.
    pub flight_capacity: usize,
    /// Where the flight recorder dumps its black-box JSON artifacts
    /// (`flight_fault.json` after a worker fault, `flight_shed.json`
    /// on the first shed, `flight_drain.json` at shutdown). `None`
    /// (the default) disables dumping; the rings still record and can
    /// be read through [`Server::flight_json`].
    pub flight_dump_dir: Option<PathBuf>,
    /// A request-timeline index to attach to the server's
    /// [`ShardSet`]: every request event lands in it too, so a caller
    /// can [`verify`](TraceIndex::verify) the timelines of a threaded
    /// run. `None` (the default) indexes nothing.
    pub trace: Option<Arc<TraceIndex>>,
}

impl Default for ServeConfig {
    /// One shard of two workers, stealing on, an even per-worker split
    /// of the machine, default batching, no SLO-based shedding, no
    /// fault injection.
    fn default() -> ServeConfig {
        ServeConfig {
            shards: 1,
            workers: 2,
            steal: true,
            exec_threads_per_worker: None,
            batch: BatchConfig::default(),
            slo: None,
            inject_panic_seed: None,
            flight_capacity: 256,
            flight_dump_dir: None,
            trace: None,
        }
    }
}

impl ServeConfig {
    /// The execution thread budget each worker gets: the explicit
    /// [`exec_threads_per_worker`](Self::exec_threads_per_worker) if
    /// set, otherwise an even division of the hardware threads across
    /// all workers of all shards (never below 1).
    pub fn worker_thread_budget(&self) -> usize {
        self.exec_threads_per_worker.unwrap_or_else(|| {
            let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
            (cores / (self.shards.max(1) * self.workers.max(1))).max(1)
        })
    }
}

/// Why a request was refused at the door.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionError {
    /// No model is registered under the given ID.
    UnknownModel(String),
    /// The model's bounded queue is full — retry later.
    QueueFull {
        /// The refused model.
        model: ModelId,
        /// The queue bound that was hit.
        capacity: usize,
    },
    /// The backlog already implies missing the SLO.
    SloUnattainable {
        /// The refused model.
        model: ModelId,
        /// Estimated queueing delay at admission time.
        estimated: Duration,
        /// The configured objective it exceeds.
        slo: Duration,
    },
    /// The server is shutting down.
    ShuttingDown,
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::UnknownModel(id) => write!(f, "unknown model '{id}'"),
            AdmissionError::QueueFull { model, capacity } => {
                write!(f, "queue for '{model}' is full ({capacity} requests)")
            }
            AdmissionError::SloUnattainable { model, estimated, slo } => {
                write!(f, "'{model}' backlog implies ~{estimated:?} queueing, over the {slo:?} SLO")
            }
            AdmissionError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// An admitted request that could not be served: the worker executing
/// its batch faulted, and the solo retry faulted again. This is the
/// *only* non-success outcome of an admitted request — it is delivered
/// through the [`ResponseHandle`], never silently dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestError {
    /// The model the request targeted.
    pub model: ModelId,
    /// The request's input seed.
    pub seed: u64,
    /// What the worker observed (panic payload when stringy).
    pub reason: String,
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "request (model '{}', seed {}) failed: {}", self.model, self.seed, self.reason)
    }
}

impl std::error::Error for RequestError {}

/// A finished request as delivered to the submitter.
#[derive(Debug, Clone, PartialEq)]
pub struct InferResult {
    /// The model that served the request.
    pub model: ModelId,
    /// The request's input seed (echoed back).
    pub seed: u64,
    /// Per-layer outputs of the request's image.
    pub output: InferOutput,
    /// Time spent queued before the batch started executing.
    pub queue_wait: Duration,
    /// End-to-end latency (admission to response).
    pub latency: Duration,
    /// How many requests shared the executed batch (1 for a lane
    /// retried alone after a worker fault).
    pub batch_size: usize,
}

/// One-shot response slot shared between a worker and the submitter.
#[derive(Debug, Default)]
struct ResponseSlot {
    cell: Mutex<Option<Result<InferResult, RequestError>>>,
    ready: Condvar,
}

impl ResponseSlot {
    fn fulfill(&self, result: Result<InferResult, RequestError>) {
        let mut cell = self.cell.lock().expect("slot lock");
        *cell = Some(result);
        self.ready.notify_all();
    }
}

/// The submitter's end of an admitted request. Deliberately one-shot
/// (not `Clone`): [`wait`](Self::wait) / [`try_take`](Self::try_take)
/// move the single result out of the slot, so a second waiter on the
/// same request would block forever — the type makes that unwritable.
#[derive(Debug)]
pub struct ResponseHandle {
    slot: Arc<ResponseSlot>,
}

impl ResponseHandle {
    /// Blocks until the request resolves. Admitted requests always
    /// resolve — served ([`Ok`]) or explicitly failed by the fault
    /// path ([`Err`]) — so this cannot hang on a live or shutting-down
    /// server.
    ///
    /// # Errors
    ///
    /// Returns the [`RequestError`] a faulting worker recorded for
    /// this request (only possible when a worker panicked mid-batch
    /// *and* the solo retry failed too).
    pub fn wait(&self) -> Result<InferResult, RequestError> {
        let mut cell = self.slot.cell.lock().expect("slot lock");
        loop {
            if let Some(result) = cell.take() {
                return result;
            }
            cell = self.slot.ready.wait(cell).expect("slot lock");
        }
    }

    /// Takes the resolution if it has already arrived.
    pub fn try_take(&self) -> Option<Result<InferResult, RequestError>> {
        self.slot.cell.lock().expect("slot lock").take()
    }
}

/// Per-request payload carried through the batcher.
struct Ticket {
    seed: u64,
    slot: Arc<ResponseSlot>,
}

struct Inner {
    /// One registry clone per shard, each clamped to the per-worker
    /// thread budget. Cloning is cheap where it matters: every
    /// `PreparedPlan` runner is `Arc`-shared, so the transformed kernel
    /// banks exist once regardless of the shard count.
    registries: Vec<ModelRegistry>,
    clock: Arc<dyn Clock>,
    inject_panic_seed: Option<u64>,
    /// Admits, dispatches and books every request.
    shards: ShardSet<Ticket>,
    /// The always-on black box (one event ring per shard), attached to
    /// the [`ShardSet`], which emits every request event into it; the
    /// server keeps a handle to dump it.
    flight: Arc<FlightRecorder>,
    flight_dump_dir: Option<PathBuf>,
    /// Debounces the first-shed black-box dump: overload sheds
    /// thousands of requests and one artifact is enough.
    shed_dumped: AtomicBool,
}

impl Inner {
    /// Dumps the black box to `file` in the configured dump directory,
    /// if one is set. Dump failures are swallowed: the black box is a
    /// diagnostic, never worth failing the serving path over.
    fn dump_flight(&self, cause: &str, file: &str) {
        if let Some(dir) = &self.flight_dump_dir {
            let _ = self.flight.dump_to(&dir.join(file), cause);
        }
    }
    /// One worker's life on `shard`: take whatever is queued (home
    /// first, then steal), execute it, respond; park until a submit
    /// when every queue it may look at is empty. Exits only when the
    /// set is closed *and* every shard's queue is drained.
    fn worker_loop(&self, shard: usize) {
        loop {
            if self.shards.is_closed() {
                // Drain phase: release leftover batches from any shard,
                // stealing or not, until nothing is queued (see
                // `ShardSet::submit` for why none is left behind).
                match self.shards.drain_one(shard, self.clock.now()) {
                    Some((batch, from)) => self.execute(shard, from, batch),
                    None => return,
                }
                continue;
            }
            let now = self.clock.now();
            // Cap the park: a submit to another shard that lands
            // between this worker's steal scan and its park wakes it
            // no later than the cap.
            if let ShardPoll::Ready { batch, from } =
                self.shards.poll_or_park(shard, now, Duration::from_millis(50))
            {
                self.execute(shard, from, batch);
            }
        }
    }

    /// Executes one batch, released from shard `from`'s queue, on
    /// `shard`'s worker group and resolves every lane. If the batch
    /// panics, every lane is retried alone, as a batch of one; a lane
    /// that faults again (deterministically, for the injected poison
    /// seed) resolves to an explicit [`RequestError`].
    fn execute(&self, shard: usize, from: usize, batch: Batch<Ticket>) {
        let Batch { model, requests } = batch;
        let Err(reason) = self.run(shard, from, model, &requests) else {
            return;
        };
        for request in &requests {
            let retry = ReqEvent::new(request.seq, self.clock.now(), ReqEventKind::PanicRetry);
            self.shards.emit(shard, retry);
            if self.run(shard, from, model, std::slice::from_ref(request)).is_err() {
                self.shards.fail(shard, model, request.seq, self.clock.now());
                request.payload.slot.fulfill(Err(RequestError {
                    model: self.registries[shard].entry(model).id().clone(),
                    seed: request.payload.seed,
                    reason: format!("batch worker fault, solo retry failed: {reason}"),
                }));
            }
        }
        // The fault path ran to completion: leave the black box behind,
        // panic-retry and failure events included.
        self.dump_flight("fault", "flight_fault.json");
    }

    /// Runs `requests` of `model` as one batch on `shard`'s worker
    /// group. On success the set books the batch and every lane is
    /// answered; on a panic nothing is booked or answered and the panic
    /// message is returned.
    fn run(
        &self,
        shard: usize,
        from: usize,
        model: usize,
        requests: &[BatchItem<Ticket>],
    ) -> Result<(), String> {
        let entry = self.registries[shard].entry(model);
        let started = self.clock.now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let seeds: Vec<u64> = requests.iter().map(|r| r.payload.seed).collect();
            if self.inject_panic_seed.is_some_and(|p| seeds.contains(&p)) {
                panic!("injected worker fault");
            }
            entry.infer_batch(&seeds)
        }));
        let finished = self.clock.now();
        let outputs = outcome.map_err(|payload| {
            payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "worker panicked".to_owned())
        })?;
        self.shards.complete(shard, from, model, requests, started, finished);
        for (request, output) in requests.iter().zip(outputs) {
            request.payload.slot.fulfill(Ok(InferResult {
                model: entry.id().clone(),
                seed: request.payload.seed,
                output,
                queue_wait: started.saturating_sub(request.enqueued_at),
                latency: finished.saturating_sub(request.enqueued_at),
                batch_size: requests.len(),
            }));
        }
        Ok(())
    }
}

/// A running inference server: sharded registries + batcher shards +
/// worker groups + metrics. Construct with [`Server::start`], feed
/// with [`Server::submit`], stop with [`Server::shutdown`] (or drop).
pub struct Server {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Server")
            .field("models", &self.inner.registries[0].len())
            .field("shards", &self.inner.shards.shard_count())
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Starts the worker groups over `registry` on the real monotonic
    /// clock.
    pub fn start(registry: ModelRegistry, config: ServeConfig) -> Server {
        Server::with_clock(registry, config, Arc::new(SystemClock::new()))
    }

    /// Starts the worker groups on an explicit clock — a
    /// [`VirtualClock`](crate::VirtualClock) makes latency accounting
    /// deterministic in tests. Fully deterministic batching tests drive
    /// [`DynamicBatcher`](crate::DynamicBatcher) or
    /// [`ShardSet`] directly instead of a threaded server.
    pub fn with_clock(
        registry: ModelRegistry,
        config: ServeConfig,
        clock: Arc<dyn Clock>,
    ) -> Server {
        let shard_count = config.shards.max(1);
        let workers_per_shard = config.workers.max(1);
        // Bound total thread demand: `shards × workers` batches execute
        // concurrently, so every shard's registry clone gets at most
        // the per-worker budget (see
        // `ServeConfig::exec_threads_per_worker`). Prepared kernel
        // banks stay shared across clones (`Arc` runners), so the
        // clones cost table space, not transform work.
        let budget = config.worker_thread_budget();
        let registries: Vec<ModelRegistry> = (0..shard_count)
            .map(|_| {
                let mut clone = registry.clone();
                clone.clamp_exec_threads(budget);
                clone
            })
            .collect();
        // Per-model batch caps: never release more than a model's
        // schedule-declared batch dimension, whatever the policy says.
        let caps = registries[0].entries().iter().map(|e| e.max_batch()).collect();
        // The black box: one bounded event ring per shard, always on.
        let flight = Arc::new(FlightRecorder::new(shard_count, config.flight_capacity.max(1)));
        let names = registries[0].entries().iter().map(|e| e.id().to_string()).collect();
        let mut shards = ShardSet::new(shard_count, caps, config.batch, config.steal)
            .with_model_names(names)
            .with_slo(config.slo)
            .with_flight(Arc::clone(&flight));
        if let Some(trace) = config.trace {
            shards = shards.with_trace(trace);
        }
        let inner = Arc::new(Inner {
            registries,
            clock,
            inject_panic_seed: config.inject_panic_seed,
            shards,
            flight,
            flight_dump_dir: config.flight_dump_dir.clone(),
            shed_dumped: AtomicBool::new(false),
        });
        let workers = (0..shard_count)
            .flat_map(|shard| (0..workers_per_shard).map(move |i| (shard, i)))
            .map(|(shard, i)| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("wino-serve-{shard}-{i}"))
                    .spawn(move || inner.worker_loop(shard))
                    .expect("spawn worker")
            })
            .collect();
        Server { inner, workers }
    }

    /// The models being served (shard 0's clamped clone — all shards
    /// serve the same roster).
    pub fn registry(&self) -> &ModelRegistry {
        &self.inner.registries[0]
    }

    /// Number of executor shards.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.shard_count()
    }

    /// Submits one single-image request for `model` at `priority`.
    /// `seed` identifies the request's deterministic input (see
    /// [`ModelEntry::request_input`](crate::ModelEntry::request_input)).
    ///
    /// # Errors
    ///
    /// Returns [`AdmissionError`] when the request is refused — unknown
    /// model, bounded queue full, the SLO test failing, or shutdown in
    /// progress. Refusal is the *only* loss mode: an `Ok` here
    /// guarantees a resolution through the handle.
    pub fn submit(
        &self,
        model: &ModelId,
        priority: Priority,
        seed: u64,
    ) -> Result<ResponseHandle, AdmissionError> {
        let inner = &self.inner;
        let Some(index) = inner.registries[0].index_of(model) else {
            return Err(AdmissionError::UnknownModel(model.to_string()));
        };
        let slot = Arc::new(ResponseSlot::default());
        let ticket = Ticket { seed, slot: Arc::clone(&slot) };
        let err = match inner.shards.submit(index, priority, ticket, inner.clock.now()) {
            Ok(_) => return Ok(ResponseHandle { slot }),
            Err(SubmitError::Closed) => return Err(AdmissionError::ShuttingDown),
            Err(SubmitError::QueueFull { capacity, .. }) => {
                AdmissionError::QueueFull { model: model.clone(), capacity }
            }
            Err(SubmitError::SloUnattainable { estimated, slo, .. }) => {
                AdmissionError::SloUnattainable { model: model.clone(), estimated, slo }
            }
        };
        if !inner.shed_dumped.swap(true, Ordering::AcqRel) {
            // First shed only: overload sheds thousands and one
            // black-box artifact is enough.
            inner.dump_flight("shed", "flight_shed.json");
        }
        Err(err)
    }

    /// A metrics snapshot covering the server's lifetime so far.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.shards.snapshot(self.inner.clock.now())
    }

    /// Requests currently queued (admitted, not yet executing), across
    /// every shard.
    pub fn queued(&self) -> usize {
        self.inner.shards.total_queued()
    }

    /// The flight recorder's black box as a JSON document — the last
    /// `flight_capacity` request-trace events per shard, newest last,
    /// tagged with `cause`. Always available, dump directory or not.
    pub fn flight_json(&self, cause: &str) -> String {
        self.inner.flight.dump_json(cause)
    }

    /// Stops accepting work, resolves every admitted request, joins
    /// every worker group, and returns the final metrics. Dropping the
    /// server does the same minus the snapshot.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.stop();
        self.metrics()
    }

    fn stop(&mut self) {
        self.inner.shards.close();
        let had_workers = !self.workers.is_empty();
        for handle in self.workers.drain(..) {
            handle.join().expect("worker panicked");
        }
        if had_workers {
            // The pool is quiet: leave the shutdown black box behind.
            self.inner.dump_flight("drain", "flight_drain.json");
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VirtualClock;
    use std::sync::OnceLock;
    use std::time::Instant;
    use wino_core::{ConvShape, Workload};
    use wino_exec::{ExecConfig, Schedule};

    fn tiny_registry(max_batch: usize) -> ModelRegistry {
        let mut wl = Workload::new("toy", max_batch);
        wl.push("a", "G", ConvShape::same_padded(6, 6, 1, 2, 3));
        let schedule = Schedule::homogeneous(&wl, 2).unwrap();
        let mut registry = ModelRegistry::new();
        registry.register("toy", wl, schedule, ExecConfig::with_threads(1), 3).unwrap();
        registry
    }

    /// Two toy models so a 2-shard server routes them to different
    /// shards.
    fn two_model_registry(max_batch: usize) -> ModelRegistry {
        let mut registry = ModelRegistry::new();
        for name in ["toy-a", "toy-b"] {
            let mut wl = Workload::new(name, max_batch);
            wl.push("a", "G", ConvShape::same_padded(6, 6, 1, 2, 3));
            wl.push("b", "G", ConvShape { h: 6, w: 6, c: 2, k: 2, r: 3, stride: 2, pad: 1 });
            let schedule = Schedule::homogeneous(&wl, 2).unwrap();
            registry.register(name, wl, schedule, ExecConfig::with_threads(1), 3).unwrap();
        }
        registry
    }

    /// The least wall time one pass of the `slow` model takes. Every
    /// check a test makes while a blocker runs (a few toy requests,
    /// each served within milliseconds) settles long before it ends.
    const BLOCKER: Duration = Duration::from_millis(250);

    /// `registry` plus a `slow` model: one same-padded 3×3 layer of
    /// `32s × 32s` pixels and `24s → 24s` channels, with the scale `s`
    /// found once per test binary so that a pass takes at least
    /// [`BLOCKER`] in this build. A fixed geometry would not do: a
    /// release build runs it about a hundred times faster than a debug
    /// build, and then finishes before the requests queued behind it
    /// are served.
    fn with_blocker(registry: ModelRegistry) -> ModelRegistry {
        static SCALE: OnceLock<f64> = OnceLock::new();
        let scale = *SCALE.get_or_init(|| {
            let mut scale = 1.0;
            loop {
                let slow = with_slow_model(ModelRegistry::new(), scale);
                // The fastest of two passes, so a preempted pass cannot
                // make the blocker look longer than it is.
                let pass = (0..2)
                    .map(|_| {
                        let started = Instant::now();
                        slow.entry(0).infer_one(0);
                        started.elapsed()
                    })
                    .min()
                    .expect("two passes");
                if pass >= BLOCKER {
                    return scale;
                }
                // The work grows as s³ (transforms) to s⁴ (multiply):
                // aim at the s⁴ estimate, and grow by at least 10 %.
                scale *= (BLOCKER.as_secs_f64() / pass.as_secs_f64()).powf(0.25).max(1.1);
            }
        });
        with_slow_model(registry, scale)
    }

    fn with_slow_model(mut registry: ModelRegistry, scale: f64) -> ModelRegistry {
        let (size, channels) = ((32.0 * scale) as usize, (24.0 * scale) as usize);
        let mut wl = Workload::new("slow", 1);
        wl.push("a", "G", ConvShape::same_padded(size, size, channels, channels, 3));
        let schedule = Schedule::homogeneous(&wl, 2).unwrap();
        registry.register("slow", wl, schedule, ExecConfig::with_threads(1), 3).unwrap();
        registry
    }

    /// Submits one `slow` request and returns once a worker has taken
    /// it: until that request finishes, a one-worker server releases
    /// nothing else.
    fn occupy_the_worker(server: &Server) -> ResponseHandle {
        let handle = server.submit(&"slow".into(), Priority::Normal, 0).expect("admitted");
        while server.queued() > 0 {
            std::thread::yield_now();
        }
        handle
    }

    fn quick_config() -> ServeConfig {
        ServeConfig {
            workers: 2,
            batch: BatchConfig {
                max_batch: 4,
                max_wait: Duration::from_micros(200),
                queue_capacity: 64,
            },
            ..ServeConfig::default()
        }
    }

    #[test]
    fn served_response_matches_direct_inference() {
        let registry = tiny_registry(4);
        let direct = registry.entry(0).infer_one(99);
        let server = Server::start(registry, quick_config());
        let handle = server.submit(&"toy".into(), Priority::Normal, 99).expect("admitted");
        let result = handle.wait().expect("served");
        assert_eq!(result.output, direct, "served == direct, bitwise");
        assert_eq!(result.seed, 99);
        assert!(result.batch_size >= 1);
        let snap = server.shutdown();
        assert_eq!(snap.total_completed(), 1);
    }

    #[test]
    fn sharded_server_serves_bitwise_across_models_and_shards() {
        let registry = two_model_registry(4);
        let direct_a = registry.entry(0).infer_one(5);
        let direct_b = registry.entry(1).infer_one(6);
        let server = Server::start(
            two_model_registry(4),
            ServeConfig {
                shards: 2,
                workers: 1,
                exec_threads_per_worker: Some(1),
                batch: BatchConfig {
                    max_batch: 4,
                    max_wait: Duration::from_micros(200),
                    queue_capacity: 64,
                },
                ..ServeConfig::default()
            },
        );
        assert_eq!(server.shard_count(), 2);
        let ha = server.submit(&"toy-a".into(), Priority::Normal, 5).expect("admitted");
        let hb = server.submit(&"toy-b".into(), Priority::High, 6).expect("admitted");
        assert_eq!(ha.wait().expect("served").output, direct_a);
        assert_eq!(hb.wait().expect("served").output, direct_b);
        let snap = server.shutdown();
        assert_eq!(snap.total_completed(), 2);
        assert_eq!(snap.per_shard.len(), 2);
        assert_eq!(snap.per_shard.iter().map(|s| s.completed).sum::<u64>(), 2);
    }

    #[test]
    fn every_admitted_request_is_answered_even_through_shutdown() {
        let server = Server::start(
            with_blocker(tiny_registry(4)),
            ServeConfig {
                workers: 1,
                batch: BatchConfig {
                    max_batch: 64,
                    max_wait: Duration::from_secs(3600),
                    queue_capacity: 64,
                },
                ..ServeConfig::default()
            },
        );
        // The one worker is busy, so the five are still queued when
        // shutdown begins: its drain serves them.
        let blocker = occupy_the_worker(&server);
        let handles: Vec<_> = (0..5u64)
            .map(|seed| server.submit(&"toy".into(), Priority::Normal, seed).expect("admitted"))
            .collect();
        let snap = server.shutdown();
        assert_eq!(snap.total_completed(), 6, "drain served everything");
        blocker.try_take().expect("resolved").expect("served");
        for (seed, h) in handles.iter().enumerate() {
            let result = h.try_take().expect("resolved").expect("served");
            assert_eq!(result.seed, seed as u64);
        }
    }

    #[test]
    fn a_submit_wakes_an_idle_worker_of_another_shard() {
        // Two shards of one worker, stealing on. While one worker runs
        // the slow request, each toy request is taken at once by the
        // other, parked worker — whichever shard the toy lives on —
        // rather than when its park times out (50 ms).
        let server = Server::start(
            with_blocker(two_model_registry(4)),
            ServeConfig {
                shards: 2,
                workers: 1,
                exec_threads_per_worker: Some(1),
                ..quick_config()
            },
        );
        let blocker = occupy_the_worker(&server);
        for model in ["toy-a", "toy-b"] {
            // Let the idle worker park first: the submit must wake it.
            std::thread::sleep(Duration::from_millis(2));
            let handle = server.submit(&model.into(), Priority::Normal, 1).expect("admitted");
            let result = handle.wait().expect("served");
            assert!(result.queue_wait < Duration::from_millis(25), "{model}: {result:?}");
        }
        assert!(blocker.try_take().is_none(), "both toys were served while the blocker ran");
        assert!(server.shutdown().total_stolen() >= 1, "one toy lives on the busy shard");
    }

    #[test]
    fn unknown_model_and_post_shutdown_submissions_are_refused() {
        let server = Server::start(tiny_registry(2), quick_config());
        let err = server.submit(&"nope".into(), Priority::Normal, 1).unwrap_err();
        assert!(matches!(err, AdmissionError::UnknownModel(_)));
        assert!(err.to_string().contains("nope"));
        let inner = Arc::clone(&server.inner);
        drop(server);
        assert!(inner.shards.is_closed());
    }

    #[test]
    fn bounded_queue_backpressure_reaches_the_submitter() {
        // One worker, busy with a slow request, capacity 2: the third
        // outstanding submit must see QueueFull. The model's batch
        // dimension (64) exceeds the queue capacity, so the queue is
        // full at two, not a batch.
        let server = Server::start(
            with_blocker(tiny_registry(64)),
            ServeConfig {
                workers: 1,
                batch: BatchConfig {
                    max_batch: 64,
                    max_wait: Duration::from_secs(3600),
                    queue_capacity: 2,
                },
                ..ServeConfig::default()
            },
        );
        let _blocker = occupy_the_worker(&server);
        let _a = server.submit(&"toy".into(), Priority::Normal, 1).expect("admitted");
        let _b = server.submit(&"toy".into(), Priority::Normal, 2).expect("admitted");
        let err = server.submit(&"toy".into(), Priority::Normal, 3).unwrap_err();
        assert!(matches!(err, AdmissionError::QueueFull { .. }), "{err}");
        let snap = server.shutdown();
        assert_eq!(snap.total_completed(), 3);
        assert_eq!(snap.total_rejected(), 1);
    }

    #[test]
    fn a_threaded_server_books_and_traces_every_request_once() {
        // Three-deep queues under bursts of eight per model shed most of
        // each burst; a black box that drops nothing lets the caller's
        // counts, the metrics and the events be compared one for one.
        let server = Server::start(
            two_model_registry(4),
            ServeConfig {
                shards: 2,
                workers: 1,
                exec_threads_per_worker: Some(1),
                batch: BatchConfig {
                    max_batch: 4,
                    max_wait: Duration::from_millis(20),
                    queue_capacity: 3,
                },
                flight_capacity: 4096,
                ..ServeConfig::default()
            },
        );
        let (mut handles, mut queue_full) = (Vec::new(), 0);
        for burst in 0..3u64 {
            for i in 0..8 {
                for model in ["toy-a", "toy-b"] {
                    match server.submit(&model.into(), Priority::Normal, burst * 8 + i) {
                        Ok(handle) => handles.push(handle),
                        Err(AdmissionError::QueueFull { .. }) => queue_full += 1,
                        Err(err) => panic!("unexpected refusal: {err}"),
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(30));
        }
        // The black box is read after shutdown, so the drain's events
        // are in it too.
        let inner = Arc::clone(&server.inner);
        let snap = server.shutdown();
        let flight = inner.flight.dump_json("test");
        let events = |kind: &str| flight.matches(&format!("\"kind\": \"{kind}\"")).count();
        assert!(queue_full > 0, "the bursts must overflow the queues");
        for handle in &handles {
            handle.try_take().expect("resolved").expect("served");
        }
        assert_eq!(snap.total_completed() as usize, events("resolved"));
        assert_eq!(snap.total_completed() as usize, handles.len());
        assert_eq!(snap.total_rejected() as usize, events("shed"));
        assert_eq!(snap.total_rejected() as usize, queue_full);
        assert_eq!(handles.len(), events("admitted"));
    }

    #[test]
    fn virtual_clock_latency_accounting_is_deterministic() {
        // With a frozen virtual clock every duration the server can
        // measure is exactly zero — queue wait, latency, percentiles.
        let clock = Arc::new(VirtualClock::new());
        let config = ServeConfig {
            workers: 1,
            batch: BatchConfig { max_batch: 4, max_wait: Duration::ZERO, queue_capacity: 16 },
            ..ServeConfig::default()
        };
        let server =
            Server::with_clock(tiny_registry(2), config, Arc::clone(&clock) as Arc<dyn Clock>);
        let h = server.submit(&"toy".into(), Priority::High, 7).expect("admitted");
        let result = h.wait().expect("served");
        assert_eq!(result.queue_wait, Duration::ZERO);
        assert_eq!(result.latency, Duration::ZERO);
        let snap = server.shutdown();
        assert_eq!(snap.per_model[0].mean_latency, Duration::ZERO);
    }

    #[test]
    fn worker_pool_clamps_executor_threads_to_its_budget() {
        // A registry registered with a greedy ExecConfig (here: 64
        // threads per call) under a 4-worker pool must be clamped to
        // the per-worker budget, so `workers × exec threads` never
        // exceeds `workers × budget`.
        let mut wl = Workload::new("toy", 2);
        wl.push("a", "G", ConvShape::same_padded(6, 6, 1, 2, 3));
        let schedule = Schedule::homogeneous(&wl, 2).unwrap();
        let mut registry = ModelRegistry::new();
        registry.register("greedy", wl, schedule, ExecConfig::with_threads(64), 3).unwrap();
        let config =
            ServeConfig { workers: 4, exec_threads_per_worker: Some(2), ..ServeConfig::default() };
        assert_eq!(config.worker_thread_budget(), 2);
        let server = Server::start(registry, config);
        for entry in server.registry().entries() {
            assert!(
                entry.executor().config().threads <= 2,
                "entry '{}' still demands {} threads",
                entry.id(),
                entry.executor().config().threads
            );
        }
        // The clamped server still serves correctly.
        let direct = server.registry().entry(0).infer_one(5);
        let got = server
            .submit(&"greedy".into(), Priority::Normal, 5)
            .expect("admitted")
            .wait()
            .expect("served");
        assert_eq!(got.output, direct);
        server.shutdown();

        // The automatic budget divides the machine across all shards'
        // workers and never rounds to zero, even when oversubscribed.
        let auto = ServeConfig { shards: 32, workers: 32, ..ServeConfig::default() };
        assert!(auto.worker_thread_budget() >= 1);
    }

    #[test]
    fn slo_shedding_kicks_in_once_backlog_implies_misses() {
        // Big enough that one batch's service time is comfortably over
        // a microsecond, so the EWMA estimate cannot round to zero.
        let mut wl = Workload::new("mid", 4);
        wl.push("a", "G", ConvShape::same_padded(24, 24, 8, 8, 3));
        let schedule = Schedule::homogeneous(&wl, 2).unwrap();
        let mut registry = ModelRegistry::new();
        registry.register("toy", wl, schedule, ExecConfig::with_threads(1), 3).unwrap();
        let server = Server::start(
            registry,
            ServeConfig {
                workers: 1,
                batch: BatchConfig {
                    max_batch: 4,
                    max_wait: Duration::from_micros(100),
                    queue_capacity: 1024,
                },
                // Nanosecond SLO: once any batch has completed (so a
                // service-time estimate exists), everything sheds.
                slo: Some(Duration::from_nanos(1)),
                ..ServeConfig::default()
            },
        );
        // First request: no estimate yet, admitted; wait for it so the
        // EWMA is primed.
        let h = server.submit(&"toy".into(), Priority::Normal, 1).expect("admitted");
        let _ = h.wait().expect("served");
        // Estimate now exists (a real convolution takes far over 1 ns
        // per image), so even an empty queue estimates over the SLO.
        let err = server.submit(&"toy".into(), Priority::Normal, 2).unwrap_err();
        assert!(matches!(err, AdmissionError::SloUnattainable { .. }), "{err}");
        assert!(err.to_string().contains("SLO"));
    }

    #[test]
    fn injected_worker_fault_fails_only_the_poisoned_request() {
        // Seed 13 is poisoned: the worker panics on its batch, retries
        // every lane solo, and only seed 13 resolves to an error. The
        // innocent co-batched request is still served bitwise.
        let registry = tiny_registry(4);
        let direct = registry.entry(0).infer_one(7);
        let server = Server::start(
            registry,
            ServeConfig {
                workers: 1,
                batch: BatchConfig {
                    max_batch: 4,
                    max_wait: Duration::from_millis(5),
                    queue_capacity: 64,
                },
                inject_panic_seed: Some(13),
                ..ServeConfig::default()
            },
        );
        let poisoned = server.submit(&"toy".into(), Priority::Normal, 13).expect("admitted");
        let innocent = server.submit(&"toy".into(), Priority::Normal, 7).expect("admitted");
        let err = poisoned.wait().expect_err("poisoned seed must fail explicitly");
        assert_eq!(err.seed, 13);
        assert!(err.to_string().contains("fault"), "{err}");
        let ok = innocent.wait().expect("innocent lane survives the fault");
        assert_eq!(ok.output, direct, "solo retry is bitwise-correct");
        let snap = server.shutdown();
        assert_eq!(snap.total_failed(), 1);
        assert_eq!(snap.per_model[0].failed, 1);
    }
}
