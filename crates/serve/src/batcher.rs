//! Dynamic batching: coalescing single-image requests into model
//! batches, with per-priority-class FIFO ordering and bounded queues.
//!
//! [`DynamicBatcher`] is a *pure state machine*: every operation takes
//! the current time as an argument and no operation blocks, sleeps, or
//! reads a clock. The threaded [`Server`](crate::Server) wraps it in a
//! mutex and parks a worker only while [`Poll::Wait`] says every queue
//! is empty; the tests drive it with a [`VirtualClock`](crate::VirtualClock)
//! and never sleep.
//!
//! ## Release policy
//!
//! Dispatch is **work-conserving**: a poll releases a batch whenever
//! anything is queued, so an idle worker never waits beside a request.
//! Which batch it releases:
//!
//! 1. Among models whose queue is **full** (at least the model's batch
//!    cap: waiting longer buys nothing) or **due** (its oldest request
//!    has waited `max_wait`), the one whose oldest request is oldest
//!    (most-overdue-first).
//! 2. Otherwise, the partial batch of the model whose oldest request is
//!    oldest.
//!
//! So `max_wait` never holds a worker back; it only decides how long a
//! partial batch gives way to full ones when several models have work.
//! Under light load batches are whatever arrived while the workers were
//! busy; under heavy load the queues fill and batches leave full.
//!
//! Within the released batch, the model's **oldest request takes the
//! first slot** regardless of class — sustained high-priority load can
//! delay a low-priority request but never starve it — and the remaining
//! slots fill class by class ([`Priority::High`] first) in strict FIFO
//! order inside each class, the ordering property the serving proptests
//! pin.
//!
//! ## Backpressure
//!
//! Each model's queue is bounded by `queue_capacity` across classes.
//! [`submit`](DynamicBatcher::submit) refuses above that bound
//! (admission control happens *here*, before a request is accepted) —
//! so everything that was admitted stays queued until some worker
//! takes it: the batcher never drops an admitted request.

use std::collections::VecDeque;
use std::fmt;
use std::time::Duration;

/// Request priority class. Classes are scheduling tiers, not strict
/// preemption: a released batch fills from [`High`](Priority::High)
/// down, and FIFO order is preserved *within* each class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Latency-sensitive traffic; fills batches first.
    High,
    /// The default class.
    Normal,
    /// Throughput traffic; fills batches last.
    Low,
}

impl Priority {
    /// All classes, highest first.
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];

    /// Dense index of the class (0 = high … 2 = low), the position of
    /// the class in [`Priority::ALL`] — what per-class metrics key on.
    pub fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// Stable lowercase class label, as a `&'static str` so the
    /// request-trace event vocabulary ([`wino_obs::ReqEventKind`])
    /// can carry it without allocating.
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Batching policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Largest batch ever released (clamped to ≥ 1). Should match the
    /// models' batch dimension ([`ModelEntry::max_batch`]).
    ///
    /// [`ModelEntry::max_batch`]: crate::ModelEntry::max_batch
    pub max_batch: usize,
    /// How long a model's partial batch gives way to full batches of
    /// other models: once its oldest request has waited this long, it
    /// ranks with them. It never holds an idle worker back (dispatch is
    /// work-conserving).
    pub max_wait: Duration,
    /// Per-model queue bound (across all classes); submissions above
    /// it are refused.
    pub queue_capacity: usize,
}

impl Default for BatchConfig {
    /// Batch up to 8, let a partial batch give way to full ones for at
    /// most 2 ms, queue at most 64 per model.
    fn default() -> BatchConfig {
        BatchConfig { max_batch: 8, max_wait: Duration::from_millis(2), queue_capacity: 64 }
    }
}

impl BatchConfig {
    /// Checks the config is usable: a zero `max_batch` can never
    /// release anything and a zero `queue_capacity` can never admit
    /// anything, so both are configuration bugs worth rejecting loudly
    /// rather than silently papering over.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), BatchConfigError> {
        if self.max_batch == 0 {
            return Err(BatchConfigError::ZeroMaxBatch);
        }
        if self.queue_capacity == 0 {
            return Err(BatchConfigError::ZeroQueueCapacity);
        }
        Ok(())
    }
}

/// A [`BatchConfig`] constraint violation, from
/// [`BatchConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchConfigError {
    /// `max_batch == 0`: no batch could ever be released.
    ZeroMaxBatch,
    /// `queue_capacity == 0`: no request could ever be admitted.
    ZeroQueueCapacity,
}

impl fmt::Display for BatchConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchConfigError::ZeroMaxBatch => write!(f, "max_batch must be at least 1"),
            BatchConfigError::ZeroQueueCapacity => {
                write!(f, "queue_capacity must be at least 1")
            }
        }
    }
}

impl std::error::Error for BatchConfigError {}

/// One request: the caller's payload plus batching metadata, queued as
/// is and released inside a [`Batch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchItem<T> {
    /// Submission-order sequence number (globally unique, monotone).
    pub seq: u64,
    /// When the request entered the queue (clock-epoch relative).
    pub enqueued_at: Duration,
    /// The request's class.
    pub priority: Priority,
    /// The caller's payload.
    pub payload: T,
}

/// A coalesced batch released for one model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch<T> {
    /// Dense model index (the registry's
    /// [`index_of`](crate::ModelRegistry::index_of)).
    pub model: usize,
    /// The requests, in the order they fill the executor's batch
    /// dimension: class by class, FIFO within each class.
    pub requests: Vec<BatchItem<T>>,
}

/// Why a submission was refused. A [`DynamicBatcher`] refuses only
/// with [`QueueFull`](Self::QueueFull); a [`ShardSet`](crate::ShardSet)
/// adds its admission test and its closed state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The model's bounded queue is at capacity — backpressure.
    QueueFull {
        /// Dense model index.
        model: usize,
        /// The configured bound that was hit.
        capacity: usize,
    },
    /// The backlog already implies missing the SLO
    /// ([`ShardSet::with_slo`](crate::ShardSet::with_slo)).
    SloUnattainable {
        /// Dense model index.
        model: usize,
        /// Estimated queueing delay: the model's backlog times its
        /// smoothed per-image service time.
        estimated: Duration,
        /// The objective it exceeds.
        slo: Duration,
    },
    /// The set is closed ([`ShardSet::close`](crate::ShardSet::close)).
    Closed,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { model, capacity } => {
                write!(f, "model {model} queue is full ({capacity} requests)")
            }
            SubmitError::SloUnattainable { model, estimated, slo } => {
                write!(
                    f,
                    "model {model} backlog implies ~{estimated:?} queueing, over the {slo:?} SLO"
                )
            }
            SubmitError::Closed => write!(f, "the shard set is closed"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Outcome of a [`poll`](DynamicBatcher::poll).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Poll<T> {
    /// A batch was released; run it.
    Ready(Batch<T>),
    /// Every queue is empty.
    Wait,
}

/// The dynamic batcher: per-(model, class) FIFO queues and the
/// work-conserving release policy, as a clock-free state machine.
#[derive(Debug, Clone)]
pub struct DynamicBatcher<T> {
    config: BatchConfig,
    /// Effective per-model batch ceiling:
    /// `min(config.max_batch, model's batch dimension)`.
    caps: Vec<usize>,
    /// `queues[model][class]`.
    queues: Vec<[VecDeque<BatchItem<T>>; 3]>,
    seq: u64,
    seq_stride: u64,
}

impl<T> DynamicBatcher<T> {
    /// A batcher for `model_count` models under `config`, with every
    /// model batched up to `config.max_batch`.
    ///
    /// # Panics
    ///
    /// Panics when `config` fails [`BatchConfig::validate`] — a zero
    /// `max_batch` or `queue_capacity` is a configuration bug, refused
    /// at construction rather than silently clamped.
    pub fn new(model_count: usize, config: BatchConfig) -> DynamicBatcher<T> {
        DynamicBatcher::with_caps(vec![config.max_batch; model_count], config)
    }

    /// A batcher whose model `m` never releases more than
    /// `min(caps[m], config.max_batch)` requests per batch — the
    /// schedule's batch dimension is a hard executor limit, so the
    /// server builds its batcher with each model's
    /// [`max_batch`](crate::ModelEntry::max_batch) as the cap.
    ///
    /// # Panics
    ///
    /// Panics when `config` fails [`BatchConfig::validate`].
    pub fn with_caps(caps: Vec<usize>, config: BatchConfig) -> DynamicBatcher<T> {
        if let Err(err) = config.validate() {
            panic!("invalid BatchConfig: {err}");
        }
        let caps: Vec<usize> = caps.into_iter().map(|c| c.clamp(1, config.max_batch)).collect();
        let queues = caps.iter().map(|_| std::array::from_fn(|_| VecDeque::new())).collect();
        DynamicBatcher { config, caps, queues, seq: 0, seq_stride: 1 }
    }

    /// Re-bases the submission sequence to `start, start + stride,
    /// start + 2·stride, …` — how a [`ShardSet`](crate::ShardSet) of
    /// `S` shards keeps sequence numbers globally unique without
    /// coordination: shard `i` strides `(start = i, stride = S)`, and
    /// every shard's numbers stay monotone locally while the union
    /// stays collision-free.
    ///
    /// # Panics
    ///
    /// Panics when `stride` is zero.
    pub fn with_seq(mut self, start: u64, stride: u64) -> DynamicBatcher<T> {
        assert!(stride > 0, "seq stride must be at least 1");
        self.seq = start;
        self.seq_stride = stride;
        self
    }

    /// The configuration in force.
    pub fn config(&self) -> &BatchConfig {
        &self.config
    }

    /// The effective batch ceiling of `model`.
    ///
    /// # Panics
    ///
    /// Panics when `model` is out of range.
    pub fn cap(&self, model: usize) -> usize {
        self.caps[model]
    }

    /// Requests currently queued for `model`, all classes.
    ///
    /// # Panics
    ///
    /// Panics when `model` is out of range.
    pub fn queued(&self, model: usize) -> usize {
        self.queues[model].iter().map(VecDeque::len).sum()
    }

    /// Requests currently queued across every model.
    pub fn total_queued(&self) -> usize {
        (0..self.queues.len()).map(|m| self.queued(m)).sum()
    }

    /// `true` when no request is queued anywhere.
    pub fn is_empty(&self) -> bool {
        self.total_queued() == 0
    }

    /// Enqueues a request for `model` at time `now`, returning its
    /// submission sequence number.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError::QueueFull`] when the model's bounded
    /// queue is at capacity — the admitted/refused line of the serving
    /// subsystem's backpressure.
    ///
    /// # Panics
    ///
    /// Panics when `model` is out of range.
    pub fn submit(
        &mut self,
        model: usize,
        priority: Priority,
        payload: T,
        now: Duration,
    ) -> Result<u64, SubmitError> {
        if self.queued(model) >= self.config.queue_capacity {
            return Err(SubmitError::QueueFull { model, capacity: self.config.queue_capacity });
        }
        let seq = self.seq;
        self.seq += self.seq_stride;
        let item = BatchItem { seq, enqueued_at: now, priority, payload };
        self.queues[model][priority.index()].push_back(item);
        Ok(seq)
    }

    /// When `model`'s oldest queued request entered the queue.
    fn oldest_enqueue(&self, model: usize) -> Option<Duration> {
        self.queues[model].iter().filter_map(|q| q.front()).map(|p| p.enqueued_at).min()
    }

    /// The class whose front holds `model`'s oldest request
    /// (ties broken by submission sequence).
    fn oldest_class(&self, model: usize) -> Option<usize> {
        (0..3)
            .filter_map(|c| self.queues[model][c].front().map(|p| ((p.enqueued_at, p.seq), c)))
            .min()
            .map(|(_, c)| c)
    }

    /// Pops up to the model's batch cap: the model's **oldest request
    /// first** (whatever its class — the anti-starvation guarantee:
    /// the request whose age made the batch due always rides it, so a
    /// low-priority request can wait at most one batch per
    /// higher-priority occupant ahead of it, never forever), then
    /// class by class in priority order, FIFO within each class. The
    /// reserved request is its own class's front, so per-class FIFO
    /// order is preserved.
    fn drain_batch(&mut self, model: usize) -> Batch<T> {
        let requests = self.take_for_model(model, self.caps[model]);
        Batch { model, requests }
    }

    /// Pops up to `limit` of `model`'s queued requests in release
    /// order (oldest request first, then class by class, FIFO within
    /// each class — the `drain_batch` policy with a caller-chosen
    /// size). Returns an empty vector when nothing is queued (or
    /// `limit` is zero).
    fn take_for_model(&mut self, model: usize, limit: usize) -> Vec<BatchItem<T>> {
        let mut requests = Vec::new();
        if limit == 0 {
            return requests;
        }
        if let Some(class) = self.oldest_class(model) {
            requests.push(self.queues[model][class].pop_front().expect("front exists"));
        }
        for class in 0..3 {
            while requests.len() < limit {
                match self.queues[model][class].pop_front() {
                    Some(item) => requests.push(item),
                    None => break,
                }
            }
        }
        requests
    }

    /// Releases a batch whenever anything is queued: the most overdue
    /// full or due batch if there is one, otherwise the partial batch
    /// of the model whose oldest request is oldest (see the module's
    /// release policy). [`Poll::Wait`] means every queue is empty.
    pub fn poll(&mut self, now: Duration) -> Poll<T> {
        // Keyed (not releasable, oldest enqueue, model): the minimum is
        // the most overdue releasable model if any, else the oldest
        // partial one; ties break by model index for determinism.
        let pick = (0..self.queues.len())
            .filter_map(|model| {
                let oldest = self.oldest_enqueue(model)?;
                let releasable =
                    self.queued(model) >= self.caps[model] || oldest + self.config.max_wait <= now;
                Some((!releasable, oldest, model))
            })
            .min();
        match pick {
            Some((_, _, model)) => Poll::Ready(self.drain_batch(model)),
            None => Poll::Wait,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> Duration {
        Duration::from_millis(ms)
    }

    fn config(max_batch: usize, max_wait_ms: u64, cap: usize) -> BatchConfig {
        BatchConfig { max_batch, max_wait: Duration::from_millis(max_wait_ms), queue_capacity: cap }
    }

    #[test]
    fn full_queue_releases_immediately_without_waiting() {
        let mut b = DynamicBatcher::new(2, config(3, 10, 16));
        for seed in 0..3u64 {
            b.submit(1, Priority::Normal, seed, at(0)).unwrap();
        }
        // Deadline is far away, but the batch is full → ready at t=0.
        match b.poll(at(0)) {
            Poll::Ready(batch) => {
                assert_eq!(batch.model, 1);
                assert_eq!(batch.requests.len(), 3);
            }
            other => panic!("expected ready, got {other:?}"),
        }
        assert!(b.is_empty());
    }

    #[test]
    fn an_idle_poll_releases_a_partial_batch_at_once() {
        let mut b = DynamicBatcher::new(1, config(8, 5, 16));
        b.submit(0, Priority::Normal, 1u64, at(2)).unwrap();
        b.submit(0, Priority::Normal, 2u64, at(4)).unwrap();
        // Neither full nor due (the oldest is due at 7 ms), yet a poll
        // at 4 ms releases both: no idle worker waits beside work.
        match b.poll(at(4)) {
            Poll::Ready(batch) => {
                let order: Vec<u64> = batch.requests.iter().map(|r| r.payload).collect();
                assert_eq!(order, [1, 2]);
            }
            other => panic!("expected ready, got {other:?}"),
        }
        // Wait now means exactly "every queue is empty".
        assert_eq!(b.poll(at(4)), Poll::Wait);
    }

    #[test]
    fn a_full_or_due_batch_goes_before_an_older_partial_one() {
        let mut b = DynamicBatcher::new(3, config(2, 10, 16));
        // Models 0 and 2 hold partial batches, neither due before 10 ms;
        // model 1 fills its batch (cap 2) last, at 2 ms.
        b.submit(0, Priority::Normal, 0u64, at(0)).unwrap();
        b.submit(2, Priority::Normal, 20, at(1)).unwrap();
        b.submit(1, Priority::Normal, 10, at(2)).unwrap();
        b.submit(1, Priority::Normal, 11, at(2)).unwrap();
        let models: Vec<usize> = std::iter::from_fn(|| match b.poll(at(2)) {
            Poll::Ready(batch) => Some(batch.model),
            Poll::Wait => None,
        })
        .collect();
        // Full first, then the partials oldest first, all at once.
        assert_eq!(models, [1, 0, 2]);
        // A due partial batch ranks with full ones, most overdue first:
        // at 12 ms model 0 (due since 12 ms) goes before full model 1.
        b.submit(0, Priority::Normal, 1, at(2)).unwrap();
        b.submit(1, Priority::Normal, 12, at(11)).unwrap();
        b.submit(1, Priority::Normal, 13, at(11)).unwrap();
        let Poll::Ready(first) = b.poll(at(12)) else { panic!("work queued") };
        assert_eq!(first.model, 0);
    }

    #[test]
    fn oldest_rides_first_then_classes_fill_in_priority_order() {
        let mut b = DynamicBatcher::new(1, config(8, 1, 16));
        b.submit(0, Priority::Low, 30u64, at(0)).unwrap();
        b.submit(0, Priority::Normal, 20, at(0)).unwrap();
        b.submit(0, Priority::High, 10, at(0)).unwrap();
        b.submit(0, Priority::High, 11, at(0)).unwrap();
        b.submit(0, Priority::Low, 31, at(0)).unwrap();
        let Poll::Ready(batch) = b.poll(at(1)) else { panic!("due") };
        let order: Vec<u64> = batch.requests.iter().map(|r| r.payload).collect();
        // The oldest request (Low 30, submitted first) is guaranteed
        // the first slot; then High..Low, FIFO within each class.
        assert_eq!(order, [30, 10, 11, 20, 31]);
    }

    #[test]
    fn deadline_triggered_release_cannot_starve_a_low_priority_request() {
        // Cap 2, one Low request, then a sustained stream of High
        // requests that keeps the queue at fullness forever. Without
        // the oldest-rides-first guarantee every released batch would
        // be all-High and the Low request would wait unboundedly.
        let mut b = DynamicBatcher::new(1, config(2, 5, 64));
        b.submit(0, Priority::Low, 999u64, at(0)).unwrap();
        let mut served_low_after = None;
        for round in 0..10u64 {
            b.submit(0, Priority::High, round, at(round)).unwrap();
            b.submit(0, Priority::High, 100 + round, at(round)).unwrap();
            let Poll::Ready(batch) = b.poll(at(round)) else { panic!("full at cap") };
            if batch.requests.iter().any(|r| r.payload == 999) {
                served_low_after = Some(round);
                break;
            }
        }
        assert_eq!(
            served_low_after,
            Some(0),
            "the oldest request must ride the very first released batch"
        );
    }

    #[test]
    fn most_overdue_model_goes_first() {
        let mut b = DynamicBatcher::new(3, config(4, 2, 16));
        b.submit(2, Priority::Normal, 2u64, at(0)).unwrap();
        b.submit(0, Priority::Normal, 0, at(1)).unwrap();
        let Poll::Ready(first) = b.poll(at(5)) else { panic!("due") };
        assert_eq!(first.model, 2, "older request wins");
        let Poll::Ready(second) = b.poll(at(5)) else { panic!("due") };
        assert_eq!(second.model, 0);
    }

    #[test]
    fn bounded_queue_refuses_above_capacity_and_recovers() {
        let mut b = DynamicBatcher::new(1, config(8, 1, 2));
        b.submit(0, Priority::Normal, 1u64, at(0)).unwrap();
        b.submit(0, Priority::High, 2, at(0)).unwrap();
        let err = b.submit(0, Priority::Normal, 3, at(0)).unwrap_err();
        assert_eq!(err, SubmitError::QueueFull { model: 0, capacity: 2 });
        assert!(err.to_string().contains("full"));
        // Draining frees capacity again.
        let Poll::Ready(_) = b.poll(at(2)) else { panic!("due") };
        b.submit(0, Priority::Normal, 3, at(2)).unwrap();
        assert_eq!(b.queued(0), 1);
    }

    #[test]
    fn oversized_backlog_releases_in_max_batch_chunks_in_order() {
        let mut b = DynamicBatcher::new(1, config(2, 1, 16));
        for seed in 0..5u64 {
            b.submit(0, Priority::Normal, seed, at(0)).unwrap();
        }
        let mut order = Vec::new();
        while let Poll::Ready(batch) = b.poll(at(3)) {
            assert!(batch.requests.len() <= 2);
            order.extend(batch.requests.iter().map(|r| r.payload));
        }
        assert_eq!(order, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn poll_drains_every_model_for_shutdown() {
        let mut b = DynamicBatcher::new(2, config(8, 1000, 16));
        b.submit(0, Priority::Normal, 1u64, at(0)).unwrap();
        b.submit(1, Priority::Low, 2, at(0)).unwrap();
        // Nothing is full or due (huge max_wait), yet polling alone
        // drains both models: shutdown drops nothing.
        let mut drained = 0;
        while let Poll::Ready(batch) = b.poll(at(1)) {
            drained += batch.requests.len();
        }
        assert_eq!(drained, 2);
        assert!(b.is_empty());
    }

    #[test]
    fn per_model_caps_bound_release_and_fullness() {
        // Model 0 is capped at 2 even though policy allows 8.
        let mut b = DynamicBatcher::with_caps(vec![2, 8], config(8, 1000, 16));
        assert_eq!(b.cap(0), 2);
        assert_eq!(b.cap(1), 8);
        b.submit(0, Priority::Normal, 1u64, at(0)).unwrap();
        b.submit(0, Priority::Normal, 2, at(0)).unwrap();
        b.submit(0, Priority::Normal, 3, at(0)).unwrap();
        // Two queued ≥ cap → full, releases without waiting; never
        // more than the cap in one batch.
        let Poll::Ready(batch) = b.poll(at(0)) else { panic!("full at cap") };
        assert_eq!(batch.requests.len(), 2);
        let Poll::Ready(rest) = b.poll(at(0)) else { panic!("drainable") };
        assert_eq!(rest.requests.len(), 1);
    }

    #[test]
    fn validate_names_the_violated_constraint() {
        assert_eq!(BatchConfig::default().validate(), Ok(()));
        assert_eq!(config(0, 1, 8).validate(), Err(BatchConfigError::ZeroMaxBatch));
        assert_eq!(config(4, 1, 0).validate(), Err(BatchConfigError::ZeroQueueCapacity));
        assert!(BatchConfigError::ZeroQueueCapacity.to_string().contains("queue_capacity"));
    }

    #[test]
    #[should_panic(expected = "invalid BatchConfig: max_batch")]
    fn zero_max_batch_is_rejected_at_construction() {
        let _: DynamicBatcher<u64> = DynamicBatcher::new(1, config(0, 1, 8));
    }

    #[test]
    #[should_panic(expected = "invalid BatchConfig: queue_capacity")]
    fn zero_queue_capacity_is_rejected_at_construction() {
        let _: DynamicBatcher<u64> = DynamicBatcher::new(1, config(4, 1, 0));
    }

    #[test]
    fn deadline_equal_to_arrival_releases_immediately() {
        // max_wait = 0 makes the oldest request's deadline exactly its
        // arrival time: `deadline <= now` must already hold when polled
        // at that same instant — the boundary is inclusive, a request
        // is never asked to wait past a deadline it was born at.
        let mut b = DynamicBatcher::new(1, config(8, 0, 16));
        b.submit(0, Priority::Normal, 7u64, at(5)).unwrap();
        match b.poll(at(5)) {
            Poll::Ready(batch) => assert_eq!(batch.requests[0].payload, 7),
            other => panic!("deadline == arrival must be due, got {other:?}"),
        }
    }

    #[test]
    fn low_class_is_served_within_its_wait_bound_under_high_flood() {
        // A continuous high-priority flood keeps the queue at fullness
        // so every release is fullness-triggered. The quantified
        // anti-starvation bound: a low request is served no later than
        // its own max_wait deadline, because once it is the model's
        // oldest request it owns the first slot of the next release.
        let max_wait = 5;
        let mut b = DynamicBatcher::new(1, config(2, max_wait, 64));
        b.submit(0, Priority::Low, 999u64, at(0)).unwrap();
        let mut served_at = None;
        for t in 0..20u64 {
            // Two fresh High requests per tick: fullness every poll.
            b.submit(0, Priority::High, t, at(t)).unwrap();
            b.submit(0, Priority::High, 100 + t, at(t)).unwrap();
            while let Poll::Ready(batch) = b.poll(at(t)) {
                if batch.requests.iter().any(|r| r.payload == 999) {
                    served_at.get_or_insert(t);
                }
            }
            if served_at.is_some() {
                break;
            }
        }
        let served_at = served_at.expect("low request must be served");
        assert!(
            served_at <= max_wait,
            "low request served at t={served_at}ms, bound is max_wait={max_wait}ms"
        );
    }

    #[test]
    fn take_for_model_pops_in_release_order_and_respects_limit() {
        let mut b = DynamicBatcher::new(1, config(8, 1000, 16));
        b.submit(0, Priority::Low, 30u64, at(0)).unwrap();
        b.submit(0, Priority::High, 10, at(1)).unwrap();
        b.submit(0, Priority::Normal, 20, at(1)).unwrap();
        b.submit(0, Priority::High, 11, at(2)).unwrap();
        assert!(b.take_for_model(0, 0).is_empty());
        // Oldest (Low 30) first, then High FIFO — limit cuts the rest.
        let taken: Vec<u64> = b.take_for_model(0, 3).iter().map(|r| r.payload).collect();
        assert_eq!(taken, [30, 10, 11]);
        // The remainder is untouched and still in order.
        let rest: Vec<u64> = b.take_for_model(0, 8).iter().map(|r| r.payload).collect();
        assert_eq!(rest, [20]);
        assert!(b.is_empty());
    }

    #[test]
    fn strided_seq_stays_monotone_and_collision_free_across_shards() {
        // Two shards striding (0, 2) and (1, 2): evens and odds.
        let mut a = DynamicBatcher::new(1, config(8, 1, 16)).with_seq(0, 2);
        let mut b = DynamicBatcher::new(1, config(8, 1, 16)).with_seq(1, 2);
        let sa: Vec<u64> =
            (0..3).map(|i| a.submit(0, Priority::Normal, i, at(0)).unwrap()).collect();
        let sb: Vec<u64> =
            (0..3).map(|i| b.submit(0, Priority::Normal, i, at(0)).unwrap()).collect();
        assert_eq!(sa, [0, 2, 4]);
        assert_eq!(sb, [1, 3, 5]);
    }

    #[test]
    #[should_panic(expected = "seq stride")]
    fn zero_seq_stride_panics() {
        let _ = DynamicBatcher::<u64>::new(1, config(8, 1, 16)).with_seq(0, 0);
    }
}
