//! Executor sharding: many [`DynamicBatcher`]s behind one dispatcher,
//! with opportunistic work stealing between them.
//!
//! One global batcher behind one mutex was the right shape for a
//! handful of workers; at production scale every submit and every poll
//! serializes on that lock. A [`ShardSet`] splits the queue state into
//! `S` independent shards, each its own `Mutex<DynamicBatcher>` +
//! `Condvar`, and routes every model to a fixed **home shard**
//! (`model % S`). The sharding invariants:
//!
//! * **FIFO is preserved** — all of a model's requests live on its home
//!   shard, in the home batcher's per-class FIFO queues. Stealing moves
//!   only *released batches* (the batcher has already fixed their
//!   contents and order), never queued requests, so no interleaving of
//!   steals can reorder two same-class requests of one model.
//! * **Sequence numbers stay globally unique** — shard `i` numbers its
//!   submissions `i, i+S, i+2S, …` ([`DynamicBatcher::with_seq`]), so
//!   per-shard numbering needs no cross-shard coordination yet never
//!   collides.
//! * **Stealing is pure scheduling** — a stolen batch executes on a
//!   different worker group, which cannot change its bits: engine
//!   outputs are thread-count-invariant and batch composition was fixed
//!   at release. The shard-invariance proptests pin exactly this.
//!
//! The set is deliberately usable two ways: single-threaded and
//! deterministic through [`poll_at`](ShardSet::poll_at) (how the
//! proptests replay arbitrary steal schedules under a
//! [`VirtualClock`](crate::VirtualClock)), or concurrently through
//! [`poll_or_park`](ShardSet::poll_or_park) (how
//! [`Server`](crate::Server) worker groups wait for work).
//!
//! The set is also the one **booker** of a request's life: it admits or
//! refuses ([`submit`](ShardSet::submit)), resolves
//! ([`complete`](ShardSet::complete)) and fails ([`fail`](ShardSet::fail))
//! every request, into its own [`Metrics`] and, as [`ReqEvent`]s, into
//! the sinks it owns — a [`FlightRecorder`] and, optionally, a
//! [`TraceIndex`]. Two sets in one process book and trace independently;
//! the threaded [`Server`](crate::Server) and the storm simulator only
//! drive a set.

use crate::{
    Batch, BatchConfig, BatchItem, DynamicBatcher, Metrics, MetricsSnapshot, Poll, Priority,
    SubmitError,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;
use wino_obs::{FlightRecorder, ReqEvent, ReqEventKind, TraceIndex};

/// Outcome of polling a shard, distinguishing where the batch came
/// from so metrics can count steals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardPoll<T> {
    /// A batch is due. `from` is the shard it was released from —
    /// equal to the polled shard for home work, different for a steal.
    Ready {
        /// The released batch.
        batch: Batch<T>,
        /// The shard whose queue released it.
        from: usize,
    },
    /// Every queue the poll was allowed to look at is empty: the polled
    /// shard's, and with stealing every other shard's too.
    Wait,
}

struct Shard<T> {
    queue: Mutex<DynamicBatcher<T>>,
    /// Signaled on submits routed to this shard (to every shard when
    /// stealing is on) and on shutdown.
    wake: Condvar,
}

/// `S` independent [`DynamicBatcher`] shards with home routing, work
/// stealing, and per-shard parking — the dispatcher and booker behind a
/// sharded [`Server`](crate::Server).
pub struct ShardSet<T> {
    shards: Vec<Shard<T>>,
    steal: bool,
    /// The admission objective ([`with_slo`](Self::with_slo)).
    slo: Option<Duration>,
    /// Set by [`close`](Self::close): every later submit is refused.
    closed: AtomicBool,
    /// Every booked admission refusal, batch and failure.
    metrics: Metrics,
    /// The always-on black box, when the owner attached one
    /// ([`with_flight`](Self::with_flight)): every emitted event lands
    /// in the ring of the lane it happened on.
    flight: Option<Arc<FlightRecorder>>,
    /// The request-timeline index, when the owner attached one
    /// ([`with_trace`](Self::with_trace)).
    trace: Option<Arc<TraceIndex>>,
}

impl<T> ShardSet<T> {
    /// Builds `shard_count` shards, each a full batcher over the same
    /// models (`caps`, `config` — see [`DynamicBatcher::with_caps`])
    /// with a collision-free sequence stride. `steal` enables the
    /// cross-shard scan in [`poll_at`](Self::poll_at) /
    /// [`poll_or_park`](Self::poll_or_park). The set's metrics name
    /// model `m` `"m{m}"` until [`with_model_names`](Self::with_model_names).
    ///
    /// # Panics
    ///
    /// Panics when `shard_count` is zero or `config` fails
    /// [`BatchConfig::validate`].
    pub fn new(shard_count: usize, caps: Vec<usize>, config: BatchConfig, steal: bool) -> Self {
        assert!(shard_count > 0, "at least one shard is required");
        let metrics = Metrics::new((0..caps.len()).map(|m| format!("m{m}")).collect(), shard_count);
        let shards = (0..shard_count)
            .map(|i| Shard {
                queue: Mutex::new(
                    DynamicBatcher::with_caps(caps.clone(), config)
                        .with_seq(i as u64, shard_count as u64),
                ),
                wake: Condvar::new(),
            })
            .collect();
        ShardSet {
            shards,
            steal,
            slo: None,
            closed: AtomicBool::new(false),
            metrics,
            flight: None,
            trace: None,
        }
    }

    /// Names the models in the set's metrics (one ID per model, in
    /// model-index order), starting the metrics afresh.
    pub fn with_model_names(mut self, names: Vec<String>) -> Self {
        self.metrics = Metrics::new(names, self.shards.len());
        self
    }

    /// Sets the admission objective: [`submit`](Self::submit) refuses a
    /// request whose estimated queueing delay already exceeds `slo`.
    /// `None` (the default) admits up to the queue bound.
    pub fn with_slo(mut self, slo: Option<Duration>) -> Self {
        self.slo = slo;
        self
    }

    /// Attaches a [`FlightRecorder`] black box: every request event this
    /// set emits is recorded into its rings, one lane per shard.
    pub fn with_flight(mut self, flight: Arc<FlightRecorder>) -> Self {
        self.flight = Some(flight);
        self
    }

    /// Attaches a [`TraceIndex`]: every request event this set emits is
    /// indexed into per-request timelines.
    pub fn with_trace(mut self, trace: Arc<TraceIndex>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Writes one request event to every attached sink: `lane`'s ring
    /// of the flight recorder and the trace index. The set's own
    /// booking methods emit every event but the server's `PanicRetry`.
    pub(crate) fn emit(&self, lane: usize, event: ReqEvent) {
        if let Some(flight) = &self.flight {
            flight.record(lane, event);
        }
        if let Some(trace) = &self.trace {
            trace.record_event(&event);
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The home shard of `model`: all of the model's requests queue
    /// here, which is what keeps per-class FIFO order a single-queue
    /// property even with many shards.
    pub fn home(&self, model: usize) -> usize {
        model % self.shards.len()
    }

    fn lock(&self, shard: usize) -> MutexGuard<'_, DynamicBatcher<T>> {
        self.shards[shard].queue.lock().expect("shard lock")
    }

    /// Admits a request to `model`'s home shard, or refuses it.
    ///
    /// Under the home-shard lock the set refuses when it is
    /// [closed](Self::close), when the SLO test fails (the model's
    /// backlog, this request included, times its smoothed per-image
    /// service time exceeds the objective), or when the home queue is
    /// full. An admitted request is traced `Admitted` and `Enqueued`
    /// before the lock is released, so no dispatch event precedes them.
    /// A shed (queue full or SLO) is booked as a rejection and traced as
    /// one `Shed` with seq 0: the request never got a seq.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError::Closed`], [`SubmitError::SloUnattainable`]
    /// or [`SubmitError::QueueFull`], checked in that order.
    pub fn submit(
        &self,
        model: usize,
        priority: Priority,
        payload: T,
        now: Duration,
    ) -> Result<u64, SubmitError> {
        let home = self.home(model);
        let mut queue = self.lock(home);
        // The closed flag is read under the home-shard lock, and
        // `drain_one` takes every shard's lock before it reports the
        // set empty. A worker that saw the set closed and then drained
        // it empty has therefore excluded every later admission: no
        // admitted request is left behind when the workers stop.
        let admitted = if self.closed.load(Ordering::Acquire) {
            Err(SubmitError::Closed)
        } else {
            self.slo_test(&queue, model).and_then(|()| queue.submit(model, priority, payload, now))
        };
        match admitted {
            Ok(seq) => {
                let class = priority.as_str();
                self.emit(home, ReqEvent::new(seq, now, ReqEventKind::Admitted { class }));
                self.emit(
                    home,
                    ReqEvent::new(seq, now, ReqEventKind::Enqueued { shard: home as u32 }),
                );
                drop(queue);
                // With stealing, an idle worker of any shard may take it.
                let woken = if self.steal { 0..self.shards.len() } else { home..home + 1 };
                for shard in &self.shards[woken] {
                    shard.wake.notify_one();
                }
            }
            Err(SubmitError::Closed) => {}
            Err(SubmitError::QueueFull { .. } | SubmitError::SloUnattainable { .. }) => {
                drop(queue);
                self.metrics.record_rejected(model);
                self.emit(home, ReqEvent::new(0, now, ReqEventKind::Shed));
            }
        }
        admitted
    }

    /// The SLO admission test of one more `model` request on `queue`.
    fn slo_test(&self, queue: &DynamicBatcher<T>, model: usize) -> Result<(), SubmitError> {
        // Without an objective, skip the estimate: it takes the metrics
        // lock, which the workers' `complete` contends for.
        let Some(slo) = self.slo else { return Ok(()) };
        let Some(per_image) = self.metrics.estimated_image_time(model) else { return Ok(()) };
        let estimated = per_image * (queue.queued(model) as u32 + 1);
        if estimated > slo {
            Err(SubmitError::SloUnattainable { model, estimated, slo })
        } else {
            Ok(())
        }
    }

    /// Books one executed batch of `model`: `items`, released from shard
    /// `from`'s queue, ran on `shard`'s workers from `started` to
    /// `finished` (a steal when `from != shard`). Each lane is traced
    /// `Resolved` at `finished`.
    pub fn complete(
        &self,
        shard: usize,
        from: usize,
        model: usize,
        items: &[BatchItem<T>],
        started: Duration,
        finished: Duration,
    ) {
        self.metrics.record_batch(model, shard, from != shard, items, started, finished);
        for item in items {
            self.emit(shard, ReqEvent::new(item.seq, finished, ReqEventKind::Resolved));
        }
    }

    /// Books request `seq` of `model` as failed by `shard`'s workers at
    /// `at`: counted in the metrics and traced `Failed`.
    pub fn fail(&self, shard: usize, model: usize, seq: u64, at: Duration) {
        self.metrics.record_failed(model, shard, 1);
        self.emit(shard, ReqEvent::new(seq, at, ReqEventKind::Failed));
    }

    /// A snapshot of everything the set has booked, covering `elapsed`.
    pub fn snapshot(&self, elapsed: Duration) -> MetricsSnapshot {
        self.metrics.snapshot(elapsed)
    }

    /// Emits the dispatch events of one released batch — `Batched` on
    /// the releasing shard, plus `Stolen` when the polling shard is a
    /// different one.
    fn trace_dispatch(&self, batch: &Batch<T>, from: usize, polled: usize, now: Duration) {
        let lanes = batch.requests.len() as u32;
        for item in &batch.requests {
            // A submitter may stamp its arrival after the polling
            // worker read `now`, so a batch may release "before" a
            // lane was enqueued. Dispatch cannot causally precede
            // admission: stamp each lane at the later of the two.
            let at = now.max(item.enqueued_at);
            self.emit(
                from,
                ReqEvent::new(item.seq, at, ReqEventKind::Batched { shard: from as u32, lanes }),
            );
            if polled != from {
                self.emit(
                    polled,
                    ReqEvent::new(
                        item.seq,
                        at,
                        ReqEventKind::Stolen { from: from as u32, to: polled as u32 },
                    ),
                );
            }
        }
    }

    /// Closes the set: every later [`submit`](Self::submit) is refused
    /// with [`SubmitError::Closed`], and every parked worker is woken
    /// to [`drain_one`](Self::drain_one) what is left.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        for shard in &self.shards {
            shard.wake.notify_all();
        }
    }

    /// Whether [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Polls `shard` at `now`; with stealing enabled and the home queue
    /// empty, polls the other shards (in `shard+1, shard+2, …`
    /// wraparound order, deterministically) and takes the first batch
    /// found there. Every poll releases whatever is queued (see the
    /// batcher's release policy). Never blocks — the deterministic
    /// entry point the proptests replay schedules through.
    pub fn poll_at(&self, shard: usize, now: Duration) -> ShardPoll<T> {
        let reach = if self.steal { self.shards.len() } else { 1 };
        self.take(shard, reach, now)
            .map_or(ShardPoll::Wait, |(batch, from)| ShardPoll::Ready { batch, from })
    }

    /// Polls the `reach` shards from `shard` on, in ring order, for a
    /// worker of `shard`, and traces the first batch released. Returns
    /// it with the shard that released it.
    fn take(&self, shard: usize, reach: usize, now: Duration) -> Option<(Batch<T>, usize)> {
        (0..reach).map(|step| (shard + step) % self.shards.len()).find_map(|from| {
            let Poll::Ready(batch) = self.lock(from).poll(now) else { return None };
            self.trace_dispatch(&batch, from, shard, now);
            Some((batch, from))
        })
    }

    /// [`poll_at`](Self::poll_at), then — when every queue it may look
    /// at is empty — parks on `shard`'s condvar until a submit's
    /// notification or `cap`, whichever is first. The home queue is
    /// re-polled *under the lock* before parking, closing the race
    /// where a submit lands (and notifies) between the steal scan and
    /// the park. Returns `Wait` after waking; callers loop with a fresh
    /// `now`.
    pub fn poll_or_park(&self, shard: usize, now: Duration, cap: Duration) -> ShardPoll<T> {
        if let ready @ ShardPoll::Ready { .. } = self.poll_at(shard, now) {
            return ready;
        }
        let mut guard = self.lock(shard);
        if let Poll::Ready(batch) = guard.poll(now) {
            drop(guard);
            self.trace_dispatch(&batch, shard, shard, now);
            return ShardPoll::Ready { batch, from: shard };
        }
        let _unparked = self.shards[shard].wake.wait_timeout(guard, cap).expect("shard lock");
        ShardPoll::Wait
    }

    /// Releases one batch for a worker of `shard` by the same rule as
    /// every poll — the shutdown drain loop's step — looking at `shard`
    /// first, then the others in ring order, stealing or not. Returns
    /// the batch and the shard that released it; one from another
    /// shard is traced `Stolen`. Returns `None` only when every shard
    /// is empty, having taken every shard's lock (see
    /// [`submit`](Self::submit)).
    pub fn drain_one(&self, shard: usize, now: Duration) -> Option<(Batch<T>, usize)> {
        self.take(shard, self.shards.len(), now)
    }

    /// Requests queued across every shard.
    pub fn total_queued(&self) -> usize {
        (0..self.shards.len()).map(|s| self.lock(s).total_queued()).sum()
    }

    /// `true` when nothing is queued anywhere.
    pub fn is_empty(&self) -> bool {
        self.total_queued() == 0
    }
}

impl<T> std::fmt::Debug for ShardSet<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardSet")
            .field("shards", &self.shards.len())
            .field("steal", &self.steal)
            .finish_non_exhaustive()
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

    /// 4 models over 3 shards, cap 4 each.
    fn set(steal: bool) -> ShardSet<u64> {
        ShardSet::new(3, vec![4; 4], config(4, 5, 16), steal)
    }

    #[test]
    fn models_route_to_fixed_home_shards() {
        let s = set(true);
        assert_eq!(s.shard_count(), 3);
        assert_eq!((s.home(0), s.home(1), s.home(2), s.home(3)), (0, 1, 2, 0));
    }

    #[test]
    fn seqs_are_globally_unique_and_monotone_per_shard() {
        let s = set(true);
        let mut seqs = Vec::new();
        for model in 0..4 {
            for i in 0..3u64 {
                seqs.push(s.submit(model, Priority::Normal, i, at(0)).unwrap());
            }
        }
        let mut deduped = seqs.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), seqs.len(), "no seq collision across shards: {seqs:?}");
        // Models 0 and 3 share shard 0: their merged submission order
        // is strictly increasing (one shard, one counter).
        let shard0: Vec<u64> = seqs[0..3].iter().chain(&seqs[9..12]).copied().collect();
        assert!(shard0.windows(2).all(|w| w[0] < w[1]), "{shard0:?}");
    }

    #[test]
    fn idle_shard_steals_a_due_batch_and_reports_its_origin() {
        let s = set(true);
        // Model 1 lives on shard 1; shard 0 is idle.
        for i in 0..4u64 {
            s.submit(1, Priority::Normal, i, at(0)).unwrap();
        }
        match s.poll_at(0, at(0)) {
            ShardPoll::Ready { batch, from } => {
                assert_eq!(from, 1, "stolen from the home shard");
                assert_eq!(batch.model, 1);
                assert_eq!(batch.requests.len(), 4);
                let order: Vec<u64> = batch.requests.iter().map(|r| r.payload).collect();
                assert_eq!(order, [0, 1, 2, 3], "stealing cannot reorder");
            }
            other => panic!("expected a steal, got {other:?}"),
        }
        assert!(s.is_empty());
    }

    #[test]
    fn stealing_disabled_leaves_remote_work_alone() {
        let s = set(false);
        for i in 0..4u64 {
            s.submit(1, Priority::Normal, i, at(0)).unwrap();
        }
        assert!(matches!(s.poll_at(0, at(0)), ShardPoll::Wait));
        // The home shard still releases it.
        assert!(matches!(s.poll_at(1, at(0)), ShardPoll::Ready { from: 1, .. }));
    }

    #[test]
    fn an_idle_shard_steals_a_lone_remote_request() {
        let s = set(true);
        // A lone request on shard 2, neither full nor due (8 ms).
        let seq = s.submit(2, Priority::Normal, 9, at(3)).unwrap();
        match s.poll_at(0, at(4)) {
            ShardPoll::Ready { batch, from } => {
                assert_eq!((from, batch.model, batch.requests[0].seq), (2, 2, seq));
            }
            other => panic!("expected a steal, got {other:?}"),
        }
        assert!(matches!(s.poll_at(0, at(4)), ShardPoll::Wait));
        // Without stealing, shard 0 leaves it to its home shard.
        let s = set(false);
        s.submit(2, Priority::Normal, 9, at(3)).unwrap();
        assert!(matches!(s.poll_at(0, at(4)), ShardPoll::Wait));
        assert!(matches!(s.poll_at(2, at(4)), ShardPoll::Ready { from: 2, .. }));
    }

    #[test]
    fn drain_one_empties_every_shard_for_shutdown() {
        let s = set(true);
        for model in 0..4 {
            s.submit(model, Priority::Normal, model as u64, at(0)).unwrap();
        }
        assert_eq!(s.total_queued(), 4);
        let mut drained = 0;
        while let Some((batch, _)) = s.drain_one(0, at(9)) {
            drained += batch.requests.len();
        }
        assert_eq!(drained, 4);
        assert!(s.is_empty());
    }

    #[test]
    fn two_sets_on_one_thread_trace_independently() {
        // Same shape, same seq space: a process-wide trace would merge
        // the two sets' colliding seqs into broken timelines.
        let sinks = || (Arc::new(FlightRecorder::new(3, 1024)), Arc::new(TraceIndex::new()));
        let ((flight_a, trace_a), (flight_b, trace_b)) = (sinks(), sinks());
        let a = set(true).with_flight(Arc::clone(&flight_a)).with_trace(Arc::clone(&trace_a));
        let b = set(true).with_flight(Arc::clone(&flight_b)).with_trace(Arc::clone(&trace_b));
        let resolve = |s: &ShardSet<u64>, shard: usize, from: usize, batch: &Batch<u64>, now| {
            s.complete(shard, from, batch.model, &batch.requests, now, now);
        };
        let (mut sent_a, mut sent_b) = (0, 0);
        for step in 0..40u64 {
            let now = at(step);
            let model = (step % 4) as usize;
            sent_a += usize::from(a.submit(model, Priority::High, step, now).is_ok());
            if step % 2 == 0 {
                sent_b += usize::from(b.submit(model, Priority::Low, step, now).is_ok());
            }
            for (s, shard) in [(&a, step as usize % 3), (&b, (step as usize + 1) % 3)] {
                if let ShardPoll::Ready { batch, from } = s.poll_at(shard, now) {
                    resolve(s, shard, from, &batch, now);
                }
            }
        }
        b.emit(b.home(0), ReqEvent::new(0, at(40), ReqEventKind::Shed));
        for s in [&a, &b] {
            while let Some((batch, from)) = s.drain_one(0, at(99)) {
                resolve(s, 0, from, &batch, at(99));
            }
        }
        assert_eq!((sent_a, sent_b), (40, 20));

        let stats_a = trace_a.verify().expect("set a's timelines are causal");
        let stats_b = trace_b.verify().expect("set b's timelines are causal");
        assert!(stats_a.steals > 0 && stats_b.steals > 0, "{stats_a:?} {stats_b:?}");
        assert_eq!((stats_a.requests, stats_a.resolved, stats_a.sheds), (sent_a, sent_a, 0));
        assert_eq!((stats_b.requests, stats_b.resolved, stats_b.sheds), (sent_b, sent_b, 1));
        // Each black box holds exactly its own set's events…
        assert_eq!(flight_a.len(), stats_a.events);
        assert_eq!(flight_b.len(), stats_b.events + 1);
        // …and none of the other's: a submitted only high, b only low.
        let (dump_a, dump_b) = (flight_a.dump_json("a"), flight_b.dump_json("b"));
        assert!(dump_a.contains("\"class\": \"high\"") && !dump_a.contains("\"low\""));
        assert!(dump_b.contains("\"class\": \"low\"") && !dump_b.contains("\"high\""));
    }

    #[test]
    fn a_drained_batch_from_another_shard_is_booked_and_traced_as_stolen() {
        let trace = Arc::new(TraceIndex::new());
        let s = set(true).with_trace(Arc::clone(&trace));
        // Model 1 lives on shard 1; its batch is not due before 5 ms.
        let seq = s.submit(1, Priority::Normal, 7, at(0)).unwrap();
        s.close();
        assert!(s.is_closed());
        assert_eq!(s.submit(1, Priority::Normal, 8, at(1)), Err(SubmitError::Closed));
        // Shard 0's worker drains it: a steal from shard 1.
        let (batch, from) = s.drain_one(0, at(2)).expect("one batch queued");
        assert_eq!((from, batch.model, batch.requests[0].seq), (1, 1, seq));
        s.complete(0, from, batch.model, &batch.requests, at(2), at(3));
        assert!(s.drain_one(0, at(3)).is_none());

        let stats = trace.verify().expect("the drained request's timeline is causal");
        assert_eq!((stats.requests, stats.resolved, stats.steals, stats.sheds), (1, 1, 1, 0));
        let snap = s.snapshot(at(3));
        assert_eq!((snap.per_shard[0].batches, snap.per_shard[0].stolen), (1, 1));
        assert_eq!(snap.per_shard[1].batches, 0);
        // A refusal of a closed set is not a shed.
        assert_eq!(snap.total_rejected(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ShardSet::<u64>::new(0, vec![4], config(4, 5, 16), true);
    }
}
