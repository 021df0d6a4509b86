//! Serving metrics: per-model throughput and latency distribution.
//!
//! Latencies are recorded into fixed-size logarithmic histograms (one
//! bucket per power of two of microseconds), so recording is O(1),
//! memory is constant, and the p50/p95/p99 read-out is a bucket walk —
//! the classic production-serving trade of exact quantiles for bounded
//! state. Quantiles are reported as the *midpoint* of the bucket the
//! rank falls in, keeping the reported value within 2× of the true
//! sample in both directions (see [`LatencyHistogram::quantile`]).
//!
//! All recording goes through interior mutability behind one mutex per
//! [`Metrics`] — workers record once per *batch*, not per request, so
//! contention stays negligible next to the convolution work. Besides
//! per-model counters the recorder keeps server-wide per-priority-class
//! queue-wait histograms, so the batcher's anti-starvation behaviour is
//! measurable per class.

use crate::{BatchItem, Priority};
use std::fmt;
use std::sync::Mutex;
use std::time::Duration;

/// Number of power-of-two microsecond buckets: covers up to
/// 2^39 µs ≈ 6.4 days, far beyond any sane request latency.
const BUCKETS: usize = 40;

/// A fixed-size log₂-bucketed latency histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
    total: u64,
    sum_us: u128,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram { counts: [0; BUCKETS], total: 0, sum_us: 0 }
    }

    fn bucket(us: u128) -> usize {
        // Bucket b holds latencies in [2^(b-1), 2^b) µs; bucket 0 holds
        // sub-microsecond samples.
        (128 - us.leading_zeros() as usize).min(BUCKETS - 1)
    }

    /// Records one sample.
    pub fn record(&mut self, latency: Duration) {
        let us = latency.as_micros();
        self.counts[Self::bucket(us)] += 1;
        self.total += 1;
        self.sum_us += us;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean latency (`ZERO` when empty).
    pub fn mean(&self) -> Duration {
        if self.total == 0 {
            return Duration::ZERO;
        }
        Duration::from_micros((self.sum_us / u128::from(self.total)) as u64)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the *midpoint* of the
    /// bucket containing that rank; `ZERO` when empty.
    ///
    /// Log₂ buckets cannot resolve where inside a bucket the true
    /// quantile sits: bucket `b ≥ 1` spans `[2^(b-1), 2^b)` µs, a 2×
    /// range. Reporting the bucket's upper bound (as earlier versions
    /// did) therefore over-reports by up to 2× systematically at the
    /// bucket's lower edge. The arithmetic midpoint `1.5 · 2^(b-1)` µs
    /// instead brackets the true sample from both sides: the
    /// reported/true ratio stays in `[0.75, 1.5]` — comfortably within
    /// the ≤2× relative-error bound that `tests/metrics_props.rs` pins
    /// by proptest — for every sample of at least 1 µs. Bucket 0
    /// (sub-microsecond) reports its midpoint 0.5 µs, where no
    /// relative bound is possible.
    ///
    /// ```
    /// use std::time::Duration;
    /// use wino_serve::LatencyHistogram;
    ///
    /// let mut h = LatencyHistogram::new();
    /// for ms in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 40] {
    ///     h.record(Duration::from_millis(ms));
    /// }
    /// // Nine of ten samples sit in the ~1 ms bucket…
    /// assert!(h.quantile(0.5) < Duration::from_millis(3));
    /// // …but the p99 walk reaches the 40 ms outlier's bucket, whose
    /// // midpoint (≈49 ms) stays within 2× of the true sample.
    /// assert!(h.quantile(0.99) >= Duration::from_millis(40));
    /// assert!(h.quantile(0.99) <= Duration::from_millis(80));
    /// ```
    pub fn quantile(&self, q: f64) -> Duration {
        if self.total == 0 {
            return Duration::ZERO;
        }
        let rank = (q.clamp(0.0, 1.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (b, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Self::bucket_midpoint(b);
            }
        }
        Self::bucket_midpoint(BUCKETS - 1)
    }

    /// Midpoint of bucket `b`: 0.5 µs for the sub-microsecond bucket,
    /// `1.5 · 2^(b-1)` µs (= `1500 · 2^(b-1)` ns) otherwise.
    fn bucket_midpoint(b: usize) -> Duration {
        if b == 0 {
            Duration::from_nanos(500)
        } else {
            Duration::from_nanos(1500u64 << (b - 1))
        }
    }

    /// Adds every sample of `other` to this histogram — how the
    /// all-class row is built from the per-class histograms.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum_us += other.sum_us;
    }

    /// Samples **certainly** above `threshold`: the summed counts of
    /// every bucket whose *lower* bound (`2^(b-1)` µs) is at or above
    /// it. Log₂ buckets cannot say where inside a bucket a sample sat,
    /// so this is a conservative undercount — a sample in the bucket
    /// straddling the threshold is not counted even if it was over.
    /// Equivalently, the count is exact for the effective threshold
    /// rounded **up** to the next bucket edge (e.g. asking for 10 ms
    /// counts samples ≥ 16.384 ms). The SLO burn-rate engine accepts
    /// that bias: it under-alerts slightly rather than crying wolf.
    pub fn count_over(&self, threshold: Duration) -> u64 {
        let us = threshold.as_micros();
        self.counts
            .iter()
            .enumerate()
            .filter(|&(b, _)| {
                let lower_us = if b == 0 { 0u128 } else { 1u128 << (b - 1) };
                b > 0 && lower_us >= us
            })
            .map(|(_, &count)| count)
            .sum()
    }
}

/// Accumulated counters of one model.
#[derive(Debug, Clone, Default)]
struct ModelCounters {
    completed: u64,
    rejected: u64,
    failed: u64,
    batches: u64,
    latency: LatencyHistogram,
    queue_wait: LatencyHistogram,
    /// EWMA of per-image service time, the admission controller's
    /// backlog estimate.
    ewma_image_us: Option<f64>,
}

/// Accumulated counters of one shard's worker group.
#[derive(Debug, Clone, Default)]
struct ShardCounters {
    batches: u64,
    stolen: u64,
    completed: u64,
    failed: u64,
    latency: LatencyHistogram,
}

/// Point-in-time metrics of one model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSnapshot {
    /// The model's stable ID.
    pub model: String,
    /// Requests completed (responses delivered).
    pub completed: u64,
    /// Requests refused at admission.
    pub rejected: u64,
    /// Batches executed.
    pub batches: u64,
    /// Mean images per executed batch.
    pub mean_batch: f64,
    /// Mean end-to-end latency.
    pub mean_latency: Duration,
    /// Median end-to-end latency (bucket midpoint).
    pub p50: Duration,
    /// 95th-percentile end-to-end latency (bucket midpoint).
    pub p95: Duration,
    /// 99th-percentile end-to-end latency (bucket midpoint).
    pub p99: Duration,
    /// 99.9th-percentile end-to-end latency (bucket midpoint) — the
    /// tail the serving-storm study gates on.
    pub p999: Duration,
    /// Requests that ended in an explicit failure (worker fault not
    /// recoverable by the solo retry) instead of a result.
    pub failed: u64,
    /// Mean time spent queued before execution started.
    pub mean_queue_wait: Duration,
}

/// Point-in-time metrics of one shard's worker group.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnapshot {
    /// Shard index.
    pub shard: usize,
    /// Batches this shard's workers executed (home plus stolen).
    pub batches: u64,
    /// Of those, batches stolen from another shard's queue.
    pub stolen: u64,
    /// Requests completed by this shard's workers.
    pub completed: u64,
    /// Requests explicitly failed by this shard's workers.
    pub failed: u64,
    /// Median end-to-end latency of requests served here.
    pub p50: Duration,
    /// 99th-percentile end-to-end latency served here.
    pub p99: Duration,
    /// 99.9th-percentile end-to-end latency served here.
    pub p999: Duration,
}

/// Server-wide distribution of one priority class (used for both
/// queue waits and end-to-end latencies) — the measurement behind the
/// batcher's anti-starvation claim: if low priority starved, its tail
/// would run away from the others.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassWaitSnapshot {
    /// The priority class.
    pub priority: Priority,
    /// Requests of this class completed.
    pub completed: u64,
    /// Mean of the class.
    pub mean: Duration,
    /// Median (bucket midpoint).
    pub p50: Duration,
    /// 95th percentile (bucket midpoint).
    pub p95: Duration,
    /// 99th percentile (bucket midpoint).
    pub p99: Duration,
    /// 99.9th percentile (bucket midpoint) — the storm study's
    /// per-class gate.
    pub p999: Duration,
}

impl ClassWaitSnapshot {
    /// The summary of class `priority`'s histogram `h`.
    fn of((&priority, h): (&Priority, &LatencyHistogram)) -> ClassWaitSnapshot {
        ClassWaitSnapshot {
            priority,
            completed: h.count(),
            mean: h.mean(),
            p50: h.quantile(0.50),
            p95: h.quantile(0.95),
            p99: h.quantile(0.99),
            p999: h.quantile(0.999),
        }
    }
}

/// Point-in-time metrics of the whole server.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Wall time the snapshot covers (since metrics construction).
    pub elapsed: Duration,
    /// Per-model snapshots, registry order.
    pub per_model: Vec<ModelSnapshot>,
    /// Server-wide queue-wait distribution per priority class,
    /// highest class first ([`Priority::ALL`] order).
    pub queue_wait_by_class: Vec<ClassWaitSnapshot>,
    /// Server-wide cumulative end-to-end latency histograms per
    /// priority class, highest class first ([`Priority::ALL`] order).
    /// [`latency_by_class`](Self::latency_by_class) summarises them;
    /// the SLO burn-rate engine instead diffs successive snapshots'
    /// histograms ([`LatencyHistogram::count_over`]) to count objective
    /// violations per window.
    pub class_latency_histograms: Vec<LatencyHistogram>,
    /// Per-shard worker-group snapshots, shard order.
    pub per_shard: Vec<ShardSnapshot>,
}

impl MetricsSnapshot {
    /// Requests completed across every model.
    pub fn total_completed(&self) -> u64 {
        self.per_model.iter().map(|m| m.completed).sum()
    }

    /// Requests refused at admission across every model.
    pub fn total_rejected(&self) -> u64 {
        self.per_model.iter().map(|m| m.rejected).sum()
    }

    /// Requests explicitly failed across every model (fault path).
    pub fn total_failed(&self) -> u64 {
        self.per_model.iter().map(|m| m.failed).sum()
    }

    /// Server-wide end-to-end latency summary per priority class,
    /// highest class first, computed from
    /// [`class_latency_histograms`](Self::class_latency_histograms).
    pub fn latency_by_class(&self) -> Vec<ClassWaitSnapshot> {
        Priority::ALL
            .iter()
            .zip(&self.class_latency_histograms)
            .map(ClassWaitSnapshot::of)
            .collect()
    }

    /// The all-class end-to-end latency distribution: the class
    /// histograms merged.
    pub fn latency(&self) -> LatencyHistogram {
        let mut all = LatencyHistogram::new();
        for class in &self.class_latency_histograms {
            all.merge(class);
        }
        all
    }

    /// Batches stolen across every shard.
    pub fn total_stolen(&self) -> u64 {
        self.per_shard.iter().map(|s| s.stolen).sum()
    }

    /// Completed requests per second over the covered window
    /// (`0.0` for an empty window).
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.total_completed() as f64 / secs
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "served {} requests in {:.2} s ({:.1} req/s, {} rejected)",
            self.total_completed(),
            self.elapsed.as_secs_f64(),
            self.throughput_rps(),
            self.total_rejected()
        )?;
        for m in &self.per_model {
            writeln!(
                f,
                "  {:<14} {:>6} done {:>5} rej {:>6.2} img/batch  p50 {:>9.3?}  p95 {:>9.3?}  p99 {:>9.3?}",
                m.model, m.completed, m.rejected, m.mean_batch, m.p50, m.p95, m.p99
            )?;
        }
        for c in &self.queue_wait_by_class {
            if c.completed > 0 {
                writeln!(
                    f,
                    "  queue-wait {:<7} {:>6} done  mean {:>9.3?}  p95 {:>9.3?}  p99 {:>9.3?}",
                    c.priority.to_string(),
                    c.completed,
                    c.mean,
                    c.p95,
                    c.p99
                )?;
            }
        }
        for s in &self.per_shard {
            if s.batches > 0 {
                writeln!(
                    f,
                    "  shard {:<2} {:>6} batches ({} stolen) {:>6} done {:>4} failed  p99 {:>9.3?}  p99.9 {:>9.3?}",
                    s.shard, s.batches, s.stolen, s.completed, s.failed, s.p99, s.p999
                )?;
            }
        }
        Ok(())
    }
}

/// Everything one metrics mutex protects: per-model counters plus the
/// server-wide per-priority-class queue-wait histograms.
#[derive(Debug)]
struct MetricsState {
    models: Vec<ModelCounters>,
    shards: Vec<ShardCounters>,
    /// Queue waits keyed by [`Priority::index`] — server-wide, because
    /// scheduling between classes happens across models in one batcher.
    class_waits: [LatencyHistogram; 3],
    /// End-to-end latencies keyed by [`Priority::index`].
    class_latencies: [LatencyHistogram; 3],
}

/// Thread-safe per-model metrics recorder.
#[derive(Debug)]
pub struct Metrics {
    models: Vec<String>,
    state: Mutex<MetricsState>,
}

impl Metrics {
    /// A recorder for the given model IDs (registry order) and
    /// `shards` worker groups.
    pub fn new(models: Vec<String>, shards: usize) -> Metrics {
        let state = Mutex::new(MetricsState {
            models: models.iter().map(|_| ModelCounters::default()).collect(),
            shards: (0..shards).map(|_| ShardCounters::default()).collect(),
            class_waits: std::array::from_fn(|_| LatencyHistogram::new()),
            class_latencies: std::array::from_fn(|_| LatencyHistogram::new()),
        });
        Metrics { models, state }
    }

    /// Records one executed batch of `model` on `shard` (`stolen` from
    /// another shard's queue or not): the released `items` ran from
    /// `started` to `finished`, so each waited from its `enqueued_at` to
    /// `started` and took `finished - enqueued_at` end to end.
    ///
    /// # Panics
    ///
    /// Panics when `model` or `shard` is out of range.
    pub fn record_batch<T>(
        &self,
        model: usize,
        shard: usize,
        stolen: bool,
        items: &[BatchItem<T>],
        started: Duration,
        finished: Duration,
    ) {
        let batch = items.len() as u64;
        let mut state = self.state.lock().expect("metrics lock");
        let state = &mut *state;
        let (c, s) = (&mut state.models[model], &mut state.shards[shard]);
        c.batches += 1;
        c.completed += batch;
        s.batches += 1;
        s.stolen += u64::from(stolen);
        s.completed += batch;
        for item in items {
            let wait = started.saturating_sub(item.enqueued_at);
            let latency = finished.saturating_sub(item.enqueued_at);
            c.queue_wait.record(wait);
            c.latency.record(latency);
            s.latency.record(latency);
            state.class_waits[item.priority.index()].record(wait);
            state.class_latencies[item.priority.index()].record(latency);
        }
        if batch > 0 {
            let service = finished.saturating_sub(started);
            let per_image = service.as_micros() as f64 / batch as f64;
            // EWMA with alpha 0.3: reactive enough for admission
            // control, smooth enough to ignore one noisy batch.
            c.ewma_image_us =
                Some(c.ewma_image_us.map_or(per_image, |old| 0.7 * old + 0.3 * per_image));
        }
    }

    /// Records one request refused at admission.
    ///
    /// # Panics
    ///
    /// Panics when `model` is out of range.
    pub fn record_rejected(&self, model: usize) {
        self.state.lock().expect("metrics lock").models[model].rejected += 1;
    }

    /// Records `n` requests of `model` explicitly failed by `shard`'s
    /// workers (the fault path: a lane whose solo retry also
    /// panicked).
    ///
    /// # Panics
    ///
    /// Panics when `model` or `shard` is out of range.
    pub fn record_failed(&self, model: usize, shard: usize, n: u64) {
        let mut state = self.state.lock().expect("metrics lock");
        state.models[model].failed += n;
        state.shards[shard].failed += n;
    }

    /// The smoothed per-image service-time estimate of `model`, if any
    /// batch has completed yet — what admission control multiplies by
    /// the backlog to estimate queueing delay.
    ///
    /// # Panics
    ///
    /// Panics when `model` is out of range.
    pub fn estimated_image_time(&self, model: usize) -> Option<Duration> {
        self.state.lock().expect("metrics lock").models[model]
            .ewma_image_us
            .map(|us| Duration::from_micros(us as u64))
    }

    /// A consistent snapshot covering `elapsed` of wall time.
    pub fn snapshot(&self, elapsed: Duration) -> MetricsSnapshot {
        let state = self.state.lock().expect("metrics lock");
        let per_model = self
            .models
            .iter()
            .zip(state.models.iter())
            .map(|(id, c)| ModelSnapshot {
                model: id.clone(),
                completed: c.completed,
                rejected: c.rejected,
                batches: c.batches,
                mean_batch: if c.batches == 0 {
                    0.0
                } else {
                    c.completed as f64 / c.batches as f64
                },
                mean_latency: c.latency.mean(),
                p50: c.latency.quantile(0.50),
                p95: c.latency.quantile(0.95),
                p99: c.latency.quantile(0.99),
                p999: c.latency.quantile(0.999),
                failed: c.failed,
                mean_queue_wait: c.queue_wait.mean(),
            })
            .collect();
        let queue_wait_by_class =
            Priority::ALL.iter().zip(&state.class_waits).map(ClassWaitSnapshot::of).collect();
        let class_latency_histograms = state.class_latencies.to_vec();
        let per_shard = state
            .shards
            .iter()
            .enumerate()
            .map(|(shard, s)| ShardSnapshot {
                shard,
                batches: s.batches,
                stolen: s.stolen,
                completed: s.completed,
                failed: s.failed,
                p50: s.latency.quantile(0.50),
                p99: s.latency.quantile(0.99),
                p999: s.latency.quantile(0.999),
            })
            .collect();
        MetricsSnapshot {
            elapsed,
            per_model,
            queue_wait_by_class,
            class_latency_histograms,
            per_shard,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    /// Released items of the given classes, enqueued at the given
    /// times (ms).
    fn items(lanes: &[(Priority, u64)]) -> Vec<BatchItem<()>> {
        let item =
            |&(priority, at)| BatchItem { seq: 0, enqueued_at: ms(at), priority, payload: () };
        lanes.iter().map(item).collect()
    }

    #[test]
    fn histogram_quantiles_report_bucket_midpoints_within_2x() {
        let mut h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(ms(1));
        }
        h.record(ms(500));
        assert_eq!(h.count(), 100);
        // p50 reports the 1 ms sample's bucket midpoint (768 µs) —
        // within 2× of the true sample in both directions.
        assert!(h.quantile(0.5) >= Duration::from_micros(500));
        assert!(h.quantile(0.5) <= ms(2));
        // p99 still sits in the bulk; only the very tail sees the
        // outlier, whose midpoint (≈393 ms) brackets 500 ms within 2×.
        assert!(h.quantile(0.99) <= ms(2));
        assert!(h.quantile(1.0) >= ms(250) && h.quantile(1.0) <= ms(500));
        assert!(h.mean() >= ms(5));
    }

    #[test]
    fn histogram_midpoints_bracket_exact_powers_of_two() {
        // 1024 µs lands in the [1024, 2048) µs bucket, midpoint 1536 µs.
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_micros(1024));
        assert_eq!(h.quantile(0.5), Duration::from_micros(1536));
        // A sub-microsecond sample reports the 0.5 µs midpoint.
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_nanos(100));
        assert_eq!(h.quantile(1.0), Duration::from_nanos(500));
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.99), Duration::ZERO);
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn batch_recording_feeds_snapshot_and_ewma() {
        let m = Metrics::new(vec!["a".into(), "b".into()], 2);
        let normal = items(&[(Priority::Normal, 1), (Priority::Normal, 0)]);
        m.record_batch(0, 0, false, &normal, ms(2), ms(10));
        m.record_batch(0, 0, false, &items(&[(Priority::High, 0)]), ms(1), ms(5));
        m.record_rejected(1);
        let snap = m.snapshot(ms(1000));
        assert_eq!(snap.total_completed(), 3);
        assert_eq!(snap.total_rejected(), 1);
        assert_eq!(snap.per_model[0].batches, 2);
        assert!((snap.per_model[0].mean_batch - 1.5).abs() < 1e-9);
        assert!((snap.throughput_rps() - 3.0).abs() < 1e-9);
        // EWMA: 0.7 * 4000 µs + 0.3 * 4000 µs = 4000 µs per image.
        let est = m.estimated_image_time(0).unwrap();
        assert_eq!(est, Duration::from_micros(4000));
        assert_eq!(m.estimated_image_time(1), None);
        let text = snap.to_string();
        assert!(text.contains("a") && text.contains("req/s"));
        assert!(text.contains("queue-wait high"), "{text}");
    }

    #[test]
    fn queue_waits_are_attributed_to_priority_classes() {
        let m = Metrics::new(vec!["a".into()], 1);
        let lanes = items(&[(Priority::High, 63), (Priority::Low, 0), (Priority::Low, 0)]);
        m.record_batch(0, 0, false, &lanes, ms(64), ms(66));
        let snap = m.snapshot(ms(100));
        assert_eq!(snap.queue_wait_by_class.len(), 3);
        let by_class = &snap.queue_wait_by_class;
        assert_eq!(by_class[0].priority, Priority::High);
        assert_eq!(by_class[0].completed, 1);
        assert_eq!(by_class[1].completed, 0, "no normal traffic recorded");
        assert_eq!(by_class[2].completed, 2);
        // Low waited far longer than high, and the histograms see it.
        assert!(by_class[2].p95 > by_class[0].p95 * 10);
    }

    #[test]
    fn ewma_estimate_is_none_before_the_first_batch() {
        // Warm-up behaviour the admission controller relies on: with no
        // completed batch there is no service-time estimate, so the SLO
        // test cannot fire.
        let m = Metrics::new(vec!["a".into()], 1);
        assert_eq!(m.estimated_image_time(0), None);
        // Rejections alone must not create an estimate.
        m.record_rejected(0);
        assert_eq!(m.estimated_image_time(0), None);
        // An empty batch (possible only in principle) must not either.
        m.record_batch::<()>(0, 0, false, &[], Duration::ZERO, Duration::ZERO);
        assert_eq!(m.estimated_image_time(0), None);
    }

    #[test]
    fn ewma_converges_after_a_service_time_step_change() {
        let m = Metrics::new(vec!["a".into()], 1);
        let one = items(&[(Priority::Normal, 0)]);
        // Five batches at 4 ms per image settle the estimate at 4 ms.
        for _ in 0..5 {
            m.record_batch(0, 0, false, &one, ms(0), ms(4));
        }
        let before = m.estimated_image_time(0).unwrap();
        assert!((before.as_secs_f64() - 0.004).abs() < 1e-4, "{before:?}");
        // Service time steps to 8 ms per image. With alpha 0.3 the
        // residual decays by 0.7 per batch: after 20 batches the
        // estimate is within 0.7^20 ≈ 0.08% of the new level.
        for _ in 0..20 {
            m.record_batch(0, 0, false, &one, ms(0), ms(8));
        }
        let after = m.estimated_image_time(0).unwrap();
        let err = (after.as_secs_f64() - 0.008).abs() / 0.008;
        assert!(err < 0.01, "estimate {after:?} did not converge to 8 ms (err {err:.4})");
        // And convergence is monotone-ish: one batch in, the estimate
        // had moved towards the step but not overshot.
        let m2 = Metrics::new(vec!["a".into()], 1);
        for _ in 0..5 {
            m2.record_batch(0, 0, false, &one, ms(0), ms(4));
        }
        m2.record_batch(0, 0, false, &one, ms(0), ms(8));
        let one_step = m2.estimated_image_time(0).unwrap();
        // 0.7 · 4 ms + 0.3 · 8 ms = 5.2 ms.
        assert!((one_step.as_secs_f64() - 0.0052).abs() < 1e-4, "{one_step:?}");
    }

    #[test]
    fn count_over_is_a_conservative_bucket_edge_count() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_micros(500)); // bucket [256, 512) µs
        h.record(ms(1)); // [512, 1024) µs
        h.record(ms(20)); // [16384, 32768) µs
        h.record(ms(100)); // [65536, 131072) µs
                           // Threshold 10 ms rounds up to the 16.384 ms bucket edge: the
                           // 20 ms and 100 ms samples count, the rest certainly do not.
        assert_eq!(h.count_over(Duration::from_millis(10)), 2);
        // A sample exactly inside the straddling bucket is *not*
        // counted (conservative undercount).
        assert_eq!(h.count_over(ms(20)), 1, "20 ms sits in its threshold's own bucket");
        // Degenerate thresholds.
        assert_eq!(h.count_over(Duration::ZERO), 4, "every ≥1 µs sample is over zero");
        assert_eq!(h.count_over(Duration::from_secs(86400 * 30)), 0);
        assert_eq!(LatencyHistogram::new().count_over(ms(1)), 0);
    }

    #[test]
    fn zero_window_throughput_is_zero_not_nan() {
        let m = Metrics::new(vec!["a".into()], 1);
        let snap = m.snapshot(Duration::ZERO);
        assert_eq!(snap.throughput_rps(), 0.0);
    }

    #[test]
    fn shard_counters_attribute_batches_steals_and_failures() {
        let m = Metrics::new(vec!["a".into()], 3);
        // Shard 0 executes two home batches; shard 2 steals one.
        let normal = items(&[(Priority::Normal, 0), (Priority::Normal, 0)]);
        m.record_batch(0, 0, false, &normal, ms(1), ms(5));
        m.record_batch(0, 0, false, &items(&[(Priority::High, 0)]), ms(1), ms(5));
        m.record_batch(0, 2, true, &items(&[(Priority::Low, 0)]), ms(9), ms(13));
        m.record_failed(0, 2, 2);
        let snap = m.snapshot(ms(1000));
        assert_eq!(snap.per_shard.len(), 3);
        let [s0, s1, s2] = &snap.per_shard[..] else { unreachable!() };
        assert_eq!((s0.shard, s0.batches, s0.stolen, s0.completed), (0, 2, 0, 3));
        assert_eq!((s1.batches, s1.completed, s1.failed), (0, 0, 0));
        assert_eq!((s2.shard, s2.batches, s2.stolen, s2.completed, s2.failed), (2, 1, 1, 1, 2));
        assert_eq!(snap.total_stolen(), 1);
        assert_eq!(snap.total_failed(), 2);
        assert_eq!(snap.per_model[0].failed, 2);
        // Idle shards report zero latency; busy shards a real p999.
        assert_eq!(s1.p999, Duration::ZERO);
        assert!(s2.p999 >= ms(8) && s0.p999 > Duration::ZERO);
        // Per-class *latency* histograms are populated alongside the
        // wait histograms, with a p999 at least the class p50.
        let by_class = snap.latency_by_class();
        assert_eq!(by_class.len(), 3);
        let low = &by_class[Priority::Low.index()];
        assert_eq!(low.completed, 1);
        assert!(low.p999 >= low.p50 && low.p999 >= ms(8));
        // The human-readable dump mentions shard lines too.
        let display = snap.to_string();
        assert!(display.contains("shard 2"), "{display}");
    }
}
