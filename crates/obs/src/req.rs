//! Request-scoped causal tracing and the always-on flight recorder.
//!
//! [`ReqEvent`] is the event vocabulary of one request's life through
//! the sharded serving layer: admitted → enqueued → batched (possibly
//! stolen shard→shard) → resolved/failed, with panic-retry and shed as
//! the exceptional paths. Events carry the serving layer's existing seq
//! ids and a caller-supplied timestamp — virtual or wall clock, the
//! trace machinery never reads time itself, so a discrete-event
//! simulation and a threaded server produce the same shape of trace.
//!
//! Two sinks consume the stream:
//!
//! * [`TraceIndex`] — a sink that reassembles events into per-request
//!   timelines, verifies their causal shape ([`TraceIndex::verify`]:
//!   exactly one terminal event per seq, steals carry both shard ids,
//!   …) and exports sampled timelines as Chrome trace JSON.
//! * [`FlightRecorder`] — the always-on black box: a bounded,
//!   lock-light per-lane ring of the most recent events, dumped to a
//!   JSON artifact on fault, shed, or drain.
//!
//! Neither is a process global: the emitter holds the sinks it writes
//! to (the serving layer's `ShardSet` owns one of each, the index
//! optional), so two emitters in one process trace independently.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::Mutex;
use std::time::Duration;

use crate::artifact::write_atomic;
use crate::json::json_escape;

/// What happened to a request at one instant of its life.
///
/// Variants are `Copy` and allocation-free so emission sites never
/// touch the heap; class labels are `&'static str` (the serving
/// layer's priority names).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqEventKind {
    /// The request passed admission control.
    Admitted {
        /// Priority-class label ("high", "normal", "low").
        class: &'static str,
    },
    /// The request entered its home shard's queue.
    Enqueued {
        /// Home shard index.
        shard: u32,
    },
    /// The request left the queue inside a released batch.
    Batched {
        /// Shard whose queue released the batch (the home shard).
        shard: u32,
        /// Lane count of the released batch.
        lanes: u32,
    },
    /// The batch carrying this request was stolen across shards.
    Stolen {
        /// Home shard the batch was released on.
        from: u32,
        /// Shard whose worker actually executes it.
        to: u32,
    },
    /// The lane's batch panicked; the request is retried solo.
    PanicRetry,
    /// Admission control refused a request (queue full or SLO shed).
    ///
    /// Sheds happen before a seq id is assigned, so shed events carry
    /// seq 0 by convention and are tallied, never indexed per-request.
    Shed,
    /// The request completed successfully. Terminal.
    Resolved,
    /// The request failed (double fault after solo retry). Terminal.
    Failed,
}

impl ReqEventKind {
    /// Stable lowercase name of the event kind.
    pub fn name(&self) -> &'static str {
        match self {
            ReqEventKind::Admitted { .. } => "admitted",
            ReqEventKind::Enqueued { .. } => "enqueued",
            ReqEventKind::Batched { .. } => "batched",
            ReqEventKind::Stolen { .. } => "stolen",
            ReqEventKind::PanicRetry => "panic-retry",
            ReqEventKind::Shed => "shed",
            ReqEventKind::Resolved => "resolved",
            ReqEventKind::Failed => "failed",
        }
    }

    /// True for the two terminal kinds, [`Resolved`](Self::Resolved)
    /// and [`Failed`](Self::Failed).
    pub fn is_terminal(&self) -> bool {
        matches!(self, ReqEventKind::Resolved | ReqEventKind::Failed)
    }
}

/// One event of one request's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReqEvent {
    /// The serving layer's request seq id (0 for [`ReqEventKind::Shed`]).
    pub seq: u64,
    /// When it happened, on whatever clock the emitter runs.
    pub at: Duration,
    /// What happened.
    pub kind: ReqEventKind,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

impl ReqEvent {
    /// Builds an event.
    pub fn new(seq: u64, at: Duration, kind: ReqEventKind) -> Self {
        ReqEvent { seq, at, kind }
    }

    /// Serializes the event as one flat JSON object.
    pub fn to_json(&self) -> String {
        let mut j = format!(
            "{{\"seq\": {}, \"at_us\": {:.3}, \"kind\": \"{}\"",
            self.seq,
            us(self.at),
            self.kind.name()
        );
        match self.kind {
            ReqEventKind::Admitted { class } => {
                let _ = write!(j, ", \"class\": \"{class}\"");
            }
            ReqEventKind::Enqueued { shard } => {
                let _ = write!(j, ", \"shard\": {shard}");
            }
            ReqEventKind::Batched { shard, lanes } => {
                let _ = write!(j, ", \"shard\": {shard}, \"lanes\": {lanes}");
            }
            ReqEventKind::Stolen { from, to } => {
                let _ = write!(j, ", \"from\": {from}, \"to\": {to}");
            }
            ReqEventKind::PanicRetry
            | ReqEventKind::Shed
            | ReqEventKind::Resolved
            | ReqEventKind::Failed => {}
        }
        j.push('}');
        j
    }
}

/// Aggregate counts over a verified [`TraceIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// Distinct request timelines (admitted seqs).
    pub requests: usize,
    /// Total indexed events across all timelines.
    pub events: usize,
    /// Requests whose batch was stolen at least once.
    pub steals: usize,
    /// Solo-retry events across all timelines.
    pub panic_retries: usize,
    /// Requests whose terminal event is `Resolved`.
    pub resolved: usize,
    /// Requests whose terminal event is `Failed`.
    pub failed: usize,
    /// Shed (refused-at-admission) events; these never get a timeline.
    pub sheds: u64,
}

#[derive(Default)]
struct TraceState {
    by_seq: BTreeMap<u64, Vec<ReqEvent>>,
    sheds: u64,
}

/// A sink that indexes the request-event stream into per-request
/// timelines.
///
/// Events land through [`record_event`](Self::record_event) in
/// emission order, which for a single request is causal order (each
/// request's events are ordered by the queue and execution locks they
/// pass through).
#[derive(Default)]
pub struct TraceIndex {
    state: Mutex<TraceState>,
}

impl std::fmt::Debug for TraceIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceIndex")
            .field("requests", &self.requests())
            .field("sheds", &self.sheds())
            .finish()
    }
}

impl TraceIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Indexes one event.
    ///
    /// [`Shed`](ReqEventKind::Shed) events are tallied but not
    /// indexed: a shed request never received a seq id.
    pub fn record_event(&self, event: &ReqEvent) {
        let mut state = self.state.lock().expect("trace index poisoned");
        if matches!(event.kind, ReqEventKind::Shed) {
            state.sheds += 1;
        } else {
            state.by_seq.entry(event.seq).or_default().push(*event);
        }
    }

    /// Number of distinct request timelines indexed so far.
    pub fn requests(&self) -> usize {
        self.state.lock().expect("trace index poisoned").by_seq.len()
    }

    /// Number of shed events tallied so far.
    pub fn sheds(&self) -> u64 {
        self.state.lock().expect("trace index poisoned").sheds
    }

    /// The timeline of one seq, in emission order, if indexed.
    pub fn timeline(&self, seq: u64) -> Option<Vec<ReqEvent>> {
        self.state.lock().expect("trace index poisoned").by_seq.get(&seq).cloned()
    }

    /// All indexed seq ids, ascending.
    pub fn seqs(&self) -> Vec<u64> {
        self.state.lock().expect("trace index poisoned").by_seq.keys().copied().collect()
    }

    /// Verifies every timeline against the causal state machine and
    /// returns aggregate counts, or a description of the first
    /// violation.
    ///
    /// Per timeline (events in emission order):
    ///
    /// * the first event is `Admitted`, followed by exactly one
    ///   `Enqueued`;
    /// * the request is dispatched exactly once, by one `Batched`
    ///   event (a released batch);
    /// * `Stolen` only follows `Batched`, with `from != to` and
    ///   `from` equal to the batching shard (stolen requests carry
    ///   both shard ids);
    /// * `PanicRetry` only after dispatch;
    /// * exactly one terminal event (`Resolved`/`Failed`), last;
    /// * timestamps never decrease along the timeline.
    pub fn verify(&self) -> Result<TraceStats, String> {
        let state = self.state.lock().expect("trace index poisoned");
        let mut stats = TraceStats { sheds: state.sheds, ..TraceStats::default() };
        for (seq, events) in &state.by_seq {
            verify_timeline(*seq, events, &mut stats)?;
        }
        stats.requests = state.by_seq.len();
        Ok(stats)
    }

    /// Exports up to `max_requests` timelines (lowest seqs first) as
    /// Chrome trace JSON: one `"X"` slice per request spanning
    /// first→last event (tid = seq), plus an `"i"` instant per event.
    pub fn chrome_trace_json(&self, max_requests: usize) -> String {
        let state = self.state.lock().expect("trace index poisoned");
        let mut out = String::from("{\"traceEvents\":[");
        let mut first_out = true;
        for (seq, events) in state.by_seq.iter().take(max_requests) {
            let (Some(first), Some(last)) = (events.first(), events.last()) else {
                continue;
            };
            if !first_out {
                out.push(',');
            }
            first_out = false;
            let _ = write!(
                out,
                "{{\"name\":\"request\",\"cat\":\"req\",\"ph\":\"X\",\"pid\":1,\"tid\":{seq},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"events\":{}}}}}",
                us(first.at),
                us(last.at.saturating_sub(first.at)),
                events.len()
            );
            for ev in events {
                let _ = write!(
                    out,
                    ",{{\"name\":\"{}\",\"cat\":\"req\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\
                     \"tid\":{seq},\"ts\":{:.3},\"args\":{}}}",
                    ev.kind.name(),
                    us(ev.at),
                    ev.to_json()
                );
            }
        }
        let _ = write!(
            out,
            "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"requests\":{},\"sheds\":{}}}}}",
            state.by_seq.len(),
            state.sheds
        );
        out
    }
}

fn verify_timeline(seq: u64, events: &[ReqEvent], stats: &mut TraceStats) -> Result<(), String> {
    let fail = |i: usize, what: &str| -> String {
        format!("seq {seq}, event {i}: {what} (timeline: {:?})", events)
    };
    if events.is_empty() {
        return Err(format!("seq {seq}: empty timeline"));
    }
    let mut enqueued = false;
    let mut batched_on: Option<u32> = None;
    let mut stolen = false;
    let mut retries = 0usize;
    let mut terminal: Option<ReqEventKind> = None;
    let mut last_at = Duration::ZERO;
    for (i, ev) in events.iter().enumerate() {
        if ev.seq != seq {
            return Err(fail(i, "event indexed under a foreign seq"));
        }
        if terminal.is_some() {
            return Err(fail(i, "event after the terminal event"));
        }
        if ev.at < last_at {
            return Err(fail(i, "timestamp decreased along the timeline"));
        }
        last_at = ev.at;
        match ev.kind {
            ReqEventKind::Admitted { .. } => {
                if i != 0 {
                    return Err(fail(i, "admitted is not the first event"));
                }
            }
            ReqEventKind::Enqueued { .. } => {
                if i == 0 {
                    return Err(fail(i, "enqueued before admitted"));
                }
                if enqueued || batched_on.is_some() {
                    return Err(fail(i, "enqueued twice or after dispatch"));
                }
                enqueued = true;
            }
            ReqEventKind::Batched { shard, .. } => {
                if !enqueued || batched_on.is_some() {
                    return Err(fail(i, "batched without enqueue, or dispatched twice"));
                }
                batched_on = Some(shard);
            }
            ReqEventKind::Stolen { from, to } => {
                let Some(home) = batched_on else {
                    return Err(fail(i, "stolen before batched"));
                };
                if from == to {
                    return Err(fail(i, "stolen with from == to"));
                }
                if from != home {
                    return Err(fail(i, "stolen `from` disagrees with the batching shard"));
                }
                stolen = true;
            }
            ReqEventKind::PanicRetry => {
                if batched_on.is_none() {
                    return Err(fail(i, "panic-retry before dispatch"));
                }
                retries += 1;
            }
            ReqEventKind::Shed => {
                return Err(fail(i, "shed event indexed under a seq"));
            }
            ReqEventKind::Resolved | ReqEventKind::Failed => {
                if batched_on.is_none() {
                    return Err(fail(i, "terminal event before dispatch"));
                }
                terminal = Some(ev.kind);
            }
        }
    }
    match terminal {
        Some(ReqEventKind::Resolved) => stats.resolved += 1,
        Some(ReqEventKind::Failed) => stats.failed += 1,
        _ => return Err(format!("seq {seq}: no terminal event (timeline: {events:?})")),
    }
    if !enqueued {
        return Err(format!("seq {seq}: never enqueued"));
    }
    stats.events += events.len();
    if stolen {
        stats.steals += 1;
    }
    stats.panic_retries += retries;
    Ok(())
}

struct FlightLane {
    ring: VecDeque<ReqEvent>,
    dropped: u64,
}

/// The always-on black box: one bounded event ring per lane
/// (the serving layer uses one lane per shard).
///
/// Recording is a single short `Mutex` lock on the event's own lane —
/// no global state, no allocation past the ring's initial capacity —
/// so it can stay always on. When a ring is full the oldest event is
/// dropped and counted, keeping the newest N.
pub struct FlightRecorder {
    lanes: Vec<Mutex<FlightLane>>,
    capacity: usize,
}

impl FlightRecorder {
    /// Creates a recorder with `lanes` rings of `capacity` events each
    /// (both clamped to at least 1).
    pub fn new(lanes: usize, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            lanes: (0..lanes.max(1))
                .map(|_| {
                    Mutex::new(FlightLane { ring: VecDeque::with_capacity(capacity), dropped: 0 })
                })
                .collect(),
            capacity,
        }
    }

    /// Number of lanes.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Ring capacity per lane.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records one event into `lane` (wrapped modulo the lane count).
    pub fn record(&self, lane: usize, event: ReqEvent) {
        let mut lane = self.lanes[lane % self.lanes.len()].lock().expect("flight lane poisoned");
        if lane.ring.len() == self.capacity {
            lane.ring.pop_front();
            lane.dropped += 1;
        }
        lane.ring.push_back(event);
    }

    /// Total events currently held across all lanes.
    pub fn len(&self) -> usize {
        self.lanes.iter().map(|l| l.lock().expect("flight lane poisoned").ring.len()).sum()
    }

    /// True when no lane holds any event.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes the black box: the dump cause plus, per lane, its
    /// drop count and the retained events oldest-first.
    pub fn dump_json(&self, cause: &str) -> String {
        let mut out = format!(
            "{{\n  \"cause\": \"{}\",\n  \"capacity_per_lane\": {},\n  \"lanes\": [\n",
            json_escape(cause),
            self.capacity
        );
        for (i, lane) in self.lanes.iter().enumerate() {
            let lane = lane.lock().expect("flight lane poisoned");
            let _ =
                write!(out, "    {{\"lane\": {i}, \"dropped\": {}, \"events\": [", lane.dropped);
            for (k, ev) in lane.ring.iter().enumerate() {
                if k > 0 {
                    out.push_str(", ");
                }
                out.push_str(&ev.to_json());
            }
            out.push_str("]}");
            out.push_str(if i + 1 < self.lanes.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes [`dump_json`](Self::dump_json) to `path` atomically
    /// (temp file + rename), so a crash mid-dump never leaves a torn
    /// black box.
    pub fn dump_to(&self, path: &Path, cause: &str) -> io::Result<()> {
        write_atomic(path, &self.dump_json(cause))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_json;

    fn at(ms: u64) -> Duration {
        Duration::from_millis(ms)
    }

    fn plain_timeline(idx: &TraceIndex, seq: u64) {
        idx.record_event(&ReqEvent::new(seq, at(1), ReqEventKind::Admitted { class: "normal" }));
        idx.record_event(&ReqEvent::new(seq, at(1), ReqEventKind::Enqueued { shard: 0 }));
        idx.record_event(&ReqEvent::new(seq, at(2), ReqEventKind::Batched { shard: 0, lanes: 2 }));
        idx.record_event(&ReqEvent::new(seq, at(5), ReqEventKind::Resolved));
    }

    #[test]
    fn verify_accepts_the_full_vocabulary() {
        let idx = TraceIndex::new();
        plain_timeline(&idx, 1);
        // A stolen, retried request.
        idx.record_event(&ReqEvent::new(2, at(1), ReqEventKind::Admitted { class: "high" }));
        idx.record_event(&ReqEvent::new(2, at(1), ReqEventKind::Enqueued { shard: 1 }));
        idx.record_event(&ReqEvent::new(2, at(2), ReqEventKind::Batched { shard: 1, lanes: 1 }));
        idx.record_event(&ReqEvent::new(2, at(2), ReqEventKind::Stolen { from: 1, to: 3 }));
        idx.record_event(&ReqEvent::new(2, at(3), ReqEventKind::PanicRetry));
        idx.record_event(&ReqEvent::new(2, at(6), ReqEventKind::Resolved));
        // A double fault: retried solo, failed again.
        idx.record_event(&ReqEvent::new(3, at(2), ReqEventKind::Admitted { class: "low" }));
        idx.record_event(&ReqEvent::new(3, at(2), ReqEventKind::Enqueued { shard: 0 }));
        idx.record_event(&ReqEvent::new(3, at(3), ReqEventKind::Batched { shard: 0, lanes: 3 }));
        idx.record_event(&ReqEvent::new(3, at(6), ReqEventKind::PanicRetry));
        idx.record_event(&ReqEvent::new(3, at(7), ReqEventKind::Failed));
        // Two sheds, tallied but never indexed.
        idx.record_event(&ReqEvent::new(0, at(4), ReqEventKind::Shed));
        idx.record_event(&ReqEvent::new(0, at(4), ReqEventKind::Shed));

        let stats = idx.verify().expect("all timelines causal");
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.steals, 1);
        assert_eq!(stats.panic_retries, 2);
        assert_eq!(stats.resolved, 2);
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.sheds, 2);
        assert_eq!(idx.timeline(2).expect("indexed").len(), 6);
    }

    #[test]
    fn verify_rejects_missing_terminal() {
        let idx = TraceIndex::new();
        idx.record_event(&ReqEvent::new(7, at(1), ReqEventKind::Admitted { class: "normal" }));
        idx.record_event(&ReqEvent::new(7, at(1), ReqEventKind::Enqueued { shard: 0 }));
        idx.record_event(&ReqEvent::new(7, at(2), ReqEventKind::Batched { shard: 0, lanes: 1 }));
        let err = idx.verify().expect_err("no terminal event");
        assert!(err.contains("no terminal event"), "{err}");
    }

    #[test]
    fn verify_rejects_events_after_terminal_and_double_dispatch() {
        let idx = TraceIndex::new();
        plain_timeline(&idx, 1);
        idx.record_event(&ReqEvent::new(1, at(6), ReqEventKind::Resolved));
        let err = idx.verify().expect_err("double terminal");
        assert!(err.contains("after the terminal"), "{err}");

        let idx = TraceIndex::new();
        idx.record_event(&ReqEvent::new(4, at(1), ReqEventKind::Admitted { class: "normal" }));
        idx.record_event(&ReqEvent::new(4, at(1), ReqEventKind::Enqueued { shard: 0 }));
        idx.record_event(&ReqEvent::new(4, at(2), ReqEventKind::Batched { shard: 0, lanes: 1 }));
        idx.record_event(&ReqEvent::new(4, at(3), ReqEventKind::Batched { shard: 0, lanes: 2 }));
        let err = idx.verify().expect_err("batched twice");
        assert!(err.contains("dispatched twice"), "{err}");
    }

    #[test]
    fn verify_rejects_inconsistent_steals() {
        let idx = TraceIndex::new();
        idx.record_event(&ReqEvent::new(9, at(1), ReqEventKind::Admitted { class: "normal" }));
        idx.record_event(&ReqEvent::new(9, at(1), ReqEventKind::Enqueued { shard: 2 }));
        idx.record_event(&ReqEvent::new(9, at(2), ReqEventKind::Batched { shard: 2, lanes: 1 }));
        idx.record_event(&ReqEvent::new(9, at(2), ReqEventKind::Stolen { from: 1, to: 0 }));
        idx.record_event(&ReqEvent::new(9, at(3), ReqEventKind::Resolved));
        let err = idx.verify().expect_err("from must match the batching shard");
        assert!(err.contains("disagrees"), "{err}");
    }

    #[test]
    fn chrome_export_is_valid_json_and_samples_lowest_seqs() {
        let idx = TraceIndex::new();
        for seq in 1..=5 {
            plain_timeline(&idx, seq);
        }
        let json = idx.chrome_trace_json(3);
        validate_json(&json).expect("chrome trace parses");
        assert!(json.contains("\"tid\":3"));
        assert!(!json.contains("\"tid\":4"), "sampling keeps the lowest seqs");
    }

    #[test]
    fn flight_recorder_keeps_the_newest_events_per_lane() {
        let fr = FlightRecorder::new(2, 4);
        for i in 0..10u64 {
            fr.record(
                (i % 2) as usize,
                ReqEvent::new(i, at(i), ReqEventKind::Batched { shard: (i % 2) as u32, lanes: 1 }),
            );
        }
        assert_eq!(fr.len(), 8);
        let dump = fr.dump_json("test");
        validate_json(&dump).expect("flight dump parses");
        assert!(dump.contains("\"cause\": \"test\""));
        assert!(dump.contains("\"dropped\": 1"));
        assert!(dump.contains("\"seq\": 9"), "newest survives");
        assert!(!dump.contains("\"seq\": 0,"), "oldest evicted");
    }

    #[test]
    fn flight_dump_to_writes_the_artifact() {
        let fr = FlightRecorder::new(1, 8);
        fr.record(0, ReqEvent::new(1, at(1), ReqEventKind::Resolved));
        let path = std::env::temp_dir().join(format!("wino_flight_{}.json", std::process::id()));
        fr.dump_to(&path, "drain").expect("dump writes");
        let body = std::fs::read_to_string(&path).expect("artifact readable");
        let _ = std::fs::remove_file(&path);
        validate_json(&body).expect("artifact parses");
        assert!(body.contains("\"cause\": \"drain\""));
    }
}
