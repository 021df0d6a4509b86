//! Serving storm study: the sharded serving layer under a seeded,
//! bursty multi-tenant storm — 10⁵ requests on the virtual clock (a
//! discrete-event simulation over the *real* [`ShardSet`], with modeled
//! layer service times), plus a smaller wall-clock storm (10³⁺
//! requests) through a real threaded [`Server`].
//! The run writes `BENCH_serve.json` whole: the storm results under the
//! `"storm"` key, the SLO study under `"slo"`.
//!
//! The trace has four phases: steady load, an overload spike (~6×
//! arrival rate, driving queues to rejection), tenant skew (~70 % of
//! traffic on one model) and a cool-down tail; the simulation then
//! drains under load. Two configurations replay the identical trace:
//!
//! * **single-shard baseline** — 1 shard × 4 workers, no stealing (the
//!   pre-sharding serving architecture);
//! * **sharded** — 4 shards × 1 worker, work stealing on.
//!
//! Gates (asserted here; CI runs this binary and fails on any):
//!
//! 1. **Zero lost requests** in every run: admitted == served.
//!    Rejection at admission (bounded queues during the spike) is the
//!    only permitted loss mode.
//! 2. **Bitwise equality**: sampled multi-lane batch compositions from
//!    the sharded run — the first partial and the first full batch of
//!    every model — are re-executed for real through `infer_batch` and
//!    compared lane-by-lane against solo `infer_one` runs: at least 8
//!    batches, each of ≥ 2 lanes, covering ≥ 4 models.
//! 3. **No tail regression from sharding**: sharded all-class p99 must
//!    stay within 1.10× of the single-shard baseline (same total
//!    worker count).
//! 4. **Determinism**: replaying the same seed yields an identical
//!    summary, making the recorded JSON a meaningful CI baseline.
//! 5. **Trace integrity**: a [`TraceIndex`] records every request
//!    event of the sharded run; `verify()` must pass (every admitted
//!    seq has exactly one causally-ordered timeline ending in exactly
//!    one terminal event) and its aggregate counts must agree with the
//!    simulation's own bookkeeping — with steals actually observed.
//!    The per-request timelines export as `STORM_trace.json` (Chrome
//!    trace format) and the always-on flight recorder's black box as
//!    `STORM_flight.json`.
//! 6. **SLO burn-rate alerting**: an [`SloEngine`] with a pooled
//!    10 ms / 99 % objective watches metrics snapshots every 10 ms of
//!    virtual time. The overload spike **must** trip a fast-burn
//!    alert, and the steady phase before it must stay quiet — the
//!    alerting pipeline is regression-tested end to end, in CI, with
//!    zero wall-clock flakiness. Results land in `BENCH_serve.json`
//!    as the `"slo"` section.
//!
//! `--virtual-only` skips the wall-clock storm, whose latency figures
//! are noise on shared machines; CI runs it once that way, to check the
//! committed artifacts, and once in full, for the wall-clock storm's
//! zero-lost, bitwise and trace-integrity gates (its 2 × 2 threaded
//! server has a [`TraceIndex`] attached).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wino_obs::{validate_json, write_atomic, FlightRecorder, TraceIndex};
use wino_serve::{
    BatchConfig, MetricsSnapshot, ModelRegistry, Priority, ServeConfig, Server, ShardPoll,
    ShardSet, SloAlert, SloEngine, SloPolicy,
};
use wino_tensor::SplitMix64;

const VIRTUAL_REQUESTS: usize = 100_000;
const SYSTEM_REQUESTS: usize = 1_200;
const TRACE_SEED: u64 = 0x5702_2019;

/// SLO policy under test: 99 % of requests under 10 ms, pooled across
/// classes (effective threshold 16.384 ms after the log₂ bucket-edge
/// round-up — see `LatencyHistogram::count_over`).
const SLO_OBJECTIVE: Duration = Duration::from_millis(10);
const SLO_BUDGET: f64 = 0.01;
const SLO_FAST_WINDOW: Duration = Duration::from_millis(50);
const SLO_SLOW_WINDOW: Duration = Duration::from_millis(500);
/// Virtual-time cadence of SLO observations during the simulation.
const OBSERVE_PERIOD: Duration = Duration::from_millis(10);
/// Flight-recorder ring capacity per shard in the simulated storm.
const FLIGHT_CAPACITY: usize = 512;

/// One synthetic request of the storm trace.
struct StormItem {
    model: usize,
    priority: Priority,
    seed: u64,
    arrival: Duration,
}

fn priority_mix(r: u64) -> Priority {
    match r % 10 {
        0..=1 => Priority::High,
        2..=7 => Priority::Normal,
        _ => Priority::Low,
    }
}

/// A seeded, bursty, multi-tenant arrival trace in four phases:
/// steady → overload spike → tenant skew → cool-down.
fn build_storm(models: usize, requests: usize, rng: &mut SplitMix64) -> Vec<StormItem> {
    let mut at = Duration::ZERO;
    (0..requests)
        .map(|i| {
            let phase = i * 4 / requests.max(1);
            let gap_us = match phase {
                0 => 40 + rng.next_u64() % 80,  // steady: ~12.5k req/s
                1 => 4 + rng.next_u64() % 12,   // spike: ~6x the rate
                2 => 25 + rng.next_u64() % 50,  // skewed steady
                _ => 60 + rng.next_u64() % 120, // cool-down tail
            };
            at += Duration::from_micros(gap_us);
            let model = if phase == 2 && rng.next_u64() % 10 < 7 {
                0 // tenant skew: 70% of traffic hammers one model
            } else {
                (rng.next_u64() % models as u64) as usize
            };
            StormItem {
                model,
                priority: priority_mix(rng.next_u64()),
                seed: rng.next_u64() % 1_000_000,
                arrival: at,
            }
        })
        .collect()
}

/// Modeled service time of one layer at the current lane count: a
/// per-model base plus a mild per-lane increment (batching amortizes,
/// it does not come free). Purely deterministic — the simulation's
/// virtual clock never reads real time.
fn layer_dt(model: usize, lanes: usize) -> Duration {
    Duration::from_micros(18 + 4 * model as u64 + 3 * lanes as u64)
}

/// A batch composition captured for real re-execution: its lane seeds
/// in release order.
struct Sample {
    model: usize,
    seeds: Vec<u64>,
}

/// One simulated run: what the driver counted from `submit`'s return
/// values and its own event times, plus everything the shard set
/// booked.
struct SimOutcome {
    admitted: u64,
    rejected: u64,
    makespan: Duration,
    samples: Vec<Sample>,
    booked: MetricsSnapshot,
}

struct SimConfig {
    shards: usize,
    workers_per_shard: usize,
    steal: bool,
}

/// Observability side-car for one simulated run: a burn-rate engine
/// fed snapshots of the run's [`ShardSet`] metrics on the virtual
/// clock, plus the always-on per-shard flight recorder and the
/// request-timeline index, both attached to the set. The simulation's
/// *outcome* never depends on it — gate 4 replays without one and must
/// match byte for byte.
struct StormObs {
    engine: SloEngine,
    next_observe: Duration,
    alerts: Vec<SloAlert>,
    flight: Arc<FlightRecorder>,
    trace: Arc<TraceIndex>,
}

impl StormObs {
    fn new(shards: usize) -> StormObs {
        StormObs {
            engine: SloEngine::new(vec![SloPolicy::two_window(
                "storm-latency",
                None,
                SLO_OBJECTIVE,
                SLO_BUDGET,
                SLO_FAST_WINDOW,
                SLO_SLOW_WINDOW,
            )]),
            next_observe: OBSERVE_PERIOD,
            alerts: Vec::new(),
            flight: Arc::new(FlightRecorder::new(shards, FLIGHT_CAPACITY)),
            trace: Arc::new(TraceIndex::new()),
        }
    }
}

/// Discrete-event replay of `trace` against a real [`ShardSet`]:
/// virtual workers poll (and steal), and each released batch executes
/// every layer at its released lane count with modeled per-layer
/// service times. Arrivals are injected whenever a worker event pops,
/// in time order; an idle worker's next event is the next arrival.
fn simulate(
    trace: &[StormItem],
    caps: &[usize],
    layer_counts: &[usize],
    cfg: &SimConfig,
    mut obs: Option<&mut StormObs>,
) -> SimOutcome {
    let batch_cfg =
        BatchConfig { max_batch: 8, max_wait: Duration::from_micros(400), queue_capacity: 512 };
    let mut set: ShardSet<u64> = ShardSet::new(cfg.shards, caps.to_vec(), batch_cfg, cfg.steal);
    if let Some(o) = obs.as_deref_mut() {
        set = set.with_flight(Arc::clone(&o.flight)).with_trace(Arc::clone(&o.trace));
    }
    let mut arrivals = trace.iter().peekable();
    let (mut admitted, mut rejected, mut makespan) = (0, 0, Duration::ZERO);
    let mut samples = Vec::new();
    // Per model: whether a partial / a full multi-lane batch has been
    // sampled yet.
    let mut sampled = vec![[false; 2]; caps.len()];

    // The worker heap: (next event time, shard, worker id), earliest
    // first. A worker's event is either "free to poll" or "batch done".
    let mut heap: BinaryHeap<Reverse<(Duration, usize, usize)>> = (0..cfg.shards)
        .flat_map(|s| (0..cfg.workers_per_shard).map(move |w| Reverse((Duration::ZERO, s, w))))
        .collect();

    while let Some(Reverse((t, shard, worker))) = heap.pop() {
        // The heap pops events in time order, so `t` is monotone:
        // advance the SLO engine through every observation instant the
        // simulation just crossed.
        if let Some(o) = obs.as_deref_mut() {
            while t >= o.next_observe {
                let at = o.next_observe;
                let snapshot = set.snapshot(at);
                o.alerts.extend(o.engine.observe(at, &snapshot));
                o.next_observe += OBSERVE_PERIOD;
            }
        }
        while let Some(item) = arrivals.next_if(|a| a.arrival <= t) {
            match set.submit(item.model, item.priority, item.seed, item.arrival) {
                Ok(_) => admitted += 1,
                Err(_) => rejected += 1,
            }
        }
        match set.poll_at(shard, t) {
            ShardPoll::Ready { batch, from } => {
                let model = batch.model;
                let lanes = batch.requests;
                let t_end = t + layer_dt(model, lanes.len()) * layer_counts[model] as u32;
                set.complete(shard, from, model, &lanes, t, t_end);
                makespan = makespan.max(t_end);
                if lanes.len() >= 2 {
                    // The first partial and the first full multi-lane
                    // batch of every model, for real re-execution.
                    let full = usize::from(lanes.len() == caps[model]);
                    if !sampled[model][full] {
                        sampled[model][full] = true;
                        let seeds = lanes.iter().map(|r| r.payload).collect();
                        samples.push(Sample { model, seeds });
                    }
                }
                heap.push(Reverse((t_end, shard, worker)));
            }
            // Every queue this worker may look at is empty: it wakes at
            // the next arrival (always later than `t`: every arrival up
            // to `t` was just submitted), or retires once none is left.
            ShardPoll::Wait => {
                if let Some(next) = arrivals.peek() {
                    heap.push(Reverse((next.arrival, shard, worker)));
                }
            }
        }
    }
    assert!(set.is_empty(), "simulation ended with requests still queued");
    SimOutcome { admitted, rejected, makespan, samples, booked: set.snapshot(makespan) }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Renders the latency rows of a metrics snapshot — all classes
/// pooled, each class, each shard — as the tail of a JSON object.
fn latency_json(snap: &MetricsSnapshot) -> String {
    let all = snap.latency();
    let mut j = format!(
        "      \"all\": {{\"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"p999_ms\": {:.3}, \"mean_ms\": {:.3}}},\n",
        ms(all.quantile(0.5)),
        ms(all.quantile(0.99)),
        ms(all.quantile(0.999)),
        ms(all.mean())
    );
    j.push_str("      \"classes\": [");
    for (i, c) in snap.latency_by_class().iter().enumerate() {
        let _ = write!(
            j,
            "{}{{\"class\": \"{}\", \"completed\": {}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"p999_ms\": {:.3}}}",
            if i > 0 { ", " } else { "" },
            c.priority,
            c.completed,
            ms(c.p50),
            ms(c.p99),
            ms(c.p999)
        );
    }
    j.push_str("],\n      \"per_shard\": [");
    for (i, s) in snap.per_shard.iter().enumerate() {
        let _ = write!(
            j,
            "{}{{\"shard\": {}, \"batches\": {}, \"stolen\": {}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"p999_ms\": {:.3}}}",
            if i > 0 { ", " } else { "" },
            s.shard,
            s.batches,
            s.stolen,
            ms(s.p50),
            ms(s.p99),
            ms(s.p999)
        );
    }
    j.push(']');
    j
}

/// Serializes one run's outcome as a JSON object (also the determinism
/// fingerprint: two runs of the same seed must produce identical text).
fn outcome_json(out: &SimOutcome) -> String {
    let booked = &out.booked;
    format!(
        "{{\"admitted\": {}, \"rejected\": {}, \"served\": {}, \"batches\": {}, \"stolen\": {}, \"makespan_ms\": {:.3},\n{}}}",
        out.admitted,
        out.rejected,
        booked.total_completed(),
        booked.per_shard.iter().map(|s| s.batches).sum::<u64>(),
        booked.total_stolen(),
        ms(out.makespan),
        latency_json(booked)
    )
}

/// The wall-clock storm: a real threaded sharded server, real
/// convolutions, `SYSTEM_REQUESTS` requests.
fn system_storm(registry: ModelRegistry) -> String {
    let ids: Vec<_> = registry.entries().iter().map(|e| e.id().clone()).collect();
    let mut rng = SplitMix64::new(TRACE_SEED ^ 0xABCD);
    let trace = build_storm(ids.len(), SYSTEM_REQUESTS, &mut rng);
    let sample_direct: Vec<_> = trace
        .iter()
        .step_by(97)
        .map(|item| (item.model, item.seed, registry.entry(item.model).infer_one(item.seed)))
        .collect();
    let index = Arc::new(TraceIndex::new());
    let server = Server::start(
        registry,
        ServeConfig {
            shards: 2,
            workers: 2,
            steal: true,
            exec_threads_per_worker: Some(1),
            batch: BatchConfig {
                max_batch: 8,
                max_wait: Duration::from_micros(500),
                queue_capacity: SYSTEM_REQUESTS,
            },
            trace: Some(Arc::clone(&index)),
            ..ServeConfig::default()
        },
    );
    let start = Instant::now();
    let handles: Vec<_> = trace
        .iter()
        .map(|item| {
            let target = item.arrival;
            let now = start.elapsed();
            if target > now {
                std::thread::sleep(target - now);
            }
            let h = server
                .submit(&ids[item.model], item.priority, item.seed)
                .expect("queue sized for the trace; nothing refused");
            (item.model, item.seed, h)
        })
        .collect();
    let results: Vec<_> = handles
        .into_iter()
        .map(|(m, s, h)| (m, s, h.wait().expect("no faults injected")))
        .collect();
    let wall = start.elapsed();
    let snapshot = server.shutdown();

    // Gate 1 (system): zero lost.
    assert_eq!(snapshot.total_completed() as usize, SYSTEM_REQUESTS, "every request answered");
    assert_eq!(snapshot.total_rejected(), 0);
    assert_eq!(snapshot.total_failed(), 0);
    // Gate 2 (system): sampled bitwise equality through the real
    // sharded, stolen, batched path.
    for (model, seed, direct) in &sample_direct {
        let (_, _, served) = results
            .iter()
            .find(|(m, s, _)| m == model && s == seed)
            .expect("sampled request served");
        assert_eq!(&served.output, direct, "served output == solo run, bitwise");
    }
    // Gate 5 (system): the timelines written by real worker threads
    // verify, and their counts agree with the booked metrics.
    let stats = index.verify().unwrap_or_else(|e| panic!("system trace verification failed: {e}"));
    assert_eq!(stats.requests, SYSTEM_REQUESTS, "one timeline per admitted request");
    assert_eq!(stats.resolved as u64, snapshot.total_completed(), "every served lane traced");
    assert_eq!((stats.failed, stats.sheds), (0, 0));
    assert!(stats.steals as u64 >= snapshot.total_stolen(), "every stolen batch traced");
    assert_eq!(stats.steals > 0, snapshot.total_stolen() > 0, "steals traced iff booked");
    let rps = SYSTEM_REQUESTS as f64 / wall.as_secs_f64();
    println!(
        "system storm: {SYSTEM_REQUESTS} requests in {:.1} ms ({rps:.0} req/s, {} stolen)",
        ms(wall),
        snapshot.total_stolen()
    );
    print!("{snapshot}");

    format!(
        "{{\"requests\": {SYSTEM_REQUESTS}, \"shards\": 2, \"workers_per_shard\": 2, \"wall_ms\": {:.1}, \"throughput_rps\": {rps:.0}, \"stolen\": {},\n{}}}",
        ms(wall),
        snapshot.total_stolen(),
        latency_json(&snapshot)
    )
}

fn main() {
    let virtual_only = std::env::args().any(|a| a == "--virtual-only");
    let registry = ModelRegistry::standard(8, 1).expect("standard registry");
    let caps: Vec<usize> = registry.entries().iter().map(|e| e.max_batch()).collect();
    let layer_counts: Vec<usize> = registry.entries().iter().map(|e| e.layer_count()).collect();

    let mut rng = SplitMix64::new(TRACE_SEED);
    let trace = build_storm(caps.len(), VIRTUAL_REQUESTS, &mut rng);
    println!(
        "storm trace: {} requests over {:.1} ms of virtual time, {} models",
        trace.len(),
        ms(trace.last().expect("non-empty trace").arrival),
        caps.len()
    );

    // --- virtual-clock storms: baseline vs sharded, same trace ---
    let baseline_cfg = SimConfig { shards: 1, workers_per_shard: 4, steal: false };
    let sharded_cfg = SimConfig { shards: 4, workers_per_shard: 1, steal: true };
    let wall = Instant::now();
    let baseline = simulate(&trace, &caps, &layer_counts, &baseline_cfg, None);
    // The sharded run carries the full observability stack: a
    // TraceIndex collecting every request event, the per-shard flight
    // recorder, and the SLO burn-rate engine on the virtual clock. Only
    // this run's shard set has them attached — the replay below must
    // stay byte-identical without them (gate 4), proving the
    // instrumentation never steers the simulation.
    let mut storm_obs = StormObs::new(sharded_cfg.shards);
    let sharded = simulate(&trace, &caps, &layer_counts, &sharded_cfg, Some(&mut storm_obs));
    let index = &storm_obs.trace;
    println!("simulated 2 x {} requests in {:.1} ms wall", VIRTUAL_REQUESTS, ms(wall.elapsed()));
    println!(
        "baseline: served {}/{} (rejected {}), all-class p99 {:.3} ms",
        baseline.booked.total_completed(),
        baseline.admitted,
        baseline.rejected,
        ms(baseline.booked.latency().quantile(0.99))
    );
    println!(
        "sharded:  served {}/{} (rejected {}), all-class p99 {:.3} ms, {} stolen batches",
        sharded.booked.total_completed(),
        sharded.admitted,
        sharded.rejected,
        ms(sharded.booked.latency().quantile(0.99)),
        sharded.booked.total_stolen()
    );

    // Gate 1: zero admitted-but-unserved requests, in both runs.
    assert_eq!(baseline.admitted, baseline.booked.total_completed(), "baseline lost requests");
    assert_eq!(sharded.admitted, sharded.booked.total_completed(), "sharded run lost requests");

    // Gate 2: sampled multi-lane compositions re-executed for real,
    // bitwise against solo runs.
    let mut checked_lanes = 0usize;
    for sample in &sharded.samples {
        assert!(sample.seeds.len() >= 2, "sampled a single-lane batch");
        let entry = registry.entry(sample.model);
        for (&seed, output) in sample.seeds.iter().zip(entry.infer_batch(&sample.seeds)) {
            assert_eq!(
                output,
                entry.infer_one(seed),
                "lane {seed} of a sampled storm batch diverged from its solo run"
            );
            checked_lanes += 1;
        }
    }
    let mut sampled_models: Vec<usize> = sharded.samples.iter().map(|s| s.model).collect();
    sampled_models.sort_unstable();
    sampled_models.dedup();
    assert!(sharded.samples.len() >= 8, "only {} batches sampled", sharded.samples.len());
    assert!(sampled_models.len() >= 4, "samples cover only {} models", sampled_models.len());
    println!(
        "bitwise check: {} sampled batches over {} models, {checked_lanes} lanes == solo runs",
        sharded.samples.len(),
        sampled_models.len()
    );

    // Gate 3: sharding must not regress the tail vs the same worker
    // count behind one queue.
    let base_p99 = baseline.booked.latency().quantile(0.99);
    let shard_p99 = sharded.booked.latency().quantile(0.99);
    let ratio = shard_p99.as_secs_f64() / base_p99.as_secs_f64().max(1e-12);
    println!("p99 ratio sharded/baseline: {ratio:.3}");
    assert!(
        ratio <= 1.10,
        "sharded p99 ({:.3} ms) regressed over baseline ({:.3} ms) by {ratio:.3}x",
        ms(shard_p99),
        ms(base_p99)
    );

    // Gate 4: determinism — same seed, same summary, byte for byte.
    // The replay runs with no obs side-car (no trace, no flight), so a
    // match also proves the instrumentation is outcome-neutral.
    let replay = simulate(&trace, &caps, &layer_counts, &sharded_cfg, None);
    assert_eq!(
        outcome_json(&sharded),
        outcome_json(&replay),
        "storm replay diverged; the recorded baseline would be meaningless"
    );
    println!("determinism: replay summary identical");

    // Gate 5: trace integrity. Every admitted seq must reassemble into
    // a causally-valid timeline with exactly one terminal event, and
    // the index's aggregate view must agree with the simulation's own
    // counters.
    let stats = index.verify().unwrap_or_else(|e| panic!("request-trace verification failed: {e}"));
    assert_eq!(stats.requests as u64, sharded.admitted, "one timeline per admitted request");
    assert_eq!(
        stats.resolved as u64,
        sharded.booked.total_completed(),
        "every served lane traced Resolved"
    );
    assert_eq!(stats.failed, 0, "no faults injected, no Failed timelines");
    assert_eq!(stats.sheds, sharded.rejected, "every rejection traced as a shed");
    assert!(stats.steals > 0, "storm produced no stolen batches to trace");
    println!(
        "trace: {} requests, {} events; {} stolen, {} sheds — verified",
        stats.requests, stats.events, stats.steals, stats.sheds
    );

    // Trace artifacts: the per-request Chrome trace (a bounded sample)
    // and the flight recorder's end-of-storm black box.
    let chrome = index.chrome_trace_json(64);
    validate_json(&chrome).expect("chrome trace is valid JSON");
    write_atomic(Path::new("STORM_trace.json"), &chrome).expect("write STORM_trace.json");
    storm_obs
        .flight
        .dump_to(Path::new("STORM_flight.json"), "drain")
        .expect("write STORM_flight.json");
    println!("wrote STORM_trace.json (64-request sample) and STORM_flight.json (black box)");

    // Gate 6: the SLO engine must notice the overload spike — at least
    // one fast-burn alert at/after the spike's first arrival — and
    // must stay quiet through the steady phase before it.
    let spike_start = trace[VIRTUAL_REQUESTS / 4].arrival;
    for alert in &storm_obs.alerts {
        println!("  {alert}");
    }
    let early: Vec<&SloAlert> = storm_obs.alerts.iter().filter(|a| a.at < spike_start).collect();
    assert!(
        early.is_empty(),
        "SLO alert(s) fired during the steady phase (before {:.1} ms): {early:?}",
        ms(spike_start)
    );
    let fast_burns = storm_obs.alerts.iter().filter(|a| a.window == "fast").count();
    assert!(
        fast_burns > 0,
        "the overload spike (from {:.1} ms) fired no fast-burn alert",
        ms(spike_start)
    );
    println!(
        "slo: {} alert(s), {fast_burns} fast-burn, none before the {:.1} ms spike",
        storm_obs.alerts.len(),
        ms(spike_start)
    );

    // --- wall-clock storm through the real threaded server ---
    let system = if virtual_only {
        println!("--virtual-only: skipping the wall-clock storm");
        "null".to_owned()
    } else {
        system_storm(registry)
    };

    // --- BENCH_serve.json, section "storm" ---
    let mut json = String::new();
    json.push_str("{\n    \"bench\": \"serve_storm\",\n");
    let _ = write!(
        json,
        "    \"trace_seed\": {TRACE_SEED},\n    \"virtual_requests\": {VIRTUAL_REQUESTS},\n    \"p99_ratio_sharded_over_baseline\": {ratio:.3},\n"
    );
    let _ = writeln!(
        json,
        "    \"bitwise\": {{\"batches\": {}, \"models\": {}, \"lanes\": {checked_lanes}}},",
        sharded.samples.len(),
        sampled_models.len()
    );
    let _ = writeln!(json, "    \"baseline\": {},", outcome_json(&baseline));
    let _ = writeln!(json, "    \"sharded\": {},", outcome_json(&sharded));
    let _ = write!(json, "    \"system\": {system}\n  }}");

    // --- BENCH_serve.json, section "slo" ---
    let mut slo_json = String::new();
    slo_json.push_str("{\n    \"bench\": \"serve_storm\",\n");
    let _ = writeln!(
        slo_json,
        "    \"policy\": {{\"name\": \"storm-latency\", \"objective_ms\": {:.1}, \"error_budget\": {SLO_BUDGET}, \"windows\": [{{\"label\": \"fast\", \"window_ms\": {:.0}, \"threshold\": 14.0}}, {{\"label\": \"slow\", \"window_ms\": {:.0}, \"threshold\": 6.0}}]}},",
        SLO_OBJECTIVE.as_secs_f64() * 1e3,
        SLO_FAST_WINDOW.as_secs_f64() * 1e3,
        SLO_SLOW_WINDOW.as_secs_f64() * 1e3
    );
    let _ = writeln!(
        slo_json,
        "    \"observe_period_ms\": {:.0}, \"spike_start_ms\": {:.3},",
        OBSERVE_PERIOD.as_secs_f64() * 1e3,
        ms(spike_start)
    );
    let _ = writeln!(
        slo_json,
        "    \"trace\": {{\"requests\": {}, \"events\": {}, \"steals\": {}, \"sheds\": {}}},",
        stats.requests, stats.events, stats.steals, stats.sheds
    );
    slo_json.push_str("    \"alerts\": [");
    for (i, alert) in storm_obs.alerts.iter().enumerate() {
        let _ = write!(
            slo_json,
            "{}{{\"window\": \"{}\", \"at_ms\": {:.3}, \"burn_rate\": {:.1}}}",
            if i > 0 { ", " } else { "" },
            alert.window,
            ms(alert.at),
            alert.burn_rate
        );
    }
    slo_json.push_str("]\n  }");

    let doc = format!("{{\n  \"storm\": {json},\n  \"slo\": {slo_json}\n}}\n");
    validate_json(&doc).expect("BENCH_serve.json is valid JSON");
    write_atomic(Path::new("BENCH_serve.json"), &doc).expect("write BENCH_serve.json");
    println!("wrote BENCH_serve.json (storm + slo)");
}
