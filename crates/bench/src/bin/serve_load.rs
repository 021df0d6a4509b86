//! Serving study: open-loop load against the `wino-serve` subsystem,
//! emitted as `BENCH_serve.json` (now including per-priority-class
//! queue-wait quantiles, so the anti-starvation claim is measured,
//! not just proptested) and merged into `BENCH_obs.json` (section
//! `"serve"`) as `wino-obs` metric families. The run executes with
//! tracing **enabled** and a ring-buffer [`TraceRecorder`] attached,
//! capturing the per-request lifecycle intervals (admitted → queued →
//! batch-wait → exec → completed) the serve instrumentation emits.
//!
//! A deterministic synthetic trace (seeded `SplitMix64`) of
//! single-image requests — all eight registry variants (four models ×
//! {`f32`, `Q24.8`}), a 20/60/20 high/normal/low priority mix, and
//! randomized inter-arrival gaps — is replayed twice:
//!
//! * **served** — open loop through a [`Server`]: requests are
//!   submitted at their trace arrival times and coalesced by the
//!   dynamic batcher into batches executed through the registry's
//!   cached kernel banks;
//! * **serial** — the pre-serving workflow: the same requests, one
//!   image at a time in trace order, preparing a fresh `PreparedPlan`
//!   for every layer call, which regenerates transforms and
//!   re-quantizes and re-transforms the kernel bank each time.
//!
//! Acceptance (asserted here and recorded in the JSON): the serving
//! path sustains **≥ 2×** the serial throughput, rejects nothing
//! (bounded queues sized for the trace — every admitted request is
//! answered), and a sampled subset of responses is **bitwise equal**
//! to direct solo execution.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wino_obs::{update_artifact, MetricFamily, MetricKind, ObsReport, TraceRecorder};
use wino_serve::{
    BatchConfig, InferResult, ModelRegistry, Priority, ResponseHandle, ServeConfig, Server,
};
use wino_tensor::SplitMix64;

/// One synthetic request of the trace.
struct TraceItem {
    model: usize,
    priority: Priority,
    seed: u64,
    arrival: Duration,
}

fn build_trace(registry_len: usize, requests: usize, rng: &mut SplitMix64) -> Vec<TraceItem> {
    let mut at = Duration::ZERO;
    (0..requests)
        .map(|_| {
            // Mixed arrival rates: bursty 20–180 µs gaps — brisk enough
            // that the server, not the trace, is the bottleneck.
            at += Duration::from_micros(20 + rng.next_u64() % 160);
            let p = rng.next_u64() % 10;
            TraceItem {
                model: (rng.next_u64() % registry_len as u64) as usize,
                priority: match p {
                    0..=1 => Priority::High,
                    2..=7 => Priority::Normal,
                    _ => Priority::Low,
                },
                seed: rng.next_u64() % 100_000,
                arrival: at,
            }
        })
        .collect()
}

/// The pre-serving baseline: one image at a time, no kernel-bank
/// caching — every layer call prepares its plan from scratch, so it
/// regenerates transforms and re-quantizes and re-transforms the bank.
fn run_serial(registry: &ModelRegistry, trace: &[TraceItem]) -> Duration {
    let start = Instant::now();
    for item in trace {
        let entry = registry.entry(item.model);
        let exec = entry.executor();
        for layer in 0..entry.layer_count() {
            let input = entry.request_input(layer, item.seed);
            let plan = &exec.schedule().plans()[layer];
            let precision = exec.schedule().precision(layer);
            let prepared = wino_exec::PreparedPlan::new(plan, precision, exec.kernels(layer))
                .expect("validated plan prepares");
            let _ = prepared.run(&input, exec.config().threads);
        }
    }
    start.elapsed()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() {
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // The baseline is a *serial* loop (one image at a time, one
    // thread); the server gets the machine's parallelism through its
    // worker pool instead, so per-call exec threads stay at 1.
    let exec_threads = 1;
    let workers = hw.clamp(1, 4);
    let requests = 240;
    let max_batch = 8;
    let max_wait = Duration::from_micros(500);

    let registry = ModelRegistry::standard(max_batch, exec_threads).expect("standard registry");
    let mut rng = SplitMix64::new(0x5E4E_2019);
    let trace = build_trace(registry.len(), requests, &mut rng);

    // --- serial baseline (one image at a time, no caching) ---
    let serial_wall = run_serial(&registry, &trace);
    let serial_rps = requests as f64 / serial_wall.as_secs_f64();
    println!(
        "serial baseline: {requests} requests in {:.1} ms ({serial_rps:.0} req/s)",
        ms(serial_wall)
    );

    // --- served (dynamic batching over cached kernel banks) ---
    let config = ServeConfig {
        workers,
        exec_threads_per_worker: None,
        batch: BatchConfig {
            max_batch,
            max_wait,
            // Sized for the whole trace: nothing is ever refused, so
            // "admitted == completed" is the no-drop guarantee.
            queue_capacity: requests,
        },
        slo: None,
        ..ServeConfig::default()
    };
    let ids: Vec<_> = registry.entries().iter().map(|e| e.id().clone()).collect();
    let sample_direct: Vec<_> = trace
        .iter()
        .step_by(29)
        .map(|item| (item.model, item.seed, registry.entry(item.model).infer_one(item.seed)))
        .collect();

    // Trace the request lifecycle (admitted → queued → batch-wait →
    // exec → completed) through the serve instrumentation: five
    // interval records per request into a bounded ring, cheap enough
    // to leave on for the measured run.
    // Sized for ~5 lifecycle intervals per request plus the exec
    // phase spans the workers emit while tracing is on.
    let tracer = Arc::new(TraceRecorder::new(24 * requests));
    wino_obs::set_recorder(tracer.clone());
    wino_obs::enable();

    let server = Server::start(registry, config);
    let start = Instant::now();
    let mut handles: Vec<(usize, u64, ResponseHandle)> = Vec::with_capacity(trace.len());
    for item in &trace {
        // Open loop: submit at the trace's arrival time, never waiting
        // for responses.
        let target = item.arrival;
        let now = start.elapsed();
        if target > now {
            std::thread::sleep(target - now);
        }
        let handle = server
            .submit(&ids[item.model], item.priority, item.seed)
            .expect("queue sized for the trace; nothing is refused");
        handles.push((item.model, item.seed, handle));
    }
    let results: Vec<(usize, InferResult)> = handles
        .into_iter()
        .map(|(m, _, h)| (m, h.wait().expect("no faults injected; every request served")))
        .collect();
    let serve_wall = start.elapsed();
    let snapshot = server.shutdown();
    wino_obs::disable();
    wino_obs::clear_recorder();
    let serve_rps = results.len() as f64 / serve_wall.as_secs_f64();

    println!(
        "served: {} requests in {:.1} ms ({serve_rps:.0} req/s)",
        results.len(),
        ms(serve_wall)
    );
    print!("{snapshot}");

    // --- invariants the study rests on ---
    assert_eq!(snapshot.total_completed() as usize, requests, "every admitted request answered");
    assert_eq!(snapshot.total_rejected(), 0, "queue was sized for the trace");
    for (model, seed, direct) in &sample_direct {
        let (_, served) = results
            .iter()
            .find(|(m, r)| m == model && r.seed == *seed)
            .expect("sampled request served");
        assert_eq!(&served.output, direct, "served output == direct solo run, bitwise");
    }
    let speedup = serve_rps / serial_rps;
    println!("speedup over serial one-image-at-a-time: {speedup:.2}x");
    assert!(speedup >= 2.0, "serving must sustain >= 2x serial throughput, got {speedup:.2}x");

    // --- BENCH_serve.json ---
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"serve_load\",\n");
    json.push_str(&format!(
        "  \"requests\": {requests},\n  \"workers\": {workers},\n  \"exec_threads\": {exec_threads},\n"
    ));
    json.push_str(&format!(
        "  \"max_batch\": {max_batch},\n  \"max_wait_us\": {},\n",
        max_wait.as_micros()
    ));
    json.push_str(&format!(
        "  \"serial\": {{\"wall_ms\": {:.2}, \"throughput_rps\": {:.1}}},\n",
        ms(serial_wall),
        serial_rps
    ));
    json.push_str(&format!(
        "  \"serve\": {{\"wall_ms\": {:.2}, \"throughput_rps\": {:.1}, \"rejected\": {}, \"per_model\": [\n",
        ms(serve_wall),
        serve_rps,
        snapshot.total_rejected()
    ));
    for (i, m) in snapshot.per_model.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"model\": \"{}\", \"completed\": {}, \"mean_batch\": {:.2}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}}}{}\n",
            m.model,
            m.completed,
            m.mean_batch,
            ms(m.p50),
            ms(m.p95),
            ms(m.p99),
            if i + 1 < snapshot.per_model.len() { "," } else { "" }
        ));
    }
    // Per-priority-class queue waits, measured by the serve
    // instrumentation on every executed batch — the anti-starvation
    // claim as numbers, not just a property test: higher classes must
    // show the shorter waits under the same load.
    json.push_str("  ]},\n  \"queue_wait_by_class\": [\n");
    let classes: Vec<_> = snapshot.queue_wait_by_class.iter().filter(|c| c.completed > 0).collect();
    for (i, c) in classes.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"class\": \"{}\", \"completed\": {}, \"mean_ms\": {:.3}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}}}{}\n",
            c.priority,
            c.completed,
            ms(c.mean),
            ms(c.p50),
            ms(c.p95),
            ms(c.p99),
            if i + 1 < classes.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!("  ],\n  \"speedup\": {speedup:.2}\n}}"));
    // `BENCH_serve.json` is shared with `serve_storm` (section
    // "storm"); merge instead of clobbering.
    update_artifact(Path::new("BENCH_serve.json"), "load", &json).expect("update BENCH_serve.json");
    println!("merged load section into BENCH_serve.json");

    // --- observability exposition: the serve section of BENCH_obs.json ---
    let mut metrics = snapshot.to_metric_families();
    metrics.push(MetricFamily::scalar(
        "wino_serve_speedup_over_serial",
        "open-loop serving throughput over the serial one-image-at-a-time baseline",
        MetricKind::Gauge,
        speedup,
    ));
    metrics.push(MetricFamily::scalar(
        "wino_serve_trace_events_total",
        "trace records captured during the run (request lifecycle intervals plus exec phase spans)",
        MetricKind::Counter,
        tracer.len() as f64,
    ));
    metrics.push(MetricFamily::scalar(
        "wino_serve_trace_events_dropped_total",
        "trace records dropped by the bounded ring buffer",
        MetricKind::Counter,
        tracer.dropped() as f64,
    ));
    let report = ObsReport { metrics, profile: None };
    println!("\n{}", report.to_prometheus());
    update_artifact(Path::new("BENCH_obs.json"), "serve", &report.to_json())
        .expect("update BENCH_obs.json");
    println!(
        "merged serve section into BENCH_obs.json ({} trace records, {} dropped)",
        tracer.len(),
        tracer.dropped()
    );
}
