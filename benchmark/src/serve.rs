//! `serve_steady` and `serve_burst`: a real threaded `Server` fed by one
//! generator thread (this one), open loop on a seeded schedule and
//! closed loop with a fixed number of requests outstanding.

use crate::loadgen::{self, BurstShape, Request};
use crate::metrics::Report;
use crate::trace::Trace;
use crate::{oracle, stats, sys, Args};
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use wino_exec::Precision;
use wino_serve::{
    AdmissionError, BatchConfig, InferOutput, InferResult, ModelId, ModelRegistry, Priority,
    RequestError, ResponseHandle, ServeConfig, Server,
};
use wino_tensor::SplitMix64;

/// Which traffic shape to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    Steady,
    Burst,
}

/// The reference open-loop rate of `serve_steady`, and its second rate.
const STEADY_RATE: f64 = 500.0;
const SECOND_RATE: f64 = 1_000.0;
/// Requests kept outstanding in the closed-loop phase.
const OUTSTANDING: usize = 32;
/// A served request counts towards goodput when it resolves this soon
/// after its due time.
const GOODPUT_LIMIT_MS: f64 = 100.0;
/// One served request in this many is kept and checked.
const SAMPLE_EVERY: u64 = 97;
const SECOND_NS: u64 = 1_000_000_000;
/// Below this gap the generator spins instead of yielding.
const SPIN_NS: u64 = 100_000;
/// Generator p99 lateness above which a run's latencies are unresolved.
const LATE_LIMIT_MS: f64 = 2.0;

/// A served request's timings; `done_ns` is on the phase's clock.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Served {
    queue_wait_ns: u64,
    latency_ns: u64,
    done_ns: u64,
    batch: usize,
}

/// What became of a request.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fate {
    Pending,
    Served(Served),
    RefusedQueueFull,
    RefusedSlo,
    RefusedOther,
    Errored,
}

/// One request as the generator saw it; times are on the phase's clock.
#[derive(Debug, Clone, Copy)]
struct Outcome {
    req: Request,
    sent_ns: u64,
    /// Time spent inside `Server::submit`.
    submit_ns: u64,
    fate: Fate,
}

/// One traffic phase: its outcomes and where its clock starts.
struct Phase {
    epoch: Instant,
    outcomes: Vec<Outcome>,
}

impl Phase {
    /// The served requests with their timings.
    fn served(&self) -> impl Iterator<Item = (&Outcome, Served)> {
        self.outcomes.iter().filter_map(|o| match o.fate {
            Fate::Served(served) => Some((o, served)),
            _ => None,
        })
    }

    /// `(due_ns, ms from due time to resolution)` of the served requests
    /// passing `keep`.
    fn latencies(&self, keep: impl Fn(&Outcome) -> bool) -> Vec<(u64, f64)> {
        self.served()
            .filter(|(o, _)| keep(o))
            .map(|(o, s)| (o.req.due_ns, s.done_ns.saturating_sub(o.req.due_ns) as f64 / 1e6))
            .collect()
    }

    /// How late the generator sent: `(p99, max)` in ms.
    fn lateness_ms(&self) -> (f64, f64) {
        let late: Vec<u64> = self.outcomes.iter().map(|o| o.sent_ns - o.req.due_ns).collect();
        loadgen::lateness_ms(&late)
    }
}

/// Request accounting over one or more phases.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    sent: u64,
    served: u64,
    refused_queue_full: u64,
    refused_slo: u64,
    refused_other: u64,
    errored: u64,
}

impl Tally {
    fn add(&mut self, phase: &Phase) {
        for o in &phase.outcomes {
            self.sent += 1;
            match o.fate {
                Fate::Served(_) => self.served += 1,
                Fate::RefusedQueueFull => self.refused_queue_full += 1,
                Fate::RefusedSlo => self.refused_slo += 1,
                Fate::RefusedOther => self.refused_other += 1,
                // A request still pending after its phase was lost.
                Fate::Errored | Fate::Pending => self.errored += 1,
            }
        }
    }
}

/// A running server plus what the generator keeps beside it.
struct Rig {
    server: Server,
    /// A copy of the roster for checking outputs after shutdown.
    registry: ModelRegistry,
    ids: Vec<ModelId>,
    /// Served outputs kept for checking: `(model, seed, output)`.
    samples: Vec<(usize, u64, InferOutput)>,
    served: u64,
}

impl Rig {
    fn start(traffic: Traffic, workers: usize) -> Rig {
        let registry = ModelRegistry::standard(8, 1).expect("the standard roster lowers");
        let queue_capacity = match traffic {
            Traffic::Steady => 256,
            Traffic::Burst => 128,
        };
        let config = ServeConfig {
            shards: 1,
            workers,
            exec_threads_per_worker: Some(1),
            batch: BatchConfig {
                max_batch: 8,
                max_wait: Duration::from_micros(500),
                queue_capacity,
            },
            slo: None,
            ..ServeConfig::default()
        };
        let ids = registry.entries().iter().map(|e| e.id().clone()).collect();
        let server = Server::start(registry.clone(), config);
        Rig { server, registry, ids, samples: Vec::new(), served: 0 }
    }

    fn submit(&self, req: &Request) -> Result<ResponseHandle, Fate> {
        self.server.submit(&self.ids[req.model], req.priority, req.seed).map_err(|e| match e {
            AdmissionError::QueueFull { .. } => Fate::RefusedQueueFull,
            AdmissionError::SloUnattainable { .. } => Fate::RefusedSlo,
            AdmissionError::UnknownModel(_) | AdmissionError::ShuttingDown => Fate::RefusedOther,
        })
    }

    /// Books a resolution. `done_ns` is when it was observed, or `None`
    /// to derive it from the server's own latency figure.
    fn settle(
        &mut self,
        outcome: &mut Outcome,
        result: Result<InferResult, RequestError>,
        done_ns: Option<u64>,
    ) {
        outcome.fate = match result {
            Ok(r) => {
                let latency_ns = r.latency.as_nanos() as u64;
                self.served += 1;
                if self.served.is_multiple_of(SAMPLE_EVERY) {
                    self.samples.push((outcome.req.model, outcome.req.seed, r.output));
                }
                Fate::Served(Served {
                    queue_wait_ns: r.queue_wait.as_nanos() as u64,
                    latency_ns,
                    done_ns: done_ns.unwrap_or(outcome.sent_ns + latency_ns),
                    batch: r.batch_size,
                })
            }
            Err(_) => Fate::Errored,
        };
    }

    /// Open loop: sends each request when it is due whatever the server
    /// is doing, settling finished requests while idle.
    fn open_loop(&mut self, schedule: &[Request]) -> Phase {
        let epoch = Instant::now();
        let now_ns = || epoch.elapsed().as_nanos() as u64;
        let mut outcomes: Vec<Outcome> = Vec::with_capacity(schedule.len());
        let mut pending: VecDeque<(usize, ResponseHandle)> = VecDeque::with_capacity(1024);
        for req in schedule {
            loop {
                let now = now_ns();
                if now >= req.due_ns {
                    break;
                }
                if req.due_ns - now <= SPIN_NS {
                    std::hint::spin_loop();
                    continue;
                }
                match pending.front().and_then(|(_, h)| h.try_take()) {
                    Some(result) => {
                        let (index, _) = pending.pop_front().expect("front was just read");
                        self.settle(&mut outcomes[index], result, None);
                    }
                    None => std::thread::yield_now(),
                }
            }
            let sent_ns = now_ns();
            let admitted = self.submit(req);
            let submit_ns = now_ns() - sent_ns;
            let mut outcome = Outcome { req: *req, sent_ns, submit_ns, fate: Fate::Pending };
            match admitted {
                Ok(handle) => pending.push_back((outcomes.len(), handle)),
                Err(fate) => outcome.fate = fate,
            }
            outcomes.push(outcome);
        }
        for (index, handle) in pending {
            let result = handle.wait();
            self.settle(&mut outcomes[index], result, None);
        }
        Phase { epoch, outcomes }
    }

    /// Closed loop: keeps `OUTSTANDING` requests in flight from this one
    /// thread, sending the next only when the oldest resolves.
    fn closed_loop(&mut self, rng: &mut SplitMix64, duration: Duration) -> Phase {
        let epoch = Instant::now();
        let now_ns = || epoch.elapsed().as_nanos() as u64;
        let mut outcomes: Vec<Outcome> = Vec::with_capacity(1 << 16);
        let mut pending: VecDeque<(usize, ResponseHandle)> = VecDeque::with_capacity(OUTSTANDING);
        loop {
            let sending = epoch.elapsed() < duration;
            while sending && pending.len() < OUTSTANDING {
                let sent_ns = now_ns();
                let req = loadgen::draw_request(rng, self.ids.len(), sent_ns);
                let admitted = self.submit(&req);
                let submit_ns = now_ns() - sent_ns;
                let mut outcome = Outcome { req, sent_ns, submit_ns, fate: Fate::Pending };
                match admitted {
                    Ok(handle) => pending.push_back((outcomes.len(), handle)),
                    Err(fate) => outcome.fate = fate,
                }
                outcomes.push(outcome);
            }
            let Some((index, handle)) = pending.pop_front() else { break };
            let result = handle.wait();
            self.settle(&mut outcomes[index], result, Some(now_ns()));
        }
        Phase { epoch, outcomes }
    }
}

/// Completions per second in every one-second window of a closed-loop
/// phase, the windows starting a quarter of a second apart.
fn completions_per_s(phase: &Phase, seconds: f64) -> Vec<f64> {
    let done: Vec<(u64, f64)> = phase.served().map(|(_, s)| (s.done_ns, 1.0)).collect();
    stats::windows_by_key(&done, (0, (seconds * 1e9) as u64), SECOND_NS, SECOND_NS / 4)
        .iter()
        .map(|w| w.len() as f64)
        .collect()
}

/// Per burst cycle: the burst's requests over the time from the burst's
/// start until the last of them resolved — the rate at which the server
/// works through a backlog of full batches — and that time past the
/// burst's end in ms.
fn burst_drains(phase: &Phase, cycles: u64, shape: BurstShape) -> Vec<(f64, f64)> {
    (0..cycles)
        .filter_map(|cycle| {
            let start = shape.burst_start_ns(0, cycle);
            let end = start + shape.burst_ns;
            let done: Vec<u64> = phase
                .served()
                .filter(|(o, _)| (start..end).contains(&o.req.due_ns))
                .map(|(_, s)| s.done_ns)
                .collect();
            let last = *done.iter().max()?;
            let rate = done.len() as f64 / (last.saturating_sub(start).max(1) as f64 / 1e9);
            Some((rate, last.saturating_sub(end) as f64 / 1e6))
        })
        .collect()
}

/// Prints a phase's request accounting and adds it to `total`.
fn account(name: &str, open: bool, phase: &Phase, total: &mut Tally) {
    let mut tally = Tally::default();
    tally.add(phase);
    total.add(phase);
    let (late_p99, late_max) = phase.lateness_ms();
    println!(
        "phase {name} ({}): sent {} served {} refused {} errored {}; generator late p99 {late_p99:.3} ms max {late_max:.3} ms",
        if open { "open loop" } else { "closed loop" },
        tally.sent,
        tally.served,
        tally.refused_queue_full + tally.refused_slo + tally.refused_other,
        tally.errored,
    );
    if open && late_p99 > LATE_LIMIT_MS {
        println!("UNRESOLVED phase {name}: generator p99 lateness {late_p99:.3} ms exceeds {LATE_LIMIT_MS} ms");
    }
}

/// What checking the kept outputs found.
#[derive(Debug, Default)]
struct SampleCheck {
    wrong: u64,
    /// Worst deviation from the oracle on float layers (enforced).
    float_err: f64,
    /// Worst deviation on fixed-point layers (reported, see below).
    fixed_err: f64,
}

/// Checks the kept outputs: each must equal `infer_one` of the same seed
/// bitwise (the batching contract), and every float layer must be
/// within tolerance of the benchmark's own oracle.
///
/// Fixed-point layers are measured but not enforced here: the standard
/// roster's `-q8` variants run `F(4x4)` in Q24.8, whose outputs deviate
/// from the direct sum by 3 to 10 even at C <= 4 (a finding of this
/// oracle, recorded in the README), so enforcing a tolerance would fail
/// half of all requests at the seed commit.
fn check_samples(registry: &ModelRegistry, samples: &[(usize, u64, InferOutput)]) -> SampleCheck {
    let mut check = SampleCheck::default();
    for (model, seed, output) in samples {
        let entry = registry.entry(*model);
        let mut problem =
            (entry.infer_one(*seed) != *output).then(|| "differs from infer_one".to_owned());
        let exec = entry.executor();
        for (i, layer) in exec.workload().layers().iter().enumerate() {
            let Some(got) = output.layers.get(i) else {
                problem = Some(format!("has no output for layer {}", layer.name));
                break;
            };
            let input = entry.request_input(i, *seed);
            let err =
                oracle::max_abs_err(&input, exec.kernels(i), &layer.shape, got, seed ^ i as u64);
            match (err, exec.schedule().precision(i)) {
                (Ok(err), Precision::Fixed { .. }) => check.fixed_err = check.fixed_err.max(err),
                (Ok(err), Precision::Float) if err <= oracle::FLOAT_TOLERANCE => {
                    check.float_err = check.float_err.max(err);
                }
                (Ok(err), Precision::Float) => {
                    problem = Some(format!(
                        "{}: |err| {err:.3e} exceeds {:.0e}",
                        layer.name,
                        oracle::FLOAT_TOLERANCE
                    ));
                }
                (Err(e), _) => problem = Some(format!("{}: {e}", layer.name)),
            }
        }
        if let Some(problem) = problem {
            check.wrong += 1;
            if check.wrong <= 5 {
                println!("FAILED request ({}, seed {seed}) {problem}", entry.id());
            }
        }
    }
    check
}

/// Replays the served `(model, seed)` multiset through `infer_batch` in
/// chunks of the observed mean batch size; milliseconds per request.
fn exec_replay_ms(registry: &ModelRegistry, phase: &Phase, batch: usize, trace: &mut Trace) -> f64 {
    let replay = trace.intern("serve.exec_replay");
    let mut by_model: Vec<Vec<u64>> = vec![Vec::new(); registry.len()];
    // Enough requests for a steady figure without replaying the run.
    for (o, _) in phase.served().take(3_000) {
        by_model[o.req.model].push(o.req.seed);
    }
    let requests: usize = by_model.iter().map(Vec::len).sum();
    let start = Instant::now();
    for (model, seeds) in by_model.iter().enumerate() {
        for chunk in seeds.chunks(batch.clamp(1, registry.entry(model).max_batch())) {
            let at = trace.now_ns();
            std::hint::black_box(registry.entry(model).infer_batch(chunk));
            trace.record(replay, at, trace.now_ns(), None, model as u64);
        }
    }
    start.elapsed().as_secs_f64() * 1e3 / requests.max(1) as f64
}

/// Writes a phase's requests into the trace as spans on its clock:
/// `request` = due → resolved, holding `gen.late`, `serve.queue_wait`
/// (which holds the `serve.submit` call) and `serve.service`.
fn record_spans(trace: &mut Trace, phase: &Phase, first_op: u64) {
    let [request, late, queue, submit, service] =
        ["request", "gen.late", "serve.queue_wait", "serve.submit", "serve.service"]
            .map(|n| trace.intern(n));
    let base = trace.ns_at(phase.epoch);
    for (i, o) in phase.outcomes.iter().enumerate() {
        let Fate::Served(Served { queue_wait_ns, done_ns, .. }) = o.fate else { continue };
        let op = first_op + i as u64;
        let (due, sent) = (base + o.req.due_ns, base + o.sent_ns);
        let parent = trace.record(request, due, base + done_ns.max(o.sent_ns), None, op);
        trace.record(late, due, sent, Some(parent), op);
        let q = trace.record(queue, sent, sent + queue_wait_ns, Some(parent), op);
        trace.record(submit, sent, sent + o.submit_ns.min(queue_wait_ns), Some(q), op);
        trace.record(service, sent + queue_wait_ns, base + done_ns, Some(parent), op);
    }
}

/// Runs one serving workload and fills `report`.
pub fn run(traffic: Traffic, args: &Args, report: &mut Report, trace: &mut Trace) {
    let workers = sys::thread_budget().saturating_sub(1).max(1);
    let s = args.seconds;
    let shape = BurstShape::STANDARD;
    // Phase lengths. An untraced run spends everything on the phases the
    // end-to-end metrics come from; a traced run adds the second rate
    // and splits the closed loop into a plain and a counted half.
    let (main_s, second_s, closed_s) = match (traffic, args.trace) {
        (Traffic::Steady, false) => ((s * 0.6 / 2.0).floor() * 2.0, 0.0, s * 0.4),
        (Traffic::Steady, true) => {
            ((s * 0.3 / 2.0).floor() * 2.0, (s * 0.2 / 2.0).floor() * 2.0, s * 0.2)
        }
        (Traffic::Burst, false) => ((s / 2.0).floor() * 2.0, 0.0, 0.0),
        (Traffic::Burst, true) => ((s * 0.5 / 2.0).floor() * 2.0, 0.0, s * 0.2),
    };
    let main_s = main_s.max(2.0);
    let ns = |seconds: f64| (seconds * 1e9) as u64;
    let build_schedules = |models: usize| {
        let mut rng = SplitMix64::new(args.seed);
        let (mut main, mut second) = (Vec::new(), Vec::new());
        match traffic {
            Traffic::Steady => {
                loadgen::poisson(&mut rng, models, 0, ns(main_s), STEADY_RATE, &mut main)
            }
            Traffic::Burst => loadgen::bursts(&mut rng, models, 0, main_s as u64, shape, &mut main),
        }
        loadgen::poisson(&mut rng, models, 0, ns(second_s), SECOND_RATE, &mut second);
        (main, second, rng)
    };

    let ((mut rig, startup_s, (main_schedule, second_schedule, mut rng)), setup_s) =
        crate::fastest_setup(
            || {
                let start = Instant::now();
                let rig = Rig::start(traffic, workers);
                let startup_s = start.elapsed().as_secs_f64();
                let schedules = build_schedules(rig.ids.len());
                (rig, startup_s, schedules)
            },
            |(rig, ..)| drop(rig.server.shutdown()),
        );
    report.set("setup_s", setup_s);

    // Unmeasured warm-up: first-touch costs stay out of the windows.
    rig.closed_loop(&mut rng, Duration::from_millis(300));
    rig.samples.clear();

    // Allocations are counted (traced runs only) over the open-loop
    // phases and over the second half of the closed loop.
    let before = sys::allocation_counters();
    sys::count_allocations(args.trace);
    let main = rig.open_loop(&main_schedule);
    let second = (second_s > 0.0).then(|| rig.open_loop(&second_schedule));
    sys::count_allocations(false);
    let after = sys::allocation_counters();
    let plain_s = if args.trace { closed_s / 2.0 } else { closed_s };
    let closed_plain =
        (closed_s > 0.0).then(|| rig.closed_loop(&mut rng, Duration::from_secs_f64(plain_s)));
    sys::count_allocations(args.trace);
    let closed_counted = (args.trace && closed_s > 0.0)
        .then(|| rig.closed_loop(&mut rng, Duration::from_secs_f64(closed_s - plain_s)));
    sys::count_allocations(false);

    let Rig { server, registry, samples, .. } = rig;
    let shutdown_start = Instant::now();
    let snapshot = server.shutdown();
    let shutdown_s = shutdown_start.elapsed().as_secs_f64();

    // Accounting and correctness.
    let mut tally = Tally::default();
    account("main", true, &main, &mut tally);
    for (name, open, phase) in [
        ("second-rate", true, &second),
        ("closed", false, &closed_plain),
        ("closed-counted", false, &closed_counted),
    ] {
        if let Some(phase) = phase {
            account(name, open, phase, &mut tally);
        }
    }
    let check = check_samples(&registry, &samples);
    println!(
        "checked {} served outputs (1 in {SAMPLE_EVERY}): {} wrong; max |err| {:.2e} on float layers, {:.2e} on fixed-point layers (not enforced)",
        samples.len(),
        check.wrong,
        check.float_err,
        check.fixed_err
    );
    report.attempted = tally.sent;
    report.failed = tally.sent - tally.served + check.wrong;
    report.correct = report.failed == 0 && !samples.is_empty();

    // End-to-end: each figure is the one in the best of the run's
    // windows (see the README on why). The steady rate is cut into 2-s
    // windows of due time starting every 0.5 s. A burst cycle is one
    // window, and its latency figure is that of the high-priority
    // requests due inside the burst: what the priority classes buy when
    // the server is flooded. The all-request figure there is ~95 %
    // backlog, which turns a 10 % change in speed into a 30 % change in
    // latency and resolves nothing.
    let main_ns = ns(main_s);
    let all = main.latencies(|_| true);
    let p50_windows = match traffic {
        Traffic::Steady => stats::windows_by_key(&all, (0, main_ns), 2 * SECOND_NS, SECOND_NS / 2),
        Traffic::Burst => {
            let in_burst = |due_ns: u64| due_ns % shape.cycle_ns() >= shape.quiet_ns;
            let high =
                main.latencies(|o| o.req.priority == Priority::High && in_burst(o.req.due_ns));
            stats::windows_by_key(&high, (0, main_ns), shape.cycle_ns(), shape.cycle_ns())
        }
    };
    report.set("op_p50_ms", stats::lowest(&stats::per_window(&p50_windows, 0.5)));
    let capacities = closed_plain.as_ref().map(|phase| completions_per_s(phase, plain_s));
    let drains = burst_drains(&main, main_s as u64, shape);
    let drain_rates: Vec<f64> = drains.iter().map(|d| d.0).collect();
    report.set(
        "ops_per_s",
        match traffic {
            Traffic::Steady => stats::highest(capacities.as_deref().unwrap_or_default()),
            Traffic::Burst => stats::highest(&drain_rates),
        },
    );
    report.set("peak_rss_mb", sys::peak_rss_mb());
    if !args.trace {
        return;
    }

    // Per-layer numbers.
    report.set("serve.startup_s", startup_s);
    report.set("serve.shutdown_s", shutdown_s);
    // Typical figures: the median over tiling 2-s windows.
    let tiles = |samples: &[(u64, f64)], span_ns: u64| {
        stats::windows_by_key(samples, (0, span_ns), 2 * SECOND_NS, 2 * SECOND_NS)
    };
    let typical = |samples: &[(u64, f64)], span_ns: u64, q: f64| {
        let windows = tiles(samples, span_ns);
        if let Some(thin) = windows.iter().find(|w| !stats::supported(w.len(), q)) {
            println!(
                "note: a 2-s window holds {} samples, fewer than ten beyond p{:.0}",
                thin.len(),
                q * 100.0
            );
        }
        stats::median(&stats::per_window(&windows, q))
    };
    report.set("serve.p50_ms", typical(&all, main_ns, 0.5));
    report.set("serve.p99_ms", typical(&all, main_ns, 0.99));
    report.set("max_abs_err", check.float_err);
    report.set("serve.fixed_max_abs_err", check.fixed_err);
    let field =
        |f: fn(&Outcome, Served) -> f64| main.served().map(|(o, s)| f(o, s)).collect::<Vec<f64>>();
    report.set("serve.submit_us", stats::median(&field(|o, _| o.submit_ns as f64 / 1e3)));
    let queue_ms = field(|_, s| s.queue_wait_ns as f64 / 1e6);
    let latency_ms = field(|_, s| s.latency_ns as f64 / 1e6);
    let service_ms: Vec<f64> = latency_ms.iter().zip(&queue_ms).map(|(l, q)| l - q).collect();
    report.set("serve.queue_wait_ms", stats::median(&queue_ms));
    report.set("serve.service_ms", stats::median(&service_ms));
    report.set("serve.queue_share", queue_ms.iter().sum::<f64>() / latency_ms.iter().sum::<f64>());
    let batch_mean = stats::mean(&field(|_, s| s.batch as f64));
    report.set("serve.batch_mean", batch_mean);
    let replay_ms = exec_replay_ms(&registry, &main, batch_mean.round() as usize, trace);
    report.set("serve.exec_replay_ms", replay_ms);
    report.set("serve.overhead_ms", stats::median(&service_ms) - replay_ms);
    report.set("serve.batches", snapshot.per_model.iter().map(|m| m.batches).sum::<u64>() as f64);
    report.set("serve.stolen", snapshot.total_stolen() as f64);
    report.set("serve.sent", tally.sent as f64);
    report.set("serve.served", tally.served as f64);
    report.set("serve.refused_queue_full", tally.refused_queue_full as f64);
    report.set("serve.refused_slo", tally.refused_slo as f64);
    report.set("serve.errored", tally.errored as f64);
    let (late_p99, late_max) = main.lateness_ms();
    report.set("serve.gen_late_p99_ms", late_p99);
    report.set("serve.gen_late_max_ms", late_max);
    if let Some(second) = &second {
        let latencies = second.latencies(|_| true);
        report.set("serve.r1000.p50_ms", typical(&latencies, ns(second_s), 0.5));
        report.set("serve.r1000.p99_ms", typical(&latencies, ns(second_s), 0.99));
    }
    if let (Some(capacities), Some(counted)) = (&capacities, &closed_counted) {
        let plain = stats::median(capacities);
        report.set("serve.capacity_rps", plain);
        let counted = stats::median(&completions_per_s(counted, closed_s - plain_s));
        report.set("trace.overhead_share", plain / counted - 1.0);
    }
    if traffic == Traffic::Burst {
        report.set("serve.drain_rps", stats::median(&drain_rates));
        report.set(
            "serve.drain_ms",
            stats::median(&drains.iter().map(|d| d.1).collect::<Vec<f64>>()),
        );
        let in_time: Vec<(u64, f64)> =
            all.iter().copied().filter(|l| l.1 <= GOODPUT_LIMIT_MS).collect();
        let good: Vec<f64> =
            tiles(&in_time, main_ns).iter().map(|w| w.len() as f64 / 2.0).collect();
        report.set("serve.goodput_rps", stats::median(&good));
        for (priority, name) in Priority::ALL.into_iter().zip(["high", "normal", "low"]) {
            let class = main.latencies(|o| o.req.priority == priority);
            report.set(&format!("serve.{name}_p95_ms"), typical(&class, main_ns, 0.95));
        }
    }
    let counted_requests = main.outcomes.len() + second.as_ref().map_or(0, |p| p.outcomes.len());
    report.set("alloc.count_per_op", (after.0 - before.0) as f64 / counted_requests as f64);
    report.set("alloc.bytes_per_op", (after.1 - before.1) as f64 / counted_requests as f64);
    record_spans(trace, &main, 0);
    if let Some(second) = &second {
        record_spans(trace, second, main.outcomes.len() as u64);
    }
    report.set("trace.spans", trace.len() as f64);
}
