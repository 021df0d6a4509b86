//! `vgg16d_offline` and `mixed_offline`: closed-loop forward passes of a
//! full-size network through `NetworkExecutor::execute_layer`.

use crate::metrics::{layer_metric, Report};
use crate::trace::Trace;
use crate::{oracle, stats, sys, Args};
use std::hint::black_box;
use std::time::{Duration, Instant};
use wino_core::{spatial_ops, WinogradParams, Workload};
use wino_exec::{EnginePlan, ExecConfig, NetworkExecutor, Precision, QuantConfig, Schedule};
use wino_models::{alexnet, vgg16d};
use wino_search::{AlgorithmChoice, LayerDesign};
use wino_tensor::Tensor4;

/// The phases the Winograd and FFT engines both report.
const PHASES: [&str; 3] = ["pack", "multiply", "inverse"];

/// Consecutive passes in the stretch the end-to-end figures come from.
const BEST_RUN: usize = 4;

/// Which offline workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Network {
    /// Full-size VGG16-D, `F(4x4, 3x3)` f32 on every layer.
    Vgg16d,
    /// Full-size AlexNet on four engine classes.
    MixedAlexnet,
}

/// The metrics a layer's busy time is booked under, by engine class.
const CLASS_METRICS: [&str; 4] =
    ["exec.wino_f32_ms", "exec.wino_fixed_ms", "exec.fft_ms", "exec.spatial_ms"];

fn workload_and_schedule(network: Network) -> (Workload, Schedule) {
    match network {
        Network::Vgg16d => {
            let wl = vgg16d(1);
            let schedule = Schedule::homogeneous(&wl, 4).expect("VGG16-D lowers to F(4x4, 3x3)");
            (wl, schedule)
        }
        Network::MixedAlexnet => {
            let wl = alexnet(1);
            let wino =
                |m| AlgorithmChoice::Winograd(WinogradParams::new(m, 3).expect("valid F(m, 3)"));
            // conv5 in fixed point uses F(2x2): the only fixed-point plan
            // that verifies at C >= 256 (see the README).
            let algos = [
                AlgorithmChoice::Spatial,
                AlgorithmChoice::Fft { n: 16 },
                wino(4),
                wino(4),
                wino(2),
            ];
            let designs: Vec<LayerDesign> = wl
                .layers()
                .iter()
                .zip(algos)
                .map(|(l, algo)| LayerDesign {
                    layer: l.name.clone(),
                    algo,
                    pe_count: 1,
                    latency_ms: 0.0,
                })
                .collect();
            let float = Precision::Float;
            let quant = QuantConfig::per_layer(vec![
                float,
                float,
                float,
                float,
                Precision::Fixed { frac: 14 },
            ])
            .expect("Q18.14 is supported");
            let schedule = Schedule::from_layer_designs(&wl, &designs)
                .and_then(|s| s.with_quant(quant))
                .expect("the mixed schedule lowers");
            (wl, schedule)
        }
    }
}

/// A prepared executor plus the inputs every pass reuses.
struct Prepared {
    exec: NetworkExecutor,
    inputs: Vec<Tensor4<f32>>,
    prepare_s: f64,
    input_gen_s: f64,
}

fn prepare(network: Network, seed: u64, threads: usize) -> Prepared {
    let (wl, schedule) = workload_and_schedule(network);
    let start = Instant::now();
    let exec = NetworkExecutor::with_seed(wl, schedule, ExecConfig::with_threads(threads), seed)
        .expect("the schedule validates against its own workload");
    let prepare_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let inputs = (0..exec.workload().layers().len()).map(|i| exec.layer_input(i)).collect();
    let input_gen_s = start.elapsed().as_secs_f64();
    Prepared { exec, inputs, prepare_s, input_gen_s }
}

/// One forward pass: per-layer busy nanoseconds and output checksums.
/// The pass time is the sum of the `execute_layer` calls; the checksum
/// and oracle work between calls is the benchmark's own and is excluded.
struct Pass {
    layer_ns: Vec<u64>,
    checksums: Vec<f64>,
    /// Worst oracle deviation beyond tolerance scale, when checked.
    max_abs_err: f64,
    error: Option<String>,
}

impl Pass {
    fn total_ms(&self) -> f64 {
        self.layer_ns.iter().sum::<u64>() as f64 / 1e6
    }
}

fn run_pass(
    p: &Prepared,
    check_seed: Option<u64>,
    mut span: impl FnMut(usize, Instant, Instant),
) -> Pass {
    let layers = p.exec.workload().layers();
    let mut pass = Pass {
        layer_ns: Vec::with_capacity(layers.len()),
        checksums: Vec::with_capacity(layers.len()),
        max_abs_err: 0.0,
        error: None,
    };
    for (i, layer) in layers.iter().enumerate() {
        let start = Instant::now();
        let result = p.exec.execute_layer(i, black_box(&p.inputs[i]));
        let end = Instant::now();
        span(i, start, end);
        pass.layer_ns.push((end - start).as_nanos() as u64);
        let output = match result {
            Ok(output) => black_box(output),
            Err(e) => {
                pass.error = Some(format!("{}: {e}", layer.name));
                return pass;
            }
        };
        pass.checksums.push(output.as_slice().iter().map(|&x| f64::from(x)).sum());
        if let Some(seed) = check_seed {
            let tolerance = match p.exec.schedule().precision(i) {
                Precision::Float => oracle::FLOAT_TOLERANCE,
                Precision::Fixed { .. } => oracle::FIXED_TOLERANCE,
            };
            match oracle::max_abs_err(
                &p.inputs[i],
                p.exec.kernels(i),
                &layer.shape,
                &output,
                seed ^ i as u64,
            ) {
                Ok(err) => {
                    pass.max_abs_err = pass.max_abs_err.max(err);
                    if err > tolerance {
                        pass.error = Some(format!(
                            "{}: |err| {err:.3e} exceeds {tolerance:.0e}",
                            layer.name
                        ));
                    }
                }
                Err(e) => pass.error = Some(format!("{}: {e}", layer.name)),
            }
        }
    }
    pass
}

/// Index into [`CLASS_METRICS`] of the engine class layer `layer` runs on.
fn engine_class(exec: &NetworkExecutor, layer: usize) -> usize {
    match (exec.schedule().plans()[layer].engine, exec.schedule().precision(layer)) {
        (EnginePlan::Winograd(_), Precision::Float) => 0,
        (EnginePlan::Winograd(_), Precision::Fixed { .. }) => 1,
        (EnginePlan::Fft { .. }, _) => 2,
        (EnginePlan::Spatial, _) => 3,
    }
}

/// `wino_exec::gemm::gemm` on conv4_2's per-coordinate shape
/// (K x C x tiles = 512 x 512 x 49), in GFLOP/s (2·m·n·k per call).
fn gemm_gflops(budget: Duration) -> f64 {
    let (m, n, k) = (512usize, 49usize, 512usize);
    let a: Vec<f32> = (0..m * k).map(|i| (i % 17) as f32 * 0.01).collect();
    let b: Vec<f32> = (0..k * n).map(|i| (i % 13) as f32 * 0.02).collect();
    let mut c = vec![0.0f32; m * n];
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < budget {
        wino_exec::gemm::gemm(m, n, k, black_box(&a), k, black_box(&b), n, &mut c, n);
        black_box(&c);
        calls += 1;
    }
    (2 * m * n * k) as f64 * calls as f64 / start.elapsed().as_secs_f64() / 1e9
}

/// What the traced passes of a run add up to.
#[derive(Default)]
struct TracedTotals {
    passes: Vec<Pass>,
    /// Milliseconds per phase of [`PHASES`], then everything else in a layer.
    phase_ms: [f64; PHASES.len() + 1],
    phase_runs: u32,
    allocs: u64,
    alloc_bytes: u64,
}

/// The span names an offline run records under.
struct SpanNames {
    pass: usize,
    layers: Vec<usize>,
    run: usize,
    run_layer: usize,
}

/// One traced pass: a span per `execute_layer` call with allocations
/// counted, then the phase split from the executor's own report of one
/// `run()`, which is outside the pass timing. `run()` returns durations,
/// so its spans are laid end to end from its start.
fn traced_pass(
    p: &Prepared,
    op: u64,
    names: &SpanNames,
    trace: &mut Trace,
    totals: &mut TracedTotals,
) -> Pass {
    let parent = trace.record(names.pass, trace.now_ns(), 0, None, op);
    let (pass, (allocs, bytes)) = sys::counting_allocations(|| {
        run_pass(p, None, |i, s, e| {
            trace.record(names.layers[i], trace.ns_at(s), trace.ns_at(e), Some(parent), op);
        })
    });
    totals.allocs += allocs;
    totals.alloc_bytes += bytes;
    trace.close(parent, trace.now_ns());

    let start_ns = trace.now_ns();
    let net = p.exec.run();
    let run_span = trace.record(names.run, start_ns, trace.now_ns(), None, op);
    let mut at = start_ns;
    for l in &net.layers {
        let layer_end = at + (l.millis * 1e6) as u64;
        let layer_span = trace.record(names.run_layer, at, layer_end, Some(run_span), op);
        let mut other = l.millis;
        for (phase, ms) in &l.phase_millis {
            let id = trace.intern(&format!("exec.phase.{phase}"));
            let end = at + (ms * 1e6) as u64;
            trace.record(id, at, end, Some(layer_span), op);
            at = end;
            if let Some(slot) = PHASES.iter().position(|p| p == phase) {
                totals.phase_ms[slot] += ms;
                other -= ms;
            }
        }
        totals.phase_ms[PHASES.len()] += other;
        at = layer_end;
    }
    totals.phase_runs += 1;
    pass
}

/// Runs one offline workload and fills `report`.
pub fn run(network: Network, args: &Args, report: &mut Report, trace: &mut Trace) {
    let threads = sys::thread_budget();
    let (p, setup_s) = crate::fastest_setup(|| prepare(network, args.seed, threads), drop);
    report.set("setup_s", setup_s);
    let layers = p.exec.workload().layers();
    let names = SpanNames {
        pass: trace.intern("pass"),
        layers: layers.iter().map(|l| trace.intern(&format!("exec.layer.{}", l.name))).collect(),
        run: trace.intern("exec.run"),
        run_layer: trace.intern("exec.run.layer"),
    };

    // Pass 0 warms caches and is the one checked against the oracle.
    let first = run_pass(&p, Some(args.seed), |_, _, _| {});
    let mut failures: Vec<String> = first.error.iter().cloned().collect();
    report.attempted = 1;

    // Measured passes. A traced run alternates plain and traced passes
    // in one process, so their ratio is the tracing overhead.
    let main_budget = Duration::from_secs_f64(args.seconds * if args.trace { 0.5 } else { 1.0 });
    let loop_start = Instant::now();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced = TracedTotals::default();
    while loop_start.elapsed() < main_budget {
        let op = report.attempted;
        let trace_this = args.trace && op.is_multiple_of(2);
        let pass = if trace_this {
            traced_pass(&p, op, &names, trace, &mut traced)
        } else {
            run_pass(&p, None, |_, _, _| {})
        };
        report.attempted += 1;
        if let Some(e) = &pass.error {
            failures.push(e.clone());
        } else if pass.checksums != first.checksums {
            failures.push(format!("pass {op}: per-layer checksums differ from pass 0"));
        }
        if trace_this { &mut traced.passes } else { &mut plain }.push(pass);
    }

    report.failed = failures.len() as u64;
    report.correct = failures.is_empty();
    for f in failures.iter().take(5) {
        println!("FAILED {f}");
    }
    // End-to-end: the best sustained stretch of the loop (see the
    // README on why), `BEST_RUN` consecutive passes long.
    let pass_ms: Vec<f64> = plain.iter().map(Pass::total_ms).collect();
    let best_ms = stats::best_run_median(&pass_ms, BEST_RUN);
    report.set("op_p50_ms", best_ms);
    report.set("ops_per_s", 1e3 / best_ms);
    report.set("peak_rss_mb", sys::peak_rss_mb());
    println!("{} measured passes", pass_ms.len());
    if !args.trace {
        return;
    }

    // Typical figures over the whole loop, beside the best stretch.
    report.set("exec.images_per_s", 1e3 / stats::mean(&pass_ms));
    report.set("exec.pass_p50_ms", stats::median(&pass_ms));
    report.set("exec.pass_p75_ms", stats::reported_quantile("exec.pass_p75_ms", &pass_ms, 0.75));
    report.set("exec.prepare_s", p.prepare_s);
    report.set("exec.input_gen_s", p.input_gen_s);
    report.set("max_abs_err", first.max_abs_err);
    // Per network layer and per engine class, from the traced passes.
    let mut class_ms = [0.0f64; CLASS_METRICS.len()];
    for (i, layer) in layers.iter().enumerate() {
        let per_call: Vec<f64> = traced
            .passes
            .iter()
            .filter_map(|t| t.layer_ns.get(i))
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        let ms = stats::median(&per_call);
        report.set(&layer_metric(&layer.name), ms);
        class_ms[engine_class(&p.exec, i)] += ms;
    }
    for (metric, ms) in CLASS_METRICS.iter().zip(class_ms) {
        report.set(metric, ms);
    }
    for (phase, total) in PHASES.iter().chain(&["other"]).zip(traced.phase_ms) {
        report.set(&format!("exec.phase.{phase}_ms"), total / f64::from(traced.phase_runs.max(1)));
    }
    // Spatial-equivalent operations (2 x MACs of the direct algorithm,
    // as `wino_core::spatial_ops` computes them) over busy time.
    let ops: f64 = layers.iter().map(|l| spatial_ops(1, &l.shape) as f64).sum();
    let traced_ms: Vec<f64> = traced.passes.iter().map(Pass::total_ms).collect();
    report.set("exec.eff_gflops", ops / (stats::median(&traced_ms) * 1e-3) / 1e9);
    report.set("trace.overhead_share", stats::median(&traced_ms) / stats::median(&pass_ms) - 1.0);
    let ops_traced = traced.passes.len().max(1) as f64;
    report.set("alloc.count_per_op", traced.allocs as f64 / ops_traced);
    report.set("alloc.bytes_per_op", traced.alloc_bytes as f64 / ops_traced);
    report.set("exec.gemm_gflops", gemm_gflops(Duration::from_secs_f64(args.seconds * 0.04)));

    // Thread scaling: the same network prepared for one thread.
    if threads > 1 {
        let inputs = p.inputs;
        drop(p.exec);
        let mut one = prepare(network, args.seed, 1);
        one.inputs = inputs;
        let budget = Duration::from_secs_f64(args.seconds * 0.3);
        let start = Instant::now();
        let mut single = Vec::new();
        while single.len() < 5 && (single.is_empty() || start.elapsed() < budget) {
            single.push(run_pass(&one, None, |_, _, _| {}).total_ms());
        }
        report.set("exec.thread_scaling", stats::median(&single) / stats::median(&pass_ms));
    }
    report.set("trace.spans", trace.len() as f64);
}
