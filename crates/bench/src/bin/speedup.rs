//! Single-layer speedup of the `wino-exec` Winograd engine over the
//! `wino-baselines` spatial oracle, emitted as `BENCH_exec.json` —
//! plus, after all timing is done, an instrumented pass whose
//! phase-level profile and speedup metrics are merged into
//! `BENCH_obs.json` (section `"exec"`) through the `wino-obs`
//! exposition layer. Tracing stays **disabled** for every timed run,
//! so the numbers are the uninstrumented hot path; the profiled pass
//! runs afterwards, untimed.
//!
//! The layer is VGG16-D's conv3 geometry at 56×56 with 128 → 128
//! channels (~0.92 GFLOP of spatial-equivalent work). Each engine
//! configuration is timed best-of-3 against one oracle run, and the
//! verification column reports the worst absolute deviation from the
//! oracle — the speedup claim is only meaningful because the outputs
//! match.
//!
//! ## Honest thread accounting
//!
//! Requested thread counts are clamped to the hardware's
//! `available_parallelism` before measuring, and every emitted config
//! row carries both the requested and the *actual* worker count. A
//! multi-thread config that would merely oversubscribe a smaller
//! machine (e.g. "8 threads" on a 1-core CI runner) is **skipped**, not
//! silently measured as something else: it appears in the JSON's
//! `skipped` list with the reason, so downstream readers never mistake
//! a 1-core number for an 8-thread one.
//!
//! ## Acceptance gates (the process exits nonzero when violated)
//!
//! * single-thread best speedup ≥ [`MIN_SPEEDUP_1T`]× over the spatial
//!   oracle — 1.3× the PR-4 packed-GEMM-less baseline of 22.67×;
//! * on multi-core runners, every honestly measured multi-thread
//!   config must reach ≥ [`MIN_MT_EFFICIENCY`] of the same engine's
//!   single-thread throughput — multi-thread regressions fail the
//!   bench (and CI) instead of uploading as an artifact nobody reads;
//! * the algorithm crossover gates below.
//!
//! ## Algorithm crossover study (section `"algorithms"`)
//!
//! After the thread-scaling table, a second pass races the three
//! prepared backends — [`PreparedSpatial`], the best [`PreparedWinograd`]
//! tile, and [`PreparedFft`] at each power-of-two size ≥ the kernel — on
//! a representative stride-1 layer from each of the four model
//! workloads (shrunk by `wino_models::shrink` so the scalar oracle
//! stays affordable) plus a synthetic large-kernel layer (11×11 kernel
//! at 64×64, the geometry where overlap–save FFT should cross over).
//! Each row also records which algorithm the heterogeneous search
//! (`HeterogeneousSpace::with_fft_sizes`) picks for that layer under
//! the paper's 700-multiplier Virtex-7 budget, so the measured winner
//! and the model's pick can be compared side by side. The table is
//! merged into `BENCH_exec.json` under the `"algorithms"` key via
//! `wino_obs::update_artifact`, and the run fails unless, on the
//! large-kernel layer, the measured FFT engine beats the best forced
//! Winograd tile **and** the search picks FFT there.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use wino_baselines::{spatial_convolve, spatial_convolve_strided};
use wino_bench::print_comparison;
use wino_core::{spatial_ops, ConvShape, WinogradParams, Workload};
use wino_dse::Evaluator;
use wino_exec::{fft_error_bound, PreparedFft, PreparedSpatial, PreparedWinograd};
use wino_fpga::virtex7_485t;
use wino_obs::{
    update_artifact, AggregatingProfiler, MetricFamily, MetricKind, MetricSample, ObsReport,
};
use wino_search::{AlgorithmChoice, HeterogeneousSpace, SearchSpace};
use wino_tensor::{ErrorStats, Shape4, SplitMix64, Tensor4};

/// Acceptance floor on the best single-thread speedup over the spatial
/// oracle: 1.3× the PR-4 baseline (22.67×), which the packed GEMM
/// micro-kernel clears with margin.
const MIN_SPEEDUP_1T: f64 = 29.5;

/// Multi-thread configs must deliver at least this fraction of the
/// same engine's single-thread throughput (slower-than-single-thread
/// scaling is the regression this gate exists to catch).
const MIN_MT_EFFICIENCY: f64 = 0.95;

struct ConfigResult {
    engine: String,
    threads_requested: usize,
    threads: usize,
    millis: f64,
    speedup: f64,
    max_abs_err: f64,
}

struct Skipped {
    engine: String,
    threads_requested: usize,
    reason: String,
}

fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let start = Instant::now();
        let value = f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        out = Some(value);
    }
    (best, out.expect("at least one rep"))
}

/// One measured algorithm on one crossover layer.
struct AlgoTiming {
    algo: String,
    millis: f64,
    max_abs_err: f64,
    /// Whether the output matched the spatial oracle within this
    /// algorithm's tolerance (the analytic [`fft_error_bound`] for FFT,
    /// the bench-wide 1e-2 for Winograd). Large Winograd tiles forced
    /// onto an 11×11 kernel are *expected* to fail this in f32 — that
    /// numerical breakdown is half the case for the FFT backend.
    verified: bool,
}

/// One layer's row in the crossover table.
struct CrossoverRow {
    layer: String,
    shape: ConvShape,
    timings: Vec<AlgoTiming>,
    /// Fastest *verified* algorithm by measured wall time.
    winner: String,
    /// What the heterogeneous search picks for this layer on the
    /// paper's Virtex-7 multiplier budget.
    search_pick: String,
}

/// What the heterogeneous search ({spatial, F(m×m), FFT(N)} per layer)
/// picks for a single layer under the paper's 700-multiplier budget:
/// exhaustive minimum-latency enumeration of the one-layer space.
fn search_pick(name: &str, shape: ConvShape) -> AlgorithmChoice {
    let mut wl = Workload::new(format!("crossover-{name}"), 1);
    wl.push(name, "Crossover", shape);
    let ev = Evaluator::new(wl, virtex7_485t());
    let space = HeterogeneousSpace::new(&ev, vec![1, 2, 4, 6], vec![1.0], 700, 200e6)
        .with_fft_sizes(vec![16, 32]);
    let best = (0..space.size())
        .map(|i| space.genome_at(i))
        .filter(|g| space.evaluate(g).feasible)
        .min_by(|a, b| space.evaluate(a).latency_ms.total_cmp(&space.evaluate(b).latency_ms))
        .expect("at least the spatial fallback is feasible");
    space.layer_designs(&best).expect("best genome decodes")[0].algo
}

/// Races spatial vs the best-fitting Winograd tiles vs overlap–save
/// FFT on one stride-1 layer, all single-threaded (this table is about
/// the algorithm, not thread scaling), and records the search's pick.
fn crossover_layer(name: &str, shape: ConvShape, seed: u64) -> CrossoverRow {
    assert_eq!(shape.stride, 1, "crossover layers are stride-1 by construction");
    let mut rng = SplitMix64::new(seed);
    let input =
        Tensor4::from_fn(Shape4 { n: 1, c: shape.c, h: shape.h, w: shape.w }, |_, _, _, _| {
            rng.uniform_f32(-1.0, 1.0)
        });
    let kernels = Tensor4::from_fn(
        Shape4 { n: shape.k, c: shape.c, h: shape.r, w: shape.r },
        |_, _, _, _| rng.uniform_f32(-1.0, 1.0),
    );
    let oracle = spatial_convolve_strided(&input, &kernels, shape.pad, 1);

    let mut timings = Vec::new();
    let spatial = PreparedSpatial::new(&kernels, 1);
    let (millis, out) = best_of(2, || spatial.execute(&input, shape.pad, 1));
    let stats = ErrorStats::between(out.as_slice(), oracle.as_slice());
    timings.push(AlgoTiming {
        algo: "spatial".into(),
        millis,
        max_abs_err: stats.max_abs,
        verified: stats.within_abs(1e-6),
    });

    for m in [2usize, 4, 6] {
        let Ok(params) = WinogradParams::new(m, shape.r) else { continue };
        let Ok(bank) = PreparedWinograd::new(params, &kernels) else { continue };
        let (millis, out) = best_of(3, || bank.execute(&input, shape.pad, 1));
        let stats = ErrorStats::between(out.as_slice(), oracle.as_slice());
        timings.push(AlgoTiming {
            algo: params.to_string(),
            millis,
            max_abs_err: stats.max_abs,
            verified: stats.within_abs(1e-2),
        });
    }

    for n in [8usize, 16, 32] {
        if n < shape.r {
            continue;
        }
        let bank = PreparedFft::new(n, &kernels);
        let (millis, out) = best_of(3, || bank.execute(&input, shape.pad, 1));
        let stats = ErrorStats::between(out.as_slice(), oracle.as_slice());
        let tol = fft_error_bound(&shape, n, 1.0, 1.0);
        assert!(
            stats.within_abs(tol),
            "FFT({n}) on {name} violated its analytic error bound: {stats} vs {tol:.3e}"
        );
        timings.push(AlgoTiming {
            algo: format!("FFT({n})"),
            millis,
            max_abs_err: stats.max_abs,
            verified: true,
        });
    }

    let winner = timings
        .iter()
        .filter(|t| t.verified)
        .min_by(|a, b| a.millis.total_cmp(&b.millis))
        .expect("spatial always verifies")
        .algo
        .clone();
    let pick = search_pick(name, shape);
    CrossoverRow { layer: name.into(), shape, timings, winner, search_pick: pick.to_string() }
}

/// Representative stride-1 layer from each model workload, shrunk so
/// the spatial oracle stays affordable, plus the synthetic large-kernel
/// layer the FFT backend exists for.
fn crossover_layers() -> Vec<(String, ConvShape)> {
    let mut out = Vec::new();
    for wl in wino_models::model_zoo(1) {
        let small = wino_models::shrink(&wl, 28, 32);
        let layer = small
            .layers()
            .iter()
            .find(|l| l.shape.winograd_compatible())
            .expect("every model has a stride-1 layer");
        out.push((format!("{}/{}", wl.name(), layer.name), layer.shape));
    }
    out.push((
        "synthetic/conv-11x11".into(),
        ConvShape { h: 64, w: 64, c: 24, k: 24, r: 11, stride: 1, pad: 5 },
    ));
    out
}

fn main() {
    let shape = ConvShape::same_padded(56, 56, 128, 128, 3);
    let gflop = spatial_ops(1, &shape) as f64 / 1e9;
    let mut rng = SplitMix64::new(2019);
    let input =
        Tensor4::from_fn(Shape4 { n: 1, c: shape.c, h: shape.h, w: shape.w }, |_, _, _, _| {
            rng.uniform_f32(-1.0, 1.0)
        });
    let kernels = Tensor4::from_fn(Shape4 { n: shape.k, c: shape.c, h: 3, w: 3 }, |_, _, _, _| {
        rng.uniform_f32(-1.0, 1.0)
    });

    println!("layer: conv3-shaped {shape} ({gflop:.2} GFLOP)");
    let threads_available = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("hardware threads available: {threads_available}\n");

    let (oracle_ms, oracle) = best_of(2, || spatial_convolve(&input, &kernels, shape.pad));

    let mut results: Vec<ConfigResult> = Vec::new();
    let mut skipped: Vec<Skipped> = Vec::new();
    for m in [2usize, 4] {
        let params = WinogradParams::new(m, 3).expect("valid");
        // The kernel-bank transform is a per-model one-time cost (the
        // executor and the serving registry both hoist it), so the
        // timed region is PreparedWinograd::execute alone.
        let bank = PreparedWinograd::new(params, &kernels).expect("bank prepares");
        for requested in [1usize, 8] {
            // Clamp to the hardware: an 8-thread request on a 4-core
            // runner is honestly measured as (and labeled) 4 threads.
            let actual = requested.min(threads_available);
            if results.iter().any(|r| r.engine == params.to_string() && r.threads == actual) {
                // The clamped width duplicates a config already
                // measured (e.g. 8 -> 1 on a 1-core runner): skip it
                // and say why, instead of mislabeling the same number
                // twice.
                println!(
                    "{params} @{requested}t: skipped (clamps to {actual} thread(s) on this \
                     {threads_available}-thread machine, already measured)"
                );
                skipped.push(Skipped {
                    engine: params.to_string(),
                    threads_requested: requested,
                    reason: format!(
                        "clamps to {actual} thread(s) on a {threads_available}-thread machine, \
                         already measured"
                    ),
                });
                continue;
            }
            let (millis, out) = best_of(3, || bank.execute(&input, shape.pad, actual));
            let stats = ErrorStats::between(out.as_slice(), oracle.as_slice());
            assert!(stats.within_abs(1e-2), "{params} diverged from the oracle: {stats}");
            results.push(ConfigResult {
                engine: params.to_string(),
                threads_requested: requested,
                threads: actual,
                millis,
                speedup: oracle_ms / millis,
                max_abs_err: stats.max_abs,
            });
        }
    }

    // "paper" column = the oracle's wall time, so the deviation column
    // reads as time saved relative to the scalar spatial baseline.
    let rows: Vec<(String, f64, f64)> = results
        .iter()
        .map(|r| (format!("{} @{}t ms", r.engine, r.threads), oracle_ms, r.millis))
        .collect();
    print_comparison("single-layer wall time vs spatial oracle (best-of-3)", &rows, 2);
    for r in &results {
        println!(
            "{} @{}t: {:.2} ms  ->  {:.2}x over the spatial oracle (max |err| {:.2e})",
            r.engine, r.threads, r.millis, r.speedup, r.max_abs_err
        );
    }

    let speedup_1t =
        results.iter().filter(|r| r.threads == 1).map(|r| r.speedup).fold(0.0f64, f64::max);
    let speedup_mt =
        results.iter().filter(|r| r.threads > 1).map(|r| r.speedup).fold(0.0f64, f64::max);

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"exec_speedup\",\n");
    json.push_str(&format!(
        "  \"layer\": {{\"name\": \"vgg16d-conv3\", \"h\": {}, \"w\": {}, \"c\": {}, \"k\": {}, \"r\": 3, \"stride\": 1, \"pad\": {}, \"gflop\": {:.4}}},\n",
        shape.h, shape.w, shape.c, shape.k, shape.pad, gflop
    ));
    json.push_str(&format!("  \"threads_available\": {threads_available},\n"));
    json.push_str(&format!("  \"oracle_ms\": {oracle_ms:.3},\n"));
    json.push_str("  \"configs\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"engine\": \"{}\", \"threads_requested\": {}, \"threads\": {}, \"millis\": {:.3}, \"speedup\": {:.3}, \"max_abs_err\": {:.3e}}}{}\n",
            r.engine,
            r.threads_requested,
            r.threads,
            r.millis,
            r.speedup,
            r.max_abs_err,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"skipped\": [\n");
    for (i, s) in skipped.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"engine\": \"{}\", \"threads_requested\": {}, \"reason\": \"{}\"}}{}\n",
            s.engine,
            s.threads_requested,
            s.reason,
            if i + 1 < skipped.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"speedup_1t\": {speedup_1t:.3},\n"));
    // null, not 0.0, when no multi-thread config could be measured —
    // a consumer must not read "unmeasured" as a zero regression.
    if speedup_mt > 0.0 {
        json.push_str(&format!("  \"speedup_mt\": {speedup_mt:.3}\n}}\n"));
    } else {
        json.push_str("  \"speedup_mt\": null\n}\n");
    }

    std::fs::write("BENCH_exec.json", &json).expect("write BENCH_exec.json");
    println!(
        "\nwrote BENCH_exec.json (speedup_1t {speedup_1t:.2}x, speedup_mt {}{})",
        if speedup_mt > 0.0 { format!("{speedup_mt:.2}x") } else { "n/a".into() },
        if skipped.is_empty() { "" } else { ", multi-thread configs skipped on this machine" },
    );

    // --- algorithm crossover study (merged as "algorithms") ------------
    println!("\nalgorithm crossover (single-thread, best-of-3; * = fastest verified):");
    let rows: Vec<CrossoverRow> = crossover_layers()
        .into_iter()
        .enumerate()
        .map(|(i, (name, shape))| crossover_layer(&name, shape, 0xC0DE + i as u64))
        .collect();
    for row in &rows {
        println!("  {} ({})  search picks {}", row.layer, row.shape, row.search_pick);
        for t in &row.timings {
            println!(
                "    {:>14}  {:>9.3} ms  max |err| {:.2e}{}{}",
                t.algo,
                t.millis,
                t.max_abs_err,
                if t.verified { "" } else { "  (FAILED 1e-2 verification)" },
                if t.algo == row.winner { "  *" } else { "" },
            );
        }
    }

    let mut algo_json = String::from("{\n    \"layers\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let s = &row.shape;
        algo_json.push_str(&format!(
            "      {{\"layer\": \"{}\", \"h\": {}, \"w\": {}, \"c\": {}, \"k\": {}, \"r\": {}, \
             \"pad\": {},\n       \"timings\": [",
            row.layer, s.h, s.w, s.c, s.k, s.r, s.pad
        ));
        for (j, t) in row.timings.iter().enumerate() {
            algo_json.push_str(&format!(
                "{}{{\"algo\": \"{}\", \"millis\": {:.3}, \"max_abs_err\": {:.3e}, \
                 \"verified\": {}}}",
                if j > 0 { ", " } else { "" },
                t.algo,
                t.millis,
                t.max_abs_err,
                t.verified
            ));
        }
        algo_json.push_str(&format!(
            "],\n       \"winner\": \"{}\", \"search_pick\": \"{}\"}}{}\n",
            row.winner,
            row.search_pick,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    algo_json.push_str("    ]\n  }");
    update_artifact(Path::new("BENCH_exec.json"), "algorithms", &algo_json)
        .expect("merge algorithms section into BENCH_exec.json");
    println!("merged algorithms section into BENCH_exec.json");

    // Crossover gates: on the synthetic large-kernel layer the measured
    // FFT engine must beat the best *forced* Winograd tile, and the
    // heterogeneous search must independently pick FFT for it.
    let big = rows.last().expect("synthetic layer present");
    let fft_best = big
        .timings
        .iter()
        .filter(|t| t.algo.starts_with("FFT"))
        .map(|t| t.millis)
        .fold(f64::INFINITY, f64::min);
    let wino_best = big
        .timings
        .iter()
        .filter(|t| t.algo.starts_with('F') && !t.algo.starts_with("FFT"))
        .map(|t| t.millis)
        .fold(f64::INFINITY, f64::min);
    assert!(
        fft_best < wino_best,
        "acceptance: FFT must beat the best forced Winograd tile on the 11x11 layer \
         (FFT {fft_best:.3} ms vs Winograd {wino_best:.3} ms)"
    );
    assert!(
        big.search_pick.starts_with("FFT"),
        "acceptance: the heterogeneous search must pick FFT for the 11x11 layer, picked {}",
        big.search_pick
    );
    assert!(
        big.winner.starts_with("FFT"),
        "acceptance: FFT must be the fastest verified algorithm on the 11x11 layer, winner {}",
        big.winner
    );

    // --- observability exposition (untimed: all measurement is done) ---
    // One instrumented pass per engine, profiler attached globally so
    // prepare-time spans (kernel-transform, gemm-pack) land in the
    // tree alongside the execute phases.
    let profiler = Arc::new(AggregatingProfiler::new());
    wino_obs::set_recorder(profiler.clone());
    wino_obs::enable();
    for m in [2usize, 4] {
        let params = WinogradParams::new(m, 3).expect("valid");
        let bank = PreparedWinograd::new(params, &kernels).expect("bank prepares");
        let _ = bank.execute(&input, shape.pad, 1);
    }
    wino_obs::disable();
    wino_obs::clear_recorder();

    let mut wall = MetricFamily {
        name: "wino_exec_wall_ms".into(),
        help: "best-of-3 execute wall time per measured configuration".into(),
        kind: MetricKind::Gauge,
        samples: Vec::new(),
    };
    for r in &results {
        wall.samples.push(MetricSample {
            labels: vec![
                ("engine".into(), r.engine.clone()),
                ("threads".into(), r.threads.to_string()),
            ],
            value: r.millis,
        });
    }
    let mut metrics = vec![
        MetricFamily::scalar(
            "wino_exec_oracle_ms",
            "spatial-oracle wall time for the same layer",
            MetricKind::Gauge,
            oracle_ms,
        ),
        MetricFamily::scalar(
            "wino_exec_speedup_1t",
            "best single-thread speedup over the spatial oracle",
            MetricKind::Gauge,
            speedup_1t,
        ),
        wall,
    ];
    if speedup_mt > 0.0 {
        metrics.push(MetricFamily::scalar(
            "wino_exec_speedup_mt",
            "best multi-thread speedup over the spatial oracle",
            MetricKind::Gauge,
            speedup_mt,
        ));
    }
    let report = ObsReport { metrics, profile: Some(profiler.snapshot()) };
    println!("\n{}", report.to_prometheus());
    update_artifact(Path::new("BENCH_obs.json"), "exec", &report.to_json())
        .expect("update BENCH_obs.json");
    println!("merged exec section into BENCH_obs.json");

    assert!(
        speedup_1t >= MIN_SPEEDUP_1T,
        "acceptance: single-thread wino-exec must be >= {MIN_SPEEDUP_1T}x over the spatial \
         oracle (1.3x the PR-4 baseline), got {speedup_1t:.2}x"
    );
    // Thread-scaling gate: only meaningful when a multi-thread config
    // was honestly measured (i.e. on a multi-core runner).
    for mt in results.iter().filter(|r| r.threads > 1) {
        let one = results
            .iter()
            .find(|r| r.engine == mt.engine && r.threads == 1)
            .expect("single-thread config measured first");
        let efficiency = mt.speedup / one.speedup;
        assert!(
            efficiency >= MIN_MT_EFFICIENCY,
            "acceptance: {} at {} threads delivers only {:.2}x of its single-thread \
             throughput (floor {MIN_MT_EFFICIENCY}) — multi-thread execution regressed",
            mt.engine,
            mt.threads,
            efficiency
        );
    }
}
