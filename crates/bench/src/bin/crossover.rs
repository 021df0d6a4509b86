//! Algorithm crossover study, emitted as `BENCH_exec.json` (section
//! `"algorithms"`).
//!
//! Races the three prepared backends — [`PreparedSpatial`], the
//! [`PreparedWinograd`] tiles F(2), F(4), F(6), and [`PreparedFft`] at
//! each power-of-two size ≥ the kernel — on a representative stride-1
//! layer from each of the four model workloads (shrunk by
//! `wino_models::shrink` so the scalar oracle stays affordable) plus a
//! synthetic large-kernel layer (11×11 kernel at 64×64, the geometry
//! where overlap–save FFT should cross over). Every output is checked
//! against the `wino-baselines` spatial oracle; each row records the
//! fastest *verified* algorithm, what the heterogeneous search
//! (`HeterogeneousSpace::with_fft_sizes`) picks for that layer under
//! the paper's 700-multiplier Virtex-7 budget, and whether that pick is
//! among the row's verified timings (`"search_pick_verified"` —
//! recorded, not gated). Throughput and latency of whole networks are
//! the repo benchmark's job (`benchmark/README.md`), not this study's.
//!
//! ## Acceptance gates (the process exits nonzero when violated)
//!
//! On the 11×11 layer: the measured FFT engine beats the best forced
//! Winograd tile, the search picks FFT, and FFT is the fastest verified
//! algorithm. Every FFT run must also stay inside its analytic
//! [`fft_error_bound`].

use std::path::Path;
use std::time::Instant;
use wino_baselines::spatial_convolve_strided;
use wino_core::{ConvShape, WinogradParams, Workload};
use wino_dse::Evaluator;
use wino_exec::{fft_error_bound, PreparedFft, PreparedSpatial, PreparedWinograd};
use wino_fpga::virtex7_485t;
use wino_obs::{validate_json, write_atomic};
use wino_search::{AlgorithmChoice, HeterogeneousSpace, SearchSpace};
use wino_tensor::{ErrorStats, Shape4, SplitMix64, Tensor4};

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
    /// Whether `search_pick` is among this row's verified timings.
    search_pick_verified: bool,
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
    let search_pick = search_pick(name, shape).to_string();
    let search_pick_verified = timings.iter().any(|t| t.verified && t.algo == search_pick);
    CrossoverRow { layer: name.into(), shape, timings, winner, search_pick, search_pick_verified }
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
    println!("algorithm crossover (single-thread, best-of-3; * = fastest verified):");
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

    let mut json =
        String::from("{\n  \"bench\": \"crossover\",\n  \"algorithms\": {\n    \"layers\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let s = &row.shape;
        json.push_str(&format!(
            "      {{\"layer\": \"{}\", \"h\": {}, \"w\": {}, \"c\": {}, \"k\": {}, \"r\": {}, \
             \"pad\": {},\n       \"timings\": [",
            row.layer, s.h, s.w, s.c, s.k, s.r, s.pad
        ));
        for (j, t) in row.timings.iter().enumerate() {
            json.push_str(&format!(
                "{}{{\"algo\": \"{}\", \"millis\": {:.3}, \"max_abs_err\": {:.3e}, \
                 \"verified\": {}}}",
                if j > 0 { ", " } else { "" },
                t.algo,
                t.millis,
                t.max_abs_err,
                t.verified
            ));
        }
        json.push_str(&format!(
            "],\n       \"winner\": \"{}\", \"search_pick\": \"{}\", \
             \"search_pick_verified\": {}}}{}\n",
            row.winner,
            row.search_pick,
            row.search_pick_verified,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("    ]\n  }\n}\n");
    validate_json(&json).expect("BENCH_exec.json is valid JSON");
    write_atomic(Path::new("BENCH_exec.json"), &json).expect("write BENCH_exec.json");
    println!("wrote BENCH_exec.json");

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
}
