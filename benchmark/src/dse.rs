//! `dse_search`: the paper's toolflow as a closed loop — explore the
//! per-layer algorithm space of each model with every strategy, select
//! the best-throughput design, lower it to a schedule and validate it.

use crate::metrics::Report;
use crate::trace::Trace;
use crate::{stats, sys, Args};
use std::hint::black_box;
use std::time::{Duration, Instant};
use wino_core::WinogradParams;
use wino_dse::{best_design, DesignPoint, Evaluator, Objective};
use wino_exec::{ExecConfig, NetworkExecutor, Schedule};
use wino_fpga::{virtex7_485t, Architecture};
use wino_models::{model_zoo, shrink};
use wino_search::{
    EvalCache, Exhaustive, Genetic, Greedy, HeterogeneousSpace, LayerDesign, ParetoArchive,
    SearchObjective, SearchSpace, SimulatedAnnealing, Strategy,
};

/// Consecutive iterations in the stretch the end-to-end figures come from.
const BEST_RUN: usize = 4;
const MULT_BUDGET: usize = 700;
const FREQ_HZ: f64 = 200e6;
/// Spaces up to this size are also searched exhaustively (TinyCNN's
/// 21 952 points), which bounds what a metaheuristic may report.
const ENUMERABLE: u128 = 1 << 16;

/// The four models' evaluators and search spaces.
struct Toolflow {
    evaluators: Vec<Evaluator>,
    spaces: Vec<HeterogeneousSpace>,
    build_ms: f64,
}

fn build() -> Toolflow {
    let start = Instant::now();
    let evaluators: Vec<Evaluator> =
        model_zoo(1).into_iter().map(|wl| Evaluator::new(wl, virtex7_485t())).collect();
    let spaces = evaluators
        .iter()
        .map(|ev| {
            HeterogeneousSpace::new(
                ev,
                vec![2, 3, 4, 6],
                vec![0.25, 0.5, 0.75, 1.0],
                MULT_BUDGET,
                FREQ_HZ,
            )
            .with_fft_sizes(vec![8, 16, 32])
        })
        .collect();
    Toolflow { evaluators, spaces, build_ms: start.elapsed().as_secs_f64() * 1e3 }
}

/// The paper's own selection, which every run re-derives: `m = 4`,
/// 28.05 ms on VGG16-D. Returns the milliseconds it took, or what is off.
fn paper_design(toolflow: &Toolflow) -> Result<f64, String> {
    let start = Instant::now();
    let best = best_design(
        &toolflow.evaluators[0],
        &[2, 3, 4],
        3,
        MULT_BUDGET,
        FREQ_HZ,
        Objective::Throughput,
    );
    let ms = start.elapsed().as_secs_f64() * 1e3;
    match best {
        Some((point, metrics))
            if point.params.m() == 4 && (metrics.total_latency_ms - 28.05).abs() < 0.01 =>
        {
            Ok(ms)
        }
        Some((point, metrics)) => Err(format!(
            "best_design picked m = {} at {:.2} ms, not m = 4 at 28.05 ms",
            point.params.m(),
            metrics.total_latency_ms
        )),
        None => Err("best_design found no feasible design".to_owned()),
    }
}

/// What one iteration produced.
#[derive(Default)]
struct Iteration {
    total_ms: f64,
    /// Milliseconds per strategy: greedy, annealing, genetic, exhaustive.
    strategy_ms: [f64; 4],
    lower_ms: f64,
    evaluations: usize,
    archive_len: usize,
    cache_hits: u64,
    cache_lookups: u64,
    /// The selected design's modeled throughput, per model.
    best_gops: Vec<f64>,
    /// The selected per-layer designs, per model.
    picks: Vec<Vec<LayerDesign>>,
    error: Option<String>,
}

fn iterate(
    toolflow: &Toolflow,
    seed: u64,
    op: u64,
    threads: usize,
    mut span: impl FnMut(&'static str, Instant, Instant),
) -> Iteration {
    let mut it = Iteration::default();
    let iteration_start = Instant::now();
    for (model, space) in toolflow.spaces.iter().enumerate() {
        let cache = EvalCache::new();
        let mut archive = ParetoArchive::new();
        // Seeds derive from the run's seed, the iteration and the model.
        let s = seed ^ op.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((model as u64 + 1) << 48);
        let greedy = Greedy { seed: s, ..Greedy::default() };
        let annealing =
            SimulatedAnnealing { seed: s ^ 1, iterations: 20_000, ..SimulatedAnnealing::default() };
        let genetic =
            Genetic { seed: s ^ 2, population: 64, generations: 100, ..Genetic::default() };
        let exhaustive = Exhaustive { threads };
        let mut strategies: Vec<(usize, &dyn Strategy)> =
            vec![(0, &greedy), (1, &annealing), (2, &genetic)];
        if space.size() <= ENUMERABLE {
            strategies.push((3, &exhaustive));
        }
        let mut best: Option<(Vec<usize>, f64)> = None;
        let (mut heuristic_best, mut exhaustive_best) = (f64::NEG_INFINITY, None);
        for (slot, strategy) in strategies {
            let start = Instant::now();
            let outcome = strategy.search(space, &cache, SearchObjective::Throughput, &mut archive);
            let end = Instant::now();
            span(strategy.name(), start, end);
            it.strategy_ms[slot] += (end - start).as_secs_f64() * 1e3;
            it.evaluations += outcome.evaluations;
            let score = outcome.best_score(SearchObjective::Throughput);
            if slot == 3 {
                exhaustive_best = Some(score);
            } else {
                heuristic_best = heuristic_best.max(score);
            }
            if let Some((genome, evaluation)) = outcome.best {
                if best.as_ref().is_none_or(|b| evaluation.throughput_gops > b.1) {
                    best = Some((genome, evaluation.throughput_gops));
                }
            }
        }
        if exhaustive_best.is_some_and(|bound| heuristic_best > bound) {
            it.error = Some(format!(
                "{}: a metaheuristic beat exhaustive search",
                space.workload().name()
            ));
        }
        it.archive_len += archive.len();
        it.cache_hits += cache.hits();
        it.cache_lookups += cache.hits() + cache.misses();

        // Select -> lower -> validate.
        let start = Instant::now();
        let lowered =
            best.as_ref().ok_or("no feasible design".to_owned()).and_then(|(genome, _)| {
                let designs =
                    space.layer_designs(genome).ok_or("the best genome does not decode")?;
                let schedule = Schedule::from_layer_designs(space.workload(), &designs)
                    .map_err(|e| e.to_string())?;
                schedule.validate(space.workload()).map_err(|e| e.to_string())?;
                black_box(&schedule);
                Ok(designs)
            });
        let end = Instant::now();
        span("lower", start, end);
        it.lower_ms += (end - start).as_secs_f64() * 1e3;
        match lowered {
            Ok(picks) => {
                it.picks.push(picks);
                it.best_gops.push(best.expect("lowered from it").1);
            }
            Err(e) => it.error = Some(format!("{}: {e}", space.workload().name())),
        }
    }
    it.total_ms = iteration_start.elapsed().as_secs_f64() * 1e3;
    it
}

/// Lowers each distinct pick onto the shrunk model and runs the
/// executor's own verification; the share that passes.
fn pick_verified_share(toolflow: &Toolflow, picks: &[Vec<Vec<LayerDesign>>]) -> f64 {
    let mut distinct: Vec<(usize, &Vec<LayerDesign>)> = Vec::new();
    for per_model in picks {
        for (model, pick) in per_model.iter().enumerate() {
            if !distinct.contains(&(model, pick)) {
                distinct.push((model, pick));
            }
        }
    }
    let verified = distinct
        .iter()
        .filter(|(model, pick)| {
            let small = shrink(toolflow.spaces[*model].workload(), 12, 4);
            let ok = Schedule::from_layer_designs(&small, pick)
                .ok()
                .and_then(|s| {
                    NetworkExecutor::new(small.clone(), s, ExecConfig::with_threads(1)).ok()
                })
                .is_some_and(|exec| exec.verify(1e-2).is_ok());
            if !ok {
                let algos: Vec<String> =
                    pick.iter().map(|d| format!("{}={}", d.layer, d.algo)).collect();
                println!("pick fails verification on {}: {}", small.name(), algos.join(" "));
            }
            ok
        })
        .count();
    verified as f64 / distinct.len().max(1) as f64
}

/// Microseconds per uncached `Evaluator::evaluate` on the paper's three
/// homogeneous design points.
fn evaluate_us(evaluator: &Evaluator, budget: Duration) -> f64 {
    let points: Vec<DesignPoint> = [2, 3, 4]
        .iter()
        .map(|&m| {
            DesignPoint::with_mult_budget(
                WinogradParams::new(m, 3).expect("valid F(m, 3)"),
                Architecture::SharedTransform,
                MULT_BUDGET,
                FREQ_HZ,
            )
        })
        .collect();
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < budget {
        for point in &points {
            black_box(evaluator.evaluate(black_box(point)));
        }
        calls += points.len() as u64;
    }
    start.elapsed().as_secs_f64() * 1e6 / calls as f64
}

/// Runs the search workload and fills `report`.
pub fn run(args: &Args, report: &mut Report, trace: &mut Trace) {
    let threads = sys::thread_budget();
    // A set-up is the toolflow plus the paper's own design re-derived.
    let ((toolflow, paper), setup_s) = crate::fastest_setup(
        || {
            let toolflow = build();
            let paper = paper_design(&toolflow);
            (toolflow, paper)
        },
        drop,
    );
    report.set("setup_s", setup_s);
    let mut failures: Vec<String> = paper.as_ref().err().cloned().into_iter().collect();
    let best_design_ms = paper.unwrap_or(0.0);
    let iteration_name = trace.intern("iteration");

    // One unmeasured iteration, then the measured ones. A traced run
    // alternates plain and traced iterations for the overhead figure.
    iterate(&toolflow, args.seed, 0, threads, |_, _, _| {});
    let budget = Duration::from_secs_f64(args.seconds * if args.trace { 0.7 } else { 1.0 });
    let loop_start = Instant::now();
    let (mut plain, mut traced): (Vec<Iteration>, Vec<Iteration>) = (Vec::new(), Vec::new());
    let (mut allocs, mut alloc_bytes) = (0u64, 0u64);
    while loop_start.elapsed() < budget {
        let op = report.attempted + 1;
        let trace_this = args.trace && op.is_multiple_of(2);
        let it = if trace_this {
            let parent = trace.record(iteration_name, trace.now_ns(), 0, None, op);
            let mut calls: Vec<(&'static str, Instant, Instant)> = Vec::with_capacity(32);
            let (it, counted) = sys::counting_allocations(|| {
                iterate(&toolflow, args.seed, op, threads, |name, s, e| calls.push((name, s, e)))
            });
            allocs += counted.0;
            alloc_bytes += counted.1;
            trace.close(parent, trace.now_ns());
            for (name, s, e) in calls {
                let id = trace.intern(&format!("search.{name}"));
                trace.record(id, trace.ns_at(s), trace.ns_at(e), Some(parent), op);
            }
            it
        } else {
            iterate(&toolflow, args.seed, op, threads, |_, _, _| {})
        };
        report.attempted += 1;
        if let Some(e) = &it.error {
            failures.push(format!("iteration {op}: {e}"));
        }
        if trace_this { &mut traced } else { &mut plain }.push(it);
    }
    let wall_s = loop_start.elapsed().as_secs_f64();

    report.failed = failures.len() as u64;
    report.correct = failures.is_empty();
    for f in failures.iter().take(5) {
        println!("FAILED {f}");
    }
    // End-to-end: the best sustained stretch of the loop (see the
    // README on why), `BEST_RUN` consecutive iterations long. Every
    // iteration requests nearly the same number of evaluations, so the
    // evaluation rate is taken over the same stretch.
    let iteration_ms: Vec<f64> = plain.iter().map(|i| i.total_ms).collect();
    let evaluations: Vec<f64> = plain.iter().map(|i| i.evaluations as f64).collect();
    let best_ms = stats::best_run_median(&iteration_ms, BEST_RUN);
    report.set("op_p50_ms", best_ms);
    report.set("ops_per_s", stats::median(&evaluations) / (best_ms / 1e3));
    report.set("peak_rss_mb", sys::peak_rss_mb());
    println!("{} iterations in {wall_s:.2} s", report.attempted);
    if !args.trace {
        return;
    }

    // Typical figures over the whole loop, beside the best stretch.
    report.set("search.toolflow_p50_ms", stats::median(&iteration_ms));
    report.set(
        "search.toolflow_p75_ms",
        stats::reported_quantile("search.toolflow_p75_ms", &iteration_ms, 0.75),
    );
    report.set(
        "search.evals_per_s",
        evaluations.iter().sum::<f64>() / (iteration_ms.iter().sum::<f64>() / 1e3),
    );
    report.set("search.space_build_ms", toolflow.build_ms);
    report.set("dse.best_design_ms", best_design_ms);
    let per =
        |f: &dyn Fn(&Iteration) -> f64| stats::median(&traced.iter().map(f).collect::<Vec<f64>>());
    for (slot, name) in
        ["search.greedy_ms", "search.sa_ms", "search.genetic_ms", "search.exhaustive_ms"]
            .iter()
            .enumerate()
    {
        report.set(name, per(&|i| i.strategy_ms[slot]));
    }
    report.set("search.lower_ms", per(&|i| i.lower_ms));
    report.set("search.evals_per_iter", per(&|i| i.evaluations as f64));
    report.set("search.archive_len", per(&|i| i.archive_len as f64));
    let (hits, lookups) =
        traced.iter().fold((0, 0), |a, i| (a.0 + i.cache_hits, a.1 + i.cache_lookups));
    report.set("search.cache_hit_share", hits as f64 / lookups.max(1) as f64);
    let gops: Vec<f64> =
        plain.iter().chain(&traced).flat_map(|i| i.best_gops.iter().copied()).collect();
    report.set("search.best_gops", stats::geometric_mean(&gops));
    for (model, space) in toolflow.spaces.iter().enumerate() {
        let per_model: Vec<f64> =
            plain.iter().chain(&traced).filter_map(|i| i.best_gops.get(model).copied()).collect();
        println!(
            "  best_gops {:<10} min {:.1} max {:.1}",
            space.workload().name(),
            per_model.iter().copied().fold(f64::INFINITY, f64::min),
            per_model.iter().copied().fold(0.0, f64::max)
        );
    }
    let picks: Vec<_> = plain.iter().chain(&traced).map(|i| i.picks.clone()).collect();
    report.set("search.pick_verified_share", pick_verified_share(&toolflow, &picks));
    report.set(
        "dse.evaluate_us",
        evaluate_us(&toolflow.evaluators[0], Duration::from_secs_f64(args.seconds * 0.02)),
    );
    let traced_ms: Vec<f64> = traced.iter().map(|i| i.total_ms).collect();
    report.set(
        "trace.overhead_share",
        stats::median(&traced_ms) / stats::median(&iteration_ms) - 1.0,
    );
    let ops = traced.len().max(1) as f64;
    report.set("alloc.count_per_op", allocs as f64 / ops);
    report.set("alloc.bytes_per_op", alloc_bytes as f64 / ops);
    report.set("trace.spans", trace.len() as f64);
}
