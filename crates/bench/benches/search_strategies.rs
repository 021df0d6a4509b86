//! Relative cost of the pluggable search strategies on heterogeneous
//! per-layer spaces, and the effect of parallelizing exhaustive
//! enumeration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use wino_dse::Evaluator;
use wino_fpga::virtex7_485t;
use wino_models::{tiny_cnn, vgg16d};
use wino_search::{
    EvalCache, Exhaustive, Genetic, Greedy, HeterogeneousSpace, ParetoArchive, SearchObjective,
    SimulatedAnnealing, Strategy,
};

fn bench_strategies(criterion: &mut Criterion) {
    // VGG16-D's heterogeneous space (6^13 designs): metaheuristics only.
    let evaluator = Evaluator::new(vgg16d(1), virtex7_485t());
    let space = HeterogeneousSpace::new(&evaluator, vec![2, 3, 4], vec![0.5, 1.0], 700, 200e6);

    let mut group = criterion.benchmark_group("strategies_vgg16_heterogeneous");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    let greedy = Greedy { restarts: 2, ..Default::default() };
    let annealing = SimulatedAnnealing { iterations: 1_000, ..Default::default() };
    let genetic = Genetic { population: 16, generations: 10, ..Default::default() };
    for strategy in [&greedy as &dyn Strategy, &annealing, &genetic] {
        group.bench_function(strategy.name(), |b| {
            b.iter(|| {
                let cache = EvalCache::new();
                let mut archive = ParetoArchive::new();
                strategy.search(&space, &cache, SearchObjective::Throughput, &mut archive)
            })
        });
    }
    group.finish();

    // TinyCNN's enumerable space: exhaustive scaling across threads.
    let evaluator = Evaluator::new(tiny_cnn(1), virtex7_485t());
    let space = HeterogeneousSpace::new(&evaluator, vec![2, 3, 4], vec![0.5, 1.0], 700, 200e6);
    let mut group = criterion.benchmark_group("exhaustive_tiny_cnn_6pow3");
    group.sample_size(10).measurement_time(Duration::from_secs(2));
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &threads| {
            b.iter(|| {
                let cache = EvalCache::new();
                let mut archive = ParetoArchive::new();
                Exhaustive { threads }.search(
                    &space,
                    &cache,
                    SearchObjective::Throughput,
                    &mut archive,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_strategies);
criterion_main!(benches);
