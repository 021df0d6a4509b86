//! Runtime throughput of the `wino-exec` execution engine against the
//! scalar spatial oracle, across tile sizes and thread counts. Each
//! engine prepares its kernel bank once, outside the timed loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use wino_baselines::spatial_convolve;
use wino_core::WinogradParams;
use wino_exec::{PreparedSpatial, PreparedWinograd};
use wino_tensor::{Shape4, SplitMix64, Tensor4};

fn layer(seed: u64, h: usize, c: usize, k: usize) -> (Tensor4<f32>, Tensor4<f32>) {
    let mut rng = SplitMix64::new(seed);
    let input =
        Tensor4::from_fn(Shape4 { n: 1, c, h, w: h }, |_, _, _, _| rng.uniform_f32(-1.0, 1.0));
    let kernels =
        Tensor4::from_fn(Shape4 { n: k, c, h: 3, w: 3 }, |_, _, _, _| rng.uniform_f32(-1.0, 1.0));
    (input, kernels)
}

fn bench_exec(criterion: &mut Criterion) {
    // A mid-size VGG-shaped layer: 32x32, 32 -> 32 channels.
    let (input, kernels) = layer(42, 32, 32, 32);

    let mut group = criterion.benchmark_group("exec_throughput_32x32x32x32");
    group.sample_size(10).measurement_time(Duration::from_secs(2));
    group.bench_function("spatial_oracle", |b| b.iter(|| spatial_convolve(&input, &kernels, 1)));
    let spatial = PreparedSpatial::new(&kernels, 1);
    group.bench_function("spatial_mt_4t", |b| b.iter(|| spatial.execute(&input, 1, 4)));
    for m in [2usize, 4, 6] {
        let params = WinogradParams::new(m, 3).expect("valid");
        let bank = PreparedWinograd::new(params, &kernels).expect("generates");
        for threads in [1usize, 4, 8] {
            group.bench_with_input(
                BenchmarkId::new(format!("winograd_m{m}"), format!("{threads}t")),
                &threads,
                |b, &threads| b.iter(|| bank.execute(&input, 1, threads)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_exec);
criterion_main!(benches);
