//! Runtime comparison of the convolution algorithms on a VGG-style layer.
//!
//! This is the software analogue of the paper's Fig. 1 claim: the
//! element-wise multiply reduction translates into real speedups once the
//! transforms are amortized over channels and kernels. The three prepared
//! backends (im2col GEMM, overlap–save FFT, Winograd) are prepared outside
//! the timed closure, so only single-threaded `execute` is measured; the
//! spatial oracle is the unprepared baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use wino_baselines::spatial_convolve;
use wino_core::WinogradParams;
use wino_exec::{PreparedFft, PreparedSpatial, PreparedWinograd};
use wino_tensor::{Shape4, SplitMix64, Tensor4};

fn layer(rng: &mut SplitMix64, c: usize, k: usize, hw: usize) -> (Tensor4<f32>, Tensor4<f32>) {
    let input =
        Tensor4::from_fn(Shape4 { n: 1, c, h: hw, w: hw }, |_, _, _, _| rng.uniform_f32(-1.0, 1.0));
    let kernels =
        Tensor4::from_fn(Shape4 { n: k, c, h: 3, w: 3 }, |_, _, _, _| rng.uniform_f32(-0.3, 0.3));
    (input, kernels)
}

fn bench_conv(criterion: &mut Criterion) {
    let mut rng = SplitMix64::new(1);
    // A conv4-flavoured layer, channel-reduced to keep iterations short.
    let (input, kernels) = layer(&mut rng, 32, 32, 28);
    let mut group = criterion.benchmark_group("conv_28x28x32_to_32");
    group.sample_size(10).measurement_time(Duration::from_secs(3));

    group.bench_function("spatial", |b| b.iter(|| spatial_convolve(&input, &kernels, 1)));
    let spatial = PreparedSpatial::new(&kernels, 1);
    group.bench_function("im2col_gemm", |b| b.iter(|| spatial.execute(&input, 1, 1)));
    let fft = PreparedFft::new(16, &kernels);
    group.bench_function("fft", |b| b.iter(|| fft.execute(&input, 1, 1)));
    for m in [2usize, 4, 6] {
        let params = WinogradParams::new(m, 3).expect("valid");
        let bank = PreparedWinograd::new(params, &kernels).expect("bank prepares");
        group.bench_with_input(
            BenchmarkId::new("winograd", format!("F({m}x{m},3x3)")),
            &m,
            |b, _| b.iter(|| bank.execute(&input, 1, 1)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_conv);
criterion_main!(benches);
