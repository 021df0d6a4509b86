//! Cross-crate functional pipeline tests: the same layer computed by
//! every implementation in the workspace must agree.

use winofpga::core::WinogradAlgorithm;
use winofpga::prelude::*;
use winofpga::tensor::Ratio;

fn random_layer(
    seed: u64,
    n: usize,
    c: usize,
    hw: usize,
    k: usize,
) -> (Tensor4<f32>, Tensor4<f32>) {
    let mut rng = SplitMix64::new(seed);
    let input =
        Tensor4::from_fn(Shape4 { n, c, h: hw, w: hw }, |_, _, _, _| rng.uniform_f32(-1.0, 1.0));
    let kernels =
        Tensor4::from_fn(Shape4 { n: k, c, h: 3, w: 3 }, |_, _, _, _| rng.uniform_f32(-0.5, 0.5));
    (input, kernels)
}

#[test]
fn five_implementations_agree() {
    let (input, kernels) = random_layer(100, 1, 4, 12, 6);
    let reference = spatial_convolve(&input, &kernels, 1);

    // 1. im2col + GEMM
    let im2col = PreparedSpatial::new(&kernels, 1).execute(&input, 1, 1);
    assert!(ErrorStats::between(im2col.as_slice(), reference.as_slice()).within_abs(1e-4));

    // 2. FFT (overlap–save, 16-point tiles)
    let fft = PreparedFft::new(16, &kernels).execute(&input, 1, 1);
    assert!(ErrorStats::between(fft.as_slice(), reference.as_slice()).within_abs(1e-4));

    // 3. Functional Winograd (several tile sizes)
    for m in [2usize, 3, 4] {
        let algo =
            WinogradAlgorithm::<f32>::for_params(WinogradParams::new(m, 3).unwrap()).unwrap();
        let wino = algo.convolve_layer(&input, &kernels, 1);
        let stats = ErrorStats::between(wino.as_slice(), reference.as_slice());
        assert!(stats.within_abs(1e-4), "functional m={m}: {stats}");
    }

    // 4. Cycle-level engine (both architectures)
    for arch_ref in [false, true] {
        let params = WinogradParams::new(4, 3).unwrap();
        let config = if arch_ref {
            EngineConfig::reference(params, 3)
        } else {
            EngineConfig::proposed(params, 3)
        };
        let engine = WinogradEngine::new(config).unwrap();
        let (out, report) = engine.run_layer(&input, &kernels, 1);
        let stats = ErrorStats::between(out.as_slice(), reference.as_slice());
        assert!(stats.within_abs(1e-4), "engine(ref={arch_ref}): {stats}");
        assert_eq!(report.cycles, engine.predicted_cycles(input.shape(), 6, 1));
    }
}

#[test]
fn exact_rational_chain_is_bit_identical() {
    // Over exact rationals, Winograd == im2col GEMM == spatial, with
    // zero tolerance — algebra, not luck.
    let mut rng = SplitMix64::new(7);
    let shape = Shape4 { n: 1, c: 3, h: 8, w: 9 };
    let input = Tensor4::from_fn(shape, |_, _, _, _| ratio(rng.below(9) as i128 - 4, 2));
    let kernels = Tensor4::from_fn(Shape4 { n: 2, c: 3, h: 3, w: 3 }, |_, _, _, _| {
        ratio(rng.below(9) as i128 - 4, 3)
    });
    let reference = spatial_convolve(&input, &kernels, 1);
    assert_eq!(PreparedSpatial::new(&kernels, 1).execute(&input, 1, 1), reference);
    for m in [2usize, 3, 5] {
        let set = TransformSet::generate(WinogradParams::new(m, 3).unwrap()).unwrap();
        let algo = WinogradAlgorithm::<Ratio>::exact(&set);
        assert_eq!(algo.convolve_layer(&input, &kernels, 1), reference, "m={m}");
    }
}

#[test]
fn engine_latency_model_consistent_with_dse_evaluator() {
    // The DSE evaluator (analytical, fractional tiles) and the cycle
    // simulator (exact tiles) must agree when shapes divide evenly.
    let params = WinogradParams::new(2, 3).unwrap();
    let engine = WinogradEngine::new(EngineConfig::proposed(params, 4)).unwrap();
    let (input, kernels) = random_layer(8, 1, 8, 16, 8);
    let (_, report) = engine.run_layer(&input, &kernels, 1);

    // Analytical: tiles = (16/2)^2 = 64, groups = 2, C = 8.
    let analytical = 64 * 2 * 8 + engine.config().pipeline_depth() as u64 - 1;
    assert_eq!(report.cycles, analytical);

    // DSE layer model (per-layer seconds at 200 MHz).
    let mut wl = Workload::new("one-layer", 1);
    wl.push("l", "G", ConvShape::same_padded(16, 16, 8, 8, 3));
    let lat =
        wl.latency_seconds(params, 4.0, engine.config().pipeline_depth(), 200e6, TileModel::Ceil);
    assert!((lat - report.latency_seconds(200e6)).abs() < 1e-12);
}

#[test]
fn batch_and_padding_variants() {
    for (n, hw, pad) in [(2usize, 9usize, 0usize), (1, 11, 1), (3, 8, 1)] {
        let (input, kernels) = random_layer(n as u64 * 31 + hw as u64, n, 2, hw, 3);
        let reference = spatial_convolve(&input, &kernels, pad);
        let algo =
            WinogradAlgorithm::<f32>::for_params(WinogradParams::new(3, 3).unwrap()).unwrap();
        let wino = algo.convolve_layer(&input, &kernels, pad);
        assert_eq!(wino.shape(), reference.shape());
        let stats = ErrorStats::between(wino.as_slice(), reference.as_slice());
        assert!(stats.within_abs(1e-4), "n={n} hw={hw} pad={pad}: {stats}");
    }
}

#[test]
fn quantized_pipeline_runs_end_to_end() {
    use winofpga::tensor::Fixed;
    let (input, kernels) = random_layer(55, 1, 2, 8, 2);
    let reference = spatial_convolve(&input, &kernels, 1);
    let algo =
        WinogradAlgorithm::<Fixed<20>>::for_params(WinogradParams::new(2, 3).unwrap()).unwrap();
    let qi = input.map(Fixed::<20>::from_f32);
    let qk = kernels.map(Fixed::<20>::from_f32);
    let out = algo.convolve_layer(&qi, &qk, 1);
    let back: Vec<f32> = out.as_slice().iter().map(|q| q.to_f32()).collect();
    let stats = ErrorStats::between(&back, reference.as_slice());
    // 20 fractional bits keep the error near the quantization step.
    assert!(stats.within_abs(1e-3), "{stats}");
}

#[test]
fn dse_figures_and_tables_render_without_panicking() {
    let wl = vgg16d(1);
    let ev = Evaluator::new(wl.clone(), virtex7_485t());
    let _ = fig1(&wl).to_table(3).to_ascii();
    let _ = fig2(&wl, CostModel::ShiftFree).to_table(1).to_csv();
    let _ = fig3(&wl, CostModel::Naive).to_table(2).to_ascii();
    let _ = fig6(&wl, 200e6).to_table(2).to_csv();
    let _ = table1(ev.device()).to_text().to_ascii();
    let _ = table2_text(&table2(&ev)).to_ascii();
}
