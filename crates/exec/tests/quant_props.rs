//! Fixed-point execution properties: the quantized datapath tracks the
//! float oracle within the analytic error bound, saturating arithmetic
//! stays deterministic across thread counts, and the acceptance
//! criterion of the quantization study — `Fixed<10>` VGG16-D inference
//! at `m = 2` within 0.05 of the float oracle — holds end to end
//! through `NetworkExecutor`.

use proptest::prelude::*;
use wino_core::{ConvShape, WinogradParams};
use wino_exec::{
    quant_error_bound, EnginePlan, ExecConfig, LayerPlan, NetworkExecutor, Precision, PreparedPlan,
    PreparedWinograd, QuantConfig, Schedule,
};
use wino_models::{shrink, vgg16d};
use wino_tensor::{ErrorStats, Fixed, Shape4, SplitMix64, Tensor4};

fn random_pair(seed: u64, shape: Shape4, k: usize) -> (Tensor4<f32>, Tensor4<f32>) {
    let mut rng = SplitMix64::new(seed);
    let input = Tensor4::from_fn(shape, |_, _, _, _| rng.uniform_f32(-1.0, 1.0));
    let kernels = Tensor4::from_fn(Shape4 { n: k, c: shape.c, h: 3, w: 3 }, |_, _, _, _| {
        rng.uniform_f32(-0.5, 0.5)
    });
    (input, kernels)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Quantized Winograd layer execution deviates from the float path
    /// by no more than the analytic forward-error bound.
    #[test]
    fn fixed_layer_error_stays_under_the_analytic_bound(
        seed in 0u64..1_000,
        c in 1usize..4,
        k in 1usize..3,
        h in 6usize..12,
        w in 6usize..12,
        m_idx in 0usize..3,
        frac_idx in 0usize..3,
    ) {
        let m = [2usize, 3, 4][m_idx];
        let frac = [10u32, 12, 14][frac_idx];
        let shape = ConvShape::same_padded(h, w, c, k, 3);
        let plan = LayerPlan {
            layer: "prop".into(),
            shape,
            engine: EnginePlan::Winograd(WinogradParams::new(m, 3).unwrap()),
        };
        let (input, kernels) = random_pair(seed, Shape4 { n: 1, c, h, w }, k);
        let run = |precision| PreparedPlan::new(&plan, precision, &kernels).unwrap().run(&input, 2);
        let float = run(Precision::Float);
        let fixed = run(Precision::Fixed { frac });
        let stats = ErrorStats::between(fixed.as_slice(), float.as_slice());
        let bound = quant_error_bound(WinogradParams::new(m, 3).unwrap(), c, frac, 1.0, 0.5);
        prop_assert!(
            stats.max_abs <= bound,
            "F({m}x{m}) FRAC={frac} c={c}: measured {:.3e} exceeds bound {:.3e}",
            stats.max_abs,
            bound
        );
    }

    /// The saturating fixed-point datapath is bitwise identical at any
    /// thread count, exactly like the float one.
    #[test]
    fn fixed_execution_is_thread_count_invariant(seed in 0u64..1_000, threads in 2usize..6) {
        let (input, kernels) = random_pair(seed, Shape4 { n: 1, c: 3, h: 9, w: 11 }, 2);
        let qi = input.map(Fixed::<10>::from_f32);
        let qk = kernels.map(Fixed::<10>::from_f32);
        let bank = PreparedWinograd::new(WinogradParams::new(2, 3).unwrap(), &qk).unwrap();
        let one = bank.execute(&qi, 1, 1);
        let many = bank.execute(&qi, 1, threads);
        prop_assert_eq!(one.as_slice(), many.as_slice());
    }
}

/// The ISSUE's acceptance criterion: `Fixed<10>` VGG16-D conv-layer
/// inference runs end-to-end through `NetworkExecutor` and stays within
/// 0.05 max-abs of the float oracle at `m = 2` on the shrunk workload.
#[test]
fn fixed10_vgg16d_m2_tracks_the_float_oracle_within_5e_2() {
    let wl = shrink(&vgg16d(1), 16, 8);
    let schedule = Schedule::homogeneous(&wl, 2).unwrap();
    let quant = QuantConfig::uniform_fixed(schedule.len(), 10).unwrap();
    let qsched = schedule.clone().with_quant(quant).unwrap();
    let config = ExecConfig::with_threads(2);
    let seed = 0x5EED_0001;
    let float = NetworkExecutor::with_seed(wl.clone(), schedule, config, seed).unwrap();
    let quantized = NetworkExecutor::with_seed(wl.clone(), qsched, config, seed).unwrap();

    let mut worst = 0.0f64;
    for i in 0..wl.layers().len() {
        let input = float.layer_input(i);
        let reference = float.execute_layer(i, &input).unwrap();
        let got = quantized.execute_layer(i, &input).unwrap();
        worst = worst.max(ErrorStats::between(got.as_slice(), reference.as_slice()).max_abs);
    }
    assert!(worst < 0.05, "Fixed<10> m=2 VGG16-D deviates by {worst:.3e}");
    assert!(worst > 0.0, "quantization must actually perturb the output");

    // The quantized engine label surfaces the datapath.
    assert_eq!(quantized.engine_label(0), "F(2x2, 3x3) Q22.10");
    assert_eq!(float.engine_label(0), "F(2x2, 3x3)");
    let report = quantized.run();
    assert!(report.layers.iter().all(|l| l.engine.contains("Q22.10")));
}

/// `verify()` against the *spatial* oracle also holds for the quantized
/// network, just with a quantization-sized tolerance.
#[test]
fn quantized_network_verifies_against_the_spatial_oracle() {
    let wl = shrink(&vgg16d(1), 12, 6);
    let schedule = Schedule::homogeneous(&wl, 2).unwrap();
    let quant = QuantConfig::uniform_fixed(schedule.len(), 12).unwrap();
    let qsched = schedule.with_quant(quant).unwrap();
    let exec =
        NetworkExecutor::new(wl, qsched, ExecConfig::with_threads(2)).expect("valid schedule");
    let worst = exec.verify(0.05).expect("within quantization tolerance");
    assert!(worst > 1e-6, "fixed point cannot be float-exact");
}

#[test]
fn with_quant_rejects_mismatched_layer_counts() {
    let wl = shrink(&vgg16d(1), 12, 6);
    let schedule = Schedule::homogeneous(&wl, 2).unwrap();
    let wrong = QuantConfig::uniform_fixed(schedule.len() + 1, 10).unwrap();
    assert!(schedule.with_quant(wrong).is_err());
}
