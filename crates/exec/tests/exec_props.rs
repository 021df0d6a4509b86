//! Property tests for the execution engine: on random layer geometries
//! (shapes, strides, kernel sizes, tile sizes, thread counts) the
//! Winograd engine must match the `wino_baselines` spatial oracle within
//! fp32 tolerance, the spatial engine must match it bitwise (in `f32`
//! and in `Fixed`), and both must be bitwise thread-count-invariant.

use proptest::prelude::*;
use wino_baselines::spatial_convolve_strided;
use wino_core::{ConvShape, WinogradParams};
use wino_exec::{
    EnginePlan, LayerPlan, Precision, PreparedPlan, PreparedSpatial, PreparedWinograd,
};
use wino_tensor::{ErrorStats, Fixed, Shape4, SplitMix64, Tensor4};

fn random_pair(seed: u64, shape: Shape4, k: usize, r: usize) -> (Tensor4<f32>, Tensor4<f32>) {
    let mut rng = SplitMix64::new(seed);
    let input = Tensor4::from_fn(shape, |_, _, _, _| rng.uniform_f32(-1.0, 1.0));
    let kernels = Tensor4::from_fn(Shape4 { n: k, c: shape.c, h: r, w: r }, |_, _, _, _| {
        rng.uniform_f32(-1.0, 1.0)
    });
    (input, kernels)
}

/// Image `i` of a batch, as a batch-1 tensor.
fn image(batch: &Tensor4<f32>, i: usize) -> Tensor4<f32> {
    let s = batch.shape();
    Tensor4::from_fn(Shape4 { n: 1, ..s }, |_, c, y, x| batch.at(i, c, y, x))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Winograd execution equals the spatial oracle on arbitrary
    /// stride-1 geometries, for every tile size and thread count.
    #[test]
    fn winograd_exec_matches_spatial_oracle(
        seed in 0u64..1_000_000,
        n in 1usize..3,
        c in 1usize..4,
        k in 1usize..4,
        h in 4usize..13,
        w in 4usize..13,
        m in 2usize..6,
        pad in 0usize..2,
        threads in 1usize..5,
    ) {
        let (input, kernels) = random_pair(seed, Shape4 { n, c, h, w }, k, 3);
        let bank = PreparedWinograd::new(WinogradParams::new(m, 3).unwrap(), &kernels).unwrap();
        let got = bank.execute(&input, pad, threads);
        let oracle = spatial_convolve_strided(&input, &kernels, pad, 1);
        prop_assert_eq!(got.shape(), oracle.shape());
        let stats = ErrorStats::between(got.as_slice(), oracle.as_slice());
        prop_assert!(stats.within_abs(2e-4), "F({}x{},3x3): {}", m, m, stats);
    }

    /// The spatial engine is bitwise the oracle for any kernel size,
    /// stride, padding and batch, on outputs that span several
    /// `PANEL_TILES`-position panels with a ragged last one; the plan
    /// dispatcher routes strided layers to it, and every lane of a
    /// prepared spatial plan equals its solo run.
    #[test]
    fn strided_plans_match_oracle_bitwise(
        seed in 0u64..1_000_000,
        n in 1usize..3,
        c in 1usize..4,
        k in 1usize..4,
        r in prop::sample::select(vec![1usize, 3, 5, 7, 11]),
        stride in 1usize..5,
        half_pad in any::<bool>(),
        (out_h, out_w) in (9usize..14, 9usize..14),
        slack in 0usize..4,
        threads in 1usize..5,
    ) {
        let pad = if half_pad { r / 2 } else { 0 };
        // Sized so the output is out_h × out_w: 81..=169 positions, which
        // is always more than one 64-position panel and never a multiple
        // of 64. `slack` leaves input columns the last window never reads.
        let extent = |out: usize| (out - 1) * stride + r + slack % stride - 2 * pad;
        let (h, w) = (extent(out_h), extent(out_w));
        let (input, kernels) = random_pair(seed, Shape4 { n, c, h, w }, k, r);
        let oracle = spatial_convolve_strided(&input, &kernels, pad, stride);
        prop_assert_eq!((oracle.shape().h, oracle.shape().w), (out_h, out_w));
        let direct = PreparedSpatial::new(&kernels, stride).execute(&input, pad, threads);
        prop_assert_eq!(direct.as_slice(), oracle.as_slice());

        let plan = LayerPlan {
            layer: "prop".into(),
            shape: ConvShape { h, w, c, k, r, stride, pad },
            engine: EnginePlan::Spatial,
        };
        let prepared = PreparedPlan::new(&plan, Precision::Float, &kernels).unwrap();
        let via_plan = prepared.run(&input, threads);
        prop_assert_eq!(via_plan.as_slice(), oracle.as_slice());
        let lanes: Vec<Tensor4<f32>> = (0..n).map(|i| image(&input, i)).collect();
        for (i, out) in prepared.run_lanes(&lanes, threads).iter().enumerate() {
            let (solo, expected) = (prepared.run(&lanes[i], threads), image(&oracle, i));
            prop_assert_eq!(out.as_slice(), solo.as_slice());
            prop_assert_eq!(out.as_slice(), expected.as_slice());
        }
    }

    /// In saturating `Fixed<10>` arithmetic the spatial engine is still
    /// bitwise the oracle — including when accumulators saturate, where
    /// any reordering of the sum would show — both called directly and
    /// through a fixed-point prepared plan.
    #[test]
    fn fixed_spatial_matches_fixed_oracle_bitwise(
        seed in 0u64..1_000_000,
        c in 1usize..4,
        r in prop::sample::select(vec![1usize, 3, 5, 7, 11]),
        stride in 1usize..5,
        out_side in 9usize..14,
        scale in prop::sample::select(vec![1.0f32, 1500.0]),
        threads in 1usize..5,
    ) {
        let pad = r / 2;
        let side = (out_side - 1) * stride + r - 2 * pad;
        let (input, kernels) = random_pair(seed, Shape4 { n: 2, c, h: side, w: side }, 3, r);
        let input = input.map(|x| x * scale);
        let kernels = kernels.map(|x| x * scale);
        let (qi, qk) = (input.map(Fixed::<10>::from_f32), kernels.map(Fixed::<10>::from_f32));
        let oracle = spatial_convolve_strided(&qi, &qk, pad, stride);
        let direct = PreparedSpatial::new(&qk, stride).execute(&qi, pad, threads);
        prop_assert_eq!(direct.as_slice(), oracle.as_slice());

        let plan = LayerPlan {
            layer: "prop-q".into(),
            shape: ConvShape { h: side, w: side, c, k: 3, r, stride, pad },
            engine: EnginePlan::Spatial,
        };
        let prepared = PreparedPlan::new(&plan, Precision::Fixed { frac: 10 }, &kernels).unwrap();
        let via_plan = prepared.run(&input, threads);
        let dequantized = oracle.map(|q| q.to_f32());
        prop_assert_eq!(via_plan.as_slice(), dequantized.as_slice());
    }

    /// Thread count never changes a single bit of Winograd output.
    #[test]
    fn winograd_is_thread_count_invariant(
        seed in 0u64..1_000_000,
        h in 4usize..11,
        w in 4usize..11,
        m in 2usize..5,
        threads in 2usize..7,
    ) {
        let (input, kernels) = random_pair(seed, Shape4 { n: 2, c: 2, h, w }, 3, 3);
        let bank = PreparedWinograd::new(WinogradParams::new(m, 3).unwrap(), &kernels).unwrap();
        let one = bank.execute(&input, 1, 1);
        let many = bank.execute(&input, 1, threads);
        prop_assert_eq!(one.as_slice(), many.as_slice());
    }
}
