//! Property tests for the prepared FFT backend: on random layer
//! geometries the overlap–save engine must match the `wino_baselines`
//! spatial oracle within the analytic [`fft_error_bound`] tolerance,
//! must be bitwise thread-count-invariant, and a prepared FFT plan must
//! be bitwise the backend it lowers to.

use proptest::prelude::*;
use wino_baselines::spatial_convolve_strided;
use wino_core::ConvShape;
use wino_exec::{
    fft_error_bound, ConvBackend, EnginePlan, LayerPlan, Precision, PreparedFft, PreparedPlan,
};
use wino_tensor::{ErrorStats, Shape4, SplitMix64, Tensor4};

fn random_pair(seed: u64, shape: Shape4, k: usize, r: usize) -> (Tensor4<f32>, Tensor4<f32>) {
    let mut rng = SplitMix64::new(seed);
    let input = Tensor4::from_fn(shape, |_, _, _, _| rng.uniform_f32(-1.0, 1.0));
    let kernels = Tensor4::from_fn(Shape4 { n: k, c: shape.c, h: r, w: r }, |_, _, _, _| {
        rng.uniform_f32(-1.0, 1.0)
    });
    (input, kernels)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// FFT execution equals the spatial oracle on arbitrary stride-1
    /// geometries within the analytic error bound, for every FFT size
    /// that fits the kernel and any pad (including pad >= r, where
    /// boundary tiles read no input at all).
    #[test]
    fn fft_matches_spatial_oracle_within_bound(
        seed in 0u64..1_000_000,
        n_imgs in 1usize..3,
        c in 1usize..4,
        k in 1usize..4,
        h in 4usize..14,
        w in 4usize..14,
        r in prop::sample::select(vec![1usize, 3, 5, 7]),
        lg_n in 3usize..6,
        pad in 0usize..4,
        threads in 1usize..5,
    ) {
        let n = 1usize << lg_n;
        prop_assume!(n >= r);
        let (input, kernels) = random_pair(seed, Shape4 { n: n_imgs, c, h, w }, k, r);
        prop_assume!(h + 2 * pad >= r && w + 2 * pad >= r);
        let bank = PreparedFft::new(n, &kernels);
        let got = bank.execute(&input, pad, threads);
        let oracle = spatial_convolve_strided(&input, &kernels, pad, 1);
        prop_assert_eq!(got.shape(), oracle.shape());
        let shape = ConvShape { h, w, c, k, r, stride: 1, pad };
        let tol = fft_error_bound(&shape, n, 1.0, 1.0);
        let stats = ErrorStats::between(got.as_slice(), oracle.as_slice());
        prop_assert!(stats.within_abs(tol), "FFT({}): {} vs tol {}", n, stats, tol);
    }

    /// Thread count never changes a single bit of FFT output.
    #[test]
    fn fft_is_thread_count_invariant(
        seed in 0u64..1_000_000,
        h in 4usize..12,
        w in 4usize..12,
        lg_n in 3usize..6,
        pad in 0usize..2,
        threads in 2usize..7,
    ) {
        let n = 1usize << lg_n;
        let (input, kernels) = random_pair(seed, Shape4 { n: 2, c: 2, h, w }, 3, 3);
        let bank = PreparedFft::new(n, &kernels);
        let one = bank.execute(&input, pad, 1);
        let many = bank.execute(&input, pad, threads);
        prop_assert_eq!(one.as_slice(), many.as_slice());
    }

    /// The prepared backend (directly and as a trait object) is bitwise
    /// the prepared plan on FFT plans.
    #[test]
    fn prepared_fft_is_bitwise_the_plan_path(
        seed in 0u64..1_000_000,
        h in 5usize..11,
        c in 1usize..3,
        k in 1usize..3,
        threads in 1usize..4,
    ) {
        let (input, kernels) = random_pair(seed, Shape4 { n: 1, c, h, w: h }, k, 3);
        let plan = LayerPlan {
            layer: "prop".into(),
            shape: ConvShape { h, w: h, c, k, r: 3, stride: 1, pad: 1 },
            engine: EnginePlan::Fft { n: 8 },
        };
        let via_plan =
            PreparedPlan::new(&plan, Precision::Float, &kernels).unwrap().run(&input, threads);
        let bank = PreparedFft::new(8, &kernels);
        let direct = bank.execute(&input, 1, threads);
        prop_assert_eq!(direct.as_slice(), via_plan.as_slice());
        let boxed: Box<dyn ConvBackend<f32>> = Box::new(bank);
        let via_trait = boxed.execute(&input, 1, threads);
        prop_assert_eq!(via_trait.as_slice(), via_plan.as_slice());
    }
}
