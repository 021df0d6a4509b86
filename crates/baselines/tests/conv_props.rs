//! Property tests: the spatial oracle is linear and the identity kernel
//! is neutral on arbitrary layer shapes.

use proptest::prelude::*;
use wino_baselines::spatial_convolve;
use wino_tensor::{ratio, Ratio, Shape4, SplitMix64, Tensor4};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn spatial_conv_is_linear_in_input(
        c in 1usize..3,
        h in 3usize..7,
        seed in 0u64..500,
    ) {
        let mut rng = SplitMix64::new(seed);
        let shape = Shape4 { n: 1, c, h, w: h };
        let a = Tensor4::from_fn(shape, |_, _, _, _| ratio(rng.below(7) as i128 - 3, 1));
        let b = Tensor4::from_fn(shape, |_, _, _, _| ratio(rng.below(7) as i128 - 3, 1));
        let kernels = Tensor4::from_fn(Shape4 { n: 2, c, h: 3, w: 3 }, |_, _, _, _| {
            ratio(rng.below(7) as i128 - 3, 1)
        });
        let sum = Tensor4::from_fn(shape, |n, ci, y, x| a.at(n, ci, y, x) + b.at(n, ci, y, x));
        let ca = spatial_convolve(&a, &kernels, 1);
        let cb = spatial_convolve(&b, &kernels, 1);
        let cs = spatial_convolve(&sum, &kernels, 1);
        let recombined = Tensor4::from_fn(cs.shape(), |n, ki, y, x| {
            ca.at(n, ki, y, x) + cb.at(n, ki, y, x)
        });
        prop_assert_eq!(cs, recombined);
    }

    #[test]
    fn identity_kernel_is_neutral(c in 1usize..4, h in 3usize..8, seed in 0u64..500) {
        let mut rng = SplitMix64::new(seed);
        let input = Tensor4::from_fn(Shape4 { n: 1, c, h, w: h }, |_, _, _, _| {
            ratio(rng.below(19) as i128 - 9, 1)
        });
        // One kernel per channel bank: center tap on channel 0 only.
        let kernels = Tensor4::from_fn(Shape4 { n: 1, c, h: 3, w: 3 }, |_, ci, v, u| {
            if ci == 0 && v == 1 && u == 1 { Ratio::ONE } else { Ratio::ZERO }
        });
        let out = spatial_convolve(&input, &kernels, 1);
        for y in 0..h {
            for x in 0..h {
                prop_assert_eq!(out.at(0, 0, y, x), input.at(0, 0, y, x));
            }
        }
    }
}
