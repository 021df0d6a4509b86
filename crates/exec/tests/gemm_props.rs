//! Property tests for the packed GEMM micro-kernel: for arbitrary
//! shapes, strides and scalar types, the blocked kernel must be
//! **bitwise** equal to the naive per-coordinate multiply — the
//! determinism contract that lets the execution engine ride the fast
//! kernel without giving up thread-count-invariant output — and the
//! engine built on it must stay bitwise thread-count-invariant for
//! both float and fixed-point datapaths, including the edge geometries
//! (operands smaller than one micro-tile, single-tile images, empty
//! batches).

use proptest::prelude::*;
use wino_core::WinogradParams;
use wino_exec::gemm::{gemm, gemm_naive, gemm_packed_a, pack_a, MR, NR};
use wino_exec::PreparedWinograd;
use wino_tensor::{Fixed, Shape4, SplitMix64, Tensor4};

fn filled(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = SplitMix64::new(seed);
    (0..len).map(|_| rng.uniform_f32(-1.0, 1.0)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The packed kernel is bitwise the naive multiply for arbitrary
    /// shapes and row strides, at `f32`.
    #[test]
    fn packed_gemm_is_bitwise_naive_f32(
        seed in 0u64..1_000_000,
        m in 1usize..40,
        n in 1usize..80,
        k in 1usize..40,
        pad_a in 0usize..4,
        pad_b in 0usize..4,
        pad_c in 0usize..4,
    ) {
        let (lda, ldb, ldc) = (k + pad_a, n + pad_b, n + pad_c);
        let a = filled(m * lda, seed);
        let b = filled(k * ldb, seed ^ 0xB);
        // Pre-fill C with noise: overwrite semantics must hold even on
        // the padded tail of each row.
        let mut fast = filled(m * ldc, seed ^ 0xC);
        let mut slow = fast.clone();
        gemm(m, n, k, &a, lda, &b, ldb, &mut fast, ldc);
        gemm_naive(m, n, k, &a, lda, &b, ldb, &mut slow, ldc);
        prop_assert_eq!(&fast, &slow, "m={} n={} k={}", m, n, k);
    }

    /// Same contract on the saturating fixed-point datapath.
    #[test]
    fn packed_gemm_is_bitwise_naive_fixed(
        seed in 0u64..1_000_000,
        m in 1usize..24,
        n in 1usize..24,
        k in 1usize..24,
    ) {
        let a: Vec<Fixed<10>> =
            filled(m * k, seed).iter().map(|&x| Fixed::from_f32(x)).collect();
        let b: Vec<Fixed<10>> =
            filled(k * n, seed ^ 0xF).iter().map(|&x| Fixed::from_f32(x)).collect();
        let mut fast = vec![Fixed::<10>::ZERO; m * n];
        let mut slow = fast.clone();
        gemm(m, n, k, &a, k, &b, n, &mut fast, n);
        gemm_naive(m, n, k, &a, k, &b, n, &mut slow, n);
        prop_assert_eq!(fast, slow);
    }

    /// Packing `A` ahead of time (what the prepared engine does) is
    /// the same computation as packing on the fly.
    #[test]
    fn prepacked_a_matches_one_shot_gemm(
        seed in 0u64..1_000_000,
        m in 1usize..30,
        n in 1usize..30,
        k in 1usize..30,
    ) {
        let a = filled(m * k, seed);
        let b = filled(k * n, seed ^ 0xAB);
        let mut one_shot = vec![0.0f32; m * n];
        let mut prepacked = vec![0.0f32; m * n];
        gemm(m, n, k, &a, k, &b, n, &mut one_shot, n);
        let apack = pack_a(m, k, &a, k);
        gemm_packed_a(m, n, k, &apack, &b, n, &mut prepacked, n);
        prop_assert_eq!(one_shot, prepacked);
    }

    /// The engine riding the packed kernel stays bitwise
    /// thread-count-invariant on the fixed-point datapath too (the
    /// float case is pinned in `exec_props.rs`), across geometries
    /// that exercise ragged micro-tiles and ragged panels.
    #[test]
    fn fixed_engine_is_thread_count_invariant(
        seed in 0u64..1_000_000,
        h in 4usize..11,
        w in 4usize..11,
        m in 2usize..5,
        threads in 2usize..7,
    ) {
        let mut rng = SplitMix64::new(seed);
        let input = Tensor4::from_fn(Shape4 { n: 2, c: 3, h, w }, |_, _, _, _| {
            Fixed::<10>::from_f32(rng.uniform_f32(-1.0, 1.0))
        });
        let kernels = Tensor4::from_fn(Shape4 { n: 3, c: 3, h: 3, w: 3 }, |_, _, _, _| {
            Fixed::<10>::from_f32(rng.uniform_f32(-0.5, 0.5))
        });
        let bank = PreparedWinograd::new(WinogradParams::new(m, 3).unwrap(), &kernels).unwrap();
        let one = bank.execute(&input, 1, 1);
        let many = bank.execute(&input, 1, threads);
        prop_assert_eq!(one.as_slice(), many.as_slice());
    }
}

/// `C` and `K` both smaller than one micro-tile: the engine's GEMM is
/// a single ragged tile, and the output must still match the oracle.
#[test]
fn channels_and_kernels_smaller_than_the_micro_tile() {
    // C = K = 2 while MR = 8 and NR = 8: a single ragged micro-tile.
    let _ = (MR, NR);
    let mut rng = SplitMix64::new(99);
    let input = Tensor4::from_fn(Shape4 { n: 1, c: 2, h: 8, w: 8 }, |_, _, _, _| {
        rng.uniform_f32(-1.0, 1.0)
    });
    let kernels = Tensor4::from_fn(Shape4 { n: 2, c: 2, h: 3, w: 3 }, |_, _, _, _| {
        rng.uniform_f32(-1.0, 1.0)
    });
    let oracle = wino_baselines::spatial_convolve(&input, &kernels, 1);
    for m in [2usize, 4] {
        let bank = PreparedWinograd::new(WinogradParams::new(m, 3).unwrap(), &kernels).unwrap();
        let got = bank.execute(&input, 1, 2);
        let stats = wino_tensor::ErrorStats::between(got.as_slice(), oracle.as_slice());
        assert!(stats.within_abs(1e-4), "m={m}: {stats}");
    }
}

/// A single-tile image (output no larger than one m×m tile) runs the
/// whole pipeline with one panel of one tile.
#[test]
fn single_tile_images_execute() {
    let mut rng = SplitMix64::new(7);
    let input = Tensor4::from_fn(Shape4 { n: 1, c: 3, h: 4, w: 4 }, |_, _, _, _| {
        rng.uniform_f32(-1.0, 1.0)
    });
    let kernels = Tensor4::from_fn(Shape4 { n: 2, c: 3, h: 3, w: 3 }, |_, _, _, _| {
        rng.uniform_f32(-1.0, 1.0)
    });
    // pad 0: a 4x4 input under a 3x3 kernel leaves a 2x2 output — one
    // F(2x2) tile exactly, and a ragged partial tile for F(4x4).
    let oracle = wino_baselines::spatial_convolve(&input, &kernels, 0);
    for m in [2usize, 4] {
        let bank = PreparedWinograd::new(WinogradParams::new(m, 3).unwrap(), &kernels).unwrap();
        let got = bank.execute(&input, 0, 3);
        assert_eq!(got.shape(), oracle.shape());
        let stats = wino_tensor::ErrorStats::between(got.as_slice(), oracle.as_slice());
        assert!(stats.within_abs(1e-4), "m={m}: {stats}");
    }
}

/// An empty batch (N = 0) is a no-op, not a panic: zero tiles, zero
/// panels, an empty output tensor.
#[test]
fn empty_batch_produces_an_empty_output() {
    let input = Tensor4::<f32>::zeros(Shape4 { n: 0, c: 3, h: 8, w: 8 });
    let kernels = Tensor4::<f32>::zeros(Shape4 { n: 2, c: 3, h: 3, w: 3 });
    let bank = PreparedWinograd::new(WinogradParams::new(2, 3).unwrap(), &kernels).unwrap();
    let got = bank.execute(&input, 1, 4);
    assert_eq!(got.shape(), Shape4 { n: 0, c: 2, h: 8, w: 8 });
    assert!(got.as_slice().is_empty());
}
