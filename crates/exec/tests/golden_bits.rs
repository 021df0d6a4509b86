//! Pins the exact output bits of the Winograd and spatial engines
//! across commits.
//!
//! Every other exec test compares two paths of the *current* code
//! (engine vs oracle, one thread count vs another), so a change that
//! alters the arithmetic of both sides — a reordered sum, a fused
//! multiply-add, a different transform coefficient — passes them all.
//! This test hashes the output bits of a fixed set of prepared layers
//! and compares the hash with a constant recorded before the AVX2 GEMM
//! build and the structure-of-arrays kernel and inverse transforms were
//! written, so any optimisation that moves a single output bit fails
//! here.
//!
//! The layers cover Winograd `F(2×2)`, `F(4×4)` and `F(6×6)` with 3×3
//! kernels (plus `F(2×2, 5×5)`), and strided spatial layers, each in
//! `f32` and in saturating `Q24.8` / `Q20.12` fixed point, at one and two
//! threads. Geometries are chosen so tile rows straddle GEMM panels,
//! tile rows are wider than a panel, `K` and `C` leave ragged GEMM
//! micro-tiles, and outputs leave ragged edge tiles. FFT layers are
//! excluded: their twiddle factors come from the platform `libm`, so
//! their bits are not a property of this code alone.
//!
//! If a change is *meant* to alter the arithmetic, re-record the
//! constant and say so in the change log.

use wino_core::{ConvShape, WinogradParams};
use wino_exec::{EnginePlan, LayerPlan, Precision, PreparedPlan};
use wino_tensor::{Shape4, SplitMix64, Tensor4};

/// FNV-1a over the output bits of every case, in case order.
const GOLDEN: u64 = 0x5a0e_cba0_bbcd_a3bd;

/// 64-bit FNV-1a, folded one `u32` at a time (little-endian bytes).
fn fnv1a(hash: u64, word: u32) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The layers whose bits are pinned: (engine, geometry, batch).
fn cases() -> Vec<(EnginePlan, ConvShape, usize)> {
    let wino = |m, r| EnginePlan::Winograd(WinogradParams::new(m, r).unwrap());
    let shape = |h, w, c, k, r, stride, pad| ConvShape { h, w, c, k, r, stride, pad };
    vec![
        // 2 × 12 × 12 = 288 tiles: 12-tile rows straddle 64-tile panels.
        (wino(2, 3), shape(23, 23, 5, 9, 3, 1, 1), 2),
        // 67-tile rows, each wider than a panel.
        (wino(2, 3), shape(5, 134, 3, 4, 3, 1, 1), 1),
        (wino(4, 3), shape(21, 39, 6, 11, 3, 1, 1), 2),
        (wino(6, 3), shape(25, 31, 4, 7, 3, 1, 0), 2),
        (wino(2, 5), shape(17, 22, 3, 5, 5, 1, 2), 1),
        (EnginePlan::Spatial, shape(19, 23, 3, 9, 3, 2, 1), 2),
        (EnginePlan::Spatial, shape(27, 25, 2, 5, 7, 3, 3), 1),
    ]
}

fn random(shape: Shape4, seed: u64) -> Tensor4<f32> {
    let mut rng = SplitMix64::new(seed);
    Tensor4::from_fn(shape, |_, _, _, _| rng.uniform_f32(-1.0, 1.0))
}

#[test]
fn output_bits_match_the_recorded_hash() {
    let precisions =
        [Precision::Float, Precision::Fixed { frac: 8 }, Precision::Fixed { frac: 12 }];
    let mut hash = FNV_OFFSET;
    let mut per_case = Vec::new();
    for (i, (engine, s, batch)) in cases().into_iter().enumerate() {
        let seed = 1000 + i as u64;
        let kernels = random(Shape4 { n: s.k, c: s.c, h: s.r, w: s.r }, seed);
        let input = random(Shape4 { n: batch, c: s.c, h: s.h, w: s.w }, seed + 500);
        let plan = LayerPlan { layer: format!("case{i}"), shape: s, engine };
        for precision in precisions {
            let prepared = PreparedPlan::new(&plan, precision, &kernels).unwrap();
            for threads in [1, 2] {
                let out = prepared.run(&input, threads);
                let case_hash =
                    out.as_slice().iter().fold(FNV_OFFSET, |h, v| fnv1a(h, v.to_bits()));
                hash = fnv1a(fnv1a(hash, case_hash as u32), (case_hash >> 32) as u32);
                per_case
                    .push(format!("{} {} T={threads}: {case_hash:#018x}", plan.engine, precision));
            }
        }
    }
    assert_eq!(
        hash,
        GOLDEN,
        "output bits changed (got {hash:#018x}); per-case hashes:\n{}",
        per_case.join("\n")
    );
}
