//! The pluggable convolution-backend layer: one contract that every
//! prepared engine implements.
//!
//! [`PreparedWinograd`], [`PreparedFft`] and [`PreparedSpatial`] share
//! the **prepare-once / execute-many** shape captured by
//! [`ConvBackend`]. [`PreparedPlan::new`](crate::PreparedPlan::new) is
//! the one place an [`EnginePlan`](crate::EnginePlan) is lowered to an
//! implementor, so adding an algorithm is one implementor plus one arm.
//!
//! The contract every implementor honors:
//!
//! * **Prepare once** — anything derivable from the kernel bank alone
//!   (the Winograd `V`-bank, the FFT kernel spectra, the spatial
//!   engine's im2col `A` operand — each GEMM-packed) is computed at
//!   construction, never per call.
//! * **Execute many, batched and threaded** — `execute` takes an
//!   `(N, C, H, W)` batch and a worker fan-out; batch size is free per
//!   call.
//! * **Bitwise thread-count-invariance** — every work item accumulates
//!   in one fixed order under the deterministic chunk scheduler, so
//!   output bits never depend on `threads`. `crates/exec/tests` pins
//!   this per backend.

use crate::fft::PreparedFft;
use crate::gemm::{gemm_packed_a, pack_a, PANEL_TILES};
use crate::layer::{run_chunked, PreparedWinograd};
use wino_obs::Span;
use wino_tensor::{Scalar, Shape4, Tensor4};

/// A prepared convolution engine: kernel bank preprocessed at
/// construction, batched threaded execution, bitwise
/// thread-count-invariance (see the module docs for the full contract).
///
/// Layer *geometry* other than the kernel bank — padding, and for
/// strided-capable backends the stride — is passed at execution time,
/// mirroring [`PreparedWinograd::execute`]: the prepared state depends
/// only on the kernels, so one backend can serve any compatible
/// geometry.
pub trait ConvBackend<T: Scalar>: Send + Sync {
    /// Runs the prepared engine over an `(N, C, H, W)` batch with
    /// symmetric zero padding `pad`, fanned across `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics when `input` is incompatible with the prepared kernel
    /// bank (channel mismatch, or a padded extent smaller than the
    /// kernel).
    fn execute(&self, input: &Tensor4<T>, pad: usize, threads: usize) -> Tensor4<T>;
}

/// The spatial engine as a prepared backend: direct convolution with
/// arbitrary stride, the fallback every layer can run, lowered to
/// im2col panels on the same packed GEMM as the Winograd and FFT
/// multiplies.
///
/// Row-major, a `(K, C, r, r)` kernel bank already is the `K × C·r²`
/// left operand of an im2col GEMM, with the reduction index
/// `p = (c·r + v)·r + u` in the oracle's `(c, v, u)` order; preparation
/// packs it once with [`pack_a`]. Execution runs one work item per
/// panel of [`PANEL_TILES`] output positions, taken in global
/// `(image, y, x)` order as the Winograd engine takes its tile panels,
/// so batched layers with few outputs per image still fill whole
/// panels: gather the panel's `C·r² × np` im2col matrix (zeros at
/// padding taps, direct row copies elsewhere), multiply it through
/// [`gemm_packed_a`], and scatter the `K × np` block into the output.
///
/// Every output is one `p`-increasing accumulation chain in the
/// oracle's order, a padding tap contributes `k·0` — an exact zero in
/// `f32` and in saturating `Fixed` — and no chain is split across
/// items, so the output is bitwise
/// `wino_baselines::spatial_convolve_strided` at any thread count and
/// for any batch composition.
#[derive(Debug, Clone)]
pub struct PreparedSpatial<T: Scalar> {
    /// `pack_a` of the kernel bank as a `K × C·r²` matrix.
    a_pack: Vec<T>,
    k: usize,
    c: usize,
    r: usize,
    stride: usize,
}

impl<T: Scalar> PreparedSpatial<T> {
    /// Packs a kernel bank once as the GEMM `A` operand and binds the
    /// stride, for repeated spatial execution.
    ///
    /// # Panics
    ///
    /// Panics when `stride == 0` or kernels are not square.
    pub fn new(kernels: &Tensor4<T>, stride: usize) -> PreparedSpatial<T> {
        assert!(stride > 0, "stride must be positive");
        let ks = kernels.shape();
        assert_eq!(ks.h, ks.w, "kernels must be square");
        let depth = ks.c * ks.h * ks.w;
        let a_pack = pack_a(ks.n, depth, kernels.as_slice(), depth);
        PreparedSpatial { a_pack, k: ks.n, c: ks.c, r: ks.h, stride }
    }

    /// The stride bound at construction.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Runs the convolution over an `(N, C, H, W)` batch with symmetric
    /// zero padding `pad`, fanned across `threads` workers — bitwise
    /// `wino_baselines::spatial_convolve_strided` with the kernels this
    /// backend was prepared from, at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `input`'s channel count disagrees with the kernels or
    /// the padded input is smaller than the kernel.
    pub fn execute(&self, input: &Tensor4<T>, pad: usize, threads: usize) -> Tensor4<T> {
        let is = input.shape();
        let (k_out, r, stride) = (self.k, self.r, self.stride);
        assert_eq!(is.c, self.c, "input and kernel channel counts must match");
        assert!(is.h + 2 * pad >= r && is.w + 2 * pad >= r, "input too small for kernel");
        let out_h = (is.h + 2 * pad - r) / stride + 1;
        let out_w = (is.w + 2 * pad - r) / stride + 1;
        let positions = out_h * out_w;
        let total = is.n * positions;
        let panel_len = |p: usize| PANEL_TILES.min(total - p * PANEL_TILES);
        let depth = self.c * r * r;

        let _phase = Span::enter("exec.phase", "spatial");
        let blocks = run_chunked(total.div_ceil(PANEL_TILES), threads, |p| {
            let np = panel_len(p);
            let cols = self.im2col_panel(input, pad, (out_h, out_w), p * PANEL_TILES, np);
            let mut block = vec![T::zero(); k_out * np];
            gemm_packed_a(k_out, np, depth, &self.a_pack, &cols, np, &mut block, np);
            block
        });

        let mut output = Tensor4::zeros(Shape4 { n: is.n, c: k_out, h: out_h, w: out_w });
        let out_flat = output.as_mut_slice();
        for (p, block) in blocks.iter().enumerate() {
            let np = panel_len(p);
            // Split the panel's columns at image boundaries.
            let mut j = 0;
            while j < np {
                let (img, pos) =
                    ((p * PANEL_TILES + j) / positions, (p * PANEL_TILES + j) % positions);
                let len = (positions - pos).min(np - j);
                for k in 0..k_out {
                    let dst = (img * k_out + k) * positions + pos;
                    out_flat[dst..dst + len].copy_from_slice(&block[k * np + j..][..len]);
                }
                j += len;
            }
        }
        output
    }

    /// Gathers the `C·r² × np` im2col matrix of global output positions
    /// `o0..o0 + np` (`(image, y, x)` order): row `(c·r + v)·r + u`
    /// holds, per position, the input tap `(image, c, y·s + v − pad,
    /// x·s + u − pad)`, or zero where that tap falls in the padding.
    ///
    /// The panel is walked as runs along output rows, and each tap's
    /// in-bounds column range is computed once per panel, so the inner
    /// loop is a plain copy (a slice copy at stride 1).
    fn im2col_panel(
        &self,
        input: &Tensor4<T>,
        pad: usize,
        (out_h, out_w): (usize, usize),
        o0: usize,
        np: usize,
    ) -> Vec<T> {
        let (r, s) = (self.r, self.stride);
        let is = input.shape();
        let (in_h, in_w, plane_len) = (is.h, is.w, is.h * is.w);
        let positions = out_h * out_w;
        let (img0, y0, x0) = (o0 / positions, o0 % positions / out_w, o0 % out_w);
        // Output columns whose tap u lands inside an input row,
        // 0 <= x·s + u − pad < in_w: x in x_lo..x_hi.
        let x_bounds: Vec<(usize, usize)> = (0..r)
            .map(|u| {
                (pad.saturating_sub(u).div_ceil(s), (in_w + pad).saturating_sub(u).div_ceil(s))
            })
            .collect();
        let mut cols = vec![T::zero(); self.c * r * r * np];
        let mut rows = cols.chunks_exact_mut(np);
        for c in 0..self.c {
            for v in 0..r {
                for (u, &(x_lo, x_hi)) in x_bounds.iter().enumerate() {
                    let dst = rows.next().expect("one im2col row per (c, v, u) tap");
                    let (mut img, mut y, mut x, mut j) = (img0, y0, x0, 0);
                    while j < np {
                        let x_end = out_w.min(x + np - j);
                        let iy = (y * s + v).checked_sub(pad).filter(|&iy| iy < in_h);
                        let (lo, hi) = (x_lo.clamp(x, x_end), x_hi.clamp(x, x_end));
                        if let (Some(iy), true) = (iy, lo < hi) {
                            let plane = (img * self.c + c) * plane_len;
                            let src = &input.as_slice()[plane + iy * in_w + lo * s + u - pad..];
                            let run = &mut dst[j + lo - x..j + hi - x];
                            if s == 1 {
                                run.copy_from_slice(&src[..run.len()]);
                            } else {
                                for (d, &val) in run.iter_mut().zip(src.iter().step_by(s)) {
                                    *d = val;
                                }
                            }
                        }
                        j += x_end - x;
                        (y, x) = (y + 1, 0);
                        if y == out_h {
                            (img, y) = (img + 1, 0);
                        }
                    }
                }
            }
        }
        cols
    }
}

impl<T: Scalar> ConvBackend<T> for PreparedSpatial<T> {
    fn execute(&self, input: &Tensor4<T>, pad: usize, threads: usize) -> Tensor4<T> {
        PreparedSpatial::execute(self, input, pad, threads)
    }
}

impl<T: Scalar> ConvBackend<T> for PreparedWinograd<T> {
    fn execute(&self, input: &Tensor4<T>, pad: usize, threads: usize) -> Tensor4<T> {
        PreparedWinograd::execute(self, input, pad, threads)
    }
}

impl<T: Scalar> ConvBackend<T> for PreparedFft<T> {
    fn execute(&self, input: &Tensor4<T>, pad: usize, threads: usize) -> Tensor4<T> {
        PreparedFft::execute(self, input, pad, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EnginePlan, LayerPlan, Precision, PreparedPlan};
    use wino_core::{ConvShape, WinogradParams};
    use wino_tensor::{Shape4, SplitMix64};

    fn pair(seed: u64) -> (Tensor4<f32>, Tensor4<f32>) {
        let mut rng = SplitMix64::new(seed);
        let input = Tensor4::from_fn(Shape4 { n: 2, c: 3, h: 10, w: 9 }, |_, _, _, _| {
            rng.uniform_f32(-1.0, 1.0)
        });
        let kernels = Tensor4::from_fn(Shape4 { n: 4, c: 3, h: 3, w: 3 }, |_, _, _, _| {
            rng.uniform_f32(-0.5, 0.5)
        });
        (input, kernels)
    }

    #[test]
    fn trait_objects_dispatch_to_the_inherent_paths_bitwise() {
        let (input, kernels) = pair(21);
        let wino = PreparedWinograd::new(WinogradParams::new(2, 3).unwrap(), &kernels).unwrap();
        let fft = PreparedFft::new(8, &kernels);
        let spatial = PreparedSpatial::new(&kernels, 1);
        let backends: Vec<Box<dyn ConvBackend<f32>>> =
            vec![Box::new(wino.clone()), Box::new(fft.clone()), Box::new(spatial.clone())];
        assert_eq!(
            backends[0].execute(&input, 1, 2).as_slice(),
            wino.execute(&input, 1, 2).as_slice()
        );
        assert_eq!(
            backends[1].execute(&input, 1, 2).as_slice(),
            fft.execute(&input, 1, 2).as_slice()
        );
        assert_eq!(
            backends[2].execute(&input, 1, 2).as_slice(),
            spatial.execute(&input, 1, 2).as_slice()
        );
    }

    #[test]
    fn algorithm_labels_match_engine_plan_display() {
        let (_, kernels) = pair(22);
        let shape = ConvShape { h: 10, w: 9, c: 3, k: 4, r: 3, stride: 1, pad: 1 };
        for (engine, label) in [
            (EnginePlan::Winograd(WinogradParams::new(4, 3).unwrap()), "F(4x4, 3x3)"),
            (EnginePlan::Fft { n: 16 }, "FFT(16)"),
            (EnginePlan::Spatial, "spatial"),
        ] {
            assert_eq!(engine.to_string(), label);
            let plan = LayerPlan { layer: "l".into(), shape, engine };
            let prepared = PreparedPlan::new(&plan, Precision::Float, &kernels).unwrap();
            assert_eq!(prepared.label(), label);
        }
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn zero_stride_spatial_backend_panics() {
        let kernels = Tensor4::<f32>::zeros(Shape4 { n: 1, c: 1, h: 3, w: 3 });
        let _ = PreparedSpatial::new(&kernels, 0);
    }
}
