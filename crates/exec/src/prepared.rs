//! Reusable per-layer execution closures with pre-transformed kernel
//! banks — the one way this crate runs a layer.
//!
//! Regenerating the Winograd transform set and re-transforming (and,
//! for fixed-point layers, re-quantizing) the kernel bank costs the same
//! no matter how many images pass through a layer. A [`PreparedPlan`]
//! pays that cost once at construction by lowering the engine choice to
//! a prepared [`ConvBackend`](crate::ConvBackend):
//!
//! * Winograd layers cache a [`PreparedWinograd`] bank (float) or a
//!   monomorphized `PreparedWinograd<Fixed<FRAC>>` plus the quantized
//!   kernel bank (fixed point) — the bank is both transformed and
//!   pre-packed into the GEMM micro-kernel's operand layout
//!   ([`crate::gemm::pack_a`]), so every later run enters the packed
//!   multiply with zero per-call packing cost for the kernel side;
//! * FFT layers cache a [`PreparedFft`](crate::PreparedFft) bank — the
//!   kernel spectra, transformed and GEMM-packed exactly like the
//!   Winograd `V`-bank (float only; `Schedule` validation rejects
//!   fixed-point FFT layers and a hand-built pairing panics here);
//! * spatial layers cache a [`PreparedSpatial`](crate::PreparedSpatial):
//!   the (possibly quantized) kernel bank packed once as the `K × C·r²`
//!   `A` operand of the im2col GEMM, so every later run only gathers
//!   input panels.
//!
//! Because every engine implements the same backend contract, the
//! engine dispatch here is a single [`prepare_backend`] call per
//! datapath instead of an engine × precision match — adding a backend
//! touches one arm, not four.
//!
//! The closure is type-erased behind `Arc<dyn Fn … + Send + Sync>`, so
//! a prepared plan is cheap to clone and can be shared across serving
//! worker threads. Running a prepared plan is **bitwise identical** to
//! running the backend it wraps directly (on pre-quantized tensors, for
//! fixed-point layers) — a property the tests pin — because the plan
//! adds no arithmetic beyond quantizing the input and dequantizing the
//! output.

use crate::backend::{ConvBackend, PreparedSpatial};
use crate::fft::PreparedFft;
use crate::layer::PreparedWinograd;
use crate::quant::with_fixed;
use crate::{EnginePlan, LayerPlan, Precision, SUPPORTED_FRAC};
use std::fmt;
use std::sync::Arc;
use wino_core::{ConvShape, TransformError};
use wino_obs::Span;
use wino_tensor::{Fixed, Scalar, Tensor4};

/// Lowers one engine plan to its prepared backend over any scalar
/// datapath — the single place engine selection happens.
///
/// # Errors
///
/// Propagates [`TransformError`] from Winograd transform generation.
///
/// # Panics
///
/// Panics when a hand-built plan pairs a transform-domain engine with a
/// strided shape (`Schedule` lowering never produces one).
fn prepare_backend<T: Scalar>(
    plan: &LayerPlan,
    kernels: &Tensor4<T>,
) -> Result<Arc<dyn ConvBackend<T>>, TransformError> {
    let s = plan.shape;
    Ok(match plan.engine {
        EnginePlan::Winograd(params) => {
            assert_eq!(s.stride, 1, "Winograd plan '{}' requires unit stride", plan.layer);
            Arc::new(PreparedWinograd::new(params, kernels)?)
        }
        EnginePlan::Fft { n } => {
            assert_eq!(s.stride, 1, "FFT plan '{}' requires unit stride", plan.layer);
            Arc::new(PreparedFft::new(n, kernels))
        }
        EnginePlan::Spatial => Arc::new(PreparedSpatial::new(kernels, s.stride)),
    })
}

type Runner = dyn Fn(&Tensor4<f32>, usize) -> Tensor4<f32> + Send + Sync;

/// One layer's ready-to-run execution closure: engine chosen, kernel
/// bank transformed (and quantized, for fixed-point layers), datapath
/// monomorphized. `Send + Sync + Clone`, so worker pools share it.
#[derive(Clone)]
pub struct PreparedPlan {
    label: String,
    shape: ConvShape,
    runner: Arc<Runner>,
}

impl fmt::Debug for PreparedPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PreparedPlan")
            .field("label", &self.label)
            .field("shape", &self.shape)
            .finish_non_exhaustive()
    }
}

impl PreparedPlan {
    /// Prepares `plan` for repeated execution in the arithmetic named
    /// by `precision`, hoisting the kernel-bank transform (and the
    /// kernel quantization) out of the per-run path.
    ///
    /// # Errors
    ///
    /// Propagates [`TransformError`] from Winograd transform
    /// generation.
    ///
    /// # Panics
    ///
    /// Panics when `kernels` does not match `plan.shape`, when a
    /// hand-built plan pairs a Winograd engine with a strided shape, or
    /// when a fixed-point `precision` names an unsupported `FRAC`
    /// (a validated [`QuantConfig`](crate::QuantConfig) never does).
    pub fn new(
        plan: &LayerPlan,
        precision: Precision,
        kernels: &Tensor4<f32>,
    ) -> Result<PreparedPlan, TransformError> {
        let s = plan.shape;
        let ks = kernels.shape();
        assert_eq!(
            (ks.n, ks.c, ks.h, ks.w),
            (s.k, s.c, s.r, s.r),
            "kernels do not match plan '{}'",
            plan.layer
        );
        let label = match precision {
            Precision::Float => plan.engine.to_string(),
            quantized => format!("{} {quantized}", plan.engine),
        };
        let runner: Arc<Runner> = match precision {
            Precision::Float => {
                let backend = prepare_backend::<f32>(plan, kernels)?;
                let pad = s.pad;
                Arc::new(move |input, threads| backend.execute(input, pad, threads))
            }
            Precision::Fixed { frac } => {
                assert!(
                    !matches!(plan.engine, EnginePlan::Fft { .. }),
                    "FFT plan '{}' cannot run fixed-point arithmetic",
                    plan.layer
                );
                let pad = s.pad;
                with_fixed!(frac, F => {
                    let backend = prepare_backend::<F>(plan, &kernels.map(F::from_f32))?;
                    Arc::new(move |input: &Tensor4<f32>, threads: usize| {
                        let q = {
                            let _phase = Span::enter("exec.phase", "quantize");
                            input.map(F::from_f32)
                        };
                        let out = backend.execute(&q, pad, threads);
                        let _phase = Span::enter("exec.phase", "dequantize");
                        out.map(|q| q.to_f32())
                    })
                })
            }
        };
        Ok(PreparedPlan { label, shape: s, runner })
    }

    /// Engine plus datapath, e.g. `F(4x4, 3x3)` or `spatial Q24.8` —
    /// the same format [`NetworkExecutor::engine_label`] reports.
    ///
    /// [`NetworkExecutor::engine_label`]: crate::NetworkExecutor::engine_label
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The layer geometry this plan was prepared for.
    pub fn shape(&self) -> ConvShape {
        self.shape
    }

    /// Executes the prepared layer on `input` (batch is free; channel
    /// and spatial extents must match the prepared geometry) across
    /// `threads` workers. Bitwise identical to the prepared backend the
    /// plan lowers to, run directly on the same (quantized) kernels and
    /// input.
    ///
    /// # Panics
    ///
    /// Panics when `input` does not match the prepared geometry.
    pub fn run(&self, input: &Tensor4<f32>, threads: usize) -> Tensor4<f32> {
        let is = input.shape();
        let s = self.shape;
        assert_eq!(
            (is.c, is.h, is.w),
            (s.c, s.h, s.w),
            "input does not match prepared layer ({})",
            self.label
        );
        (self.runner)(input, threads)
    }

    /// Executes the prepared layer on a set of independent single-image
    /// *lanes*: the batch-1 tensors are stacked into one `(L, C, H, W)`
    /// batch, executed through the cached bank in a single call, and the
    /// output is split back per lane.
    ///
    /// Because every engine work item reads exactly one image with a
    /// fixed accumulation order, each lane's output is **bitwise
    /// identical** to [`run`](Self::run) on that lane alone — the
    /// primitive batched serving rests on: whoever shares a batch, no
    /// lane's bits change.
    ///
    /// # Panics
    ///
    /// Panics when `lanes` is empty, or when any lane is not a batch-1
    /// tensor of the prepared geometry.
    pub fn run_lanes(&self, lanes: &[Tensor4<f32>], threads: usize) -> Vec<Tensor4<f32>> {
        assert!(!lanes.is_empty(), "no lanes to execute ({})", self.label);
        let s = self.shape;
        let plane = s.c * s.h * s.w;
        let mut stacked =
            Tensor4::zeros(wino_tensor::Shape4 { n: lanes.len(), c: s.c, h: s.h, w: s.w });
        for (i, lane) in lanes.iter().enumerate() {
            let ls = lane.shape();
            assert_eq!(
                (ls.n, ls.c, ls.h, ls.w),
                (1, s.c, s.h, s.w),
                "lane {i} does not match prepared layer ({})",
                self.label
            );
            stacked.as_mut_slice()[i * plane..(i + 1) * plane].copy_from_slice(lane.as_slice());
        }
        let out = (self.runner)(&stacked, threads);
        let os = out.shape();
        let out_plane = os.c * os.h * os.w;
        (0..lanes.len())
            .map(|i| {
                let mut img =
                    Tensor4::zeros(wino_tensor::Shape4 { n: 1, c: os.c, h: os.h, w: os.w });
                img.as_mut_slice()
                    .copy_from_slice(&out.as_slice()[i * out_plane..(i + 1) * out_plane]);
                img
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wino_core::WinogradParams;
    use wino_tensor::{Shape4, SplitMix64};

    fn fixture(stride: usize) -> (LayerPlan, LayerPlan, Tensor4<f32>, Tensor4<f32>) {
        let shape = ConvShape { h: 9, w: 8, c: 3, k: 4, r: 3, stride, pad: 1 };
        let mut rng = SplitMix64::new(77);
        let input = Tensor4::from_fn(Shape4 { n: 2, c: 3, h: 9, w: 8 }, |_, _, _, _| {
            rng.uniform_f32(-1.0, 1.0)
        });
        let kernels = Tensor4::from_fn(Shape4 { n: 4, c: 3, h: 3, w: 3 }, |_, _, _, _| {
            rng.uniform_f32(-0.5, 0.5)
        });
        let wino = LayerPlan {
            layer: "l".into(),
            shape,
            engine: EnginePlan::Winograd(WinogradParams::new(2, 3).unwrap()),
        };
        let spat = LayerPlan { layer: "l".into(), shape, engine: EnginePlan::Spatial };
        (wino, spat, input, kernels)
    }

    #[test]
    fn prepared_float_is_bitwise_the_one_shot_path() {
        let (wino, spat, input, kernels) = fixture(1);
        let threads = 3;
        let params = WinogradParams::new(2, 3).unwrap();
        // One shot: a backend prepared for this single call.
        let cases = [
            (
                &wino,
                "F(2x2, 3x3)",
                PreparedWinograd::new(params, &kernels).unwrap().execute(&input, 1, threads),
            ),
            (&spat, "spatial", PreparedSpatial::new(&kernels, 1).execute(&input, 1, threads)),
        ];
        for (plan, label, one_shot) in cases {
            let prepared = PreparedPlan::new(plan, Precision::Float, &kernels).unwrap();
            assert_eq!(prepared.label(), label);
            // Repeated runs reuse the cached bank and stay identical.
            for _ in 0..2 {
                assert_eq!(
                    prepared.run(&input, threads).as_slice(),
                    one_shot.as_slice(),
                    "{label}"
                );
            }
        }
    }

    #[test]
    fn prepared_fft_is_bitwise_the_one_shot_path() {
        let (wino, _, input, kernels) = fixture(1);
        let fft =
            LayerPlan { shape: wino.shape, layer: "l".into(), engine: EnginePlan::Fft { n: 8 } };
        let threads = 3;
        let prepared = PreparedPlan::new(&fft, Precision::Float, &kernels).unwrap();
        assert_eq!(prepared.label(), "FFT(8)");
        let one_shot = PreparedFft::new(8, &kernels).execute(&input, 1, threads);
        for _ in 0..2 {
            assert_eq!(prepared.run(&input, threads).as_slice(), one_shot.as_slice());
        }
    }

    #[test]
    fn prepared_fixed_is_bitwise_the_direct_fixed_backends() {
        type F = Fixed<10>;
        let (wino, spat, input, kernels) = fixture(1);
        let (qi, qk) = (input.map(F::from_f32), kernels.map(F::from_f32));
        let threads = 2;
        let params = WinogradParams::new(2, 3).unwrap();
        let cases = [
            (
                &wino,
                "F(2x2, 3x3) Q22.10",
                PreparedWinograd::new(params, &qk).unwrap().execute(&qi, 1, threads),
            ),
            (&spat, "spatial Q22.10", PreparedSpatial::new(&qk, 1).execute(&qi, 1, threads)),
        ];
        for (plan, label, direct) in cases {
            let prepared =
                PreparedPlan::new(plan, Precision::Fixed { frac: 10 }, &kernels).unwrap();
            assert_eq!(prepared.label(), label);
            let dequantized = direct.map(|q| q.to_f32());
            assert_eq!(prepared.run(&input, threads).as_slice(), dequantized.as_slice(), "{label}");
        }
    }

    #[test]
    fn batch_is_free_at_run_time() {
        let (wino, _, _, kernels) = fixture(1);
        let prepared = PreparedPlan::new(&wino, Precision::Float, &kernels).unwrap();
        let one = Tensor4::from_fn(Shape4 { n: 1, c: 3, h: 9, w: 8 }, |_, c, h, w| {
            (c + h + w) as f32 * 0.1
        });
        let three = Tensor4::from_fn(Shape4 { n: 3, c: 3, h: 9, w: 8 }, |_, c, h, w| {
            (c + h + w) as f32 * 0.1
        });
        let a = prepared.run(&one, 2);
        let b = prepared.run(&three, 2);
        // Every image of the batched run equals the batch-1 run bitwise.
        let plane = a.as_slice().len();
        for img in 0..3 {
            assert_eq!(&b.as_slice()[img * plane..(img + 1) * plane], a.as_slice());
        }
    }

    #[test]
    fn run_lanes_matches_individual_runs_bitwise() {
        // A float Winograd layer and a strided fixed-point spatial one.
        let (wino, mut spat, _, kernels) = fixture(1);
        spat.shape.stride = 2;
        let plans = [
            PreparedPlan::new(&wino, Precision::Float, &kernels).unwrap(),
            PreparedPlan::new(&spat, Precision::Fixed { frac: 10 }, &kernels).unwrap(),
        ];
        for plan in &plans {
            let s = plan.shape();
            let lanes: Vec<Tensor4<f32>> = (0..3u64)
                .map(|lane| {
                    let mut rng = SplitMix64::new(lane + 1);
                    Tensor4::from_fn(Shape4 { n: 1, c: s.c, h: s.h, w: s.w }, |_, _, _, _| {
                        rng.uniform_f32(-1.0, 1.0)
                    })
                })
                .collect();
            let batched = plan.run_lanes(&lanes, 2);
            for (lane, got) in lanes.iter().zip(&batched) {
                assert_eq!(got.as_slice(), plan.run(lane, 2).as_slice(), "{}", plan.label());
            }
        }
    }

    #[test]
    fn debug_and_shape_are_exposed() {
        let (wino, _, _, kernels) = fixture(1);
        let prepared = PreparedPlan::new(&wino, Precision::Float, &kernels).unwrap();
        assert!(format!("{prepared:?}").contains("F(2x2, 3x3)"));
        assert_eq!(prepared.shape().k, 4);
    }

    #[test]
    #[should_panic(expected = "cannot run fixed-point")]
    fn quantized_fft_preparation_panics() {
        let (wino, _, _, kernels) = fixture(1);
        let fft =
            LayerPlan { shape: wino.shape, layer: "l".into(), engine: EnginePlan::Fft { n: 8 } };
        let _ = PreparedPlan::new(&fft, Precision::Fixed { frac: 10 }, &kernels);
    }

    #[test]
    #[should_panic(expected = "requires unit stride")]
    fn strided_fft_preparation_panics() {
        let (mut wino, _, _, kernels) = fixture(2);
        wino.shape.stride = 2;
        wino.engine = EnginePlan::Fft { n: 8 };
        let _ = PreparedPlan::new(&wino, Precision::Float, &kernels);
    }

    #[test]
    #[should_panic(expected = "requires unit stride")]
    fn strided_winograd_preparation_panics() {
        let (mut wino, _, _, kernels) = fixture(2);
        wino.shape.stride = 2;
        let _ = PreparedPlan::new(&wino, Precision::Float, &kernels);
    }

    #[test]
    #[should_panic(expected = "does not match prepared layer")]
    fn mismatched_input_panics() {
        let (wino, _, _, kernels) = fixture(1);
        let prepared = PreparedPlan::new(&wino, Precision::Float, &kernels).unwrap();
        let bad = Tensor4::zeros(Shape4 { n: 1, c: 3, h: 4, w: 4 });
        let _ = prepared.run(&bad, 1);
    }
}
