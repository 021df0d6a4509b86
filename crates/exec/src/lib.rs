//! # wino-exec
//!
//! A batched, thread-parallel CPU execution engine for whole CNNs under
//! Winograd fast convolution — the runnable counterpart of the analytical
//! models in the `winofpga` reproduction of Ahmad & Pasha (DATE 2019).
//!
//! Every other crate in the workspace *models* the fast algorithms; this
//! one *runs* them. Each eligible layer executes as tiled `F(m×m, r×r)`
//! Winograd convolution — input tiles packed into coordinate-major
//! panels, the transform-domain multiply run as `n²` channel GEMMs
//! through the packed, register-tiled, cache-blocked micro-kernel of
//! [`gemm`], then per-tile inverse transforms — with each phase fanned
//! across `std::thread` scoped workers under a deterministic
//! (work-stealing-free) chunk scheduler, so results are bitwise
//! identical at any thread count.
//! Strided or oversized-kernel layers fall back to a spatial engine
//! ([`PreparedSpatial`]) lowered to im2col panels on the same packed
//! GEMM — the kernel bank packed once as the `K × C·r²` operand — which
//! matches `wino_baselines::spatial_convolve_strided` bit for bit.
//!
//! The bridge from design space exploration to execution is the
//! [`Schedule`]: per-layer engine assignments lowered from the
//! heterogeneous designs `wino-search` produces
//! ([`Schedule::from_layer_designs`]), from a `wino-dse` workload mapping
//! ([`Schedule::from_mapping`]), or from the paper's homogeneous choice
//! ([`Schedule::homogeneous`]). A [`NetworkExecutor`] then runs the whole
//! network and can verify itself against the spatial oracle.
//!
//! There is one way to run a layer: a [`PreparedPlan`] lowers a
//! [`LayerPlan`] and its kernel bank, once, to one of the prepared
//! [`ConvBackend`]s ([`PreparedWinograd`], [`PreparedFft`],
//! [`PreparedSpatial`]) and then runs any number of batches through it.
//! The executor, the serving subsystem and the benchmarks all execute
//! through it.
//!
//! Every engine is generic over [`wino_tensor::Scalar`], so the same
//! code path runs the paper's `f32` datapath and the saturating
//! `Fixed<FRAC>` Q-format arithmetic of the quantization study: a
//! [`QuantConfig`] lowered through [`Schedule::with_quant`] assigns each
//! layer a [`Precision`], and a fixed-point layer's [`PreparedPlan`]
//! runs its engine in `Fixed<FRAC>` (DSP-block-style saturation
//! everywhere, `f32` in and out so errors are measurable against the
//! float oracle, analytically bounded by [`quant_error_bound`]).
//!
//! ```
//! use wino_core::{ConvShape, Workload};
//! use wino_exec::{ExecConfig, NetworkExecutor, Schedule};
//!
//! let mut wl = Workload::new("toy", 1);
//! wl.push("conv1", "Conv1", ConvShape::same_padded(8, 8, 2, 4, 3));
//! wl.push("conv2", "Conv2", ConvShape { h: 8, w: 8, c: 4, k: 4, r: 3, stride: 2, pad: 1 });
//!
//! // conv1 runs as F(2x2, 3x3); strided conv2 falls back to spatial.
//! let schedule = Schedule::homogeneous(&wl, 2)?;
//! let exec = NetworkExecutor::new(wl, schedule, ExecConfig::with_threads(2))?;
//! let report = exec.run();
//! assert_eq!(report.layers.len(), 2);
//! // Every layer's output matches the spatial oracle within fp32 noise.
//! assert!(exec.verify(1e-4)? < 1e-4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
// `deny` rather than `forbid`: the GEMM's run-time instruction-set
// dispatch (`gemm::Tier::run`) is the one place allowed `unsafe` blocks.
#![deny(unsafe_code)]

mod backend;
mod executor;
mod fft;
pub mod gemm;
mod layer;
mod prepared;
mod quant;
mod schedule;

pub use backend::{ConvBackend, PreparedSpatial};
pub use executor::{LayerReport, NetworkExecutor, NetworkReport, VerifyError};
pub use fft::{fft_error_bound, PreparedFft};
pub use layer::{ExecConfig, PreparedWinograd};
pub use prepared::PreparedPlan;
pub use quant::{quant_error_bound, Precision, QuantConfig, QuantError, SUPPORTED_FRAC};
pub use schedule::{EnginePlan, LayerPlan, Schedule, ScheduleError};
