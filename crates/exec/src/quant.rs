//! Per-layer quantization configuration and the fixed-point execution
//! path.
//!
//! The paper runs its pipeline "without any quantization scheme for the
//! sake of simplicity", while its headline comparison target (Qiu et
//! al.'s accelerator) runs 16-bit fixed point. This module closes that
//! gap: a [`QuantConfig`] assigns every layer of a schedule a
//! [`Precision`] — `f32`, or a `Q(32−FRAC).FRAC` fixed-point format —
//! and a [`PreparedPlan`](crate::PreparedPlan) at a fixed-point
//! precision runs the layer's engine with `Fixed<FRAC>` arithmetic end
//! to end (transform matrices, data, kernels, transform-domain products
//! and accumulators all quantized, every op saturating like an FPGA DSP
//! block), returning the dequantized `f32` result so callers can
//! measure the error against the float oracle. The fixed-point path
//! rides the same packed GEMM
//! micro-kernel ([`crate::gemm`]) as the float path — the kernel is
//! generic over `Scalar`, so each `Fixed<FRAC>` width monomorphizes
//! its own saturating register-tiled multiply.
//!
//! The supported fractional widths are [`SUPPORTED_FRAC`] (the
//! quantization study sweeps 6..=14; 8 approximates the dynamic range
//! of Qiu et al.'s 16-bit format once accumulation headroom is
//! accounted for). Dispatch from the runtime `frac` value to the
//! `Fixed<FRAC>` monomorphization happens once, in
//! [`PreparedPlan::new`](crate::PreparedPlan::new).

use std::fmt;
use wino_core::{TransformSet, WinogradParams};

/// Fractional widths [`QuantConfig`] accepts: wide enough for the
/// FRAC ∈ 6..=14 study sweep plus margin on both sides, narrow enough
/// that every width has a monomorphized kernel.
pub const SUPPORTED_FRAC: std::ops::RangeInclusive<u32> = 2..=16;

/// The arithmetic one layer executes in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// IEEE single precision — the paper's datapath.
    Float,
    /// Saturating Q-format fixed point with `frac` fractional bits in a
    /// 32-bit word (`Q(32−frac).frac`).
    Fixed {
        /// Fractional bits; must lie in [`SUPPORTED_FRAC`].
        frac: u32,
    },
}

impl fmt::Display for Precision {
    /// `f32`, or `Q(32−frac).frac`. Total for every `frac`: a
    /// hand-built `Fixed` wider than the word shows a negative integer
    /// part (`Q-8.40`) rather than panicking.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Precision::Float => write!(f, "f32"),
            Precision::Fixed { frac } => write!(f, "Q{}.{}", 32 - i64::from(*frac), frac),
        }
    }
}

/// Errors constructing a [`QuantConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuantError {
    /// A fixed-point format outside [`SUPPORTED_FRAC`] was requested.
    UnsupportedFrac(u32),
    /// The per-layer precision list does not match the schedule.
    LayerCount {
        /// Layers in the schedule.
        expected: usize,
        /// Precisions supplied.
        actual: usize,
    },
}

impl fmt::Display for QuantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantError::UnsupportedFrac(frac) => write!(
                f,
                "FRAC = {frac} is outside the supported range {}..={}",
                SUPPORTED_FRAC.start(),
                SUPPORTED_FRAC.end()
            ),
            QuantError::LayerCount { expected, actual } => {
                write!(f, "quant config has {actual} layers, schedule has {expected}")
            }
        }
    }
}

impl std::error::Error for QuantError {}

/// Per-layer precision assignment for a schedule.
///
/// Built uniform ([`QuantConfig::uniform_fixed`], the study's sweep
/// axis) or heterogeneous ([`QuantConfig::per_layer`]), validated at
/// construction, and lowered through `Schedule::with_quant` so an
/// executor picks the right datapath per layer.
///
/// ```
/// use wino_exec::{Precision, QuantConfig};
///
/// let q = QuantConfig::uniform_fixed(3, 10)?;
/// assert_eq!(q.precision(0), Precision::Fixed { frac: 10 });
/// assert_eq!(q.to_string(), "Q22.10 x3");
/// assert!(QuantConfig::uniform_fixed(3, 40).is_err(), "unsupported width");
/// # Ok::<(), wino_exec::QuantError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantConfig {
    per_layer: Vec<Precision>,
}

impl QuantConfig {
    /// Every layer in `f32` — the identity configuration.
    pub fn float(layers: usize) -> QuantConfig {
        QuantConfig { per_layer: vec![Precision::Float; layers] }
    }

    /// Every layer in the same `Q(32−frac).frac` fixed-point format.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::UnsupportedFrac`] for widths outside
    /// [`SUPPORTED_FRAC`].
    pub fn uniform_fixed(layers: usize, frac: u32) -> Result<QuantConfig, QuantError> {
        QuantConfig::per_layer(vec![Precision::Fixed { frac }; layers])
    }

    /// A heterogeneous per-layer assignment (one entry per schedule
    /// layer, in execution order).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::UnsupportedFrac`] if any fixed-point entry
    /// is outside [`SUPPORTED_FRAC`].
    pub fn per_layer(precisions: Vec<Precision>) -> Result<QuantConfig, QuantError> {
        for p in &precisions {
            if let Precision::Fixed { frac } = p {
                if !SUPPORTED_FRAC.contains(frac) {
                    return Err(QuantError::UnsupportedFrac(*frac));
                }
            }
        }
        Ok(QuantConfig { per_layer: precisions })
    }

    /// The precision of layer `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn precision(&self, index: usize) -> Precision {
        self.per_layer[index]
    }

    /// Per-layer precisions in execution order.
    pub fn precisions(&self) -> &[Precision] {
        &self.per_layer
    }

    /// Number of layers configured.
    pub fn len(&self) -> usize {
        self.per_layer.len()
    }

    /// `true` when no layers are configured.
    pub fn is_empty(&self) -> bool {
        self.per_layer.is_empty()
    }

    /// `true` when every layer runs in `f32`.
    pub fn is_all_float(&self) -> bool {
        self.per_layer.iter().all(|p| *p == Precision::Float)
    }
}

impl fmt::Display for QuantConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.per_layer.is_empty() {
            return write!(f, "(empty)");
        }
        let first = self.per_layer[0];
        if self.per_layer.iter().all(|p| *p == first) {
            return write!(f, "{} x{}", first, self.per_layer.len());
        }
        for (i, p) in self.per_layer.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

/// Runs `body` with `F` bound to the `Fixed<FRAC>` type for a runtime
/// `frac` value in [`SUPPORTED_FRAC`].
macro_rules! with_fixed {
    ($frac:expr, $F:ident => $body:expr) => {
        match $frac {
            2 => {
                type $F = Fixed<2>;
                $body
            }
            3 => {
                type $F = Fixed<3>;
                $body
            }
            4 => {
                type $F = Fixed<4>;
                $body
            }
            5 => {
                type $F = Fixed<5>;
                $body
            }
            6 => {
                type $F = Fixed<6>;
                $body
            }
            7 => {
                type $F = Fixed<7>;
                $body
            }
            8 => {
                type $F = Fixed<8>;
                $body
            }
            9 => {
                type $F = Fixed<9>;
                $body
            }
            10 => {
                type $F = Fixed<10>;
                $body
            }
            11 => {
                type $F = Fixed<11>;
                $body
            }
            12 => {
                type $F = Fixed<12>;
                $body
            }
            13 => {
                type $F = Fixed<13>;
                $body
            }
            14 => {
                type $F = Fixed<14>;
                $body
            }
            15 => {
                type $F = Fixed<15>;
                $body
            }
            16 => {
                type $F = Fixed<16>;
                $body
            }
            other => panic!(
                "FRAC = {other} has no monomorphized kernel (supported: {}..={})",
                SUPPORTED_FRAC.start(),
                SUPPORTED_FRAC.end()
            ),
        }
    };
}
pub(crate) use with_fixed;

/// Maximum absolute row 1-norm of an exact transform matrix.
fn row_norm(matrix: &wino_tensor::Tensor2<wino_tensor::Ratio>) -> f64 {
    (0..matrix.rows())
        .map(|i| matrix.row(i).iter().map(|x| x.abs().to_f64()).sum::<f64>())
        .fold(0.0, f64::max)
}

/// Analytic upper bound on the per-output quantization error of one
/// Winograd layer executed in `Fixed<FRAC>` arithmetic, for inputs
/// bounded by `input_mag` and weights bounded by `weight_mag`.
///
/// Derivation (first-order forward error analysis; `ε = 2^−FRAC` is the
/// quantization step, every rounding is ≤ `ε/2`, and `β`, `γ`, `α` are
/// the max row 1-norms of `Bᵀ`, `G`, `Aᵀ`):
///
/// * data path: input quantization ≤ `ε/2` is amplified by the two-pass
///   data transform (`β²`), which adds its own `≤ n·ε/2` of multiply
///   rounding per pass → `e_U ≤ ε/2 · (β² + nβ + n)`;
/// * kernel path: symmetrically `e_V ≤ ε/2 · (γ² + rγ + r)`;
/// * transform-domain multiply over `C` channels, with `|U| ≤ β²·D`
///   and `|V| ≤ γ²·W`:
///   `e_M ≤ C · (|U|·e_V + |V|·e_U + ε/2)`;
/// * inverse transform: `e_Y ≤ α²·e_M + ε/2 · (nα + n)`.
///
/// The bound assumes no intermediate saturates (callers must keep
/// `C·β²γ²·D·W` inside the format's range) and is deliberately loose —
/// the property tests assert measured error stays below it, never that
/// it is tight.
///
/// # Panics
///
/// Panics when exact transform generation fails for `params` (only
/// possible for parameter combinations `WinogradParams` already
/// rejects).
pub fn quant_error_bound(
    params: WinogradParams,
    channels: usize,
    frac: u32,
    input_mag: f64,
    weight_mag: f64,
) -> f64 {
    let set = TransformSet::generate(params).expect("valid params generate transforms");
    let beta = row_norm(set.bt());
    let gamma = row_norm(set.g());
    let alpha = row_norm(set.at());
    let n = params.input_tile() as f64;
    let r = params.r() as f64;
    let c = channels as f64;
    let half_step = 0.5 / (1u64 << frac) as f64;

    let e_u = half_step * (beta * beta + n * beta + n);
    let e_v = half_step * (gamma * gamma + r * gamma + r);
    let u_mag = beta * beta * input_mag;
    let v_mag = gamma * gamma * weight_mag;
    let e_m = c * (u_mag * e_v + v_mag * e_u + half_step);
    alpha * alpha * e_m + half_step * (n * alpha + n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EnginePlan, LayerPlan, PreparedPlan};
    use wino_baselines::spatial_convolve;
    use wino_tensor::{ErrorStats, Shape4, SplitMix64, Tensor4};

    #[test]
    fn uniform_and_per_layer_validate_widths() {
        assert!(QuantConfig::uniform_fixed(4, 10).is_ok());
        assert_eq!(QuantConfig::uniform_fixed(4, 40), Err(QuantError::UnsupportedFrac(40)));
        assert_eq!(
            QuantConfig::per_layer(vec![Precision::Float, Precision::Fixed { frac: 1 }]),
            Err(QuantError::UnsupportedFrac(1))
        );
        let q = QuantConfig::float(3);
        assert!(q.is_all_float());
        assert_eq!(q.len(), 3);
        assert!(!q.is_empty());
        assert!(QuantConfig::float(0).is_empty());
    }

    #[test]
    fn display_compresses_uniform_configs() {
        assert_eq!(QuantConfig::uniform_fixed(13, 8).unwrap().to_string(), "Q24.8 x13");
        assert_eq!(QuantConfig::float(2).to_string(), "f32 x2");
        let het =
            QuantConfig::per_layer(vec![Precision::Float, Precision::Fixed { frac: 12 }]).unwrap();
        assert_eq!(het.to_string(), "f32, Q20.12");
        assert_eq!(QuantConfig::float(0).to_string(), "(empty)");
        let e = QuantError::LayerCount { expected: 4, actual: 2 };
        assert!(e.to_string().contains("4"));
    }

    #[test]
    fn quantized_plan_tracks_the_float_oracle() {
        let shape = wino_core::ConvShape::same_padded(10, 10, 3, 4, 3);
        let mut rng = SplitMix64::new(42);
        let input = Tensor4::from_fn(Shape4 { n: 1, c: 3, h: 10, w: 10 }, |_, _, _, _| {
            rng.uniform_f32(-1.0, 1.0)
        });
        let kernels = Tensor4::from_fn(Shape4 { n: 4, c: 3, h: 3, w: 3 }, |_, _, _, _| {
            rng.uniform_f32(-0.4, 0.4)
        });
        let oracle = spatial_convolve(&input, &kernels, 1);
        for engine in
            [EnginePlan::Winograd(WinogradParams::new(2, 3).unwrap()), EnginePlan::Spatial]
        {
            let plan = LayerPlan { layer: "l".into(), shape, engine };
            let prepared = PreparedPlan::new(&plan, Precision::Fixed { frac: 12 }, &kernels);
            let out = prepared.unwrap().run(&input, 2);
            let stats = ErrorStats::between(out.as_slice(), oracle.as_slice());
            assert!(stats.within_abs(2e-2), "{engine:?}: {stats}");
        }
    }

    #[test]
    fn error_bound_grows_with_m_and_shrinks_with_frac() {
        let bound = |m: usize, frac: u32| {
            quant_error_bound(WinogradParams::new(m, 3).unwrap(), 8, frac, 1.0, 0.5)
        };
        assert!(bound(4, 10) > bound(2, 10), "larger tiles are worse conditioned");
        assert!(bound(2, 6) > bound(2, 14), "more fractional bits mean less error");
        // Halving the step roughly halves the bound.
        let ratio = bound(2, 8) / bound(2, 9);
        assert!((1.5..=2.5).contains(&ratio), "{ratio}");
    }

    #[test]
    fn precision_display_is_total() {
        let label = |frac| Precision::Fixed { frac }.to_string();
        assert_eq!(label(0), "Q32.0");
        assert_eq!(label(8), "Q24.8");
        assert_eq!(label(32), "Q0.32");
        assert_eq!(label(40), "Q-8.40");
        assert_eq!(label(u32::MAX), "Q-4294967263.4294967295");
        assert_eq!(Precision::Float.to_string(), "f32");
    }

    #[test]
    #[should_panic(expected = "no monomorphized kernel")]
    fn unsupported_frac_dispatch_panics() {
        let shape = wino_core::ConvShape::same_padded(4, 4, 1, 1, 3);
        let plan = LayerPlan { layer: "l".into(), shape, engine: EnginePlan::Spatial };
        let kernels = Tensor4::zeros(Shape4 { n: 1, c: 1, h: 3, w: 3 });
        let _ = PreparedPlan::new(&plan, Precision::Fixed { frac: 17 }, &kernels);
    }
}
