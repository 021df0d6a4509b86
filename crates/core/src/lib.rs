//! # wino-core
//!
//! The primary contribution of *"Towards Design Space Exploration and
//! Optimization of Fast Algorithms for CNNs on FPGAs"* (Ahmad & Pasha,
//! DATE 2019), as a library:
//!
//! * **Exact transform generation** — [`TransformSet`] builds the Winograd
//!   matrices `(Aᵀ, G, Bᵀ)` for any `F(m, r)` with the Cook–Toom method
//!   over rationals and proves the bilinear identity before returning.
//! * **Fast convolution** — [`WinogradAlgorithm`] runs 1-D/2-D minimal
//!   filtering and full tiled layer convolution over `f32`, `f64`, exact
//!   rationals or fixed point.
//! * **Complexity models** — Eqs. 4–10 of the paper (multiplication
//!   complexity, transform complexity, PE count, latency, throughput) as
//!   closed forms, plus derivation of the β/γ/δ transform FLOP constants
//!   from the matrices themselves.
//! * **Workloads** — [`Workload`] aggregates named layers into the
//!   per-group and whole-network quantities the paper reports.
//!
//! ```
//! use wino_core::{CostModel, TransformSet, WinogradParams, transform_ops_2d};
//!
//! // F(4x4, 3x3): 36 multiplies replace 144 — at a transform cost we can
//! // quantify exactly.
//! let params = WinogradParams::new(4, 3)?;
//! let set = TransformSet::generate(params)?;
//! assert_eq!(params.mults_per_tile_2d(), 36);
//! assert_eq!(params.spatial_mults_per_tile_2d(), 144);
//! let ops = transform_ops_2d(&set, CostModel::Naive);
//! assert!(ops.beta > 0 && ops.delta > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod analysis;
mod complexity;
mod cse;
mod filtering;
mod layer;
mod opcount;
mod transform;
mod workload;

pub use analysis::{error_growth, random_matrix, ErrorGrowthPoint};
pub use complexity::{
    engine_cycles, fft_latency_seconds, fft_layer_mults, fft_output_tiles, implementation_overhead,
    latency_seconds, output_tiles, overhead_ratio_per_pe, overhead_ratio_shared, pe_count,
    pe_count_continuous, rfft2_mults, spatial_mults, spatial_ops, throughput_gops,
    transform_complexity, winograd_mults, TileModel, TransformBreakdown,
};
pub use cse::{cse_optimize, transform_ops_2d_cse, CseResult};
pub use filtering::{direct_correlate_1d, WinogradAlgorithm};
pub use layer::{ConvShape, ParamError, WinogradParams};
pub use opcount::{
    matrix_apply_ops, transform_ops_2d, transform_ops_for, CostModel, OpCount, TransformOps,
};
pub use transform::{canonical_points, lavin, RealTransforms, TransformError, TransformSet};
pub use workload::{Layer, Workload};

/// Re-export of the numeric substrate for downstream convenience.
pub use wino_tensor as tensor;
