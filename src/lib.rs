//! # winofpga
//!
//! A full reproduction, as a Rust library, of
//! *"Towards Design Space Exploration and Optimization of Fast Algorithms
//! for Convolutional Neural Networks (CNNs) on FPGAs"*
//! (Afzal Ahmad & Muhammad Adeel Pasha, DATE 2019, arXiv:1903.01811).
//!
//! The workspace re-implements everything the paper's evaluation rests
//! on — Winograd minimal filtering with exact transform generation, the
//! baseline convolution algorithms, the VGG16-D workload, a cycle-level
//! simulator of the proposed pipelined engine and of the Podili et al.
//! baseline, calibrated FPGA resource/power models, and the design space
//! exploration that regenerates every figure and table — and goes
//! beyond the paper with `wino-search`, a pluggable strategy engine
//! over heterogeneous per-layer design spaces, and `wino-exec`, a
//! batched thread-parallel Winograd execution engine — generic over the
//! datapath scalar, so the same kernels run the paper's `f32` and the
//! saturating fixed-point arithmetic of the quantization study — that
//! turns search results into runnable, oracle-verified schedules, and
//! `wino-serve`, a multi-tenant serving subsystem (model registry,
//! dynamic batcher, SLO-aware admission, sharded worker groups with
//! work stealing of released batches, per-shard latency metrics)
//! that puts a request path in front of the execution engine, and
//! `wino-obs`, a dependency-free observability layer (per-thread
//! phase spans, request-event traces, the flight recorder) threaded
//! through both. See
//! `DESIGN.md` at the repository root for the system inventory,
//! `docs/ARCHITECTURE.md` for the crate map, and `EXPERIMENTS.md`
//! for the command reproducing every paper artifact.
//!
//! This crate is the facade: it re-exports the sub-crates under stable
//! names and hosts the runnable examples and cross-crate integration
//! tests.
//!
//! ## Quick start
//!
//! ```
//! use winofpga::prelude::*;
//!
//! // 1. The algorithm: F(4x4, 3x3) does 36 multiplies where direct
//! //    convolution does 144, exactly.
//! let params = WinogradParams::new(4, 3)?;
//! let algo = WinogradAlgorithm::<f32>::for_params(params)?;
//!
//! // 2. The design space: the paper's best design on its Virtex-7.
//! let evaluator = Evaluator::new(vgg16d(1), virtex7_485t());
//! let (best, metrics) =
//!     best_design(&evaluator, &[2, 3, 4], 3, 700, 200e6, Objective::Throughput)
//!         .expect("a design fits");
//! assert_eq!(best.params.m(), 4);
//! assert!((metrics.total_latency_ms - 28.05).abs() < 0.05); // Table II
//!
//! // 3. Beyond the paper: search a heterogeneous per-layer space (each
//! //    eligible layer picks its own tile size and PE allocation) with
//! //    a pluggable strategy. On THIS space greedy provably reaches the
//! //    paper's all-m=4 corner: throughput decomposes over layers (each
//! //    dimension touches one layer's latency) and every design here
//! //    fits the device, so coordinate ascent has no local optima.
//! let evaluator = Evaluator::new(vgg16d(1), virtex7_485t());
//! let space = HeterogeneousSpace::new(&evaluator, vec![2, 3, 4], vec![0.5, 1.0], 700, 200e6);
//! let counter = EvalCache::new(); // counts evaluations; memoizes nothing
//! let mut archive = ParetoArchive::new();
//! let outcome = Greedy::default()
//!     .search(&space, &counter, SearchObjective::Throughput, &mut archive);
//! assert_eq!(counter.misses(), outcome.evaluations as u64);
//! let (_, best_found) = outcome.best.expect("a design fits");
//! assert!(best_found.throughput_gops >= metrics.throughput_gops - 1e-9);
//! # let _ = algo;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Crate map
//!
//! | Re-export | Crate | Contents |
//! |---|---|---|
//! | [`tensor`] | `wino-tensor` | exact rationals, fixed point, tensors |
//! | [`core`] | `wino-core` | transforms, fast convolution, Eqs. 4–10 |
//! | [`baselines`] | `wino-baselines` | spatial oracle, FFT primitives, FFT cost model |
//! | [`models`] | `wino-models` | VGG16-D, AlexNet, ResNet-18 |
//! | [`fpga`] | `wino-fpga` | devices, resources, power |
//! | [`engine`] | `wino-engine` | cycle-level engine simulator |
//! | [`dse`] | `wino-dse` | exploration, figures, tables |
//! | [`search`] | `wino-search` | strategy engine, heterogeneous spaces, Pareto archive |
//! | [`obs`] | `wino-obs` | phase spans, request traces, flight recorder |
//! | [`exec`] | `wino-exec` | batched thread-parallel execution engine, schedules |
//! | [`serve`] | `wino-serve` | multi-tenant batched inference serving |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use wino_baselines as baselines;
pub use wino_core as core;
pub use wino_dse as dse;
pub use wino_engine as engine;
pub use wino_exec as exec;
pub use wino_fpga as fpga;
pub use wino_models as models;
pub use wino_obs as obs;
pub use wino_search as search;
pub use wino_serve as serve;
pub use wino_tensor as tensor;

/// One-stop imports for applications.
pub mod prelude {
    pub use wino_baselines::spatial_convolve;
    pub use wino_core::{
        canonical_points, cse_optimize, transform_ops_2d, transform_ops_for, ConvShape, CostModel,
        TileModel, TransformOps, TransformSet, WinogradAlgorithm, WinogradParams, Workload,
    };
    pub use wino_dse::{
        best_design, fft_context_latency_seconds, fig1, fig2, fig3, fig6, pareto_front, sweep_m,
        table1, table2, table2_text, DesignPoint, Evaluator, Metrics, Objective,
    };
    pub use wino_engine::{EngineConfig, SimReport, WinogradEngine};
    pub use wino_exec::{
        fft_error_bound, quant_error_bound, ConvBackend, EnginePlan, ExecConfig, LayerPlan,
        LayerReport, NetworkExecutor, NetworkReport, Precision, PreparedFft, PreparedPlan,
        PreparedSpatial, PreparedWinograd, QuantConfig, QuantError, Schedule, ScheduleError,
        VerifyError,
    };
    pub use wino_fpga::{
        fft_engine, paper_calibrated_model, stratix_v_gt, virtex7_485t, zynq_7045, Architecture,
        EngineResources, FpgaDevice, PowerModel, ResourceUsage,
    };
    pub use wino_models::{alexnet, model_zoo, resnet18, shrink, tiny_cnn, vgg16d};
    pub use wino_obs::{Span, SpanRecord};
    pub use wino_search::{
        compare_strategies, AlgorithmChoice, EvalCache, Evaluation, Exhaustive, Genetic, Genome,
        Greedy, HeterogeneousSpace, HomogeneousSpace, LayerDesign, ParetoArchive, SearchObjective,
        SearchOutcome, SearchSpace, SimulatedAnnealing, Strategy,
    };
    pub use wino_serve::{
        AdmissionError, BatchConfig, ClassWaitSnapshot, Clock, DynamicBatcher, InferOutput,
        InferResult, MetricsSnapshot, ModelEntry, ModelId, ModelRegistry, Priority, RequestError,
        ResponseHandle, ServeConfig, Server, ShardPoll, ShardSet, SystemClock, VirtualClock,
    };
    pub use wino_tensor::{
        ratio, ErrorStats, Fixed, Ratio, Scalar, Shape4, SplitMix64, Tensor2, Tensor4,
    };
}
