//! # wino-dse
//!
//! Design space exploration and experiment regeneration for the
//! `winofpga` reproduction of Ahmad & Pasha (DATE 2019).
//!
//! * [`DesignPoint`] / [`Evaluator`] / [`Metrics`] — evaluate any
//!   `F(m×m, r×r)` engine configuration on a workload + device using the
//!   paper's analytical models (Eqs. 4–10) and the calibrated resource /
//!   power models of [`wino_fpga`];
//! * [`sweep_m`] / [`pareto_front`] / [`best_design`] — the exploration
//!   loop that re-derives the paper's conclusions (m = 4 for throughput,
//!   m = 2 for power efficiency, m ≥ 5 never pays);
//! * [`figures`](mod@crate::figures) / [`tables`](mod@crate::tables) —
//!   generators for every figure and table of the paper, with the
//!   published values embedded for side-by-side comparison;
//! * [`qiu_fpga16`] / [`podili_asap17`] / [`podili_normalized`] — the
//!   published numbers of Qiu et al. \[12\] and Podili et al. \[3\],
//!   carried as cited constants.
//!
//! ```
//! use wino_dse::{best_design, Evaluator, Objective};
//! use wino_fpga::virtex7_485t;
//! use wino_models::vgg16d;
//!
//! let evaluator = Evaluator::new(vgg16d(1), virtex7_485t());
//! let (point, metrics) =
//!     best_design(&evaluator, &[2, 3, 4], 3, 700, 200e6, Objective::Throughput)
//!         .expect("a design fits");
//! assert_eq!(point.params.m(), 4); // the paper's chosen design
//! assert!(metrics.throughput_gops > 1000.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod algorithms;
mod baselines;
mod explore;
pub mod figures;
mod mapping;
mod point;
mod render;
pub mod roofline;
pub mod tables;

pub use algorithms::fft_context_latency_seconds;
pub use baselines::{podili_asap17, podili_normalized, qiu_fpga16, BaselineRecord, Provenance};
pub use explore::{best_design, pareto_front, sweep_m, Objective};
pub use figures::{fig1, fig2, fig3, fig6, transform_ops_series, SeriesFigure};
pub use mapping::{map_workload, winograd_eligible, LayerTarget, MappedLayer, WorkloadMapping};
pub use point::{DesignPoint, Evaluator, Metrics};
pub use render::{fmt_f, TextTable};
pub use roofline::{
    ddr3_1600, ddr3_1600_x2, layer_traffic, peak_gops, roofline, LayerTraffic, MemorySystem,
    RooflinePoint,
};
pub use tables::{table1, table2, table2_text, Table1, Table2Column};
