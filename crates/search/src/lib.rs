//! # wino-search
//!
//! A pluggable, parallel design-space-exploration strategy engine for
//! the `winofpga` reproduction of Ahmad & Pasha (DATE 2019).
//!
//! The paper's evaluation sweeps a tiny homogeneous space — one
//! `F(m×m, r×r)` for the whole network — which `wino_dse::sweep_m`
//! reproduces exactly. This crate turns that sweep into a subsystem:
//!
//! * [`SearchSpace`] — integer-encoded design spaces: the paper's
//!   [`HomogeneousSpace`] and a [`HeterogeneousSpace`] where every
//!   Winograd-eligible layer picks its own output-tile size *and* PE
//!   allocation (the space real toolflows face, far too large to
//!   enumerate);
//! * [`Strategy`] — pluggable search algorithms sharing one
//!   [`EvalCache`], which counts evaluations and memoizes nothing (every
//!   space is already its own cost table): [`Exhaustive`] (parallelized
//!   across threads),
//!   [`Greedy`] hill climbing, [`SimulatedAnnealing`], and [`Genetic`],
//!   all deterministic under seeded [`wino_tensor::SplitMix64`] streams;
//! * [`ParetoArchive`] — the multi-objective result set over
//!   throughput, power efficiency, latency, and resource head-room.
//!
//! ```
//! use wino_dse::Evaluator;
//! use wino_fpga::virtex7_485t;
//! use wino_models::vgg16d;
//! use wino_search::{
//!     compare_strategies, Exhaustive, Greedy, HomogeneousSpace, SearchObjective, Strategy,
//! };
//!
//! // The paper's homogeneous space, searched by two strategies that
//! // must agree on so small a space.
//! let evaluator = Evaluator::new(vgg16d(1), virtex7_485t());
//! let space = HomogeneousSpace::new(&evaluator, vec![2, 3, 4], 3, 700, 200e6);
//! let exhaustive = Exhaustive::default();
//! let greedy = Greedy::default();
//! let (outcomes, archive) = compare_strategies(
//!     &space,
//!     &[&exhaustive as &dyn Strategy, &greedy],
//!     SearchObjective::Throughput,
//! );
//! let best = outcomes[0].best.as_ref().expect("a design fits");
//! assert!((best.1.throughput_gops - 1094.3).abs() < 2.0); // the paper's m = 4 design
//! assert_eq!(outcomes[0].best_score(SearchObjective::Throughput),
//!            outcomes[1].best_score(SearchObjective::Throughput));
//! assert!(!archive.is_empty());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cache;
mod objective;
mod pareto;
mod space;
mod strategy;

pub use cache::EvalCache;
pub use objective::{resource_headroom, Evaluation, SearchObjective, OBJECTIVE_COUNT};
pub use pareto::{ArchiveEntry, ParetoArchive};
pub use space::{
    AlgorithmChoice, Genome, HeterogeneousSpace, HomogeneousSpace, LayerDesign, SearchSpace,
};
pub use strategy::{
    compare_strategies, Exhaustive, Genetic, Greedy, SearchOutcome, SimulatedAnnealing, Strategy,
};
