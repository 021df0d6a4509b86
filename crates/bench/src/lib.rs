//! # wino-bench
//!
//! The benchmark harness of the `winofpga` reproduction: the paper's
//! results as one artifact, three host-measured studies, and Criterion
//! runtime benchmarks.
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `paper` | every paper artifact — Figs. 1–6, Tables I–II, the headline claims, Sec. IV-C, plus the roofline, engine-simulation, error-growth and β/γ/δ extensions → `PAPER_results.json` |
//! | `crossover` | spatial vs Winograd vs FFT per layer, and the search's pick → `BENCH_exec.json` |
//! | `quant_study` | fixed-point FRAC × m accuracy surface → `BENCH_quant.json` |
//! | `serve_storm` | sharded serving storm + SLO alerting (virtual clock) → `BENCH_serve.json` |
//!
//! Throughput and latency are measured by the repo benchmark
//! (`benchmark/`), not by these binaries.
//!
//! Run all of them:
//!
//! ```sh
//! for b in paper crossover quant_study; do
//!     cargo run --release -p wino-bench --bin $b
//! done
//! cargo run --release -p wino-bench --bin serve_storm -- --virtual-only
//! ```
//!
//! `EXPERIMENTS.md` at the repository root pairs each artifact with its
//! rows in `PAPER_results.json` and the known deviations (DESIGN.md §8).
//!
//! The library part of this crate is [`paper`]: every reproduction
//! result as a row with its published value and accept interval, which
//! the `paper` binary writes and `tests/paper_claims.rs` asserts.
//!
//! ```
//! use wino_bench::paper::Row;
//!
//! let row = Row { artifact: "table1", row: "LUT saving (%)".into(), published: Some(53.6),
//!                 ours: 53.57, accept: (53.1, 54.1), digits: 1 };
//! assert!(row.passes());
//! assert!((row.deviation().unwrap() + 0.056).abs() < 1e-3); // percent
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod paper;
