//! # wino-bench
//!
//! The benchmark harness of the `winofpga` reproduction: one binary per
//! paper artifact plus Criterion runtime benchmarks.
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `fig1` | Fig. 1 — multiplication complexity per VGG16-D group |
//! | `fig2` | Fig. 2 — net transform complexity vs m |
//! | `fig3` | Fig. 3 — percentage complexity variations vs m |
//! | `fig4` | Fig. 4 — 1-D engine structure, ours vs \[3\] |
//! | `fig5` | Fig. 5 — 2-D PE composition |
//! | `fig6` | Fig. 6 — throughput vs m and multiplier budget |
//! | `table1` | Table I — resource utilization at 19 PEs `F(4×4,3×3)` |
//! | `table2` | Table II — full VGG16-D performance comparison |
//! | `roofline` | roofline extension — memory- vs compute-bound layers |
//! | `engine_demo` | Fig. 7 — cycle-level system simulation |
//! | `error_growth` | fp32 accuracy vs tile size (precision discussion) |
//! | `overhead` | Sec. IV-C transform-overhead ratios (Eq. 7) |
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
//! for b in fig1 fig2 fig3 fig4 fig5 fig6 table1 table2 roofline \
//!          engine_demo error_growth overhead crossover quant_study; do
//!     cargo run --release -p wino-bench --bin $b
//! done
//! cargo run --release -p wino-bench --bin serve_storm -- --virtual-only
//! ```
//!
//! `EXPERIMENTS.md` at the repository root pairs each binary with the
//! paper artifact it regenerates, its expected output, and the known
//! deviations (DESIGN.md §8).
//!
//! The library part of this crate is the comparison-table helper the
//! binaries share:
//!
//! ```
//! use wino_bench::max_relative_deviation;
//!
//! let rows = vec![("latency".to_owned(), 28.05, 28.06)];
//! assert!(max_relative_deviation(&rows) < 1e-3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use wino_dse::TextTable;

/// Prints a paper-vs-measured table with relative deviations.
///
/// `rows` are `(label, paper value, measured value)`; deviations are
/// printed in percent (`-` when the paper value is zero).
pub fn print_comparison(title: &str, rows: &[(String, f64, f64)], digits: usize) {
    let mut table = TextTable::new(vec!["quantity", "paper", "measured", "deviation"]);
    for (label, paper, measured) in rows {
        let dev = if *paper != 0.0 {
            format!("{:+.1}%", 100.0 * (measured - paper) / paper)
        } else {
            "-".to_owned()
        };
        table.push_row(vec![
            label.clone(),
            format!("{paper:.digits$}"),
            format!("{measured:.digits$}"),
            dev,
        ]);
    }
    println!("=== {title} ===");
    println!("{}", table.to_ascii());
}

/// Maximum relative deviation across comparison rows (ignoring zero paper
/// values).
pub fn max_relative_deviation(rows: &[(String, f64, f64)]) -> f64 {
    rows.iter()
        .filter(|(_, p, _)| *p != 0.0)
        .map(|(_, p, m)| ((m - p) / p).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deviation_math() {
        let rows = vec![
            ("a".to_owned(), 100.0, 101.0),
            ("b".to_owned(), 50.0, 49.0),
            ("zero".to_owned(), 0.0, 1.0),
        ];
        let max = max_relative_deviation(&rows);
        assert!((max - 0.02).abs() < 1e-12);
        print_comparison("test", &rows, 1); // must not panic
    }
}
