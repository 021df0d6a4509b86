//! Heterogeneous per-layer design space exploration on VGG16-D — the
//! `wino-search` subsystem end to end.
//!
//! The paper selects a single `F(m×m, 3×3)` for the whole network
//! (m = 4 on its Virtex-7). Here every layer picks its own output-tile
//! size and PE allocation, the space is searched with all four
//! strategies, and the result is compared against the paper's
//! homogeneous design: the per-layer optimum must match or beat it,
//! because the homogeneous design is one corner of the per-layer space.
//!
//! ```sh
//! cargo run --release --example heterogeneous_dse
//! ```

use winofpga::prelude::*;

fn paper_baseline(evaluator: &Evaluator) -> Metrics {
    let point = DesignPoint::with_mult_budget(
        WinogradParams::new(4, 3).expect("valid"),
        Architecture::SharedTransform,
        700,
        200e6,
    );
    evaluator.evaluate(&point)
}

fn main() {
    let evaluator = Evaluator::new(vgg16d(1), virtex7_485t());
    let baseline = paper_baseline(&evaluator);
    println!("==================== VGG16-D x Virtex-7 485T ====================");
    println!(
        "paper's homogeneous F(4x4, 3x3) x19 PEs: {:.2} ms, {:.1} GOPS, {:.2} GOPS/W\n",
        baseline.total_latency_ms, baseline.throughput_gops, baseline.power_efficiency
    );

    // Each of VGG16-D's 13 layers picks m in {2, 3, 4} and an allocation
    // in {50%, 100%} of the 700-multiplier budget: 6^13 ~ 1.3e10 designs,
    // far beyond enumeration — the reason search strategies are pluggable.
    let space = HeterogeneousSpace::new(&evaluator, vec![2, 3, 4], vec![0.5, 1.0], 700, 200e6);
    println!(
        "heterogeneous space: {} eligible layers, {} dims, {:.3e} designs",
        space.eligible_layers(),
        space.dims(),
        space.size() as f64
    );

    let greedy = Greedy::default();
    let annealing = SimulatedAnnealing::default();
    let genetic = Genetic::default();
    let strategies: Vec<&dyn Strategy> = vec![&greedy, &annealing, &genetic];
    let (outcomes, archive) = compare_strategies(&space, &strategies, SearchObjective::Throughput);

    println!(
        "\n{:<22} {:>12} {:>12} {:>10} {:>10}",
        "strategy", "evaluations", "latency(ms)", "GOPS", "GOPS/W"
    );
    for outcome in &outcomes {
        if let Some((_, best)) = &outcome.best {
            println!(
                "{:<22} {:>12} {:>12.2} {:>10.1} {:>10.2}",
                outcome.strategy,
                outcome.evaluations,
                best.latency_ms,
                best.throughput_gops,
                best.power_efficiency
            );
        }
    }
    println!(
        "\n{} evaluations across the strategies, each one a table lookup per layer",
        outcomes.iter().map(|o| o.evaluations).sum::<usize>()
    );

    let best = outcomes
        .iter()
        .filter_map(|o| o.best.as_ref())
        .max_by(|(_, a), (_, b)| a.throughput_gops.total_cmp(&b.throughput_gops))
        .expect("some strategy found a feasible design");
    println!(
        "\nbest heterogeneous design: {:.2} ms, {:.1} GOPS ({:+.2}% vs paper)",
        best.1.latency_ms,
        best.1.throughput_gops,
        (best.1.throughput_gops / baseline.throughput_gops - 1.0) * 100.0
    );
    assert!(
        best.1.throughput_gops >= baseline.throughput_gops - 1e-9,
        "the homogeneous design is a corner of this space"
    );
    if let Some(designs) = space.layer_designs(&best.0) {
        println!("\nper-layer tile selection of the best design:");
        for d in designs {
            println!(
                "  {:<10} {} x{:<3} PEs  {:>8.3} ms",
                d.layer, d.algo, d.pe_count, d.latency_ms
            );
        }
    }

    println!("\nPareto archive across all strategies ({} designs):", archive.len());
    for entry in archive.entries().iter().take(8) {
        println!("  {}", entry.evaluation);
    }
    if archive.len() > 8 {
        println!("  ... and {} more", archive.len() - 8);
    }

    // The same machinery on an enumerable space: exhaustive over the
    // paper's homogeneous sweep, for cross-validation.
    let homogeneous = HomogeneousSpace::new(&evaluator, vec![2, 3, 4], 3, 700, 200e6);
    let exhaustive = Exhaustive::default();
    let strategies: Vec<&dyn Strategy> = vec![&exhaustive, &greedy, &annealing, &genetic];
    let (outcomes, _) = compare_strategies(&homogeneous, &strategies, SearchObjective::Throughput);
    println!("\nhomogeneous m in {{2,3,4}} cross-check (all strategies must agree):");
    for outcome in &outcomes {
        println!(
            "  {:<22} best {:.1} GOPS",
            outcome.strategy,
            outcome.best_score(SearchObjective::Throughput)
        );
    }
}
