//! Cross-crate integration tests for the `wino-search` strategy engine:
//! the acceptance criteria of the subsystem.
//!
//! * On a homogeneous `m ∈ {2, 3, 4}` space, all four strategies return
//!   the exhaustive optimum (the paper's m = 4 design).
//! * On VGG16-D × Virtex-7 485T, heterogeneous per-layer search finds a
//!   design at least as fast as the paper's homogeneous m = 4 design.
//! * On a space small enough to enumerate, metaheuristics never beat
//!   exhaustive search, and the Pareto archive matches a brute-force
//!   non-dominated filter.

use winofpga::prelude::*;

fn paper_evaluator() -> Evaluator {
    Evaluator::new(vgg16d(1), virtex7_485t())
}

fn paper_m4_metrics() -> Metrics {
    let point = DesignPoint::with_mult_budget(
        WinogradParams::new(4, 3).expect("valid"),
        Architecture::SharedTransform,
        700,
        200e6,
    );
    paper_evaluator().evaluate(&point)
}

#[test]
fn all_strategies_agree_with_exhaustive_on_homogeneous_m234() {
    let space = HomogeneousSpace::new(&paper_evaluator(), vec![2, 3, 4], 3, 700, 200e6);
    let exhaustive = Exhaustive::default();
    let greedy = Greedy::default();
    let annealing = SimulatedAnnealing::default();
    let genetic = Genetic::default();
    let strategies: Vec<&dyn Strategy> = vec![&exhaustive, &greedy, &annealing, &genetic];
    let (outcomes, _) = compare_strategies(&space, &strategies, SearchObjective::Throughput);

    let optimum = outcomes[0].best_score(SearchObjective::Throughput);
    // The optimum is the paper's m = 4 design (Table II: 1094.3 GOPS).
    assert!((optimum - 1094.3).abs() < 2.0, "exhaustive found {optimum}");
    let (genome, _) = outcomes[0].best.as_ref().expect("feasible");
    assert!(space.describe(genome).contains("F(4x4, 3x3)"));

    for outcome in &outcomes[1..] {
        assert_eq!(
            outcome.best_score(SearchObjective::Throughput),
            optimum,
            "{} disagrees with exhaustive on a 3-point space",
            outcome.strategy
        );
    }
}

#[test]
fn heterogeneous_search_matches_or_beats_the_papers_m4_design() {
    let evaluator = paper_evaluator();
    let baseline = paper_m4_metrics();
    assert!((baseline.throughput_gops - 1094.3).abs() < 2.0, "baseline sanity");

    let space = HeterogeneousSpace::new(&evaluator, vec![2, 3, 4], vec![0.5, 1.0], 700, 200e6);
    // 6^13 designs: enumeration is impossible, metaheuristics required.
    assert!(space.size() > 1u128 << 33);

    // Greedy reaching the global optimum here is structural, not seed
    // luck: throughput decomposes over layers (each dimension affects
    // exactly one layer's latency) and every design in this space fits
    // the device, so coordinate ascent has no local optima to fall into.
    let cache = EvalCache::new();
    let mut archive = ParetoArchive::new();
    let outcome =
        Greedy::default().search(&space, &cache, SearchObjective::Throughput, &mut archive);
    let (genome, best) = outcome.best.expect("a feasible design exists");
    assert!(
        best.throughput_gops >= baseline.throughput_gops - 1e-9,
        "heterogeneous search ({:.1} GOPS) must match or beat the paper ({:.1} GOPS)",
        best.throughput_gops,
        baseline.throughput_gops
    );
    assert!(best.feasible);
    // The winning design runs every layer under F(4x4, 3x3) at full
    // allocation — the paper's conclusion, rediscovered per layer.
    let designs = space.layer_designs(&genome).expect("valid genome");
    assert!(designs
        .iter()
        .all(|d| matches!(d.algo, AlgorithmChoice::Winograd(p) if p.m() == 4) && d.pe_count == 19));
}

#[test]
fn exhaustive_heterogeneous_on_tiny_cnn_confirms_metaheuristics() {
    // TinyCNN has 3 eligible layers; with 2 tile and 2 allocation
    // choices the space has 4^3 = 64 designs — enumerable, so exhaustive
    // is ground truth for every other strategy.
    let evaluator = Evaluator::new(tiny_cnn(1), virtex7_485t());
    let space = HeterogeneousSpace::new(&evaluator, vec![2, 4], vec![0.5, 1.0], 700, 200e6);
    assert_eq!(space.size(), 64);

    let exhaustive = Exhaustive::default();
    let greedy = Greedy::default();
    let annealing = SimulatedAnnealing::default();
    let genetic = Genetic::default();
    let strategies: Vec<&dyn Strategy> = vec![&exhaustive, &greedy, &annealing, &genetic];

    for objective in [
        SearchObjective::Throughput,
        SearchObjective::PowerEfficiency,
        SearchObjective::Latency,
        SearchObjective::ResourceHeadroom,
    ] {
        let (outcomes, archive) = compare_strategies(&space, &strategies, objective);
        let optimum = outcomes[0].best_score(objective);
        assert!(optimum.is_finite(), "{objective}: no feasible design");
        for outcome in &outcomes {
            let score = outcome.best_score(objective);
            assert!(
                score <= optimum + 1e-12,
                "{} beat exhaustive on {objective}: {score} > {optimum}",
                outcome.strategy
            );
        }
        // Exhaustive saw every design, so the archive's best equals the
        // exhaustive optimum.
        let archived = archive.best_by(objective).expect("non-empty archive");
        assert!((objective.score(&archived.evaluation) - optimum).abs() < 1e-12);
    }
}

#[test]
fn archive_equals_brute_force_pareto_filter() {
    let evaluator = Evaluator::new(tiny_cnn(1), virtex7_485t());
    let space = HeterogeneousSpace::new(&evaluator, vec![2, 3, 4], vec![1.0], 700, 200e6);
    assert_eq!(space.size(), 27);

    let cache = EvalCache::new();
    let mut archive = ParetoArchive::new();
    Exhaustive::default().search(&space, &cache, SearchObjective::Throughput, &mut archive);

    // Brute force: a feasible design belongs to the front iff nothing
    // dominates it.
    let evals: Vec<(Genome, Evaluation)> = (0..27)
        .map(|i| {
            let g = space.genome_at(i);
            let e = space.evaluate(&g);
            (g, e)
        })
        .collect();
    let front: Vec<&(Genome, Evaluation)> = evals
        .iter()
        .filter(|(_, e)| e.feasible && !evals.iter().any(|(_, o)| o.dominates(e)))
        .collect();
    // Compare as objective-vector sets (the archive dedups identical
    // vectors, so compare through them).
    let mut expected: Vec<_> = front.iter().map(|(_, e)| format!("{:?}", e.objectives())).collect();
    expected.sort();
    expected.dedup();
    let mut got: Vec<_> =
        archive.entries().iter().map(|e| format!("{:?}", e.evaluation.objectives())).collect();
    got.sort();
    assert_eq!(got, expected);
}
