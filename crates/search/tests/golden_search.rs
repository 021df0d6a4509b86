//! Pins every search outcome bit for bit across commits.
//!
//! The strategy tests compare strategies with each other or with an
//! oracle of the current code, so a change to how a space evaluates —
//! or to what sits between a strategy and its space — that moves a
//! result on both sides passes them all. This test runs each strategy
//! at fixed seeds over the benchmark-shaped heterogeneous space of every
//! `model_zoo(1)` model, plus exhaustive search over TinyCNN's whole
//! space and over the paper's homogeneous `m = 1..=7` space, and hashes
//! each outcome's evaluation count, best genome, the bits of every field
//! of its best evaluation, its description, and the Pareto archive's
//! entries in order. Evaluation is deterministic and strategies branch
//! only on evaluation values, so the hash is a property of the cost
//! models and the strategies alone.
//!
//! If a change is *meant* to alter a search outcome, re-record the
//! constant and say so in the change log.

use wino_dse::Evaluator;
use wino_fpga::virtex7_485t;
use wino_models::{model_zoo, tiny_cnn};
use wino_search::{
    EvalCache, Evaluation, Exhaustive, Genetic, Greedy, HeterogeneousSpace, HomogeneousSpace,
    ParetoArchive, SearchObjective, SearchOutcome, SearchSpace, SimulatedAnnealing, Strategy,
};

/// FNV-1a over every outcome and archive, in run order, recorded before
/// the evaluation cache and the homogeneous evaluator memo were removed.
const GOLDEN: u64 = 0x4779_334d_2d4e_4217;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a, folded one `u64` at a time (little-endian bytes).
fn fnv1a(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

fn hash_genome(hash: u64, genome: &[usize]) -> u64 {
    genome.iter().fold(fnv1a(hash, genome.len() as u64), |h, &g| fnv1a(h, g as u64))
}

fn hash_evaluation(hash: u64, e: &Evaluation) -> u64 {
    let r = &e.resources;
    [
        e.throughput_gops.to_bits(),
        e.power_efficiency.to_bits(),
        e.latency_ms.to_bits(),
        e.power_w.to_bits(),
        e.headroom.to_bits(),
        e.quant_error.to_bits(),
        r.luts,
        r.registers,
        r.dsps,
        r.multipliers,
        u64::from(e.feasible),
    ]
    .into_iter()
    .fold(hash, fnv1a)
}

fn hash_outcome(hash: u64, space: &dyn SearchSpace, outcome: &SearchOutcome) -> u64 {
    let mut hash = fnv1a(hash, outcome.evaluations as u64);
    match &outcome.best {
        None => fnv1a(hash, u64::MAX),
        Some((genome, evaluation)) => {
            hash = hash_evaluation(hash_genome(hash, genome), evaluation);
            space.describe(genome).bytes().fold(hash, |h, b| fnv1a(h, u64::from(b)))
        }
    }
}

fn hash_archive(hash: u64, archive: &ParetoArchive) -> u64 {
    archive.entries().iter().fold(fnv1a(hash, archive.len() as u64), |h, entry| {
        hash_evaluation(hash_genome(h, &entry.genome), &entry.evaluation)
    })
}

/// Runs `strategies` in order over `space` under `objective`, sharing
/// one archive, and folds every outcome and then the archive into
/// `hash`.
fn run(
    hash: u64,
    space: &dyn SearchSpace,
    strategies: &[&dyn Strategy],
    objective: SearchObjective,
) -> u64 {
    let cache = EvalCache::new();
    let mut archive = ParetoArchive::new();
    let hash = strategies.iter().fold(hash, |h, strategy| {
        let outcome = strategy.search(space, &cache, objective, &mut archive);
        hash_outcome(h, space, &outcome)
    });
    hash_archive(hash, &archive)
}

/// The benchmark's space over `evaluator`'s workload: four tile sizes,
/// four allocations, three FFT sizes.
fn benchmark_space(evaluator: &Evaluator) -> HeterogeneousSpace {
    HeterogeneousSpace::new(evaluator, vec![2, 3, 4, 6], vec![0.25, 0.5, 0.75, 1.0], 700, 200e6)
        .with_fft_sizes(vec![8, 16, 32])
}

const OBJECTIVES: [SearchObjective; 2] =
    [SearchObjective::Throughput, SearchObjective::ResourceHeadroom];

#[test]
fn search_outcomes_match_the_recorded_hash() {
    let greedy = Greedy { seed: 11, restarts: 4, max_evaluations: 3_000 };
    let annealing = SimulatedAnnealing { seed: 12, iterations: 3_000, ..Default::default() };
    let genetic = Genetic { seed: 13, population: 24, generations: 30, ..Default::default() };
    let exhaustive = Exhaustive { threads: 2 };
    let metaheuristics: [&dyn Strategy; 3] = [&greedy, &annealing, &genetic];
    let all: [&dyn Strategy; 4] = [&exhaustive, &greedy, &annealing, &genetic];

    let mut hash = FNV_OFFSET;
    let mut per_run = Vec::new();
    for workload in model_zoo(1) {
        let name = workload.name().to_string();
        let evaluator = Evaluator::new(workload, virtex7_485t());
        let space = benchmark_space(&evaluator);
        for objective in OBJECTIVES {
            hash = run(hash, &space, &metaheuristics, objective);
            per_run.push(format!("{name}/{objective}: {hash:#018x}"));
        }
    }

    let tiny = Evaluator::new(tiny_cnn(1), virtex7_485t());
    let space = benchmark_space(&tiny);
    for objective in OBJECTIVES {
        hash = run(hash, &space, &[&exhaustive], objective);
        per_run.push(format!("tiny exhaustive/{objective}: {hash:#018x}"));
    }

    let vgg = Evaluator::new(wino_models::vgg16d(1), virtex7_485t());
    let homogeneous = HomogeneousSpace::new(&vgg, (1..=7).collect(), 3, 700, 200e6);
    for objective in OBJECTIVES {
        hash = run(hash, &homogeneous, &all, objective);
        per_run.push(format!("homogeneous/{objective}: {hash:#018x}"));
    }

    assert_eq!(hash, GOLDEN, "search outcomes moved; running hashes:\n{}", per_run.join("\n"));
}
