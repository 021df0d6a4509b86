//! Pluggable search strategies.
//!
//! Exhaustive enumeration re-derives the paper's conclusions on small
//! homogeneous spaces; the heterogeneous per-layer space explodes
//! combinatorially (6¹³ ≈ 1.3·10¹⁰ candidates for VGG16-D with three
//! tile and two allocation choices), which is exactly why real toolflows
//! treat search strategy as a pluggable subsystem. All strategies
//! evaluate through the same [`EvalCache`] counter and feed the same
//! [`ParetoArchive`], and all randomized strategies draw from a seeded
//! [`SplitMix64`], so runs are reproducible.

use crate::{EvalCache, Evaluation, Genome, ParetoArchive, SearchObjective, SearchSpace};
use wino_tensor::SplitMix64;

/// Result of one strategy run.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Strategy name.
    pub strategy: &'static str,
    /// Number of design evaluations requested, revisits included.
    pub evaluations: usize,
    /// Best feasible design found under the run's objective.
    pub best: Option<(Genome, Evaluation)>,
}

impl SearchOutcome {
    /// Score of the best design, `-inf` when none was feasible.
    pub fn best_score(&self, objective: SearchObjective) -> f64 {
        self.best.as_ref().map_or(f64::NEG_INFINITY, |(_, e)| objective.score(e))
    }
}

/// A design-space search strategy.
///
/// Implementations evaluate candidates through the shared `cache`, which
/// counts them (see [`EvalCache`]), offer
/// every evaluated candidate to `archive`, and return the best feasible
/// design under `objective`.
pub trait Strategy {
    /// Strategy name for reports.
    fn name(&self) -> &'static str;

    /// Runs the search.
    fn search(
        &self,
        space: &dyn SearchSpace,
        cache: &EvalCache,
        objective: SearchObjective,
        archive: &mut ParetoArchive,
    ) -> SearchOutcome;
}

/// Tracks the incumbent with strict-improvement replacement, so the
/// first design reaching the best score wins ties deterministically.
#[derive(Default)]
struct Incumbent {
    best: Option<(Genome, Evaluation, f64)>,
}

impl Incumbent {
    fn offer(&mut self, genome: &[usize], evaluation: Evaluation, score: f64) {
        let improved = match &self.best {
            None => score > f64::NEG_INFINITY,
            Some((_, _, incumbent)) => score > *incumbent,
        };
        if improved {
            self.best = Some((genome.to_vec(), evaluation, score));
        }
    }

    fn into_best(self) -> Option<(Genome, Evaluation)> {
        self.best.map(|(g, e, _)| (g, e))
    }
}

/// Exhaustive enumeration, parallelized across worker threads.
///
/// Guaranteed optimal; only viable on enumerable spaces, so
/// [`Exhaustive::search`] refuses spaces larger than
/// [`Exhaustive::MAX_POINTS`].
#[derive(Debug, Clone)]
pub struct Exhaustive {
    /// Worker threads to fan evaluation across.
    pub threads: usize,
}

impl Default for Exhaustive {
    fn default() -> Exhaustive {
        Exhaustive { threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) }
    }
}

impl Exhaustive {
    /// Upper bound on enumerable space size (2²⁴ designs).
    pub const MAX_POINTS: u128 = 1 << 24;
}

impl Strategy for Exhaustive {
    fn name(&self) -> &'static str {
        "exhaustive"
    }

    /// # Panics
    ///
    /// Panics when the space holds more than [`Exhaustive::MAX_POINTS`]
    /// candidates — use a metaheuristic there.
    fn search(
        &self,
        space: &dyn SearchSpace,
        cache: &EvalCache,
        objective: SearchObjective,
        archive: &mut ParetoArchive,
    ) -> SearchOutcome {
        let total = space.size();
        assert!(
            total <= Exhaustive::MAX_POINTS,
            "exhaustive search over {total} designs is not enumerable; use a metaheuristic"
        );
        let total = total as usize;
        let threads = self.threads.clamp(1, total.max(1));
        let chunk = total.div_ceil(threads);

        // Each worker scans a contiguous index range and reports its
        // local incumbent and local Pareto front; merging in chunk order
        // keeps the outcome deterministic regardless of thread timing.
        type WorkerReport = (Option<(Genome, Evaluation, f64)>, ParetoArchive);
        let mut locals: Vec<WorkerReport> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|w| {
                    let lo = w * chunk;
                    let hi = ((w + 1) * chunk).min(total);
                    scope.spawn(move || {
                        let mut incumbent = Incumbent::default();
                        let mut local = ParetoArchive::new();
                        for index in lo..hi {
                            let genome = space.genome_at(index as u128);
                            let evaluation = cache.evaluate(space, &genome);
                            incumbent.offer(&genome, evaluation, objective.score(&evaluation));
                            local.insert(genome, evaluation);
                        }
                        (incumbent.best, local)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("worker panicked")).collect()
        });

        let mut incumbent = Incumbent::default();
        for (local_best, local_archive) in locals.drain(..) {
            if let Some((genome, evaluation, score)) = local_best {
                incumbent.offer(&genome, evaluation, score);
            }
            archive.merge(local_archive);
        }
        SearchOutcome { strategy: self.name(), evaluations: total, best: incumbent.into_best() }
    }
}

/// Steepest-ascent hill climbing with random restarts.
///
/// From each restart, every ±1 neighbor along every dimension is probed
/// and the best strict improvement is taken until a local optimum.
#[derive(Debug, Clone)]
pub struct Greedy {
    /// RNG seed for restart positions.
    pub seed: u64,
    /// Number of independent restarts.
    pub restarts: usize,
    /// Hard cap on evaluations across all restarts.
    pub max_evaluations: usize,
}

impl Default for Greedy {
    fn default() -> Greedy {
        Greedy { seed: 0x5EED_0001, restarts: 8, max_evaluations: 20_000 }
    }
}

impl Strategy for Greedy {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn search(
        &self,
        space: &dyn SearchSpace,
        cache: &EvalCache,
        objective: SearchObjective,
        archive: &mut ParetoArchive,
    ) -> SearchOutcome {
        let mut rng = SplitMix64::new(self.seed);
        let mut incumbent = Incumbent::default();
        let mut evaluations = 0usize;

        'restarts: for _ in 0..self.restarts.max(1) {
            let mut current = space.random_genome(&mut rng);
            let current_eval = cache.evaluate(space, &current);
            evaluations += 1;
            archive.offer(&current, current_eval);
            let mut current_score = objective.finite_score(&current_eval);
            incumbent.offer(&current, current_eval, objective.score(&current_eval));

            loop {
                // Neighbors are probed in place; the step is kept as the
                // (dimension, value) it changes.
                let mut step: Option<(usize, usize, f64)> = None;
                for dim in 0..space.dims() {
                    let here = current[dim];
                    for delta in [-1isize, 1] {
                        let value = here as isize + delta;
                        if value < 0 || value >= space.cardinality(dim) as isize {
                            continue;
                        }
                        if evaluations >= self.max_evaluations {
                            break 'restarts;
                        }
                        current[dim] = value as usize;
                        let evaluation = cache.evaluate(space, &current);
                        evaluations += 1;
                        archive.offer(&current, evaluation);
                        incumbent.offer(&current, evaluation, objective.score(&evaluation));
                        let score = objective.finite_score(&evaluation);
                        if score > current_score && step.is_none_or(|(_, _, s)| score > s) {
                            step = Some((dim, value as usize, score));
                        }
                    }
                    current[dim] = here;
                }
                match step {
                    Some((dim, value, score)) => {
                        current[dim] = value;
                        current_score = score;
                    }
                    None => break,
                }
            }
        }

        SearchOutcome { strategy: self.name(), evaluations, best: incumbent.into_best() }
    }
}

/// Simulated annealing with geometric cooling.
///
/// The temperature scale is relative to the first feasible score, so one
/// configuration works across objectives of very different magnitudes
/// (GOPS in the thousands vs head-room fractions).
#[derive(Debug, Clone)]
pub struct SimulatedAnnealing {
    /// RNG seed.
    pub seed: u64,
    /// Total proposal steps.
    pub iterations: usize,
    /// Initial temperature as a fraction of the starting score scale.
    pub initial_temperature: f64,
    /// Geometric cooling factor per step.
    pub cooling: f64,
}

impl Default for SimulatedAnnealing {
    fn default() -> SimulatedAnnealing {
        SimulatedAnnealing {
            seed: 0x5EED_0002,
            iterations: 4_000,
            initial_temperature: 0.05,
            cooling: 0.999,
        }
    }
}

impl Strategy for SimulatedAnnealing {
    fn name(&self) -> &'static str {
        "simulated-annealing"
    }

    fn search(
        &self,
        space: &dyn SearchSpace,
        cache: &EvalCache,
        objective: SearchObjective,
        archive: &mut ParetoArchive,
    ) -> SearchOutcome {
        let mut rng = SplitMix64::new(self.seed);
        let mut incumbent = Incumbent::default();

        let mut current = space.random_genome(&mut rng);
        let current_eval = cache.evaluate(space, &current);
        let mut evaluations = 1usize;
        archive.offer(&current, current_eval);
        incumbent.offer(&current, current_eval, objective.score(&current_eval));
        let mut current_score = objective.finite_score(&current_eval);

        // The temperature scale must come from a *feasible* score: an
        // infeasible start scores the -1e30 sentinel, and a temperature
        // derived from it would accept every proposal for the whole run.
        let mut calibrated = current_eval.feasible;
        let mut temperature = if calibrated {
            self.initial_temperature * current_score.abs().max(1.0)
        } else {
            0.0 // greedy walk until the first feasible design appears
        };

        if space.dims() == 0 {
            return SearchOutcome {
                strategy: self.name(),
                evaluations,
                best: incumbent.into_best(),
            };
        }

        for _ in 0..self.iterations {
            let dim = rng.below(space.dims() as u64) as usize;
            let card = space.cardinality(dim);
            if card <= 1 {
                continue;
            }
            // Propose in place: draw a different value for the chosen
            // dimension, and put the old one back if it is rejected.
            let previous = current[dim];
            let offset = 1 + rng.below(card as u64 - 1) as usize;
            current[dim] = (previous + offset) % card;

            let evaluation = cache.evaluate(space, &current);
            evaluations += 1;
            archive.offer(&current, evaluation);
            incumbent.offer(&current, evaluation, objective.score(&evaluation));

            let score = objective.finite_score(&evaluation);
            if !calibrated && evaluation.feasible {
                calibrated = true;
                temperature = self.initial_temperature * score.abs().max(1.0);
            }
            let delta = score - current_score;
            // Before calibration the walk sits in an infeasible region:
            // accept lateral (equal-sentinel) moves so it keeps moving
            // instead of resampling the start's neighborhood forever.
            let accept = delta > 0.0
                || (!calibrated && delta >= 0.0)
                || (temperature > 0.0 && rng.next_f64() < (delta / temperature).exp());
            if accept {
                current_score = score;
            } else {
                current[dim] = previous;
            }
            temperature *= self.cooling;
        }

        SearchOutcome { strategy: self.name(), evaluations, best: incumbent.into_best() }
    }
}

/// A generational genetic algorithm: tournament selection, uniform
/// crossover, per-gene mutation, and elitism.
#[derive(Debug, Clone)]
pub struct Genetic {
    /// RNG seed.
    pub seed: u64,
    /// Population size.
    pub population: usize,
    /// Number of generations after the initial one.
    pub generations: usize,
    /// Per-gene mutation probability.
    pub mutation_rate: f64,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Individuals copied unchanged into the next generation.
    pub elites: usize,
}

impl Default for Genetic {
    fn default() -> Genetic {
        Genetic {
            seed: 0x5EED_0003,
            population: 32,
            generations: 40,
            mutation_rate: 0.15,
            tournament: 3,
            elites: 2,
        }
    }
}

impl Genetic {
    fn pick_parent<'a>(&self, rng: &mut SplitMix64, ranked: &'a [(Genome, f64)]) -> &'a Genome {
        let mut best = rng.below(ranked.len() as u64) as usize;
        for _ in 1..self.tournament.max(1) {
            let challenger = rng.below(ranked.len() as u64) as usize;
            if ranked[challenger].1 > ranked[best].1 {
                best = challenger;
            }
        }
        &ranked[best].0
    }
}

impl Strategy for Genetic {
    fn name(&self) -> &'static str {
        "genetic"
    }

    fn search(
        &self,
        space: &dyn SearchSpace,
        cache: &EvalCache,
        objective: SearchObjective,
        archive: &mut ParetoArchive,
    ) -> SearchOutcome {
        let mut rng = SplitMix64::new(self.seed);
        let mut incumbent = Incumbent::default();
        let mut evaluations = 0usize;
        let population = self.population.max(2);

        let mut ranked: Vec<(Genome, f64)> = (0..population)
            .map(|_| {
                let genome = space.random_genome(&mut rng);
                let evaluation = cache.evaluate(space, &genome);
                evaluations += 1;
                archive.offer(&genome, evaluation);
                incumbent.offer(&genome, evaluation, objective.score(&evaluation));
                let score = objective.finite_score(&evaluation);
                (genome, score)
            })
            .collect();

        for _ in 0..self.generations {
            // Deterministic ranking: score descending, genome ascending.
            ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            let mut next: Vec<(Genome, f64)> =
                ranked.iter().take(self.elites.min(population)).cloned().collect();
            while next.len() < population {
                let mother = self.pick_parent(&mut rng, &ranked);
                let father = self.pick_parent(&mut rng, &ranked);
                let mut child: Genome = mother
                    .iter()
                    .zip(father)
                    .map(|(&m, &f)| if rng.next_u64() & 1 == 0 { m } else { f })
                    .collect();
                for (dim, gene) in child.iter_mut().enumerate() {
                    if rng.next_f64() < self.mutation_rate {
                        *gene = rng.below(space.cardinality(dim) as u64) as usize;
                    }
                }
                let evaluation = cache.evaluate(space, &child);
                evaluations += 1;
                archive.offer(&child, evaluation);
                incumbent.offer(&child, evaluation, objective.score(&evaluation));
                let score = objective.finite_score(&evaluation);
                next.push((child, score));
            }
            ranked = next;
        }

        SearchOutcome { strategy: self.name(), evaluations, best: incumbent.into_best() }
    }
}

/// Runs several strategies over one space with a shared archive — the
/// subsystem's front door.
///
/// Returns the per-strategy outcomes and the merged Pareto archive.
pub fn compare_strategies(
    space: &dyn SearchSpace,
    strategies: &[&dyn Strategy],
    objective: SearchObjective,
) -> (Vec<SearchOutcome>, ParetoArchive) {
    let cache = EvalCache::new();
    let mut archive = ParetoArchive::new();
    let outcomes =
        strategies.iter().map(|s| s.search(space, &cache, objective, &mut archive)).collect();
    (outcomes, archive)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wino_fpga::ResourceUsage;

    /// A synthetic separable space: score is the sum of per-dimension
    /// values, maximum at all-(card-1). Cardinality 4, 6 dims.
    struct SumSpace;

    impl SearchSpace for SumSpace {
        fn dims(&self) -> usize {
            6
        }
        fn cardinality(&self, _dim: usize) -> usize {
            4
        }
        fn evaluate(&self, genome: &[usize]) -> Evaluation {
            let s: usize = genome.iter().sum();
            Evaluation {
                throughput_gops: s as f64,
                power_efficiency: 1.0,
                latency_ms: 1.0,
                power_w: 1.0,
                headroom: 0.5,
                quant_error: 0.0,
                resources: ResourceUsage::default(),
                feasible: true,
            }
        }
        fn describe(&self, genome: &[usize]) -> String {
            format!("{genome:?}")
        }
    }

    fn run(strategy: &dyn Strategy) -> SearchOutcome {
        let cache = EvalCache::new();
        let mut archive = ParetoArchive::new();
        strategy.search(&SumSpace, &cache, SearchObjective::Throughput, &mut archive)
    }

    #[test]
    fn exhaustive_finds_the_global_optimum() {
        let outcome = run(&Exhaustive::default());
        assert_eq!(outcome.evaluations, 4096);
        let (genome, evaluation) = outcome.best.expect("feasible space");
        assert_eq!(genome, vec![3; 6]);
        assert_eq!(evaluation.throughput_gops, 18.0);
    }

    #[test]
    fn exhaustive_single_thread_agrees_with_parallel() {
        let serial = run(&Exhaustive { threads: 1 });
        let parallel = run(&Exhaustive { threads: 8 });
        assert_eq!(serial.best, parallel.best);
    }

    #[test]
    fn greedy_climbs_separable_spaces_to_the_top() {
        let outcome = run(&Greedy { seed: 1, restarts: 1, max_evaluations: 10_000 });
        let (genome, _) = outcome.best.expect("feasible space");
        assert_eq!(genome, vec![3; 6], "steepest ascent solves separable objectives");
    }

    /// Feasible only when every gene is at least 2 — a random start is
    /// infeasible ~94% of the time, so this pins the annealing
    /// temperature calibration (an infeasible start must not melt the
    /// schedule into a pure random walk, nor freeze it in place).
    struct MostlyInfeasible;

    impl SearchSpace for MostlyInfeasible {
        fn dims(&self) -> usize {
            4
        }
        fn cardinality(&self, _dim: usize) -> usize {
            4
        }
        fn evaluate(&self, genome: &[usize]) -> Evaluation {
            let mut e = SumSpace.evaluate(genome);
            e.feasible = genome.iter().all(|&g| g >= 2);
            e
        }
        fn describe(&self, genome: &[usize]) -> String {
            format!("{genome:?}")
        }
    }

    #[test]
    fn annealing_recovers_from_an_infeasible_start() {
        for seed in 0..8 {
            let strategy = SimulatedAnnealing { seed, ..Default::default() };
            let cache = EvalCache::new();
            let mut archive = ParetoArchive::new();
            let outcome = strategy.search(
                &MostlyInfeasible,
                &cache,
                SearchObjective::Throughput,
                &mut archive,
            );
            let (genome, evaluation) = outcome.best.expect("feasible designs exist");
            assert!(evaluation.feasible, "seed {seed} returned an infeasible best");
            assert_eq!(genome, vec![3; 4], "seed {seed} missed the optimum");
        }
    }

    #[test]
    fn annealing_and_genetic_reach_the_optimum_on_a_small_space() {
        for strategy in [&SimulatedAnnealing::default() as &dyn Strategy, &Genetic::default()] {
            let outcome = run(strategy);
            let (_, evaluation) = outcome.best.expect("feasible space");
            assert_eq!(
                evaluation.throughput_gops,
                18.0,
                "{} missed the optimum of an easy space",
                strategy.name()
            );
        }
    }

    #[test]
    fn strategies_are_deterministic() {
        for strategy in [
            &Greedy::default() as &dyn Strategy,
            &SimulatedAnnealing::default(),
            &Genetic::default(),
        ] {
            let a = run(strategy);
            let b = run(strategy);
            assert_eq!(a.best, b.best, "{} is not reproducible", strategy.name());
            assert_eq!(a.evaluations, b.evaluations);
        }
    }

    #[test]
    fn compare_strategies_shares_one_cache() {
        let exhaustive = Exhaustive { threads: 2 };
        let greedy = Greedy::default();
        let (outcomes, archive) = compare_strategies(
            &SumSpace,
            &[&exhaustive as &dyn Strategy, &greedy],
            SearchObjective::Throughput,
        );
        assert_eq!(outcomes.len(), 2);
        // All designs score equal on three axes, so the archive keeps
        // exactly one non-dominated representative (max throughput).
        assert_eq!(archive.len(), 1);
        assert_eq!(archive.entries()[0].evaluation.throughput_gops, 18.0);
    }

    #[test]
    fn outcome_best_score_handles_empty() {
        let outcome = SearchOutcome { strategy: "none", evaluations: 0, best: None };
        assert_eq!(outcome.best_score(SearchObjective::Throughput), f64::NEG_INFINITY);
    }
}
