//! The evaluation counter every strategy reports through.
//!
//! A space is its own cost table — [`crate::HeterogeneousSpace`] and
//! [`crate::HomogeneousSpace`] cost every engine context once, when they
//! are built — so evaluating a genome is already a handful of lookups,
//! and remembering results in front of it would cost as much as it
//! saves. [`EvalCache`] therefore memoizes nothing: it counts the
//! evaluations of a run and forwards each one to the space.

use crate::{Evaluation, SearchSpace};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts the evaluations of a run, shared by all strategies of the run
/// (and safe to use from the exhaustive strategy's worker threads).
///
/// It keeps its name and its hit/miss counters for the callers that
/// already read them: every evaluation runs on the space and counts as
/// a miss, so [`EvalCache::misses`] is the run's evaluation count and
/// [`EvalCache::hits`] is always 0.
#[derive(Debug, Default)]
pub struct EvalCache {
    evaluations: AtomicU64,
}

impl EvalCache {
    /// A counter at zero.
    pub fn new() -> EvalCache {
        EvalCache::default()
    }

    /// Counts one evaluation and evaluates `genome` on `space`.
    pub fn evaluate(&self, space: &dyn SearchSpace, genome: &[usize]) -> Evaluation {
        self.evaluations.fetch_add(1, Ordering::Relaxed);
        space.evaluate(genome)
    }

    /// Always 0: nothing is remembered, so nothing is answered from
    /// memory.
    pub fn hits(&self) -> u64 {
        0
    }

    /// Evaluations run so far.
    pub fn misses(&self) -> u64 {
        self.evaluations.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// A space that counts real evaluations.
    struct Counting {
        calls: AtomicUsize,
    }

    impl SearchSpace for Counting {
        fn dims(&self) -> usize {
            2
        }
        fn cardinality(&self, _dim: usize) -> usize {
            4
        }
        fn evaluate(&self, genome: &[usize]) -> Evaluation {
            self.calls.fetch_add(1, Ordering::Relaxed);
            Evaluation {
                throughput_gops: genome.iter().sum::<usize>() as f64,
                power_efficiency: 1.0,
                latency_ms: 1.0,
                power_w: 1.0,
                headroom: 0.5,
                quant_error: 0.0,
                resources: Default::default(),
                feasible: true,
            }
        }
        fn describe(&self, genome: &[usize]) -> String {
            format!("{genome:?}")
        }
    }

    #[test]
    fn concurrent_use_is_consistent() {
        let space = Counting { calls: AtomicUsize::new(0) };
        let cache = EvalCache::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..4usize {
                        for j in 0..4usize {
                            let e = cache.evaluate(&space, &[i, j]);
                            assert_eq!(e.throughput_gops, (i + j) as f64);
                        }
                    }
                });
            }
        });
        assert_eq!(space.calls.load(Ordering::Relaxed), 64, "every lookup evaluates");
        assert_eq!((cache.hits(), cache.misses()), (0, 64));
    }

    #[test]
    fn out_of_range_genomes_are_evaluated_uncached() {
        let space = Counting { calls: AtomicUsize::new(0) };
        let cache = EvalCache::new();
        for genome in [&[1, 4][..], &[4, 0], &[1], &[1, 2, 3]] {
            for _ in 0..2 {
                assert_eq!(cache.evaluate(&space, genome), space.evaluate(genome));
            }
        }
        // Each of the 8 lookups evaluated (plus the 8 direct calls).
        assert_eq!(space.calls.load(Ordering::Relaxed), 16);
        assert_eq!((cache.hits(), cache.misses()), (0, 8));
    }
}
