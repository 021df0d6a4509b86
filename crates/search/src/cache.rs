//! A shared, thread-safe memoizing evaluation cache.
//!
//! Design evaluation is the hot path of every strategy, and
//! metaheuristics revisit points constantly — a hill climb probes the
//! same neighbors from both sides, a genetic population converges onto
//! few genotypes. Memoizing by genome makes revisits free and lets all
//! strategies in a comparison share one pool of evaluated designs.
//!
//! The key is the genome's mixed-radix index in its space (the inverse
//! of [`SearchSpace::genome_at`]): one `u128`, so a lookup hashes 16
//! bytes and an insert allocates nothing.

use crate::{Evaluation, SearchSpace};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of independently locked shards; a power of two so the shard
/// index is the top bits of a mixed index.
const SHARDS: usize = 16;

/// Memoizing wrapper around [`SearchSpace::evaluate`], shared by all
/// strategies of a run (and safe to use from the exhaustive strategy's
/// worker threads). The map is sharded across `SHARDS` independent
/// locks by genome index, so parallel workers rarely contend.
///
/// A cache belongs to **one** space: entries are keyed by the genome's
/// mixed-radix index, and the same index means different designs in
/// different spaces. Dimension counts are checked (mismatched spaces
/// panic), but two same-shaped spaces cannot be told apart — use one
/// cache per space. A genome with no index (wrong length, or a choice
/// out of range) is evaluated uncached and counted as a miss.
#[derive(Debug)]
pub struct EvalCache {
    shards: [Mutex<HashMap<u128, Evaluation>>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
    /// Dimension count of the space this cache serves; `u64::MAX` until
    /// the first lookup pins it.
    dims: AtomicU64,
}

/// The position of `genome` in `space`'s mixed-radix order (dimension 0
/// is the least significant digit), or `None` when the genome has the
/// wrong length, a choice out of range, or an index beyond `u128`.
fn index_of(space: &dyn SearchSpace, genome: &[usize]) -> Option<u128> {
    if genome.len() != space.dims() {
        return None;
    }
    genome.iter().enumerate().rev().try_fold(0u128, |index, (dim, &choice)| {
        let card = space.cardinality(dim);
        if choice >= card {
            return None;
        }
        index.checked_mul(card as u128)?.checked_add(choice as u128)
    })
}

/// The shard of a genome index: its two halves folded and mixed, top
/// bits taken.
fn shard_of(index: u128) -> usize {
    let h = (index as u64 ^ (index >> 64) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> (u64::BITS - SHARDS.ilog2())) as usize
}

impl Default for EvalCache {
    fn default() -> EvalCache {
        EvalCache {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            dims: AtomicU64::new(u64::MAX),
        }
    }
}

impl EvalCache {
    /// An empty cache.
    pub fn new() -> EvalCache {
        EvalCache::default()
    }

    /// Evaluates `genome` on `space`, returning the memoized result when
    /// available.
    ///
    /// The shard lock is not held during evaluation, so concurrent
    /// callers may race to evaluate the same genome; both compute the
    /// same value and one insert wins.
    ///
    /// # Panics
    ///
    /// Panics when `space` has a different dimension count than the
    /// space this cache first served — a cache must not be reused
    /// across spaces.
    pub fn evaluate(&self, space: &dyn SearchSpace, genome: &[usize]) -> Evaluation {
        let dims = space.dims() as u64;
        if let Err(bound) =
            self.dims.compare_exchange(u64::MAX, dims, Ordering::Relaxed, Ordering::Relaxed)
        {
            assert_eq!(
                bound, dims,
                "EvalCache reused across spaces: bound to {bound} dims, got {dims}"
            );
        }
        let Some(index) = index_of(space, genome) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return space.evaluate(genome);
        };
        let shard = &self.shards[shard_of(index)];
        if let Some(hit) = shard.lock().expect("cache lock").get(&index) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return *hit;
        }
        let evaluation = space.evaluate(genome);
        self.misses.fetch_add(1, Ordering::Relaxed);
        shard.lock().expect("cache lock").insert(index, evaluation);
        evaluation
    }

    /// Lookups answered from memory.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that ran a fresh evaluation.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct designs evaluated.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("cache lock").len()).sum()
    }

    /// `true` when nothing has been evaluated yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HeterogeneousSpace;
    use std::sync::atomic::AtomicUsize;
    use wino_dse::Evaluator;
    use wino_fpga::virtex7_485t;
    use wino_models::tiny_cnn;

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
    fn memoizes_repeat_lookups() {
        let space = Counting { calls: AtomicUsize::new(0) };
        let cache = EvalCache::new();
        let a = cache.evaluate(&space, &[1, 2]);
        let b = cache.evaluate(&space, &[1, 2]);
        assert_eq!(a, b);
        assert_eq!(space.calls.load(Ordering::Relaxed), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
        cache.evaluate(&space, &[2, 1]);
        assert_eq!(cache.len(), 2);
        assert!(!cache.is_empty());
    }

    #[test]
    #[should_panic(expected = "EvalCache reused across spaces")]
    fn rejects_reuse_across_spaces() {
        struct OtherShape;
        impl SearchSpace for OtherShape {
            fn dims(&self) -> usize {
                3
            }
            fn cardinality(&self, _dim: usize) -> usize {
                4
            }
            fn evaluate(&self, _genome: &[usize]) -> Evaluation {
                Evaluation::infeasible()
            }
            fn describe(&self, _genome: &[usize]) -> String {
                String::new()
            }
        }
        let space = Counting { calls: AtomicUsize::new(0) };
        let cache = EvalCache::new();
        cache.evaluate(&space, &[0, 0]);
        cache.evaluate(&OtherShape, &[0, 0, 0]);
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
        assert_eq!(cache.len(), 16);
        assert_eq!(cache.hits() + cache.misses(), 64);
        assert!(cache.misses() >= 16);
    }

    #[test]
    fn index_key_is_collision_free_over_a_whole_space() {
        let ev = Evaluator::new(tiny_cnn(1), virtex7_485t());
        let space =
            HeterogeneousSpace::new(&ev, vec![2, 3, 4, 6], vec![0.25, 0.5, 0.75, 1.0], 700, 200e6)
                .with_fft_sizes(vec![8, 16, 32]);
        assert_eq!(space.size(), 21_952);
        let cache = EvalCache::new();
        for _ in 0..2 {
            for index in 0..space.size() {
                let genome = space.genome_at(index);
                assert_eq!(index_of(&space, &genome), Some(index));
                assert_eq!(cache.evaluate(&space, &genome), space.evaluate(&genome));
            }
        }
        assert_eq!(cache.misses(), 21_952, "every first lookup misses");
        assert_eq!(cache.hits(), 21_952, "every second lookup hits");
        assert_eq!(cache.len(), 21_952, "no two genomes share a key");
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
        assert_eq!(cache.misses(), 8);
        assert_eq!(cache.hits(), 0);
        assert!(cache.is_empty(), "nothing without an index is stored");
    }

    #[test]
    fn index_overflow_is_out_of_range() {
        struct Huge;
        impl SearchSpace for Huge {
            fn dims(&self) -> usize {
                3
            }
            fn cardinality(&self, _dim: usize) -> usize {
                usize::MAX
            }
            fn evaluate(&self, _genome: &[usize]) -> Evaluation {
                Evaluation::infeasible()
            }
            fn describe(&self, _genome: &[usize]) -> String {
                String::new()
            }
        }
        assert_eq!(index_of(&Huge, &[5, 0, 0]), Some(5));
        assert_eq!(index_of(&Huge, &[0, 1, 0]), Some(usize::MAX as u128));
        assert_eq!(index_of(&Huge, &[0, 0, usize::MAX - 1]), None, "beyond u128");
    }
}
