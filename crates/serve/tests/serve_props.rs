//! Property tests of the serving subsystem, driven entirely by a
//! virtual clock — no sleeps, no wall-clock dependence.
//!
//! Two properties carry the design:
//!
//! 1. **Batching never changes results.** Whatever batch splits the
//!    dynamic batcher chooses (arrival patterns, deadlines, caps and
//!    poll timing are all random here), every request's served output
//!    is bitwise equal to a direct solo run through the same prepared
//!    executor.
//! 2. **No reordering within a priority class.** Requests of one
//!    `(model, class)` pair leave the batcher in exactly their
//!    submission order, whatever interleaving of submissions, models,
//!    classes and polls happens around them.
//!
//! A third pins the release policy: dispatch is **work-conserving** —
//! a poll that can see queued work always releases some of it.

use proptest::prelude::*;
use std::time::Duration;
use wino_core::{ConvShape, Workload};
use wino_exec::{ExecConfig, Schedule};
use wino_serve::{
    Batch, BatchConfig, Clock, DynamicBatcher, ModelEntry, Poll, Priority, ShardPoll, ShardSet,
    VirtualClock,
};

/// A two-layer toy model (one Winograd, one strided-spatial layer) with
/// batch dimension `max_batch` — small enough that a proptest case
/// executes dozens of real convolutions in milliseconds.
fn toy_entry(max_batch: usize) -> ModelEntry {
    let mut wl = Workload::new("toy", max_batch);
    wl.push("a", "G", ConvShape::same_padded(6, 6, 2, 3, 3));
    wl.push("b", "G", ConvShape { h: 6, w: 6, c: 3, k: 2, r: 3, stride: 2, pad: 1 });
    let schedule = Schedule::homogeneous(&wl, 2).unwrap();
    ModelEntry::new("toy".into(), wl, schedule, ExecConfig::with_threads(2), 9).unwrap()
}

fn priority_of(tag: u8) -> Priority {
    match tag % 3 {
        0 => Priority::High,
        1 => Priority::Normal,
        _ => Priority::Low,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property (1): for ANY batch split the batcher produces, served
    /// outputs are bitwise identical to direct solo execution.
    #[test]
    fn any_batcher_split_serves_bitwise_identical_outputs(
        seeds in prop::collection::vec(0u64..1_000, 8),
        arrivals_us in prop::collection::vec(0u64..400, 8),
        priorities in prop::collection::vec(0u8..3, 8),
        max_batch in 1usize..5,
        max_wait_us in 0u64..300,
        poll_step_us in 1u64..200,
    ) {
        let entry = toy_entry(4);
        let clock = VirtualClock::new();
        let config = BatchConfig {
            max_batch,
            max_wait: Duration::from_micros(max_wait_us),
            queue_capacity: 64,
        };
        let mut batcher: DynamicBatcher<u64> =
            DynamicBatcher::with_caps(vec![entry.max_batch()], config);

        // Submit along the (virtual) arrival schedule, polling as we
        // go so the batcher sees many different queue depths.
        let mut order: Vec<(u64, Duration)> = arrivals_us
            .iter()
            .map(|&us| Duration::from_micros(us))
            .zip(seeds.iter().copied())
            .map(|(t, s)| (s, t))
            .collect();
        order.sort_by_key(|&(_, t)| t);

        let mut batches = Vec::new();
        for (i, &(seed, at)) in order.iter().enumerate() {
            clock.advance_to(at);
            batcher.submit(0, priority_of(priorities[i]), seed, clock.now()).unwrap();
            if let Poll::Ready(batch) = batcher.poll(clock.now()) {
                batches.push(batch);
            }
        }
        // Keep polling (advancing virtual time) until drained.
        let mut guard = 0;
        while !batcher.is_empty() {
            clock.advance(Duration::from_micros(poll_step_us));
            while let Poll::Ready(batch) = batcher.poll(clock.now()) {
                batches.push(batch);
            }
            guard += 1;
            prop_assert!(guard < 10_000, "batcher failed to drain");
        }

        // No admitted request was dropped or duplicated...
        let served: usize = batches.iter().map(|b| b.requests.len()).sum();
        prop_assert_eq!(served, order.len());
        // ...no batch exceeded the model's batch dimension...
        for batch in &batches {
            prop_assert!(batch.requests.len() <= entry.max_batch());
        }
        // ...and every request's batched output equals its solo run,
        // bitwise, regardless of who shared the batch.
        for batch in &batches {
            let seeds: Vec<u64> = batch.requests.iter().map(|r| r.payload).collect();
            let outputs = entry.infer_batch(&seeds);
            for (&seed, got) in seeds.iter().zip(&outputs) {
                let solo = entry.infer_one(seed);
                prop_assert!(got == &solo, "seed {} diverged in batch {:?}", seed, seeds);
            }
        }
    }

    /// Property (2): within one (model, priority-class) pair, requests
    /// leave the batcher in exactly their submission order.
    #[test]
    fn no_reordering_within_a_priority_class(
        all_submissions in prop::collection::vec((0usize..3, 0u8..3, 0u64..500), 24),
        count in 1usize..25,
        max_batch in 1usize..6,
        max_wait_us in 0u64..400,
        poll_every in 1usize..6,
        poll_step_us in 1u64..300,
    ) {
        let submissions = &all_submissions[..count.min(all_submissions.len())];
        let clock = VirtualClock::new();
        let config = BatchConfig {
            max_batch,
            max_wait: Duration::from_micros(max_wait_us),
            queue_capacity: submissions.len().max(1),
        };
        let mut batcher: DynamicBatcher<u64> = DynamicBatcher::new(3, config);

        let mut ordered = submissions.to_vec();
        ordered.sort_by_key(|&(_, _, t)| t);

        // seq number of each submission, keyed by (model, class), in
        // submission order — the order that must be preserved.
        let mut expected: Vec<Vec<Vec<u64>>> = vec![vec![Vec::new(); 3]; 3];
        let mut released: Vec<Vec<Vec<u64>>> = vec![vec![Vec::new(); 3]; 3];

        let drain =
            |batcher: &mut DynamicBatcher<u64>, released: &mut Vec<Vec<Vec<u64>>>, now| {
                while let Poll::Ready(batch) = batcher.poll(now) {
                    for item in &batch.requests {
                        let class = match item.priority {
                            Priority::High => 0,
                            Priority::Normal => 1,
                            Priority::Low => 2,
                        };
                        released[batch.model][class].push(item.seq);
                    }
                }
            };

        for (i, &(model, tag, at_us)) in ordered.iter().enumerate() {
            clock.advance_to(Duration::from_micros(at_us));
            let seq = batcher
                .submit(model, priority_of(tag), i as u64, clock.now())
                .unwrap();
            expected[model][usize::from(tag % 3)].push(seq);
            if i % poll_every == 0 {
                drain(&mut batcher, &mut released, clock.now());
            }
        }
        let mut guard = 0;
        while !batcher.is_empty() {
            clock.advance(Duration::from_micros(poll_step_us));
            drain(&mut batcher, &mut released, clock.now());
            guard += 1;
            prop_assert!(guard < 10_000, "batcher failed to drain");
        }

        // FIFO within every (model, class): the released seq list is
        // exactly the submitted seq list, same order.
        for model in 0..3 {
            for class in 0..3 {
                prop_assert_eq!(
                    &released[model][class],
                    &expected[model][class],
                    "model {} class {} reordered",
                    model,
                    class
                );
            }
        }
    }

    /// Work conservation over a stealing shard set: along any arrival
    /// schedule, with any number of polls between arrivals, a poll of a
    /// non-empty set never returns `Wait` (and one of an empty set never
    /// returns a batch). FIFO within every (model, class) and served ==
    /// solo, bitwise, hold for the batches that result.
    #[test]
    fn a_poll_of_a_non_empty_set_never_waits(
        shard_count in 1usize..4,
        all_arrivals in prop::collection::vec((0usize..3, 0u8..3, 0u64..1_000, 0u64..300), 24),
        count in 1usize..25,
        polls_after in prop::collection::vec(0usize..3, 24),
        max_batch in 1usize..5,
        max_wait_us in 0u64..300,
    ) {
        let arrivals = &all_arrivals[..count];
        let entry = toy_entry(4);
        let clock = VirtualClock::new();
        let config = BatchConfig {
            max_batch,
            max_wait: Duration::from_micros(max_wait_us),
            queue_capacity: arrivals.len(),
        };
        let set: ShardSet<u64> = ShardSet::new(shard_count, vec![4, 3, 2], config, true);
        let mut expected: Vec<Vec<Vec<u64>>> = vec![vec![Vec::new(); 3]; 3];
        let mut batches: Vec<Batch<u64>> = Vec::new();
        let poll = |shard: usize, batches: &mut Vec<Batch<u64>>| -> Result<bool, TestCaseError> {
            let queued = !set.is_empty();
            match set.poll_at(shard % shard_count, clock.now()) {
                ShardPoll::Ready { batch, .. } => {
                    prop_assert!(queued, "released a batch from an empty set");
                    batches.push(batch);
                    Ok(true)
                }
                ShardPoll::Wait => {
                    prop_assert!(!queued, "an idle poll waited beside queued work");
                    Ok(false)
                }
            }
        };
        for (i, &(model, tag, seed, gap_us)) in arrivals.iter().enumerate() {
            clock.advance(Duration::from_micros(gap_us));
            let seq = set.submit(model, priority_of(tag), seed, clock.now()).unwrap();
            expected[model][priority_of(tag).index()].push(seq);
            for _ in 0..polls_after[i] {
                poll(i, &mut batches)?;
            }
        }
        while poll(0, &mut batches)? {}

        let mut released: Vec<Vec<Vec<u64>>> = vec![vec![Vec::new(); 3]; 3];
        for batch in &batches {
            for item in &batch.requests {
                released[batch.model][item.priority.index()].push(item.seq);
            }
        }
        prop_assert_eq!(released, expected, "a (model, class) queue was reordered");
        for batch in &batches {
            let seeds: Vec<u64> = batch.requests.iter().map(|r| r.payload).collect();
            for (&seed, got) in seeds.iter().zip(&entry.infer_batch(&seeds)) {
                prop_assert!(got == &entry.infer_one(seed), "seed {} diverged in {:?}", seed, seeds);
            }
        }
    }
}
