//! Property tests of the *sharded* serving layer — home routing and
//! work stealing — driven entirely by a virtual clock so every case is
//! deterministic and shrinkable.
//!
//! The invariants under test generalize the single-queue ones in
//! `serve_props.rs` to arbitrary shard counts and steal schedules:
//!
//! 1. **Admitted ⇒ resolved, exactly once.** However polls, steals and
//!    drains interleave, every submitted request leaves the shard set
//!    in exactly one released batch.
//! 2. **No reordering within a (model, priority-class) pair**, even
//!    when idle shards steal another shard's released batches.

use proptest::prelude::*;
use std::time::Duration;
use wino_serve::{BatchConfig, Clock, Priority, ShardPoll, ShardSet, VirtualClock};

fn priority_of(tag: u8) -> Priority {
    match tag % 3 {
        0 => Priority::High,
        1 => Priority::Normal,
        _ => Priority::Low,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Invariants (1) and (2) over the raw shard set: any interleaving
    /// of submissions, per-shard polls (with or without stealing) and
    /// a final shutdown-style drain resolves every request exactly
    /// once, in class order, within the batch caps, and — with
    /// stealing off — only ever from a model's home shard.
    #[test]
    fn any_steal_schedule_resolves_every_request_in_class_order(
        shard_count in 1usize..5,
        steal in any::<bool>(),
        all_submissions in prop::collection::vec((0usize..3, 0u8..3, 0u64..500), 24),
        count in 1usize..25,
        polls in prop::collection::vec((0usize..16, 1u64..300), 48),
        max_batch in 1usize..5,
        max_wait_us in 0u64..300,
    ) {
        let submissions = &all_submissions[..count.min(all_submissions.len())];
        let clock = VirtualClock::new();
        let config = BatchConfig {
            max_batch,
            max_wait: Duration::from_micros(max_wait_us),
            queue_capacity: submissions.len().max(1),
        };
        let caps = vec![4usize, 3, 2];
        let set: ShardSet<u64> = ShardSet::new(shard_count, caps.clone(), config, steal);

        let mut ordered = submissions.to_vec();
        ordered.sort_by_key(|&(_, _, at)| at);

        // Submitted/released seqs keyed by (model, class), in order.
        let mut expected: Vec<Vec<Vec<u64>>> = vec![vec![Vec::new(); 3]; 3];
        let mut released: Vec<Vec<Vec<u64>>> = vec![vec![Vec::new(); 3]; 3];
        let mut batches = 0usize;
        let mut served = 0usize;

        let record = |batch: &wino_serve::Batch<u64>,
                          released: &mut Vec<Vec<Vec<u64>>>|
         -> Result<(), TestCaseError> {
            prop_assert!(
                batch.requests.len() <= caps[batch.model].min(max_batch),
                "batch of {} exceeds cap for model {}",
                batch.requests.len(),
                batch.model
            );
            for item in &batch.requests {
                released[batch.model][item.priority.index()].push(item.seq);
            }
            Ok(())
        };

        let mut poll_at = 0usize;
        for (i, &(model, tag, at_us)) in ordered.iter().enumerate() {
            clock.advance_to(Duration::from_micros(at_us));
            let seq = set
                .submit(model, priority_of(tag), i as u64, clock.now())
                .unwrap();
            expected[model][usize::from(tag % 3)].push(seq);
            // Interleave a poll step from the random schedule.
            if let Some(&(pick, advance_us)) = polls.get(poll_at) {
                poll_at += 1;
                clock.advance(Duration::from_micros(advance_us));
                let shard = pick % shard_count;
                if let ShardPoll::Ready { batch, from } = set.poll_at(shard, clock.now()) {
                    prop_assert!(steal || from == shard, "non-steal poll crossed shards");
                    prop_assert!(
                        steal || set.home(batch.model) == shard,
                        "model {} released away from home without stealing",
                        batch.model
                    );
                    batches += 1;
                    served += batch.requests.len();
                    record(&batch, &mut released)?;
                }
            }
        }
        // Keep running the poll schedule until it is exhausted...
        for &(pick, advance_us) in &polls[poll_at.min(polls.len())..] {
            clock.advance(Duration::from_micros(advance_us));
            if let ShardPoll::Ready { batch, .. } = set.poll_at(pick % shard_count, clock.now()) {
                batches += 1;
                served += batch.requests.len();
                record(&batch, &mut released)?;
            }
        }
        // ...then finish with the shutdown-style drain, which ignores
        // deadlines and sweeps every shard.
        while let Some((batch, _)) = set.drain_one(0, clock.now()) {
            batches += 1;
            served += batch.requests.len();
            record(&batch, &mut released)?;
        }

        // (1) Exactly once: everything admitted came out, nothing twice.
        prop_assert_eq!(served, ordered.len(), "released {} batches", batches);
        prop_assert!(set.is_empty());
        // Seqs are globally unique across shards (striding).
        let mut all_seqs: Vec<u64> =
            released.iter().flatten().flatten().copied().collect();
        all_seqs.sort_unstable();
        let before = all_seqs.len();
        all_seqs.dedup();
        prop_assert_eq!(all_seqs.len(), before, "duplicate seq released");
        // (2) FIFO within every (model, class), stealing or not.
        for model in 0..3 {
            for class in 0..3 {
                prop_assert_eq!(
                    &released[model][class],
                    &expected[model][class],
                    "model {} class {} reordered (steal={}, shards={})",
                    model,
                    class,
                    steal,
                    shard_count
                );
            }
        }
    }
}
