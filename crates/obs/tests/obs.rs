//! Behavioural tests for wino-obs spans: the inert path outside a
//! collection scope, nesting and partitioning of `collect` scopes, and
//! thread locality. Spans arm only for the current thread's collector,
//! so these tests share no state and run in parallel.

use std::thread;
use std::time::Duration;

use wino_obs::{collect, Span};

fn spin(duration: Duration) {
    let start = std::time::Instant::now();
    while start.elapsed() < duration {
        std::hint::spin_loop();
    }
}

#[test]
fn disabled_spans_produce_nothing_and_collect_captures_nesting() {
    // With no sink active the guard is inert…
    {
        let _span = Span::enter("test", "ghost");
    }
    // …and a collect scope sees only what happens inside it.
    let (value, spans) = collect(|| {
        let _outer = Span::enter("test", "outer");
        {
            let _inner = Span::enter("test", "inner");
            spin(Duration::from_millis(2));
        }
        spin(Duration::from_millis(2));
        42
    });
    assert_eq!(value, 42);
    assert_eq!(spans.len(), 2, "ghost span must not appear");
    // Completion order: inner closes before outer.
    assert_eq!(spans[0].label, "inner");
    assert_eq!(spans[1].label, "outer");
    assert!(spans.iter().all(|s| s.category == "test"));
    // Totals nest: outer spans inner plus its own spin.
    let inner = &spans[0];
    let outer = &spans[1];
    assert!(inner.duration >= Duration::from_millis(2));
    assert!(outer.duration >= inner.duration + Duration::from_millis(2));
}

#[test]
fn collect_scopes_nest_and_partition() {
    let ((), outer_spans) = collect(|| {
        {
            let _before = Span::enter("test", "before");
        }
        let ((), inner_spans) = collect(|| {
            let _inside = Span::enter("test", "inside");
        });
        assert_eq!(inner_spans.len(), 1);
        assert_eq!(inner_spans[0].label, "inside");
    });
    // The inner collect took "inside"; the outer scope kept "before".
    assert_eq!(outer_spans.len(), 1);
    assert_eq!(outer_spans[0].label, "before");
}

#[test]
fn collect_only_sees_the_current_thread() {
    let ((), spans) = collect(|| {
        thread::scope(|scope| {
            scope.spawn(|| {
                let _elsewhere = Span::enter("test", "other-thread");
                // This thread has no collector of its own, so its
                // spans are never armed.
                let ((), own) = collect(|| {
                    let _nested = Span::enter("test", "nested-elsewhere");
                });
                assert_eq!(own.len(), 1, "a thread's own collect still works");
            });
        });
        let _here = Span::enter("test", "this-thread");
    });
    assert_eq!(spans.len(), 1);
    assert_eq!(spans[0].label, "this-thread");
}
