//! The span primitive: RAII timing scopes delivered to the current
//! thread's [`collect`] scope, if it has one.

use std::cell::RefCell;
use std::time::{Duration, Instant};

thread_local! {
    /// Destination for spans completed on this thread while a
    /// [`collect`] scope is active.
    static COLLECTOR: RefCell<Option<Vec<SpanRecord>>> = const { RefCell::new(None) };
}

/// A completed span, as returned by [`collect`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Coarse grouping, e.g. `"exec.phase"`.
    pub category: &'static str,
    /// Instance label, e.g. `"pack"`.
    pub label: String,
    /// Wall-clock duration of the whole span.
    pub duration: Duration,
}

/// An open span: what its record needs once the guard drops.
struct Open {
    category: &'static str,
    label: String,
    start: Instant,
}

/// An RAII timing scope. Construct with [`Span::enter`]; the span
/// closes (and is delivered to the thread's collector) when the guard
/// drops.
#[must_use = "a span measures the scope it is alive for"]
pub struct Span {
    /// `None` when no collector was active on this thread at enter
    /// time — drop is then a no-op and nothing was allocated.
    open: Option<Open>,
}

impl Span {
    /// Opens a span. When the current thread has no active [`collect`]
    /// scope (the common case) this is one thread-local read and
    /// returns an inert guard.
    #[inline]
    pub fn enter(category: &'static str, label: &str) -> Span {
        if !COLLECTOR.with(|collector| collector.borrow().is_some()) {
            return Span { open: None };
        }
        Span { open: Some(Open { category, label: label.to_owned(), start: Instant::now() }) }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let record = SpanRecord {
            category: open.category,
            label: open.label,
            duration: open.start.elapsed(),
        };
        COLLECTOR.with(|collector| {
            if let Some(sink) = collector.borrow_mut().as_mut() {
                sink.push(record);
            }
        });
    }
}

/// Restores the previous collector even if the collected closure
/// panics.
struct CollectGuard {
    prev: Option<Option<Vec<SpanRecord>>>,
}

impl Drop for CollectGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            COLLECTOR.with(|collector| *collector.borrow_mut() = prev);
        }
    }
}

/// Runs `f` with span collection active on the current thread and
/// returns its result together with every span that *completed* on
/// this thread during the call (innermost first, in completion order).
///
/// Only the current thread's spans are armed: spans opened on other
/// threads (e.g. worker-pool threads) stay inert and are not captured.
/// Nested `collect` scopes partition records: the inner scope takes
/// the spans that complete within it.
pub fn collect<R>(f: impl FnOnce() -> R) -> (R, Vec<SpanRecord>) {
    let prev = COLLECTOR.with(|collector| collector.borrow_mut().replace(Vec::new()));
    let mut guard = CollectGuard { prev: Some(prev) };
    let out = f();
    let prev = guard.prev.take().expect("collect guard armed exactly once");
    let records = COLLECTOR.with(|collector| {
        let mut slot = collector.borrow_mut();
        let records = slot.take().unwrap_or_default();
        *slot = prev;
        records
    });
    (out, records)
}
