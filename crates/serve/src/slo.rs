//! Declarative SLOs and a multi-window burn-rate alert engine.
//!
//! An [`SloPolicy`] states an objective ("99% of normal-class requests
//! under 10 ms") as a latency threshold plus an **error budget** — the
//! tolerated fraction of requests over the threshold. The
//! [`SloEngine`] evaluates the budget's **burn rate** over several
//! windows at once (the SRE-workbook multi-window pattern): a short
//! window with a high threshold catches fast outages in seconds, a
//! long window with a low threshold catches slow leaks without paging
//! on noise.
//!
//! The engine is clock-free in the same sense as the batcher: it never
//! reads time. [`SloEngine::observe`] takes the caller's `now`
//! (virtual or wall clock) together with a [`MetricsSnapshot`], diffs
//! the snapshot's cumulative per-class latency histograms
//! ([`LatencyHistogram::count_over`]) against retained history to
//! compute per-window violation fractions, and returns the alerts that
//! **fired** on this observation (rising edges only — an alert stays
//! active until its burn rate drops back under the threshold, and does
//! not re-fire while active).
//!
//! Counting violations through log₂ histogram buckets is conservative:
//! the effective objective is rounded up to the next bucket edge (see
//! [`LatencyHistogram::count_over`]), so measured burn rates are lower
//! bounds and thresholds should be set with margin.

use crate::{LatencyHistogram, MetricsSnapshot, Priority};
use std::collections::VecDeque;
use std::fmt;
use std::time::Duration;

/// One evaluation window of a policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnWindow {
    /// Stable label naming the window in alerts ("fast", "slow").
    pub label: &'static str,
    /// How far back the window reaches.
    pub window: Duration,
    /// Burn-rate threshold: alert when the window's violation fraction
    /// exceeds `threshold × error_budget`. 1.0 means "burning exactly
    /// the budget"; the canonical fast-burn threshold is ~14.
    pub threshold: f64,
}

/// A declarative latency SLO for one priority class (or all traffic).
#[derive(Debug, Clone, PartialEq)]
pub struct SloPolicy {
    /// Stable policy name, carried on alerts.
    pub name: &'static str,
    /// The class the objective covers; `None` pools all classes.
    pub class: Option<Priority>,
    /// The latency objective: a request over this is a violation.
    /// Effectively rounded up to the next log₂ bucket edge.
    pub objective: Duration,
    /// Tolerated violation fraction (e.g. `0.01` = 99% under the
    /// objective). Must be positive.
    pub error_budget: f64,
    /// The windows evaluated each observation.
    pub windows: Vec<BurnWindow>,
}

impl SloPolicy {
    /// The SRE-workbook two-window shape: a fast window at 14× budget
    /// burn and a slow window at 6×, scaled to the caller's horizon.
    pub fn two_window(
        name: &'static str,
        class: Option<Priority>,
        objective: Duration,
        error_budget: f64,
        fast: Duration,
        slow: Duration,
    ) -> SloPolicy {
        SloPolicy {
            name,
            class,
            objective,
            error_budget,
            windows: vec![
                BurnWindow { label: "fast", window: fast, threshold: 14.0 },
                BurnWindow { label: "slow", window: slow, threshold: 6.0 },
            ],
        }
    }
}

/// One burn-rate alert firing (a rising edge).
#[derive(Debug, Clone, PartialEq)]
pub struct SloAlert {
    /// The violated policy's name.
    pub policy: &'static str,
    /// The window that tripped ("fast", "slow").
    pub window: &'static str,
    /// The observation time the alert fired at.
    pub at: Duration,
    /// Measured burn rate (violation fraction ÷ error budget).
    pub burn_rate: f64,
    /// The threshold it exceeded.
    pub threshold: f64,
    /// The policy's latency objective.
    pub objective: Duration,
}

impl fmt::Display for SloAlert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SLO '{}' {}-burn: {:.1}x budget (threshold {:.1}x, objective {:?}) at {:?}",
            self.policy, self.window, self.burn_rate, self.threshold, self.objective, self.at
        )
    }
}

/// Per-policy counters extracted from one snapshot: `(total, bad)`
/// cumulative request counts.
type PolicyCounts = Vec<(u64, u64)>;

/// The multi-window burn-rate evaluator. Feed it metrics snapshots at
/// whatever cadence the caller likes; it retains just enough history
/// to cover every policy's longest window.
pub struct SloEngine {
    policies: Vec<SloPolicy>,
    /// Retained observations: `(now, per-policy (total, bad))`,
    /// oldest first.
    history: VecDeque<(Duration, PolicyCounts)>,
    /// `active[policy][window]`: whether that alert is currently
    /// firing (suppresses re-fires until the burn recovers).
    active: Vec<Vec<bool>>,
    /// The longest window over all policies — the retention horizon.
    horizon: Duration,
}

impl SloEngine {
    /// An engine evaluating `policies`.
    ///
    /// # Panics
    ///
    /// Panics when a policy has a non-positive error budget or no
    /// windows — silent misconfiguration would disable alerting.
    pub fn new(policies: Vec<SloPolicy>) -> SloEngine {
        let mut horizon = Duration::ZERO;
        for p in &policies {
            assert!(p.error_budget > 0.0, "policy '{}' has a non-positive error budget", p.name);
            assert!(!p.windows.is_empty(), "policy '{}' has no windows", p.name);
            for w in &p.windows {
                horizon = horizon.max(w.window);
            }
        }
        let active = policies.iter().map(|p| vec![false; p.windows.len()]).collect();
        SloEngine { policies, history: VecDeque::new(), active, horizon }
    }

    /// The policies being evaluated.
    pub fn policies(&self) -> &[SloPolicy] {
        &self.policies
    }

    /// Cumulative `(total, bad)` for one policy out of one snapshot.
    fn counts(policy: &SloPolicy, snapshot: &MetricsSnapshot) -> (u64, u64) {
        let pick = |h: &LatencyHistogram| (h.count(), h.count_over(policy.objective));
        match policy.class {
            Some(class) => {
                snapshot.class_latency_histograms.get(class.index()).map(pick).unwrap_or((0, 0))
            }
            None => snapshot
                .class_latency_histograms
                .iter()
                .map(pick)
                .fold((0, 0), |(t, b), (dt, db)| (t + dt, b + db)),
        }
    }

    /// Feeds one observation and returns the alerts that fired on it.
    ///
    /// For every `(policy, window)` pair the engine picks the newest
    /// retained observation at least `window` old as the baseline
    /// (falling back to the oldest retained one while history is still
    /// shorter than the window), computes the violation fraction of
    /// requests completed since, and divides by the error budget. An
    /// alert fires on the rising edge of `burn > threshold` and
    /// re-arms when the burn drops back to or under it. Windows with
    /// no completed request since their baseline stay quiet.
    pub fn observe(&mut self, now: Duration, snapshot: &MetricsSnapshot) -> Vec<SloAlert> {
        let current: PolicyCounts =
            self.policies.iter().map(|p| Self::counts(p, snapshot)).collect();
        let mut alerts = Vec::new();
        for (pi, policy) in self.policies.iter().enumerate() {
            let (now_total, now_bad) = current[pi];
            for (wi, window) in policy.windows.iter().enumerate() {
                let cutoff = now.saturating_sub(window.window);
                // Newest observation at or before the cutoff; oldest
                // retained one while the history is still short.
                let baseline = self
                    .history
                    .iter()
                    .rev()
                    .find(|(t, _)| *t <= cutoff)
                    .or_else(|| self.history.front());
                let (base_total, base_bad) = match baseline {
                    Some((_, counts)) => counts[pi],
                    None => (0, 0),
                };
                let total = now_total.saturating_sub(base_total);
                if total == 0 {
                    continue;
                }
                let bad = now_bad.saturating_sub(base_bad);
                let burn = (bad as f64 / total as f64) / policy.error_budget;
                let over = burn > window.threshold;
                let was_active = self.active[pi][wi];
                self.active[pi][wi] = over;
                if over && !was_active {
                    let alert = SloAlert {
                        policy: policy.name,
                        window: window.label,
                        at: now,
                        burn_rate: burn,
                        threshold: window.threshold,
                        objective: policy.objective,
                    };
                    alerts.push(alert);
                }
            }
        }
        self.history.push_back((now, current));
        // Retain one observation older than the horizon so every
        // window always has a baseline at full depth.
        while let (Some((t0, _)), Some((t1, _))) = (self.history.front(), self.history.get(1)) {
            if now.saturating_sub(*t0) > self.horizon && now.saturating_sub(*t1) > self.horizon {
                self.history.pop_front();
            } else {
                break;
            }
        }
        alerts
    }
}

impl fmt::Debug for SloEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SloEngine")
            .field("policies", &self.policies.len())
            .field("history", &self.history.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchItem, Metrics};

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    /// One normal-class policy: 99% under 10 ms (effective bucket edge
    /// 16.384 ms), fast window 50 ms at 14x, slow window 500 ms at 6x.
    fn policy() -> SloPolicy {
        SloPolicy::two_window("normal-10ms", Some(Priority::Normal), ms(10), 0.01, ms(50), ms(500))
    }

    /// One batch of `n` `class` requests, each enqueued at 0 and
    /// served from 0 to `latency`.
    fn record_class(m: &Metrics, n: usize, class: Priority, latency: Duration) {
        let items: Vec<BatchItem<()>> = (0..n as u64)
            .map(|seq| BatchItem { seq, enqueued_at: Duration::ZERO, priority: class, payload: () })
            .collect();
        m.record_batch(0, 0, false, &items, Duration::ZERO, latency);
    }

    fn record_n(m: &Metrics, n: usize, latency: Duration) {
        record_class(m, n, Priority::Normal, latency);
    }

    #[test]
    fn healthy_traffic_never_alerts() {
        let m = Metrics::new(vec!["a".into()], 1);
        let mut engine = SloEngine::new(vec![policy()]);
        for tick in 1..=20u64 {
            record_n(&m, 50, ms(1));
            let alerts = engine.observe(ms(tick * 10), &m.snapshot(ms(tick * 10)));
            assert!(alerts.is_empty(), "alerted on healthy traffic: {alerts:?}");
        }
    }

    #[test]
    fn a_violation_spike_fires_fast_burn_once_then_rearms_on_recovery() {
        let m = Metrics::new(vec!["a".into()], 1);
        let mut engine = SloEngine::new(vec![policy()]);
        // Healthy baseline.
        record_n(&m, 100, ms(1));
        assert!(engine.observe(ms(10), &m.snapshot(ms(10))).is_empty());
        // Spike: half the new traffic blows the objective — a 50x
        // budget burn, far over the 14x fast threshold.
        record_n(&m, 50, ms(1));
        record_n(&m, 50, ms(100));
        let alerts = engine.observe(ms(20), &m.snapshot(ms(20)));
        assert_eq!(alerts.len(), 2, "fast and slow both trip on a 50x burn: {alerts:?}");
        assert_eq!(alerts[0].policy, "normal-10ms");
        assert_eq!(alerts[0].window, "fast");
        assert!(alerts[0].burn_rate > 14.0, "{}", alerts[0]);
        assert!(alerts[0].to_string().contains("fast-burn"));
        // Still burning: active alerts do not re-fire.
        record_n(&m, 50, ms(100));
        assert!(engine.observe(ms(30), &m.snapshot(ms(30))).is_empty(), "no re-fire while active");
        // Recovery: the fast window's baseline moves past the spike,
        // new traffic is clean → burn drops, alert re-arms.
        for tick in 4..=60u64 {
            record_n(&m, 100, ms(1));
            engine.observe(ms(tick * 10), &m.snapshot(ms(tick * 10)));
        }
        // The fast window still holds ~400 clean completions from the
        // recovery ticks, so the fresh spike must outweigh them:
        // 100 bad / 500 total = 20x burn, over the 14x threshold.
        record_n(&m, 100, ms(100));
        let refired = engine.observe(ms(610), &m.snapshot(ms(610)));
        assert!(
            refired.iter().any(|a| a.window == "fast"),
            "a fresh spike after recovery fires again: {refired:?}"
        );
    }

    #[test]
    fn windows_with_no_new_traffic_stay_quiet() {
        let m = Metrics::new(vec!["a".into()], 1);
        let mut engine = SloEngine::new(vec![policy()]);
        // Seed history with pure violations…
        record_n(&m, 10, ms(100));
        let first = engine.observe(ms(10), &m.snapshot(ms(10)));
        assert_eq!(first.len(), 2, "violating traffic trips both windows");
        // …then go idle: no completions → total delta 0 → no alert
        // arithmetic, no division by zero, and the active flags stay
        // (nothing recovered either).
        for tick in 2..=10u64 {
            assert!(engine.observe(ms(tick * 10), &m.snapshot(ms(tick * 10))).is_empty());
        }
    }

    #[test]
    fn class_scoping_ignores_other_classes() {
        let m = Metrics::new(vec!["a".into()], 1);
        let mut engine = SloEngine::new(vec![policy()]);
        // A storm of low-priority violations must not trip a
        // normal-class policy.
        record_class(&m, 50, Priority::Low, ms(200));
        record_n(&m, 10, ms(1));
        let alerts = engine.observe(ms(10), &m.snapshot(ms(10)));
        assert!(alerts.is_empty(), "low-class violations tripped a normal-class SLO: {alerts:?}");
        // A pooled (class: None) policy does see them.
        let mut pooled =
            SloEngine::new(vec![SloPolicy { name: "all-10ms", class: None, ..policy() }]);
        let fired = pooled.observe(ms(10), &m.snapshot(ms(10)));
        assert_eq!(fired.len(), 2, "pooled policy sees all classes: {fired:?}");
    }

    #[test]
    #[should_panic(expected = "non-positive error budget")]
    fn zero_error_budget_is_rejected() {
        let _ = SloEngine::new(vec![SloPolicy { error_budget: 0.0, ..policy() }]);
    }

    #[test]
    #[should_panic(expected = "has no windows")]
    fn windowless_policy_is_rejected() {
        let _ = SloEngine::new(vec![SloPolicy { windows: Vec::new(), ..policy() }]);
    }

    #[test]
    fn history_is_bounded_by_the_horizon() {
        let m = Metrics::new(vec!["a".into()], 1);
        let mut engine = SloEngine::new(vec![policy()]);
        for tick in 1..=1000u64 {
            record_n(&m, 1, ms(1));
            engine.observe(ms(tick * 10), &m.snapshot(ms(tick * 10)));
        }
        // Horizon is 500 ms, cadence 10 ms → ~51 retained entries, not
        // 1000. Allow slack for the keep-one-older rule.
        assert!(engine.history.len() <= 60, "history grew unbounded: {}", engine.history.len());
    }
}
