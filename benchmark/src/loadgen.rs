//! Seeded arrival schedules. The server only ever sees the generated
//! requests; the same `--seed` gives the identical request list.

use wino_serve::Priority;
use wino_tensor::SplitMix64;

/// One request of a schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// When the request is due to be sent, in nanoseconds on the run's
    /// clock. Latency is timed from here, not from when it was sent.
    pub due_ns: u64,
    /// Dense index of the target model.
    pub model: usize,
    pub priority: Priority,
    /// Identifies the request's deterministic input.
    pub seed: u64,
}

/// A request's identity apart from its due time: uniform model mix,
/// 20 / 60 / 20 high / normal / low.
pub fn draw_request(rng: &mut SplitMix64, models: usize, due_ns: u64) -> Request {
    let model = rng.below(models as u64) as usize;
    let priority = match rng.below(10) {
        0 | 1 => Priority::High,
        2..=7 => Priority::Normal,
        _ => Priority::Low,
    };
    Request { due_ns, model, priority, seed: rng.next_u64() }
}

/// Appends Poisson arrivals at `rate_per_s` over `[start_ns, end_ns)`.
pub fn poisson(
    rng: &mut SplitMix64,
    models: usize,
    start_ns: u64,
    end_ns: u64,
    rate_per_s: f64,
    out: &mut Vec<Request>,
) {
    let mut at = start_ns as f64;
    loop {
        // Exponential gap; 1 - u is in (0, 1], so the log is finite.
        at += -(1.0 - rng.next_f64()).ln() / rate_per_s * 1e9;
        if at >= end_ns as f64 {
            return;
        }
        out.push(draw_request(rng, models, at as u64));
    }
}

/// One-second cycles of a quiet stretch then a burst.
#[derive(Debug, Clone, Copy)]
pub struct BurstShape {
    pub quiet_ns: u64,
    pub quiet_rate: f64,
    pub burst_ns: u64,
    pub burst_rate: f64,
}

impl BurstShape {
    /// 0.8 s at 300 req/s then 0.2 s at 3 000 req/s.
    pub const STANDARD: BurstShape = BurstShape {
        quiet_ns: 800_000_000,
        quiet_rate: 300.0,
        burst_ns: 200_000_000,
        burst_rate: 3_000.0,
    };

    pub fn cycle_ns(&self) -> u64 {
        self.quiet_ns + self.burst_ns
    }

    /// When cycle `cycle`'s burst starts, on a schedule starting at `start_ns`.
    pub fn burst_start_ns(&self, start_ns: u64, cycle: u64) -> u64 {
        start_ns + cycle * self.cycle_ns() + self.quiet_ns
    }
}

/// Appends `cycles` quiet-then-burst cycles starting at `start_ns`. The
/// quiet stretch is Poisson; a burst is the same in every cycle — evenly
/// spaced arrivals, models in rotation, priorities in a fixed 2 : 6 : 2
/// pattern — so that cycles differ by what the server did, not by what
/// was offered. Only the requests' input seeds differ.
pub fn bursts(
    rng: &mut SplitMix64,
    models: usize,
    start_ns: u64,
    cycles: u64,
    shape: BurstShape,
    out: &mut Vec<Request>,
) {
    use Priority::{High, Low, Normal};
    const PATTERN: [Priority; 10] =
        [High, Normal, Normal, Low, Normal, High, Normal, Normal, Low, Normal];
    let per_burst = (shape.burst_rate * shape.burst_ns as f64 / 1e9) as u64;
    for cycle in 0..cycles {
        let burst = shape.burst_start_ns(start_ns, cycle);
        poisson(rng, models, burst - shape.quiet_ns, burst, shape.quiet_rate, out);
        for i in 0..per_burst {
            out.push(Request {
                due_ns: burst + i * shape.burst_ns / per_burst,
                model: i as usize % models,
                priority: PATTERN[i as usize % PATTERN.len()],
                seed: rng.next_u64(),
            });
        }
    }
}

/// How late the generator ran: `(p99, max)` of `sent − due`, in ms.
pub fn lateness_ms(late_ns: &[u64]) -> (f64, f64) {
    let ms: Vec<f64> = late_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    (crate::stats::quantile(&ms, 0.99), ms.iter().copied().fold(0.0, f64::max))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steady(seed: u64) -> Vec<Request> {
        let mut out = Vec::new();
        poisson(&mut SplitMix64::new(seed), 8, 1_000, 2_000_000_000, 500.0, &mut out);
        out
    }

    #[test]
    fn same_seed_same_request_list() {
        assert_eq!(steady(7), steady(7));
        assert_ne!(steady(7), steady(8));
        let burst = |seed| {
            let mut out = Vec::new();
            bursts(&mut SplitMix64::new(seed), 8, 0, 3, BurstShape::STANDARD, &mut out);
            out
        };
        assert_eq!(burst(3), burst(3));
        assert_ne!(burst(3), burst(4));
    }

    #[test]
    fn poisson_rate_mix_and_order() {
        let reqs = steady(11);
        // 2 s at 500 req/s: 1000 expected, sd ~32.
        assert!((850..1150).contains(&reqs.len()), "{}", reqs.len());
        assert!(reqs.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(reqs.iter().all(|r| (1_000..2_000_000_000).contains(&r.due_ns) && r.model < 8));
        let high = reqs.iter().filter(|r| r.priority == Priority::High).count() as f64;
        let low = reqs.iter().filter(|r| r.priority == Priority::Low).count() as f64;
        let n = reqs.len() as f64;
        assert!((high / n - 0.2).abs() < 0.05 && (low / n - 0.2).abs() < 0.05);
        for m in 0..8 {
            let share = reqs.iter().filter(|r| r.model == m).count() as f64 / n;
            assert!((share - 0.125).abs() < 0.05, "model {m}: {share}");
        }
    }

    #[test]
    fn bursts_put_most_requests_in_a_fifth_of_the_time() {
        let shape = BurstShape::STANDARD;
        let mut reqs = Vec::new();
        bursts(&mut SplitMix64::new(5), 8, 10, 16, shape, &mut reqs);
        // 16 x (~240 Poisson + exactly 600).
        assert!((13_000..13_900).contains(&reqs.len()), "{}", reqs.len());
        assert!(reqs.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        let in_burst =
            reqs.iter().filter(|r| (r.due_ns - 10) % shape.cycle_ns() >= shape.quiet_ns).count()
                as f64;
        assert_eq!(in_burst, 16.0 * 600.0);
        let burst: Vec<&Request> =
            reqs.iter().filter(|r| (r.due_ns - 10) % shape.cycle_ns() >= shape.quiet_ns).collect();
        let high = burst.iter().filter(|r| r.priority == Priority::High).count();
        assert_eq!(high, 16 * 120);
        assert!((0..8).all(|m| burst.iter().filter(|r| r.model == m).count() == 16 * 75));
        assert_eq!(shape.burst_start_ns(10, 2), 10 + 2_800_000_000);
    }

    #[test]
    fn lateness_accounting() {
        // 99 on-time sends and one sent 5 ms late.
        let mut late = vec![0u64; 99];
        late.push(5_000_000);
        let (p99, max) = lateness_ms(&late);
        assert_eq!((p99, max), (0.0, 5.0));
        late.push(3_000_000);
        assert_eq!(lateness_ms(&late), (3.0, 5.0));
        assert_eq!(lateness_ms(&[]), (0.0, 0.0));
    }
}
