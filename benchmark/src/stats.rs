//! The harness's own arithmetic: percentiles with the "ten samples
//! beyond" rule, fixed windows keyed by due time, median-of-windows,
//! geometric mean.

/// Samples strictly beyond the nearest-rank `q`-quantile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// `true` when a `q`-quantile of `n` samples may be reported: at least
/// ten samples lie beyond it (the median needs only a non-empty set).
pub fn supported(n: usize, q: f64) -> bool {
    n > 0 && (q <= 0.5 || samples_beyond(n, q) >= 10)
}

/// 1-based nearest rank of the `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank quantile of an ascending slice; `0.0` for an empty one.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// Nearest-rank quantile of unordered values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// The `q`-quantile of `values` for a report, with a note on stdout when
/// the sample is too small to support it.
pub fn reported_quantile(what: &str, values: &[f64], q: f64) -> f64 {
    if !supported(values.len(), q) {
        println!(
            "note: {what} rests on {} samples, fewer than ten beyond p{:.0}",
            values.len(),
            q * 100.0
        );
    }
    quantile(values, q)
}

/// Median of unordered values (mean of the two middle ones when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Geometric mean of positive values; `0.0` for an empty slice.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Splits `(key_ns, value)` samples into windows by key: each window is
/// `len_ns` long, one starts every `stride_ns` from `start_ns`, and the
/// last ends at or before `end_ns`. With `stride_ns == len_ns` the
/// windows tile the span; with a shorter stride they overlap.
pub fn windows_by_key(
    samples: &[(u64, f64)],
    (start_ns, end_ns): (u64, u64),
    len_ns: u64,
    stride_ns: u64,
) -> Vec<Vec<f64>> {
    let count =
        if end_ns < start_ns + len_ns { 0 } else { (end_ns - start_ns - len_ns) / stride_ns + 1 };
    (0..count)
        .map(|w| {
            let from = start_ns + w * stride_ns;
            samples.iter().filter(|s| (from..from + len_ns).contains(&s.0)).map(|s| s.1).collect()
        })
        .collect()
}

/// Each non-empty window's `q`-quantile.
pub fn per_window(windows: &[Vec<f64>], q: f64) -> Vec<f64> {
    windows.iter().filter(|w| !w.is_empty()).map(|w| quantile(w, q)).collect()
}

/// The smallest value; `0.0` for an empty slice.
pub fn lowest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The largest value; `0.0` for an empty slice.
pub fn highest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::max).unwrap_or(0.0)
}

/// The lowest median over every run of `len` consecutive values — the
/// best sustained stretch of a closed loop. Falls back to the overall
/// median when there are fewer than `len` values.
pub fn best_run_median(values: &[f64], len: usize) -> f64 {
    if values.len() < len {
        return median(values);
    }
    lowest(&values.windows(len).map(median).collect::<Vec<f64>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_samples_beyond_rule() {
        // p75 of 40 passes leaves exactly ten beyond; of 39, nine.
        assert_eq!(samples_beyond(40, 0.75), 10);
        assert!(supported(40, 0.75));
        assert!(!supported(39, 0.75));
        // p99 needs 1000 samples, p95 needs 200.
        assert!(supported(1000, 0.99));
        assert!(!supported(999, 0.99));
        assert!(supported(200, 0.95));
        assert!(!supported(199, 0.95));
        // The median is always reportable on a non-empty set.
        assert!(supported(1, 0.5));
        assert!(!supported(0, 0.5));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn windows_are_keyed_by_due_time() {
        let samples: Vec<(u64, f64)> =
            [999, 1_000, 1_099, 1_100, 1_299, 1_300].iter().map(|&k| (k, k as f64)).collect();
        // Three tiling windows of 100 from 1000: before and after are in none.
        let tiled = windows_by_key(&samples, (1_000, 1_300), 100, 100);
        assert_eq!(tiled, [vec![1_000.0, 1_099.0], vec![1_100.0], vec![1_299.0]]);
        // Half-overlapping windows: 1000.., 1050.., 1100.., 1150.., 1200...
        let sliding = windows_by_key(&samples, (1_000, 1_300), 100, 50);
        assert_eq!(sliding.len(), 5);
        assert_eq!(sliding[1], [1_099.0, 1_100.0]);
        // A span shorter than one window has none.
        assert!(windows_by_key(&samples, (1_000, 1_050), 100, 100).is_empty());
    }

    #[test]
    fn one_stalled_window_moves_neither_the_median_nor_the_best_of_windows() {
        // Three quiet windows and one where a stall made everything slow.
        let samples: Vec<(u64, f64)> = (0..400u64)
            .map(|i| (i, if (100..200).contains(&i) { 150.0 } else { 1.0 + (i % 10) as f64 }))
            .collect();
        let windows = windows_by_key(&samples, (0, 400), 100, 100);
        assert_eq!(windows.iter().map(Vec::len).collect::<Vec<_>>(), [100; 4]);
        let p90 = per_window(&windows, 0.9);
        assert_eq!(p90, [9.0, 150.0, 9.0, 9.0]);
        assert_eq!((median(&p90), lowest(&p90), highest(&p90)), (9.0, 9.0, 150.0));
        // The whole-run p90 is owned by the stall.
        let all: Vec<f64> = samples.iter().map(|s| s.1).collect();
        assert_eq!(quantile(&all, 0.9), 150.0);
        // Empty windows are skipped, not counted as zero.
        assert_eq!(per_window(&[vec![], vec![2.0], vec![4.0]], 0.5), [2.0, 4.0]);
        assert_eq!((lowest(&[]), highest(&[])), (0.0, 0.0));
    }

    #[test]
    fn best_sustained_stretch_of_a_closed_loop() {
        // A slow machine phase, then four quick passes, then slow again.
        let passes = [320.0, 330.0, 310.0, 212.0, 215.0, 209.0, 214.0, 340.0, 335.0];
        assert_eq!(best_run_median(&passes, 4), 213.0);
        // One lucky pass is not a sustained stretch.
        assert_eq!(best_run_median(&[320.0, 200.0, 330.0, 310.0, 340.0], 4), 315.0);
        assert_eq!(best_run_median(&[5.0, 3.0], 4), 4.0);
    }

    #[test]
    fn geometric_mean_of_ratios() {
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[1296.0, 1058.4, 809.9, 859.0]) - 988.35).abs() < 0.05);
        assert_eq!(geometric_mean(&[]), 0.0);
    }
}
