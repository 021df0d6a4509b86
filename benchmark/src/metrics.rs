//! The benchmark's vocabulary — workloads, end-to-end metrics with their
//! bounds, per-layer metrics — and the result line every run ends with.
//! `BENCHMARK.json` at the repo root is [`manifest_json`] verbatim (a
//! unit test holds the two together).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 20;

/// `(name, why)` of every workload, in run order.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "vgg16d_offline",
        "closed loop, full-size VGG16-D forward passes, F(4x4,3x3) f32, T threads: the paper's workload; ~100% float Winograd pack/multiply/inverse",
    ),
    (
        "mixed_offline",
        "closed loop, full-size AlexNet passes: conv1 spatial, conv2 FFT(16), conv3-4 F(4x4) f32, conv5 F(2x2) Q18.14; float Winograd is under 10%, so it bypasses float-Winograd changes",
    ),
    (
        "serve_steady",
        "8 small models, open-loop Poisson 500 req/s (p50/p99 from due time) then closed loop with 32 outstanding (capacity): partial batches, per-call fixed cost and batch-wait dominate",
    ),
    (
        "serve_burst",
        "same server, open-loop 1-s cycles of 0.8 s at 300 req/s then 0.2 s at 3000 req/s: deep queues, full batches, backlog drain; latency is ~95% queueing",
    ),
    (
        "dse_search",
        "closed loop, explore -> evaluate -> select -> lower over the four full-size models on Virtex-7: the paper's product; touches search/dse/fpga/core and none of exec/serve",
    ),
];

/// One end-to-end metric: `(name, unit, better, bound)`. Every workload
/// reports every one; what the operation is per workload is in the
/// README glossary.
pub const END_TO_END: [(&str, &str, &str, f64); 4] = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
];

const VGG_LAYERS: [&str; 13] = [
    "conv1_1", "conv1_2", "conv2_1", "conv2_2", "conv3_1", "conv3_2", "conv3_3", "conv4_1",
    "conv4_2", "conv4_3", "conv5_1", "conv5_2", "conv5_3",
];
const ALEXNET_LAYERS: [&str; 5] = ["conv1", "conv2", "conv3", "conv4", "conv5"];

/// Per-layer metrics other than the per-network-layer timings:
/// `(name, unit, better)`.
const PER_LAYER_FIXED: [(&str, &str, &str); 67] = [
    // exec
    ("exec.prepare_s", "s", "lower"),
    ("exec.input_gen_s", "s", "lower"),
    ("exec.wino_f32_ms", "ms", "lower"),
    ("exec.wino_fixed_ms", "ms", "lower"),
    ("exec.fft_ms", "ms", "lower"),
    ("exec.spatial_ms", "ms", "lower"),
    ("exec.phase.pack_ms", "ms", "lower"),
    ("exec.phase.multiply_ms", "ms", "lower"),
    ("exec.phase.inverse_ms", "ms", "lower"),
    ("exec.phase.other_ms", "ms", "lower"),
    ("exec.eff_gflops", "GFLOP/s", "higher"),
    ("exec.gemm_gflops", "GFLOP/s", "higher"),
    ("exec.thread_scaling", "ratio", "higher"),
    ("exec.images_per_s", "1/s", "higher"),
    ("exec.pass_p50_ms", "ms", "lower"),
    ("exec.pass_p75_ms", "ms", "lower"),
    // serve
    ("serve.startup_s", "s", "lower"),
    ("serve.shutdown_s", "s", "lower"),
    ("serve.submit_us", "us", "lower"),
    ("serve.queue_wait_ms", "ms", "lower"),
    ("serve.service_ms", "ms", "lower"),
    ("serve.exec_replay_ms", "ms", "lower"),
    ("serve.overhead_ms", "ms", "lower"),
    ("serve.queue_share", "share", "lower"),
    ("serve.batch_mean", "count", "higher"),
    ("serve.batches", "count", "lower"),
    ("serve.stolen", "count", "lower"),
    ("serve.sent", "count", "higher"),
    ("serve.served", "count", "higher"),
    ("serve.refused_queue_full", "count", "lower"),
    ("serve.refused_slo", "count", "lower"),
    ("serve.errored", "count", "lower"),
    ("serve.p50_ms", "ms", "lower"),
    ("serve.p99_ms", "ms", "lower"),
    ("serve.r1000.p50_ms", "ms", "lower"),
    ("serve.r1000.p99_ms", "ms", "lower"),
    ("serve.capacity_rps", "1/s", "higher"),
    ("serve.goodput_rps", "1/s", "higher"),
    ("serve.high_p95_ms", "ms", "lower"),
    ("serve.normal_p95_ms", "ms", "lower"),
    ("serve.low_p95_ms", "ms", "lower"),
    ("serve.drain_rps", "1/s", "higher"),
    ("serve.drain_ms", "ms", "lower"),
    ("serve.gen_late_p99_ms", "ms", "lower"),
    ("serve.gen_late_max_ms", "ms", "lower"),
    ("serve.fixed_max_abs_err", "abs", "lower"),
    // search / dse / fpga / core
    ("search.space_build_ms", "ms", "lower"),
    ("search.greedy_ms", "ms", "lower"),
    ("search.sa_ms", "ms", "lower"),
    ("search.genetic_ms", "ms", "lower"),
    ("search.exhaustive_ms", "ms", "lower"),
    ("search.lower_ms", "ms", "lower"),
    ("search.toolflow_p50_ms", "ms", "lower"),
    ("search.toolflow_p75_ms", "ms", "lower"),
    ("search.evals_per_s", "1/s", "higher"),
    ("search.evals_per_iter", "count", "lower"),
    ("search.archive_len", "count", "higher"),
    ("search.cache_hit_share", "share", "lower"),
    ("search.best_gops", "GOP/s", "higher"),
    ("search.pick_verified_share", "share", "higher"),
    ("dse.evaluate_us", "us", "lower"),
    ("dse.best_design_ms", "ms", "lower"),
    // every workload
    ("alloc.count_per_op", "count", "lower"),
    ("alloc.bytes_per_op", "B", "lower"),
    ("trace.overhead_share", "share", "lower"),
    ("trace.spans", "count", "lower"),
    ("max_abs_err", "abs", "lower"),
];

/// The metric name of one network layer's median `execute_layer` time.
pub fn layer_metric(layer: &str) -> String {
    format!("exec.layer.{layer}_ms")
}

/// Every per-layer metric: `(name, unit, better)`.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let layers = VGG_LAYERS.iter().chain(&ALEXNET_LAYERS).map(|l| (layer_metric(l), "ms", "lower"));
    PER_LAYER_FIXED.iter().map(|&(n, u, b)| (n.to_owned(), u, b)).chain(layers).collect()
}

/// The unit of every metric of either table, by name.
fn units() -> BTreeMap<String, &'static str> {
    END_TO_END
        .iter()
        .map(|&(n, u, _, _)| (n.to_owned(), u))
        .chain(per_layer().into_iter().map(|(n, u, _)| (n, u)))
        .collect()
}

/// The contents of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(out, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}");
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}{sep}"
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, (name, unit, better)) in layers.iter().enumerate() {
        let sep = if i + 1 < layers.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{sep}"
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// What one run found: the verdict, the operation counts, and a value
/// per metric name.
#[derive(Debug, Default)]
pub struct Report {
    /// Outputs matched the oracle, the bitwise contracts and each other.
    pub correct: bool,
    /// Operations attempted (passes, requests or search iterations).
    pub attempted: u64,
    /// Operations that failed, were refused, or produced a wrong output.
    pub failed: u64,
    values: BTreeMap<String, f64>,
}

impl Report {
    /// Sets metric `name`. Non-finite values are stored as `0.0` so the
    /// result line stays valid JSON.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_owned(), if value.is_finite() { value } else { 0.0 });
    }

    /// The run's last line: one JSON object carrying every end-to-end
    /// metric (untraced run) or every per-layer metric (traced run); a
    /// per-layer metric the workload does not exercise reads `0`.
    ///
    /// # Panics
    ///
    /// Panics when a value was set under a name neither table has, or
    /// an end-to-end metric is missing — both are bugs in a workload.
    pub fn result_line(&self, traced: bool) -> String {
        let units = units();
        if let Some(stray) = self.values.keys().find(|k| !units.contains_key(*k)) {
            panic!("metric '{stray}' is in neither table");
        }
        let wanted: Vec<(String, &str)> = if traced {
            per_layer().into_iter().map(|(n, u, _)| (n, u)).collect()
        } else {
            END_TO_END.iter().map(|&(n, u, _, _)| (n.to_owned(), u)).collect()
        };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit)) in wanted.iter().enumerate() {
            let value = match self.values.get(name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => panic!("end-to-end metric '{name}' was not measured"),
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }

    /// Every measured metric as `name value unit` lines, tables first.
    pub fn print_human(&self) {
        let units = units();
        for (name, value) in &self.values {
            println!("  {name:<28} {value:>16.6} {}", units.get(name).copied().unwrap_or("?"));
        }
    }
}

/// The value of metric `name` in a result line, if present.
pub fn value_in_line(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_matches_the_committed_file_and_the_contract() {
        let committed =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest_json(), "regenerate with --manifest > BENCHMARK.json");
        assert!(committed.len() < 64 * 1024);
        let layers = per_layer();
        assert!((1..=128).contains(&layers.len()), "{}", layers.len());
        let mut names: Vec<&str> = END_TO_END.iter().map(|e| e.0).collect();
        names.extend(layers.iter().map(|l| l.0.as_str()));
        names.extend(WORKLOADS.iter().map(|w| w.0));
        for name in &names {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(WORKLOADS.iter().all(|w| w.1.len() <= 200 && !w.1.contains(['"', '\n'])));
        assert!(END_TO_END.iter().all(|e| e.3 <= 0.25));
        assert!(END_TO_END.iter().any(|e| (e.0, e.1, e.2) == ("setup_s", "s", "lower")));
    }

    #[test]
    fn result_line_carries_every_metric_of_its_kind() {
        let mut r = Report { correct: true, attempted: 40, failed: 0, ..Report::default() };
        for (i, e) in END_TO_END.iter().enumerate() {
            r.set(e.0, 1.5 + i as f64);
        }
        r.set("exec.prepare_s", 0.25);
        r.set("max_abs_err", f64::NAN);
        let line = r.result_line(false);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 40, \"failed\": 0, \"metrics\": {"));
        assert_eq!(value_in_line(&line, "setup_s"), Some(1.5));
        assert_eq!(value_in_line(&line, "peak_rss_mb"), Some(4.5));
        assert_eq!(value_in_line(&line, "exec.prepare_s"), None);
        let traced = r.result_line(true);
        assert_eq!(value_in_line(&traced, "exec.prepare_s"), Some(0.25));
        assert_eq!(value_in_line(&traced, "max_abs_err"), Some(0.0));
        assert_eq!(value_in_line(&traced, "serve.stolen"), Some(0.0));
        assert_eq!(value_in_line(&traced, "setup_s"), None);
        assert_eq!(traced.matches("\"value\"").count(), per_layer().len());
    }

    #[test]
    #[should_panic(expected = "neither table")]
    fn a_misspelt_metric_is_a_bug() {
        let mut r = Report::default();
        r.set("exec.prepar_s", 1.0);
        r.result_line(true);
    }
}
