//! Whole-network execution: seeded weights, per-layer runs, timing
//! reports, and self-verification against the spatial oracle.

use crate::{ExecConfig, PreparedPlan, Schedule, ScheduleError};
use std::fmt;
use std::time::Instant;
use wino_core::{spatial_ops, TransformError, Workload};
use wino_tensor::{ErrorStats, Shape4, SplitMix64, Tensor4};

/// One layer's outcome in a [`NetworkReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReport {
    /// Layer name.
    pub layer: String,
    /// Engine description (`F(4x4, 3x3)` or `spatial`).
    pub engine: String,
    /// Wall-clock execution time in milliseconds.
    pub millis: f64,
    /// Per-phase breakdown of `millis`, in phase completion order:
    /// `("pack" | "multiply" | "inverse" | "spatial" | "quantize" |
    /// "dequantize", milliseconds)`. Collected from the engine's
    /// `"exec.phase"` spans on every run
    /// via [`wino_obs::collect`]. The phases nest strictly inside the
    /// layer's wall-clock, so their sum is ≤ `millis`; on the Winograd
    /// engine the three pipeline phases cover ≥ 90% of it for
    /// non-trivial layers (pinned by the `phase_coverage` test).
    pub phase_millis: Vec<(String, f64)>,
    /// Effective throughput in GFLOP/s (spatial-equivalent operations
    /// over wall time — the software analogue of the paper's GOPS).
    pub gflops: f64,
    /// Sum of all output elements — a cheap, thread-count-invariant
    /// fingerprint of the computation.
    pub checksum: f64,
}

/// Timed outcome of one whole-network run.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkReport {
    /// Workload name.
    pub network: String,
    /// Worker threads used.
    pub threads: usize,
    /// Per-layer outcomes in execution order.
    pub layers: Vec<LayerReport>,
}

impl NetworkReport {
    /// Total wall-clock milliseconds across layers.
    pub fn total_millis(&self) -> f64 {
        self.layers.iter().map(|l| l.millis).sum()
    }

    /// Whole-network effective GFLOP/s; `0.0` for an empty layer list
    /// (an empty network did zero work, not NaN work).
    pub fn effective_gflops(&self) -> f64 {
        let total = self.total_millis();
        if total == 0.0 {
            return 0.0;
        }
        let ops: f64 = self.layers.iter().map(|l| l.gflops * l.millis * 1e6).sum();
        ops / (total * 1e6)
    }
}

impl fmt::Display for NetworkReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {:.2} ms total, {:.2} effective GFLOP/s, {} threads",
            self.network,
            self.total_millis(),
            self.effective_gflops(),
            self.threads
        )?;
        for l in &self.layers {
            // The engine label (tile size and datapath) rides next to
            // the timing so phase breakdowns are attributable without
            // cross-referencing the schedule.
            write!(
                f,
                "  {:<12} {:<20} {:>9.3} ms {:>8.2} GFLOP/s",
                l.layer, l.engine, l.millis, l.gflops
            )?;
            if !l.phase_millis.is_empty() {
                let phases = l
                    .phase_millis
                    .iter()
                    .map(|(name, ms)| format!("{name} {ms:.3}"))
                    .collect::<Vec<_>>()
                    .join(" | ");
                write!(f, "  [{phases}]")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// A layer whose execution diverged from the spatial oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyError {
    /// Offending layer name.
    pub layer: String,
    /// Maximum absolute deviation observed.
    pub max_abs: f64,
    /// The tolerance that was exceeded.
    pub tolerance: f64,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "layer '{}' deviates from the spatial oracle by {:.3e} (tolerance {:.3e})",
            self.layer, self.max_abs, self.tolerance
        )
    }
}

impl std::error::Error for VerifyError {}

/// Executes a whole workload under a validated [`Schedule`], with
/// deterministic seeded weights and synthetic inputs.
///
/// Construction validates the schedule against the workload,
/// pre-generates one kernel bank per layer (seeded `SplitMix64`, so two
/// executors built the same way are identical), and **prepares** every
/// layer: the Winograd kernel-bank transform (and, for fixed-point
/// layers, the kernel quantization) runs once here, so repeated
/// execution — [`run`](Self::run) loops, serving traffic — skips it
/// entirely while producing bitwise-identical output (see
/// [`PreparedPlan`]). [`run`](Self::run) executes and times every
/// layer; [`verify`](Self::verify) replays the network against
/// `wino_baselines`' spatial oracle.
#[derive(Debug, Clone)]
pub struct NetworkExecutor {
    workload: Workload,
    schedule: Schedule,
    config: ExecConfig,
    seed: u64,
    kernels: Vec<Tensor4<f32>>,
    prepared: Vec<PreparedPlan>,
}

impl NetworkExecutor {
    /// Builds an executor with the default weight seed.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] when `schedule` does not line up with
    /// `workload`.
    pub fn new(
        workload: Workload,
        schedule: Schedule,
        config: ExecConfig,
    ) -> Result<NetworkExecutor, ScheduleError> {
        NetworkExecutor::with_seed(workload, schedule, config, 0x5EED_0001)
    }

    /// Builds an executor whose weights and inputs derive from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] when `schedule` does not line up with
    /// `workload`.
    pub fn with_seed(
        workload: Workload,
        schedule: Schedule,
        config: ExecConfig,
        seed: u64,
    ) -> Result<NetworkExecutor, ScheduleError> {
        schedule.validate(&workload)?;
        let kernels: Vec<Tensor4<f32>> = workload
            .layers()
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let s = l.shape;
                // He-style scale keeps activations O(1) at any depth.
                let scale = (2.0 / (s.c * s.r * s.r) as f32).sqrt();
                let mut rng = SplitMix64::new(seed ^ ((i as u64 + 1) << 32));
                Tensor4::from_fn(Shape4 { n: s.k, c: s.c, h: s.r, w: s.r }, |_, _, _, _| {
                    rng.uniform_f32(-scale, scale)
                })
            })
            .collect();
        let prepared = schedule
            .plans()
            .iter()
            .enumerate()
            .map(|(i, plan)| {
                PreparedPlan::new(plan, schedule.precision(i), &kernels[i])
                    .expect("validated plan prepares")
            })
            .collect();
        Ok(NetworkExecutor { workload, schedule, config, seed, kernels, prepared })
    }

    /// The workload being executed.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The validated schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The engine configuration.
    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// Clamps the per-run worker fan-out to at most `budget` threads
    /// (floored at 1), leaving smaller configurations untouched.
    ///
    /// This is the oversubscription valve for hosts that run several
    /// executors concurrently — the serving worker pool divides the
    /// machine between its workers and clamps each registered model's
    /// executor to its share, so `workers × exec threads` can never
    /// exceed the hardware. Clamping only changes how many scoped
    /// workers the deterministic chunk scheduler fans across, and
    /// outputs are bitwise thread-count-invariant, so results are
    /// unaffected.
    pub fn clamp_threads(&mut self, budget: usize) {
        self.config.threads = self.config.threads.min(budget.max(1));
    }

    /// The seeded kernel bank of layer `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn kernels(&self, index: usize) -> &Tensor4<f32> {
        &self.kernels[index]
    }

    /// The deterministic synthetic input feature map of layer `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn layer_input(&self, index: usize) -> Tensor4<f32> {
        let s = self.workload.layers()[index].shape;
        let mut rng = SplitMix64::new(self.seed ^ (0xD5EA_u64 + index as u64));
        Tensor4::from_fn(
            Shape4 { n: self.workload.batch(), c: s.c, h: s.h, w: s.w },
            |_, _, _, _| rng.uniform_f32(-1.0, 1.0),
        )
    }

    /// Executes layer `index` on `input` with the layer's seeded
    /// kernels, in the arithmetic the schedule's
    /// [`QuantConfig`](crate::QuantConfig) assigns: `f32` layers run the
    /// float kernels directly; fixed-point layers quantize the input,
    /// execute in saturating `Fixed<FRAC>`, and dequantize the result —
    /// so the returned tensor is always `f32` and directly comparable
    /// against the float oracle. Dispatch goes through the layer's
    /// cached [`PreparedPlan`], so the kernel-bank transform (and
    /// kernel quantization) was already paid at construction; `input`'s
    /// batch dimension is free, which is what the serving subsystem's
    /// dynamic batching relies on.
    ///
    /// # Errors
    ///
    /// Never fails — transform generation already succeeded at
    /// construction. The `Result` is kept for API stability.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range or `input` does not match the
    /// layer's declared geometry.
    pub fn execute_layer(
        &self,
        index: usize,
        input: &Tensor4<f32>,
    ) -> Result<Tensor4<f32>, TransformError> {
        Ok(self.prepared[index].run(input, self.config.threads))
    }

    /// The cached [`PreparedPlan`] of layer `index` — the transformed
    /// kernel bank the executor (and the serving subsystem) reuses on
    /// every run.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn prepared(&self, index: usize) -> &PreparedPlan {
        &self.prepared[index]
    }

    /// Human-readable engine description of layer `index` (engine plus
    /// datapath for quantized layers, e.g. `F(2x2, 3x3) Q22.10`).
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn engine_label(&self, index: usize) -> &str {
        self.prepared[index].label()
    }

    /// Runs and times every layer on its deterministic synthetic input.
    ///
    /// Layers execute on their *declared* geometries (real networks
    /// interleave pooling between conv layers, which workloads do not
    /// model, so outputs are not chained).
    ///
    /// # Panics
    ///
    /// Panics if a validated Winograd plan fails transform generation
    /// (impossible for parameters accepted by `WinogradParams::new`).
    pub fn run(&self) -> NetworkReport {
        let layers = self
            .workload
            .layers()
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let input = self.layer_input(i);
                let start = Instant::now();
                // Collect the engine's "exec.phase" spans for this run
                // (they arm only on this thread, inside this scope) so
                // the report carries a per-phase breakdown.
                let (output, spans) = wino_obs::collect(|| {
                    self.execute_layer(i, &input).expect("validated plan executes")
                });
                let secs = start.elapsed().as_secs_f64().max(1e-9);
                let mut phase_millis: Vec<(String, f64)> = Vec::new();
                for span in &spans {
                    if span.category != "exec.phase" {
                        continue;
                    }
                    let ms = span.duration.as_secs_f64() * 1e3;
                    match phase_millis.iter_mut().find(|(name, _)| *name == span.label) {
                        Some((_, total)) => *total += ms,
                        None => phase_millis.push((span.label.clone(), ms)),
                    }
                }
                let ops = spatial_ops(self.workload.batch(), &l.shape) as f64;
                LayerReport {
                    layer: l.name.clone(),
                    engine: self.engine_label(i).to_owned(),
                    millis: secs * 1e3,
                    phase_millis,
                    gflops: ops / secs / 1e9,
                    checksum: output.as_slice().iter().map(|&x| x as f64).sum(),
                }
            })
            .collect();
        NetworkReport {
            network: self.workload.name().to_owned(),
            threads: self.config.threads,
            layers,
        }
    }

    /// Replays every layer against the spatial oracle
    /// (`wino_baselines::spatial_convolve_strided`) and returns the
    /// worst absolute deviation seen across the network.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError`] for the first layer deviating by more
    /// than `tolerance`.
    pub fn verify(&self, tolerance: f64) -> Result<f64, VerifyError> {
        let mut worst = 0.0f64;
        for (i, l) in self.workload.layers().iter().enumerate() {
            let input = self.layer_input(i);
            let got = self.execute_layer(i, &input).expect("validated plan executes");
            let oracle = wino_baselines::spatial_convolve_strided(
                &input,
                &self.kernels[i],
                l.shape.pad,
                l.shape.stride,
            );
            let stats = ErrorStats::between(got.as_slice(), oracle.as_slice());
            let max_abs = stats.max_abs;
            if max_abs > tolerance {
                return Err(VerifyError { layer: l.name.clone(), max_abs, tolerance });
            }
            worst = worst.max(max_abs);
        }
        Ok(worst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Schedule;
    use wino_core::ConvShape;
    use wino_models::tiny_cnn;

    fn toy() -> Workload {
        let mut wl = Workload::new("toy", 2);
        wl.push("a", "G1", ConvShape::same_padded(8, 9, 2, 3, 3));
        wl.push("b", "G1", ConvShape { h: 9, w: 9, c: 3, k: 2, r: 3, stride: 2, pad: 1 });
        wl
    }

    fn exec(m: usize, threads: usize) -> NetworkExecutor {
        let wl = toy();
        let schedule = Schedule::homogeneous(&wl, m).unwrap();
        NetworkExecutor::new(wl, schedule, ExecConfig::with_threads(threads)).unwrap()
    }

    #[test]
    fn run_reports_every_layer_with_positive_rates() {
        let report = exec(2, 2).run();
        assert_eq!(report.layers.len(), 2);
        assert_eq!(report.layers[0].engine, "F(2x2, 3x3)");
        assert_eq!(report.layers[1].engine, "spatial");
        assert!(report.total_millis() > 0.0);
        assert!(report.effective_gflops() > 0.0);
        let text = report.to_string();
        assert!(text.contains("toy") && text.contains("spatial"));
    }

    #[test]
    fn verify_passes_within_fp32_tolerance() {
        let worst = exec(4, 2).verify(1e-4).expect("matches oracle");
        assert!(worst < 1e-4);
    }

    #[test]
    fn checksums_are_thread_count_invariant() {
        let one = exec(4, 1).run();
        let many = exec(4, 4).run();
        for (a, b) in one.layers.iter().zip(&many.layers) {
            assert_eq!(a.checksum, b.checksum, "{}", a.layer);
        }
    }

    #[test]
    fn same_seed_same_weights_different_seed_different() {
        let wl = toy();
        let s = Schedule::homogeneous(&wl, 2).unwrap();
        let a = NetworkExecutor::with_seed(wl.clone(), s.clone(), ExecConfig::with_threads(1), 7)
            .unwrap();
        let b = NetworkExecutor::with_seed(wl.clone(), s.clone(), ExecConfig::with_threads(1), 7)
            .unwrap();
        let c = NetworkExecutor::with_seed(wl, s, ExecConfig::with_threads(1), 8).unwrap();
        assert_eq!(a.kernels(0).as_slice(), b.kernels(0).as_slice());
        assert_ne!(a.kernels(0).as_slice(), c.kernels(0).as_slice());
    }

    #[test]
    fn tiny_cnn_executes_and_verifies() {
        let wl = tiny_cnn(1);
        let schedule = Schedule::homogeneous(&wl, 3).unwrap();
        let exec = NetworkExecutor::new(wl, schedule, ExecConfig::with_threads(2)).unwrap();
        let worst = exec.verify(1e-3).expect("tiny cnn matches oracle");
        assert!(worst < 1e-3);
    }

    #[test]
    fn mismatched_schedule_is_rejected() {
        let wl = toy();
        let schedule = Schedule::homogeneous(&tiny_cnn(1), 2).unwrap();
        assert!(NetworkExecutor::new(wl, schedule, ExecConfig::default()).is_err());
    }

    #[test]
    fn verify_error_display() {
        let e = VerifyError { layer: "conv1".into(), max_abs: 0.5, tolerance: 1e-4 };
        assert!(e.to_string().contains("conv1"));
    }

    #[test]
    fn empty_report_has_zero_gflops_not_nan() {
        let report = NetworkReport { network: "empty".into(), threads: 1, layers: Vec::new() };
        assert_eq!(report.total_millis(), 0.0);
        assert_eq!(report.effective_gflops(), 0.0);
        assert!(!report.effective_gflops().is_nan());
    }

    #[test]
    fn run_collects_per_phase_breakdowns() {
        let report = exec(2, 2).run();
        // The Winograd layer reports the three pipeline phases, whose
        // times nest inside (so sum to at most) the layer wall-clock.
        let wino = &report.layers[0];
        let phases: Vec<&str> = wino.phase_millis.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(phases, ["pack", "multiply", "inverse"]);
        let phase_sum: f64 = wino.phase_millis.iter().map(|(_, ms)| ms).sum();
        assert!(phase_sum > 0.0 && phase_sum <= wino.millis, "{phase_sum} vs {}", wino.millis);
        // The strided layer runs the spatial engine as one phase.
        let spat = &report.layers[1];
        assert_eq!(spat.phase_millis.len(), 1);
        assert_eq!(spat.phase_millis[0].0, "spatial");
    }

    #[test]
    fn display_attributes_engine_and_phases_per_layer() {
        let wl = toy();
        let schedule = Schedule::homogeneous(&wl, 2)
            .unwrap()
            .with_quant(
                crate::QuantConfig::per_layer(vec![
                    crate::Precision::Fixed { frac: 10 },
                    crate::Precision::Float,
                ])
                .unwrap(),
            )
            .unwrap();
        let exec = NetworkExecutor::new(wl, schedule, ExecConfig::with_threads(1)).unwrap();
        let text = exec.run().to_string();
        // Engine labels (tile size and datapath) ride next to the
        // timings, and quantized layers report their conversion phases.
        assert!(text.contains("F(2x2, 3x3) Q22.10"), "{text}");
        assert!(text.contains("spatial"), "{text}");
        assert!(text.contains("[quantize") && text.contains("dequantize"), "{text}");
        assert!(text.contains("pack") && text.contains("multiply"), "{text}");
    }

    #[test]
    fn prepared_layers_match_one_shot_execution_bitwise() {
        // The executor's cached kernel banks must change nothing: every
        // layer (float and quantized, Winograd and spatial) produces
        // output bitwise identical to a plan prepared for that one call.
        let wl = toy();
        let schedule = Schedule::homogeneous(&wl, 2)
            .unwrap()
            .with_quant(
                crate::QuantConfig::per_layer(vec![
                    crate::Precision::Float,
                    crate::Precision::Fixed { frac: 10 },
                ])
                .unwrap(),
            )
            .unwrap();
        let exec = NetworkExecutor::new(wl, schedule.clone(), ExecConfig::with_threads(2)).unwrap();
        for i in 0..schedule.len() {
            let input = exec.layer_input(i);
            let prepared = exec.execute_layer(i, &input).unwrap();
            let one_shot =
                PreparedPlan::new(&schedule.plans()[i], schedule.precision(i), exec.kernels(i))
                    .unwrap()
                    .run(&input, exec.config().threads);
            assert_eq!(prepared.as_slice(), one_shot.as_slice(), "layer {i}");
        }
    }
}
