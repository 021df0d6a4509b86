//! Model registry: workloads loaded behind stable IDs, schedules
//! pre-lowered, kernel banks pre-transformed.
//!
//! A [`ModelEntry`] owns a fully-prepared
//! [`NetworkExecutor`] — seeded weights, validated schedule, and (since
//! the executor caches [`PreparedPlan`](wino_exec::PreparedPlan)s) the
//! Winograd kernel banks already transformed and, for quantized
//! variants, already quantized. Serving a request therefore never pays
//! transform generation or the whole-bank kernel transform; it only
//! runs data through cached banks.
//!
//! The registry is engine-agnostic: every serving path runs through the
//! prepared-backend contract (`wino_exec::ConvBackend` behind each
//! cached plan), so a schedule mixing spatial, Winograd, and
//! overlap–save FFT engines registers and serves exactly like a
//! homogeneous one — FFT kernel *spectra* are precomputed at
//! registration the same way Winograd `V`-banks are, and the batched
//! path stays bitwise equal to solo runs.
//!
//! A request is identified by its *input seed*: the entry derives every
//! layer's single-image input deterministically from the seed (same
//! construction as `NetworkExecutor::layer_input`, per request), so any
//! two executions of the same `(model, seed)` pair — batched together
//! with strangers or alone — produce bitwise-identical outputs. That
//! determinism is what lets the serving tests assert byte equality
//! between the batcher's arbitrary coalescing and a direct run.

use std::fmt;
use wino_exec::{ExecConfig, NetworkExecutor, QuantConfig, Schedule, ScheduleError};
use wino_models::{model_zoo, shrink};
use wino_tensor::{Shape4, SplitMix64, Tensor4};

/// Stable identifier of a registered model variant, e.g. `vgg16d-f32`
/// or `tinycnn-q8`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModelId(String);

impl ModelId {
    /// Wraps a string identifier.
    pub fn new(id: impl Into<String>) -> ModelId {
        ModelId(id.into())
    }

    /// The identifier as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ModelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ModelId {
    fn from(s: &str) -> ModelId {
        ModelId::new(s)
    }
}

/// Errors building a [`ModelRegistry`].
#[derive(Debug, Clone, PartialEq)]
pub enum RegistryError {
    /// Two models were registered under the same ID.
    DuplicateId(ModelId),
    /// The schedule did not validate against the workload.
    Schedule(ScheduleError),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::DuplicateId(id) => write!(f, "model id '{id}' already registered"),
            RegistryError::Schedule(e) => write!(f, "schedule rejected: {e}"),
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<ScheduleError> for RegistryError {
    fn from(e: ScheduleError) -> RegistryError {
        RegistryError::Schedule(e)
    }
}

/// One request's finished inference: the per-layer outputs of its
/// single image.
#[derive(Debug, Clone, PartialEq)]
pub struct InferOutput {
    /// One batch-1 output tensor per layer, in execution order.
    pub layers: Vec<Tensor4<f32>>,
}

impl InferOutput {
    /// Sum of every output element across all layers — a cheap
    /// fingerprint for logging and load-test bookkeeping (the serving
    /// tests compare full tensors, not checksums).
    pub fn checksum(&self) -> f64 {
        self.layers.iter().map(|t| t.as_slice().iter().map(|&x| x as f64).sum::<f64>()).sum()
    }
}

/// A registered model variant: stable ID plus a fully-prepared
/// executor.
#[derive(Debug, Clone)]
pub struct ModelEntry {
    id: ModelId,
    executor: NetworkExecutor,
}

impl ModelEntry {
    /// Prepares `workload` under `schedule` behind `id`. All kernel
    /// banks are transformed here, once.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::Schedule`] when the schedule does not
    /// line up with the workload.
    pub fn new(
        id: ModelId,
        workload: wino_core::Workload,
        schedule: Schedule,
        config: ExecConfig,
        seed: u64,
    ) -> Result<ModelEntry, RegistryError> {
        let executor = NetworkExecutor::with_seed(workload, schedule, config, seed)?;
        Ok(ModelEntry { id, executor })
    }

    /// The model's stable identifier.
    pub fn id(&self) -> &ModelId {
        &self.id
    }

    /// The prepared executor (weights seeded, kernel banks cached).
    pub fn executor(&self) -> &NetworkExecutor {
        &self.executor
    }

    /// Clamps this entry's per-call execution fan-out to at most
    /// `budget` threads (see [`NetworkExecutor::clamp_threads`]).
    pub fn clamp_exec_threads(&mut self, budget: usize) {
        self.executor.clamp_threads(budget);
    }

    /// The largest batch one execution accepts — the workload's
    /// declared batch dimension, which is what the dynamic batcher
    /// coalesces up to.
    pub fn max_batch(&self) -> usize {
        self.executor.workload().batch().max(1)
    }

    /// Layer count of the model.
    pub fn layer_count(&self) -> usize {
        self.executor.workload().layers().len()
    }

    /// The deterministic single-image input of layer `layer` for the
    /// request identified by `seed`.
    ///
    /// # Panics
    ///
    /// Panics when `layer` is out of range.
    pub fn request_input(&self, layer: usize, seed: u64) -> Tensor4<f32> {
        let s = self.executor.workload().layers()[layer].shape;
        let mut rng = SplitMix64::new(seed ^ ((layer as u64 + 1) << 32) ^ 0x5E7E_D0C5);
        Tensor4::from_fn(Shape4 { n: 1, c: s.c, h: s.h, w: s.w }, |_, _, _, _| {
            rng.uniform_f32(-1.0, 1.0)
        })
    }

    /// Runs one request alone — the reference path the batched path is
    /// tested against, and the per-image serial baseline of the serving
    /// study.
    pub fn infer_one(&self, seed: u64) -> InferOutput {
        let layers = (0..self.layer_count())
            .map(|i| {
                let input = self.request_input(i, seed);
                self.executor.execute_layer(i, &input).expect("prepared plan executes")
            })
            .collect();
        InferOutput { layers }
    }

    /// Runs a coalesced batch of requests: for every layer, the
    /// requests' single-image inputs run as lanes of one call through
    /// the cached bank ([`PreparedPlan::run_lanes`](wino_exec::PreparedPlan::run_lanes)),
    /// and the output is split back per request.
    ///
    /// Because every Winograd work item is one `(image, tile-row)` pair
    /// and every spatial item one `(image, kernel)` plane — both
    /// reading only their own image with a fixed accumulation order —
    /// each request's slice of the batched output is **bitwise
    /// identical** to [`infer_one`](Self::infer_one) of the same seed,
    /// no matter who else shares the batch. The serving property tests
    /// pin this for arbitrary batcher splits.
    ///
    /// # Panics
    ///
    /// Panics when `seeds` is empty or exceeds
    /// [`max_batch`](Self::max_batch).
    pub fn infer_batch(&self, seeds: &[u64]) -> Vec<InferOutput> {
        let b = seeds.len();
        assert!(b > 0, "empty batch");
        assert!(b <= self.max_batch(), "batch {b} exceeds max {}", self.max_batch());
        let threads = self.executor.config().threads;
        let mut outputs: Vec<InferOutput> =
            seeds.iter().map(|_| InferOutput { layers: Vec::new() }).collect();
        for i in 0..self.layer_count() {
            let inputs: Vec<Tensor4<f32>> =
                seeds.iter().map(|&seed| self.request_input(i, seed)).collect();
            let lanes = self.executor.prepared(i).run_lanes(&inputs, threads);
            for (output, lane) in outputs.iter_mut().zip(lanes) {
                output.layers.push(lane);
            }
        }
        outputs
    }
}

/// The model roster a [`Server`](crate::Server) serves: entries in
/// registration order, addressable by [`ModelId`] or dense index.
#[derive(Debug, Clone, Default)]
pub struct ModelRegistry {
    entries: Vec<ModelEntry>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> ModelRegistry {
        ModelRegistry::default()
    }

    /// Registers a model variant.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::DuplicateId`] when `id` is taken, or
    /// [`RegistryError::Schedule`] when the schedule does not validate.
    pub fn register(
        &mut self,
        id: impl Into<ModelId>,
        workload: wino_core::Workload,
        schedule: Schedule,
        config: ExecConfig,
        seed: u64,
    ) -> Result<(), RegistryError> {
        let id = id.into();
        if self.index_of(&id).is_some() {
            return Err(RegistryError::DuplicateId(id));
        }
        self.entries.push(ModelEntry::new(id, workload, schedule, config, seed)?);
        Ok(())
    }

    /// The standard serving roster: the four `wino-models` workloads
    /// (shrunk so the bench and tests stay affordable), each in a
    /// float (`-f32`) and a `Q24.8` fixed-point (`-q8`) variant —
    /// eight entries total, every kernel bank pre-transformed.
    ///
    /// `max_batch` becomes each workload's batch dimension (the
    /// batcher's coalescing ceiling); `exec_threads` is the per-call
    /// worker fan-out of the execution engine.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::Schedule`] if a schedule fails to lower
    /// (impossible for the standard workloads).
    pub fn standard(max_batch: usize, exec_threads: usize) -> Result<ModelRegistry, RegistryError> {
        let mut registry = ModelRegistry::new();
        let config = ExecConfig::with_threads(exec_threads);
        let short = ["vgg16d", "alexnet", "resnet18", "tinycnn"];
        for (wl, short) in model_zoo(max_batch.max(1)).into_iter().zip(short) {
            let wl = shrink(&wl, 12, 4);
            let schedule = Schedule::homogeneous(&wl, 4)?;
            let quant = QuantConfig::uniform_fixed(schedule.len(), 8).expect("FRAC 8 is supported");
            let quantized = schedule.clone().with_quant(quant)?;
            registry.register(
                format!("{short}-f32").as_str(),
                wl.clone(),
                schedule,
                config,
                0x5EED_0001,
            )?;
            registry.register(
                format!("{short}-q8").as_str(),
                wl,
                quantized,
                config,
                0x5EED_0001,
            )?;
        }
        Ok(registry)
    }

    /// Entries in registration order.
    pub fn entries(&self) -> &[ModelEntry] {
        &self.entries
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Clamps every registered entry's execution fan-out to at most
    /// `budget` threads per call.
    ///
    /// A registry built with [`ExecConfig::default`] (one thread per
    /// core) is correct for a single-tenant executor but oversubscribes
    /// a multi-worker [`Server`](crate::Server), where each of `W`
    /// workers runs one batch concurrently: thread demand becomes
    /// `W × cores`. The server calls this at startup with its
    /// per-worker budget; it is public so embedders running their own
    /// pools can do the same.
    pub fn clamp_exec_threads(&mut self, budget: usize) {
        for entry in &mut self.entries {
            entry.clamp_exec_threads(budget);
        }
    }

    /// The dense index of `id`, if registered — the handle the batcher
    /// queues use.
    pub fn index_of(&self, id: &ModelId) -> Option<usize> {
        self.entries.iter().position(|e| e.id() == id)
    }

    /// The entry registered under `id`.
    pub fn get(&self, id: &ModelId) -> Option<&ModelEntry> {
        self.index_of(id).map(|i| &self.entries[i])
    }

    /// The entry at dense index `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn entry(&self, index: usize) -> &ModelEntry {
        &self.entries[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wino_core::{ConvShape, Workload};

    fn toy_entry(batch: usize) -> ModelEntry {
        let mut wl = Workload::new("toy", batch);
        wl.push("a", "G", ConvShape::same_padded(8, 8, 2, 3, 3));
        wl.push("b", "G", ConvShape { h: 8, w: 8, c: 3, k: 2, r: 3, stride: 2, pad: 1 });
        let schedule = Schedule::homogeneous(&wl, 2).unwrap();
        ModelEntry::new("toy".into(), wl, schedule, ExecConfig::with_threads(2), 7).unwrap()
    }

    #[test]
    fn batched_inference_is_bitwise_the_solo_run() {
        let entry = toy_entry(4);
        let seeds = [11u64, 22, 33];
        let batched = entry.infer_batch(&seeds);
        for (&seed, got) in seeds.iter().zip(&batched) {
            let solo = entry.infer_one(seed);
            assert_eq!(got, &solo, "seed {seed}");
        }
        assert!(batched[0].checksum().is_finite());
    }

    #[test]
    fn same_seed_is_deterministic_and_distinct_seeds_differ() {
        let entry = toy_entry(2);
        assert_eq!(entry.infer_one(5), entry.infer_one(5));
        assert_ne!(entry.infer_one(5), entry.infer_one(6));
    }

    #[test]
    #[should_panic(expected = "exceeds max")]
    fn oversized_batch_panics() {
        let entry = toy_entry(2);
        let _ = entry.infer_batch(&[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_panics() {
        let entry = toy_entry(2);
        let _ = entry.infer_batch(&[]);
    }

    #[test]
    fn standard_registry_has_eight_prepared_variants() {
        let registry = ModelRegistry::standard(4, 1).unwrap();
        assert_eq!(registry.len(), 8);
        let id = ModelId::new("tinycnn-q8");
        let entry = registry.get(&id).expect("registered");
        assert_eq!(entry.max_batch(), 4);
        assert_eq!(registry.index_of(&id), Some(7));
        // Quantized and float variants genuinely differ.
        let float = registry.get(&"tinycnn-f32".into()).unwrap();
        assert_ne!(float.infer_one(1), entry.infer_one(1));
    }

    #[test]
    fn fft_bearing_model_registers_and_serves_bitwise() {
        // A heterogeneous schedule mixing all three backends: conv "a"
        // on FFT(16), strided conv "b" spatial, conv "c" on Winograd.
        use wino_search::{AlgorithmChoice, LayerDesign};
        let mut wl = Workload::new("hetero", 4);
        wl.push("a", "G", ConvShape::same_padded(12, 12, 2, 3, 5));
        wl.push("b", "G", ConvShape { h: 12, w: 12, c: 3, k: 2, r: 3, stride: 2, pad: 1 });
        wl.push("c", "G", ConvShape::same_padded(6, 6, 2, 2, 3));
        let algos = [
            AlgorithmChoice::Fft { n: 16 },
            AlgorithmChoice::Spatial,
            AlgorithmChoice::Winograd(wino_core::WinogradParams::new(2, 3).unwrap()),
        ];
        let designs: Vec<LayerDesign> = wl
            .layers()
            .iter()
            .zip(algos)
            .map(|(l, algo)| LayerDesign {
                layer: l.name.clone(),
                algo,
                pe_count: 1,
                latency_ms: 1.0,
            })
            .collect();
        let schedule = Schedule::from_layer_designs(&wl, &designs).unwrap();
        assert_eq!(schedule.fft_layers(), 1);

        let mut registry = ModelRegistry::new();
        registry.register("hetero-fft", wl, schedule, ExecConfig::with_threads(2), 42).unwrap();
        let entry = registry.get(&"hetero-fft".into()).expect("registered");
        assert_eq!(entry.executor().engine_label(0), "FFT(16)");

        // Batched serving stays bitwise equal to solo runs through the
        // FFT bank.
        let seeds = [3u64, 14, 15];
        for (&seed, got) in seeds.iter().zip(&entry.infer_batch(&seeds)) {
            assert_eq!(got, &entry.infer_one(seed), "seed {seed}");
        }
    }

    #[test]
    fn duplicate_ids_are_rejected() {
        let mut registry = ModelRegistry::new();
        let mut wl = Workload::new("t", 1);
        wl.push("a", "G", ConvShape::same_padded(6, 6, 1, 1, 3));
        let s = Schedule::homogeneous(&wl, 2).unwrap();
        registry.register("m", wl.clone(), s.clone(), ExecConfig::with_threads(1), 1).unwrap();
        let err = registry.register("m", wl, s, ExecConfig::with_threads(1), 1).unwrap_err();
        assert!(matches!(err, RegistryError::DuplicateId(_)));
        assert!(err.to_string().contains('m'));
    }
}
