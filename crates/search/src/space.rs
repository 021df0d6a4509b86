//! Search spaces: the homogeneous `m`-sweep of the paper and the
//! heterogeneous per-layer space that goes beyond it.
//!
//! A design candidate is a [`Genome`] — one choice index per decision
//! dimension. Encoding candidates as small integer vectors gives every
//! strategy (exhaustive enumeration, hill climbing, annealing, genetic
//! operators) a uniform representation.
//!
//! Both spaces are tables. The homogeneous space evaluates each of its
//! choices once, when it is built. The heterogeneous space's cost is
//! separable over layers, so it costs every engine context it can reach
//! once, into a table built with the space, and evaluates a genome by one
//! table lookup per layer. Evaluating a space is therefore the one
//! evaluation path, and nothing is memoized in front of it.

use crate::{resource_headroom, Evaluation};
use std::collections::HashMap;
use std::fmt;
use wino_core::{latency_seconds, pe_count, TileModel, WinogradParams, Workload};
use wino_dse::{fft_context_latency_seconds, DesignPoint, Evaluator};
use wino_fpga::{fft_engine, Architecture, EngineResources, FpgaDevice, PowerModel, ResourceUsage};
use wino_tensor::SplitMix64;

/// One design candidate: a choice index per dimension of a
/// [`SearchSpace`].
pub type Genome = Vec<usize>;

/// A finite, integer-encoded design space.
///
/// Implementations must be `Sync`: the exhaustive strategy fans
/// evaluation out across threads.
pub trait SearchSpace: Sync {
    /// Number of decision dimensions.
    fn dims(&self) -> usize;

    /// Number of choices in dimension `dim`.
    fn cardinality(&self, dim: usize) -> usize;

    /// Evaluates the candidate encoded by `genome` (one index per
    /// dimension, each `< cardinality(dim)`).
    fn evaluate(&self, genome: &[usize]) -> Evaluation;

    /// Human-readable summary of the candidate.
    fn describe(&self, genome: &[usize]) -> String;

    /// Total number of candidates.
    fn size(&self) -> u128 {
        (0..self.dims()).map(|d| self.cardinality(d) as u128).product()
    }

    /// The `index`-th candidate in mixed-radix order (dimension 0 is the
    /// least significant digit).
    fn genome_at(&self, mut index: u128) -> Genome {
        (0..self.dims())
            .map(|d| {
                let card = self.cardinality(d) as u128;
                let digit = (index % card) as usize;
                index /= card;
                digit
            })
            .collect()
    }

    /// A uniformly random candidate.
    fn random_genome(&self, rng: &mut SplitMix64) -> Genome {
        (0..self.dims()).map(|d| rng.below(self.cardinality(d) as u64) as usize).collect()
    }
}

/// The paper's design space: one `F(m×m, r×r)` for the whole network,
/// PE count fixed by the multiplier budget via Eq. 8.
///
/// One dimension whose choices are the entries of `ms` — exactly the
/// space `wino_dse::sweep_m` enumerates, packaged for the strategy
/// engine. Like [`HeterogeneousSpace`], it is a table: every choice is
/// evaluated once, when the space is built.
pub struct HomogeneousSpace {
    evaluator: Evaluator,
    /// One row per entry of `ms`: the design point (`None` when
    /// `F(m×m, r×r)` is out of range) and its evaluation.
    table: Vec<(Option<DesignPoint>, Evaluation)>,
}

impl HomogeneousSpace {
    /// A homogeneous space over output-tile sizes `ms` for `r×r`
    /// kernels under `mult_budget` multipliers at `freq_hz`.
    ///
    /// Each choice is built and evaluated here, as `wino_dse::sweep_m`
    /// does; one whose transform is out of range, or whose budget packs
    /// no PE, evaluates infeasible.
    ///
    /// # Panics
    ///
    /// Panics when `ms` is empty.
    pub fn new(
        evaluator: &Evaluator,
        ms: Vec<usize>,
        r: usize,
        mult_budget: usize,
        freq_hz: f64,
    ) -> HomogeneousSpace {
        assert!(!ms.is_empty(), "homogeneous space needs at least one m");
        let table = ms
            .into_iter()
            .map(|m| {
                let Ok(params) = WinogradParams::new(m, r) else {
                    return (None, Evaluation::infeasible());
                };
                let point = DesignPoint::with_mult_budget(
                    params,
                    Architecture::SharedTransform,
                    mult_budget,
                    freq_hz,
                );
                if point.pe_count == 0 {
                    return (Some(point), Evaluation::infeasible());
                }
                let metrics = evaluator.evaluate(&point);
                let evaluation = Evaluation {
                    throughput_gops: metrics.throughput_gops,
                    power_efficiency: metrics.power_efficiency,
                    latency_ms: metrics.total_latency_ms,
                    power_w: metrics.power_w,
                    headroom: resource_headroom(&metrics.resources, evaluator.device()),
                    // The analytical models assume the paper's exact f32 datapath.
                    quant_error: 0.0,
                    resources: metrics.resources,
                    feasible: metrics.fits_device,
                };
                (Some(point), evaluation)
            })
            .collect();
        HomogeneousSpace { evaluator: evaluator.clone(), table }
    }

    /// The underlying evaluator.
    pub fn evaluator(&self) -> &Evaluator {
        &self.evaluator
    }

    /// The table row `genome` selects, or `None` for a genome of the
    /// wrong length or with an out-of-range choice.
    fn row(&self, genome: &[usize]) -> Option<&(Option<DesignPoint>, Evaluation)> {
        match genome {
            &[choice] => self.table.get(choice),
            _ => None,
        }
    }

    /// Decodes a genome to the design point it denotes. Returns `None`
    /// for genomes of the wrong length or with an out-of-range choice.
    pub fn design_point(&self, genome: &[usize]) -> Option<DesignPoint> {
        self.row(genome)?.0.clone()
    }
}

impl SearchSpace for HomogeneousSpace {
    fn dims(&self) -> usize {
        1
    }

    fn cardinality(&self, _dim: usize) -> usize {
        self.table.len()
    }

    fn evaluate(&self, genome: &[usize]) -> Evaluation {
        self.row(genome).map_or_else(Evaluation::infeasible, |(_, evaluation)| *evaluation)
    }

    fn describe(&self, genome: &[usize]) -> String {
        match self.row(genome) {
            Some((Some(point), _)) => point.to_string(),
            _ => format!("invalid genome {genome:?}"),
        }
    }
}

/// The convolution algorithm assigned to one layer of a heterogeneous
/// design — the per-layer counterpart of `wino_exec::EnginePlan`, kept
/// separate so the search layer stays independent of the executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgorithmChoice {
    /// Direct spatial convolution (the universal fallback engine).
    Spatial,
    /// Tiled `F(m×m, r×r)` Winograd convolution.
    Winograd(WinogradParams),
    /// Overlap–save FFT convolution with per-layer FFT size `n`.
    Fft {
        /// FFT size (power of two, at least the layer's kernel size).
        n: usize,
    },
}

impl fmt::Display for AlgorithmChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgorithmChoice::Spatial => write!(f, "spatial"),
            AlgorithmChoice::Winograd(p) => write!(f, "{p}"),
            AlgorithmChoice::Fft { n } => write!(f, "FFT({n})"),
        }
    }
}

/// Per-layer engine configuration of a heterogeneous design.
///
/// This is the hand-off point from search to execution: a full vector
/// of these (one per workload layer, from
/// [`HeterogeneousSpace::layer_designs`]) lowers to a runnable
/// schedule via `wino_exec::Schedule::from_layer_designs`.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerDesign {
    /// Layer name.
    pub layer: String,
    /// Algorithm the layer runs under.
    pub algo: AlgorithmChoice,
    /// Parallel PEs of this layer's engine context.
    pub pe_count: usize,
    /// Latency in milliseconds.
    pub latency_ms: f64,
}

/// One engine context of the table: what a layer costs under one
/// (algorithm, allocation) choice.
#[derive(Debug, Clone, Copy)]
struct Context {
    algo: AlgorithmChoice,
    pe_count: usize,
    latency_ms: f64,
    usage: ResourceUsage,
    /// `PowerModel::power_w` of `usage` at the space's clock.
    power_w: f64,
}

/// One workload layer's row of the table; `None` marks a choice that
/// cannot run the layer.
#[derive(Debug, Clone)]
enum LayerContexts {
    /// An ineligible layer's spatial fallback on the full budget.
    Fixed(Option<Context>),
    /// An eligible layer's contexts, indexed by
    /// `algorithm index × allocation count + allocation index`.
    Chosen(Vec<Option<Context>>),
}

/// The heterogeneous per-layer space: every Winograd-eligible layer
/// picks its own algorithm — an output-tile size `m` from `m_choices`
/// or (when [`HeterogeneousSpace::with_fft_sizes`] widens the space) an
/// overlap–save FFT size `N` — *and* its own PE allocation (a fraction
/// of the multiplier budget), while ineligible layers run on a spatial
/// fallback engine built from the full budget.
///
/// The hardware model is a time-multiplexed engine: layer contexts
/// execute sequentially, the fabric must fit the largest context
/// (element-wise maximum of per-context resources), and power is the
/// time-weighted average over contexts. Choosing the same `m` and full
/// allocation everywhere degenerates to the paper's homogeneous design,
/// so the heterogeneous optimum can never be worse than the paper's.
///
/// A genome's cost is separable: a sum of per-layer latency and energy
/// and a max of per-layer fabric. So the space tabulates every engine
/// context it can reach — each eligible layer × algorithm × allocation,
/// and each fixed fallback layer — once, when it is built, and
/// [`SearchSpace::evaluate`] is one table lookup per layer.
pub struct HeterogeneousSpace {
    workload: Workload,
    device: FpgaDevice,
    power: PowerModel,
    tiles: TileModel,
    m_choices: Vec<usize>,
    fft_choices: Vec<usize>,
    alloc_choices: Vec<f64>,
    mult_budget: usize,
    freq_hz: f64,
    pipeline_depth: usize,
    /// Number of Winograd-eligible layers (one genome slot each).
    eligible: usize,
    /// One row per workload layer, in layer order.
    table: Vec<LayerContexts>,
}

/// Resource estimators per `(m, r)`, generated once per table build;
/// `None` when the transform is out of range.
type Engines = HashMap<(usize, usize), Option<EngineResources>>;

impl HeterogeneousSpace {
    /// Builds the space from an existing [`Evaluator`] (workload,
    /// device, power model and tile accounting are inherited), with
    /// per-layer tile choices `m_choices` and PE-allocation fractions
    /// `alloc_choices` under `mult_budget` multipliers at `freq_hz`.
    ///
    /// Every engine context the space can reach is costed once here
    /// (transforms, resource estimate, latency and power), so evaluating
    /// a candidate is a table lookup per layer.
    ///
    /// # Panics
    ///
    /// Panics when `m_choices` or `alloc_choices` is empty, or when an
    /// allocation fraction is outside `(0, 1]`.
    pub fn new(
        evaluator: &Evaluator,
        m_choices: Vec<usize>,
        alloc_choices: Vec<f64>,
        mult_budget: usize,
        freq_hz: f64,
    ) -> HeterogeneousSpace {
        assert!(!m_choices.is_empty(), "heterogeneous space needs at least one m choice");
        assert!(!alloc_choices.is_empty(), "heterogeneous space needs at least one allocation");
        assert!(
            alloc_choices.iter().all(|&a| a > 0.0 && a <= 1.0),
            "allocation fractions must lie in (0, 1]"
        );
        let workload = evaluator.workload().clone();
        let eligible = workload.layers().iter().filter(|l| l.shape.winograd_compatible()).count();
        HeterogeneousSpace {
            workload,
            device: evaluator.device().clone(),
            power: evaluator.power_model().clone(),
            tiles: evaluator.tile_model(),
            m_choices,
            fft_choices: Vec::new(),
            alloc_choices,
            mult_budget,
            freq_hz,
            pipeline_depth: 8,
            eligible,
            table: Vec::new(),
        }
        .tabulated()
    }

    /// Overrides the pipeline depth `D_p` (default 8, as in the paper's
    /// engine).
    pub fn with_pipeline_depth(mut self, depth: usize) -> HeterogeneousSpace {
        self.pipeline_depth = depth;
        self.tabulated()
    }

    /// Widens every eligible layer's algorithm dimension with
    /// overlap–save FFT engines of the given sizes, making the choice a
    /// three-way {spatial, `F(m×m)`, `FFT(N)`} decision. The `m`
    /// choices keep the low indices, so genomes built for the
    /// Winograd-only space decode unchanged.
    ///
    /// An `FFT(N)` choice on a layer whose kernel exceeds `N` decodes
    /// as invalid (the candidate evaluates infeasible), mirroring how
    /// out-of-range `F(m, r)` transforms are handled.
    ///
    /// # Panics
    ///
    /// Panics when a size is not a power of two of at least 4.
    pub fn with_fft_sizes(mut self, sizes: Vec<usize>) -> HeterogeneousSpace {
        assert!(
            sizes.iter().all(|&n| n >= 4 && n.is_power_of_two()),
            "FFT sizes must be powers of two >= 4"
        );
        self.fft_choices = sizes;
        // Only the FFT columns depend on the sizes: keep every row's
        // Winograd columns and rebuild the rest.
        let winograd = self.m_choices.len() * self.alloc_choices.len();
        let mut table = std::mem::take(&mut self.table);
        for (layer, row) in self.workload.layers().iter().zip(&mut table) {
            if let LayerContexts::Chosen(row) = row {
                row.truncate(winograd);
                row.extend(self.fft_columns(&layer.shape));
            }
        }
        self.table = table;
        self
    }

    /// The workload being mapped.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Number of Winograd-eligible layers (two decision dimensions
    /// each).
    pub fn eligible_layers(&self) -> usize {
        self.eligible
    }

    /// The genome selecting tile choice `m_index` and allocation
    /// `alloc_index` for every eligible layer — the homogeneous corner
    /// of the space.
    ///
    /// # Panics
    ///
    /// Panics when either index is out of range.
    pub fn uniform_genome(&self, m_index: usize, alloc_index: usize) -> Genome {
        assert!(m_index < self.m_choices.len(), "m_index out of range");
        assert!(alloc_index < self.alloc_choices.len(), "alloc_index out of range");
        (0..self.dims()).map(|d| if d % 2 == 0 { m_index } else { alloc_index }).collect()
    }

    /// This space with its table (re)built from the current choices.
    fn tabulated(mut self) -> HeterogeneousSpace {
        let mut engines = Engines::new();
        self.table = self
            .workload
            .layers()
            .iter()
            .map(|layer| {
                let shape = &layer.shape;
                if !shape.winograd_compatible() {
                    // Ineligible layers always run the spatial fallback
                    // (the m = 1 engine) on the full budget.
                    return LayerContexts::Fixed(self.winograd_context(
                        &mut engines,
                        1,
                        shape,
                        self.mult_budget,
                    ));
                }
                let algos = self.m_choices.len() + self.fft_choices.len();
                let mut row = Vec::with_capacity(algos * self.alloc_choices.len());
                for &m in &self.m_choices {
                    for &frac in &self.alloc_choices {
                        let budget = self.allocation(frac);
                        row.push(self.winograd_context(&mut engines, m, shape, budget));
                    }
                }
                row.extend(self.fft_columns(shape));
                LayerContexts::Chosen(row)
            })
            .collect();
        self
    }

    /// One layer's `F(m×m, r×r)` context with `budget` multipliers
    /// (`m = 1` is the spatial engine). `None` when the transform is
    /// out of range or the budget packs no PE.
    fn winograd_context(
        &self,
        engines: &mut Engines,
        m: usize,
        shape: &wino_core::ConvShape,
        budget: usize,
    ) -> Option<Context> {
        let params = WinogradParams::new(m, shape.r).ok()?;
        let engine = engines
            .entry((m, shape.r))
            .or_insert_with(|| EngineResources::new(params).ok())
            .as_ref()?;
        let pe = pe_count(budget, params);
        if pe == 0 {
            return None;
        }
        let latency_s = latency_seconds(
            self.workload.batch(),
            shape,
            params,
            pe as f64,
            self.pipeline_depth,
            self.freq_hz,
            self.tiles,
        );
        let algo =
            if m == 1 { AlgorithmChoice::Spatial } else { AlgorithmChoice::Winograd(params) };
        Some(self.context(algo, pe, latency_s, engine.estimate(Architecture::SharedTransform, pe)))
    }

    /// The multipliers an allocation fraction of the budget grants.
    fn allocation(&self, frac: f64) -> usize {
        (self.mult_budget as f64 * frac) as usize
    }

    /// One eligible layer's FFT columns of the table: every FFT size ×
    /// every allocation, in genome order.
    fn fft_columns<'a>(
        &'a self,
        shape: &'a wino_core::ConvShape,
    ) -> impl Iterator<Item = Option<Context>> + 'a {
        self.fft_choices.iter().flat_map(move |&n| {
            self.alloc_choices
                .iter()
                .map(move |&frac| self.fft_context(n, shape, self.allocation(frac)))
        })
    }

    /// One layer's `FFT(n)` context with `budget` multipliers. `None`
    /// when `n` is below the kernel size or the budget packs no PE.
    fn fft_context(
        &self,
        n: usize,
        shape: &wino_core::ConvShape,
        budget: usize,
    ) -> Option<Context> {
        if n < shape.r {
            return None;
        }
        // The FFT context's unit of parallelism is a complex MAC built
        // from four real multipliers, so the budget packs budget/4 PEs.
        let pe = budget / 4;
        if pe == 0 {
            return None;
        }
        let latency_s = fft_context_latency_seconds(
            self.workload.batch(),
            shape,
            n,
            (pe * 4) as f64,
            self.pipeline_depth,
            self.freq_hz,
        );
        Some(self.context(
            AlgorithmChoice::Fft { n },
            pe,
            latency_s,
            fft_engine(n, (pe * 4) as u64),
        ))
    }

    fn context(
        &self,
        algo: AlgorithmChoice,
        pe_count: usize,
        latency_s: f64,
        usage: ResourceUsage,
    ) -> Context {
        Context {
            algo,
            pe_count,
            latency_ms: latency_s * 1e3,
            usage,
            power_w: self.power.power_w(&usage, self.freq_hz),
        }
    }

    /// Each layer's tabulated context under `genome`, in layer order
    /// (`None` for a choice that cannot run its layer), or `None` when
    /// the genome has the wrong length or an out-of-range choice.
    fn contexts<'a>(
        &'a self,
        genome: &'a [usize],
    ) -> Option<impl Iterator<Item = Option<&'a Context>> + 'a> {
        if genome.len() != self.dims()
            || genome.iter().enumerate().any(|(d, &g)| g >= self.cardinality(d))
        {
            return None;
        }
        let allocs = self.alloc_choices.len();
        let mut slots = genome.chunks_exact(2);
        Some(self.table.iter().map(move |row| match row {
            LayerContexts::Fixed(context) => context.as_ref(),
            LayerContexts::Chosen(row) => {
                let slot = slots.next().expect("one genome slot per eligible layer");
                row[slot[0] * allocs + slot[1]].as_ref()
            }
        }))
    }

    /// Decodes a genome into per-layer engine configurations (including
    /// spatial-fallback layers). Returns `None` when any layer's engine
    /// is invalid or empty.
    pub fn layer_designs(&self, genome: &[usize]) -> Option<Vec<LayerDesign>> {
        self.contexts(genome)?
            .zip(self.workload.layers())
            .map(|(context, layer)| {
                context.map(|c| LayerDesign {
                    layer: layer.name.clone(),
                    algo: c.algo,
                    pe_count: c.pe_count,
                    latency_ms: c.latency_ms,
                })
            })
            .collect()
    }
}

fn max_usage(a: ResourceUsage, b: ResourceUsage) -> ResourceUsage {
    ResourceUsage {
        luts: a.luts.max(b.luts),
        registers: a.registers.max(b.registers),
        dsps: a.dsps.max(b.dsps),
        multipliers: a.multipliers.max(b.multipliers),
    }
}

impl SearchSpace for HeterogeneousSpace {
    fn dims(&self) -> usize {
        2 * self.eligible
    }

    fn cardinality(&self, dim: usize) -> usize {
        if dim.is_multiple_of(2) {
            self.m_choices.len() + self.fft_choices.len()
        } else {
            self.alloc_choices.len()
        }
    }

    fn evaluate(&self, genome: &[usize]) -> Evaluation {
        let Some(contexts) = self.contexts(genome) else {
            return Evaluation::infeasible();
        };
        let mut total_s = 0.0f64;
        let mut energy = 0.0f64;
        let mut fabric = ResourceUsage::default();
        for context in contexts {
            let Some(context) = context else {
                return Evaluation::infeasible();
            };
            let latency_s = context.latency_ms / 1e3;
            total_s += latency_s;
            energy += latency_s * context.power_w;
            fabric = max_usage(fabric, context.usage);
        }
        if total_s <= 0.0 {
            return Evaluation::infeasible();
        }
        let throughput = self.workload.spatial_ops() as f64 / total_s / 1e9;
        let power_w = energy / total_s;
        Evaluation {
            throughput_gops: throughput,
            power_efficiency: throughput / power_w,
            latency_ms: total_s * 1e3,
            power_w,
            headroom: resource_headroom(&fabric, &self.device),
            // The analytical models assume the paper's exact f32 datapath.
            quant_error: 0.0,
            resources: fabric,
            feasible: fabric.fits(&self.device),
        }
    }

    fn describe(&self, genome: &[usize]) -> String {
        match self.layer_designs(genome) {
            Some(designs) => designs
                .iter()
                .map(|d| format!("{}:{}x{}", d.layer, d.algo, d.pe_count))
                .collect::<Vec<_>>()
                .join(" "),
            None => format!("invalid genome {genome:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        compare_strategies, EvalCache, Exhaustive, Genetic, Greedy, ParetoArchive, SearchObjective,
        SimulatedAnnealing, Strategy,
    };
    use wino_dse::Objective;
    use wino_fpga::virtex7_485t;
    use wino_models::{model_zoo, tiny_cnn, vgg16d};

    fn evaluator() -> Evaluator {
        Evaluator::new(vgg16d(1), virtex7_485t())
    }

    #[test]
    fn homogeneous_space_matches_sweep_m() {
        let space = HomogeneousSpace::new(&evaluator(), vec![2, 3, 4], 3, 700, 200e6);
        assert_eq!(space.dims(), 1);
        assert_eq!(space.size(), 3);
        let by_space: Vec<f64> = (0..3).map(|i| space.evaluate(&[i]).throughput_gops).collect();
        let sweep = wino_dse::sweep_m(space.evaluator(), &[2, 3, 4], 3, 700, 200e6);
        for (ours, (_, theirs)) in by_space.iter().zip(&sweep) {
            assert!((ours - theirs.throughput_gops).abs() < 1e-9);
        }
        assert!(space.describe(&[2]).contains("F(4x4, 3x3)"));
    }

    #[test]
    fn homogeneous_headroom_and_feasibility() {
        let space = HomogeneousSpace::new(&evaluator(), vec![4, 8], 3, 700, 200e6);
        let m4 = space.evaluate(&[0]);
        assert!(m4.feasible);
        assert!(m4.headroom > 0.0);
        // F(8x8,3x3): 100 mults/PE, 7 PEs, transform LUTs explode.
        let m8 = space.evaluate(&[1]);
        assert!(!m8.feasible);
        assert!(m8.headroom < 0.0);
        // F(15x15, 3x3) is out of range, and 20 multipliers pack no
        // F(4x4, 3x3) PE: both choices, and genomes outside the space,
        // evaluate infeasible.
        let space = HomogeneousSpace::new(&evaluator(), vec![15, 4], 3, 20, 200e6);
        assert!(space.design_point(&[0]).is_none());
        assert!(space.describe(&[0]).starts_with("invalid genome"));
        assert_eq!(space.design_point(&[1]).map(|p| p.pe_count), Some(0));
        for genome in [&[0][..], &[1], &[2], &[], &[1, 1]] {
            assert_eq!(space.evaluate(genome), Evaluation::infeasible(), "{genome:?}");
        }
    }

    #[test]
    fn heterogeneous_uniform_m4_reproduces_paper_design() {
        let ev = evaluator();
        let space = HeterogeneousSpace::new(&ev, vec![2, 3, 4], vec![1.0], 700, 200e6);
        assert_eq!(space.dims(), 26, "13 eligible layers, two dims each");
        let genome = space.uniform_genome(2, 0);
        let eval = space.evaluate(&genome);
        // Same model as the paper's m=4 homogeneous design: 28.05 ms,
        // 1094.3 GOPS (Table II).
        assert!((eval.latency_ms - 28.05).abs() < 0.05, "got {}", eval.latency_ms);
        assert!((eval.throughput_gops - 1094.3).abs() < 2.0, "got {}", eval.throughput_gops);
        assert!(eval.feasible);
        // Fabric is exactly the paper's 19-PE engine.
        assert_eq!(eval.resources.multipliers, 684);
    }

    #[test]
    fn heterogeneous_fabric_is_max_over_contexts() {
        let ev = evaluator();
        let space = HeterogeneousSpace::new(&ev, vec![2, 4], vec![0.5, 1.0], 700, 200e6);
        // All m=2 at half allocation: fabric must be the m=2 engine at
        // pe_count(350, F(2)) = 21 PEs.
        let genome = space.uniform_genome(0, 0);
        let eval = space.evaluate(&genome);
        assert_eq!(eval.resources.multipliers, 21 * 16);
        assert!(eval.feasible);
        // Mixing in a full-allocation m=4 layer raises fabric to the
        // element-wise max of both contexts.
        let mut mixed = genome.clone();
        mixed[0] = 1; // layer 0 tile choice -> m = 4
        mixed[1] = 1; // layer 0 allocation -> 1.0
        let mixed_eval = space.evaluate(&mixed);
        assert!(mixed_eval.resources.luts >= eval.resources.luts);
        assert_eq!(mixed_eval.resources.multipliers, 19 * 36);
    }

    #[test]
    fn heterogeneous_invalid_and_empty_engines_are_infeasible() {
        let ev = evaluator();
        // m = 15 with r = 3 exceeds m + r - 1 <= 16.
        let space = HeterogeneousSpace::new(&ev, vec![15], vec![1.0], 700, 200e6);
        let genome = space.uniform_genome(0, 0);
        assert!(!space.evaluate(&genome).feasible);
        // A budget too small for even one PE is infeasible.
        let tiny = HeterogeneousSpace::new(&ev, vec![4], vec![1.0], 20, 200e6);
        assert!(!tiny.evaluate(&tiny.uniform_genome(0, 0)).feasible);
    }

    #[test]
    fn genome_indexing_is_mixed_radix() {
        let ev = evaluator();
        let space = HeterogeneousSpace::new(&ev, vec![2, 3, 4], vec![0.5, 1.0], 700, 200e6);
        assert_eq!(space.size(), 6u128.pow(13));
        let g = space.genome_at(0);
        assert_eq!(g, vec![0; 26]);
        let g1 = space.genome_at(1);
        assert_eq!(g1[0], 1);
        assert!(g1[1..].iter().all(|&x| x == 0));
        let mut rng = SplitMix64::new(7);
        let r = space.random_genome(&mut rng);
        assert_eq!(r.len(), 26);
        for (d, &v) in r.iter().enumerate() {
            assert!(v < space.cardinality(d));
        }
    }

    #[test]
    fn fft_sizes_widen_the_algorithm_dimension_without_moving_m_indices() {
        let ev = evaluator();
        let space = HeterogeneousSpace::new(&ev, vec![2, 3, 4], vec![1.0], 700, 200e6)
            .with_fft_sizes(vec![16, 32]);
        assert_eq!(space.dims(), 26, "FFT widens cardinality, not dimensionality");
        assert_eq!(space.cardinality(0), 5, "3 tile sizes + 2 FFT sizes");
        assert_eq!(space.cardinality(1), 1, "allocation dimension untouched");
        // The Winograd-only genome decodes exactly as before.
        let genome = space.uniform_genome(2, 0);
        let designs = space.layer_designs(&genome).unwrap();
        assert!(designs
            .iter()
            .all(|d| matches!(d.algo, AlgorithmChoice::Winograd(p) if p.m() == 4)));
        // Index 3 = FFT(16) everywhere: decodes, runs, and describes.
        let fft_genome: Genome =
            (0..space.dims()).map(|d| if d % 2 == 0 { 3 } else { 0 }).collect();
        let designs = space.layer_designs(&fft_genome).unwrap();
        assert!(designs
            .iter()
            .filter(|d| d.algo != AlgorithmChoice::Spatial)
            .all(|d| d.algo == AlgorithmChoice::Fft { n: 16 }));
        assert!(space.describe(&fft_genome).contains("FFT(16)"));
        let eval = space.evaluate(&fft_genome);
        assert!(eval.latency_ms > 0.0);
    }

    #[test]
    fn fft_wins_the_large_kernel_layer() {
        // The acceptance scenario: a large-kernel stride-1 layer where
        // the search should prefer FFT(32) over every Winograd tile.
        let mut wl = wino_core::Workload::new("large-kernel", 1);
        wl.push(
            "conv_big",
            "G",
            wino_core::ConvShape { h: 64, w: 64, c: 24, k: 24, r: 11, stride: 1, pad: 5 },
        );
        let ev = Evaluator::new(wl, virtex7_485t());
        let space = HeterogeneousSpace::new(&ev, vec![1, 2], vec![1.0], 700, 200e6)
            .with_fft_sizes(vec![16, 32]);
        assert_eq!(space.dims(), 2);
        let latency_of = |algo_idx: usize| {
            let designs = space.layer_designs(&[algo_idx, 0]).unwrap();
            designs[0].latency_ms
        };
        let spatial = latency_of(0);
        let wino = latency_of(1);
        let fft32 = latency_of(3);
        assert!(
            fft32 < wino && fft32 < spatial,
            "FFT(32) {fft32} vs F(2,11) {wino} / spatial {spatial}"
        );
        // And exhaustive search over the space lands on an FFT design.
        let best = (0..space.size())
            .map(|i| space.genome_at(i))
            .filter(|g| space.evaluate(g).feasible)
            .min_by(|a, b| space.evaluate(a).latency_ms.total_cmp(&space.evaluate(b).latency_ms))
            .unwrap();
        let designs = space.layer_designs(&best).unwrap();
        assert!(matches!(designs[0].algo, AlgorithmChoice::Fft { .. }), "{:?}", designs[0].algo);
    }

    #[test]
    fn fft_below_kernel_size_is_infeasible() {
        let mut wl = wino_core::Workload::new("large-kernel", 1);
        wl.push(
            "conv_big",
            "G",
            wino_core::ConvShape { h: 64, w: 64, c: 8, k: 8, r: 11, stride: 1, pad: 5 },
        );
        let ev = Evaluator::new(wl, virtex7_485t());
        let space =
            HeterogeneousSpace::new(&ev, vec![1], vec![1.0], 700, 200e6).with_fft_sizes(vec![8]);
        // Choice index 1 = FFT(8), but r = 11 > 8.
        assert!(space.layer_designs(&[1, 0]).is_none());
        assert!(!space.evaluate(&[1, 0]).feasible);
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn non_power_of_two_fft_size_panics() {
        let ev = evaluator();
        let _ =
            HeterogeneousSpace::new(&ev, vec![2], vec![1.0], 700, 200e6).with_fft_sizes(vec![12]);
    }

    #[test]
    fn power_efficiency_favors_smaller_context_than_throughput() {
        // Sanity: on the homogeneous space the m=2 design has the best
        // power efficiency, m=4 the best throughput (Table II), and the
        // same ordering is visible through the space API.
        let space = HomogeneousSpace::new(&evaluator(), vec![2, 3, 4], 3, 700, 200e6);
        let evals: Vec<Evaluation> = (0..3).map(|i| space.evaluate(&[i])).collect();
        let best_thr =
            (0..3).max_by(|&a, &b| evals[a].throughput_gops.total_cmp(&evals[b].throughput_gops));
        let best_eff =
            (0..3).max_by(|&a, &b| evals[a].power_efficiency.total_cmp(&evals[b].power_efficiency));
        assert_eq!(best_thr, Some(2));
        assert_eq!(best_eff, Some(0));
        // Matches the seed's best_design on the same objectives.
        let ev = evaluator();
        let (p, _) = wino_dse::best_design(&ev, &[2, 3, 4], 3, 700, 200e6, Objective::Throughput)
            .expect("fits");
        assert_eq!(p.params.m(), 4);
    }

    /// The benchmark's space over `workload`: four tile sizes, four
    /// allocations, three FFT sizes.
    fn benchmark_space(workload: Workload) -> HeterogeneousSpace {
        let ev = Evaluator::new(workload, virtex7_485t());
        HeterogeneousSpace::new(&ev, vec![2, 3, 4, 6], vec![0.25, 0.5, 0.75, 1.0], 700, 200e6)
            .with_fft_sizes(vec![8, 16, 32])
    }

    /// Evaluation without the table: decode every layer from the cost
    /// models, estimate its context and sum in layer order. The
    /// tabulated [`SearchSpace::evaluate`] must equal it bit for bit.
    fn reference_evaluate(
        space: &HeterogeneousSpace,
        engines: &mut Engines,
        genome: &[usize],
    ) -> Evaluation {
        if genome.len() != space.dims()
            || genome.iter().enumerate().any(|(d, &g)| g >= space.cardinality(d))
        {
            return Evaluation::infeasible();
        }
        let batch = space.workload.batch();
        let mut slots = genome.chunks_exact(2);
        let mut designs: Vec<(f64, ResourceUsage)> = Vec::new();
        for layer in space.workload.layers() {
            let shape = &layer.shape;
            // (algorithm index, budget); `None` is the spatial fallback.
            let (idx, budget) = if shape.winograd_compatible() {
                let slot = slots.next().expect("slot per eligible layer");
                let frac = space.alloc_choices[slot[1]];
                (Some(slot[0]), (space.mult_budget as f64 * frac) as usize)
            } else {
                (None, space.mult_budget)
            };
            let m = idx.map_or(Some(1), |i| space.m_choices.get(i).copied());
            let decoded = match m {
                Some(m) => WinogradParams::new(m, shape.r).ok().and_then(|params| {
                    let engine = engines
                        .entry((m, shape.r))
                        .or_insert_with(|| EngineResources::new(params).ok())
                        .as_ref()?;
                    let pe = pe_count(budget, params);
                    (pe > 0).then(|| {
                        let latency_s = latency_seconds(
                            batch,
                            shape,
                            params,
                            pe as f64,
                            space.pipeline_depth,
                            space.freq_hz,
                            space.tiles,
                        );
                        (latency_s, engine.estimate(Architecture::SharedTransform, pe))
                    })
                }),
                None => {
                    let n = space.fft_choices
                        [idx.expect("FFT choices are genome slots") - space.m_choices.len()];
                    let pe = budget / 4;
                    (n >= shape.r && pe > 0).then(|| {
                        let multipliers = pe * 4;
                        let latency_s = fft_context_latency_seconds(
                            batch,
                            shape,
                            n,
                            multipliers as f64,
                            space.pipeline_depth,
                            space.freq_hz,
                        );
                        (latency_s, fft_engine(n, multipliers as u64))
                    })
                }
            };
            let Some((latency_s, usage)) = decoded else {
                return Evaluation::infeasible();
            };
            designs.push((latency_s * 1e3, usage));
        }
        let mut total_s = 0.0f64;
        let mut energy = 0.0f64;
        let mut fabric = ResourceUsage::default();
        for (latency_ms, usage) in designs {
            let latency_s = latency_ms / 1e3;
            total_s += latency_s;
            energy += latency_s * space.power.power_w(&usage, space.freq_hz);
            fabric = max_usage(fabric, usage);
        }
        if total_s <= 0.0 {
            return Evaluation::infeasible();
        }
        let throughput = space.workload.spatial_ops() as f64 / total_s / 1e9;
        let power_w = energy / total_s;
        Evaluation {
            throughput_gops: throughput,
            power_efficiency: throughput / power_w,
            latency_ms: total_s * 1e3,
            power_w,
            headroom: resource_headroom(&fabric, &space.device),
            quant_error: 0.0,
            resources: fabric,
            feasible: fabric.fits(&space.device),
        }
    }

    /// Every field of an evaluation as bits, so equality is bitwise.
    fn bits(e: &Evaluation) -> ([u64; 6], ResourceUsage, bool) {
        let floats = [
            e.throughput_gops,
            e.power_efficiency,
            e.latency_ms,
            e.power_w,
            e.headroom,
            e.quant_error,
        ];
        (floats.map(f64::to_bits), e.resources, e.feasible)
    }

    /// Asserts tabulated and reference evaluation agree bitwise on
    /// `genomes` random genomes plus wrong-length and out-of-range ones.
    fn assert_table_matches_reference(space: &HeterogeneousSpace, genomes: usize, seed: u64) {
        let mut engines = Engines::new();
        let mut rng = SplitMix64::new(seed);
        let mut feasible = 0usize;
        for _ in 0..genomes {
            let genome = space.random_genome(&mut rng);
            let tabulated = space.evaluate(&genome);
            let reference = reference_evaluate(space, &mut engines, &genome);
            assert_eq!(bits(&tabulated), bits(&reference), "{}: {genome:?}", space.workload.name());
            feasible += usize::from(tabulated.feasible);
            // The same genome one too long, one too short, and with one
            // dimension pushed out of range: all infeasible.
            let mut longer = genome.clone();
            longer.push(0);
            let shorter = &genome[..genome.len() - 1];
            for bad in [&longer[..], shorter] {
                assert!(!space.evaluate(bad).feasible);
                assert!(space.layer_designs(bad).is_none());
            }
            let dim = rng.below(space.dims() as u64) as usize;
            let mut out_of_range = genome;
            out_of_range[dim] = space.cardinality(dim);
            assert_eq!(bits(&space.evaluate(&out_of_range)), bits(&Evaluation::infeasible()));
        }
        assert!(feasible > 0, "{}: no feasible genome drawn", space.workload.name());
    }

    #[test]
    fn tabulated_evaluation_is_bitwise_the_decode_and_sum() {
        for (i, workload) in model_zoo(1).into_iter().enumerate() {
            assert_table_matches_reference(&benchmark_space(workload), 20_000, i as u64);
        }
    }

    #[test]
    fn tabulated_evaluation_covers_every_invalid_context() {
        // A stride-1 11x11 layer (m = 15 is an out-of-range transform,
        // FFT(8) is below the kernel, F(6, 11) packs no PE at a quarter
        // of 300 multipliers), a strided one (the fixed fallback), and a
        // 3x3 one. The pipeline depth override rebuilds the table.
        let mut wl = Workload::new("invalid-contexts", 1);
        let shape = wino_core::ConvShape { h: 32, w: 32, c: 16, k: 16, r: 11, stride: 1, pad: 5 };
        wl.push("big", "G", shape);
        wl.push("strided", "G", wino_core::ConvShape { stride: 2, ..shape });
        wl.push("small", "G", wino_core::ConvShape { r: 3, pad: 1, ..shape });
        let ev = Evaluator::new(wl, virtex7_485t());
        let space = HeterogeneousSpace::new(&ev, vec![1, 2, 6, 15], vec![0.25, 1.0], 300, 200e6)
            .with_fft_sizes(vec![8, 16, 32])
            .with_pipeline_depth(5);
        // Algorithm indices: m = 1, 2, 6, 15, then FFT(8, 16, 32);
        // allocation 0 is a quarter of the budget, 1 the full budget.
        let LayerContexts::Chosen(big) = &space.table[0] else { panic!("big is eligible") };
        let valid = |algo: usize, alloc: usize| big[algo * 2 + alloc].is_some();
        assert!(!valid(3, 0) && !valid(3, 1), "F(15, 11) is out of range");
        assert!(!valid(4, 0) && !valid(4, 1), "FFT(8) is below an 11x11 kernel");
        assert!(!valid(2, 0) && valid(2, 1), "F(6, 11) packs a PE only at full budget");
        assert!(valid(5, 0) && valid(6, 1));
        assert!(matches!(space.table[1], LayerContexts::Fixed(Some(_))));
        assert_table_matches_reference(&space, 2_000, 9);
    }

    /// The exact optimum of a separable objective: `fits` is a
    /// per-resource bound and the fabric a per-resource max, so a design
    /// fits iff every layer's context does, and throughput and latency
    /// (Σ latency) and power efficiency (Σ latency × power) are
    /// optimized by each layer's own argmin over its fitting contexts.
    fn exact_optimum(space: &HeterogeneousSpace, objective: SearchObjective) -> Genome {
        let cost = |c: &Context| {
            let latency_s = c.latency_ms / 1e3;
            match objective {
                SearchObjective::Throughput | SearchObjective::Latency => latency_s,
                SearchObjective::PowerEfficiency => latency_s * c.power_w,
                other => panic!("{other} does not separate over layers"),
            }
        };
        let fitting = |c: &Option<Context>| c.filter(|c| c.usage.fits(&space.device));
        let allocs = space.alloc_choices.len();
        let mut genome = Genome::new();
        for row in &space.table {
            match row {
                LayerContexts::Fixed(c) => assert!(fitting(c).is_some(), "fallback cannot fit"),
                LayerContexts::Chosen(row) => {
                    let (best, _) = row
                        .iter()
                        .enumerate()
                        .filter_map(|(i, c)| fitting(c).map(|c| (i, cost(&c))))
                        .min_by(|a, b| a.1.total_cmp(&b.1))
                        .expect("some context fits");
                    genome.extend([best / allocs, best % allocs]);
                }
            }
        }
        genome
    }

    const SEPARABLE: [SearchObjective; 3] =
        [SearchObjective::Throughput, SearchObjective::Latency, SearchObjective::PowerEfficiency];

    /// `score` does not beat `optimum` by more than 1e-12 relative.
    fn within_optimum(score: f64, optimum: f64) -> bool {
        score <= optimum + 1e-12 * optimum.abs()
    }

    #[test]
    fn exhaustive_reaches_the_exact_optimum_on_tiny_cnn() {
        let space = benchmark_space(tiny_cnn(1));
        for objective in SEPARABLE {
            let optimum = objective.score(&space.evaluate(&exact_optimum(&space, objective)));
            assert!(optimum.is_finite(), "{objective}: the exact optimum is infeasible");
            let outcome = Exhaustive { threads: 2 }.search(
                &space,
                &EvalCache::new(),
                objective,
                &mut ParetoArchive::new(),
            );
            let found = outcome.best_score(objective);
            assert!(
                within_optimum(found, optimum) && within_optimum(optimum, found),
                "{objective}: exhaustive {found} vs exact {optimum}"
            );
        }
    }

    #[test]
    fn metaheuristics_never_beat_the_exact_optimum() {
        let greedy = Greedy { seed: 3, restarts: 2, max_evaluations: 1_500 };
        let annealing = SimulatedAnnealing { seed: 4, iterations: 1_500, ..Default::default() };
        let genetic = Genetic { seed: 5, population: 16, generations: 20, ..Default::default() };
        let strategies: [&dyn Strategy; 3] = [&greedy, &annealing, &genetic];
        for workload in model_zoo(1) {
            let space = benchmark_space(workload);
            for objective in SEPARABLE {
                let optimum = objective.score(&space.evaluate(&exact_optimum(&space, objective)));
                let (outcomes, _) = compare_strategies(&space, &strategies, objective);
                for outcome in outcomes {
                    let score = outcome.best_score(objective);
                    assert!(
                        within_optimum(score, optimum),
                        "{} beat the exact {objective} optimum on {}: {score} > {optimum}",
                        outcome.strategy,
                        space.workload.name()
                    );
                }
            }
        }
    }
}
