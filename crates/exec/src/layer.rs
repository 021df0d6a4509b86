//! The Winograd execution engine ([`PreparedWinograd`]), the execution
//! configuration, and the deterministic chunk scheduler every engine
//! fans its work items over.
//!
//! ## Parallel decomposition
//!
//! The Winograd path runs as a three-phase pipeline over *tile panels*
//! (contiguous groups of [`PANEL_TILES`](crate::gemm::PANEL_TILES)
//! tiles in global `(image, tile-row, tile-col)` order):
//!
//! 1. **Pack** — one work item per panel: gather and transform every
//!    input tile of the panel, scattering the results into a
//!    coordinate-major `U` panel (`u[e][c][tile]`, contiguous per
//!    coordinate) — the packed right-hand side of the multiply.
//! 2. **Multiply** — one work item per `(coordinate, panel)` pair, in
//!    coordinate-major order: the transform-domain product
//!    `M_e = V_e · U_e` runs through the packed, register-tiled,
//!    `KC`-blocked GEMM micro-kernel of [`crate::gemm`] against the
//!    kernel bank that [`PreparedWinograd::new`] packed once. Items are
//!    chunked coordinate-major across threads, so one thread sweeps
//!    tile panels of a coordinate before moving to the next — the
//!    two-level (coordinate × panel) decomposition that scales past
//!    one core without splitting any accumulation.
//! 3. **Inverse** — one work item per `(image, tile-row)` pair: read
//!    the row's products as contiguous per-coordinate runs of the GEMM
//!    outputs, inverse-transform the whole row structure-of-arrays (one
//!    vector operation per transform term), and emit the finished
//!    output rows.
//!
//! The spatial path ([`PreparedSpatial`](crate::PreparedSpatial)) runs
//! on the same GEMM: one
//! item per panel of `PANEL_TILES` output positions (global
//! `(image, y, x)` order) gathers that panel's im2col matrix and
//! multiplies it against the kernel bank packed once at preparation.
//!
//! Items are distributed over `std::thread::scope` workers in fixed
//! contiguous chunks (no work stealing), every item is computed
//! entirely independently, and every output element accumulates its
//! channels in one fixed order inside a single GEMM item — so the
//! output is **bitwise identical for any thread count**, a property
//! the tests pin.

use crate::gemm::{gemm_packed_a, pack_a, MR, PANEL_TILES};
use std::any::TypeId;
use wino_core::{TransformError, TransformSet, WinogradParams};
use wino_obs::Span;
use wino_tensor::{Scalar, Shape4, Tensor2, Tensor4};

/// Execution-engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Worker threads to fan layer execution across (min 1).
    pub threads: usize,
}

impl Default for ExecConfig {
    /// One worker per available hardware thread.
    fn default() -> ExecConfig {
        ExecConfig { threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) }
    }
}

impl ExecConfig {
    /// A configuration with exactly `threads` workers (clamped to ≥ 1).
    pub fn with_threads(threads: usize) -> ExecConfig {
        ExecConfig { threads: threads.max(1) }
    }
}

/// Runs `items.len()` independent jobs across `threads` scoped workers
/// in deterministic contiguous chunks, returning results in item order.
/// The caller's enclosing phase span times the whole fan-out.
pub(crate) fn run_chunked<T: Send, F: Fn(usize) -> T + Sync>(
    total: usize,
    threads: usize,
    job: F,
) -> Vec<T> {
    let threads = threads.clamp(1, total.max(1));
    if threads == 1 {
        return (0..total).map(job).collect();
    }
    let chunk = total.div_ceil(threads);
    let mut out: Vec<Option<T>> = (0..total).map(|_| None).collect();
    std::thread::scope(|scope| {
        let job = &job;
        let mut handles = Vec::new();
        for t in 0..threads {
            let lo = t * chunk;
            let hi = ((t + 1) * chunk).min(total);
            if lo >= hi {
                break;
            }
            handles.push((lo, scope.spawn(move || (lo..hi).map(job).collect::<Vec<T>>())));
        }
        for (lo, handle) in handles {
            for (offset, value) in
                handle.join().expect("exec worker panicked").into_iter().enumerate()
            {
                out[lo + offset] = Some(value);
            }
        }
    });
    out.into_iter().map(|v| v.expect("every item computed")).collect()
}

/// `Y = M · X · Mᵀ` for a batch of square blocks stored
/// structure-of-arrays: `x(a·q + b)` is the run of `X[a][b]` across the
/// batch's `y.len()` lanes (`M` is `p × q`, `X` is `q × q`), and
/// `emit(i, j, lanes)` receives `Y[i][j]` for `i < rows`, `j < p`.
///
/// The term order is exactly that of the per-block transforms in
/// `wino_core` (`RealTransforms::apply_kernel` / `apply_inverse`):
/// `tmp[i][b] = Σ M[i][a] · X[a][b]` over the nonzero `M[i][a]` in
/// increasing `a`, then `Y[i][j] = Σ tmp[i][b] · M[j][b]` over every
/// `b`, each sum starting from zero. Every lane therefore gets the
/// per-block form's bits, in `f32` and in saturating `Fixed`, while each
/// term runs as one vector operation across the lanes. `tmp` must hold
/// `rows · q · y.len()` elements.
fn sandwich_lanes<'x, T: Scalar>(
    mat: &Tensor2<T>,
    rows: usize,
    x: impl Fn(usize) -> &'x [T],
    tmp: &mut [T],
    y: &mut [T],
    mut emit: impl FnMut(usize, usize, &[T]),
) {
    let (q, len) = (mat.cols(), y.len());
    for i in 0..rows {
        for b in 0..q {
            let dst = &mut tmp[(i * q + b) * len..][..len];
            dst.fill(T::zero());
            for (a, &coef) in mat.row(i).iter().enumerate() {
                if coef == T::zero() {
                    continue;
                }
                for (o, &v) in dst.iter_mut().zip(x(a * q + b)) {
                    *o += coef * v;
                }
            }
        }
    }
    for i in 0..rows {
        for j in 0..mat.rows() {
            y.fill(T::zero());
            for (b, &coef) in mat.row(j).iter().enumerate() {
                for (o, &v) in y.iter_mut().zip(&tmp[(i * q + b) * len..][..len]) {
                    *o += v * coef;
                }
            }
            emit(i, j, y);
        }
    }
}

/// Shared, read-only state of one Winograd layer execution, generic
/// over the datapath scalar (`f32` for the paper's precision, `Fixed`
/// for the quantization study — every arithmetic op below goes through
/// the [`Scalar`] trait, so a fixed-point instantiation saturates
/// exactly where a DSP block would).
struct WinoCtx<'a, T: Scalar> {
    real: &'a wino_core::RealTransforms<T>,
    input: &'a [T],
    in_shape: Shape4,
    /// Transform-domain kernel bank, coordinate-major and pre-packed
    /// into `MR`-row GEMM micro-panels: slab `e` (of `v_slab` elements)
    /// is `pack_a` of `V_e[k][c]`.
    v_pack: &'a [T],
    /// Length of one packed per-coordinate slab.
    v_slab: usize,
    /// Flattened per-coordinate data-transform terms (see
    /// [`PreparedWinograd`]).
    data_terms: &'a [Vec<(T, usize)>],
    k: usize,
    c: usize,
    m: usize,
    n2: usize,
    pad: isize,
    out_h: usize,
    out_w: usize,
    tiles_x: usize,
    tiles_y: usize,
    /// Tiles across the whole batch: `N · tiles_y · tiles_x`.
    total_tiles: usize,
}

impl<T: Scalar> WinoCtx<'_, T> {
    /// Tiles in panel `p` (the last panel may be ragged).
    fn panel_len(&self, p: usize) -> usize {
        PANEL_TILES.min(self.total_tiles - p * PANEL_TILES)
    }

    /// Phase 1 — one item per tile panel: gathers and data-transforms
    /// every tile of panel `p` into a packed coordinate-major `U`
    /// panel, `u[(e·C + c)·np + tp]` with `tp` the within-panel tile
    /// index — each coordinate's `C × np` slice is exactly the `B`
    /// operand of one GEMM.
    ///
    /// Tiles are gathered structure-of-arrays (`dg[a·n + b][tp]`), so
    /// the flattened data transform runs as a handful of
    /// coefficient-times-row vector operations across the whole panel
    /// instead of one scalar matrix sandwich per tile.
    fn pack_panel(&self, p: usize) -> Vec<T> {
        let (m, n2, c_in) = (self.m, self.n2, self.c);
        let n = self.real.params().input_tile();
        let np = self.panel_len(p);
        let plane_stride = self.in_shape.h * self.in_shape.w;
        let tiles_per_image = self.tiles_y * self.tiles_x;

        // Global tile index -> (image, top-row, left-col) of its input
        // window, hoisted out of the channel loop.
        let coords: Vec<(usize, isize, isize)> = (0..np)
            .map(|tp| {
                let t = p * PANEL_TILES + tp;
                let (img, rem) = (t / tiles_per_image, t % tiles_per_image);
                let (ty, tx) = (rem / self.tiles_x, rem % self.tiles_x);
                (img, (ty * m) as isize - self.pad, (tx * m) as isize - self.pad)
            })
            .collect();

        let (in_h, in_w) = (self.in_shape.h, self.in_shape.w);
        // Tile windows of the panel, structure-of-arrays: dg[ab][tp].
        let mut dg = vec![T::zero(); n2 * np];
        let mut panel = vec![T::zero(); n2 * c_in * np];
        for c in 0..c_in {
            for (tp, &(img, top, left)) in coords.iter().enumerate() {
                let plane = &self.input[(img * c_in + c) * plane_stride..][..plane_stride];
                if top >= 0 && left >= 0 && top as usize + n <= in_h && left as usize + n <= in_w {
                    // Interior tile (the common case): n contiguous
                    // source rows, no per-element bounds logic.
                    let (t0, l0) = (top as usize, left as usize);
                    for r in 0..n {
                        let src = &plane[(t0 + r) * in_w + l0..][..n];
                        for (col, &v) in src.iter().enumerate() {
                            dg[(n * r + col) * np + tp] = v;
                        }
                    }
                } else {
                    for r in 0..n {
                        let rr = top + r as isize;
                        let row_ok = rr >= 0 && (rr as usize) < in_h;
                        for col in 0..n {
                            let cc = left + col as isize;
                            dg[(n * r + col) * np + tp] =
                                if row_ok && cc >= 0 && (cc as usize) < in_w {
                                    plane[rr as usize * in_w + cc as usize]
                                } else {
                                    T::zero()
                                };
                        }
                    }
                }
            }
            // Flattened transform, vectorized across the panel: for
            // each coordinate, a fixed-order sparse sum of scaled
            // window rows. Every tile sees the identical term order,
            // so the result does not depend on panel or thread counts.
            for (e, terms) in self.data_terms.iter().enumerate() {
                let dst = &mut panel[(e * c_in + c) * np..(e * c_in + c) * np + np];
                for &(coef, ab) in terms {
                    let src = &dg[ab * np..ab * np + np];
                    for (o, &s) in dst.iter_mut().zip(src) {
                        *o += coef * s;
                    }
                }
            }
        }
        panel
    }

    /// Phase 2 — one item per `(coordinate, panel)` pair: the
    /// transform-domain multiply `M_e[k][tp] = Σ_c V_e[k][c] · U_e[c][tp]`
    /// for panel `p`, run through the packed GEMM micro-kernel against
    /// the pre-packed kernel slab. Channels accumulate in fixed
    /// increasing order inside the kernel, so the result is bitwise
    /// identical to the naive multiply at any thread or panel count.
    fn multiply(&self, e: usize, u_panel: &[T], p: usize) -> Vec<T> {
        let np = self.panel_len(p);
        let mut m_e = vec![T::zero(); self.k * np];
        let v_e = &self.v_pack[e * self.v_slab..(e + 1) * self.v_slab];
        let u_e = &u_panel[e * self.c * np..(e + 1) * self.c * np];
        gemm_packed_a(self.k, np, self.c, v_e, u_e, np, &mut m_e, np);
        m_e
    }

    /// Phase 3 — one item per `(image, tile-row)` pair: inverse-transforms
    /// every tile of the row and returns the finished output rows as a
    /// flat `K × rows_here × out_w` buffer.
    ///
    /// The row's tiles are read structure-of-arrays, as the contiguous
    /// runs `M_e[k][tp..tp + len]` of the per-`(e, panel)` GEMM outputs
    /// (one run per panel the row touches), and `Y = Aᵀ M A` runs across
    /// each run through [`sandwich_lanes`] — bitwise
    /// `RealTransforms::apply_inverse` per tile. In `f32`, a run shorter
    /// than half a panel is copied out for several kernels at once, so a
    /// narrow layer still transforms up to [`PANEL_TILES`] lanes per pass.
    /// Output rows past the layer's ragged bottom edge are never
    /// computed.
    fn inverse_item(&self, img: usize, ty: usize, m_chunks: &[Vec<T>]) -> Vec<T> {
        let (m, k_out, out_w) = (self.m, self.k, self.out_w);
        let n = self.real.params().input_tile();
        let panels = self.total_tiles.div_ceil(PANEL_TILES);
        let rows_here = m.min(self.out_h - ty * m);
        let row_base = (img * self.tiles_y + ty) * self.tiles_x;

        let mut local = vec![T::zero(); k_out * rows_here * out_w];
        let mut tmp = vec![T::zero(); rows_here * n * PANEL_TILES];
        let mut y = [T::zero(); PANEL_TILES];
        let mut gathered = Vec::new();
        let mut tx0 = 0;
        while tx0 < self.tiles_x {
            let t = row_base + tx0;
            let (p, tp) = (t / PANEL_TILES, t % PANEL_TILES);
            let len = (PANEL_TILES - tp).min(self.tiles_x - tx0);
            let np = self.panel_len(p);
            let run = |e: usize, k: usize| &m_chunks[e * panels + p][k * np + tp..][..len];
            // Lane kk·len + tx of a pass is tile tx0 + tx of kernel k0 + kk.
            // Only f32 batches kernels: saturating `Fixed` arithmetic runs
            // slower vectorized than scalar on the SSE2 baseline, so it
            // keeps one kernel per pass and short rows stay scalar.
            let kb = if TypeId::of::<T>() == TypeId::of::<f32>() {
                (PANEL_TILES / len).max(1)
            } else {
                1
            };
            for k0 in (0..k_out).step_by(kb) {
                let kn = kb.min(k_out - k0);
                let lanes = kn * len;
                if kn > 1 {
                    gathered.clear();
                    gathered.reserve(self.n2 * lanes);
                    for e in 0..self.n2 {
                        for k in k0..k0 + kn {
                            gathered.extend_from_slice(run(e, k));
                        }
                    }
                }
                let x = |e: usize| {
                    if kn > 1 {
                        &gathered[e * lanes..][..lanes]
                    } else {
                        run(e, k0)
                    }
                };
                sandwich_lanes(
                    &self.real.at,
                    rows_here,
                    x,
                    &mut tmp,
                    &mut y[..lanes],
                    |i, j, ys| {
                        for (kk, ys) in ys.chunks(len).enumerate() {
                            // Column j of tiles tx0.., clipped at the ragged
                            // right edge (step_by stops at the row's end).
                            let row = &mut local[((k0 + kk) * rows_here + i) * out_w..][..out_w];
                            let cols = row.get_mut(tx0 * m + j..).unwrap_or_default();
                            for (o, &v) in cols.iter_mut().step_by(m).zip(ys) {
                                *o = v;
                            }
                        }
                    },
                );
            }
            tx0 += len;
        }
        local
    }
}

/// A batched, thread-parallel tiled Winograd layer whose kernel bank
/// has already been transformed, generic over the datapath scalar.
///
/// Transforming the kernel bank into the coordinate-major `V` buffer
/// (`G g Gᵀ` for every `(k, c)` pair, run across a kernel's channels
/// at once, behind exact-rational transform generation) costs the same no matter how many images are
/// pushed through the layer, so [`PreparedWinograd::new`] pays it once;
/// [`execute`] then runs any number of `(N, C, H, W)` inputs against
/// the cached bank, producing `(N, K, H+2·pad−r+1, W+2·pad−r+1)` —
/// stride 1, the only mode Winograd supports. The output matches
/// `wino_core::WinogradAlgorithm::convolve_layer` and the spatial
/// oracle within datapath tolerance, and is bitwise identical at any
/// thread count.
///
/// Instantiated at `f32` this is the paper's single-precision datapath;
/// instantiated at [`wino_tensor::Fixed`] every multiply and accumulate
/// saturates like an FPGA DSP block, which is what the quantization
/// study (`EXPERIMENTS.md`) measures. The transform matrices themselves
/// are re-quantized into `T` via [`TransformSet::to_scalar`].
///
/// [`execute`]: PreparedWinograd::execute
#[derive(Debug, Clone)]
pub struct PreparedWinograd<T: Scalar> {
    real: wino_core::RealTransforms<T>,
    /// Coordinate-major transform-domain bank, pre-packed into `MR`-row
    /// GEMM micro-panels: slab `e` (of `v_slab` elements) is
    /// `gemm::pack_a` of `V_e[k][c]`, ready for any number of
    /// [`execute`](Self::execute) calls.
    v_pack: Vec<T>,
    v_slab: usize,
    /// The flattened 2-D data transform: for each coordinate
    /// `e = (i, j)`, the nonzero coefficients of
    /// `U[e] = Σ_{a,b} Bᵀ[i][a] · Bᵀ[j][b] · d[a][b]` as
    /// `(coefficient, a·n + b)` pairs in fixed `(a, b)` order — the
    /// vectorizable one-pass form the pack phase applies across a whole
    /// tile panel at once.
    data_terms: Vec<Vec<(T, usize)>>,
    k: usize,
    c: usize,
}

impl<T: Scalar> PreparedWinograd<T> {
    /// Transforms the whole kernel bank once, coordinate-major, and
    /// packs each coordinate's `V_e[k][c]` matrix into the GEMM
    /// micro-kernel's `A` layout ([`crate::gemm::pack_a`]), caching it
    /// for any number of later executions.
    ///
    /// # Errors
    ///
    /// Propagates [`TransformError`] from transform generation.
    ///
    /// # Panics
    ///
    /// Panics if kernels are not `r × r` for the given `params`.
    pub fn new(params: WinogradParams, kernels: &Tensor4<T>) -> Result<Self, TransformError> {
        let ks = kernels.shape();
        let r = params.r();
        assert_eq!((ks.h, ks.w), (r, r), "kernels must be {r}x{r} for {params}");

        let real = TransformSet::generate(params)?.to_scalar::<T>();
        let n2 = params.mults_per_tile_2d();
        let mut v_bank = vec![T::zero(); n2 * ks.n * ks.c];
        {
            // Per output kernel k, its C windows structure-of-arrays
            // (gs[a·r + b][c]), so V = G g Gᵀ runs across all channels at
            // once and lands contiguously in v_bank[e][k][..] — bitwise
            // `RealTransforms::apply_kernel` per (k, c).
            let (n, c_in) = (params.input_tile(), ks.c);
            let mut gs = vec![T::zero(); r * r * c_in];
            let mut tmp = vec![T::zero(); n * r * c_in];
            let mut v = vec![T::zero(); c_in];
            let kflat = kernels.as_slice();
            for k in 0..ks.n {
                for c in 0..c_in {
                    let g = &kflat[(k * c_in + c) * r * r..][..r * r];
                    for (ab, &w) in g.iter().enumerate() {
                        gs[ab * c_in + c] = w;
                    }
                }
                let window = |ab: usize| &gs[ab * c_in..][..c_in];
                sandwich_lanes(&real.g, n, window, &mut tmp, &mut v, |i, j, vs| {
                    v_bank[((i * n + j) * ks.n + k) * c_in..][..c_in].copy_from_slice(vs);
                });
            }
        }
        let v_slab = ks.n.div_ceil(MR).max(1) * ks.c * MR;
        let mut v_pack = Vec::with_capacity(n2 * v_slab);
        for e in 0..n2 {
            let v_e = &v_bank[e * ks.n * ks.c..(e + 1) * ks.n * ks.c];
            v_pack.extend_from_slice(&pack_a(ks.n, ks.c, v_e, ks.c));
        }
        // Flatten the two-pass data transform U = Bᵀ d B into one
        // sparse pass per coordinate (most Bᵀ entries are zero), so the
        // pack phase can apply it across a whole tile panel at once.
        let n = params.input_tile();
        let data_terms = (0..n2)
            .map(|e| {
                let (i, j) = (e / n, e % n);
                let mut terms = Vec::new();
                for a in 0..n {
                    for b in 0..n {
                        let coef = real.bt.row(i)[a] * real.bt.row(j)[b];
                        if coef != T::zero() {
                            terms.push((coef, a * n + b));
                        }
                    }
                }
                terms
            })
            .collect();
        Ok(PreparedWinograd { real, v_pack, v_slab, data_terms, k: ks.n, c: ks.c })
    }

    /// The `F(m×m, r×r)` parameters the bank was transformed for.
    pub fn params(&self) -> WinogradParams {
        self.real.params()
    }

    /// Output kernel count `K` of the cached bank.
    pub fn kernel_count(&self) -> usize {
        self.k
    }

    /// Input channel count `C` of the cached bank.
    pub fn channels(&self) -> usize {
        self.c
    }

    /// Runs the convolution against the cached packed bank, with
    /// bitwise-identical output at any thread count.
    ///
    /// Execution is the three-phase pipeline described in the module
    /// docs: pack tile panels, multiply coordinate-major through the
    /// GEMM micro-kernel, inverse-transform — each phase fanned across
    /// `threads` scoped workers under the deterministic chunk
    /// scheduler.
    ///
    /// # Panics
    ///
    /// Panics if `input`'s channel count disagrees with the bank or the
    /// padded input is smaller than the kernel.
    pub fn execute(&self, input: &Tensor4<T>, pad: usize, threads: usize) -> Tensor4<T> {
        let params = self.real.params();
        let is = input.shape();
        let r = params.r();
        assert_eq!(is.c, self.c, "input and kernel channel counts must match");
        assert!(is.h + 2 * pad >= r && is.w + 2 * pad >= r, "input too small for kernel");

        let m = params.m();
        let n2 = params.mults_per_tile_2d();
        let out_h = is.h + 2 * pad - r + 1;
        let out_w = is.w + 2 * pad - r + 1;
        let tiles_y = out_h.div_ceil(m);
        let tiles_x = out_w.div_ceil(m);
        let total_tiles = is.n * tiles_y * tiles_x;

        let mut output = Tensor4::zeros(Shape4 { n: is.n, c: self.k, h: out_h, w: out_w });
        if total_tiles == 0 {
            return output; // empty batch: nothing to transform
        }

        let ctx = WinoCtx {
            real: &self.real,
            input: input.as_slice(),
            in_shape: is,
            v_pack: &self.v_pack,
            v_slab: self.v_slab,
            data_terms: &self.data_terms,
            k: self.k,
            c: self.c,
            m,
            n2,
            pad: pad as isize,
            out_h,
            out_w,
            tiles_x,
            tiles_y,
            total_tiles,
        };
        let panels = total_tiles.div_ceil(PANEL_TILES);

        // Phase 1: pack tile panels (one item per panel).
        let u_panels = {
            let _phase = Span::enter("exec.phase", "pack");
            run_chunked(panels, threads, |p| ctx.pack_panel(p))
        };
        // Phase 2: coordinate-major GEMMs (one item per (e, panel),
        // e-major so a thread's contiguous chunk sweeps the panels of
        // one coordinate before moving on).
        let m_chunks = {
            let _phase = Span::enter("exec.phase", "multiply");
            run_chunked(n2 * panels, threads, |item| {
                let (e, p) = (item / panels, item % panels);
                ctx.multiply(e, &u_panels[p], p)
            })
        };
        drop(u_panels);
        // Phase 3: inverse transforms (one item per (image, tile-row)),
        // including the scatter of finished rows into the output tensor.
        let _phase = Span::enter("exec.phase", "inverse");
        let blocks = run_chunked(is.n * tiles_y, threads, |item| {
            ctx.inverse_item(item / tiles_y, item % tiles_y, &m_chunks)
        });

        let out_flat = output.as_mut_slice();
        for (item, local) in blocks.iter().enumerate() {
            let (img, ty) = (item / tiles_y, item % tiles_y);
            let rows_here = m.min(out_h - ty * m);
            for k in 0..self.k {
                for rr in 0..rows_here {
                    let dst = ((img * self.k + k) * out_h + ty * m + rr) * out_w;
                    let src = (k * rows_here + rr) * out_w;
                    out_flat[dst..dst + out_w].copy_from_slice(&local[src..src + out_w]);
                }
            }
        }
        output
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PreparedSpatial;
    use wino_baselines::{spatial_convolve, spatial_convolve_strided};
    use wino_tensor::{ErrorStats, Fixed, SplitMix64};

    fn random_pair(seed: u64, shape: Shape4, k: usize, r: usize) -> (Tensor4<f32>, Tensor4<f32>) {
        let mut rng = SplitMix64::new(seed);
        let input = Tensor4::from_fn(shape, |_, _, _, _| rng.uniform_f32(-1.0, 1.0));
        let kernels = Tensor4::from_fn(Shape4 { n: k, c: shape.c, h: r, w: r }, |_, _, _, _| {
            rng.uniform_f32(-1.0, 1.0)
        });
        (input, kernels)
    }

    fn winograd(m: usize, r: usize, kernels: &Tensor4<f32>) -> PreparedWinograd<f32> {
        PreparedWinograd::new(WinogradParams::new(m, r).unwrap(), kernels).unwrap()
    }

    #[test]
    fn winograd_matches_oracle_across_tile_sizes() {
        let (input, kernels) = random_pair(1, Shape4 { n: 2, c: 3, h: 11, w: 13 }, 4, 3);
        let oracle = spatial_convolve(&input, &kernels, 1);
        for m in [2usize, 3, 4, 6] {
            let got = winograd(m, 3, &kernels).execute(&input, 1, 2);
            assert_eq!(got.shape(), oracle.shape());
            let stats = ErrorStats::between(got.as_slice(), oracle.as_slice());
            assert!(stats.within_abs(1e-4), "m={m}: {stats}");
        }
    }

    #[test]
    fn winograd_matches_oracle_for_5x5_kernels_unpadded() {
        let (input, kernels) = random_pair(2, Shape4 { n: 1, c: 2, h: 10, w: 9 }, 3, 5);
        let oracle = spatial_convolve(&input, &kernels, 0);
        let got = winograd(2, 5, &kernels).execute(&input, 0, 3);
        let stats = ErrorStats::between(got.as_slice(), oracle.as_slice());
        assert!(stats.within_abs(1e-4), "{stats}");
    }

    #[test]
    fn thread_count_never_changes_a_bit() {
        let (input, kernels) = random_pair(4, Shape4 { n: 2, c: 3, h: 9, w: 14 }, 4, 3);
        let bank = winograd(4, 3, &kernels);
        let one = bank.execute(&input, 1, 1);
        for threads in [2usize, 3, 5, 8] {
            let multi = bank.execute(&input, 1, threads);
            assert_eq!(one.as_slice(), multi.as_slice(), "threads={threads}");
        }
        let spatial = PreparedSpatial::new(&kernels, 1);
        let s1 = spatial.execute(&input, 1, 1);
        let s4 = spatial.execute(&input, 1, 4);
        assert_eq!(s1.as_slice(), s4.as_slice());
    }

    #[test]
    fn spatial_mt_is_bitwise_the_oracle() {
        let (input, kernels) = random_pair(5, Shape4 { n: 2, c: 3, h: 9, w: 8 }, 4, 3);
        for (pad, stride) in [(0usize, 1usize), (1, 1), (1, 2), (2, 3)] {
            let oracle = spatial_convolve_strided(&input, &kernels, pad, stride);
            let got = PreparedSpatial::new(&kernels, stride).execute(&input, pad, 3);
            assert_eq!(oracle.as_slice(), got.as_slice(), "pad={pad} stride={stride}");
        }
    }

    #[test]
    fn ragged_edges_are_clipped_not_padded() {
        // 7x5 output with m=4 leaves partial tiles on both axes.
        let (input, kernels) = random_pair(7, Shape4 { n: 1, c: 2, h: 9, w: 7 }, 2, 3);
        let oracle = spatial_convolve(&input, &kernels, 0);
        let got = winograd(4, 3, &kernels).execute(&input, 0, 2);
        assert_eq!(got.shape(), oracle.shape());
        let stats = ErrorStats::between(got.as_slice(), oracle.as_slice());
        assert!(stats.within_abs(1e-4), "{stats}");
    }

    /// Runs `inverse_item` over every tile row of a synthetic layer whose
    /// GEMM outputs are random, and checks each output element against
    /// the per-tile `RealTransforms::apply_inverse` bit for bit.
    fn soa_inverse_matches_per_tile<T: Scalar>(
        m: usize,
        r: usize,
        (n_img, tiles_y, tiles_x): (usize, usize, usize),
        conv: impl Fn(f32) -> T,
        bits: impl Fn(T) -> u64,
    ) {
        let params = WinogradParams::new(m, r).unwrap();
        let real = TransformSet::generate(params).unwrap().to_scalar::<T>();
        let n2 = params.mults_per_tile_2d();
        let k_out = 3;
        // Ragged on both axes: the last tile row and column are one short.
        let (out_h, out_w) = (tiles_y * m - 1, tiles_x * m - 1);
        let total_tiles = n_img * tiles_y * tiles_x;
        let panels = total_tiles.div_ceil(PANEL_TILES);
        let panel_len = |p: usize| PANEL_TILES.min(total_tiles - p * PANEL_TILES);
        let mut rng = SplitMix64::new((m * 10 + r) as u64);
        let m_chunks: Vec<Vec<T>> = (0..n2 * panels)
            .map(|item| {
                (0..k_out * panel_len(item % panels))
                    .map(|_| conv(rng.uniform_f32(-4.0, 4.0)))
                    .collect()
            })
            .collect();
        let ctx = WinoCtx {
            real: &real,
            input: &[],
            in_shape: Shape4 { n: n_img, c: 1, h: 0, w: 0 },
            v_pack: &[],
            v_slab: 0,
            data_terms: &[],
            k: k_out,
            c: 1,
            m,
            n2,
            pad: 0,
            out_h,
            out_w,
            tiles_x,
            tiles_y,
            total_tiles,
        };
        let (mut prod, mut y, mut scratch) =
            (vec![T::zero(); n2], vec![T::zero(); m * m], vec![T::zero(); real.scratch_len()]);
        for img in 0..n_img {
            for ty in 0..tiles_y {
                let got = ctx.inverse_item(img, ty, &m_chunks);
                let rows_here = m.min(out_h - ty * m);
                for k in 0..k_out {
                    for tx in 0..tiles_x {
                        let t = (img * tiles_y + ty) * tiles_x + tx;
                        let (p, tp) = (t / PANEL_TILES, t % PANEL_TILES);
                        for (e, slot) in prod.iter_mut().enumerate() {
                            *slot = m_chunks[e * panels + p][k * panel_len(p) + tp];
                        }
                        real.apply_inverse(&prod, &mut y, &mut scratch);
                        for i in 0..rows_here {
                            for j in 0..m.min(out_w - tx * m) {
                                let at = (k * rows_here + i) * out_w + tx * m + j;
                                assert_eq!(
                                    bits(got[at]),
                                    bits(y[i * m + j]),
                                    "F({m}, {r}) img={img} ty={ty} k={k} tx={tx} i={i} j={j}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn soa_inverse_is_bitwise_the_per_tile_inverse() {
        // (images, tile rows, tiles per row): 70-tile rows are wider than
        // a panel; 2 × 3 × 23 = 138 tiles put rows across both panel
        // boundaries.
        for geometry in [(1, 2, 70), (2, 3, 23)] {
            for m in [2usize, 3, 4, 6] {
                for r in [3usize, 5] {
                    soa_inverse_matches_per_tile(m, r, geometry, |x| x, |x| x.to_bits().into());
                    soa_inverse_matches_per_tile(m, r, geometry, Fixed::<10>::from_f32, |x| {
                        x.to_f64().to_bits()
                    });
                }
            }
        }
    }

    /// The cached bank equals the per-`(k, c)` `RealTransforms::apply_kernel`
    /// scattered coordinate-major and packed, bit for bit.
    fn soa_kernel_transform_matches_per_kernel<T: Scalar>(
        m: usize,
        r: usize,
        conv: impl Fn(f32) -> T,
        bits: impl Fn(T) -> u64,
    ) {
        let params = WinogradParams::new(m, r).unwrap();
        let (k_out, c_in) = (9, 5);
        let mut rng = SplitMix64::new((m * 10 + r) as u64);
        let kernels = Tensor4::from_fn(Shape4 { n: k_out, c: c_in, h: r, w: r }, |_, _, _, _| {
            conv(rng.uniform_f32(-1.0, 1.0))
        });
        let bank = PreparedWinograd::new(params, &kernels).unwrap();

        let real = &bank.real;
        let n2 = params.mults_per_tile_2d();
        let (mut v, mut scratch) = (vec![T::zero(); n2], vec![T::zero(); real.scratch_len()]);
        let mut v_bank = vec![T::zero(); n2 * k_out * c_in];
        for k in 0..k_out {
            for c in 0..c_in {
                let g = &kernels.as_slice()[(k * c_in + c) * r * r..][..r * r];
                real.apply_kernel(g, &mut v, &mut scratch);
                for (e, &ve) in v.iter().enumerate() {
                    v_bank[(e * k_out + k) * c_in + c] = ve;
                }
            }
        }
        let expected: Vec<u64> = (0..n2)
            .flat_map(|e| pack_a(k_out, c_in, &v_bank[e * k_out * c_in..][..k_out * c_in], c_in))
            .map(&bits)
            .collect();
        let got: Vec<u64> = bank.v_pack.iter().map(|&x| bits(x)).collect();
        assert_eq!(got, expected, "F({m}, {r})");
    }

    #[test]
    fn soa_kernel_transform_is_bitwise_the_per_kernel_transform() {
        for m in [2usize, 3, 4, 6] {
            for r in [3usize, 5] {
                soa_kernel_transform_matches_per_kernel(m, r, |x| x, |x| x.to_bits().into());
                soa_kernel_transform_matches_per_kernel(m, r, Fixed::<10>::from_f32, |x| {
                    x.to_f64().to_bits()
                });
            }
        }
    }

    #[test]
    fn config_defaults_are_sane() {
        assert!(ExecConfig::default().threads >= 1);
        assert_eq!(ExecConfig::with_threads(0).threads, 1);
    }

    #[test]
    #[should_panic(expected = "channel counts must match")]
    fn channel_mismatch_panics() {
        let input = Tensor4::<f32>::zeros(Shape4 { n: 1, c: 2, h: 8, w: 8 });
        let kernels = Tensor4::<f32>::zeros(Shape4 { n: 1, c: 3, h: 3, w: 3 });
        let _ = winograd(2, 3, &kernels).execute(&input, 1, 1);
    }
}
