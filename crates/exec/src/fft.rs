//! The prepared FFT convolution backend: tile-wise overlap–save with a
//! real-input half-plane transform, precomputed kernel spectra, and the
//! transform-domain multiply expressed as the same coordinate-major
//! blocked GEMM shape the Winograd engine uses.
//!
//! ## Algorithm
//!
//! [`PreparedFft`] runs **overlap–save**: every `N×N` input window is
//! gathered at stride `L = N−r+1` (windows overlap by `r−1`), each
//! window is convolved circularly in the frequency domain against the
//! prepared kernel spectra, and the `L×L` *valid* region of each
//! circular result is copied to the output. Overlap–save is the
//! add-free dual of the overlap-and-add formulation: OaA splits the
//! input into disjoint blocks and **sums** overlapping partial outputs,
//! which would make output bits depend on the cross-tile accumulation
//! order; overlap–save overlaps the *inputs* instead, so every output
//! element is produced exactly once by exactly one tile and bitwise
//! thread-count-invariance needs no cross-item discipline at all.
//!
//! ## Three-phase pipeline, same shape as Winograd
//!
//! 1. **Pack** — one item per [`PANEL_TILES`]-tile panel: gather each
//!    tile's `N×N` window (zero-filled outside the padded input) and
//!    forward-transform it with the real-input rfft2 below, narrowing
//!    the `N·(N/2+1)` half-plane bins to `f32` into bin-major panels.
//!    Each bin's slice is the `2C × 2np` matrix
//!    `[[U_re, U_im], [−U_im, U_re]]` (channels down, the panel's `np`
//!    tiles across) — the `B` operand of one GEMM, exactly like a
//!    Winograd coordinate.
//! 2. **Multiply** — one item per `(bin, panel)` pair: the complex
//!    product `M_bin = V_bin · U_bin` as **one real GEMM** through
//!    [`gemm_packed_a`] against the pre-packed `K × 2C` kernel-spectrum
//!    slab `[V_re | V_im]`. Its `K × 2np` output is `[M_re | M_im]`
//!    directly (`M_re = V_re·U_re − V_im·U_im`,
//!    `M_im = V_re·U_im + V_im·U_re`), each element one fixed-order
//!    chain of `2C` multiply-adds, with no temporaries and no combining
//!    pass.
//! 3. **Inverse** — one item per `(image, tile-row)` pair: gather each
//!    tile's bins (widened back to `f64`), inverse rfft2, and copy the
//!    valid `L×L` block (at circular-plane offset `r−1`) into the
//!    output rows.
//!
//! ## Real-input packing
//!
//! The forward transform packs two real rows into one complex FFT
//! (`z = a + i·b`, split via `A[v] = (Z[v] + conj(Z[n−v]))/2`,
//! `B[v] = (Z[v] − conj(Z[n−v]))/(2i)`) and keeps only the Hermitian
//! half-plane `v ∈ 0..=N/2` through the column pass — the packing the
//! `wino-baselines` module documents and `wino_core::fft_layer_mults`
//! accounts for. The inverse reverses both steps and applies the
//! `1/N²` scaling once.
//!
//! ## Precision
//!
//! Transforms run in `f64` (matching the `wino-baselines` reference)
//! regardless of the datapath scalar `T`; the kernel spectra and the
//! GEMM operands are `f32`. Tile windows are widened via
//! [`Scalar::to_f64`] on gather, forward-transformed in `f64` and
//! narrowed to `f32` as the pack phase writes them; kernel spectra are
//! narrowed the same way at preparation. The multiply runs in `f32` —
//! at vector width on every instruction-set build of the shared GEMM —
//! and the inverse widens its products back to `f64` and narrows via
//! [`Scalar::from_f64`] only on the final valid-region copy.
//! [`fft_error_bound`] is derived for exactly this arithmetic. Every
//! step is sequential with a fixed order per tile, so outputs are
//! bitwise identical at any thread count. The f32 serving path is the
//! intended user; `Schedule` validation rejects FFT plans on quantized
//! layers (the widened datapath would bypass DSP-style saturation),
//! though the type itself stays generic so the backend layer has one
//! shape.

use crate::gemm::{gemm_packed_a, pack_a, MR, PANEL_TILES};
use crate::layer::run_chunked;
use std::marker::PhantomData;
use wino_baselines::{Complex, FftPlan};
use wino_core::ConvShape;
use wino_obs::Span;
use wino_tensor::{Scalar, Shape4, Tensor4};

/// Half-plane bin count of a real-input `n×n` transform.
fn bin_count(n: usize) -> usize {
    n * (n / 2 + 1)
}

/// Forward real-input 2-D FFT of a row-major `n×n` plane into `out`:
/// row pass with two-rows-per-complex-FFT packing keeping columns
/// `v ∈ 0..=n/2`, then full complex column FFTs over the kept columns,
/// in place. `out` receives the `n·(n/2+1)` half-plane,
/// row-frequency-major: `out[u·(n/2+1) + v]`. `line` is caller-owned
/// scratch of `n` elements, so a work item transforming many planes
/// allocates nothing per plane.
fn rfft2_forward(
    plan: &FftPlan,
    real: &[f64],
    n: usize,
    line: &mut [Complex],
    out: &mut [Complex],
) {
    let half = n / 2 + 1;
    for j in 0..n / 2 {
        let (a, b) = (&real[2 * j * n..(2 * j + 1) * n], &real[(2 * j + 1) * n..(2 * j + 2) * n]);
        for (x, slot) in line.iter_mut().enumerate() {
            *slot = Complex::new(a[x], b[x]);
        }
        plan.run(line, false);
        for v in 0..half {
            let zv = line[v];
            let zn = line[(n - v) % n];
            out[2 * j * half + v] = Complex::new((zv.re + zn.re) / 2.0, (zv.im - zn.im) / 2.0);
            out[(2 * j + 1) * half + v] =
                Complex::new((zv.im + zn.im) / 2.0, (zn.re - zv.re) / 2.0);
        }
    }
    column_pass(plan, out, n, line, false);
}

/// The complex FFT of every kept column `v ∈ 0..=n/2` of a half-plane,
/// in place, through the `n`-element scratch `line`.
fn column_pass(
    plan: &FftPlan,
    bins: &mut [Complex],
    n: usize,
    line: &mut [Complex],
    inverse: bool,
) {
    let half = n / 2 + 1;
    for v in 0..half {
        for (u, slot) in line.iter_mut().enumerate() {
            *slot = bins[u * half + v];
        }
        plan.run(line, inverse);
        for (u, &value) in line.iter().enumerate() {
            bins[u * half + v] = value;
        }
    }
}

/// Inverse of [`rfft2_forward`] including the `1/n²` scaling: column
/// inverse FFTs over the kept columns (in place, so `bins` is
/// consumed), then row reconstruction — each pair of row spectra is
/// Hermitian-extended into one complex inverse FFT whose
/// real/imaginary parts are two real output rows. `line` is the same
/// `n`-element scratch as the forward transform's.
fn rfft2_inverse(
    plan: &FftPlan,
    bins: &mut [Complex],
    n: usize,
    line: &mut [Complex],
    real_out: &mut [f64],
) {
    let half = n / 2 + 1;
    column_pass(plan, bins, n, line, true);
    let scale = 1.0 / (n * n) as f64;
    for j in 0..n / 2 {
        let a = &bins[2 * j * half..2 * j * half + half];
        let b = &bins[(2 * j + 1) * half..(2 * j + 1) * half + half];
        for (v, slot) in line.iter_mut().enumerate() {
            *slot = if v < half {
                Complex::new(a[v].re - b[v].im, a[v].im + b[v].re)
            } else {
                // Hermitian extension: A[v] = conj(A[n−v]), same for B.
                let (ac, bc) = (a[n - v], b[n - v]);
                Complex::new(ac.re + bc.im, bc.re - ac.im)
            };
        }
        plan.run(line, true);
        for (x, &value) in line.iter().enumerate() {
            real_out[2 * j * n + x] = value.re * scale;
            real_out[(2 * j + 1) * n + x] = value.im * scale;
        }
    }
}

/// An FFT convolution layer whose kernel spectra have already been
/// transformed and GEMM-packed — the frequency-domain analogue of
/// [`PreparedWinograd`](crate::PreparedWinograd), and the third
/// implementor of [`ConvBackend`](crate::ConvBackend).
///
/// Construction transforms every `(k, c)` kernel (spatially flipped so
/// the frequency product is a correlation) into its half-plane
/// spectrum, narrows it to `f32`, and packs each bin's `K × 2C` matrix
/// `[Re | Im]` into the GEMM micro-kernel's `A` layout, exactly as
/// `PreparedWinograd::new` packs the `V`-bank. Execution is the
/// three-phase overlap–save pipeline in the module docs; see there for
/// the determinism argument.
#[derive(Debug, Clone)]
pub struct PreparedFft<T: Scalar> {
    plan: FftPlan,
    n: usize,
    r: usize,
    k: usize,
    c: usize,
    nbins: usize,
    /// The per-bin kernel-spectrum matrices, bin-major: slab `bin` (of
    /// `v_slab` elements) is `pack_a` of the `K × 2C` matrix whose row
    /// `k` is `[V_bin[k][0..C].re, V_bin[k][0..C].im]`.
    v: Vec<f32>,
    v_slab: usize,
    _scalar: PhantomData<T>,
}

impl<T: Scalar> PreparedFft<T> {
    /// Precomputes the kernel spectra for FFT size `n` and packs them
    /// for the GEMM micro-kernel, caching both for any number of later
    /// [`execute`](Self::execute) calls.
    ///
    /// # Panics
    ///
    /// Panics when `n` is not a power of two of at least 4, kernels are
    /// not square, or `n` is smaller than the kernel size.
    pub fn new(n: usize, kernels: &Tensor4<T>) -> PreparedFft<T> {
        assert!(n >= 4 && n.is_power_of_two(), "FFT size {n} must be a power of two >= 4");
        let ks = kernels.shape();
        assert_eq!(ks.h, ks.w, "kernels must be square");
        let r = ks.h;
        assert!(n >= r, "FFT size {n} smaller than kernel {r}");

        let plan = FftPlan::new(n);
        let nbins = bin_count(n);
        let (k_out, c_in) = (ks.n, ks.c);
        // Bin-major `K × 2C` matrices: row k is [Re | Im] over channels.
        let mut mats = vec![0.0f32; nbins * k_out * 2 * c_in];
        let mut window = vec![0.0f64; n * n];
        let mut line = vec![Complex::default(); n];
        let mut spectrum = vec![Complex::default(); nbins];
        for k in 0..k_out {
            for c in 0..c_in {
                window.fill(0.0);
                // Spatially flipped placement, so the circular product
                // correlates (Eq. 1) instead of convolving.
                for v in 0..r {
                    for u in 0..r {
                        window[(r - 1 - v) * n + (r - 1 - u)] = kernels.at(k, c, v, u).to_f64();
                    }
                }
                rfft2_forward(&plan, &window, n, &mut line, &mut spectrum);
                for (bin, &s) in spectrum.iter().enumerate() {
                    let row = (bin * k_out + k) * 2 * c_in;
                    mats[row + c] = s.re as f32;
                    mats[row + c_in + c] = s.im as f32;
                }
            }
        }
        let v_slab = k_out.div_ceil(MR).max(1) * 2 * c_in * MR;
        let mut v = Vec::with_capacity(nbins * v_slab);
        for mat in mats.chunks_exact(k_out * 2 * c_in) {
            v.extend_from_slice(&pack_a(k_out, 2 * c_in, mat, 2 * c_in));
        }
        PreparedFft { plan, n, r, k: k_out, c: c_in, nbins, v, v_slab, _scalar: PhantomData }
    }

    /// The FFT size `N` the spectra were prepared for.
    pub fn fft_size(&self) -> usize {
        self.n
    }

    /// Kernel size `r` of the cached bank.
    pub fn kernel_size(&self) -> usize {
        self.r
    }

    /// Output kernel count `K` of the cached bank.
    pub fn kernel_count(&self) -> usize {
        self.k
    }

    /// Input channel count `C` of the cached bank.
    pub fn channels(&self) -> usize {
        self.c
    }

    /// Runs the overlap–save convolution against the cached spectra —
    /// stride 1, symmetric zero padding `pad`, output bitwise identical
    /// at any thread count (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `input`'s channel count disagrees with the bank or the
    /// padded input is smaller than the kernel.
    pub fn execute(&self, input: &Tensor4<T>, pad: usize, threads: usize) -> Tensor4<T> {
        let is = input.shape();
        let (n, r) = (self.n, self.r);
        assert_eq!(is.c, self.c, "input and kernel channel counts must match");
        assert!(is.h + 2 * pad >= r && is.w + 2 * pad >= r, "input too small for kernel");

        let l = n - r + 1;
        let out_h = is.h + 2 * pad - r + 1;
        let out_w = is.w + 2 * pad - r + 1;
        let tiles_y = out_h.div_ceil(l);
        let tiles_x = out_w.div_ceil(l);
        let total_tiles = is.n * tiles_y * tiles_x;
        let mut output = Tensor4::zeros(Shape4 { n: is.n, c: self.k, h: out_h, w: out_w });
        if total_tiles == 0 {
            return output;
        }

        let panels = total_tiles.div_ceil(PANEL_TILES);
        let panel_len = |p: usize| PANEL_TILES.min(total_tiles - p * PANEL_TILES);
        let (nbins, c_in, k_out) = (self.nbins, self.c, self.k);
        let tiles_per_image = tiles_y * tiles_x;
        let plane_stride = is.h * is.w;
        let in_flat = input.as_slice();
        let pad = pad as isize;

        // Phase 1: gather + forward-transform tile panels into each
        // bin's `2C × 2np` GEMM operand [[Re, Im], [−Im, Re]], in f32.
        let u_panels: Vec<Vec<f32>> = {
            let _phase = Span::enter("exec.phase", "pack");
            run_chunked(panels, threads, |p| {
                let np = panel_len(p);
                let coords: Vec<(usize, isize, isize)> = (0..np)
                    .map(|tp| {
                        let t = p * PANEL_TILES + tp;
                        let (img, rem) = (t / tiles_per_image, t % tiles_per_image);
                        let (ty, tx) = (rem / tiles_x, rem % tiles_x);
                        (img, (ty * l) as isize - pad, (tx * l) as isize - pad)
                    })
                    .collect();
                let bin_len = 4 * c_in * np;
                let mut u = vec![0.0f32; nbins * bin_len];
                let mut window = vec![0.0f64; n * n];
                let mut line = vec![Complex::default(); n];
                let mut spectrum = vec![Complex::default(); nbins];
                for c in 0..c_in {
                    for (tp, &(img, top, left)) in coords.iter().enumerate() {
                        let plane = &in_flat[(img * c_in + c) * plane_stride..][..plane_stride];
                        if top >= 0
                            && left >= 0
                            && top as usize + n <= is.h
                            && left as usize + n <= is.w
                        {
                            // Interior window: contiguous source rows.
                            let (t0, l0) = (top as usize, left as usize);
                            for row in 0..n {
                                for (col, slot) in
                                    window[row * n..row * n + n].iter_mut().enumerate()
                                {
                                    *slot = plane[(t0 + row) * is.w + l0 + col].to_f64();
                                }
                            }
                        } else {
                            for row in 0..n {
                                let rr = top + row as isize;
                                let row_ok = rr >= 0 && (rr as usize) < is.h;
                                for col in 0..n {
                                    let cc = left + col as isize;
                                    window[row * n + col] =
                                        if row_ok && cc >= 0 && (cc as usize) < is.w {
                                            plane[rr as usize * is.w + cc as usize].to_f64()
                                        } else {
                                            0.0
                                        };
                                }
                            }
                        }
                        rfft2_forward(&self.plan, &window, n, &mut line, &mut spectrum);
                        for (bin, &s) in spectrum.iter().enumerate() {
                            let (re, im) = (s.re as f32, s.im as f32);
                            let top = bin * bin_len + c * 2 * np;
                            let bottom = top + c_in * 2 * np;
                            u[top + tp] = re;
                            u[top + np + tp] = im;
                            u[bottom + tp] = -im;
                            u[bottom + np + tp] = re;
                        }
                    }
                }
                u
            })
        };

        // Phase 2: per-(bin, panel) complex products as one real GEMM:
        // `[V_re | V_im] · [[U_re, U_im], [−U_im, U_re]]` is the `K × 2np`
        // matrix `[M_re | M_im]`, each element one fixed-order f32 chain.
        let m_chunks: Vec<Vec<f32>> = {
            let _phase = Span::enter("exec.phase", "multiply");
            run_chunked(nbins * panels, threads, |item| {
                let (bin, p) = (item / panels, item % panels);
                let np = panel_len(p);
                let v = &self.v[bin * self.v_slab..(bin + 1) * self.v_slab];
                let u = &u_panels[p][bin * 4 * c_in * np..(bin + 1) * 4 * c_in * np];
                let mut m = vec![0.0f32; k_out * 2 * np];
                gemm_packed_a(k_out, 2 * np, 2 * c_in, v, u, 2 * np, &mut m, 2 * np);
                m
            })
        };
        drop(u_panels);

        // Phase 3: inverse transforms per (image, tile-row), widened back
        // to f64; the valid L×L block of each circular plane lands at
        // offset r−1.
        let blocks = {
            let _phase = Span::enter("exec.phase", "inverse");
            run_chunked(is.n * tiles_y, threads, |item| {
                let (img, ty) = (item / tiles_y, item % tiles_y);
                let rows_here = l.min(out_h - ty * l);
                let row_base = (img * tiles_y + ty) * tiles_x;
                let mut bins = vec![Complex::default(); nbins];
                let mut line = vec![Complex::default(); n];
                let mut plane = vec![0.0f64; n * n];
                let mut local = vec![T::zero(); k_out * rows_here * out_w];
                for k in 0..k_out {
                    for tx in 0..tiles_x {
                        let t = row_base + tx;
                        let (p, tp) = (t / PANEL_TILES, t % PANEL_TILES);
                        let np = panel_len(p);
                        // Gather this tile's bins across the per-(bin,
                        // panel) GEMM outputs.
                        for (bin, slot) in bins.iter_mut().enumerate() {
                            let m = &m_chunks[bin * panels + p][k * 2 * np..];
                            *slot = Complex::new(f64::from(m[tp]), f64::from(m[np + tp]));
                        }
                        rfft2_inverse(&self.plan, &mut bins, n, &mut line, &mut plane);
                        let cols_here = l.min(out_w - tx * l);
                        for dy in 0..rows_here {
                            let src = (dy + r - 1) * n + (r - 1);
                            let dst = (k * rows_here + dy) * out_w + tx * l;
                            for dx in 0..cols_here {
                                local[dst + dx] = T::from_f64(plane[src + dx]);
                            }
                        }
                    }
                }
                local
            })
        };

        let out_flat = output.as_mut_slice();
        for (item, local) in blocks.iter().enumerate() {
            let (img, ty) = (item / tiles_y, item % tiles_y);
            let rows_here = l.min(out_h - ty * l);
            for k in 0..self.k {
                for dy in 0..rows_here {
                    let dst = ((img * self.k + k) * out_h + ty * l + dy) * out_w;
                    let src = (k * rows_here + dy) * out_w;
                    out_flat[dst..dst + out_w].copy_from_slice(&local[src..src + out_w]);
                }
            }
        }
        output
    }
}

/// Analytic absolute-error bound for comparing [`PreparedFft`] output
/// against the f32 spatial oracle — the FFT counterpart of
/// [`quant_error_bound`](crate::quant_error_bound), used by the
/// property tests as their tolerance.
///
/// With `|input| ≤ input_mag`, `|weights| ≤ weight_mag`, `t = C·r²`,
/// unit roundoffs `u = 2⁻²⁴` (f32) and `ε₆₄` (f64) and
/// `γ_j = j·u / (1 − j·u)`, the bound is the sum of four terms:
///
/// * **Oracle.** Each output is a `t`-term f32 dot product of terms at
///   most `input_mag·weight_mag`, so with `S = t·input_mag·weight_mag`
///   the oracle is off by at most `γ_t·S`.
/// * **Output narrowing.** The backend rounds its `f64` result to `f32`
///   once: at most `u·S`.
/// * **The f32 multiply.** Each component of a bin's product
///   `M = Σ_c V_c·U_c` is a `2C`-term f32 dot product of operands that
///   were each rounded to f32 once, so it is off by at most
///   `γ_{2C+2}·Σ_c (|Re V_c|·|Re U_c| + |Im V_c|·|Im U_c|)
///   ≤ γ_{2C+2}·Σ_c |V_c|·|U_c|`, and `|ΔM| ≤ √2` times that. An
///   output of the `1/N²`-scaled inverse (two real rows per complex row
///   transform, so each output row sees the errors of two) is off by at
///   most `2/N²` times the sum of `|ΔM|` over the `N²` bins of the
///   Hermitian-extended plane. By Cauchy–Schwarz and Parseval
///   (`‖X‖₂ = N·‖x‖₂`), `Σ_bins |V_c|·|U_c| ≤ N²·‖v_c‖₂·‖u_c‖₂`, where
///   the `r×r` kernel has `‖v_c‖₂ ≤ r·weight_mag` and the `N×N` window
///   `‖u_c‖₂ ≤ N·input_mag`. So with `ρ = C·r·N·input_mag·weight_mag`
///   the multiply adds at most `2√2·γ_{2C+2}·ρ`.
/// * **The f64 transforms.** A radix-2 transform over `2·log₂N` stages
///   (rows then columns) plus the real-input split has normwise
///   relative error at most `δ = 8·log₂N·ε₆₄` (Higham, *Accuracy and
///   Stability of Numerical Algorithms*, Thm. 24.2). Through the same
///   Cauchy–Schwarz step the two forward transforms add at most
///   `4δ·ρ`; the inverse adds `δ` times the 2-norm of the `N×N`
///   circular plane, at most `δ·N·S`.
///
/// The multiply term is about `4√2·N/r³` of the oracle term for wide
/// layers, so the f32 spectra cost most where kernels are small (where
/// Winograd, not FFT, is the algorithm of choice).
pub fn fft_error_bound(shape: &ConvShape, n: usize, input_mag: f64, weight_mag: f64) -> f64 {
    let u = f64::from(f32::EPSILON) / 2.0;
    let gamma = |j: f64| j * u / (1.0 - j * u);
    let terms = (shape.c * shape.r * shape.r) as f64;
    let sum_mag = terms * input_mag * weight_mag;
    let rho = (shape.c * shape.r * n) as f64 * input_mag * weight_mag;
    let oracle = gamma(terms) * sum_mag;
    let narrowing = u * sum_mag;
    let multiply = 2.0 * std::f64::consts::SQRT_2 * gamma(2.0 * shape.c as f64 + 2.0) * rho;
    let delta = 8.0 * (n as f64).log2() * f64::EPSILON;
    let transforms = delta * (4.0 * rho + n as f64 * sum_mag);
    oracle + narrowing + multiply + transforms
}

#[cfg(test)]
mod tests {
    use super::*;
    use wino_baselines::spatial_convolve_strided;
    use wino_tensor::{ErrorStats, SplitMix64};

    fn random_pair(seed: u64, shape: Shape4, k: usize, r: usize) -> (Tensor4<f32>, Tensor4<f32>) {
        let mut rng = SplitMix64::new(seed);
        let input = Tensor4::from_fn(shape, |_, _, _, _| rng.uniform_f32(-1.0, 1.0));
        let kernels = Tensor4::from_fn(Shape4 { n: k, c: shape.c, h: r, w: r }, |_, _, _, _| {
            rng.uniform_f32(-1.0, 1.0)
        });
        (input, kernels)
    }

    #[test]
    fn rfft2_round_trips() {
        let n = 16;
        let mut rng = SplitMix64::new(3);
        let plane: Vec<f64> = (0..n * n).map(|_| rng.uniform_f32(-1.0, 1.0) as f64).collect();
        let plan = FftPlan::new(n);
        let mut line = vec![Complex::default(); n];
        let mut bins = vec![Complex::default(); bin_count(n)];
        rfft2_forward(&plan, &plane, n, &mut line, &mut bins);
        let mut back = vec![0.0f64; n * n];
        rfft2_inverse(&plan, &mut bins, n, &mut line, &mut back);
        for (a, b) in plane.iter().zip(&back) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn rfft2_matches_full_complex_transform() {
        // The half-plane is the Hermitian half of the full 2-D FFT.
        let n = 8;
        let mut rng = SplitMix64::new(4);
        let plane: Vec<f64> = (0..n * n).map(|_| rng.uniform_f32(-1.0, 1.0) as f64).collect();
        let plan = FftPlan::new(n);
        let mut bins = vec![Complex::default(); bin_count(n)];
        rfft2_forward(&plan, &plane, n, &mut vec![Complex::default(); n], &mut bins);
        // Reference: rows then columns as full complex FFTs.
        let mut full: Vec<Complex> = plane.iter().map(|&x| Complex::new(x, 0.0)).collect();
        for row in 0..n {
            plan.run(&mut full[row * n..(row + 1) * n], false);
        }
        let mut col = vec![Complex::default(); n];
        for v in 0..n {
            for (u, slot) in col.iter_mut().enumerate() {
                *slot = full[u * n + v];
            }
            plan.run(&mut col, false);
            for (u, &value) in col.iter().enumerate() {
                full[u * n + v] = value;
            }
        }
        let half = n / 2 + 1;
        for u in 0..n {
            for v in 0..half {
                let got = bins[u * half + v];
                let want = full[u * n + v];
                assert!(
                    (got.re - want.re).abs() < 1e-12 && (got.im - want.im).abs() < 1e-12,
                    "bin ({u},{v}): {got:?} vs {want:?}"
                );
            }
        }
    }

    #[test]
    fn matches_spatial_oracle_within_analytic_bound() {
        for (seed, (h, w, c, k, r, pad, n)) in [
            (10, (9, 11, 3, 4, 3, 1, 8)),
            (11, (16, 16, 2, 3, 5, 2, 16)),
            (12, (12, 8, 1, 2, 7, 0, 16)),
            (13, (8, 8, 2, 2, 3, 4, 8)), // pad > r: windows fully outside
        ] {
            let (input, kernels) = random_pair(seed, Shape4 { n: 2, c, h, w }, k, r);
            let bank = PreparedFft::new(n, &kernels);
            let got = bank.execute(&input, pad, 2);
            let oracle = spatial_convolve_strided(&input, &kernels, pad, 1);
            assert_eq!(got.shape(), oracle.shape());
            let shape = ConvShape { h, w, c, k, r, stride: 1, pad };
            let tol = fft_error_bound(&shape, n, 1.0, 1.0);
            let stats = ErrorStats::between(got.as_slice(), oracle.as_slice());
            assert!(stats.within_abs(tol), "seed {seed}: {stats} vs tol {tol}");
        }
    }

    #[test]
    fn thread_count_never_changes_a_bit() {
        let (input, kernels) = random_pair(20, Shape4 { n: 2, c: 3, h: 13, w: 9 }, 4, 3);
        let bank = PreparedFft::new(8, &kernels);
        let one = bank.execute(&input, 1, 1);
        for threads in [2usize, 3, 5, 8] {
            let multi = bank.execute(&input, 1, threads);
            assert_eq!(one.as_slice(), multi.as_slice(), "threads={threads}");
        }
    }

    #[test]
    fn batch_is_free_and_prepared_state_is_reusable() {
        let (_, kernels) = random_pair(21, Shape4 { n: 1, c: 2, h: 10, w: 10 }, 3, 3);
        let bank = PreparedFft::new(16, &kernels);
        assert_eq!(
            (bank.fft_size(), bank.kernel_size(), bank.kernel_count(), bank.channels()),
            (16, 3, 3, 2)
        );
        let one = Tensor4::from_fn(Shape4 { n: 1, c: 2, h: 10, w: 10 }, |_, c, y, x| {
            (c + y * x) as f32 * 0.05
        });
        let three = Tensor4::from_fn(Shape4 { n: 3, c: 2, h: 10, w: 10 }, |_, c, y, x| {
            (c + y * x) as f32 * 0.05
        });
        let a = bank.execute(&one, 1, 2);
        let b = bank.execute(&three, 1, 2);
        let plane = a.as_slice().len();
        for img in 0..3 {
            assert_eq!(&b.as_slice()[img * plane..(img + 1) * plane], a.as_slice());
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_size_panics() {
        let kernels = Tensor4::<f32>::zeros(Shape4 { n: 1, c: 1, h: 3, w: 3 });
        let _ = PreparedFft::new(12, &kernels);
    }

    #[test]
    #[should_panic(expected = "smaller than kernel")]
    fn size_below_kernel_panics() {
        let kernels = Tensor4::<f32>::zeros(Shape4 { n: 1, c: 1, h: 7, w: 7 });
        let _ = PreparedFft::new(4, &kernels);
    }

    #[test]
    fn error_bound_is_small_but_nonzero() {
        let shape = ConvShape::same_padded(56, 56, 64, 64, 3);
        let tol = fft_error_bound(&shape, 16, 1.0, 1.0);
        assert!(tol > 0.0 && tol < 0.1, "bound should be meaningful: {tol}");
    }
}
