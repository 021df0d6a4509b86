//! The packed, cache-blocked GEMM micro-kernel behind the
//! transform-domain multiply.
//!
//! The hot loop of Winograd layer execution is `n²` independent channel
//! GEMMs — for every transform coordinate `e`,
//! `M_e[K][T] = V_e[K][C] · U_e[C][T]` — and this module is the one
//! place that computes them. The kernel is written once, generically
//! over [`Scalar`], and monomorphizes to the paper's `f32` datapath and
//! to every `Fixed<FRAC>` width of the quantization study.
//!
//! ## Blocking scheme
//!
//! The kernel follows the classic three-level GOTO/BLIS decomposition,
//! sized for the layer geometries this workspace actually runs
//! (`C, K ≤ 512`, tile panels of [`PANEL_TILES`] columns):
//!
//! * **Register micro-tile** — outputs are produced [`MR`]`×`[`NR`] at a
//!   time into a `[[T; NR]; MR]` accumulator block that lives entirely
//!   in registers across the whole channel loop. Every output element
//!   is touched once in memory (the final store) instead of once per
//!   channel, which is what the pre-GEMM per-row loop paid.
//! * **Packed operands** — the `A` operand (the kernel bank `V_e`) is
//!   packed into `MR`-row column-major micro-panels
//!   (`apack[p][0..MR]` contiguous per channel step `p`), and each
//!   `NR`-column slice of the `B` operand (the data panel `U_e`) is
//!   packed into an `NR`-wide row-major micro-panel before use, so the
//!   innermost loop issues only contiguous loads. Ragged edges are
//!   zero-padded to full micro-tiles: the padding lanes multiply
//!   against zero and are masked off at store time, so one code path
//!   serves every shape at full vector width.
//! * **`KC` cache blocking** — the channel loop runs in [`KC`]-sized
//!   blocks, keeping the active `KC×NR` slice of the packed `B` panel
//!   (≤ 2 KiB at `f32`) pinned in L1 while the `A` micro-panels stream
//!   past it. Accumulation stays in the same register block across
//!   blocks, so blocking never reorders a sum.
//!
//! The AVX-512 `f32` kernel (see below) keeps the packed `A` but
//! neither packs `B` nor blocks the channel loop: its `8 × 32` tile
//! reads each `B` row in place, through lane masks on the ragged edge.
//!
//! ## Determinism contract
//!
//! Every output element is one fixed-order accumulation chain over the
//! inner dimension (`p = 0, 1, …, k−1`), regardless of micro-tile
//! position, panel width, edge raggedness or how many threads share the
//! surrounding loop. [`gemm`] is therefore **bitwise identical** to
//! [`gemm_naive`] for every shape and every `Scalar` instantiation — a
//! property the `gemm_props` suite pins — which is what lets the
//! execution engine keep its bitwise thread-count-invariance guarantee
//! while going fast.
//!
//! ## Instruction-set dispatch
//!
//! The crate builds for the baseline x86-64 target (SSE2, 4 `f32`
//! lanes). [`gemm_packed_a`] runs one of three builds, the widest the
//! CPU supports (detected once per process):
//!
//! * **AVX-512** (`avx512f`, `avx512vl`, `avx512dq`, `avx512bw`, plus
//!   AVX2). `f32`, the paper's datapath, runs a kernel of its own,
//!   written with intrinsics: an [`MR`]` × 32` register tile whose rows
//!   are two 16-lane `zmm` accumulators each (sixteen in all; one per
//!   row on a tail of at most 16 columns), with `B` read and `C`
//!   written in place through lane masks, so it copies and allocates
//!   nothing. `f64` and `Fixed` run the generic body compiled for
//!   AVX-512: each `NR`-wide accumulator row of `f64`, and of `Fixed`'s
//!   `i64` products, is one `zmm` register, and the saturating `Fixed`
//!   multiply-add vectorizes, because the 64-bit arithmetic shift and
//!   the saturating 64 → 32-bit narrowing it needs are single AVX-512
//!   instructions (`vpsraq`, `vpmovsqd`) that AVX2 lacks, so the
//!   narrower builds do not vectorize it profitably;
//! * **AVX2**: the generic body; each `f32` accumulator row is one
//!   8-lane `ymm` register;
//! * **portable**: the generic body in the baseline build.
//!
//! FMA is deliberately not enabled in any build: Rust never contracts
//! `a * b + c`, the `f32` kernel issues a separate multiply
//! (`_mm512_mul_ps`) and add (`_mm512_add_ps`) per step, and `Fixed`'s
//! integer arithmetic is exact. So every build executes the identical
//! multiply-then-add chain, the determinism contract above holds on
//! every host, and every build produces the same bits (the
//! `every_tier_is_bitwise_the_portable_body` test checks each build the
//! host supports, and prints whether the `f32` kernel was among them).

use wino_tensor::Scalar;

/// Rows of one register micro-tile (the `K`/kernel dimension).
///
/// `8 × 8` at `f32` is eight 8-lane accumulators: on an AVX2 host each
/// accumulator row is one 256-bit `ymm` register, leaving eight of the
/// sixteen for the `B` row and the broadcast `A` values, so the block
/// never spills. On the SSE2 baseline the same block is sixteen 4-lane
/// `xmm` accumulators, which also measured fastest in the
/// `{4, 6, 8} × {8, 16, 24}` sweep on the vgg16d-conv3 geometry (see
/// `DESIGN.md`). The AVX-512 build keeps `MR = 8`, so [`pack_a`]'s
/// layout is the same for every build. Its generic body keeps the
/// `8 × 8` tile for `f64` and `Fixed`: a generic 16-wide tile
/// (`NR = 16`, so `[[T; 16]; MR]` accumulators) ran at 0.2× of it,
/// because it spills. Its `f32` kernel widens only the columns, to an
/// `8 × 32` tile of sixteen `zmm` accumulators written with intrinsics.
/// FMA stays off on purpose — a fused multiply-add rounds once where
/// `gemm_naive` rounds twice, so it would change output bits.
pub const MR: usize = 8;

/// Columns of one register micro-tile of the generic body (the
/// tile/`T` dimension). The AVX-512 `f32` kernel's tile is 32 wide.
pub const NR: usize = 8;

/// Channel-loop cache block: the innermost loop walks the reduction
/// dimension in `KC`-sized chunks so the live `KC × NR` slice of the
/// packed `B` panel stays L1-resident. Chosen so that slice is ≤ 2 KiB
/// at `f32` (and the matching `A` micro-panel slice ≤ 1 KiB) — far
/// under any L1 — while still long enough to amortize loop overhead.
pub const KC: usize = 64;

/// Tiles per packed data panel — the unit of the engine's
/// tile-panel-major work decomposition (see `layer.rs`). A panel of
/// `PANEL_TILES` columns bounds the per-work-item footprint of the
/// packed `U` buffer (`n² · C · PANEL_TILES` elements) and, as a
/// multiple of [`NR`], keeps every non-final micro-panel full-width.
pub const PANEL_TILES: usize = 64;

/// Packs row-major `a` (`m × k`, row stride `lda`) into `MR`-row
/// micro-panels: panel `ip` holds rows `ip·MR..ip·MR+MR` laid out
/// `apack[(ip·k + p)·MR + i] = a[(ip·MR + i)·lda + p]`, with rows past
/// `m` zero-filled. The packed buffer has `m.div_ceil(MR)·MR·k`
/// elements and is what [`gemm_packed_a`] consumes.
///
/// Packing is worth a separate entry point because the execution engine
/// packs each layer's kernel bank **once** at preparation time and then
/// replays thousands of GEMMs against it.
///
/// # Panics
///
/// Panics if `lda < k` or `a` is too short for the described matrix.
pub fn pack_a<T: Scalar>(m: usize, k: usize, a: &[T], lda: usize) -> Vec<T> {
    assert!(lda >= k, "row stride {lda} shorter than row length {k}");
    if m > 0 && k > 0 {
        assert!((m - 1) * lda + k <= a.len(), "matrix exceeds the supplied slice");
    }
    let panels = m.div_ceil(MR).max(1);
    let mut apack = vec![T::zero(); panels * k * MR];
    for ip in 0..m.div_ceil(MR) {
        let rows = MR.min(m - ip * MR);
        let dst = &mut apack[ip * k * MR..(ip + 1) * k * MR];
        for i in 0..rows {
            let row = &a[(ip * MR + i) * lda..][..k];
            for (p, &v) in row.iter().enumerate() {
                dst[p * MR + i] = v;
            }
        }
    }
    apack
}

/// One register micro-tile: `acc[i][j] += Σ_p apack[p][i] · bpack[p][j]`
/// over `p = 0..kc`, with `p` strictly increasing — the fixed
/// accumulation order every caller relies on. `apack`/`bpack` are the
/// contiguous micro-panels produced by the packing routines.
///
/// Always inlined, so each instruction-set build of [`gemm_packed_a`]
/// compiles it at its own vector width.
#[inline(always)]
fn micro_kernel<T: Scalar>(kc: usize, apack: &[T], bpack: &[T], acc: &mut [[T; NR]; MR]) {
    for p in 0..kc {
        let arow = &apack[p * MR..p * MR + MR];
        let brow = &bpack[p * NR..p * NR + NR];
        for i in 0..MR {
            let av = arow[i];
            let row = &mut acc[i];
            for j in 0..NR {
                row[j] += av * brow[j];
            }
        }
    }
}

/// `C[m × n] = A[m × k] · B[k × n]` with `A` pre-packed by [`pack_a`]
/// and row-major `B`/`C` (row strides `ldb`/`ldc`). Overwrites `c`.
///
/// This is the engine's hot path: the kernel bank arrives packed once,
/// `B` is packed `NR` columns at a time on the fly, and outputs are
/// produced through [`MR`]`×`[`NR`] register tiles with the channel
/// loop [`KC`]-blocked (the AVX-512 `f32` kernel instead reads `B` in
/// place through `MR × 32` tiles). Every output element accumulates over
/// `p = 0..k` in increasing order, so the result is bitwise identical
/// to [`gemm_naive`] at any shape.
///
/// The kernel runs as the widest instruction-set build the CPU
/// supports (AVX-512, then AVX2, then the portable build; see the
/// module docs). Every build performs the same multiplies and adds in
/// the same order, so they produce the same bits.
///
/// # Panics
///
/// Panics if `apack` has the wrong length for `(m, k)`, `ldb < n`,
/// `ldc < n`, or `b`/`c` are too short for the described matrices.
#[allow(clippy::too_many_arguments)] // BLAS-style flat dims-and-strides signature
pub fn gemm_packed_a<T: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    apack: &[T],
    b: &[T],
    ldb: usize,
    c: &mut [T],
    ldc: usize,
) {
    Tier::best().run(m, n, k, apack, b, ldb, c, ldc);
}

/// One instruction-set build of the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Avx512,
    Avx2,
    Portable,
}

impl Tier {
    /// Every build, widest first.
    const ALL: [Tier; 3] = [Tier::Avx512, Tier::Avx2, Tier::Portable];

    /// Whether this CPU can run the build.
    fn supported(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => {
                std::is_x86_feature_detected!("avx512f")
                    && std::is_x86_feature_detected!("avx512vl")
                    && std::is_x86_feature_detected!("avx512dq")
                    && std::is_x86_feature_detected!("avx512bw")
                    && std::is_x86_feature_detected!("avx2")
            }
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => std::is_x86_feature_detected!("avx2"),
            Tier::Portable => true,
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The widest build this CPU supports, detected once per process.
    fn best() -> Tier {
        static BEST: std::sync::OnceLock<Tier> = std::sync::OnceLock::new();
        *BEST.get_or_init(|| {
            Tier::ALL.into_iter().find(|tier| tier.supported()).unwrap_or(Tier::Portable)
        })
    }

    /// Runs this build of [`gemm_packed_a`]: the AVX-512 `f32` kernel
    /// for `f32` on [`Tier::Avx512`], [`gemm_body`] otherwise.
    ///
    /// # Panics
    ///
    /// Panics on the argument errors [`gemm_packed_a`] lists, and if the
    /// CPU does not [support](Self::supported) the build.
    #[allow(clippy::too_many_arguments)] // BLAS-style flat dims-and-strides signature
    fn run<T: Scalar>(
        self,
        m: usize,
        n: usize,
        k: usize,
        apack: &[T],
        b: &[T],
        ldb: usize,
        c: &mut [T],
        ldc: usize,
    ) {
        assert_eq!(apack.len(), m.div_ceil(MR).max(1) * k * MR, "packed A length mismatch");
        assert!(ldb >= n, "B row stride {ldb} shorter than row length {n}");
        assert!(ldc >= n, "C row stride {ldc} shorter than row length {n}");
        if m == 0 || n == 0 {
            return;
        }
        if k > 0 {
            assert!((k - 1) * ldb + n <= b.len(), "B exceeds the supplied slice");
        }
        assert!((m - 1) * ldc + n <= c.len(), "C exceeds the supplied slice");
        assert!(self.supported(), "the {self:?} GEMM build needs CPU features this CPU lacks");
        match self {
            // SAFETY: both builds only require that the CPU supports
            // AVX-512F/VL/DQ/BW and AVX2, which the assert above checked;
            // the `f32` kernel checks its own offsets.
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            Tier::Avx512 => match (T::as_f32(apack), T::as_f32(b), T::as_f32_mut(c)) {
                (Some(apack), Some(b), Some(c)) => unsafe {
                    gemm_f32_avx512(m, n, k, apack, b, ldb, c, ldc)
                },
                _ => unsafe { gemm_body_avx512(m, n, k, apack, b, ldb, c, ldc) },
            },
            // SAFETY: the build only requires that the CPU supports AVX2,
            // which the assert above checked.
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            Tier::Avx2 => unsafe { gemm_body_avx2(m, n, k, apack, b, ldb, c, ldc) },
            _ => gemm_body(m, n, k, apack, b, ldb, c, ldc),
        }
    }
}

/// [`gemm_body`] compiled for AVX-512, so the micro-kernel runs on
/// 512-bit `zmm` vectors: the AVX-512 build for every scalar but `f32`,
/// which has [`gemm_f32_avx512`]. No FMA: every element stays the same
/// multiply-then-add chain as the portable build, so both produce
/// identical bits.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl,avx512dq,avx512bw,avx2")]
#[allow(clippy::too_many_arguments)] // BLAS-style flat dims-and-strides signature
fn gemm_body_avx512<T: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    apack: &[T],
    b: &[T],
    ldb: usize,
    c: &mut [T],
    ldc: usize,
) {
    gemm_body(m, n, k, apack, b, ldb, c, ldc);
}

/// `f32` lanes in one 512-bit `zmm` register.
#[cfg(target_arch = "x86_64")]
const ZMM_F32: usize = 16;

/// The `f32` kernel of the AVX-512 build: [`MR`]` × 32` register tiles,
/// each row two `zmm` accumulators (one when at most 16 columns are
/// left), sixteen in all. `B` is read in place and `C` written in place
/// through lane masks, so nothing is copied or allocated.
///
/// Each accumulator starts at `+0.0` and runs `acc = acc + a·b` (a
/// multiply, then an add; no FMA) over `p = 0..k` in increasing order,
/// then overwrites `C`: the chain of [`gemm_naive`], so the output bits
/// are those of the portable body.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)] // BLAS-style flat dims-and-strides signature
fn gemm_f32_avx512(
    m: usize,
    n: usize,
    k: usize,
    apack: &[f32],
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
) {
    for j0 in (0..n).step_by(2 * ZMM_F32) {
        let cols = (2 * ZMM_F32).min(n - j0);
        for i0 in (0..m).step_by(MR) {
            let apanel = &apack[(i0 / MR) * k * MR..][..k * MR];
            let rows = MR.min(m - i0);
            let c = &mut c[i0 * ldc + j0..];
            if cols > ZMM_F32 {
                f32_tile_avx512::<2>(apanel, b, ldb, j0, cols, c, ldc, rows);
            } else {
                f32_tile_avx512::<1>(apanel, b, ldb, j0, cols, c, ldc, rows);
            }
        }
    }
}

/// One register tile of [`gemm_f32_avx512`]: rows `0..rows`, columns
/// `0..cols` of `c` (row stride `ldc`) get `apanel · B[.., j0..j0 + cols]`.
/// The tile's columns are `NV` `zmm` vectors, the last one masked down
/// to the columns that are left.
///
/// # Panics
///
/// Panics unless `cols` fills exactly `NV` vectors, `rows ≤ MR`, and
/// the tile lies inside `b` and `c`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
#[allow(unsafe_code, clippy::too_many_arguments)]
fn f32_tile_avx512<const NV: usize>(
    apanel: &[f32],
    b: &[f32],
    ldb: usize,
    j0: usize,
    cols: usize,
    c: &mut [f32],
    ldc: usize,
    rows: usize,
) {
    use std::arch::x86_64::*;
    let k = apanel.len() / MR;
    assert!((NV - 1) * ZMM_F32 < cols && cols <= NV * ZMM_F32, "{cols} columns in {NV} vectors");
    assert!((1..=MR).contains(&rows), "{rows} rows in a tile of {MR}");
    assert!(k == 0 || (k - 1) * ldb + j0 + cols <= b.len(), "tile exceeds B");
    assert!((rows - 1) * ldc + cols <= c.len(), "tile exceeds C");
    // Vector `v` holds columns `v·16..`; its mask keeps those below `cols`.
    let masks: [u16; NV] =
        std::array::from_fn(|v| (0xFFFF >> (ZMM_F32 - (cols - v * ZMM_F32).min(ZMM_F32))) as u16);
    let mut acc = [[_mm512_setzero_ps(); NV]; MR];
    for (p, arow) in apanel.chunks_exact(MR).enumerate() {
        let brow = &b[p * ldb + j0..];
        let mut bv = [_mm512_setzero_ps(); NV];
        for v in 0..NV {
            // SAFETY: the base `v·16 < cols` and the lanes `masks[v]`
            // keeps, `brow[v·16 + l]` with `v·16 + l < cols`, are inside
            // `brow`, because `p ≤ k − 1` and the asserts above give
            // `(k − 1)·ldb + j0 + cols ≤ b.len()`. Masked lanes are not read.
            bv[v] = unsafe { _mm512_maskz_loadu_ps(masks[v], brow.as_ptr().add(v * ZMM_F32)) };
        }
        for i in 0..MR {
            let av = _mm512_set1_ps(arow[i]);
            for v in 0..NV {
                acc[i][v] = _mm512_add_ps(acc[i][v], _mm512_mul_ps(av, bv[v]));
            }
        }
    }
    for (i, acc) in acc.iter().enumerate().take(rows) {
        let crow = &mut c[i * ldc..];
        for v in 0..NV {
            // SAFETY: the base `v·16 < cols` and the lanes `masks[v]`
            // keeps, `crow[v·16 + l]` with `v·16 + l < cols`, are inside
            // `crow`, because `i < rows` and the asserts above give
            // `(rows − 1)·ldc + cols ≤ c.len()`. Masked lanes are not
            // written, so `C` past column `cols` keeps its values.
            unsafe { _mm512_mask_storeu_ps(crow.as_mut_ptr().add(v * ZMM_F32), masks[v], acc[v]) };
        }
    }
}

/// [`gemm_body`] compiled for AVX2, so the micro-kernel runs on 8-lane
/// `ymm` vectors. No FMA: every element stays the same multiply-then-add
/// chain as the portable build, so both produce identical bits.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)] // BLAS-style flat dims-and-strides signature
fn gemm_body_avx2<T: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    apack: &[T],
    b: &[T],
    ldb: usize,
    c: &mut [T],
    ldc: usize,
) {
    gemm_body(m, n, k, apack, b, ldb, c, ldc);
}

/// The portable body of [`gemm_packed_a`], after its argument checks.
/// Always inlined, so each caller compiles it for its own target
/// features.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // BLAS-style flat dims-and-strides signature
fn gemm_body<T: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    apack: &[T],
    b: &[T],
    ldb: usize,
    c: &mut [T],
    ldc: usize,
) {
    // One NR-wide packed B panel, zero-padded on the ragged edge.
    let mut bpack = vec![T::zero(); k.max(1) * NR];
    for j0 in (0..n).step_by(NR) {
        let cols = NR.min(n - j0);
        for p in 0..k {
            let src = &b[p * ldb + j0..p * ldb + j0 + cols];
            let dst = &mut bpack[p * NR..p * NR + NR];
            dst[..cols].copy_from_slice(src);
            for slot in dst[cols..].iter_mut() {
                *slot = T::zero();
            }
        }
        for i0 in (0..m).step_by(MR) {
            let rows = MR.min(m - i0);
            let apanel = &apack[(i0 / MR) * k * MR..];
            let mut acc = [[T::zero(); NR]; MR];
            // KC-blocked channel loop; the accumulator block persists
            // across blocks, so the per-element sum order is exactly
            // p = 0..k no matter how the blocks fall.
            let mut p0 = 0;
            while p0 < k {
                let kc = KC.min(k - p0);
                micro_kernel(kc, &apanel[p0 * MR..], &bpack[p0 * NR..], &mut acc);
                p0 += kc;
            }
            for i in 0..rows {
                let dst = &mut c[(i0 + i) * ldc + j0..(i0 + i) * ldc + j0 + cols];
                dst.copy_from_slice(&acc[i][..cols]);
            }
        }
    }
}

/// `C[m × n] = A[m × k] · B[k × n]`, all operands row-major with
/// explicit row strides, through the packed micro-kernel. Packs `A`
/// internally; callers replaying many multiplies against one `A` (the
/// engine) should [`pack_a`] once and use [`gemm_packed_a`].
///
/// Bitwise identical to [`gemm_naive`] for every shape, stride and
/// [`Scalar`] instantiation.
///
/// # Panics
///
/// Panics on the same stride/length mismatches as [`pack_a`] and
/// [`gemm_packed_a`].
#[allow(clippy::too_many_arguments)] // BLAS-style flat dims-and-strides signature
pub fn gemm<T: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    c: &mut [T],
    ldc: usize,
) {
    let apack = pack_a(m, k, a, lda);
    gemm_packed_a(m, n, k, &apack, b, ldb, c, ldc);
}

/// The reference multiply: the naive three-loop per-coordinate product
/// the engine ran before the packed kernel existed, kept as the
/// semantics oracle. `c[i][j] = Σ_p a[i][p] · b[p][j]`, accumulated
/// with `p` strictly increasing. Overwrites `c`.
///
/// # Panics
///
/// Panics if a stride is shorter than its row or a slice is too short.
#[allow(clippy::too_many_arguments)] // BLAS-style flat dims-and-strides signature
pub fn gemm_naive<T: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    c: &mut [T],
    ldc: usize,
) {
    assert!(lda >= k && ldb >= n && ldc >= n, "stride shorter than row");
    for i in 0..m {
        for j in 0..n {
            let mut acc = T::zero();
            for p in 0..k {
                acc += a[i * lda + p] * b[p * ldb + j];
            }
            c[i * ldc + j] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wino_tensor::{Fixed, SplitMix64};

    fn filled(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = SplitMix64::new(seed);
        (0..len).map(|_| rng.uniform_f32(-1.0, 1.0)).collect()
    }

    #[test]
    fn packed_matches_naive_on_awkward_shapes() {
        for (m, n, k) in [(1, 1, 1), (3, 7, 5), (4, 8, 64), (13, 17, 9), (129, 65, 130)] {
            let a = filled(m * k, 1);
            let b = filled(k * n, 2);
            let mut fast = vec![0.0f32; m * n];
            let mut slow = vec![0.0f32; m * n];
            gemm(m, n, k, &a, k, &b, n, &mut fast, n);
            gemm_naive(m, n, k, &a, k, &b, n, &mut slow, n);
            assert_eq!(fast, slow, "m={m} n={n} k={k}");
        }
    }

    #[test]
    fn strided_operands_match_naive() {
        let (m, n, k) = (5, 9, 6);
        let (lda, ldb, ldc) = (k + 3, n + 2, n + 5);
        let a = filled(m * lda, 3);
        let b = filled(k * ldb, 4);
        let mut fast = vec![0.0f32; m * ldc];
        let mut slow = fast.clone();
        gemm(m, n, k, &a, lda, &b, ldb, &mut fast, ldc);
        gemm_naive(m, n, k, &a, lda, &b, ldb, &mut slow, ldc);
        assert_eq!(fast, slow);
    }

    #[test]
    fn fixed_point_matches_naive_bitwise() {
        let (m, n, k) = (6, 10, 7);
        let a: Vec<Fixed<10>> = filled(m * k, 5).iter().map(|&x| Fixed::from_f32(x)).collect();
        let b: Vec<Fixed<10>> = filled(k * n, 6).iter().map(|&x| Fixed::from_f32(x)).collect();
        let mut fast = vec![Fixed::<10>::ZERO; m * n];
        let mut slow = fast.clone();
        gemm(m, n, k, &a, k, &b, n, &mut fast, n);
        gemm_naive(m, n, k, &a, k, &b, n, &mut slow, n);
        assert_eq!(fast, slow);
    }

    /// Runs every instruction-set build the CPU supports and the
    /// portable body on the same operands and asserts equal bits.
    /// Shapes cover `m, n < MR, NR`, ragged edges on both axes, `k`
    /// beyond one and two `KC` blocks, `n` on both sides of the AVX-512
    /// `f32` kernel's 16- and 32-column blocks, `k = 0` (`C` overwritten
    /// with zeros), and strided `B`/`C` whose slack columns must stay
    /// untouched. Returns the builds that ran.
    fn every_tier_matches_portable<T: Scalar>(
        conv: impl Fn(f32) -> T,
        bits: impl Fn(T) -> u64,
    ) -> Vec<Tier> {
        let tiers: Vec<Tier> = Tier::ALL.into_iter().filter(|t| t.supported()).collect();
        for (m, n, k, slack) in [
            (3, 5, 1, 0),
            (7, 6, KC + 5, 3),
            (9, 17, 2 * KC + 1, 1),
            (16, 8, KC, 0),
            (13, 70, 130, 2),
            (8, 16, 9, 3),
            (11, 31, KC + 1, 1),
            (8, 32, 40, 2),
            (17, 33, 7, 1),
            (9, 49, 2 * KC, 3),
            (5, 64, 12, 1),
            (16, 65, KC, 2),
            (10, 33, 0, 2),
        ] {
            let (ldb, ldc) = (n + slack, n + 2 * slack);
            let a: Vec<T> = filled(m * k, 7).into_iter().map(&conv).collect();
            let b: Vec<T> = filled(k * ldb, 8).into_iter().map(&conv).collect();
            let apack = pack_a(m, k, &a, k);
            let c0: Vec<T> = filled(m * ldc, 9).into_iter().map(&conv).collect();
            let mut portable = c0.clone();
            gemm_body(m, n, k, &apack, &b, ldb, &mut portable, ldc);
            let portable: Vec<u64> = portable.into_iter().map(&bits).collect();
            for &tier in &tiers {
                let mut out = c0.clone();
                tier.run(m, n, k, &apack, &b, ldb, &mut out, ldc);
                let out: Vec<u64> = out.into_iter().map(&bits).collect();
                assert_eq!(out, portable, "{tier:?}: m={m} n={n} k={k} slack={slack}");
            }
            let mut dispatched = c0;
            gemm_packed_a(m, n, k, &apack, &b, ldb, &mut dispatched, ldc);
            let dispatched: Vec<u64> = dispatched.into_iter().map(&bits).collect();
            assert_eq!(dispatched, portable, "dispatched: m={m} n={n} k={k} slack={slack}");
        }
        tiers
    }

    #[test]
    fn every_tier_is_bitwise_the_portable_body() {
        let tiers = every_tier_matches_portable(|x| x, |x: f32| u64::from(x.to_bits()));
        every_tier_matches_portable(f64::from, f64::to_bits);
        // Scaled so long channel sums saturate: saturating adds do not
        // commute, so any reordering would show.
        every_tier_matches_portable(|x| Fixed::<8>::from_f32(4096.0 * x), |x| x.to_f64().to_bits());
        every_tier_matches_portable(|x| Fixed::<14>::from_f32(256.0 * x), |x| x.to_f64().to_bits());
        assert_eq!(tiers.first(), Some(&Tier::best()), "dispatch takes the widest build");
        println!("GEMM builds checked on this CPU: {tiers:?}");
        println!(
            "AVX-512 f32 kernel: {}",
            if tiers.contains(&Tier::Avx512) { "ran" } else { "not run (no AVX-512)" }
        );
    }

    #[test]
    fn degenerate_dimensions_are_safe() {
        // k = 0: every output is an empty sum, i.e. zero (overwrite).
        let mut c = vec![1.0f32; 6];
        gemm(2, 3, 0, &[], 0, &[], 3, &mut c, 3);
        assert_eq!(c, vec![0.0; 6]);
        // m = 0 / n = 0: nothing to write, nothing read out of bounds.
        gemm::<f32>(0, 3, 2, &[], 2, &[0.0; 6], 3, &mut [], 3);
        gemm::<f32>(2, 0, 2, &[0.0; 4], 2, &[], 0, &mut [], 0);
    }

    #[test]
    fn pack_a_zero_fills_the_ragged_panel() {
        // m = MR + 1 leaves a single-row trailing panel; its other
        // MR − 1 rows must be zero so the shared micro-kernel stays
        // exact.
        let m = MR + 1;
        let k = 3;
        let a: Vec<f32> = (0..m * k).map(|x| x as f32 + 1.0).collect();
        let apack = pack_a(m, k, &a, k);
        assert_eq!(apack.len(), 2 * k * MR);
        // Trailing panel, channel 0: the last row of `a`, then zeros.
        assert_eq!(apack[k * MR], (MR * k) as f32 + 1.0);
        assert!(apack[k * MR + 1..k * MR + MR].iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "stride")]
    fn short_stride_is_rejected() {
        let mut c = [0.0f32; 4];
        gemm(2, 2, 3, &[0.0; 6], 2, &[0.0; 6], 2, &mut c, 2);
    }
}
