//! Exact generation of Winograd transform matrices `(Aᵀ, G, Bᵀ)`.
//!
//! A 1-D minimal filtering algorithm `F(m, r)` computes `m` correlation
//! outputs from `n = m + r − 1` data points and `r` filter taps with only
//! `n` multiplications via `Y = Aᵀ[(G g) ⊙ (Bᵀ d)]` (paper Eq. 2). The
//! matrices are built with the Cook–Toom method over exact rationals:
//!
//! * `n − 1` distinct finite interpolation points `a_i` (plus the implicit
//!   "infinity" point) define `M(x) = Π(x − a_i)`;
//! * finite rows: `G[i] = [1, a_i, …, a_i^{r−1}]/N_i` with
//!   `N_i = Π_{j≠i}(a_i − a_j)`, `Bᵀ[i]` = coefficients of
//!   `M_i(x) = M(x)/(x − a_i)`, `Aᵀ[·][i] = [1, a_i, …, a_i^{m−1}]ᵀ`;
//! * the infinity row of `Bᵀ` is *solved* from the bilinear exactness
//!   condition and the full identity is re-verified, so a generated
//!   [`TransformSet`] is correct by construction — a violation is reported
//!   as an error, never returned as a wrong matrix.
//!
//! ```
//! use wino_core::{TransformSet, WinogradParams};
//!
//! let f23 = TransformSet::generate(WinogradParams::new(2, 3)?)?;
//! assert_eq!(f23.bt().rows(), 4); // n = m + r - 1 = 4
//! f23.verify()?;                  // Aᵀ[(Gg)⊙(Bᵀd)] ≡ correlation, exactly
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::{ParamError, WinogradParams};
use std::fmt;
use wino_tensor::{ratio, Ratio, Scalar, Tensor2};

/// Errors produced while generating or validating transform matrices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransformError {
    /// Invalid `F(m, r)` parameters.
    Params(ParamError),
    /// The supplied interpolation points were not pairwise distinct.
    DuplicatePoints(Ratio),
    /// Wrong number of interpolation points (needs `m + r − 2`).
    PointCount {
        /// Number of points required.
        expected: usize,
        /// Number of points supplied.
        actual: usize,
    },
    /// The bilinear identity `Σ_i Aᵀ[j,i]·G[i,s]·Bᵀ[i,t] = [t = j+s]`
    /// failed at the reported coordinates — the matrices do not implement
    /// a minimal filtering algorithm.
    IdentityViolation {
        /// Output index `j`.
        j: usize,
        /// Filter index `s`.
        s: usize,
        /// Data index `t`.
        t: usize,
    },
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::Params(e) => write!(f, "{e}"),
            TransformError::DuplicatePoints(p) => {
                write!(f, "interpolation point {p} is not distinct")
            }
            TransformError::PointCount { expected, actual } => {
                write!(f, "expected {expected} interpolation points, got {actual}")
            }
            TransformError::IdentityViolation { j, s, t } => {
                write!(f, "bilinear identity violated at (j={j}, s={s}, t={t})")
            }
        }
    }
}

impl std::error::Error for TransformError {}

impl From<ParamError> for TransformError {
    fn from(e: ParamError) -> TransformError {
        TransformError::Params(e)
    }
}

/// The canonical interpolation-point sequence `0, 1, −1, 2, −2, ½, −½, …`
/// used by Lavin's `wincnn`; small symmetric values keep both the exact
/// entries and the fp32 rounding error small.
///
/// ```
/// use wino_core::canonical_points;
/// use wino_tensor::ratio;
///
/// assert_eq!(canonical_points(3), vec![ratio(0, 1), ratio(1, 1), ratio(-1, 1)]);
/// ```
///
/// # Panics
///
/// Panics if more than 15 points are requested (transform sizes beyond
/// [`WinogradParams`] limits).
pub fn canonical_points(count: usize) -> Vec<Ratio> {
    const SEQ: [(i128, i128); 15] = [
        (0, 1),
        (1, 1),
        (-1, 1),
        (2, 1),
        (-2, 1),
        (1, 2),
        (-1, 2),
        (3, 1),
        (-3, 1),
        (3, 2),
        (-3, 2),
        (4, 1),
        (-4, 1),
        (1, 4),
        (-1, 4),
    ];
    assert!(count <= SEQ.len(), "at most {} canonical points are defined", SEQ.len());
    SEQ[..count].iter().map(|&(n, d)| ratio(n, d)).collect()
}

/// Ascending-power coefficients of `Π(x − a_i)`.
fn poly_from_roots(roots: &[Ratio]) -> Vec<Ratio> {
    let mut coeffs = vec![Ratio::ONE];
    for &root in roots {
        // coeffs := coeffs * (x - root)
        let mut next = vec![Ratio::ZERO; coeffs.len() + 1];
        for (k, &c) in coeffs.iter().enumerate() {
            next[k + 1] += c;
            next[k] += -root * c;
        }
        coeffs = next;
    }
    coeffs
}

/// Real-valued (lossy) copies of a [`TransformSet`], ready for numeric
/// kernels. Obtain one through [`TransformSet::to_scalar`] or the `to_f32`
/// / `to_f64` shorthands.
///
/// Besides the raw matrices, this type provides the *allocation-free*
/// per-tile transform application ([`apply_data`](Self::apply_data),
/// [`apply_kernel`](Self::apply_kernel),
/// [`apply_inverse`](Self::apply_inverse)) that execution engines run in
/// their inner loops: flat row-major slices in, flat slices out, with one
/// caller-owned scratch buffer and no heap traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct RealTransforms<T> {
    params: WinogradParams,
    /// Inverse transform, `m × n`.
    pub at: Tensor2<T>,
    /// Filter transform, `n × r`.
    pub g: Tensor2<T>,
    /// Data transform, `n × n`.
    pub bt: Tensor2<T>,
}

/// `out = a · b` where `b` is a flat row-major `a.cols() × cols` block.
fn mul_into<T: Scalar>(a: &Tensor2<T>, b: &[T], cols: usize, out: &mut [T]) {
    for i in 0..a.rows() {
        let out_row = &mut out[i * cols..(i + 1) * cols];
        for x in out_row.iter_mut() {
            *x = T::zero();
        }
        for (k, &aik) in a.row(i).iter().enumerate() {
            if aik == T::zero() {
                continue;
            }
            let b_row = &b[k * cols..(k + 1) * cols];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += aik * bv;
            }
        }
    }
}

/// `out = t · mᵀ` where `t` is a flat row-major `rows × cols` block and
/// `m` is `? × cols` (each output row has `m.rows()` entries).
fn mul_transposed_into<T: Scalar>(
    t: &[T],
    rows: usize,
    cols: usize,
    m: &Tensor2<T>,
    out: &mut [T],
) {
    let out_cols = m.rows();
    for i in 0..rows {
        let t_row = &t[i * cols..(i + 1) * cols];
        for j in 0..out_cols {
            let mut acc = T::zero();
            for (&a, &b) in t_row.iter().zip(m.row(j)) {
                acc += a * b;
            }
            out[i * out_cols + j] = acc;
        }
    }
}

impl<T: Scalar> RealTransforms<T> {
    /// The `F(m, r)` parameters these matrices implement.
    pub fn params(&self) -> WinogradParams {
        self.params
    }

    /// Minimum scratch length the `apply_*` methods require: `n²` with
    /// `n = m + r − 1`.
    pub fn scratch_len(&self) -> usize {
        self.params.mults_per_tile_2d()
    }

    /// Data transform `U = Bᵀ d B` on a flat row-major `n × n` tile —
    /// the allocation-free counterpart of
    /// [`WinogradAlgorithm::transform_data`](crate::WinogradAlgorithm::transform_data).
    ///
    /// ```
    /// use wino_core::{TransformSet, WinogradAlgorithm, WinogradParams};
    /// use wino_tensor::Tensor2;
    ///
    /// let params = WinogradParams::new(2, 3)?;
    /// let real = TransformSet::generate(params)?.to_f32();
    /// let tile: [f32; 16] = std::array::from_fn(|i| i as f32);
    /// let (mut u, mut scratch) = ([0.0f32; 16], [0.0f32; 16]);
    /// real.apply_data(&tile, &mut u, &mut scratch);
    /// let reference = WinogradAlgorithm::<f32>::for_params(params)?;
    /// let expect = reference.transform_data(&Tensor2::from_vec(4, 4, tile.to_vec()));
    /// assert_eq!(u.as_slice(), expect.as_slice());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Panics
    ///
    /// Panics when `tile` or `out` is not `n²` long or `scratch` is
    /// shorter than [`scratch_len`](Self::scratch_len).
    pub fn apply_data(&self, tile: &[T], out: &mut [T], scratch: &mut [T]) {
        let n = self.params.input_tile();
        assert_eq!(tile.len(), n * n, "data tile must be n*n = {}", n * n);
        assert_eq!(out.len(), n * n, "data output must be n*n = {}", n * n);
        assert!(scratch.len() >= n * n, "scratch must hold at least n*n = {}", n * n);
        mul_into(&self.bt, tile, n, scratch);
        mul_transposed_into(scratch, n, n, &self.bt, out);
    }

    /// Filter transform `V = G g Gᵀ` from a flat row-major `r × r`
    /// kernel into a flat `n × n` output.
    ///
    /// # Panics
    ///
    /// Panics when `kernel` is not `r²` long, `out` is not `n²` long, or
    /// `scratch` is shorter than `n·r` (a
    /// [`scratch_len`](Self::scratch_len)-sized buffer always suffices).
    pub fn apply_kernel(&self, kernel: &[T], out: &mut [T], scratch: &mut [T]) {
        let n = self.params.input_tile();
        let r = self.params.r();
        assert_eq!(kernel.len(), r * r, "kernel must be r*r = {}", r * r);
        assert_eq!(out.len(), n * n, "kernel output must be n*n = {}", n * n);
        assert!(scratch.len() >= n * r, "scratch must hold at least n*r = {}", n * r);
        mul_into(&self.g, kernel, r, scratch);
        mul_transposed_into(scratch, n, r, &self.g, out);
    }

    /// Inverse transform `Y = Aᵀ M A`: a flat `n × n` element-wise
    /// product block down to the flat `m × m` output tile.
    ///
    /// # Panics
    ///
    /// Panics when `product` is not `n²` long, `out` is not `m²` long,
    /// or `scratch` is shorter than `m·n` (a
    /// [`scratch_len`](Self::scratch_len)-sized buffer always suffices).
    pub fn apply_inverse(&self, product: &[T], out: &mut [T], scratch: &mut [T]) {
        let n = self.params.input_tile();
        let m = self.params.m();
        assert_eq!(product.len(), n * n, "product must be n*n = {}", n * n);
        assert_eq!(out.len(), m * m, "inverse output must be m*m = {}", m * m);
        assert!(scratch.len() >= m * n, "scratch must hold at least m*n = {}", m * n);
        mul_into(&self.at, product, n, scratch);
        mul_transposed_into(scratch, m, n, &self.at, out);
    }
}

/// Exact Winograd transform matrices for one `F(m, r)` configuration,
/// built with the Cook–Toom method over exact rationals and re-verified
/// against the bilinear exactness condition before being returned (see
/// the construction walk-through at the top of this file's docs,
/// surfaced on the crate page).
#[derive(Debug, Clone, PartialEq)]
pub struct TransformSet {
    params: WinogradParams,
    points: Vec<Ratio>,
    at: Tensor2<Ratio>,
    g: Tensor2<Ratio>,
    bt: Tensor2<Ratio>,
}

impl TransformSet {
    /// Generates the transform set for `params` using the
    /// [canonical points](canonical_points).
    ///
    /// # Errors
    ///
    /// Propagates any [`TransformError`]; with canonical points the
    /// identity always holds, so failures indicate parameter abuse only.
    pub fn generate(params: WinogradParams) -> Result<TransformSet, TransformError> {
        let finite = params.input_tile() - 1;
        TransformSet::with_points(params, &canonical_points(finite))
    }

    /// Generates the transform set with caller-chosen finite interpolation
    /// points (the n-th point is always "infinity").
    ///
    /// # Errors
    ///
    /// Returns [`TransformError::PointCount`] or
    /// [`TransformError::DuplicatePoints`] on bad inputs, and
    /// [`TransformError::IdentityViolation`] if the construction fails the
    /// built-in exactness proof (which cannot happen for distinct points).
    pub fn with_points(
        params: WinogradParams,
        points: &[Ratio],
    ) -> Result<TransformSet, TransformError> {
        let m = params.m();
        let r = params.r();
        let n = params.input_tile();

        // Degenerate algorithms: r = 1 is pure scaling, m = 1 is a dot
        // product; both already use the minimal number of multiplications
        // with identity-like transforms.
        if r == 1 || m == 1 {
            return Ok(TransformSet::trivial(params));
        }

        let finite = n - 1;
        if points.len() != finite {
            return Err(TransformError::PointCount { expected: finite, actual: points.len() });
        }
        for (i, &p) in points.iter().enumerate() {
            if points[..i].contains(&p) {
                return Err(TransformError::DuplicatePoints(p));
            }
        }

        let mut at = Tensor2::<Ratio>::zeros(m, n);
        let mut g = Tensor2::<Ratio>::zeros(n, r);
        let mut bt = Tensor2::<Ratio>::zeros(n, n);

        let m_poly = poly_from_roots(points); // degree n-1, len n

        for (i, &a) in points.iter().enumerate() {
            // N_i = prod_{j != i} (a_i - a_j)
            let n_i: Ratio =
                points.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, &b)| a - b).product();
            // G row: powers of a_i scaled by 1/N_i.
            let mut pow = Ratio::ONE;
            for s in 0..r {
                g[(i, s)] = pow / n_i;
                pow *= a;
            }
            // A^T column: powers of a_i.
            let mut pow = Ratio::ONE;
            for j in 0..m {
                at[(j, i)] = pow;
                pow *= a;
            }
            // B^T row: coefficients of M_i(x) = M(x)/(x - a_i), by synthetic
            // division (exact because a_i is a root of M).
            let mut quotient = vec![Ratio::ZERO; n - 1];
            let mut carry = m_poly[n - 1];
            for t in (0..n - 1).rev() {
                quotient[t] = carry;
                carry = m_poly[t] + a * carry;
            }
            debug_assert!(carry.is_zero(), "synthetic division must be exact");
            for (t, &q) in quotient.iter().enumerate() {
                bt[(i, t)] = q;
            }
        }

        // wincnn convention: keep the first row's filter coefficient
        // positive by flipping the (G, B^T) row pair when N_0 < 0.
        if g[(0, 0)] < Ratio::ZERO {
            for s in 0..r {
                g[(0, s)] = -g[(0, s)];
            }
            for t in 0..n {
                bt[(0, t)] = -bt[(0, t)];
            }
        }

        // Infinity pseudo-point: G row e_{r-1}, A^T column e_{m-1}; the B^T
        // row is the unique vector completing the bilinear identity.
        g[(n - 1, r - 1)] = Ratio::ONE;
        at[(m - 1, n - 1)] = Ratio::ONE;
        for t in 0..n {
            let mut finite_part = Ratio::ZERO;
            for i in 0..n - 1 {
                finite_part += at[(m - 1, i)] * g[(i, r - 1)] * bt[(i, t)];
            }
            let target = if t == n - 1 { Ratio::ONE } else { Ratio::ZERO };
            bt[(n - 1, t)] = target - finite_part;
        }

        let set = TransformSet { params, points: points.to_vec(), at, g, bt };
        set.verify()?;
        Ok(set)
    }

    /// Identity-style transforms for the degenerate cases `m = 1`
    /// (dot product) and `r = 1` (scaling).
    fn trivial(params: WinogradParams) -> TransformSet {
        let m = params.m();
        let r = params.r();
        let n = params.input_tile();
        let eye = |rows: usize, cols: usize| {
            Tensor2::from_fn(rows, cols, |i, j| if i == j { Ratio::ONE } else { Ratio::ZERO })
        };
        let (at, g, bt) = if r == 1 {
            // y_j = d_j * g_0
            (eye(m, n), Tensor2::from_fn(n, 1, |_, _| Ratio::ONE), eye(n, n))
        } else {
            // m = 1: y_0 = sum_i d_i g_i
            (Tensor2::from_fn(1, n, |_, _| Ratio::ONE), eye(n, r), eye(n, n))
        };
        TransformSet { params, points: Vec::new(), at, g, bt }
    }

    /// The `F(m, r)` parameters.
    pub fn params(&self) -> WinogradParams {
        self.params
    }

    /// Finite interpolation points used by the construction (empty for the
    /// degenerate `m = 1` / `r = 1` algorithms).
    pub fn points(&self) -> &[Ratio] {
        &self.points
    }

    /// Inverse transform `Aᵀ` (`m × n`).
    pub fn at(&self) -> &Tensor2<Ratio> {
        &self.at
    }

    /// Filter transform `G` (`n × r`).
    pub fn g(&self) -> &Tensor2<Ratio> {
        &self.g
    }

    /// Data transform `Bᵀ` (`n × n`).
    pub fn bt(&self) -> &Tensor2<Ratio> {
        &self.bt
    }

    /// Checks the exact bilinear identity
    /// `Σ_i Aᵀ[j,i]·G[i,s]·Bᵀ[i,t] = [t = j + s]` for every `(j, s, t)` —
    /// equivalent to `Aᵀ[(Gg)⊙(Bᵀd)]` computing the correlation for *all*
    /// inputs.
    ///
    /// # Errors
    ///
    /// Returns [`TransformError::IdentityViolation`] at the first failing
    /// coordinate.
    pub fn verify(&self) -> Result<(), TransformError> {
        let m = self.params.m();
        let r = self.params.r();
        let n = self.params.input_tile();
        for j in 0..m {
            for s in 0..r {
                for t in 0..n {
                    let mut sum = Ratio::ZERO;
                    for i in 0..n {
                        sum += self.at[(j, i)] * self.g[(i, s)] * self.bt[(i, t)];
                    }
                    let expect = if t == j + s { Ratio::ONE } else { Ratio::ZERO };
                    if sum != expect {
                        return Err(TransformError::IdentityViolation { j, s, t });
                    }
                }
            }
        }
        Ok(())
    }

    /// Converts the exact matrices to any [`Scalar`] type via `f64`
    /// (exact for dyadic entries; ±1 ULP for entries like `1/6`).
    pub fn to_scalar<T: Scalar>(&self) -> RealTransforms<T> {
        RealTransforms {
            params: self.params,
            at: self.at.map(|x| T::from_f64(x.to_f64())),
            g: self.g.map(|x| T::from_f64(x.to_f64())),
            bt: self.bt.map(|x| T::from_f64(x.to_f64())),
        }
    }

    /// Single-precision copies (the paper's datapath precision).
    pub fn to_f32(&self) -> RealTransforms<f32> {
        self.to_scalar()
    }

    /// Double-precision copies.
    pub fn to_f64(&self) -> RealTransforms<f64> {
        self.to_scalar()
    }

    /// Largest absolute entry across the three matrices — a cheap proxy for
    /// the numerical conditioning of the algorithm, which degrades as `m`
    /// grows (the reason fp32 Winograd beyond `m ≈ 6` loses precision).
    pub fn max_abs_entry(&self) -> Ratio {
        let mut best = Ratio::ZERO;
        for mat in [&self.at, &self.g, &self.bt] {
            for &x in mat.as_slice() {
                if x.abs() > best {
                    best = x.abs();
                }
            }
        }
        best
    }
}

impl fmt::Display for TransformSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} transforms:", self.params)?;
        for (name, mat) in [("A^T", &self.at), ("G", &self.g), ("B^T", &self.bt)] {
            writeln!(f, "{name} =")?;
            for r in 0..mat.rows() {
                write!(f, "  [")?;
                for c in 0..mat.cols() {
                    write!(f, "{:>8}", mat[(r, c)].to_string())?;
                    if c + 1 < mat.cols() {
                        write!(f, ", ")?;
                    }
                }
                writeln!(f, "]")?;
            }
        }
        Ok(())
    }
}

/// Reference matrices published by Lavin ("Fast Algorithms for
/// Convolutional Neural Networks", 2015) used as golden test vectors.
pub mod lavin {
    use wino_tensor::{ratio, Ratio, Tensor2};

    /// Lavin's `F(2, 3)` inverse transform `Aᵀ`.
    pub fn f23_at() -> Tensor2<Ratio> {
        let i = |x: i128| ratio(x, 1);
        Tensor2::from_rows(&[&[i(1), i(1), i(1), i(0)], &[i(0), i(1), i(-1), i(-1)]])
    }

    /// Lavin's `F(2, 3)` filter transform `G`.
    pub fn f23_g() -> Tensor2<Ratio> {
        let h = |n: i128, d: i128| ratio(n, d);
        Tensor2::from_rows(&[
            &[h(1, 1), h(0, 1), h(0, 1)],
            &[h(1, 2), h(1, 2), h(1, 2)],
            &[h(1, 2), h(-1, 2), h(1, 2)],
            &[h(0, 1), h(0, 1), h(1, 1)],
        ])
    }

    /// Lavin's `F(2, 3)` data transform `Bᵀ`.
    pub fn f23_bt() -> Tensor2<Ratio> {
        let i = |x: i128| ratio(x, 1);
        Tensor2::from_rows(&[
            &[i(1), i(0), i(-1), i(0)],
            &[i(0), i(1), i(1), i(0)],
            &[i(0), i(-1), i(1), i(0)],
            &[i(0), i(1), i(0), i(-1)],
        ])
    }

    /// Lavin's `F(4, 3)` data transform `Bᵀ`.
    pub fn f43_bt() -> Tensor2<Ratio> {
        let i = |x: i128| ratio(x, 1);
        Tensor2::from_rows(&[
            &[i(4), i(0), i(-5), i(0), i(1), i(0)],
            &[i(0), i(-4), i(-4), i(1), i(1), i(0)],
            &[i(0), i(4), i(-4), i(-1), i(1), i(0)],
            &[i(0), i(-2), i(-1), i(2), i(1), i(0)],
            &[i(0), i(2), i(-1), i(-2), i(1), i(0)],
            &[i(0), i(4), i(0), i(-5), i(0), i(1)],
        ])
    }

    /// Lavin's `F(4, 3)` filter transform `G`.
    pub fn f43_g() -> Tensor2<Ratio> {
        let h = |n: i128, d: i128| ratio(n, d);
        Tensor2::from_rows(&[
            &[h(1, 4), h(0, 1), h(0, 1)],
            &[h(-1, 6), h(-1, 6), h(-1, 6)],
            &[h(-1, 6), h(1, 6), h(-1, 6)],
            &[h(1, 24), h(1, 12), h(1, 6)],
            &[h(1, 24), h(-1, 12), h(1, 6)],
            &[h(0, 1), h(0, 1), h(1, 1)],
        ])
    }

    /// Lavin's `F(4, 3)` inverse transform `Aᵀ`.
    pub fn f43_at() -> Tensor2<Ratio> {
        let i = |x: i128| ratio(x, 1);
        Tensor2::from_rows(&[
            &[i(1), i(1), i(1), i(1), i(1), i(0)],
            &[i(0), i(1), i(-1), i(2), i(-2), i(0)],
            &[i(0), i(1), i(1), i(4), i(4), i(0)],
            &[i(0), i(1), i(-1), i(8), i(-8), i(1)],
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(m: usize, r: usize) -> TransformSet {
        TransformSet::generate(WinogradParams::new(m, r).unwrap()).unwrap()
    }

    /// Two algorithms are equivalent when each multiplier's (G row, B^T
    /// row) pair matches up to a common sign, with the sign of the
    /// infinity multiplier carried by the A^T column instead.
    fn assert_equivalent(
        ours: &TransformSet,
        at: &Tensor2<Ratio>,
        g: &Tensor2<Ratio>,
        bt: &Tensor2<Ratio>,
    ) {
        let n = ours.params().input_tile();
        let m = ours.params().m();
        let r = ours.params().r();
        for i in 0..n {
            // Determine relative sign from the first nonzero of the B rows.
            let mut sign = None;
            for t in 0..n {
                let a = ours.bt()[(i, t)];
                let b = bt[(i, t)];
                if a.is_zero() != b.is_zero() {
                    panic!("B^T sparsity differs at row {i}, col {t}");
                }
                if !a.is_zero() && sign.is_none() {
                    sign = Some(a / b);
                }
            }
            let s = sign.expect("zero B^T row");
            assert!(s == Ratio::ONE || s == -Ratio::ONE, "rows differ by non-sign factor {s}");
            for t in 0..n {
                assert_eq!(ours.bt()[(i, t)], s * bt[(i, t)], "B^T row {i}");
            }
            // Compensating sign lives in G (finite rows) or A^T (infinity).
            for q in 0..r {
                let expect = if i == n - 1 { g[(i, q)] } else { s * g[(i, q)] };
                assert_eq!(ours.g()[(i, q)], expect, "G row {i}");
            }
            for j in 0..m {
                let expect = if i == n - 1 { s * at[(j, i)] } else { at[(j, i)] };
                assert_eq!(ours.at()[(j, i)], expect, "A^T col {i} row {j}");
            }
        }
    }

    #[test]
    fn f23_matches_lavin_up_to_sign() {
        let s = set(2, 3);
        assert_equivalent(&s, &lavin::f23_at(), &lavin::f23_g(), &lavin::f23_bt());
    }

    #[test]
    fn f43_matches_lavin_exactly() {
        let s = set(4, 3);
        assert_eq!(*s.bt(), lavin::f43_bt(), "B^T");
        assert_eq!(*s.g(), lavin::f43_g(), "G");
        assert_eq!(*s.at(), lavin::f43_at(), "A^T");
    }

    #[test]
    fn identity_holds_for_paper_range() {
        // The paper sweeps m = 2..7 with r = 3; we also cover r = 2, 4, 5.
        for r in 2..=5 {
            for m in 2..=8 {
                let s = set(m, r);
                s.verify().unwrap_or_else(|e| panic!("F({m},{r}): {e}"));
                assert_eq!(s.bt().rows(), m + r - 1);
                assert_eq!(s.g().cols(), r);
                assert_eq!(s.at().rows(), m);
            }
        }
    }

    #[test]
    fn trivial_cases_verify() {
        for (m, r) in [(1, 3), (1, 5), (3, 1), (1, 1)] {
            let s = set(m, r);
            s.verify().unwrap_or_else(|e| panic!("F({m},{r}): {e}"));
        }
    }

    #[test]
    fn duplicate_points_rejected() {
        let params = WinogradParams::new(2, 3).unwrap();
        let pts = [ratio(0, 1), ratio(1, 1), ratio(1, 1)];
        assert!(matches!(
            TransformSet::with_points(params, &pts),
            Err(TransformError::DuplicatePoints(_))
        ));
    }

    #[test]
    fn wrong_point_count_rejected() {
        let params = WinogradParams::new(2, 3).unwrap();
        assert_eq!(
            TransformSet::with_points(params, &[ratio(0, 1)]),
            Err(TransformError::PointCount { expected: 3, actual: 1 })
        );
    }

    #[test]
    fn alternative_points_still_verify() {
        let params = WinogradParams::new(3, 3).unwrap();
        let pts = [ratio(0, 1), ratio(2, 1), ratio(-2, 1), ratio(1, 3)];
        let s = TransformSet::with_points(params, &pts).unwrap();
        s.verify().unwrap();
        assert_eq!(s.points(), &pts);
    }

    #[test]
    fn conditioning_grows_with_m() {
        // Larger tiles need larger interpolation points; the max entry of
        // the transforms grows, explaining fp32 error growth.
        let e2 = set(2, 3).max_abs_entry();
        let e4 = set(4, 3).max_abs_entry();
        let e6 = set(6, 3).max_abs_entry();
        assert!(e2 < e4 && e4 < e6, "{e2} < {e4} < {e6}");
    }

    #[test]
    fn slice_apply_matches_matrix_path_for_all_stages() {
        use crate::WinogradAlgorithm;
        use wino_tensor::SplitMix64;

        let mut rng = SplitMix64::new(77);
        for (m, r) in [(2usize, 3usize), (3, 3), (4, 3), (2, 5), (6, 3)] {
            let s = set(m, r);
            let real = s.to_f32();
            let algo = WinogradAlgorithm::<f32>::new(&s);
            let n = m + r - 1;
            let mut scratch = vec![0f32; real.scratch_len()];

            let tile = Tensor2::from_fn(n, n, |_, _| rng.uniform_f32(-2.0, 2.0));
            let mut u = vec![0f32; n * n];
            real.apply_data(tile.as_slice(), &mut u, &mut scratch);
            assert_eq!(u, algo.transform_data(&tile).into_vec(), "F({m},{r}) data");

            let kernel = Tensor2::from_fn(r, r, |_, _| rng.uniform_f32(-1.0, 1.0));
            let mut v = vec![0f32; n * n];
            real.apply_kernel(kernel.as_slice(), &mut v, &mut scratch);
            assert_eq!(v, algo.transform_kernel(&kernel).into_vec(), "F({m},{r}) kernel");

            let prod = Tensor2::from_fn(n, n, |_, _| rng.uniform_f32(-2.0, 2.0));
            let mut y = vec![0f32; m * m];
            real.apply_inverse(prod.as_slice(), &mut y, &mut scratch);
            assert_eq!(y, algo.inverse_transform(&prod).into_vec(), "F({m},{r}) inverse");
        }
    }

    #[test]
    fn slice_apply_is_exact_over_rationals() {
        // Round-tripping ones through data transform then inverse with a
        // ones kernel reproduces the correlation of ones: m*m outputs of
        // value r*r, exactly, because Ratio arithmetic never rounds.
        let s = set(3, 3);
        let real = s.to_scalar::<Ratio>();
        let n = 5;
        let mut scratch = vec![Ratio::ZERO; real.scratch_len()];
        let tile = vec![Ratio::ONE; n * n];
        let kernel = vec![Ratio::ONE; 9];
        let mut u = vec![Ratio::ZERO; n * n];
        let mut v = vec![Ratio::ZERO; n * n];
        real.apply_data(&tile, &mut u, &mut scratch);
        real.apply_kernel(&kernel, &mut v, &mut scratch);
        let prod: Vec<Ratio> = u.iter().zip(&v).map(|(&a, &b)| a * b).collect();
        let mut y = vec![Ratio::ZERO; 9];
        real.apply_inverse(&prod, &mut y, &mut scratch);
        assert!(y.iter().all(|&x| x == ratio(9, 1)), "{y:?}");
    }

    #[test]
    #[should_panic(expected = "data tile must be n*n")]
    fn slice_apply_rejects_wrong_tile_length() {
        let real = set(2, 3).to_f32();
        let mut out = [0f32; 16];
        let mut scratch = [0f32; 16];
        real.apply_data(&[0.0; 9], &mut out, &mut scratch);
    }

    #[test]
    fn to_f32_round_trips_dyadics() {
        let s = set(2, 3);
        let f = s.to_f32();
        assert_eq!(f.at[(0, 0)], 1.0);
        assert_eq!(f.g[(1, 0)], 0.5);
        assert_eq!(f.bt[(0, 2)], -1.0);
        assert_eq!(f.params(), s.params());
    }

    #[test]
    fn canonical_points_are_distinct() {
        let pts = canonical_points(15);
        for (i, &p) in pts.iter().enumerate() {
            assert!(!pts[..i].contains(&p), "duplicate canonical point {p}");
        }
    }

    #[test]
    fn display_shows_all_three_matrices() {
        let text = set(2, 3).to_string();
        assert!(text.contains("A^T"));
        assert!(text.contains("G ="));
        assert!(text.contains("B^T"));
        assert!(text.contains("1/2"));
    }

    #[test]
    fn error_display() {
        let e = TransformError::IdentityViolation { j: 1, s: 2, t: 3 };
        assert!(e.to_string().contains("j=1"));
        let e: TransformError = ParamError::ZeroKernel.into();
        assert!(e.to_string().contains("r must be"));
    }
}
