//! FFT primitives and the FFT-convolution cost model — the other "fast
//! convolution" family.
//!
//! The paper (Sec. I/II-C, citing Vasilache et al.) argues FFT
//! convolutions "show savings only for high kernel sizes and are not
//! applicable to most layers of modern CNNs". [`fft_conv_complexity`]
//! vs the Winograd/spatial counts shows that crossover as `r` grows;
//! the convolution itself is `wino-exec::PreparedFft`, an overlap–save
//! engine built on the radix-2 [`FftPlan`] defined here (twiddles
//! tabulated once per length, not per call).

/// A complex number over `f64` (FFT-internal precision).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates a complex number.
    pub fn new(re: f64, im: f64) -> Complex {
        Complex { re, im }
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(self.re * rhs.re - self.im * rhs.im, self.re * rhs.im + self.im * rhs.re)
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

/// Precomputed twiddle and bit-reversal tables for radix-2 FFTs of one
/// length.
///
/// The naive iterative FFT recomputes `cos`/`sin` per butterfly stage,
/// grows each stage's twiddle by repeated complex multiplication and
/// recomputes the bit-reversal permutation on **every call**; a
/// convolution makes thousands of calls over the same length. An
/// `FftPlan` tabulates every stage's twiddle powers once (directly from
/// `cos`/`sin`, which is also more accurate than the repeated-product
/// recurrence) and the permutation's swaps once, and [`FftPlan::run`]
/// reuses them.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// Forward twiddles, stage-major: for `len = 2, 4, …, n` the
    /// `len/2` powers of `exp(−2πi/len)` laid out contiguously.
    forward: Vec<Complex>,
    /// Inverse twiddles — elementwise conjugates of `forward`.
    inverse: Vec<Complex>,
    /// The bit-reversal permutation as its swaps: every `(i, j)` with
    /// `j` the bit reversal of `i` and `i < j`, in increasing `i`.
    swaps: Vec<(usize, usize)>,
}

impl FftPlan {
    /// Tabulates twiddles for length-`n` transforms.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub fn new(n: usize) -> FftPlan {
        assert!(n.is_power_of_two(), "FFT length must be a power of two, got {n}");
        let mut forward = Vec::with_capacity(n.saturating_sub(1));
        let mut len = 2;
        while len <= n {
            let ang = -2.0 * std::f64::consts::PI / len as f64;
            for k in 0..len / 2 {
                let a = ang * k as f64;
                forward.push(Complex::new(a.cos(), a.sin()));
            }
            len <<= 1;
        }
        let inverse = forward.iter().map(|w| Complex::new(w.re, -w.im)).collect();
        let bits = n.trailing_zeros();
        let swaps = (0..n)
            .filter_map(|i| {
                let j = if bits == 0 { i } else { i.reverse_bits() >> (usize::BITS - bits) };
                (i < j).then_some((i, j))
            })
            .collect();
        FftPlan { n, forward, inverse, swaps }
    }

    /// The transform length this plan was built for.
    pub fn size(&self) -> usize {
        self.n
    }

    /// In-place iterative radix-2 Cooley–Tukey FFT using the
    /// precomputed tables. `inverse = true` computes the unscaled
    /// inverse transform (the caller divides by the length).
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from [`FftPlan::size`].
    pub fn run(&self, buf: &mut [Complex], inverse: bool) {
        let n = self.n;
        assert_eq!(buf.len(), n, "buffer length must match the plan size {n}");
        if n <= 1 {
            return;
        }
        for &(i, j) in &self.swaps {
            buf.swap(i, j);
        }
        // Butterflies, twiddles read from the stage-major tables.
        let tw = if inverse { &self.inverse } else { &self.forward };
        let mut len = 2;
        let mut base = 0;
        while len <= n {
            for start in (0..n).step_by(len) {
                for k in 0..len / 2 {
                    let u = buf[start + k];
                    let v = buf[start + k + len / 2] * tw[base + k];
                    buf[start + k] = u + v;
                    buf[start + k + len / 2] = u - v;
                }
            }
            base += len / 2;
            len <<= 1;
        }
    }
}

/// In-place iterative radix-2 Cooley–Tukey FFT.
///
/// One-shot convenience over [`FftPlan`]: builds the twiddle tables,
/// runs, and throws them away. Anything transforming more than once per
/// length should hold an [`FftPlan`] instead.
///
/// `inverse = true` computes the unscaled inverse transform (the caller
/// divides by the length).
///
/// # Panics
///
/// Panics if `buf.len()` is not a power of two.
pub fn fft_in_place(buf: &mut [Complex], inverse: bool) {
    FftPlan::new(buf.len()).run(buf, inverse);
}

/// Real-multiplication estimate of FFT convolution for one layer,
/// mirroring Vasilache et al.'s accounting: per (image, tile=whole-plane)
/// transform cost `O(S² log S)` amortized over channels/kernels plus the
/// `C·K` frequency-domain products of 4 real mults each.
pub fn fft_conv_complexity(h: usize, w: usize, c: usize, k: usize, r: usize) -> f64 {
    let size = (h.max(w) + r - 1).next_power_of_two() as f64;
    let plane = size * size;
    // One 2-D FFT: 2*size 1-D FFTs, each (size/2) log2(size) complex
    // butterflies of 4 real mults.
    let fft_one = 2.0 * size * (size / 2.0) * size.log2() * 4.0;
    let transforms = (c + k) as f64 * fft_one // forward: inputs + kernels
        + k as f64 * fft_one; // inverse per output
    let pointwise = (c * k) as f64 * plane * 4.0;
    transforms + pointwise
}

#[cfg(test)]
mod tests {
    use super::*;
    use wino_tensor::SplitMix64;

    #[test]
    fn fft_round_trip_recovers_signal() {
        let mut rng = SplitMix64::new(5);
        let original: Vec<Complex> =
            (0..64).map(|_| Complex::new(rng.uniform_f32(-1.0, 1.0) as f64, 0.0)).collect();
        let mut buf = original.clone();
        fft_in_place(&mut buf, false);
        fft_in_place(&mut buf, true);
        for (a, b) in buf.iter().zip(&original) {
            assert!((a.re / 64.0 - b.re).abs() < 1e-12);
            assert!((a.im / 64.0).abs() < 1e-12);
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut buf = vec![Complex::default(); 8];
        buf[0].re = 1.0;
        fft_in_place(&mut buf, false);
        for c in &buf {
            assert!((c.re - 1.0).abs() < 1e-12 && c.im.abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let mut buf = vec![Complex::default(); 6];
        fft_in_place(&mut buf, false);
    }

    #[test]
    fn reused_plan_is_bitwise_identical_to_one_shot() {
        // The twiddle hoist must be a pure strength reduction: a plan
        // run many times produces exactly what the one-shot wrapper
        // produces, bit for bit.
        let mut rng = SplitMix64::new(77);
        let plan = FftPlan::new(32);
        assert_eq!(plan.size(), 32);
        for _ in 0..4 {
            let original: Vec<Complex> = (0..32)
                .map(|_| {
                    Complex::new(
                        rng.uniform_f32(-1.0, 1.0) as f64,
                        rng.uniform_f32(-1.0, 1.0) as f64,
                    )
                })
                .collect();
            for inverse in [false, true] {
                let mut a = original.clone();
                let mut b = original.clone();
                plan.run(&mut a, inverse);
                fft_in_place(&mut b, inverse);
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn plan_matches_the_direct_dft() {
        // Checks the tabulated bit-reversal permutation and twiddles
        // against the O(n²) definition, forward and inverse.
        let mut rng = SplitMix64::new(78);
        for n in [1usize, 2, 4, 8, 16, 32] {
            let plan = FftPlan::new(n);
            let x: Vec<Complex> = (0..n)
                .map(|_| {
                    Complex::new(
                        rng.uniform_f32(-1.0, 1.0) as f64,
                        rng.uniform_f32(-1.0, 1.0) as f64,
                    )
                })
                .collect();
            for inverse in [false, true] {
                let sign = if inverse { 1.0 } else { -1.0 };
                let mut got = x.clone();
                plan.run(&mut got, inverse);
                for (k, g) in got.iter().enumerate() {
                    let want = x.iter().enumerate().fold(Complex::default(), |acc, (j, &v)| {
                        let a = sign * 2.0 * std::f64::consts::PI * (j * k) as f64 / n as f64;
                        acc + v * Complex::new(a.cos(), a.sin())
                    });
                    assert!(
                        (g.re - want.re).abs() < 1e-12 && (g.im - want.im).abs() < 1e-12,
                        "n={n} inverse={inverse} bin {k}: {g:?} vs {want:?}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "match the plan size")]
    fn plan_rejects_mismatched_buffer() {
        let mut buf = vec![Complex::default(); 16];
        FftPlan::new(32).run(&mut buf, false);
    }

    #[test]
    fn fft_advantage_grows_with_kernel_size() {
        // The paper's Sec. II-C claim (after Vasilache et al.): FFT
        // convolution "shows savings only for high kernel sizes". Two
        // observable consequences:
        // (1) FFT cost is essentially r-independent, so its advantage over
        //     spatial convolution grows monotonically with r;
        // (2) at r = 3 Winograd F(2x2,3x3) needs far fewer real
        //     multiplications than the FFT path, which is why small-kernel
        //     CNNs pick Winograd.
        let (h, w, c, k) = (56, 56, 64, 64);
        let spatial = |r: usize| (h * w * c * k * r * r) as f64;
        // r = 3..9 share one 64-point FFT size (56 + r - 1 <= 64), which
        // isolates the r-dependence from power-of-two padding cliffs.
        let ratios: Vec<f64> = [3usize, 5, 7, 9]
            .iter()
            .map(|&r| fft_conv_complexity(h, w, c, k, r) / spatial(r))
            .collect();
        for pair in ratios.windows(2) {
            assert!(pair[1] < pair[0], "FFT relative cost must fall with r: {ratios:?}");
        }
        assert!(ratios[3] < 0.2, "FFT should win big at r = 9: {ratios:?}");

        // Winograd F(2x2,3x3): 16/4 mults per output; its transform
        // overhead is a few percent of that (beta/m² = 8 and delta/m² = 6
        // FLOPs per output vs 1024 multiplies per output tile-channel), so
        // a 20% margin is conservative.
        let winograd_mults = (h * w / 4 * c * k * 16) as f64;
        assert!(
            1.2 * winograd_mults < fft_conv_complexity(h, w, c, k, 3),
            "Winograd should beat FFT at r = 3"
        );
    }
}
