//! The benchmark's own correctness oracle: direct `f64` summation of a
//! convolution at sampled output positions. It shares no code with
//! `wino-exec` or `wino-baselines`, so an engine bug and an oracle bug
//! cannot cancel.

use wino_core::ConvShape;
use wino_tensor::{SplitMix64, Tensor4};

/// Output positions recomputed per layer.
pub const POSITIONS: usize = 256;

/// Allowed deviation on `f32` Winograd, FFT and spatial layers.
pub const FLOAT_TOLERANCE: f64 = 1e-2;
/// Allowed deviation on fixed-point layers.
pub const FIXED_TOLERANCE: f64 = 5e-2;

/// One output element of the cross-correlation the engines implement,
/// `out[n, k, y, x] = Σ_{c, v, u} in[n, c, y·s + v − p, x·s + u − p] · ker[k, c, v, u]`
/// with zero padding, summed in `f64`.
pub fn direct_output(
    input: &Tensor4<f32>,
    kernels: &Tensor4<f32>,
    shape: &ConvShape,
    (n, k, y, x): (usize, usize, usize, usize),
) -> f64 {
    let mut acc = 0.0f64;
    for c in 0..shape.c {
        for v in 0..shape.r {
            let iy = y * shape.stride + v;
            if iy < shape.pad || iy - shape.pad >= shape.h {
                continue;
            }
            for u in 0..shape.r {
                let ix = x * shape.stride + u;
                if ix < shape.pad || ix - shape.pad >= shape.w {
                    continue;
                }
                acc += f64::from(input.at(n, c, iy - shape.pad, ix - shape.pad))
                    * f64::from(kernels.at(k, c, v, u));
            }
        }
    }
    acc
}

/// Worst `|output − direct|` over [`POSITIONS`] seeded positions, or an
/// error when `output` does not have the layer's output geometry.
pub fn max_abs_err(
    input: &Tensor4<f32>,
    kernels: &Tensor4<f32>,
    shape: &ConvShape,
    output: &Tensor4<f32>,
    seed: u64,
) -> Result<f64, String> {
    let os = output.shape();
    let batch = input.shape().n;
    if (os.n, os.c, os.h, os.w) != (batch, shape.k, shape.out_h(), shape.out_w()) {
        return Err(format!(
            "output is {os}, expected {batch}x{}x{}x{}",
            shape.k,
            shape.out_h(),
            shape.out_w()
        ));
    }
    let mut rng = SplitMix64::new(seed);
    let mut worst = 0.0f64;
    for _ in 0..POSITIONS {
        let at = (
            rng.below(os.n as u64) as usize,
            rng.below(os.c as u64) as usize,
            rng.below(os.h as u64) as usize,
            rng.below(os.w as u64) as usize,
        );
        let want = direct_output(input, kernels, shape, at);
        let got = f64::from(output.at(at.0, at.1, at.2, at.3));
        let err = (got - want).abs();
        // A NaN output must fail, and `NaN > x` is false.
        if err.is_nan() {
            return Err(format!("output at {at:?} is not a number"));
        }
        worst = worst.max(err);
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wino_tensor::Shape4;

    #[test]
    fn hand_computed_positions() {
        // 1 channel, 3x3 input 1..9, all-ones 3x3 kernel, pad 1.
        let shape = ConvShape::same_padded(3, 3, 1, 1, 3);
        let input = Tensor4::from_fn(Shape4 { n: 1, c: 1, h: 3, w: 3 }, |_, _, h, w| {
            (h * 3 + w + 1) as f32
        });
        let ones = Tensor4::from_fn(Shape4 { n: 1, c: 1, h: 3, w: 3 }, |_, _, _, _| 1.0f32);
        assert_eq!(direct_output(&input, &ones, &shape, (0, 0, 1, 1)), 45.0);
        assert_eq!(direct_output(&input, &ones, &shape, (0, 0, 0, 0)), 1.0 + 2.0 + 4.0 + 5.0);
        // Not symmetric: a kernel picking the top-left tap reads in[y-1, x-1].
        let tap = Tensor4::from_fn(Shape4 { n: 1, c: 1, h: 3, w: 3 }, |_, _, v, u| {
            if (v, u) == (0, 0) {
                1.0f32
            } else {
                0.0
            }
        });
        assert_eq!(direct_output(&input, &tap, &shape, (0, 0, 2, 2)), 5.0);
        assert_eq!(direct_output(&input, &tap, &shape, (0, 0, 0, 2)), 0.0);
    }

    #[test]
    fn stride_and_no_padding() {
        let shape = ConvShape { h: 5, w: 5, c: 1, k: 1, r: 1, stride: 2, pad: 0 };
        let input =
            Tensor4::from_fn(Shape4 { n: 1, c: 1, h: 5, w: 5 }, |_, _, h, w| (h * 5 + w) as f32);
        let one = Tensor4::from_fn(Shape4 { n: 1, c: 1, h: 1, w: 1 }, |_, _, _, _| 1.0f32);
        assert_eq!(direct_output(&input, &one, &shape, (0, 0, 1, 1)), 12.0);
        assert_eq!(direct_output(&input, &one, &shape, (0, 0, 2, 2)), 24.0);
    }

    #[test]
    fn wrong_outputs_and_wrong_shapes_are_caught() {
        let shape = ConvShape::same_padded(4, 4, 2, 3, 3);
        let input = Tensor4::from_fn(Shape4 { n: 1, c: 2, h: 4, w: 4 }, |_, c, h, w| {
            (c + h * w) as f32 * 0.1
        });
        let kernels = Tensor4::from_fn(Shape4 { n: 3, c: 2, h: 3, w: 3 }, |k, c, v, u| {
            (k + c + v + u) as f32 * 0.01
        });
        let out_shape = Shape4 { n: 1, c: 3, h: 4, w: 4 };
        let exact = Tensor4::from_fn(out_shape, |n, k, y, x| {
            direct_output(&input, &kernels, &shape, (n, k, y, x)) as f32
        });
        assert!(max_abs_err(&input, &kernels, &shape, &exact, 1).unwrap() < 1e-6);
        let off = exact.map(|v| v + 0.5);
        assert!((max_abs_err(&input, &kernels, &shape, &off, 1).unwrap() - 0.5).abs() < 1e-6);
        let nan = exact.map(|_| f32::NAN);
        assert!(max_abs_err(&input, &kernels, &shape, &nan, 1).is_err());
        let short = Tensor4::<f32>::zeros(Shape4 { n: 1, c: 3, h: 3, w: 4 });
        assert!(max_abs_err(&input, &kernels, &shape, &short, 1).is_err());
    }
}
