//! # wino-baselines
//!
//! The comparison algorithms for the `winofpga` reproduction of Ahmad &
//! Pasha (DATE 2019):
//!
//! * [`spatial_convolve`] — direct spatial convolution (paper Eq. 1), the
//!   correctness oracle for everything else;
//! * [`FftPlan`] — the radix-2 FFT under the prepared
//!   `wino-exec::PreparedFft` backend ([`fft_in_place`] is its one-shot
//!   form) — and [`fft_conv_complexity`], the cost model behind the
//!   paper's claim that FFT convolution only pays off for large kernels.
//!
//! The im2col + GEMM lowering is `wino-exec::PreparedSpatial`, which
//! matches [`spatial_convolve_strided`] bit for bit.
//!
//! ```
//! use wino_baselines::{spatial_convolve, spatial_convolve_strided};
//! use wino_tensor::{Shape4, Tensor4};
//!
//! let x = Tensor4::from_fn(Shape4 { n: 1, c: 1, h: 4, w: 4 }, |_, _, h, w| (h + w) as f32);
//! let k = Tensor4::from_fn(Shape4 { n: 1, c: 1, h: 3, w: 3 }, |_, _, _, _| 1.0f32);
//! assert_eq!(
//!     spatial_convolve(&x, &k, 1).as_slice(),
//!     spatial_convolve_strided(&x, &k, 1, 1).as_slice(),
//! );
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod fft;
mod spatial;

pub use fft::{fft_conv_complexity, fft_in_place, Complex, FftPlan};
pub use spatial::{spatial_convolve, spatial_convolve_strided};
