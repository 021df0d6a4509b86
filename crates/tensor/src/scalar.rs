//! The [`Scalar`] abstraction shared by every numeric algorithm in the
//! workspace.
//!
//! Convolution and transform code is written once, generically, and then
//! instantiated with `f32` (the paper's single-precision datapath),
//! [`Ratio`](crate::Ratio) (exact verification of algebraic identities) or
//! [`Fixed`](crate::Fixed) (the quantization ablation).

use std::fmt::Debug;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A field-like element type usable in tensors, transforms and convolution.
///
/// ```
/// use wino_tensor::{Scalar, Ratio};
///
/// fn dot<T: Scalar>(a: &[T], b: &[T]) -> T {
///     a.iter().zip(b).fold(T::zero(), |acc, (&x, &y)| acc + x * y)
/// }
/// assert_eq!(dot(&[1.0f32, 2.0], &[3.0, 4.0]), 11.0);
/// assert_eq!(dot(&[Ratio::ONE], &[Ratio::new(1, 3)]), Ratio::new(1, 3));
/// ```
pub trait Scalar:
    Copy
    + Default
    + PartialEq
    + Debug
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + Send
    + Sync
    + 'static
{
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Lossy conversion from `f64` (used to inject constants and test data).
    fn from_f64(x: f64) -> Self;
    /// Lossy conversion to `f64` (used for error measurement and display).
    fn to_f64(self) -> f64;
    /// `s` itself when `Self` is `f32`, else `None`: lets generic code
    /// hand the paper's datapath to an `f32`-only kernel without a cast.
    fn as_f32(_: &[Self]) -> Option<&[f32]> {
        None
    }
    /// The mutable counterpart of [`Scalar::as_f32`].
    fn as_f32_mut(_: &mut [Self]) -> Option<&mut [f32]> {
        None
    }
}

impl Scalar for f32 {
    fn zero() -> f32 {
        0.0
    }
    fn one() -> f32 {
        1.0
    }
    fn from_f64(x: f64) -> f32 {
        x as f32
    }
    fn to_f64(self) -> f64 {
        self as f64
    }
    fn as_f32(s: &[f32]) -> Option<&[f32]> {
        Some(s)
    }
    fn as_f32_mut(s: &mut [f32]) -> Option<&mut [f32]> {
        Some(s)
    }
}

impl Scalar for f64 {
    fn zero() -> f64 {
        0.0
    }
    fn one() -> f64 {
        1.0
    }
    fn from_f64(x: f64) -> f64 {
        x
    }
    fn to_f64(self) -> f64 {
        self
    }
}

impl Scalar for crate::Ratio {
    fn zero() -> crate::Ratio {
        crate::Ratio::ZERO
    }
    fn one() -> crate::Ratio {
        crate::Ratio::ONE
    }
    /// Converts via a dyadic approximation with 24 fractional bits, which is
    /// exact for every `f64` that is itself a small dyadic (the only values
    /// tests inject).
    fn from_f64(x: f64) -> crate::Ratio {
        let scaled = (x * (1u64 << 24) as f64).round() as i128;
        crate::Ratio::new(scaled, 1i128 << 24)
    }
    fn to_f64(self) -> f64 {
        crate::Ratio::to_f64(&self)
    }
}

impl<const FRAC: u32> Scalar for crate::Fixed<FRAC> {
    fn zero() -> Self {
        Self::ZERO
    }
    fn one() -> Self {
        Self::ONE
    }
    fn from_f64(x: f64) -> Self {
        Self::from_f32(x as f32)
    }
    fn to_f64(self) -> f64 {
        crate::Fixed::to_f64(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fixed, Ratio};

    fn sum3<T: Scalar>() -> T {
        T::one() + T::one() + T::one()
    }

    #[test]
    fn identities_across_instantiations() {
        assert_eq!(sum3::<f32>(), 3.0);
        assert_eq!(sum3::<f64>(), 3.0);
        assert_eq!(sum3::<Ratio>(), Ratio::from_integer(3));
        assert_eq!(sum3::<Fixed<16>>().to_f64(), 3.0);
    }

    #[test]
    fn only_f32_views_itself_as_f32() {
        let mut xs = [1.5f32, -2.0];
        assert_eq!(f32::as_f32(&xs), Some(&[1.5, -2.0][..]));
        assert!(f32::as_f32_mut(&mut xs).is_some());
        assert_eq!(f64::as_f32(&[1.5]), None);
        assert_eq!(Ratio::as_f32(&[Ratio::ONE]), None);
        assert!(Fixed::<16>::as_f32_mut(&mut [Fixed::ZERO]).is_none());
    }

    #[test]
    fn from_f64_round_trips_dyadics() {
        for x in [0.0, 1.0, -0.5, 2.25, -3.75] {
            assert_eq!(Ratio::from_f64(x).to_f64(), x);
            assert_eq!(f32::from_f64(x).to_f64(), x);
            assert_eq!(Fixed::<16>::from_f64(x).to_f64(), x);
        }
    }

    #[test]
    fn neg_is_additive_inverse() {
        fn check<T: Scalar>() {
            let x = T::from_f64(1.5);
            assert_eq!(x + (-x), T::zero());
        }
        check::<f32>();
        check::<f64>();
        check::<Ratio>();
        check::<Fixed<16>>();
    }
}
