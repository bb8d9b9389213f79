//! Minimal complex arithmetic used throughout the modem.
//!
//! The modem works in `f64` end to end: underwater OFDM symbols are long
//! (up to 4800 samples) and the equalizer/channel-estimation paths are
//! sensitive to accumulated rounding, so the extra mantissa is worth the
//! memory. A dedicated type (rather than `(f64, f64)`) keeps call sites
//! readable and lets us implement exactly the operations the DSP needs.

use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// The additive identity.
pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
/// The multiplicative identity.
pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };

impl Complex {
    /// Creates a complex number from rectangular coordinates.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates.
    #[inline]
    pub fn from_polar(radius: f64, angle: f64) -> Self {
        Self::new(radius * angle.cos(), radius * angle.sin())
    }

    /// `exp(i * angle)` — a unit phasor.
    #[inline]
    pub fn cis(angle: f64) -> Self {
        Self::from_polar(1.0, angle)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// Squared magnitude `re² + im²`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Phase angle in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Self::new(self.re * s, self.im * s)
    }

    /// Complex exponential `e^self`.
    #[inline]
    pub fn exp(self) -> Self {
        Self::from_polar(self.re.exp(), self.im)
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Self::real(re)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Mul<Complex> for f64 {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        rhs.scale(self)
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: Complex) -> Complex {
        let d = rhs.norm_sqr();
        Complex::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(ZERO, |acc, c| acc + c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex, b: Complex) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn polar_roundtrip() {
        let c = Complex::from_polar(2.5, 1.1);
        assert!((c.abs() - 2.5).abs() < 1e-12);
        assert!((c.arg() - 1.1).abs() < 1e-12);
    }

    #[test]
    fn multiplication_matches_polar_addition() {
        let a = Complex::from_polar(2.0, 0.3);
        let b = Complex::from_polar(3.0, 0.9);
        let p = a * b;
        assert!(close(p, Complex::from_polar(6.0, 1.2)));
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Complex::new(1.5, -2.0);
        let b = Complex::new(-0.3, 0.7);
        assert!(close(a * b / b, a));
    }

    #[test]
    fn conjugate_product_is_norm() {
        let a = Complex::new(3.0, 4.0);
        let p = a * a.conj();
        assert!((p.re - 25.0).abs() < 1e-12);
        assert!(p.im.abs() < 1e-12);
    }

    #[test]
    fn cis_is_unit() {
        for k in 0..16 {
            let c = Complex::cis(k as f64 * 0.5);
            assert!((c.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sum_accumulates() {
        let v = vec![Complex::new(1.0, 2.0); 8];
        let s: Complex = v.into_iter().sum();
        assert!(close(s, Complex::new(8.0, 16.0)));
    }
}
