//! Minimal complex arithmetic for AC (small-signal) analysis.
//!
//! A deliberate re-implementation rather than a dependency: the AC solver
//! needs exactly add/sub/mul/div, magnitude and phase — nothing more.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// A complex number in rectangular form.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };

    /// Creates a complex number.
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// A purely real value.
    pub const fn real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// A purely imaginary value (`j·im`).
    pub const fn imag(im: f64) -> Self {
        Complex { re: 0.0, im }
    }

    /// Magnitude `|z|`.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude (cheaper than [`Complex::abs`]).
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Phase angle in radians, `atan2(im, re)`.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Phase angle in degrees.
    pub fn arg_deg(self) -> f64 {
        self.arg().to_degrees()
    }

    /// Magnitude in decibels, `20·log10|z|`.
    pub fn db(self) -> f64 {
        20.0 * self.abs().log10()
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Complex::new(self.re, -self.im)
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    fn mul(self, rhs: f64) -> Complex {
        Complex::new(self.re * rhs, self.im * rhs)
    }
}

impl Div for Complex {
    type Output = Complex;
    fn div(self, rhs: Complex) -> Complex {
        let d = rhs.norm_sqr();
        Complex::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::real(re)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+j{}", self.re, self.im)
        } else {
            write!(f, "{}-j{}", self.re, -self.im)
        }
    }
}

/// Dense complex matrix for the AC and noise phasor systems, mirroring
/// [`crate::linear::DenseMatrix`].
#[derive(Debug, Clone, PartialEq)]
pub struct ComplexMatrix {
    n: usize,
    data: Vec<Complex>,
}

impl ComplexMatrix {
    /// Creates an `n × n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        ComplexMatrix {
            n,
            data: vec![Complex::ZERO; n * n],
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Resets all entries to zero.
    pub fn clear(&mut self) {
        self.data.fill(Complex::ZERO);
    }

    /// Adds `value` at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, value: Complex) {
        debug_assert!(row < self.n && col < self.n);
        self.data[row * self.n + col] += value;
    }

    /// Entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> Complex {
        assert!(row < self.n && col < self.n);
        self.data[row * self.n + col]
    }

    /// Solves `self · x = rhs` in place with the shared partial-pivot
    /// elimination of [`crate::linear`] (destroys the matrix, `rhs`
    /// becomes the solution).
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::SingularMatrix`] if elimination breaks
    /// down.
    ///
    /// # Panics
    ///
    /// Panics if `rhs.len() != n`.
    pub fn solve_in_place(&mut self, rhs: &mut [Complex]) -> Result<(), crate::Error> {
        assert_eq!(rhs.len(), self.n);
        let mut swaps = vec![0; self.n];
        crate::linear::factor_in_place(self.n, &mut self.data, &mut swaps, Some(rhs)).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a - b, Complex::new(-2.0, 3.0));
        assert_eq!(a * b, Complex::new(5.0, 5.0));
        let q = a / b;
        let back = q * b;
        assert!((back.re - a.re).abs() < 1e-12);
        assert!((back.im - a.im).abs() < 1e-12);
        assert_eq!(-a, Complex::new(-1.0, -2.0));
        assert_eq!(a.conj(), Complex::new(1.0, -2.0));
    }

    #[test]
    fn polar_quantities() {
        let z = Complex::new(3.0, 4.0);
        assert!((z.abs() - 5.0).abs() < 1e-12);
        assert!((z.norm_sqr() - 25.0).abs() < 1e-12);
        let j = Complex::imag(1.0);
        assert!((j.arg_deg() - 90.0).abs() < 1e-12);
        assert!((Complex::real(10.0).db() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn display() {
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1+j2");
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-j2");
    }

    #[test]
    fn complex_solve_small_system() {
        // (1+j)x = 2 → x = 1 − j.
        let mut m = ComplexMatrix::zeros(1);
        m.add(0, 0, Complex::new(1.0, 1.0));
        let mut rhs = vec![Complex::real(2.0)];
        m.solve_in_place(&mut rhs).unwrap();
        assert!((rhs[0].re - 1.0).abs() < 1e-12);
        assert!((rhs[0].im + 1.0).abs() < 1e-12);
    }

    #[test]
    fn complex_solve_with_pivoting() {
        // [[0, 1], [1, j]] x = [1, 0] → x0 = −j, x1 = 1.
        let mut m = ComplexMatrix::zeros(2);
        m.add(0, 1, Complex::ONE);
        m.add(1, 0, Complex::ONE);
        m.add(1, 1, Complex::imag(1.0));
        let mut rhs = vec![Complex::ONE, Complex::ZERO];
        m.solve_in_place(&mut rhs).unwrap();
        assert!((rhs[0] - Complex::imag(-1.0)).abs() < 1e-12);
        assert!((rhs[1] - Complex::ONE).abs() < 1e-12);
    }

    #[test]
    fn singular_complex_matrix() {
        let mut m = ComplexMatrix::zeros(2);
        m.add(0, 0, Complex::ONE);
        m.add(1, 0, Complex::ONE);
        let mut rhs = vec![Complex::ONE, Complex::ONE];
        assert!(m.solve_in_place(&mut rhs).is_err());
    }
}
