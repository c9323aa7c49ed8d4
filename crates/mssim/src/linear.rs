//! Dense linear algebra: the LU solver behind every Newton iteration.
//!
//! The paper's circuits have at most a few tens of nodes, so a dense
//! row-major matrix with partial-pivoting Gaussian elimination is the
//! simplest appropriate solver — no external dependencies. One
//! elimination kernel, generic over the scalar, serves [`LuFactors`] and
//! the complex AC/noise solves; [`DenseMatrix::solve_in_place`] keeps its
//! own copy as the reference assembler's independent oracle.

use std::ops::{Div, Mul, Sub};

use crate::complex::Complex;
use crate::error::Error;

/// A dense square matrix in row-major storage.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates an `n × n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        DenseMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Resets all entries to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.n && col < self.n, "matrix index out of bounds");
        self.data[row * self.n + col]
    }

    /// Sets the entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.n && col < self.n, "matrix index out of bounds");
        self.data[row * self.n + col] = value;
    }

    /// Adds `value` to the entry at `(row, col)` — the MNA stamping
    /// primitive.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        debug_assert!(row < self.n && col < self.n, "matrix index out of bounds");
        self.data[row * self.n + col] += value;
    }

    /// The raw row-major entries.
    pub(crate) fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The raw row-major entries, mutably.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Computes `self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n);
        let mut y = vec![0.0; self.n];
        for (r, yr) in y.iter_mut().enumerate() {
            let row = &self.data[r * self.n..(r + 1) * self.n];
            *yr = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        y
    }

    /// Solves `self * x = rhs` in place by Gaussian elimination with
    /// partial pivoting, destroying the matrix and replacing `rhs` with the
    /// solution.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SingularMatrix`] if a pivot smaller than `1e-14`
    /// times the largest initial entry is encountered.
    ///
    /// # Panics
    ///
    /// Panics if `rhs.len() != n`.
    // Index loops mirror the textbook elimination; iterator forms obscure
    // the pivot structure.
    #[allow(clippy::needless_range_loop)]
    pub fn solve_in_place(&mut self, rhs: &mut [f64]) -> Result<(), Error> {
        let n = self.n;
        assert_eq!(rhs.len(), n, "rhs length must equal matrix dimension");
        if n == 0 {
            return Ok(());
        }
        let scale = self
            .data
            .iter()
            .fold(0.0f64, |m, &v| m.max(v.abs()))
            .max(1e-30);
        let tol = scale * 1e-14;

        for k in 0..n {
            // Partial pivot: largest |entry| in column k at/below row k.
            let mut pivot_row = k;
            let mut pivot_mag = self.data[k * n + k].abs();
            for r in (k + 1)..n {
                let mag = self.data[r * n + k].abs();
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = r;
                }
            }
            if pivot_mag < tol {
                return Err(Error::SingularMatrix { row: k });
            }
            if pivot_row != k {
                for c in 0..n {
                    self.data.swap(k * n + c, pivot_row * n + c);
                }
                rhs.swap(k, pivot_row);
            }
            let pivot = self.data[k * n + k];
            for r in (k + 1)..n {
                let factor = self.data[r * n + k] / pivot;
                if factor == 0.0 {
                    continue;
                }
                self.data[r * n + k] = 0.0;
                for c in (k + 1)..n {
                    self.data[r * n + c] -= factor * self.data[k * n + c];
                }
                rhs[r] -= factor * rhs[k];
            }
        }
        // Back substitution.
        for k in (0..n).rev() {
            let mut sum = rhs[k];
            for c in (k + 1)..n {
                sum -= self.data[k * n + c] * rhs[c];
            }
            rhs[k] = sum / self.data[k * n + k];
        }
        Ok(())
    }
}

/// Scalar field of the shared elimination kernel: `f64` for the Newton
/// systems, [`Complex`] for the AC and noise phasor systems.
pub(crate) trait Scalar:
    Copy + PartialEq + Sub<Output = Self> + Mul<Output = Self> + Div<Output = Self>
{
    /// The additive identity.
    const ZERO: Self;
    /// Magnitude used for pivot selection and the singularity threshold.
    fn magnitude(self) -> f64;
}

impl Scalar for f64 {
    const ZERO: f64 = 0.0;
    fn magnitude(self) -> f64 {
        self.abs()
    }
}

impl Scalar for Complex {
    const ZERO: Complex = Complex::ZERO;
    fn magnitude(self) -> f64 {
        self.abs()
    }
}

/// The partial-pivot elimination behind every factorization except the
/// [`DenseMatrix::solve_in_place`] oracle.
///
/// Factors the row-major `n × n` matrix `a` in place — `U` in the upper
/// triangle (diagonal included), the elimination multipliers in the
/// strict lower triangle — and records in `swaps[k]` the row exchanged
/// with row `k` at stage `k` (`k` itself when none). With `rhs`, the
/// forward elimination runs in the same sweep and the back-substitution
/// follows, leaving the solution in `rhs`. Every operation happens in
/// `solve_in_place`'s order, so on `f64` both agree bit for bit.
///
/// Returns the pivot acceptance threshold, `1e-14` times the largest
/// initial magnitude.
///
/// # Errors
///
/// Returns [`Error::SingularMatrix`] under exactly the same condition
/// (and at the same row) as `solve_in_place`; `a` and `rhs` are left
/// partially eliminated in that case.
// Index loops mirror the textbook elimination; iterator forms obscure
// the pivot structure.
#[allow(clippy::needless_range_loop)]
pub(crate) fn factor_in_place<T: Scalar>(
    n: usize,
    a: &mut [T],
    swaps: &mut [usize],
    mut rhs: Option<&mut [T]>,
) -> Result<f64, Error> {
    let scale = a
        .iter()
        .fold(0.0f64, |m, v| m.max(v.magnitude()))
        .max(1e-30);
    let tol = scale * 1e-14;
    for k in 0..n {
        let mut pivot_row = k;
        let mut pivot_mag = a[k * n + k].magnitude();
        for r in (k + 1)..n {
            let mag = a[r * n + k].magnitude();
            if mag > pivot_mag {
                pivot_mag = mag;
                pivot_row = r;
            }
        }
        if pivot_mag < tol {
            return Err(Error::SingularMatrix { row: k });
        }
        swaps[k] = pivot_row;
        if pivot_row != k {
            for c in 0..n {
                a.swap(k * n + c, pivot_row * n + c);
            }
            if let Some(rhs) = rhs.as_deref_mut() {
                rhs.swap(k, pivot_row);
            }
        }
        let pivot = a[k * n + k];
        for r in (k + 1)..n {
            let factor = a[r * n + k] / pivot;
            if factor == T::ZERO {
                // A multiplier that underflows to zero must replay as a
                // skip, exactly like solve_in_place's `continue`.
                a[r * n + k] = T::ZERO;
                continue;
            }
            a[r * n + k] = factor;
            for c in (k + 1)..n {
                a[r * n + c] = a[r * n + c] - factor * a[k * n + c];
            }
            if let Some(rhs) = rhs.as_deref_mut() {
                rhs[r] = rhs[r] - factor * rhs[k];
            }
        }
    }
    if let Some(rhs) = rhs {
        back_substitute(n, a, rhs);
    }
    Ok(tol)
}

/// Solves `U·x = rhs` in place against the upper triangle of the factors
/// `a` left by [`factor_in_place`].
#[allow(clippy::needless_range_loop)]
fn back_substitute<T: Scalar>(n: usize, a: &[T], rhs: &mut [T]) {
    for k in (0..n).rev() {
        let mut sum = rhs[k];
        for c in (k + 1)..n {
            sum = sum - a[k * n + c] * rhs[c];
        }
        rhs[k] = sum / a[k * n + k];
    }
}

/// A reusable LU factorization (partial pivoting) of an `n × n` system,
/// with two ways in and one way out:
///
/// - [`LuFactors::factor`] runs the shared dense elimination. Its factors
///   solve **bitwise identically** to a fresh
///   [`DenseMatrix::solve_in_place`] on the same matrix, so reusing them
///   for an unchanged Jacobian cannot perturb a waveform by even one ulp.
///   A right-hand side passed along is eliminated in the same sweep.
/// - [`LuFactors::refactor`] freezes the pivot sequence and, from a
///   caller-supplied structural pattern, the fill-in structure of the
///   factors on its first call (a dense factorization; also the first
///   call after a dense `factor` or [`LuFactors::invalidate_structure`]),
///   then *replays* that elimination touching only structural positions. On a sparse
///   MNA system this cuts the O(n³) sweep to roughly the factor's
///   nonzero count. Results agree with the dense path to rounding, not
///   bitwise: the frozen pivot order can differ from what fresh partial
///   pivoting would choose. A replayed pivot whose magnitude falls under
///   the recorded threshold triggers a transparent fallback: the matrix
///   is refilled, factored densely and the structure re-recorded.
/// - [`LuFactors::solve`] back-substitutes any number of right-hand
///   sides in O(n²), walking the packed structure if and only if the
///   current factors came from `refactor`.
#[derive(Debug, Clone)]
pub struct LuFactors {
    n: usize,
    /// Row-major storage: upper triangle (diagonal included) holds `U`,
    /// strict lower triangle holds the elimination multipliers. After a
    /// replay only structural positions are meaningful (the rest stay
    /// 0.0 from the fill).
    lu: Vec<f64>,
    /// `swaps[k]` is the row exchanged with row `k` at elimination stage
    /// `k` (`k` itself when no exchange happened).
    swaps: Vec<usize>,
    /// True when the current factors came from `refactor`: the structure
    /// below is recorded for the current pivot sequence and `solve` walks
    /// its packed copies.
    structured: bool,
    /// Pivot acceptance threshold recorded by the structuring pass.
    tol: f64,
    /// Stage-`k` multiplier rows (`r > k` with structural `(r, k)`).
    mrows: Vec<u32>,
    mrow_ptr: Vec<usize>,
    /// Stage-`k` update columns (`c > k` with structural `(k, c)`).
    ucols: Vec<u32>,
    ucol_ptr: Vec<usize>,
    /// Reciprocals of the U diagonal, so the packed back-substitution
    /// multiplies instead of divides (no bitwise contract on this path).
    inv_diag: Vec<f64>,
    /// Multiplier values aligned with `mrows` and U values aligned with
    /// `ucols`: the packed triangular solves walk these contiguous copies
    /// instead of striding through the dense buffer.
    mvals: Vec<f64>,
    uvals: Vec<f64>,
}

impl LuFactors {
    /// An empty factorization holder for `n × n` systems.
    pub fn new(n: usize) -> Self {
        LuFactors {
            n,
            lu: vec![0.0; n * n],
            swaps: vec![0; n],
            structured: false,
            tol: 0.0,
            mrows: Vec::new(),
            mrow_ptr: Vec::new(),
            ucols: Vec::new(),
            ucol_ptr: Vec::new(),
            inv_diag: vec![0.0; n],
            mvals: Vec::new(),
            uvals: Vec::new(),
        }
    }

    /// Matrix dimension of the stored factorization.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Factors `mat` (which is left untouched) with [`LuFactors::factor`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::SingularMatrix`] under exactly the same condition
    /// (and at the same row) as [`DenseMatrix::solve_in_place`].
    pub fn factor_from(&mut self, mat: &DenseMatrix) -> Result<(), Error> {
        self.factor(mat.n, |lu| lu.copy_from_slice(&mat.data), None)
    }

    /// Factors an `n × n` matrix assembled directly into the internal
    /// buffer by `fill` (which receives it stale and must overwrite all
    /// `n²` entries), replacing any stored factorization and dropping any
    /// recorded replay structure.
    ///
    /// With `rhs`, its forward elimination is fused into the sweep (as
    /// [`DenseMatrix::solve_in_place`] does) and `rhs` is left holding
    /// the solution — bitwise identical to `factor` followed by
    /// [`LuFactors::solve`], since the same multipliers hit `rhs` in the
    /// same order. A Newton iteration that must refactor thus pays no
    /// separate permutation-replay pass.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SingularMatrix`] under exactly the same condition
    /// (and at the same row) as [`DenseMatrix::solve_in_place`].
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is given and `rhs.len() != n`.
    pub fn factor(
        &mut self,
        n: usize,
        fill: impl FnOnce(&mut [f64]),
        rhs: Option<&mut [f64]>,
    ) -> Result<(), Error> {
        if let Some(rhs) = &rhs {
            assert_eq!(rhs.len(), n, "rhs length must equal matrix dimension");
        }
        self.structured = false;
        self.n = n;
        self.lu.resize(n * n, 0.0);
        fill(&mut self.lu);
        self.swaps.resize(n, 0);
        factor_in_place(n, &mut self.lu, &mut self.swaps, rhs).map(drop)
    }

    /// Factors an `n × n` matrix assembled into the internal buffer by
    /// `fill`, replaying the recorded structure when there is one (see
    /// the type docs). `pattern` is the structural nonzero pattern of the
    /// assembled matrix, row-major in `ceil(n/64)` `u64` chunks per row;
    /// every position `fill` can make nonzero must be set (a superset is
    /// fine — structurally-present numeric zeros replay as no-ops). The
    /// pattern is read only when the structure is recorded, so a caller
    /// whose pattern changes calls [`LuFactors::invalidate_structure`]
    /// first.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SingularMatrix`] when even a fresh dense
    /// factorization finds no acceptable pivot.
    pub fn refactor(
        &mut self,
        n: usize,
        pattern: &[u64],
        fill: impl Fn(&mut [f64]),
    ) -> Result<(), Error> {
        self.n = n;
        self.lu.resize(n * n, 0.0);
        self.swaps.resize(n, 0);
        fill(&mut self.lu);
        if n == 0 {
            return Ok(());
        }
        if self.structured {
            if self.replay().is_ok() {
                return Ok(());
            }
            // Frozen pivot went bad on the new values: refill (the buffer
            // is partially eliminated) and restructure.
            self.structured = false;
            fill(&mut self.lu);
        }
        self.tol = factor_in_place(n, &mut self.lu, &mut self.swaps, None)?;
        self.record_structure(pattern);
        Ok(())
    }

    /// Drops the recorded replay structure (pattern or pivot sequence no
    /// longer trustworthy — e.g. the base matrix was rebuilt), so the
    /// next [`LuFactors::refactor`] factors densely and records afresh.
    pub fn invalidate_structure(&mut self) {
        self.structured = false;
    }

    /// Replays the recorded elimination on the freshly filled buffer.
    fn replay(&mut self) -> Result<(), Error> {
        let n = self.n;
        for k in 0..n {
            let pr = self.swaps[k];
            if pr != k {
                for c in 0..n {
                    self.lu.swap(k * n + c, pr * n + c);
                }
            }
            let pivot = self.lu[k * n + k];
            if pivot.abs() < self.tol {
                return Err(Error::SingularMatrix { row: k });
            }
            // One reciprocal per stage instead of one divide per
            // multiplier row; the divide's long latency otherwise
            // serialises the elimination of short rows.
            let inv = 1.0 / pivot;
            self.inv_diag[k] = inv;
            // Row k is final once stage k starts: snapshot its U values
            // into the packed solve array.
            for j in self.ucol_ptr[k]..self.ucol_ptr[k + 1] {
                self.uvals[j] = self.lu[k * n + self.ucols[j] as usize];
            }
            for i in self.mrow_ptr[k]..self.mrow_ptr[k + 1] {
                let r = self.mrows[i] as usize;
                let factor = self.lu[r * n + k] * inv;
                self.mvals[i] = factor;
                if factor == 0.0 {
                    self.lu[r * n + k] = 0.0;
                    continue;
                }
                self.lu[r * n + k] = factor;
                for j in self.ucol_ptr[k]..self.ucol_ptr[k + 1] {
                    let c = self.ucols[j] as usize;
                    self.lu[r * n + c] -= factor * self.lu[k * n + c];
                }
            }
        }
        Ok(())
    }

    /// Symbolically eliminates `pattern` under the recorded pivot
    /// sequence, storing the resulting multiplier-row and update-column
    /// lists (fill-in included).
    fn record_structure(&mut self, pattern: &[u64]) {
        let n = self.n;
        let chunks = n.div_ceil(64);
        debug_assert_eq!(pattern.len(), n * chunks);
        let mut pat = pattern.to_vec();
        self.mrows.clear();
        self.ucols.clear();
        self.mrow_ptr.clear();
        self.ucol_ptr.clear();
        self.mrow_ptr.push(0);
        self.ucol_ptr.push(0);
        let bit = |pat: &[u64], r: usize, c: usize| pat[r * chunks + c / 64] >> (c % 64) & 1 == 1;
        for k in 0..n {
            let pr = self.swaps[k];
            if pr != k {
                for ch in 0..chunks {
                    pat.swap(k * chunks + ch, pr * chunks + ch);
                }
            }
            for c in (k + 1)..n {
                if bit(&pat, k, c) {
                    self.ucols.push(c as u32);
                }
            }
            for r in (k + 1)..n {
                if bit(&pat, r, k) {
                    self.mrows.push(r as u32);
                    // Fill-in: row r picks up row k's upper structure.
                    for ch in 0..chunks {
                        let mut add = pat[k * chunks + ch];
                        // Mask off columns ≤ k (already eliminated).
                        let lo = k + 1;
                        if ch * 64 < lo {
                            let drop = (lo - ch * 64).min(64);
                            if drop == 64 {
                                add = 0;
                            } else {
                                add &= !0u64 << drop;
                            }
                        }
                        pat[r * chunks + ch] |= add;
                    }
                }
            }
            self.mrow_ptr.push(self.mrows.len());
            self.ucol_ptr.push(self.ucols.len());
        }
        self.inv_diag.resize(n, 0.0);
        self.mvals.resize(self.mrows.len(), 0.0);
        self.uvals.resize(self.ucols.len(), 0.0);
        for k in 0..n {
            self.inv_diag[k] = 1.0 / self.lu[k * n + k];
            for j in self.ucol_ptr[k]..self.ucol_ptr[k + 1] {
                self.uvals[j] = self.lu[k * n + self.ucols[j] as usize];
            }
            for i in self.mrow_ptr[k]..self.mrow_ptr[k + 1] {
                self.mvals[i] = self.lu[self.mrows[i] as usize * n + k];
            }
        }
        self.structured = true;
    }

    /// Solves `A·x = rhs` in place for the matrix `A` last factored,
    /// replaying the stored row exchanges and multipliers. After
    /// [`LuFactors::factor`] this is bitwise identical to
    /// `A.solve_in_place(rhs)`; after [`LuFactors::refactor`] it walks
    /// only the recorded structure.
    ///
    /// # Panics
    ///
    /// Panics if `rhs.len()` does not match the factored dimension.
    #[allow(clippy::needless_range_loop)]
    pub fn solve(&self, rhs: &mut [f64]) {
        let n = self.n;
        assert_eq!(rhs.len(), n, "rhs length must equal matrix dimension");
        // Apply the whole pivot permutation first: the elimination swaps
        // stored multiplier columns on later pivots (so L lives in final
        // row positions), which makes "permute, then substitute" the
        // replay that matches solve_in_place's interleaved updates bit
        // for bit.
        for k in 0..n {
            let pivot_row = self.swaps[k];
            if pivot_row != k {
                rhs.swap(k, pivot_row);
            }
        }
        if !self.structured {
            for k in 0..n {
                for r in (k + 1)..n {
                    let factor = self.lu[r * n + k];
                    if factor == 0.0 {
                        continue;
                    }
                    rhs[r] -= factor * rhs[k];
                }
            }
            back_substitute(n, &self.lu, rhs);
            return;
        }
        for k in 0..n {
            let xk = rhs[k];
            for i in self.mrow_ptr[k]..self.mrow_ptr[k + 1] {
                let factor = self.mvals[i];
                if factor != 0.0 {
                    rhs[self.mrows[i] as usize] -= factor * xk;
                }
            }
        }
        for k in (0..n).rev() {
            let mut sum = rhs[k];
            for j in self.ucol_ptr[k]..self.ucol_ptr[k + 1] {
                sum -= self.uvals[j] * rhs[self.ucols[j] as usize];
            }
            rhs[k] = sum * self.inv_diag[k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_identity() {
        let mut m = DenseMatrix::zeros(3);
        for i in 0..3 {
            m.set(i, i, 1.0);
        }
        let mut rhs = vec![1.0, 2.0, 3.0];
        m.solve_in_place(&mut rhs).unwrap();
        assert_eq!(rhs, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solves_small_system() {
        // 2x + y = 5; x + 3y = 10 → x = 1, y = 3.
        let mut m = DenseMatrix::zeros(2);
        m.set(0, 0, 2.0);
        m.set(0, 1, 1.0);
        m.set(1, 0, 1.0);
        m.set(1, 1, 3.0);
        let mut rhs = vec![5.0, 10.0];
        m.solve_in_place(&mut rhs).unwrap();
        assert!((rhs[0] - 1.0).abs() < 1e-12);
        assert!((rhs[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // First diagonal entry zero requires a row swap.
        let mut m = DenseMatrix::zeros(2);
        m.set(0, 0, 0.0);
        m.set(0, 1, 1.0);
        m.set(1, 0, 1.0);
        m.set(1, 1, 0.0);
        let mut rhs = vec![2.0, 3.0];
        m.solve_in_place(&mut rhs).unwrap();
        assert!((rhs[0] - 3.0).abs() < 1e-12);
        assert!((rhs[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let mut m = DenseMatrix::zeros(2);
        m.set(0, 0, 1.0);
        m.set(0, 1, 2.0);
        m.set(1, 0, 2.0);
        m.set(1, 1, 4.0); // rank 1
        let mut rhs = vec![1.0, 2.0];
        assert!(matches!(
            m.solve_in_place(&mut rhs),
            Err(Error::SingularMatrix { .. })
        ));
    }

    #[test]
    fn residual_is_small_for_random_system() {
        // Deterministic pseudo-random fill (LCG) to avoid rand dependency
        // in the hot path tests.
        let n = 12;
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut m = DenseMatrix::zeros(n);
        for r in 0..n {
            for c in 0..n {
                m.set(r, c, next());
            }
            m.add(r, r, 4.0); // diagonal dominance ⇒ nonsingular
        }
        let x_true: Vec<f64> = (0..n).map(|i| i as f64 - 3.0).collect();
        let mut rhs = m.mul_vec(&x_true);
        let mut lu = m.clone();
        lu.solve_in_place(&mut rhs).unwrap();
        for (xs, xt) in rhs.iter().zip(&x_true) {
            assert!((xs - xt).abs() < 1e-10, "{xs} vs {xt}");
        }
    }

    #[test]
    fn clear_keeps_dimension() {
        let mut m = DenseMatrix::zeros(4);
        m.set(2, 3, 5.0);
        m.clear();
        assert_eq!(m.dim(), 4);
        assert_eq!(m.get(2, 3), 0.0);
    }

    #[test]
    fn empty_system_is_ok() {
        let mut m = DenseMatrix::zeros(0);
        let mut rhs: Vec<f64> = vec![];
        m.solve_in_place(&mut rhs).unwrap();
    }

    /// Deterministic pseudo-random stream shared by the parity tests.
    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        }
    }

    #[test]
    fn factored_solve_is_bitwise_identical_to_solve_in_place() {
        for (n, seed) in [(1usize, 7u64), (2, 11), (5, 13), (12, 17), (23, 19)] {
            let mut next = lcg(seed);
            let mut m = DenseMatrix::zeros(n);
            for r in 0..n {
                for c in 0..n {
                    m.set(r, c, next());
                }
            }
            // No diagonal boost: exercise real pivoting paths.
            let rhs0: Vec<f64> = (0..n).map(|_| next()).collect();

            let mut direct = rhs0.clone();
            m.clone().solve_in_place(&mut direct).unwrap();

            let mut lu = LuFactors::new(n);
            lu.factor_from(&m).unwrap();
            let mut replayed = rhs0.clone();
            lu.solve(&mut replayed);

            // The fused path: rhs eliminated in the factor sweep itself.
            let fill = |buf: &mut [f64]| buf.copy_from_slice(m.as_slice());
            let mut fused = rhs0.clone();
            lu.factor(n, fill, Some(&mut fused)).unwrap();

            // refactor → factor: once replayed factors are replaced by a
            // dense factorization, the solve must be bitwise again.
            let full = vec![u64::MAX; n * n.div_ceil(64)];
            lu.refactor(n, &full, fill).unwrap();
            lu.refactor(n, &full, fill).unwrap();
            lu.factor(n, fill, None).unwrap();
            let mut after_replay = rhs0.clone();
            lu.solve(&mut after_replay);

            for (path, got) in [
                ("solve", &replayed),
                ("fused", &fused),
                ("refactor→factor", &after_replay),
            ] {
                for (a, b) in direct.iter().zip(got) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{path} n={n} seed={seed}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn factorization_reuse_across_many_rhs() {
        let n = 9;
        let mut next = lcg(29);
        let mut m = DenseMatrix::zeros(n);
        for r in 0..n {
            for c in 0..n {
                m.set(r, c, next());
            }
            m.add(r, r, 3.0);
        }
        let mut lu = LuFactors::new(n);
        lu.factor_from(&m).unwrap();
        assert_eq!(lu.dim(), n);
        for _ in 0..4 {
            let rhs0: Vec<f64> = (0..n).map(|_| next()).collect();
            let mut direct = rhs0.clone();
            m.clone().solve_in_place(&mut direct).unwrap();
            let mut replayed = rhs0;
            lu.solve(&mut replayed);
            for (a, b) in direct.iter().zip(&replayed) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn factor_from_reports_singular_at_same_row() {
        let mut m = DenseMatrix::zeros(2);
        m.set(0, 0, 1.0);
        m.set(0, 1, 2.0);
        m.set(1, 0, 2.0);
        m.set(1, 1, 4.0); // rank 1
        let mut lu = LuFactors::new(2);
        let got = lu.factor_from(&m);
        let mut rhs = vec![1.0, 2.0];
        let want = m.solve_in_place(&mut rhs);
        match (got, want) {
            (Err(Error::SingularMatrix { row: a }), Err(Error::SingularMatrix { row: b })) => {
                assert_eq!(a, b)
            }
            other => panic!("expected matching singular reports, got {other:?}"),
        }
    }

    #[test]
    fn factor_empty_system_is_ok() {
        let mut lu = LuFactors::new(0);
        lu.factor_from(&DenseMatrix::zeros(0)).unwrap();
        let mut rhs: Vec<f64> = vec![];
        lu.solve(&mut rhs);
    }

    // ------------------------------------------- replayed factorizations

    /// Row-major bitmask pattern of `m`'s nonzeros, `ceil(n/64)` words
    /// per row (the format `LuFactors::refactor` expects).
    fn pattern_of(m: &DenseMatrix) -> Vec<u64> {
        let n = m.dim();
        let words = n.div_ceil(64);
        let mut pat = vec![0u64; n * words];
        for r in 0..n {
            for c in 0..n {
                if m.get(r, c) != 0.0 {
                    pat[r * words + c / 64] |= 1u64 << (c % 64);
                }
            }
        }
        pat
    }

    /// A sparse diagonally-loaded test matrix shaped like a small MNA
    /// system: diagonal plus a few off-diagonal couplings.
    fn sparse_system(n: usize, seed: u64) -> DenseMatrix {
        let mut next = lcg(seed);
        let mut m = DenseMatrix::zeros(n);
        for r in 0..n {
            m.set(r, r, 2.0 + next().abs());
            let c1 = (r + 1) % n;
            let c2 = (r * 3 + 1) % n;
            m.add(r, c1, next());
            m.add(r, c2, next());
        }
        m
    }

    #[test]
    fn sparse_replay_matches_dense_solution() {
        for (n, seed) in [(1usize, 31u64), (4, 37), (9, 41), (17, 43), (30, 47)] {
            let m = sparse_system(n, seed);
            let mut next = lcg(seed ^ 0xABCD);
            let rhs0: Vec<f64> = (0..n).map(|_| next()).collect();

            let mut direct = rhs0.clone();
            m.clone().solve_in_place(&mut direct).unwrap();

            let mut slu = LuFactors::new(n);
            slu.refactor(n, &pattern_of(&m), |buf| buf.copy_from_slice(m.as_slice()))
                .unwrap();
            let mut replayed = rhs0.clone();
            slu.solve(&mut replayed);

            for (i, (a, b)) in direct.iter().zip(&replayed).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-12 * a.abs().max(1.0),
                    "n={n} seed={seed} x[{i}]: dense {a} vs replay {b}"
                );
            }
        }
    }

    #[test]
    fn sparse_replay_refactorization_is_deterministic_and_tracks_values() {
        let n = 12;
        let m = sparse_system(n, 53);
        let pat = pattern_of(&m);
        let mut slu = LuFactors::new(n);
        slu.refactor(n, &pat, |buf| buf.copy_from_slice(m.as_slice()))
            .unwrap();
        let mut a = vec![1.0; n];
        slu.solve(&mut a);

        // Same values again: the replayed factorization must reproduce
        // the recorded one bitwise (same swaps, same arithmetic).
        slu.refactor(n, &pat, |buf| buf.copy_from_slice(m.as_slice()))
            .unwrap();
        let mut b = vec![1.0; n];
        slu.solve(&mut b);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }

        // Perturbed values inside the same pattern: the replay must track
        // them, agreeing with a fresh dense solve to rounding.
        let mut m2 = m.clone();
        for r in 0..n {
            m2.add(r, r, 0.25);
        }
        slu.refactor(n, &pat, |buf| buf.copy_from_slice(m2.as_slice()))
            .unwrap();
        let mut replayed = vec![1.0; n];
        slu.solve(&mut replayed);
        let mut direct = vec![1.0; n];
        m2.solve_in_place(&mut direct).unwrap();
        for (x, y) in direct.iter().zip(&replayed) {
            assert!((x - y).abs() <= 1e-12 * x.abs().max(1.0), "{x} vs {y}");
        }
    }

    #[test]
    fn sparse_replay_falls_back_when_the_frozen_pivot_degrades() {
        // First factorization freezes a pivot order for this matrix…
        let n = 6;
        let mut m = DenseMatrix::zeros(n);
        for r in 0..n {
            m.set(r, r, 4.0);
            m.set(r, (r + 1) % n, 1.0);
        }
        let mut slu = LuFactors::new(n);
        // Pattern must cover both value sets (dense here, which is an
        // allowed superset).
        let full = vec![u64::MAX; n];
        slu.refactor(n, &full, |buf| buf.copy_from_slice(m.as_slice()))
            .unwrap();

        // …then the values shift so that order's first pivot collapses.
        // The replay must fail internally and transparently restructure
        // with fresh pivoting instead of surfacing an error.
        m.set(0, 0, 1e-18);
        m.set(0, 1, 3.0);
        m.set(1, 0, 2.0);
        slu.refactor(n, &full, |buf| buf.copy_from_slice(m.as_slice()))
            .unwrap();
        let mut replayed = vec![1.0; n];
        slu.solve(&mut replayed);
        let mut direct = vec![1.0; n];
        m.clone().solve_in_place(&mut direct).unwrap();
        for (x, y) in direct.iter().zip(&replayed) {
            assert!((x - y).abs() <= 1e-10 * x.abs().max(1.0), "{x} vs {y}");
        }
    }

    #[test]
    fn sparse_replay_invalidate_structure_forces_rerecord() {
        let n = 8;
        let m = sparse_system(n, 59);
        let pat = pattern_of(&m);
        let mut slu = LuFactors::new(n);
        slu.refactor(n, &pat, |buf| buf.copy_from_slice(m.as_slice()))
            .unwrap();

        // A matrix with a *different* sparsity pattern is only legal after
        // invalidation (the caller's contract when the base plan rebuilds).
        let m2 = sparse_system(n, 61);
        slu.invalidate_structure();
        slu.refactor(n, &pattern_of(&m2), |buf| {
            buf.copy_from_slice(m2.as_slice())
        })
        .unwrap();
        let mut replayed = vec![1.0; n];
        slu.solve(&mut replayed);
        let mut direct = vec![1.0; n];
        m2.clone().solve_in_place(&mut direct).unwrap();
        for (x, y) in direct.iter().zip(&replayed) {
            assert!((x - y).abs() <= 1e-12 * x.abs().max(1.0), "{x} vs {y}");
        }
    }

    #[test]
    fn sparse_replay_reports_singular_systems() {
        let n = 3;
        let mut m = DenseMatrix::zeros(n);
        // Row 2 is a copy of row 1: rank 2.
        m.set(0, 0, 1.0);
        m.set(1, 0, 2.0);
        m.set(1, 1, 1.0);
        m.set(2, 0, 2.0);
        m.set(2, 1, 1.0);
        let mut slu = LuFactors::new(n);
        let got = slu.refactor(n, &vec![u64::MAX; n], |buf| {
            buf.copy_from_slice(m.as_slice())
        });
        assert!(matches!(got, Err(Error::SingularMatrix { .. })), "{got:?}");
    }
}
