//! Matrix factorizations and linear solvers.
//!
//! Two solvers are provided:
//!
//! * [`Lu`] — LU decomposition with partial pivoting. This is the
//!   workhorse of the SPICE-level simulator: every Newton–Raphson
//!   iteration solves `J Δx = -f` with the (small, dense) modified nodal
//!   analysis Jacobian.
//! * [`lstsq`] — least-squares via Householder QR, used to fit
//!   closed-form transfer approximations of printed activation circuits
//!   to simulated samples.

use crate::{LinalgError, Matrix};

/// LU decomposition with partial (row) pivoting: `P·A = L·U`.
///
/// # Examples
///
/// ```
/// use pnc_linalg::{Matrix, decomp::Lu};
///
/// let a = Matrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]);
/// let lu = Lu::new(&a).unwrap();
/// let x = lu.solve(&[10.0, 12.0]).unwrap();
/// // verify A·x = b
/// let b = a.matvec(&x);
/// assert!((b[0] - 10.0).abs() < 1e-12 && (b[1] - 12.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    /// Packed LU factors (unit lower triangle implicit).
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original row stored at row `i`.
    perm: Vec<usize>,
    /// Sign of the permutation (for determinants).
    sign: f64,
}

impl Default for Lu {
    /// The factors of the empty `0 × 0` matrix: storage for
    /// [`Lu::refactor`] to fill.
    fn default() -> Self {
        Lu {
            lu: Matrix::default(),
            perm: Vec::new(),
            sign: 1.0,
        }
    }
}

impl Lu {
    /// Factorizes a square matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for rectangular input and
    /// [`LinalgError::Singular`] when a pivot underflows the singularity
    /// threshold.
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        let mut lu = Lu::default();
        lu.refactor(a)?;
        Ok(lu)
    }

    /// Factorizes `a` in place of the current factors, reusing their
    /// storage: a Newton loop refactors one `Lu` every iteration
    /// without allocating once its dimension has been seen. The
    /// factors equal [`Lu::new`]'s bit for bit.
    ///
    /// # Errors
    ///
    /// As [`Lu::new`]. After an error the factors are meaningless until
    /// the next successful refactor.
    pub fn refactor(&mut self, a: &Matrix) -> Result<(), LinalgError> {
        if a.rows() != a.cols() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        let Lu { lu, perm, sign } = self;
        lu.clone_from(a);
        perm.clear();
        perm.extend(0..n);
        *sign = 1.0;

        for k in 0..n {
            // Partial pivoting: find the largest |entry| in column k.
            let mut p = k;
            let mut pmax = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > pmax {
                    pmax = v;
                    p = i;
                }
            }
            if pmax < 1e-300 {
                return Err(LinalgError::Singular { pivot: k });
            }
            if p != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = tmp;
                }
                perm.swap(k, p);
                *sign = -*sign;
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let m = lu[(i, k)] / pivot;
                lu[(i, k)] = m;
                // lint: allow(L002, reason = "sparse-skip fast path: only a bit-exact zero may skip the update")
                if m != 0.0 {
                    for j in (k + 1)..n {
                        let v = lu[(k, j)];
                        lu[(i, j)] -= m * v;
                    }
                }
            }
        }
        Ok(())
    }

    /// The packed factors (`L` below the diagonal with its unit
    /// diagonal implicit, `U` on and above it) and the row permutation:
    /// `perm[i]` is the original row stored at row `i`.
    pub fn factors(&self) -> (&Matrix, &[usize]) {
        (&self.lu, &self.perm)
    }

    /// Dimension of the factorized matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b` for a single right-hand side.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `b.len()` differs from
    /// the factorized dimension.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut x = Vec::new();
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A·x = b` into `x`, reusing its storage: the result equals
    /// [`Lu::solve`]'s bit for bit.
    ///
    /// # Errors
    ///
    /// As [`Lu::solve`]; `x` is left untouched then.
    #[allow(clippy::needless_range_loop)] // index loops mirror the textbook algorithm
    pub fn solve_into(&self, b: &[f64], x: &mut Vec<f64>) -> Result<(), LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "lu_solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        // Apply permutation and forward-substitute through L.
        x.clear();
        x.extend(self.perm.iter().map(|&p| b[p]));
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc;
        }
        // Back-substitute through U.
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc / self.lu[(i, i)];
        }
        Ok(())
    }

    /// Solves `Aᵀ·x = b` reusing the factors of `A` (`P·A = L·U`, so
    /// `Aᵀ = Uᵀ·Lᵀ·P`): forward-substitute through `Uᵀ`,
    /// back-substitute through the unit-diagonal `Lᵀ`, then undo the
    /// row permutation. This is what the Hager 1-norm condition
    /// estimator ([`crate::cond`]) needs — one extra triangular pair
    /// per probe, no refactorization.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `b.len()` differs
    /// from the factorized dimension.
    #[allow(clippy::needless_range_loop)] // index loops mirror the textbook algorithm
    pub fn solve_transpose(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "lu_solve_transpose",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        // Forward-substitute through Uᵀ (lower triangular, diagonal of U).
        let mut y = b.to_vec();
        for i in 0..n {
            let mut acc = y[i];
            for j in 0..i {
                acc -= self.lu[(j, i)] * y[j];
            }
            y[i] = acc / self.lu[(i, i)];
        }
        // Back-substitute through Lᵀ (upper triangular, unit diagonal).
        for i in (0..n).rev() {
            let mut acc = y[i];
            for j in (i + 1)..n {
                acc -= self.lu[(j, i)] * y[j];
            }
            y[i] = acc;
        }
        // Undo the permutation: x = Pᵀ·z.
        let mut x = vec![0.0; n];
        for i in 0..n {
            x[self.perm[i]] = y[i];
        }
        Ok(x)
    }

    /// Solves `A·X = B` for all right-hand sides at once: one blocked
    /// forward/back-substitution sweep with the RHS columns as the
    /// inner dimension, instead of re-walking the triangular factors
    /// per column: the triangular factors stream through cache once per
    /// sweep, not once per RHS. [`Lu::inverse`] is built on it.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `B` has the wrong row
    /// count.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix, LinalgError> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "lu_solve_matrix",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        let m = b.cols();
        // Apply the row permutation to every column up front.
        let mut out = Matrix::zeros(n, m);
        for i in 0..n {
            let src = self.perm[i];
            for j in 0..m {
                out[(i, j)] = b[(src, j)];
            }
        }
        // Forward-substitute through unit-lower L, all columns per row.
        for i in 1..n {
            for k in 0..i {
                let l = self.lu[(i, k)];
                // lint: allow(L002, reason = "sparse-skip fast path: only a bit-exact zero may skip the update")
                if l != 0.0 {
                    for j in 0..m {
                        out[(i, j)] -= l * out[(k, j)];
                    }
                }
            }
        }
        // Back-substitute through U, all columns per row.
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                let u = self.lu[(i, k)];
                // lint: allow(L002, reason = "sparse-skip fast path: only a bit-exact zero may skip the update")
                if u != 0.0 {
                    for j in 0..m {
                        out[(i, j)] -= u * out[(k, j)];
                    }
                }
            }
            let d = self.lu[(i, i)];
            for j in 0..m {
                out[(i, j)] /= d;
            }
        }
        Ok(out)
    }

    /// Determinant of the factorized matrix.
    pub fn det(&self) -> f64 {
        let mut d = self.sign;
        for i in 0..self.dim() {
            d *= self.lu[(i, i)];
        }
        d
    }

    /// Explicit inverse (prefer [`Lu::solve`] when possible).
    ///
    /// # Errors
    ///
    /// Propagates solver errors (cannot normally occur after a
    /// successful factorization).
    pub fn inverse(&self) -> Result<Matrix, LinalgError> {
        self.solve_matrix(&Matrix::identity(self.dim()))
    }
}

/// Solves the linear system `A·x = b` in one call (factorize + solve).
///
/// # Errors
///
/// Same conditions as [`Lu::new`] and [`Lu::solve`].
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    Lu::new(a)?.solve(b)
}

/// Least-squares solution of `A·x ≈ b` (`A` is `m × n`, `m ≥ n`) via
/// Householder QR without explicit Q formation.
///
/// Returns the coefficient vector of length `n` minimizing `‖A·x − b‖₂`.
///
/// # Errors
///
/// Returns [`LinalgError::ShapeMismatch`] when `b.len() != A.rows()` or
/// when the system is underdetermined, and [`LinalgError::Singular`]
/// when `A` is rank-deficient to working precision.
#[allow(clippy::needless_range_loop)] // index loops mirror the textbook algorithm
pub fn lstsq(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let (m, n) = a.shape();
    if b.len() != m || m < n {
        return Err(LinalgError::ShapeMismatch {
            op: "lstsq",
            lhs: a.shape(),
            rhs: (b.len(), 1),
        });
    }
    let mut r = a.clone();
    let mut rhs = b.to_vec();

    for k in 0..n {
        // Householder vector for column k below the diagonal.
        let mut norm = 0.0;
        for i in k..m {
            norm += r[(i, k)] * r[(i, k)];
        }
        let norm = norm.sqrt();
        if norm < 1e-300 {
            return Err(LinalgError::Singular { pivot: k });
        }
        let alpha = if r[(k, k)] >= 0.0 { -norm } else { norm };
        let mut v: Vec<f64> = (k..m).map(|i| r[(i, k)]).collect();
        v[0] -= alpha;
        let vnorm2: f64 = v.iter().map(|x| x * x).sum();
        if vnorm2 > 0.0 {
            // Reflect the remaining columns of R.
            for j in k..n {
                let mut dot = 0.0;
                for (t, &vi) in v.iter().enumerate() {
                    dot += vi * r[(k + t, j)];
                }
                let c = 2.0 * dot / vnorm2;
                for (t, &vi) in v.iter().enumerate() {
                    r[(k + t, j)] -= c * vi;
                }
            }
            // Reflect the right-hand side.
            let mut dot = 0.0;
            for (t, &vi) in v.iter().enumerate() {
                dot += vi * rhs[k + t];
            }
            let c = 2.0 * dot / vnorm2;
            for (t, &vi) in v.iter().enumerate() {
                rhs[k + t] -= c * vi;
            }
        }
    }

    // Back-substitution on the upper-triangular R (top n rows).
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut acc = rhs[i];
        for j in (i + 1)..n {
            acc -= r[(i, j)] * x[j];
        }
        let d = r[(i, i)];
        if d.abs() < 1e-300 {
            return Err(LinalgError::Singular { pivot: i });
        }
        x[i] = acc / d;
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lu_solves_known_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]);
        let x = solve(&a, &[8.0, -11.0, -3.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-10);
        assert!((x[1] - 3.0).abs() < 1e-10);
        assert!((x[2] + 1.0).abs() < 1e-10);
    }

    #[test]
    fn lu_requires_pivoting() {
        // Zero in the (0,0) position forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = solve(&a, &[3.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 3.0]);
    }

    #[test]
    fn lu_detects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(Lu::new(&a), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn lu_rejects_rectangular() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(Lu::new(&a), Err(LinalgError::NotSquare { .. })));
    }

    #[test]
    fn solve_transpose_matches_factorizing_the_transpose() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]);
        let b = [1.0, -2.0, 0.5];
        let via_factors = Lu::new(&a).unwrap().solve_transpose(&b).unwrap();
        let at = Matrix::from_fn(3, 3, |i, j| a[(j, i)]);
        let direct = solve(&at, &b).unwrap();
        for (x, y) in via_factors.iter().zip(&direct) {
            assert!((x - y).abs() < 1e-10, "{via_factors:?} vs {direct:?}");
        }
    }

    #[test]
    fn solve_transpose_survives_pivoting() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = Lu::new(&a).unwrap().solve_transpose(&[3.0, 7.0]).unwrap();
        // Aᵀ = A for this permutation matrix.
        assert_eq!(x, vec![7.0, 3.0]);
    }

    #[test]
    fn solve_transpose_wrong_rhs_length_errors() {
        let lu = Lu::new(&Matrix::identity(3)).unwrap();
        assert!(lu.solve_transpose(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn det_matches_cofactor_expansion() {
        let a = Matrix::from_rows(&[&[3.0, 8.0], &[4.0, 6.0]]);
        let lu = Lu::new(&a).unwrap();
        assert!((lu.det() - (3.0 * 6.0 - 8.0 * 4.0)).abs() < 1e-10);
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = Matrix::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]);
        let inv = Lu::new(&a).unwrap().inverse().unwrap();
        assert!(a.matmul(&inv).approx_eq(&Matrix::identity(2), 1e-10));
    }

    #[test]
    fn solve_matrix_multiple_rhs() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 1.0], &[11.0, 1.0]]);
        let x = Lu::new(&a).unwrap().solve_matrix(&b).unwrap();
        assert!(a.matmul(&x).approx_eq(&b, 1e-10));
    }

    #[test]
    fn solve_wrong_rhs_length_errors() {
        let a = Matrix::identity(3);
        let lu = Lu::new(&a).unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn lstsq_exact_system() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[0.0, 0.0]]);
        let x = lstsq(&a, &[3.0, -2.0, 0.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12 && (x[1] + 2.0).abs() < 1e-12);
    }

    #[test]
    fn lstsq_fits_line() {
        // y = 2x + 1 with symmetric noise that least squares rejects.
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [1.1, 2.9, 5.1, 6.9];
        let a = Matrix::from_fn(4, 2, |i, j| if j == 0 { xs[i] } else { 1.0 });
        let c = lstsq(&a, &ys).unwrap();
        assert!((c[0] - 2.0).abs() < 0.05, "slope {}", c[0]);
        assert!((c[1] - 1.0).abs() < 0.10, "intercept {}", c[1]);
    }

    #[test]
    fn lstsq_underdetermined_is_error() {
        let a = Matrix::zeros(2, 3);
        assert!(lstsq(&a, &[1.0, 2.0]).is_err());
    }

    #[test]
    fn lstsq_residual_is_orthogonal_to_columns() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 0.5], &[3.0, -1.0], &[0.5, 4.0]]);
        let b = [1.0, 2.0, 3.0, 4.0];
        let x = lstsq(&a, &b).unwrap();
        let pred = a.matvec(&x);
        let resid: Vec<f64> = b.iter().zip(&pred).map(|(&bi, &pi)| bi - pi).collect();
        // Normal equations: Aᵀ r = 0 at the optimum.
        for j in 0..2 {
            let dot: f64 = (0..4).map(|i| a[(i, j)] * resid[i]).sum();
            assert!(dot.abs() < 1e-9, "column {j} residual dot {dot}");
        }
    }
}
