//! Row-major dense `f64` matrix.
//!
//! [`Matrix`] is the single numeric container used throughout the pNC
//! workspace: autodiff tensors, SPICE Jacobians, surrogate training data
//! and crossbar conductance matrices are all `Matrix` values. The type
//! favours clarity and predictable performance over genericity: it is
//! always `f64`, always row-major, and all shape errors are either
//! `Result`s (for the `try_*` API) or panics with precise messages (for
//! the infallible convenience API used in hot internal code where shapes
//! are invariants).

use crate::kernel::{self, AcrossP, AlongP};
use crate::LinalgError;
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub};

/// Index of the largest value; the first one wins ties, and an empty
/// slice gives 0. The hardware argmax that turns output voltages (or
/// logits) into a class.
pub fn argmax(values: &[f64]) -> usize {
    let mut best = 0usize;
    for (j, &v) in values.iter().enumerate() {
        if v > values[best] {
            best = j;
        }
    }
    best
}

/// A dense, row-major matrix of `f64` values. `Matrix::default()` is
/// the empty `0 × 0` matrix.
///
/// # Examples
///
/// ```
/// use pnc_linalg::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
/// assert_eq!(m.shape(), (2, 3));
/// assert_eq!(m[(1, 2)], 6.0);
/// assert_eq!(m.transpose().shape(), (3, 2));
/// ```
#[derive(Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
        }
    }

    /// Copies `source` into `self`'s storage, which grows only when it
    /// has room for fewer elements than `source` holds.
    fn clone_from(&mut self, source: &Self) {
        self.rows = source.rows;
        self.cols = source.cols;
        self.data.clone_from(&source.data);
    }
}

impl Matrix {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 0.0)
    }

    /// Creates a `rows × cols` matrix of ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 1.0)
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} does not match {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "Matrix::from_rows: no rows given");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.len(),
                cols,
                "Matrix::from_rows: row {i} has length {} but row 0 has length {cols}",
                r.len()
            );
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a single-column matrix from a slice.
    pub fn column(values: &[f64]) -> Self {
        Matrix {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// Creates a single-row matrix from a slice.
    pub fn row(values: &[f64]) -> Self {
        Matrix {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn diag(values: &[f64]) -> Self {
        let n = values.len();
        let mut m = Self::zeros(n, n);
        for (i, &v) in values.iter().enumerate() {
            m.data[i * n + i] = v;
        }
        m
    }

    // ------------------------------------------------------------------
    // Shape and element access
    // ------------------------------------------------------------------

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns its row-major storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Returns element `(i, j)`, or an error if out of bounds.
    pub fn try_get(&self, i: usize, j: usize) -> Result<f64, LinalgError> {
        if i >= self.rows || j >= self.cols {
            return Err(LinalgError::IndexOutOfBounds {
                index: (i, j),
                shape: self.shape(),
            });
        }
        Ok(self.data[i * self.cols + j])
    }

    /// Returns row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_slice(&self, i: usize) -> &[f64] {
        assert!(
            i < self.rows,
            "row {i} out of bounds for {} rows",
            self.rows
        );
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Returns a mutable slice of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_slice_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(
            i < self.rows,
            "row {i} out of bounds for {} rows",
            self.rows
        );
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Returns column `j` as a freshly allocated vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn col_vec(&self, j: usize) -> Vec<f64> {
        assert!(
            j < self.cols,
            "col {j} out of bounds for {} cols",
            self.cols
        );
        (0..self.rows)
            .map(|i| self.data[i * self.cols + j])
            .collect()
    }

    // ------------------------------------------------------------------
    // Structural operations
    // ------------------------------------------------------------------

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Horizontally concatenates `self` with `other` (same row count).
    pub fn hstack(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.rows != other.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "hstack",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for i in 0..self.rows {
            out.row_slice_mut(i)[..self.cols].copy_from_slice(self.row_slice(i));
            out.row_slice_mut(i)[self.cols..].copy_from_slice(other.row_slice(i));
        }
        Ok(out)
    }

    /// Vertically concatenates `self` with `other` (same column count).
    pub fn vstack(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != other.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "vstack",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Ok(Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }

    /// Returns the sub-matrix of rows `r0..r1` and columns `c0..c1`.
    ///
    /// # Panics
    ///
    /// Panics if the ranges exceed the matrix bounds or are reversed.
    pub fn submatrix(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Matrix {
        assert!(r0 <= r1 && r1 <= self.rows, "bad row range {r0}..{r1}");
        assert!(c0 <= c1 && c1 <= self.cols, "bad col range {c0}..{c1}");
        Matrix::from_fn(r1 - r0, c1 - c0, |i, j| {
            self.data[(r0 + i) * self.cols + c0 + j]
        })
    }

    /// Returns a matrix containing the selected rows, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (k, &i) in indices.iter().enumerate() {
            out.row_slice_mut(k).copy_from_slice(self.row_slice(i));
        }
        out
    }

    /// Reshapes into `(rows, cols)` without copying semantics change.
    ///
    /// # Panics
    ///
    /// Panics if the element count differs.
    pub fn reshape(mut self, rows: usize, cols: usize) -> Matrix {
        assert_eq!(
            self.data.len(),
            rows * cols,
            "reshape: cannot view {} elements as {rows}x{cols}",
            self.data.len()
        );
        self.rows = rows;
        self.cols = cols;
        self
    }

    /// Makes `self` a `rows × cols` matrix of zeros in its own storage,
    /// which grows only when it has room for fewer than `rows · cols`
    /// elements.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    // ------------------------------------------------------------------
    // Element-wise operations
    // ------------------------------------------------------------------

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two equal-shaped matrices element-wise with `f`.
    pub fn zip_map(
        &self,
        other: &Matrix,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Matrix, LinalgError> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "zip_map",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch; use [`Matrix::zip_map`] for a fallible
    /// variant.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a * b)
            // lint: allow(L001, reason = "documented panic API with a fallible variant alongside")
            .expect("hadamard: shape mismatch")
    }

    /// Element-wise division.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn elem_div(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a / b)
            // lint: allow(L001, reason = "documented panic API with a fallible variant alongside")
            .expect("elem_div: shape mismatch")
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// Adds `s` to every element.
    pub fn shift(&self, s: f64) -> Matrix {
        self.map(|x| x + s)
    }

    // ------------------------------------------------------------------
    // Broadcasting helpers
    // ------------------------------------------------------------------

    /// Adds a `1 × cols` row vector to every row.
    pub fn add_row_broadcast(&self, row: &Matrix) -> Result<Matrix, LinalgError> {
        if row.rows != 1 || row.cols != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "add_row_broadcast",
                lhs: self.shape(),
                rhs: row.shape(),
            });
        }
        let mut out = self.clone();
        for i in 0..out.rows {
            for j in 0..out.cols {
                out.data[i * out.cols + j] += row.data[j];
            }
        }
        Ok(out)
    }

    /// Multiplies every row element-wise by a `1 × cols` row vector.
    pub fn mul_row_broadcast(&self, row: &Matrix) -> Result<Matrix, LinalgError> {
        if row.rows != 1 || row.cols != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "mul_row_broadcast",
                lhs: self.shape(),
                rhs: row.shape(),
            });
        }
        let mut out = self.clone();
        for i in 0..out.rows {
            for j in 0..out.cols {
                out.data[i * out.cols + j] *= row.data[j];
            }
        }
        Ok(out)
    }

    /// Divides every row element-wise by a `1 × cols` row vector.
    pub fn zip_row_div(&self, row: &Matrix) -> Result<Matrix, LinalgError> {
        if row.rows != 1 || row.cols != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "zip_row_div",
                lhs: self.shape(),
                rhs: row.shape(),
            });
        }
        let mut out = self.clone();
        for i in 0..out.rows {
            for j in 0..out.cols {
                out.data[i * out.cols + j] /= row.data[j];
            }
        }
        Ok(out)
    }

    /// Divides every row element-wise by a `rows × 1` column vector.
    pub fn div_col_broadcast(&self, col: &Matrix) -> Result<Matrix, LinalgError> {
        if col.cols != 1 || col.rows != self.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "div_col_broadcast",
                lhs: self.shape(),
                rhs: col.shape(),
            });
        }
        let mut out = self.clone();
        for i in 0..out.rows {
            let d = col.data[i];
            for j in 0..out.cols {
                out.data[i * out.cols + j] /= d;
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all elements (`NaN` for an empty matrix).
    pub fn mean(&self) -> f64 {
        self.sum() / self.data.len() as f64
    }

    /// Maximum element (`-inf` for an empty matrix).
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Minimum element (`+inf` for an empty matrix).
    pub fn min(&self) -> f64 {
        self.data.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Column sums as a `1 × cols` matrix.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j] += self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Row sums as a `rows × 1` matrix.
    pub fn sum_cols(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, 1);
        for i in 0..self.rows {
            out.data[i] = self.row_slice(i).iter().sum();
        }
        out
    }

    /// Row-wise maximum as a `rows × 1` matrix.
    pub fn row_max(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, 1);
        for i in 0..self.rows {
            out.data[i] = self
                .row_slice(i)
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max);
        }
        out
    }

    /// [`argmax`] of each row: the first maximum wins ties.
    pub fn row_argmax(&self) -> Vec<usize> {
        (0..self.rows).map(|i| argmax(self.row_slice(i))).collect()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|&x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute element.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, &x| m.max(x.abs()))
    }

    // ------------------------------------------------------------------
    // Matrix multiplication and linear maps
    // ------------------------------------------------------------------

    /// Matrix product `self · other`.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree; use [`Matrix::try_matmul`]
    /// for a fallible variant.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        // lint: allow(L001, reason = "documented panic API with a fallible variant alongside")
        self.try_matmul(other).expect("matmul: shape mismatch")
    }

    /// Matrix product `self · other`, returning an error on mismatch.
    ///
    /// Each element sums its terms over the inner index in ascending
    /// order from `+0.0` and skips a term whose `self` factor is an
    /// exact zero, so an `∞` or `NaN` of `other` behind it never reaches
    /// the result. The result is bit-identical to that naive loop at any
    /// thread count.
    pub fn try_matmul(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        kernel::product::<_, _, true>(
            AlongP(&self.data),
            AcrossP(&other.data, n),
            (m, k, n),
            &mut out.data,
        );
        Ok(out)
    }

    /// Computes `selfᵀ · other` without materializing the transpose,
    /// under the same contract as [`Matrix::try_matmul`]: terms summed
    /// in ascending order, exact zeros of `self` skipped.
    pub fn t_matmul(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.rows != other.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "t_matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let (k, m, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        kernel::product::<_, _, true>(
            AcrossP(&self.data, m),
            AcrossP(&other.data, n),
            (m, k, n),
            &mut out.data,
        );
        Ok(out)
    }

    /// Computes `self · otherᵀ` without materializing the transpose.
    /// Terms are summed in ascending order as in
    /// [`Matrix::try_matmul`], but none is skipped: `0 · ∞` is `NaN`
    /// here.
    pub fn matmul_t(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != other.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_t",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let (m, k, n) = (self.rows, self.cols, other.rows);
        let mut out = Matrix::zeros(m, n);
        kernel::product::<_, _, false>(
            AlongP(&self.data),
            AlongP(&other.data),
            (m, k, n),
            &mut out.data,
        );
        Ok(out)
    }

    /// Matrix–vector product `self · v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "matvec: length mismatch");
        (0..self.rows)
            .map(|i| self.row_slice(i).iter().zip(v).map(|(&a, &b)| a * b).sum())
            .collect()
    }

    /// Returns `true` if every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Returns `true` when `self` and `other` agree element-wise within
    /// an absolute tolerance `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of bounds for shape ({}, {})",
            self.rows,
            self.cols
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of bounds for shape ({}, {})",
            self.rows,
            self.cols
        );
        &mut self.data[i * self.cols + j]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        self.zip_map(rhs, |a, b| a + b)
            // lint: allow(L001, reason = "operator traits cannot return Result; shape mismatch is a documented panic")
            .expect("add: shape mismatch")
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        self.zip_map(rhs, |a, b| a - b)
            // lint: allow(L001, reason = "operator traits cannot return Result; shape mismatch is a documented panic")
            .expect("sub: shape mismatch")
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, s: f64) -> Matrix {
        self.scale(s)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.scale(-1.0)
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign: shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8;
        for i in 0..self.rows.min(max_rows) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(10) {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4}", self.data[i * self.cols + j])?;
            }
            if self.cols > 10 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abcd() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])
    }

    #[test]
    fn construct_and_index() {
        let m = abcd();
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m.try_get(1, 0), Ok(3.0));
        assert!(matches!(
            m.try_get(2, 0),
            Err(LinalgError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn identity_is_matmul_neutral() {
        let m = abcd();
        assert_eq!(m.matmul(&Matrix::identity(2)), m);
        assert_eq!(Matrix::identity(2).matmul(&m), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[58.0, 64.0], &[139.0, 154.0]]));
    }

    #[test]
    fn matmul_shape_mismatch_is_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.try_matmul(&b),
            Err(LinalgError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn large_matmul_is_bit_identical_to_naive_reference() {
        // Big enough (128·80·112 = 1.15M flops) that the row-blocked
        // parallel path engages whenever the machine has > 1 core; the
        // result must still match the naive triple loop bit for bit.
        let (m, k, n) = (128, 80, 112);
        assert!(m * k * n >= kernel::PAR_MIN_FLOPS);
        let mut rng = crate::rng::seeded(17);
        let a = crate::rng::uniform_matrix(&mut rng, m, k, -1.0, 1.0);
        let b = crate::rng::uniform_matrix(&mut rng, k, n, -1.0, 1.0);
        let mut naive = Matrix::zeros(m, n);
        for i in 0..m {
            for p in 0..k {
                let v = a[(i, p)];
                for j in 0..n {
                    naive[(i, j)] += v * b[(p, j)];
                }
            }
        }
        assert_eq!(a.matmul(&b), naive);
        assert_eq!(a.matmul_t(&b.transpose()).unwrap(), a.matmul(&b));
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.5, 2.0], &[0.0, 1.0, -1.0], &[2.0, 2.0, 0.25]]);
        let expect = a.transpose().matmul(&b);
        assert_eq!(a.t_matmul(&b).unwrap(), expect);
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0], &[9.0, -1.0]]);
        let expect = a.matmul(&b.transpose());
        assert_eq!(a.matmul_t(&b).unwrap(), expect);
    }

    #[test]
    fn broadcast_add_row() {
        let m = abcd();
        let r = Matrix::row(&[10.0, 20.0]);
        let out = m.add_row_broadcast(&r).unwrap();
        assert_eq!(out, Matrix::from_rows(&[&[11.0, 22.0], &[13.0, 24.0]]));
    }

    #[test]
    fn broadcast_div_row() {
        let m = abcd();
        let r = Matrix::row(&[2.0, 4.0]);
        let out = m.zip_row_div(&r).unwrap();
        assert_eq!(out, Matrix::from_rows(&[&[0.5, 0.5], &[1.5, 1.0]]));
        assert!(m.zip_row_div(&Matrix::row(&[1.0])).is_err());
        assert!(m.zip_row_div(&Matrix::column(&[1.0, 2.0])).is_err());
    }

    #[test]
    fn broadcast_div_col() {
        let m = abcd();
        let c = Matrix::column(&[1.0, 2.0]);
        let out = m.div_col_broadcast(&c).unwrap();
        assert_eq!(out, Matrix::from_rows(&[&[1.0, 2.0], &[1.5, 2.0]]));
    }

    #[test]
    fn reductions() {
        let m = abcd();
        assert_eq!(m.sum(), 10.0);
        assert_eq!(m.mean(), 2.5);
        assert_eq!(m.max(), 4.0);
        assert_eq!(m.min(), 1.0);
        assert_eq!(m.sum_rows(), Matrix::row(&[4.0, 6.0]));
        assert_eq!(m.sum_cols(), Matrix::column(&[3.0, 7.0]));
        assert_eq!(m.row_max(), Matrix::column(&[2.0, 4.0]));
        assert_eq!(m.row_argmax(), vec![1, 1]);
    }

    #[test]
    fn argmax_keeps_the_first_of_ties() {
        assert_eq!(argmax(&[0.5, 2.0, 2.0, -1.0]), 1);
        assert_eq!(argmax(&[3.0, 3.0]), 0);
        assert_eq!(argmax(&[]), 0);
    }

    #[test]
    fn stacking() {
        let m = abcd();
        let h = m.hstack(&m).unwrap();
        assert_eq!(h.shape(), (2, 4));
        assert_eq!(h[(1, 3)], 4.0);
        let v = m.vstack(&m).unwrap();
        assert_eq!(v.shape(), (4, 2));
        assert_eq!(v[(3, 1)], 4.0);
        assert!(m.hstack(&Matrix::zeros(3, 1)).is_err());
        assert!(m.vstack(&Matrix::zeros(1, 3)).is_err());
    }

    #[test]
    fn submatrix_and_select() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]);
        let s = m.submatrix(1, 3, 0, 2);
        assert_eq!(s, Matrix::from_rows(&[&[4.0, 5.0], &[7.0, 8.0]]));
        let sel = m.select_rows(&[2, 0]);
        assert_eq!(
            sel,
            Matrix::from_rows(&[&[7.0, 8.0, 9.0], &[1.0, 2.0, 3.0]])
        );
    }

    #[test]
    fn map_and_hadamard() {
        let m = abcd();
        assert_eq!(m.map(|x| x * x).sum(), 30.0);
        assert_eq!(m.hadamard(&m).sum(), 30.0);
        assert_eq!(m.elem_div(&m), Matrix::ones(2, 2));
    }

    #[test]
    fn operators() {
        let m = abcd();
        assert_eq!((&m + &m).sum(), 20.0);
        assert_eq!((&m - &m).sum(), 0.0);
        assert_eq!((&m * 2.0).sum(), 20.0);
        assert_eq!((-&m).sum(), -10.0);
        let mut n = m.clone();
        n += &m;
        assert_eq!(n.sum(), 20.0);
    }

    #[test]
    fn norms_and_finiteness() {
        let m = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(m.max_abs(), 4.0);
        assert!(m.all_finite());
        let bad = Matrix::from_rows(&[&[f64::NAN]]);
        assert!(!bad.all_finite());
    }

    #[test]
    fn reshape_roundtrip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]);
        let r = m.clone().reshape(2, 2);
        assert_eq!(r, abcd());
    }

    #[test]
    #[should_panic(expected = "reshape")]
    fn reshape_bad_count_panics() {
        let _ = Matrix::zeros(2, 2).reshape(3, 2);
    }

    #[test]
    fn diag_matrix() {
        let d = Matrix::diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d[(0, 1)], 0.0);
        assert_eq!(d.sum(), 6.0);
    }

    #[test]
    fn matvec_matches_matmul() {
        let m = abcd();
        let v = vec![5.0, -1.0];
        let out = m.matvec(&v);
        let expect = m.matmul(&Matrix::column(&v));
        assert_eq!(out, expect.into_vec());
    }

    #[test]
    fn debug_format_is_bounded() {
        let big = Matrix::zeros(100, 100);
        let s = format!("{big:?}");
        assert!(s.len() < 2000, "Debug output should be truncated");
    }
}
