//! The row-major dense [`Matrix`] type and its elementwise operations.

use crate::workspace;
use std::fmt;
use std::mem;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A dense, row-major `f64` matrix.
///
/// `Matrix` is the single tensor type used throughout the reproduction.
/// Higher-rank tensors (e.g. `[batch, seq, d_model]` activations) are stored
/// as 2-D matrices with fused leading dimensions, which matches how K-FAC
/// treats transformer linear layers: every token position is an "example".
///
/// # Example
///
/// ```
/// use pipefisher_tensor::Matrix;
///
/// let m = Matrix::zeros(2, 3);
/// assert_eq!(m.shape(), (2, 3));
/// assert_eq!(m[(1, 2)], 0.0);
/// ```
///
/// # Memory
///
/// Fresh matrices draw their backing buffer from the thread-local
/// [`crate::workspace`] arena, and `Drop` returns the buffer there, so
/// steady-state kernel loops allocate nothing once warmed up. The arena
/// recycles capacity only — values are always zeroed or fully overwritten
/// before a buffer is handed out, so behaviour is bitwise identical with
/// the arena disabled ([`crate::workspace::set_enabled`]).
#[derive(PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: workspace::take_zeroed(rows * cols),
        }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f64) -> Self {
        let mut data = workspace::take_raw(rows * cols);
        data.fill(value);
        Matrix { rows, cols, data }
    }

    /// Creates the `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} != {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "Matrix::from_rows: empty rows");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "Matrix::from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Whether the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows the underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the underlying row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning the row-major data vector.
    #[inline]
    pub fn into_vec(mut self) -> Vec<f64> {
        mem::take(&mut self.data)
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(
            r < self.rows,
            "row index {} out of bounds ({})",
            r,
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(
            r < self.rows,
            "row index {} out of bounds ({})",
            r,
            self.rows
        );
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        t
    }

    /// Re-dimensions `self` to `rows × cols` for reuse as an output buffer.
    ///
    /// When the element count is unchanged only the dimensions are updated
    /// and the **contents are left unspecified** — callers must fully
    /// overwrite them. Otherwise the storage is replaced by a (possibly
    /// recycled) zeroed buffer of the new size.
    pub fn reset_shape(&mut self, rows: usize, cols: usize) {
        if self.data.len() == rows * cols {
            self.rows = rows;
            self.cols = cols;
        } else {
            *self = Matrix::zeros(rows, cols);
        }
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        let mut data = workspace::take_raw(self.data.len());
        for (o, &x) in data.iter_mut().zip(self.data.iter()) {
            *o = f(x);
        }
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Combines two same-shaped matrices elementwise with `f`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip_with(&self, other: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "zip_with: shape mismatch");
        let mut data = workspace::take_raw(self.data.len());
        for ((o, &a), &b) in data.iter_mut().zip(self.data.iter()).zip(other.data.iter()) {
            *o = f(a, b);
        }
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Multiplies every element by `s`, returning a new matrix.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// Multiplies every element by `s` in place.
    pub fn scale_inplace(&mut self, s: f64) {
        let mut it = self.data.chunks_exact_mut(crate::reduce::LANES);
        for c in it.by_ref() {
            for x in c {
                *x *= s;
            }
        }
        for x in it.into_remainder() {
            *x *= s;
        }
    }

    /// `self += alpha * other` (BLAS `axpy`).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy: shape mismatch");
        let mut xi = self.data.chunks_exact_mut(crate::reduce::LANES);
        let mut yi = other.data.chunks_exact(crate::reduce::LANES);
        for (cx, cy) in xi.by_ref().zip(yi.by_ref()) {
            for (x, &y) in cx.iter_mut().zip(cy.iter()) {
                *x += alpha * y;
            }
        }
        for (x, &y) in xi.into_remainder().iter_mut().zip(yi.remainder().iter()) {
            *x += alpha * y;
        }
    }

    /// Adds `value` to every diagonal entry (damping), in place.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn add_diag(&mut self, value: f64) {
        assert!(self.is_square(), "add_diag: matrix must be square");
        let n = self.rows;
        for i in 0..n {
            self.data[i * n + i] += value;
        }
    }

    /// Sum of diagonal entries.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace: matrix must be square");
        (0..self.rows).map(|i| self.data[i * self.rows + i]).sum()
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        crate::reduce::sum_exact(&self.data)
    }

    /// Mean of all elements. Returns 0 for an empty matrix.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Frobenius norm (`sqrt(sum of squares)`).
    pub fn frobenius_norm(&self) -> f64 {
        crate::reduce::dot_exact(&self.data, &self.data).sqrt()
    }

    /// Maximum absolute element. Returns 0 for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Dot product of the flattened matrices.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn dot(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape(), "dot: shape mismatch");
        crate::reduce::dot_exact(&self.data, &other.data)
    }

    /// Whether every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Whether the matrix is symmetric within `tol` (absolute).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        let n = self.rows;
        for i in 0..n {
            for j in (i + 1)..n {
                if (self.data[i * n + j] - self.data[j * n + i]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Symmetrizes in place: `A = (A + Aᵀ) / 2`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square(), "symmetrize: matrix must be square");
        let n = self.rows;
        for i in 0..n {
            for j in (i + 1)..n {
                let avg = 0.5 * (self.data[i * n + j] + self.data[j * n + i]);
                self.data[i * n + j] = avg;
                self.data[j * n + i] = avg;
            }
        }
    }

    /// Extracts rows `[start, end)` into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.rows()`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.rows, "slice_rows: bad range");
        let src = &self.data[start * self.cols..end * self.cols];
        let mut data = workspace::take_raw(src.len());
        data.copy_from_slice(src);
        Matrix {
            rows: end - start,
            cols: self.cols,
            data,
        }
    }

    /// Vertically concatenates matrices with equal column counts.
    ///
    /// # Panics
    ///
    /// Panics if `mats` is empty or column counts differ.
    pub fn vcat(mats: &[&Matrix]) -> Matrix {
        assert!(!mats.is_empty(), "vcat: no matrices");
        let cols = mats[0].cols;
        let rows: usize = mats.iter().map(|m| m.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for m in mats {
            assert_eq!(m.cols, cols, "vcat: column mismatch");
            data.extend_from_slice(&m.data);
        }
        Matrix { rows, cols, data }
    }

    /// Adds `row` to every row of the matrix (bias broadcast), in place.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.cols()`.
    pub fn add_row_broadcast(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "add_row_broadcast: length mismatch");
        for r in 0..self.rows {
            let base = r * self.cols;
            for (dst, &rv) in self.data[base..base + self.cols].iter_mut().zip(row.iter()) {
                *dst += rv;
            }
        }
    }
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        let mut data = workspace::take_raw(self.data.len());
        data.copy_from_slice(&self.data);
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        if self.data.len() == source.data.len() {
            self.rows = source.rows;
            self.cols = source.cols;
            self.data.copy_from_slice(&source.data);
        } else {
            *self = source.clone();
        }
    }
}

impl Drop for Matrix {
    fn drop(&mut self) {
        workspace::put(mem::take(&mut self.data));
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8;
        for r in 0..self.rows.min(max_rows) {
            write!(f, "  [")?;
            let max_cols = 8;
            for c in 0..self.cols.min(max_cols) {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:+.4}", self.data[r * self.cols + c])?;
            }
            if self.cols > max_cols {
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

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a + b)
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a - b)
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        self.axpy(1.0, rhs);
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, rhs: &Matrix) {
        self.axpy(-1.0, rhs);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_eye() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let i = Matrix::eye(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i.trace(), 3.0);
    }

    #[test]
    fn from_rows_and_transpose() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(0, 1)], 4.0);
        assert_eq!(t[(2, 0)], 3.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::full(2, 2, 2.0);
        assert_eq!((&a + &b)[(1, 1)], 6.0);
        assert_eq!((&a - &b)[(0, 0)], -1.0);
        assert_eq!(a.zip_with(&b, |x, y| x * y)[(1, 0)], 6.0);
        assert_eq!(a.scale(0.5)[(1, 1)], 2.0);
        assert_eq!((-&a)[(0, 1)], -2.0);
    }

    #[test]
    fn axpy_and_add_diag() {
        let mut a = Matrix::eye(2);
        let b = Matrix::full(2, 2, 1.0);
        a.axpy(2.0, &b);
        assert_eq!(a[(0, 0)], 3.0);
        assert_eq!(a[(0, 1)], 2.0);
        a.add_diag(0.5);
        assert_eq!(a[(1, 1)], 3.5);
    }

    #[test]
    fn norms_and_reductions() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(a.sum(), 7.0);
        assert_eq!(a.mean(), 3.5);
        assert_eq!(a.max_abs(), 4.0);
        assert_eq!(a.dot(&a), 25.0);
    }

    #[test]
    fn symmetry_helpers() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[4.0, 1.0]]);
        assert!(!m.is_symmetric(1e-9));
        m.symmetrize();
        assert!(m.is_symmetric(1e-12));
        assert_eq!(m[(0, 1)], 3.0);
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn slicing_and_concat() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let s = m.slice_rows(1, 3);
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s[(0, 0)], 3.0);
        let v = Matrix::vcat(&[&s, &s]);
        assert_eq!(v.shape(), (4, 2));
        assert_eq!(v[(2, 0)], 3.0);
    }

    #[test]
    fn broadcast_bias() {
        let mut m = Matrix::zeros(2, 3);
        m.add_row_broadcast(&[1.0, 2.0, 3.0]);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 1.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        let _ = &a + &b;
    }
}
