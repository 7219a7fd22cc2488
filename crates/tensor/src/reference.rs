//! Scalar reference implementations — the oracles the tests, property
//! checks and `bench_factor`'s baseline column compare the packed engine
//! against. Plain element-at-a-time loops with the per-element accumulation
//! chains the engine's determinism contract promises; nothing in the
//! training path calls them.

use crate::cholesky::check_inverse_diagonal;
use crate::{CholeskyError, Matrix, TensorError};

/// Triple-loop reference GEMM used to validate the blocked kernels in tests
/// and property checks.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "reference::matmul: inner dims");
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0;
            for p in 0..a.cols() {
                acc += a[(i, p)] * b[(p, j)];
            }
            out[(i, j)] = acc;
        }
    }
    out
}

/// The scalar reference implementation of [`crate::cholesky_into`]: one
/// element-at-a-time triple loop. Kept as the bitwise oracle for the
/// factor-equivalence tests and the `bench_factor` baseline column.
///
/// # Errors
///
/// Same contract as [`crate::cholesky_into`].
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn cholesky_into(a: &Matrix, out: &mut Matrix) -> Result<(), CholeskyError> {
    assert!(a.is_square(), "cholesky: matrix must be square");
    let n = a.rows();
    let src = a.as_slice();
    out.reset_shape(n, n);
    let l = out.as_mut_slice();
    l.fill(0.0);
    for j in 0..n {
        // Diagonal entry.
        let mut d = src[j * n + j];
        for p in 0..j {
            d -= l[j * n + p] * l[j * n + p];
        }
        if !d.is_finite() {
            return Err(TensorError::NonFinite("cholesky"));
        }
        if d <= 0.0 {
            return Err(TensorError::NotPositiveDefinite(j));
        }
        let dj = d.sqrt();
        l[j * n + j] = dj;
        // Column below the diagonal.
        for i in (j + 1)..n {
            let mut s = src[i * n + j];
            for p in 0..j {
                s -= l[i * n + p] * l[j * n + p];
            }
            l[i * n + j] = s / dj;
        }
    }
    Ok(())
}

/// The scalar reference implementation of [`crate::cholesky_inverse_into`]:
/// [`cholesky_into`], then the per-element chains of the blocked engine's
/// triangular inversion (`Y = L⁻¹`) and Gram product (`X = YᵀY`) written
/// out as plain loops. Kept as the bitwise oracle for the
/// factor-equivalence tests and the `bench_factor` baseline column.
///
/// # Errors
///
/// Same contract as [`crate::cholesky_inverse_into`].
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn cholesky_inverse_into(a: &Matrix, out: &mut Matrix) -> Result<(), CholeskyError> {
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    cholesky_into(a, &mut l)?;
    let l = l.as_slice();
    let mut y = Matrix::zeros(n, n);
    let y = y.as_mut_slice();
    for i in 0..n {
        for j in 0..=i {
            let mut s = if i == j { 1.0 } else { 0.0 };
            for p in j..i {
                s -= l[i * n + p] * y[p * n + j];
            }
            y[i * n + j] = s / l[i * n + i];
        }
    }
    out.reset_shape(n, n);
    let x = out.as_mut_slice();
    for i in 0..n {
        for j in 0..=i {
            let mut s = 0.0;
            for k in i..n {
                s += y[k * n + i] * y[k * n + j];
            }
            x[i * n + j] = s;
            x[j * n + i] = s;
        }
    }
    check_inverse_diagonal(x, n)
}
