//! General matrix multiplication kernels.
//!
//! The reproduction needs four GEMM flavours:
//!
//! * `C = A·B` ([`Matrix::matmul_into`], and its `+ bias` / residual
//!   fused forms) — forward passes,
//! * `C = Aᵀ·B` ([`Matrix::matmul_tn_into`]) — weight gradients,
//! * `C = A·Bᵀ` ([`Matrix::matmul_nt_into`]) — input-gradient backprop,
//! * `C = AᵀA` ([`Matrix::gram_into`]) — K-FAC's curvature kernel
//!   (`A_l = U_A U_Aᵀ` computed as `Uᵀ·U` on row-major per-token layouts).
//!
//! Each is its shape assert plus one call: the first three go through one
//! private driver, `gemm_into`, which re-dimensions the destination and
//! hands it, unzeroed, to the register-tiled, runtime-dispatched engine
//! ([`Gemm::run`]); the Gram product differs only in its upper-triangle
//! mode and mirror pass. The transpose variants differ only in the strides
//! of their [`Operand`]s, never in the inner loop: the micro-kernel reads
//! A in either layout and a row-major B in place, and packs only a
//! transposed B (`matmul_nt`'s `Wᵀ`), blocks too wide for L2 and ragged
//! edges, so every flavour runs the same SIMD micro-kernel.
//!
//! Every kernel writes into a caller-provided output (re-dimensioning it
//! via [`Matrix::reset_shape`], so a recycled scratch buffer of the right
//! length incurs zero allocation). [`Matrix::matmul`] and
//! [`Matrix::matmul_nt`] are the two allocating conveniences the network
//! code still calls; they check a fresh matrix out of the
//! [`crate::workspace`] arena and delegate, bitwise identical.
//!
//! Every output element is one accumulation chain over `p` in ascending
//! order from `+0.0`, one fused multiply-add per step, computed on the
//! calling thread.

use crate::kernel::{Epilogue, Gemm, Mode, Operand};
use crate::Matrix;

/// The one GEMM front end: re-dimensions `out` to `m × n` and overwrites it
/// with `Σ_p A(i,p)·B(p,j)` over `k` steps, with `epilogue`, if any, fused
/// into the store phase.
fn gemm_into(
    out: &mut Matrix,
    (m, n, k): (usize, usize, usize),
    ab: (Operand<'_>, Operand<'_>),
    epilogue: Option<Epilogue<'_>>,
) {
    out.reset_shape(m, n);
    let mode = Mode {
        overwrite: true,
        fused: epilogue,
        ..Mode::default()
    };
    Gemm::new().run(out.as_mut_slice(), n, (m, n, k), ab, mode);
}

impl Matrix {
    /// Computes `self · rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    ///
    /// # Example
    ///
    /// ```
    /// use pipefisher_tensor::Matrix;
    /// let a = Matrix::from_rows(&[&[1.0, 2.0]]);
    /// let b = Matrix::from_rows(&[&[3.0], &[4.0]]);
    /// assert_eq!(a.matmul(&b)[(0, 0)], 11.0);
    /// ```
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::unfilled(self.rows(), rhs.cols());
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Computes `self · rhs` into `out`, which is re-dimensioned to
    /// `self.rows() × rhs.cols()` and fully overwritten. Bitwise identical
    /// to [`Matrix::matmul`].
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        self.matmul_epilogue_into(rhs, out, None);
    }

    /// Computes `self · rhs + bias` (bias broadcast over rows) into `out`,
    /// with the bias add fused into the GEMM store phase — no second pass
    /// over the output. Bitwise identical to [`Matrix::matmul_into`]
    /// followed by [`Matrix::add_row_broadcast`] (the bias is added to each
    /// element's fully accumulated dot product, exactly as the separate
    /// pass would).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()` or `bias.len() != rhs.cols()`.
    pub fn matmul_bias_into(&self, rhs: &Matrix, bias: &[f64], out: &mut Matrix) {
        assert_eq!(bias.len(), rhs.cols(), "matmul bias: length mismatch");
        self.matmul_epilogue_into(rhs, out, Some(Epilogue::Bias { bias }));
    }

    /// Computes `(self · rhs + bias) + residual` into `out`, with bias and
    /// residual adds fused into the GEMM store phase. Bitwise identical to
    /// `residual + matmul_bias` computed in separate passes: IEEE 754
    /// addition is commutative (for the finite values these paths carry),
    /// so `(acc + bias) + res` matches `res + (acc + bias)` bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`, `bias.len() != rhs.cols()`,
    /// or `residual.shape() != (self.rows(), rhs.cols())`.
    pub fn matmul_bias_residual_into(
        &self,
        rhs: &Matrix,
        bias: &[f64],
        residual: &Matrix,
        out: &mut Matrix,
    ) {
        assert_eq!(bias.len(), rhs.cols(), "matmul bias: length mismatch");
        assert_eq!(
            residual.shape(),
            (self.rows(), rhs.cols()),
            "matmul_bias_residual: residual shape"
        );
        let res = residual.as_slice();
        self.matmul_epilogue_into(rhs, out, Some(Epilogue::BiasResidual { bias, res }));
    }

    /// The inner-dimension assert of `self · rhs` and its fused-epilogue
    /// forms, then the driver with both operands read row-major.
    fn matmul_epilogue_into(&self, rhs: &Matrix, out: &mut Matrix, epilogue: Option<Epilogue<'_>>) {
        assert_eq!(
            self.cols(),
            rhs.rows(),
            "matmul: inner dims {}x{} vs {}x{}",
            self.rows(),
            self.cols(),
            rhs.rows(),
            rhs.cols()
        );
        let (m, k) = self.shape();
        let n = rhs.cols();
        let ab = (
            Operand::rows(self.as_slice(), k),
            Operand::rows(rhs.as_slice(), n),
        );
        gemm_into(out, (m, n, k), ab, epilogue);
    }

    /// Computes `selfᵀ · rhs` into `out` without materializing the
    /// transpose; `out` is re-dimensioned to `self.cols() × rhs.cols()` and
    /// fully overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn matmul_tn_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows(),
            rhs.rows(),
            "matmul_tn: leading dims {}x{} vs {}x{}",
            self.rows(),
            self.cols(),
            rhs.rows(),
            rhs.cols()
        );
        let (k, m) = self.shape();
        let n = rhs.cols();
        // (AᵀB)[i][j] = Σ_p A[p][i]·B[p][j]: the micro-kernel reads A
        // column-major in place, and every element still accumulates over
        // p ascending.
        let ab = (
            Operand::cols(self.as_slice(), m),
            Operand::rows(rhs.as_slice(), n),
        );
        gemm_into(out, (m, n, k), ab, None);
    }

    /// Computes `self · rhsᵀ` without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::unfilled(self.rows(), rhs.rows());
        self.matmul_nt_into(rhs, &mut out);
        out
    }

    /// Computes `self · rhsᵀ` into `out`, which is re-dimensioned to
    /// `self.rows() × rhs.rows()` and fully overwritten. Bitwise identical
    /// to [`Matrix::matmul_nt`].
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_nt_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols(),
            rhs.cols(),
            "matmul_nt: trailing dims {}x{} vs {}x{}",
            self.rows(),
            self.cols(),
            rhs.rows(),
            rhs.cols()
        );
        let (m, k) = self.shape();
        let n = rhs.rows();
        // (ABᵀ)[i][j] = Σ_p A[i][p]·B[j][p]: B's rows become packed panel
        // columns — the one operand layout the engine copies — so the
        // product runs on full register tiles.
        let ab = (
            Operand::rows(self.as_slice(), k),
            Operand::cols(rhs.as_slice(), k),
        );
        gemm_into(out, (m, n, k), ab, None);
    }

    /// Computes the symmetric Gram matrix `selfᵀ · self` into `out`, which
    /// is re-dimensioned to `self.cols() × self.cols()` and fully
    /// overwritten.
    ///
    /// This is K-FAC's *curvature* kernel: with `self = U` holding one
    /// per-example vector per row, it produces `Σ_i u_i u_iᵀ`. Only the
    /// upper triangle is computed, then mirrored.
    pub fn gram_into(&self, out: &mut Matrix) {
        let (k, m) = self.shape();
        out.reset_shape(m, m);
        let u = self.as_slice();
        let mode = Mode {
            upper: true,
            overwrite: true,
            ..Mode::default()
        };
        let ab = (Operand::cols(u, m), Operand::rows(u, m));
        Gemm::new().run(out.as_mut_slice(), m, (m, m, k), ab, mode);
        mirror_lower_from_upper(out.as_mut_slice(), m);
    }
}

/// One operand of [`gemm_batched`]: row-major matrices in `data` at row
/// stride `ld`, read as stored or, with `trans`, transposed; item `(i, j)`
/// of the batch starts at `data[i * step.0 + j * step.1]`. The head
/// `(b, h)` of a `(batch·seq) × d_model` projection, for one, is `ld =
/// d_model`, `step = (seq·d_model, d_head)`: read in place, never copied.
#[derive(Debug, Clone, Copy)]
pub struct Strided<'a> {
    /// The backing storage.
    pub data: &'a [f64],
    /// Row stride of each stored matrix.
    pub ld: usize,
    /// Read each item transposed.
    pub trans: bool,
    /// Offsets between neighbouring items along the two batch axes.
    pub step: (usize, usize),
}

impl<'a> Strided<'a> {
    /// Item `(i, j)`, read as stored or transposed.
    fn item(&self, i: usize, j: usize) -> Operand<'a> {
        let data: &'a [f64] = self.data;
        let item = Operand::rows(&data[i * self.step.0 + j * self.step.1..], self.ld);
        if self.trans {
            item.t()
        } else {
            item
        }
    }
}

/// `C_ij = A_ij · B_ij` for every item `(i, j)` of a `count.0 × count.1`
/// batch of `m × n` products over `k` steps, on the GEMM engine with its
/// set-up paid once. `C_ij` is the `m × n` block of `c` at offset `i ·
/// cstep.0 + j · cstep.1` and row stride `ldc`; its prior contents are
/// never read. Each element is the engine's chain — `+0.0`, then `p`
/// ascending, one fused multiply-add per step — so each block comes out
/// bitwise as a fresh [`Matrix::matmul`] of the two items.
///
/// # Panics
///
/// Panics if an operand or `c` is too short for the shapes, strides and
/// steps given, or if `n > ldc`.
pub fn gemm_batched(
    count: (usize, usize),
    (m, n, k): (usize, usize, usize),
    a: Strided<'_>,
    b: Strided<'_>,
    c: &mut [f64],
    ldc: usize,
    cstep: (usize, usize),
) {
    let mut gemm = Gemm::new();
    for (i, j) in (0..count.0).flat_map(|i| (0..count.1).map(move |j| (i, j))) {
        let ab = (a.item(i, j), b.item(i, j));
        let cd = &mut c[i * cstep.0 + j * cstep.1..];
        let mode = Mode {
            overwrite: true,
            ..Mode::default()
        };
        gemm.run(cd, ldc, (m, n, k), ab, mode);
    }
}

/// Mirror tile edge: a 64×64 f64 tile pair (source + destination) is
/// 64 KiB, comfortably inside L2, so the column-major reads of the naive
/// mirror become cache-resident.
const MIRROR_BLOCK: usize = 64;

/// Fills the strictly-lower triangle of the `m × m` row-major buffer `o`
/// from its upper triangle (`o[j*m+i] = o[i*m+j]` for `j > i`), tiled so
/// both sides of the swap stream through cache.
pub(crate) fn mirror_lower_from_upper(o: &mut [f64], m: usize) {
    debug_assert_eq!(o.len(), m * m);
    for jb in (0..m).step_by(MIRROR_BLOCK) {
        let jmax = (jb + MIRROR_BLOCK).min(m);
        for ib in (0..jmax).step_by(MIRROR_BLOCK) {
            let imax = (ib + MIRROR_BLOCK).min(m);
            for j in jb..jmax {
                // Row j's strictly-lower part reads column j of the rows
                // above it, all of which lie before row j.
                let (above, row) = o.split_at_mut(j * m);
                for (i, dst) in (ib..).zip(&mut row[ib..imax.min(j)]) {
                    *dst = above[i * m + j];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        // Simple xorshift so the kernel tests need no RNG dependency.
        let mut s = seed.wrapping_add(0x9E3779B97F4A7C15);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| next()).collect())
    }

    fn assert_close(a: &Matrix, b: &Matrix, tol: f64) {
        assert_eq!(a.shape(), b.shape());
        let d = (a - b).max_abs();
        assert!(d < tol, "matrices differ by {d}");
    }

    /// Runs an `_into` kernel on a destination of the wrong shape.
    fn run(kernel: impl FnOnce(&mut Matrix)) -> Matrix {
        let mut out = Matrix::zeros(1, 1);
        kernel(&mut out);
        out
    }

    #[test]
    fn matmul_matches_naive() {
        for &(m, k, n) in &[(1, 1, 1), (3, 4, 5), (17, 33, 9), (64, 64, 64)] {
            let a = rand_matrix(m, k, 1);
            let b = rand_matrix(k, n, 2);
            assert_close(&a.matmul(&b), &reference::matmul(&a, &b), 1e-10);
        }
    }

    #[test]
    fn matmul_tn_matches_transpose() {
        let a = rand_matrix(20, 7, 3);
        let b = rand_matrix(20, 11, 4);
        let got = run(|out| a.matmul_tn_into(&b, out));
        assert_close(&got, &a.transpose().matmul(&b), 1e-10);
    }

    #[test]
    fn matmul_nt_matches_transpose() {
        let a = rand_matrix(9, 13, 5);
        let b = rand_matrix(6, 13, 6);
        assert_close(&a.matmul_nt(&b), &a.matmul(&b.transpose()), 1e-10);
    }

    #[test]
    fn gram_is_symmetric_and_correct() {
        let u = rand_matrix(40, 12, 7);
        let g = run(|out| u.gram_into(out));
        assert!(g.is_symmetric(1e-12));
        assert_close(&g, &u.transpose().matmul(&u), 1e-10);
    }

    #[test]
    fn identity_is_neutral() {
        let a = rand_matrix(8, 8, 8);
        let i = Matrix::eye(8);
        assert_close(&a.matmul(&i), &a, 1e-12);
        assert_close(&i.matmul(&a), &a, 1e-12);
    }

    #[test]
    fn degenerate_shapes_all_kernels() {
        // Zero-column outputs used to divide by `n.max(1)` and compute a
        // bogus per-chunk row count; now every kernel early-returns on any
        // degenerate dimension. Cover 0-row, 0-col, and 0-inner for all
        // four GEMM flavours.
        for &(m, k, n) in &[(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0)] {
            let a = Matrix::zeros(m, k);
            let b = Matrix::zeros(k, n);
            assert_eq!(a.matmul(&b).shape(), (m, n));

            let at = Matrix::zeros(k, m);
            assert_eq!(run(|out| at.matmul_tn_into(&b, out)).shape(), (m, n));

            let bt = Matrix::zeros(n, k);
            assert_eq!(a.matmul_nt(&bt).shape(), (m, n));
        }
        let u = Matrix::zeros(0, 5);
        assert_eq!(run(|out| u.gram_into(out)), Matrix::zeros(5, 5));
        let u2 = Matrix::zeros(5, 0);
        assert_eq!(run(|out| u2.gram_into(out)).shape(), (0, 0));
    }

    #[test]
    fn empty_products_overwrite_poisoned_outputs_with_positive_zero() {
        // k = 0 runs no KC block, so the overwrite stores the +0.0 itself.
        let plus_zero = |m: &Matrix| m.as_slice().iter().all(|v| v.to_bits() == 0);
        let mut out = Matrix::full(3, 4, f64::NAN);
        Matrix::zeros(3, 0).matmul_into(&Matrix::zeros(0, 4), &mut out);
        assert!(plus_zero(&out), "matmul: {out:?}");
        out = Matrix::full(4, 4, f64::NAN);
        Matrix::zeros(0, 4).gram_into(&mut out);
        assert!(plus_zero(&out), "gram: {out:?}");
        let (a, b) = (Matrix::zeros(3, 0), Matrix::zeros(0, 4));
        fn item(m: &Matrix) -> Strided<'_> {
            Strided {
                data: m.as_slice(),
                ld: m.cols(),
                trans: false,
                step: (0, 0),
            }
        }
        out = Matrix::full(3, 8, f64::NAN);
        gemm_batched(
            (1, 2),
            (3, 4, 0),
            item(&a),
            item(&b),
            out.as_mut_slice(),
            8,
            (0, 4),
        );
        assert!(plus_zero(&out), "gemm_batched: {out:?}");
    }

    #[test]
    fn into_variants_match_allocating() {
        let a = rand_matrix(11, 7, 21);
        let b = rand_matrix(7, 5, 22);
        let mut out = Matrix::zeros(1, 1); // wrong shape: forces reset_shape
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));

        let c = rand_matrix(7, 5, 23);
        let mut out = Matrix::full(11, 5, 9.9); // right shape, stale contents
        b.matmul_tn_into(&c, &mut out);
        assert_eq!(out, run(|fresh| b.matmul_tn_into(&c, fresh)));

        a.matmul_nt_into(&b.transpose(), &mut out);
        assert_eq!(out, a.matmul_nt(&b.transpose()));

        a.gram_into(&mut out);
        assert_eq!(out, run(|fresh| a.gram_into(fresh)));
    }

    #[test]
    #[should_panic(expected = "matmul: inner dims")]
    fn mismatched_matmul_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
