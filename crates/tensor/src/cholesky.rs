//! Cholesky factorization and SPD inversion.
//!
//! K-FAC's *inversion* work is exactly this module: each Kronecker factor
//! `A_l`, `B_l` is a symmetric positive semi-definite Gram matrix, damped to
//! positive definiteness, factored as `L·Lᵀ`, and inverted. The paper calls
//! `torch.linalg.cholesky` + `torch.linalg.cholesky_inverse` per factor
//! (LAPACK `potrf` + `potri`); [`cholesky_inverse_into`] is the same three
//! steps, in place in the output matrix:
//!
//! 1. **POTRF** — `L = chol(A)` ([`cholesky_into`]), `n³/3` flops;
//! 2. **TRTRI** — `Y = L⁻¹`, a row-blocked forward sweep, `n³/3` flops;
//! 3. **LAUUM** — `X = YᵀY`, one triangle only, then mirrored, `n³/3`
//!    flops — so `A⁻¹` is *exactly* symmetric by construction.
//!
//! `n³` flops in total, against the `5n³/3` of solving `L·Lᵀ·X = I` on a
//! dense identity.
//!
//! # Blocked engine
//!
//! All three steps walk [`NB`]-wide blocks and do their off-block work as
//! one GEMM per block on the packed SIMD micro-kernels
//! ([`crate::kernel::gemm_chunk`] in its subtracting and lower-triangular-`B`
//! [`crate::kernel::Mode`]s): the Cholesky trailing update `P −= L₁₀·L₁₀ᵀ`, the inversion's
//! `Y₁₀ = −L₁₁⁻¹·(L₁₀·Y₀₀)`, and the Gram rows `X₁: = Y:₁ᵀ·Y`, the last
//! two never touching the zero triangle of `Y`. What stays inside a block —
//! finishing a Cholesky panel below its diagonal block, and the inversion's
//! `L₁₁⁻¹·` — is one forward substitution, [`crate::kernel::tri_sweep`],
//! register-tiled across right-hand-side columns.
//!
//! # Determinism
//!
//! Every output element keeps one accumulation chain in ascending index
//! order with one fused multiply-add (or multiply-subtract) per step — in
//! the GEMMs, the in-block sweep and the diagonal blocks alike; blocking
//! only splits a chain at block boundaries, round-tripping the partial sum
//! through memory (exact for `f64`), and only ever skips terms that are
//! exact zeros. So the blocked engine is **bitwise identical** to the
//! scalar loops spelled out in [`crate::reference::cholesky_into`] and
//! [`crate::reference::cholesky_inverse_into`] at every kernel kind, and
//! error indices (`NotPositiveDefinite(pivot)`) are preserved across block
//! boundaries. The equivalence is enforced in
//! `crates/tensor/tests/factor_equivalence.rs`.

use crate::kernel::{self, ASrc, BSrc, Mode};
use crate::{workspace, Matrix, TensorError};

/// Error alias for Cholesky routines (always a [`TensorError`]).
pub type CholeskyError = TensorError;

/// Block width of the factorization engine — a multiple of every kernel
/// MR, small enough that a block's rows stay cache-warm during the
/// in-block sweep, large enough that the GEMMs dominate.
const NB: usize = kernel::TRI_BLOCK;

/// Computes the lower-triangular Cholesky factor `L` with `L·Lᵀ = a` into
/// `out`, which is re-dimensioned to `a.rows() × a.rows()` and fully
/// overwritten. Only the lower triangle of `a` is read. Bitwise identical
/// to the scalar reference [`crate::reference::cholesky_into`]. On error,
/// `out`'s contents are unspecified.
///
/// # Errors
///
/// Returns [`TensorError::NotPositiveDefinite`] with the failing pivot index
/// if `a` is not positive definite (callers typically add damping and retry),
/// and [`TensorError::NonFinite`] if a non-finite value appears.
///
/// # Panics
///
/// Panics if `a` is not square.
///
/// # Example
///
/// ```
/// use pipefisher_tensor::{cholesky_into, Matrix};
/// # fn main() -> Result<(), pipefisher_tensor::TensorError> {
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
/// let mut l = Matrix::zeros(2, 2);
/// cholesky_into(&a, &mut l)?;
/// let rebuilt = l.matmul(&l.transpose());
/// assert!((&rebuilt - &a).max_abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn cholesky_into(a: &Matrix, out: &mut Matrix) -> Result<(), CholeskyError> {
    assert!(a.is_square(), "cholesky: matrix must be square");
    let n = a.rows();
    out.reset_shape(n, n);
    let mut scratch = workspace::take_raw(NB * n);
    let res = factor_blocked(a.as_slice(), n, out.as_mut_slice(), &mut scratch);
    workspace::put(scratch);
    res
}

/// Blocked left-looking Cholesky of the `n × n` row-major `src` into `l`
/// (fully overwritten; strict upper triangle `+0.0`), with `scratch` of at
/// least `NB·n` elements.
///
/// For each [`NB`]-wide panel starting at global column `jb`, the panel is
/// held *transposed* — `pt[c][r]` is element `(jb + r, jb + c)`, so the
/// rows of one column are contiguous — seeded from `src`, and updated with
/// `Pt −= L[jb..jb+bw, ..jb] · L[jb.., ..jb]ᵀ` on the packed GEMM engine.
/// Then the `bw × bw` diagonal block is factored, and every row below it is
/// finished by one [`kernel::tri_sweep`] against that block. Per element
/// this is the naive chain `src − Σ_p l·l` split at `p = jb`: the GEMM
/// covers `p < jb`, the in-panel steps continue `jb ≤ p < j`. Identical
/// operations in identical order ⇒ identical bits, and pivots are checked
/// in the same ascending order, so the first failing one is identical too.
fn factor_blocked(
    src: &[f64],
    n: usize,
    l: &mut [f64],
    scratch: &mut [f64],
) -> Result<(), CholeskyError> {
    l.fill(0.0);
    for jb in (0..n).step_by(NB) {
        let bw = NB.min(n - jb);
        let prows = n - jb;
        let pt = &mut scratch[..bw * prows];
        for r in 0..prows {
            let row = &src[(jb + r) * n + jb..][..bw];
            for (c, &v) in row.iter().enumerate() {
                pt[c * prows + r] = v;
            }
        }
        if jb > 0 {
            // For panel element (c, r), subtract Σ_{p<jb} l[jb+c][p] ·
            // l[jb+r][p]; both operands are read in place from `l`.
            kernel::gemm_chunk(
                pt,
                bw,
                prows,
                jb,
                ASrc::RowMajor {
                    data: l,
                    stride: n,
                    base: jb,
                },
                BSrc::ColMajor {
                    data: &l[jb * n..],
                    stride: n,
                },
                Mode {
                    neg: true,
                    ..Mode::default()
                },
            );
        }
        kernel::with_fma(|| factor_diag_block(pt, prows, bw, jb))?;
        // The diagonal block goes back first: it is the sweep's coefficient
        // matrix. Only the lower triangle is copied (the upper stays 0).
        let copy_back = |l: &mut [f64], pt: &[f64], rows: std::ops::Range<usize>| {
            for r in rows {
                let dst = &mut l[(jb + r) * n + jb..][..bw.min(r + 1)];
                for (c, v) in dst.iter_mut().enumerate() {
                    *v = pt[c * prows + r];
                }
            }
        };
        copy_back(l, pt, 0..bw);
        kernel::tri_sweep(&l[jb * n + jb..], n, &mut pt[bw..], prows, bw, prows - bw);
        copy_back(l, pt, bw..prows);
    }
    Ok(())
}

/// Factors the `bw × bw` diagonal block of a seeded-and-updated transposed
/// panel (`pt[c * ld + r]`, `c, r < bw`) in place: column `c` finishes the
/// naive chains of global column `jb + c` — each element subtracts its
/// `q < c` terms in ascending order, then divides by the pivot — with the
/// rows of a column contiguous, so the update loops vectorize. Each step
/// is one `mul_add`, the chain of the GEMM and sweep before it.
#[inline(always)]
fn factor_diag_block(pt: &mut [f64], ld: usize, bw: usize, jb: usize) -> Result<(), CholeskyError> {
    for c in 0..bw {
        let (done, rest) = pt.split_at_mut(c * ld);
        let col = &mut rest[..bw];
        let mut d = col[c];
        for q in 0..c {
            let v = done[q * ld + c];
            d = (-v).mul_add(v, d);
        }
        if !d.is_finite() {
            return Err(TensorError::NonFinite("cholesky"));
        }
        if d <= 0.0 {
            return Err(TensorError::NotPositiveDefinite(jb + c));
        }
        let dj = d.sqrt();
        col[c] = dj;
        let below = &mut col[c + 1..];
        for q in 0..c {
            let m = done[q * ld + c];
            for (s, &v) in below.iter_mut().zip(&done[q * ld + c + 1..][..bw - c - 1]) {
                *s = (-v).mul_add(m, *s);
            }
        }
        for s in below.iter_mut() {
            *s /= dj;
        }
    }
    Ok(())
}

/// Computes the inverse of an SPD matrix into `out`, which is
/// re-dimensioned to `a.rows() × a.rows()` and fully overwritten:
/// `L = chol(a)`, `Y = L⁻¹`, `X = YᵀY`, each step in place in `out` (see the
/// module docs), so a refresh needs one `NB × n` scratch panel from the
/// workspace arena and allocates nothing in steady state. Bitwise identical
/// to the scalar reference [`crate::reference::cholesky_inverse_into`], and
/// exactly symmetric — the upper triangle is a copy of the lower — which
/// the preconditioning products `B⁻¹ G A⁻¹` in K-FAC rely on. On error,
/// `out`'s contents are unspecified.
///
/// # Errors
///
/// Propagates factorization failures from [`cholesky_into`], and returns
/// [`TensorError::NonFinite`] if the inverse overflows (a diagonal entry
/// `Σ_k Y[k][i]²` is non-finite exactly when some entry of `Y` is, or the
/// sum itself overflows).
///
/// # Panics
///
/// Panics if `a` is not square.
///
/// # Example
///
/// ```
/// use pipefisher_tensor::{cholesky_inverse_into, Matrix};
/// # fn main() -> Result<(), pipefisher_tensor::TensorError> {
/// let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]]);
/// let mut inv = Matrix::zeros(2, 2);
/// cholesky_inverse_into(&a, &mut inv)?;
/// assert!((inv[(0, 0)] - 0.5).abs() < 1e-12);
/// assert!((inv[(1, 1)] - 0.25).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn cholesky_inverse_into(a: &Matrix, out: &mut Matrix) -> Result<(), CholeskyError> {
    assert!(a.is_square(), "cholesky: matrix must be square");
    let n = a.rows();
    out.reset_shape(n, n);
    let x = out.as_mut_slice();
    let mut scratch = workspace::take_raw(NB * n);
    let res = factor_blocked(a.as_slice(), n, x, &mut scratch).and_then(|()| {
        invert_lower_in_place(x, n, &mut scratch);
        gram_in_place(x, n, &mut scratch);
        check_inverse_diagonal(x, n)
    });
    workspace::put(scratch);
    res
}

/// The overflow check shared by the blocked inverse and its reference.
pub(crate) fn check_inverse_diagonal(x: &[f64], n: usize) -> Result<(), CholeskyError> {
    if (0..n).all(|i| x[i * n + i].is_finite()) {
        Ok(())
    } else {
        Err(TensorError::NonFinite("cholesky_inverse"))
    }
}

/// TRTRI: overwrites the lower-triangular factor in `l` (strict upper
/// triangle `+0.0`, all entries finite — what a successful
/// [`factor_blocked`] leaves) with `Y = L⁻¹`, by a row-blocked forward
/// sweep. The reference chain for `j ≤ i` is
///
/// ```text
/// Y[i][j] = (δᵢⱼ − Σ_{p=j}^{i−1} L[i][p]·Y[p][j]) / L[i][i]     (p ascending)
/// ```
///
/// For the row block starting at `ib`, the terms `p < ib` of all its
/// off-diagonal elements are one GEMM, `0 − L[I, ..ib]·Y[..ib, ..ib]`, and
/// the terms `ib ≤ p < i` plus the divide are one [`kernel::tri_sweep`]
/// against `L[I, I]`; the diagonal block is the same sweep on an identity
/// seed. The GEMM starts each column tile's chain at the tile's first
/// column rather than at `j`, and the seeded sweep at `ib`: the extra terms
/// are `fma(−L, +0.0, s)` with finite `L` and `s ≠ −0.0` (a chain that
/// starts at `+0.0` or `1.0` and only subtracts can never produce `−0.0`),
/// i.e. exact no-ops. The block is staged in `scratch` and copied over its rows
/// of `L` once nothing reads them any more.
fn invert_lower_in_place(l: &mut [f64], n: usize, scratch: &mut [f64]) {
    for ib in (0..n).step_by(NB) {
        let bw = NB.min(n - ib);
        let (off, diag) = scratch[..bw * (ib + bw)].split_at_mut(bw * ib);
        if ib > 0 {
            off.fill(0.0);
            kernel::gemm_chunk(
                off,
                bw,
                ib,
                ib,
                ASrc::RowMajor {
                    data: l,
                    stride: n,
                    base: ib,
                },
                BSrc::RowMajor { data: l, stride: n },
                Mode {
                    neg: true,
                    b_lower: true,
                    ..Mode::default()
                },
            );
            kernel::tri_sweep(&l[ib * n + ib..], n, off, ib, bw, ib);
        }
        diag.fill(0.0);
        for i in 0..bw {
            diag[i * bw + i] = 1.0;
        }
        kernel::tri_sweep(&l[ib * n + ib..], n, diag, bw, bw, bw);
        for i in 0..bw {
            let row = &mut l[(ib + i) * n..][..ib + i + 1];
            row[..ib].copy_from_slice(&off[i * ib..][..ib]);
            row[ib..].copy_from_slice(&diag[i * bw..][..i + 1]);
        }
    }
}

/// LAUUM: overwrites the lower-triangular `Y` in `y` (strict upper triangle
/// `+0.0`) with the full symmetric `X = YᵀY`. The reference chain, for
/// `i ≤ j`, is
///
/// ```text
/// X[i][j] = X[j][i] = Σ_{k=j}^{n−1} Y[k][i]·Y[k][j]     (from +0.0, k ascending)
/// ```
///
/// The row block starting at `ib` computes its part of the *upper*
/// triangle as one GEMM over `k ≥ ib`, `X[I, ib..] = Y[ib.., I]ᵀ ·
/// Y[ib.., ib..]`, whose `B` operand is lower-triangular: a column tile
/// starts its chain at the tile's first column rather than at `j`, and the
/// extra leading terms multiply the stored zeros `Y[k][j]`, `k < j` — exact
/// no-ops on the `+0.0` seed as long as `Y` is finite, which
/// [`check_inverse_diagonal`] verifies afterwards (a diagonal chain only
/// ever gains `0·0` terms, so that check itself cannot be fooled). Block
/// rows ascend and block `I` overwrites rows `I` only, which no later block
/// reads; the lower triangle is then a mirror of the upper.
fn gram_in_place(y: &mut [f64], n: usize, scratch: &mut [f64]) {
    for ib in (0..n).step_by(NB) {
        let bw = NB.min(n - ib);
        let w = n - ib;
        let panel = &mut scratch[..bw * w];
        panel.fill(0.0);
        let yread = &y[ib * n + ib..];
        kernel::gemm_chunk(
            panel,
            bw,
            w,
            w,
            // A(i, k) = Y[ib + k][ib + i], read in place.
            ASrc::ColMajor {
                data: yread,
                stride: n,
                base: 0,
            },
            BSrc::RowMajor {
                data: yread,
                stride: n,
            },
            Mode {
                b_lower: true,
                ..Mode::default()
            },
        );
        for i in 0..bw {
            y[(ib + i) * n + ib + i..][..w - i].copy_from_slice(&panel[i * w + i..][..w - i]);
        }
    }
    crate::gemm::mirror_lower_from_upper(y, n);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a random SPD matrix `MᵀM + n·I`.
    fn rand_spd(n: usize, seed: u64) -> Matrix {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let m = Matrix::from_vec(n, n, (0..n * n).map(|_| next()).collect());
        let mut spd = Matrix::zeros(n, n);
        m.gram_into(&mut spd);
        spd.add_diag(n as f64 * 0.1 + 0.5);
        spd
    }

    fn cholesky(a: &Matrix) -> Result<Matrix, CholeskyError> {
        let mut l = Matrix::zeros(1, 1);
        cholesky_into(a, &mut l).map(|()| l)
    }

    #[test]
    fn factor_reconstructs() {
        for n in [1, 2, 5, 16, 40, 100] {
            let a = rand_spd(n, n as u64);
            let l = cholesky(&a).unwrap();
            let rebuilt = l.matmul(&l.transpose());
            assert!((&rebuilt - &a).max_abs() < 1e-9, "n={n}");
        }
    }

    #[test]
    fn factor_is_lower_triangular() {
        // 100 crosses the NB=64 panel edge, so the copy-back's triangular
        // masking is exercised too.
        for n in [6, 100] {
            let a = rand_spd(n, 3);
            let l = cholesky(&a).unwrap();
            for i in 0..n {
                for j in (i + 1)..n {
                    assert_eq!(l[(i, j)], 0.0, "n={n} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn inverse_times_original_is_identity() {
        for n in [1, 3, 10, 24, 90] {
            let a = rand_spd(n, 7 + n as u64);
            let mut inv = Matrix::zeros(1, 1);
            cholesky_inverse_into(&a, &mut inv).unwrap();
            let prod = a.matmul(&inv);
            assert!((&prod - &Matrix::eye(n)).max_abs() < 1e-8, "n={n}");
            assert!(inv.is_symmetric(1e-10));
        }
    }

    #[test]
    fn non_spd_is_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        match cholesky(&a) {
            Err(TensorError::NotPositiveDefinite(_)) => {}
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
    }

    #[test]
    fn damping_rescues_singular_matrix() {
        // Rank-1 Gram matrix (singular) becomes SPD after damping — this is
        // precisely what K-FAC's damped inversion relies on.
        let u = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        let mut g = Matrix::zeros(3, 3);
        u.gram_into(&mut g);
        assert!(cholesky(&g).is_err());
        g.add_diag(1e-3);
        assert!(cholesky(&g).is_ok());
    }
}
