//! Row/column reductions.

use crate::Matrix;

/// Unroll width for the exact-chunk hot loops: 8 f64 lanes covers one
/// 512-bit vector (or two 256-bit ones), and `chunks_exact` gives LLVM
/// fixed-trip inner loops with no bounds checks to defeat vectorization.
pub(crate) const LANES: usize = 8;

/// Sequential sum in exact-chunk form. The accumulation chain is the
/// ascending-index fold `((0 + x₀) + x₁) + …` — identical to
/// `iter().sum()`, so swapping call sites to this helper is bitwise-safe.
pub(crate) fn sum_exact(xs: &[f64]) -> f64 {
    let mut acc = 0.0;
    let mut it = xs.chunks_exact(LANES);
    for c in it.by_ref() {
        for &x in c {
            acc += x;
        }
    }
    for &x in it.remainder() {
        acc += x;
    }
    acc
}

/// Sequential dot product in exact-chunk form; ascending-index chain
/// identical to `zip().map(mul).sum()`.
pub(crate) fn dot_exact(xs: &[f64], ys: &[f64]) -> f64 {
    debug_assert_eq!(xs.len(), ys.len());
    let mut acc = 0.0;
    let mut xi = xs.chunks_exact(LANES);
    let mut yi = ys.chunks_exact(LANES);
    for (cx, cy) in xi.by_ref().zip(yi.by_ref()) {
        for (&x, &y) in cx.iter().zip(cy.iter()) {
            acc += x * y;
        }
    }
    for (&x, &y) in xi.remainder().iter().zip(yi.remainder().iter()) {
        acc += x * y;
    }
    acc
}

/// Sums each column into `out` (fully overwritten): rows accumulate in
/// ascending order per column.
///
/// # Panics
///
/// Panics if `out.len() != m.cols()`.
pub fn col_sum_into(m: &Matrix, out: &mut [f64]) {
    assert_eq!(out.len(), m.cols(), "col_sum_into: output length");
    out.fill(0.0);
    for r in 0..m.rows() {
        let row = m.row(r);
        let mut oi = out.chunks_exact_mut(LANES);
        let mut xi = row.chunks_exact(LANES);
        for (co, cx) in oi.by_ref().zip(xi.by_ref()) {
            for (o, &x) in co.iter_mut().zip(cx.iter()) {
                *o += x;
            }
        }
        for (o, &x) in oi.into_remainder().iter_mut().zip(xi.remainder().iter()) {
            *o += x;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]])
    }

    #[test]
    fn col_reductions() {
        let mut out = [f64::NAN; 3];
        col_sum_into(&sample(), &mut out);
        assert_eq!(out, [5.0, 7.0, 9.0]);
    }
}
