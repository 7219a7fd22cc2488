//! Numerically stable softmax and log-softmax over matrix rows.

use crate::kernel::exp_rows;
use crate::reduce::LANES;
use crate::Matrix;

/// Row-wise stable softmax: each row of the result sums to 1.
///
/// # Example
///
/// ```
/// use pipefisher_tensor::{softmax, Matrix};
/// let logits = Matrix::from_rows(&[&[0.0, 0.0]]);
/// let p = softmax(&logits);
/// assert!((p[(0, 0)] - 0.5).abs() < 1e-12);
/// ```
pub fn softmax(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    softmax_inplace(&mut out);
    out
}

/// Row-wise stable softmax, in place: [`softmax_scaled_inplace`] at scale
/// 1 (`x·1 = x` exactly, so this is the unscaled softmax bit for bit).
pub fn softmax_inplace(logits: &mut Matrix) {
    softmax_scaled_inplace(logits, 1.0);
}

/// Row-wise stable softmax of `scale · logits`, in place, without a
/// separate scaling pass over the matrix.
///
/// Per element the operation sequence is: round `x·scale`, fold the max,
/// subtract, exp on the crate's row kernel (bit-identical to glibc's `exp`
/// on every kernel kind, DESIGN.md §3.1 "Activations"); then the row sum
/// folds the exponentials in ascending column order and each element is
/// divided by it (no reciprocal-multiply shortcut, which would round
/// differently). This is [`Matrix::scale_inplace`] followed by the
/// unscaled softmax, bit for bit, with one fewer sweep over the scores.
/// `-∞` entries (attention masks) stay `-∞` under any positive scale.
pub fn softmax_scaled_inplace(logits: &mut Matrix, scale: f64) {
    let cols = logits.cols();
    if cols == 0 {
        return;
    }
    let data = logits.as_mut_slice();
    for row in data.chunks_exact_mut(cols) {
        let max = row_max(row, scale);
        for x in row.iter_mut() {
            *x = *x * scale - max;
        }
    }
    // One row-kernel call over the whole matrix.
    exp_rows(data);
    with_row_sums(data, cols, |_, row, sum| {
        for x in row {
            *x /= sum;
        }
    });
}

/// Row-wise stable log-softmax.
///
/// Computed as `x - max - ln(Σ exp(x - max))`, avoiding overflow for large
/// logits and catastrophic cancellation for small probabilities; the
/// exponentials run on the crate's row kernel, the `ln` is libm's.
pub fn log_softmax(logits: &Matrix) -> Matrix {
    let cols = logits.cols();
    let mut out = Matrix::zeros(logits.rows(), cols);
    if cols == 0 {
        return out;
    }
    let src = logits.as_slice();
    for (row, s) in out
        .as_mut_slice()
        .chunks_exact_mut(cols)
        .zip(src.chunks_exact(cols))
    {
        let max = row_max(s, 1.0);
        for (o, &x) in row.iter_mut().zip(s) {
            *o = x - max;
        }
    }
    exp_rows(out.as_mut_slice());
    with_row_sums(out.as_mut_slice(), cols, |r, row, sum| {
        let s = &src[r * cols..][..cols];
        let lse = sum.ln() + row_max(s, 1.0);
        for (o, &x) in row.iter_mut().zip(s) {
            *o = x - lse;
        }
    });
    out
}

/// The max of `x·scale` over `row`, folded in `LANES` lanes. Max is exact
/// and, NaN skipped, order-free up to the sign of a zero maximum, which
/// neither `x − max` followed by `exp` nor `ln(sum) + max` can see.
fn row_max(row: &[f64], scale: f64) -> f64 {
    let mut lanes = [f64::NEG_INFINITY; LANES];
    let (chunks, tail) = row.as_chunks::<LANES>();
    for c in chunks {
        for (m, &x) in lanes.iter_mut().zip(c) {
            *m = m.max(x * scale);
        }
    }
    let mut width = LANES;
    while width > 1 {
        width /= 2;
        for i in 0..width {
            lanes[i] = lanes[i].max(lanes[i + width]);
        }
    }
    tail.iter().fold(lanes[0], |m, &x| m.max(x * scale))
}

/// Calls `f(r, row, sum)` on each `cols`-wide row of `m` with its
/// [`sum_exact`](crate::reduce::sum_exact): every row is still its own
/// ascending chain from `+0.0`, but `LANES` rows' chains run interleaved,
/// so their adds overlap instead of each waiting on the one before.
fn with_row_sums(m: &mut [f64], cols: usize, mut f: impl FnMut(usize, &mut [f64], f64)) {
    for (g, group) in m.chunks_mut(LANES * cols).enumerate() {
        let mut sums = [0.0; LANES];
        let n = group.len() / cols;
        for c in 0..cols {
            for (j, s) in sums[..n].iter_mut().enumerate() {
                *s += group[j * cols + c];
            }
        }
        for (j, (row, sum)) in group.chunks_exact_mut(cols).zip(sums).enumerate() {
            f(g * LANES + j, row, sum);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_sum_to_one() {
        let logits = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]);
        let p = softmax(&logits);
        for r in 0..2 {
            let s: f64 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
            assert!(p.row(r).iter().all(|&x| x > 0.0));
        }
    }

    #[test]
    fn stable_for_large_logits() {
        let logits = Matrix::from_rows(&[&[1000.0, 1000.0]]);
        let p = softmax(&logits);
        assert!((p[(0, 0)] - 0.5).abs() < 1e-12);
        assert!(p.all_finite());
    }

    #[test]
    fn log_softmax_is_log_of_softmax() {
        let logits = Matrix::from_rows(&[&[0.3, -1.2, 2.0, 0.0]]);
        let p = softmax(&logits);
        let lp = log_softmax(&logits);
        for c in 0..4 {
            assert!((lp[(0, c)] - p[(0, c)].ln()).abs() < 1e-12);
        }
    }

    #[test]
    fn log_softmax_stable_for_extreme_logits() {
        let logits = Matrix::from_rows(&[&[-1e4, 0.0, 1e4]]);
        let lp = log_softmax(&logits);
        assert!(lp.all_finite());
        assert!((lp[(0, 2)] - 0.0).abs() < 1e-9); // dominant class ~ prob 1
    }

    #[test]
    fn scaled_softmax_matches_two_pass_bitwise() {
        // Includes a -∞ masked entry: scaling must keep it -∞ either way.
        let mut fused =
            Matrix::from_rows(&[&[0.3, -1.2, 2.0, f64::NEG_INFINITY], &[5.0, -3.0, 0.0, 1.5]]);
        let mut two_pass = fused.clone();
        let scale = 1.0 / (7.0f64).sqrt();
        softmax_scaled_inplace(&mut fused, scale);
        two_pass.scale_inplace(scale);
        softmax_inplace(&mut two_pass);
        for (a, b) in fused.as_slice().iter().zip(two_pass.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// The softmax rows, spelled on libm's `exp`, are what the row kernel
    /// replaced: bit for bit on hosts whose `exp` is glibc's FMA build.
    #[test]
    fn softmax_rows_match_their_libm_spelling() {
        if let Some(why) = crate::kernel::host_libm_differs() {
            eprintln!("softmax_rows_match_their_libm_spelling skipped: {why}");
            return;
        }
        let mut s = 0x50F7u64;
        let vals: Vec<f64> = (0..37 * 68)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 11) as f64 / (1u64 << 53) as f64 * 60.0 - 30.0
            })
            .collect();
        let logits = Matrix::from_vec(37, 68, vals);
        let scale = 0.25;
        let (mut p, lp) = (logits.clone(), log_softmax(&logits));
        softmax_scaled_inplace(&mut p, scale);
        for r in 0..logits.rows() {
            let row = logits.row(r);
            let max = row
                .iter()
                .map(|&x| x * scale)
                .fold(f64::NEG_INFINITY, f64::max);
            let e: Vec<f64> = row.iter().map(|&x| (x * scale - max).exp()).collect();
            let sum: f64 = e.iter().sum();
            for (c, e) in e.iter().enumerate() {
                assert_eq!(
                    p[(r, c)].to_bits(),
                    (e / sum).to_bits(),
                    "softmax ({r}, {c})"
                );
            }
            let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let lse = row.iter().map(|&x| (x - max).exp()).sum::<f64>().ln() + max;
            for (c, &x) in row.iter().enumerate() {
                assert_eq!(
                    lp[(r, c)].to_bits(),
                    (x - lse).to_bits(),
                    "log_softmax ({r}, {c})"
                );
            }
        }
    }

    #[test]
    fn ordering_is_preserved() {
        let logits = Matrix::from_rows(&[&[0.1, 0.5, -2.0]]);
        let p = softmax(&logits);
        assert!(p[(0, 1)] > p[(0, 0)]);
        assert!(p[(0, 0)] > p[(0, 2)]);
    }
}
