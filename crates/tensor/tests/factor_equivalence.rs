//! Determinism contract for the blocked factorization engine: the panel
//! Cholesky, the triangular inverse and its Gram product (all with their
//! off-block work on the packed GEMM micro-kernels and their in-block work
//! on the triangular sweep) are **bitwise** identical to the scalar
//! reference loops — across sizes that straddle the 64-wide block edge,
//! forced kernels, and poisoned outputs — and the inverse is
//! exactly symmetric. Failing inputs must report the same error, with the
//! same pivot index, the reference reports, across block boundaries. The
//! fused GEMM epilogues (bias, bias+activation, bias+residual) must match
//! their separate-pass equivalents bit for bit.
//!
//! Settings are process-wide, so tests hold the shared lock and restore
//! defaults on drop (same idiom as `kernel_dispatch.rs`).

use std::sync::{Mutex, MutexGuard, OnceLock};

use pipefisher_tensor::kernel::{self, KernelKind};
use pipefisher_tensor::{cholesky_into, cholesky_inverse_into, reference, Matrix, TensorError};
use proptest::collection;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Serializes tests that mutate the process-wide kernel setting and
/// restores the default when dropped.
struct SettingsGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl SettingsGuard {
    fn acquire() -> Self {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        let guard = match LOCK.get_or_init(|| Mutex::new(())).lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        SettingsGuard(guard)
    }
}

impl Drop for SettingsGuard {
    fn drop(&mut self) {
        kernel::set_kernel(None);
    }
}

fn random_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    collection::vec(-10.0f64..10.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
        .generate(rng)
}

/// Symmetric strictly-diagonally-dominant (hence SPD) matrix built with
/// scalar loops only — the input under test must not itself depend on the
/// kernel setting being varied.
fn random_spd(n: usize, rng: &mut StdRng) -> Matrix {
    let mut m = random_matrix(n, n, rng);
    let shrink = 1.0 / (n.max(1) as f64);
    for i in 0..n {
        for j in 0..i {
            let v = 0.5 * (m[(i, j)] + m[(j, i)]) * shrink;
            m[(i, j)] = v;
            m[(j, i)] = v;
        }
    }
    for i in 0..n {
        // Off-diagonal row sums are < 10, so 11 + |x| dominates.
        m[(i, i)] = 11.0 + m[(i, i)].abs();
    }
    m
}

fn assert_bitwise(label: &str, kind: KernelKind, want: &Matrix, got: &Matrix) {
    assert_eq!(want.shape(), got.shape(), "{label}: shape @ {kind:?}");
    for (i, (w, g)) in want
        .as_slice()
        .iter()
        .zip(got.as_slice().iter())
        .enumerate()
    {
        assert!(
            w.to_bits() == g.to_bits(),
            "{label}: element {i} differs @ {kind:?}: {w:?} vs {g:?}"
        );
    }
}

/// Factors and inverts `a` with the blocked engine under every kernel
/// setting and asserts bitwise identity with the naive
/// reference (computed once: the naive loops are pure scalar code and
/// cannot depend on the settings). Outputs are poisoned before every call.
fn check_factor_and_inverse(a: &Matrix) {
    let _guard = SettingsGuard::acquire();
    let mut want_l = Matrix::full(3, 7, f64::NAN);
    let res_naive = reference::cholesky_into(a, &mut want_l);
    let mut want_inv = Matrix::full(3, 7, f64::NAN);
    let inv_naive = reference::cholesky_inverse_into(a, &mut want_inv);
    for kind in [KernelKind::Scalar, KernelKind::Simd] {
        kernel::set_kernel(Some(kind));
        let mut got_l = Matrix::full(3, 7, f64::NAN);
        let res = cholesky_into(a, &mut got_l);
        assert_eq!(res, res_naive, "factor result @ {kind:?}");
        if res.is_ok() {
            assert_bitwise("cholesky", kind, &want_l, &got_l);
        }
        let mut got_inv = Matrix::full(3, 7, f64::NAN);
        let inv = cholesky_inverse_into(a, &mut got_inv);
        assert_eq!(inv, inv_naive, "inverse result @ {kind:?}");
        if inv.is_ok() {
            assert_bitwise("inverse", kind, &want_inv, &got_inv);
            assert_exactly_symmetric(&got_inv);
        }
    }
}

fn assert_exactly_symmetric(m: &Matrix) {
    for i in 0..m.rows() {
        for j in 0..i {
            assert!(
                m[(i, j)].to_bits() == m[(j, i)].to_bits(),
                "({i},{j}) = {:?} but ({j},{i}) = {:?}",
                m[(i, j)],
                m[(j, i)]
            );
        }
    }
}

/// Sizes biased at the blocked engine's NB = 64 panel edges: empty, single
/// element, inside one panel, the edge itself, straddling, and multi-panel
/// non-multiples.
fn factor_dim() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1usize),
        2usize..63,
        Just(63usize),
        Just(64usize),
        Just(65usize),
        66usize..130,
        Just(192usize),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn blocked_cholesky_matches_naive_bitwise(n in factor_dim()) {
        let mut rng = StdRng::seed_from_u64(n as u64 * 2_654_435_761 + 17);
        let a = random_spd(n, &mut rng);
        check_factor_and_inverse(&a);
    }
}

/// The sizes the K-FAC refresh actually runs at in this repo's workloads
/// (`d + 1` bias-augmented factors: 65, 97, 129, 385) plus the block-edge
/// cases, each against the scalar reference under every kernel setting.
#[test]
fn inverse_matches_reference_bitwise_at_block_edges_and_kfac_sizes() {
    for n in [1usize, 2, 63, 64, 65, 97, 129, 192, 385] {
        let mut rng = StdRng::seed_from_u64(n as u64 * 31 + 5);
        let a = random_spd(n, &mut rng);
        check_factor_and_inverse(&a);
    }
}

/// The inverse the engine computed before it became `potrf` + `potri`:
/// forward and backward substitution against a dense identity, then an
/// averaging symmetrization — replayed here in plain loops over the
/// reference factor as an accuracy base.
fn solve_against_identity_inverse(a: &Matrix) -> Matrix {
    let n = a.rows();
    let mut l = Matrix::zeros(1, 1);
    reference::cholesky_into(a, &mut l).unwrap();
    let mut inv = Matrix::eye(n);
    for c in 0..n {
        // Forward substitution L·y = e_c, then back substitution Lᵀ·x = y.
        for i in 0..n {
            let mut s = inv[(i, c)];
            for p in 0..i {
                s -= l[(i, p)] * inv[(p, c)];
            }
            inv[(i, c)] = s / l[(i, i)];
        }
        for i in (0..n).rev() {
            let mut s = inv[(i, c)];
            for p in (i + 1)..n {
                s -= l[(p, i)] * inv[(p, c)];
            }
            inv[(i, c)] = s / l[(i, i)];
        }
    }
    inv.symmetrize();
    inv
}

fn residual_max(a: &Matrix, inv: &Matrix) -> f64 {
    // Plain loops: the check must not depend on the kernels under test.
    let n = a.rows();
    let mut worst = 0.0f64;
    for i in 0..n {
        for j in 0..n {
            let mut s = if i == j { -1.0 } else { 0.0 };
            for k in 0..n {
                s += a[(i, k)] * inv[(k, j)];
            }
            worst = worst.max(s.abs());
        }
    }
    worst
}

/// `Y = L⁻¹`, `X = YᵀY` rounds differently from solving `L·Lᵀ·X = I`; the
/// residual `‖A·X − I‖_max` must stay within 4× of what the old arithmetic
/// achieved on the same input — well-conditioned and damped-Gram alike.
#[test]
fn inverse_residual_is_no_worse_than_four_times_the_solve_based_one() {
    let mut rng = StdRng::seed_from_u64(0xACC);
    for n in [65usize, 97, 129, 385] {
        let dominant = random_spd(n, &mut rng);
        // A rank-deficient Gram matrix rescued by damping: condition
        // number ~1e5, the shape K-FAC actually inverts.
        let u = random_matrix(n / 2, n, &mut rng);
        let mut gram = Matrix::zeros(1, 1);
        u.gram_into(&mut gram);
        gram.add_diag(1e-2);
        for (label, a) in [("dominant", dominant), ("damped gram", gram)] {
            let mut inv = Matrix::zeros(1, 1);
            cholesky_inverse_into(&a, &mut inv).unwrap();
            let new = residual_max(&a, &inv);
            let old = residual_max(&a, &solve_against_identity_inverse(&a));
            assert!(
                new <= 4.0 * old,
                "n={n} {label}: residual {new:e} vs solve-based {old:e}"
            );
        }
    }
}

/// An inverse that overflows is an error, the same one from both engines,
/// not a matrix of infinities: `1e-320` factors to `~1e-160`, inverts to
/// `~1e160`, and squares to `+∞`.
#[test]
fn overflowing_inverse_is_reported_as_non_finite() {
    let a = Matrix::from_rows(&[&[1e-320, 0.0], &[0.0, 1.0]]);
    let mut out = Matrix::zeros(1, 1);
    let want = Err(TensorError::NonFinite("cholesky_inverse"));
    assert_eq!(reference::cholesky_inverse_into(&a, &mut out), want);
    assert_eq!(cholesky_inverse_into(&a, &mut out), want);
}

/// The BERT-Base K-FAC factor sizes the paper's Invert work unit runs on:
/// 769 = d_model + 1 (bias-augmented A-factor). Multi-panel, non-multiple
/// of NB.
#[test]
fn bert_factor_size_769_blocked_matches_naive_bitwise() {
    let mut rng = StdRng::seed_from_u64(0x769);
    let a = random_spd(769, &mut rng);
    check_factor_and_inverse(&a);
}

/// A failing pivot must surface the same `NotPositiveDefinite(index)` — or
/// `NonFinite` — the naive loop reports, wherever it falls relative to the
/// 64-wide panels: first column, panel edges, interior, and last column.
#[test]
fn failing_pivot_index_is_preserved_across_blocks() {
    let n = 130;
    for &p in &[0usize, 1, 62, 63, 64, 65, 100, 129] {
        let mut rng = StdRng::seed_from_u64(p as u64 + 7);
        let mut a = random_spd(n, &mut rng);
        // A negative diagonal forces the pivot at exactly `p`: columns
        // before `p` never read it, and the Schur complement at `p` is
        // at most the (negative) diagonal entry.
        a[(p, p)] = -1.0;
        let _guard = SettingsGuard::acquire();
        // A NaN below the diagonal of row `p` poisons pivot `p` and no
        // earlier one: the error is `NonFinite`, from factor and inverse.
        let mut poisoned = random_spd(n, &mut rng);
        poisoned[(p, p / 2)] = f64::NAN;
        for (a, want) in [
            (&a, Err(TensorError::NotPositiveDefinite(p))),
            (&poisoned, Err(TensorError::NonFinite("cholesky"))),
        ] {
            let mut naive_out = Matrix::zeros(1, 1);
            assert_eq!(reference::cholesky_into(a, &mut naive_out), want);
            assert_eq!(reference::cholesky_inverse_into(a, &mut naive_out), want);
            for kind in [KernelKind::Scalar, KernelKind::Simd] {
                kernel::set_kernel(Some(kind));
                let mut out = Matrix::zeros(1, 1);
                assert_eq!(cholesky_into(a, &mut out), want, "pivot {p} @ {kind:?}");
                assert_eq!(
                    cholesky_inverse_into(a, &mut out),
                    want,
                    "inverse, pivot {p} @ {kind:?}"
                );
            }
        }
    }
}

/// Fused store epilogues (bias / bias+residual) must be bitwise identical
/// to the separate-pass computations, for every kernel, including ragged
/// tile edges and cache-block crossings.
#[test]
fn fused_epilogues_match_separate_passes_bitwise() {
    let mut rng = StdRng::seed_from_u64(0xE91);
    for &(m, k, n) in &[
        (1usize, 1usize, 1usize),
        (3, 5, 7),
        (13, 300, 17), // k crosses KC: epilogue must fire on the LAST block only
        (33, 9, 40),
        (130, 7, 9), // m crosses MC
    ] {
        let a = random_matrix(m, k, &mut rng);
        let b = random_matrix(k, n, &mut rng);
        let bias: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let res = random_matrix(m, n, &mut rng);

        let _guard = SettingsGuard::acquire();
        for kind in [KernelKind::Scalar, KernelKind::Simd] {
            kernel::set_kernel(Some(kind));

            // Separate-pass references under the same settings.
            let mut base = Matrix::full(2, 2, f64::NAN);
            a.matmul_into(&b, &mut base);
            let mut want_bias = base.clone();
            want_bias.add_row_broadcast(&bias);
            let mut want_res = want_bias.clone();
            for (o, &r) in want_res.as_mut_slice().iter_mut().zip(res.as_slice()) {
                *o += r;
            }

            let mut got = Matrix::full(2, 2, f64::NAN);
            a.matmul_bias_into(&b, &bias, &mut got);
            assert_bitwise("bias", kind, &want_bias, &got);

            a.matmul_bias_residual_into(&b, &bias, &res, &mut got);
            assert_bitwise("bias+residual", kind, &want_res, &got);
        }
    }
}

/// k = 0 degenerate products still apply the full epilogue (bias,
/// residual over an all-zero product), under every kernel.
#[test]
fn degenerate_k0_epilogues() {
    let (m, n) = (4usize, 6usize);
    let a = Matrix::zeros(m, 0);
    let b = Matrix::zeros(0, n);
    let bias: Vec<f64> = (0..n).map(|i| i as f64 - 2.0).collect();
    let mut rng = StdRng::seed_from_u64(9);
    let res = random_matrix(m, n, &mut rng);

    let _guard = SettingsGuard::acquire();
    for kind in [KernelKind::Scalar, KernelKind::Simd] {
        kernel::set_kernel(Some(kind));
        let at = format!("{kind:?}");

        let mut got = Matrix::full(1, 1, f64::NAN);
        a.matmul_bias_into(&b, &bias, &mut got);
        for r in 0..m {
            for c in 0..n {
                assert_eq!(got[(r, c)].to_bits(), bias[c].to_bits(), "bias @ {at}");
            }
        }

        a.matmul_bias_residual_into(&b, &bias, &res, &mut got);
        for r in 0..m {
            for c in 0..n {
                let want = bias[c] + res[(r, c)];
                assert_eq!(got[(r, c)].to_bits(), want.to_bits(), "residual @ {at}");
            }
        }
    }
}
