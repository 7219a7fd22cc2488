//! Property-based tests for the tensor substrate.

use pipefisher_tensor::{cholesky_into, cholesky_inverse_into, reference, softmax, Matrix};
use proptest::prelude::*;

/// Strategy: a matrix with bounded entries and dims in [1, max_dim].
fn matrix_strategy(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0..10.0f64, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

/// Strategy: a pair (A, B) with compatible inner dimension for A·B.
fn matmul_pair(max_dim: usize) -> impl Strategy<Value = (Matrix, Matrix)> {
    (1..=max_dim, 1..=max_dim, 1..=max_dim).prop_flat_map(|(m, k, n)| {
        let a = proptest::collection::vec(-5.0..5.0f64, m * k)
            .prop_map(move |d| Matrix::from_vec(m, k, d));
        let b = proptest::collection::vec(-5.0..5.0f64, k * n)
            .prop_map(move |d| Matrix::from_vec(k, n, d));
        (a, b)
    })
}

proptest! {
    #[test]
    fn blocked_gemm_matches_naive((a, b) in matmul_pair(12)) {
        let fast = a.matmul(&b);
        let slow = reference::matmul(&a, &b);
        prop_assert!((&fast - &slow).max_abs() < 1e-9);
    }

    #[test]
    fn transpose_is_involution(m in matrix_strategy(10)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn gram_is_psd_diag_nonneg(m in matrix_strategy(8)) {
        let mut g = Matrix::zeros(0, 0);
        m.gram_into(&mut g);
        prop_assert!(g.is_symmetric(1e-9));
        for i in 0..g.rows() {
            prop_assert!(g[(i, i)] >= -1e-12);
        }
    }

    #[test]
    fn damped_gram_cholesky_roundtrip(m in matrix_strategy(8)) {
        let mut g = Matrix::zeros(0, 0);
        m.gram_into(&mut g);
        g.add_diag(1.0);
        let mut l = Matrix::zeros(0, 0);
        cholesky_into(&g, &mut l).expect("damped Gram must be SPD");
        let rebuilt = l.matmul(&l.transpose());
        prop_assert!((&rebuilt - &g).max_abs() < 1e-7);
        let mut inv = Matrix::zeros(0, 0);
        cholesky_inverse_into(&g, &mut inv).expect("inverse");
        let prod = g.matmul(&inv);
        prop_assert!((&prod - &Matrix::eye(g.rows())).max_abs() < 1e-6);
    }

    #[test]
    fn softmax_rows_are_distributions(m in matrix_strategy(10)) {
        let p = softmax(&m);
        for r in 0..p.rows() {
            let s: f64 = p.row(r).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-9);
            prop_assert!(p.row(r).iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn matmul_distributes_over_addition((a, b) in matmul_pair(8)) {
        // A(B + B) == AB + AB
        let b2 = &b + &b;
        let lhs = a.matmul(&b2);
        let rhs_single = a.matmul(&b);
        let rhs = &rhs_single + &rhs_single;
        prop_assert!((&lhs - &rhs).max_abs() < 1e-9);
    }
}
