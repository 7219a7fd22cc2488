//! Property tests: the parallel GEMM/Gram kernels are **bitwise** equal to
//! their serial execution at every thread count.
//!
//! The kernels partition output rows into disjoint chunks and keep each
//! element's accumulation order partition-independent, so this must hold
//! exactly (`f64::to_bits` equality), not just within tolerance. The tests
//! drive the pool through [`par::set_max_threads`] /
//! [`par::set_par_threshold`], which are process-wide, so every test holds a
//! shared lock while it runs and restores the defaults on exit.

use std::sync::{Mutex, MutexGuard, OnceLock};

use pipefisher_tensor::{par, reference, Matrix};
use proptest::collection;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Serializes tests that mutate the process-wide pool settings and restores
/// the defaults (env/hardware thread count, stock threshold) when dropped.
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
        par::set_max_threads(0);
        par::set_par_threshold(250_000);
    }
}

fn random_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    collection::vec(-10.0f64..10.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
        .generate(rng)
}

fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..24, 1usize..24, 1usize..24)
}

fn assert_bitwise_eq(label: &str, threads: usize, serial: &Matrix, parallel: &Matrix) {
    assert_eq!(
        serial.shape(),
        parallel.shape(),
        "{label}: shape @ {threads} threads"
    );
    for (i, (s, p)) in serial
        .as_slice()
        .iter()
        .zip(parallel.as_slice().iter())
        .enumerate()
    {
        assert!(
            s.to_bits() == p.to_bits(),
            "{label}: element {i} differs at {threads} threads: {s:?} vs {p:?}"
        );
    }
}

/// Runs `op` serially (1 thread) and at 2 and 4 threads with the parallel
/// cutover forced to zero, asserting bitwise equality each time.
fn check_bitwise(label: &str, op: impl Fn() -> Matrix) {
    let _guard = SettingsGuard::acquire();
    par::set_par_threshold(0);
    par::set_max_threads(1);
    let serial = op();
    for threads in [2usize, 4] {
        par::set_max_threads(threads);
        let parallel = op();
        assert_bitwise_eq(label, threads, &serial, &parallel);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matmul_is_bitwise_identical_across_thread_counts((m, k, n) in dims()) {
        let mut rng = StdRng::seed_from_u64((m * 1_000_003 + k * 1009 + n) as u64);
        let a = random_matrix(m, k, &mut rng);
        let b = random_matrix(k, n, &mut rng);
        check_bitwise("matmul", || a.matmul(&b));
    }

    #[test]
    fn matmul_tn_is_bitwise_identical_across_thread_counts((m, k, n) in dims()) {
        let mut rng = StdRng::seed_from_u64((m * 7919 + k * 104_729 + n) as u64);
        let a = random_matrix(k, m, &mut rng);
        let b = random_matrix(k, n, &mut rng);
        check_bitwise("matmul_tn", || {
            let mut out = Matrix::full(3, 7, f64::NAN);
            a.matmul_tn_into(&b, &mut out);
            out
        });
    }

    #[test]
    fn matmul_nt_is_bitwise_identical_across_thread_counts((m, k, n) in dims()) {
        let mut rng = StdRng::seed_from_u64((m * 31 + k * 131_071 + n) as u64);
        let a = random_matrix(m, k, &mut rng);
        let b = random_matrix(n, k, &mut rng);
        check_bitwise("matmul_nt", || a.matmul_nt(&b));
    }

    #[test]
    fn gram_is_bitwise_identical_across_thread_counts((k, m, _unused) in dims()) {
        let mut rng = StdRng::seed_from_u64((k * 613 + m) as u64);
        let u = random_matrix(k, m, &mut rng);
        check_bitwise("gram", || {
            let mut out = Matrix::full(3, 7, f64::NAN);
            u.gram_into(&mut out);
            out
        });
    }
}

/// The parallel path must also stay numerically correct, not just
/// self-consistent: spot-check against the naive reference at several
/// thread counts.
#[test]
fn parallel_matmul_matches_naive_reference() {
    let _guard = SettingsGuard::acquire();
    par::set_par_threshold(0);
    let a = Matrix::from_vec(5, 7, (0..35).map(|i| (i as f64).sin()).collect());
    let b = Matrix::from_vec(7, 3, (0..21).map(|i| (i as f64).cos()).collect());
    let reference = reference::matmul(&a, &b);
    for threads in [1usize, 2, 4] {
        par::set_max_threads(threads);
        let got = a.matmul(&b);
        let diff = (&got - &reference).max_abs();
        assert!(diff < 1e-12, "diff {diff} at {threads} threads");
    }
}
