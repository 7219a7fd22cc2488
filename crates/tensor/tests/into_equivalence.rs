//! Property tests: every `_into` kernel is **bitwise** identical to its
//! allocating counterpart — or, where there is none (`matmul_tn_into`,
//! `gram_into`), to itself on a fresh destination — across random shapes
//! and stale output contents — and the workspace never hands out an aliased
//! buffer.
//!
//! The allocating kernels are thin wrappers over the `_into` variants,
//! but that makes these tests more important, not less: they pin down the
//! contract that an `_into` call fully overwrites its destination (no
//! dependence on prior contents) and re-dimensions any shape the caller
//! hands it. The workspace switch is process-wide, so tests that touch it
//! hold a shared lock and restore the default on exit.

use std::sync::{Mutex, MutexGuard, OnceLock};

use pipefisher_tensor::{reference, workspace, Matrix};
use proptest::collection;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Serializes tests that mutate the process-wide workspace switch and
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
        workspace::set_enabled(true);
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

fn assert_bitwise_eq(label: &str, want: &Matrix, got: &Matrix) {
    assert_eq!(want.shape(), got.shape(), "{label}: shape");
    for (i, (w, g)) in want
        .as_slice()
        .iter()
        .zip(got.as_slice().iter())
        .enumerate()
    {
        assert!(
            w.to_bits() == g.to_bits(),
            "{label}: element {i} differs: {w:?} vs {g:?}"
        );
    }
}

/// Checks `alloc()` against `into(out)`. The destination is pre-filled
/// with a wrong shape *and* garbage contents so any dependence on prior
/// state shows up as a mismatch.
fn check_into(label: &str, alloc: impl Fn() -> Matrix, into: impl Fn(&mut Matrix)) {
    let _guard = SettingsGuard::acquire();
    let want = alloc();
    let mut out = Matrix::full(3, 7, f64::NAN); // wrong shape, poisoned
    into(&mut out);
    assert_bitwise_eq(label, &want, &out);
    // Second call reuses the now-correctly-shaped buffer in place.
    into(&mut out);
    assert_bitwise_eq(label, &want, &out);
}

/// The "allocating" side for a kernel that has only an `_into` form: the
/// same call on a fresh, empty destination.
fn fresh(into: impl Fn(&mut Matrix)) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    into(&mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matmul_into_matches_allocating((m, k, n) in dims()) {
        let mut rng = StdRng::seed_from_u64((m * 1_000_003 + k * 1009 + n) as u64);
        let a = random_matrix(m, k, &mut rng);
        let b = random_matrix(k, n, &mut rng);
        check_into("matmul_into", || a.matmul(&b), |out| a.matmul_into(&b, out));
    }

    #[test]
    fn matmul_tn_into_matches_allocating((m, k, n) in dims()) {
        let mut rng = StdRng::seed_from_u64((m * 7919 + k * 104_729 + n) as u64);
        let a = random_matrix(k, m, &mut rng);
        let b = random_matrix(k, n, &mut rng);
        let into = |out: &mut Matrix| a.matmul_tn_into(&b, out);
        check_into("matmul_tn_into", || fresh(into), into);
    }

    #[test]
    fn matmul_nt_into_matches_allocating((m, k, n) in dims()) {
        let mut rng = StdRng::seed_from_u64((m * 31 + k * 131_071 + n) as u64);
        let a = random_matrix(m, k, &mut rng);
        let b = random_matrix(n, k, &mut rng);
        check_into("matmul_nt_into", || a.matmul_nt(&b), |out| a.matmul_nt_into(&b, out));
    }

    #[test]
    fn gram_into_matches_allocating((k, m, _unused) in dims()) {
        let mut rng = StdRng::seed_from_u64((k * 613 + m) as u64);
        let u = random_matrix(k, m, &mut rng);
        let into = |out: &mut Matrix| u.gram_into(out);
        check_into("gram_into", || fresh(into), into);
    }

    #[test]
    fn into_kernels_identical_with_workspace_on_and_off((m, k, n) in dims()) {
        let mut rng = StdRng::seed_from_u64((m * 97 + k * 193 + n * 389) as u64);
        let a = random_matrix(m, k, &mut rng);
        let b = random_matrix(k, n, &mut rng);
        let _guard = SettingsGuard::acquire();
        workspace::set_enabled(true);
        let with_pool = a.matmul(&b);
        workspace::set_enabled(false);
        let without_pool = a.matmul(&b);
        assert_bitwise_eq("workspace on/off", &with_pool, &without_pool);
    }
}

/// The kernels must stay numerically correct, not just self-consistent:
/// spot-check `matmul` against the naive reference.
#[test]
fn matmul_matches_naive_reference() {
    let a = Matrix::from_vec(5, 7, (0..35).map(|i| (i as f64).sin()).collect());
    let b = Matrix::from_vec(7, 3, (0..21).map(|i| (i as f64).cos()).collect());
    let diff = (&a.matmul(&b) - &reference::matmul(&a, &b)).max_abs();
    assert!(diff < 1e-12, "diff {diff}");
}

/// The workspace must never hand out a buffer that aliases a live checkout
/// (`Matrix::zeros` checks out, `drop` checks in): two simultaneous
/// checkouts of the same shape are distinct allocations.
#[test]
fn workspace_checkouts_never_alias() {
    let _guard = SettingsGuard::acquire();
    workspace::set_enabled(true);
    // Warm the pool so at least one buffer of this class is pooled.
    drop(Matrix::zeros(6, 5));
    let mut a = Matrix::zeros(6, 5);
    let mut b = Matrix::zeros(6, 5); // same shape while `a` is still live
    let pa = a.as_mut_slice().as_mut_ptr();
    let pb = b.as_mut_slice().as_mut_ptr();
    assert_ne!(pa, pb, "two live checkouts share a backing buffer");
    a.as_mut_slice().fill(1.0);
    b.as_mut_slice().fill(2.0);
    assert!(
        a.as_slice().iter().all(|&x| x == 1.0),
        "write-through aliasing"
    );
    drop(a);
    drop(b);
    // Round-trip: a fresh checkout may reuse capacity, but only after the
    // previous owner checked it back in.
    let c = Matrix::zeros(6, 5);
    assert_eq!(c.shape(), (6, 5));
    assert!(
        c.as_slice().iter().all(|&x| x == 0.0),
        "checkout must be zeroed"
    );
}
