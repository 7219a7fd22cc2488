//! Dispatch contract for the register-tiled GEMM engine: the runtime-
//! selected SIMD micro-kernel is **bitwise** identical to the portable
//! scalar fallback for every GEMM flavour, across random shapes (including
//! degenerate 0-dims, sub-tile sizes, and non-multiples of MR/NR) and
//! poisoned `_into` destinations; both kinds and the scalar oracles round
//! each multiply-add once — plus unit coverage for `PIPEFISHER_KERNEL`
//! parsing and the `set_kernel` clamp.
//!
//! The kernel override is process-wide, so tests that touch it hold the
//! shared settings lock and restore the auto default on drop (same idiom
//! as `into_equivalence.rs`).

use std::sync::{Mutex, MutexGuard, OnceLock};

use pipefisher_tensor::kernel::{self, parse_kernel_request, KernelKind};
use pipefisher_tensor::{cholesky_into, reference, ActivationKind, Matrix};
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

/// Shapes biased at tile boundaries: below one 4×8/8×16 tile, exact
/// multiples, straddling, and zero.
fn dim() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        1usize..8,
        Just(8usize),
        Just(16usize),
        9usize..40,
    ]
}

fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (dim(), dim(), dim())
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

/// Runs `compute` under the forced scalar kernel, then under the
/// dispatched SIMD default, and asserts both results are bitwise
/// identical. The destination is poisoned (wrong shape, NaN-filled) before
/// each call.
fn check_dispatch(label: &str, compute: impl Fn(&mut Matrix)) {
    let _guard = SettingsGuard::acquire();
    let [want, got] = [KernelKind::Scalar, KernelKind::Simd].map(|kind| {
        kernel::set_kernel(Some(kind));
        let mut out = Matrix::full(3, 7, f64::NAN);
        compute(&mut out);
        out
    });
    assert_bitwise_eq(label, &want, &got);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matmul_scalar_simd_agree((m, k, n) in dims()) {
        let mut rng = StdRng::seed_from_u64((m * 1_000_003 + k * 1009 + n) as u64);
        let a = random_matrix(m, k, &mut rng);
        let b = random_matrix(k, n, &mut rng);
        check_dispatch("matmul", |out| a.matmul_into(&b, out));
    }

    #[test]
    fn matmul_tn_scalar_simd_agree((m, k, n) in dims()) {
        let mut rng = StdRng::seed_from_u64((m * 7919 + k * 104_729 + n) as u64);
        let a = random_matrix(k, m, &mut rng);
        let b = random_matrix(k, n, &mut rng);
        check_dispatch("matmul_tn", |out| a.matmul_tn_into(&b, out));
    }

    #[test]
    fn matmul_nt_scalar_simd_agree((m, k, n) in dims()) {
        let mut rng = StdRng::seed_from_u64((m * 31 + k * 131_071 + n) as u64);
        let a = random_matrix(m, k, &mut rng);
        let b = random_matrix(n, k, &mut rng);
        check_dispatch("matmul_nt", |out| a.matmul_nt_into(&b, out));
    }

    #[test]
    fn gram_scalar_simd_agree((k, m, _unused) in dims()) {
        let mut rng = StdRng::seed_from_u64((k * 611_953 + m) as u64);
        let u = random_matrix(k, m, &mut rng);
        check_dispatch("gram", |out| u.gram_into(out));
    }
}

/// Shapes that cross the MC=128 / KC=256 / NC=512 cache-block edges, so
/// the multi-block accumulation path (C round-tripped through memory
/// between KC blocks) is covered, not just single-panel tiles.
#[test]
fn cache_block_edges_scalar_simd_agree() {
    let mut rng = StdRng::seed_from_u64(0xB10C);
    for &(m, k, n) in &[
        (130, 5, 9),   // m crosses MC
        (13, 300, 17), // k crosses KC: two packed panel rounds per tile
        (9, 7, 520),   // n crosses NC
        (136, 260, 24),
    ] {
        let a = random_matrix(m, k, &mut rng);
        let b = random_matrix(k, n, &mut rng);
        check_dispatch("matmul cache edge", |out| a.matmul_into(&b, out));
    }
}

#[test]
fn kernel_request_parsing() {
    assert_eq!(parse_kernel_request("scalar"), Ok(KernelKind::Scalar));
    assert_eq!(parse_kernel_request("simd"), Ok(KernelKind::Simd));
    assert_eq!(parse_kernel_request("auto"), Ok(KernelKind::Simd));
    assert_eq!(parse_kernel_request(""), Ok(KernelKind::Simd));
    // Case-insensitive and whitespace-tolerant.
    assert_eq!(parse_kernel_request(" SIMD \n"), Ok(KernelKind::Simd));
    // Garbage is an error (the env path warns and falls back to auto).
    assert!(parse_kernel_request("avx2").is_err());
    assert!(parse_kernel_request("fma").is_err());
    assert!(parse_kernel_request("fast").is_err());
    assert!(parse_kernel_request("scalar simd").is_err());
}

#[test]
fn set_kernel_clamps_to_availability() {
    let _guard = SettingsGuard::acquire();
    kernel::set_kernel(Some(KernelKind::Scalar));
    assert_eq!(kernel::kernel_kind(), KernelKind::Scalar);
    kernel::set_kernel(Some(KernelKind::Simd));
    if kernel::simd_name() != "none" {
        assert_eq!(kernel::kernel_kind(), KernelKind::Simd);
    } else {
        assert_eq!(kernel::kernel_kind(), KernelKind::Scalar);
    }
}

/// `α·β = 1 − 2⁻⁶⁰` exactly, which rounds to `1.0` on its own, so a chain
/// that rounds its multiply apart from its add loses what the fused one
/// keeps: `fma(α, β, −1) = −2⁻⁶⁰`, but `(α·β) − 1 = 0`.
const ALPHA: f64 = 1.0 + 1.0 / (1u64 << 30) as f64;
const BETA: f64 = 1.0 - 1.0 / (1u64 << 30) as f64;

/// Every kind's GEMM and Cholesky, and the scalar oracles, return the fused
/// value on inputs where the unfused chain differs: a tier that stopped
/// fusing would fail here even though it would still agree with itself.
#[test]
fn every_kind_and_the_reference_round_once() {
    let _guard = SettingsGuard::acquire();
    let tiny = 1.0 / (1u64 << 60) as f64;
    assert_eq!(ALPHA * BETA - 1.0, 0.0, "the unfused chain must differ");
    // (−1)·1 + α·β from +0.0: −2⁻⁶⁰ fused, 0 unfused.
    let a = Matrix::from_rows(&[&[-1.0, ALPHA]]);
    let b = Matrix::from_rows(&[&[1.0], &[BETA]]);
    // L₁₀ = α, so d = (1 + 2⁻²⁹ + 2⁻⁴⁰) − α² is 2⁻⁴⁰ − 2⁻⁶⁰ fused and
    // 2⁻⁴⁰ unfused, and L₁₁ = √d tells them apart.
    let a11 = 1.0 + 1.0 / (1u64 << 29) as f64 + 1.0 / (1u64 << 40) as f64;
    let spd = Matrix::from_rows(&[&[1.0, ALPHA], &[ALPHA, a11]]);
    let l11 = (-ALPHA).mul_add(ALPHA, a11).sqrt();
    assert_ne!(l11, (a11 - ALPHA * ALPHA).sqrt());
    let mut l = Matrix::zeros(1, 1);
    reference::cholesky_into(&spd, &mut l).unwrap();
    let product = reference::matmul(&a, &b)[(0, 0)];
    assert_eq!(product, -tiny, "reference::matmul");
    assert_eq!(l[(1, 1)], l11, "reference::cholesky_into");
    for kind in [KernelKind::Scalar, KernelKind::Simd] {
        kernel::set_kernel(Some(kind));
        assert_eq!(a.matmul(&b)[(0, 0)], -tiny, "{kind:?} matmul");
        cholesky_into(&spd, &mut l).unwrap();
        assert_eq!(l[(1, 1)], l11, "{kind:?} cholesky_into");
    }
}

/// The activation row kernels: the forced-scalar (portable) body and the
/// dispatched SIMD one agree bitwise on every slice length through two
/// 16-wide chunks and a tail, with the derivative buffer poisoned.
#[test]
fn activation_row_kernels_scalar_simd_agree() {
    let _guard = SettingsGuard::acquire();
    let mut rng = StdRng::seed_from_u64(0xAC7);
    let xs: Vec<f64> = collection::vec(-25.0f64..25.0, 4096).generate(&mut rng);
    for act in [ActivationKind::Gelu, ActivationKind::Tanh] {
        for len in (0..=40).chain([4096]) {
            // Row 0 is the activation, row 1 its derivative.
            let run = |kind| {
                kernel::set_kernel(Some(kind));
                let mut out = Matrix::from_vec(2, len, [&xs[..len], &vec![f64::NAN; len]].concat());
                let (v, d) = out.as_mut_slice().split_at_mut(len);
                act.apply(v, d);
                out
            };
            let (want, got) = (run(KernelKind::Scalar), run(KernelKind::Simd));
            assert_bitwise_eq(&format!("{act:?} over {len}"), &want, &got);
        }
    }
}
