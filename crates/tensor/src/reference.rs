//! Scalar reference implementations — the oracles the tests, property
//! checks and `bench_factor`'s baseline column compare the packed engine
//! against. Plain element-at-a-time loops with the per-element accumulation
//! chains the engine's determinism contract promises — one `mul_add` per
//! step — compiled with FMA where the CPU has it; nothing in the training
//! path calls them.

use crate::cholesky::check_inverse_diagonal;
use crate::kernel;
use crate::{CholeskyError, Matrix, TensorError};

/// Triple-loop reference GEMM used to validate the blocked kernels in tests
/// and property checks.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "reference::matmul: inner dims");
    let mut out = Matrix::zeros(a.rows(), b.cols());
    kernel::with_fma(|| {
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for p in 0..a.cols() {
                    acc = a[(i, p)].mul_add(b[(p, j)], acc);
                }
                out[(i, j)] = acc;
            }
        }
    });
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
    kernel::with_fma(|| {
        for j in 0..n {
            // Diagonal entry.
            let mut d = src[j * n + j];
            for p in 0..j {
                d = (-l[j * n + p]).mul_add(l[j * n + p], d);
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
                    s = (-l[i * n + p]).mul_add(l[j * n + p], s);
                }
                l[i * n + j] = s / dj;
            }
        }
        Ok(())
    })
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
    out.reset_shape(n, n);
    let x = out.as_mut_slice();
    kernel::with_fma(|| {
        for i in 0..n {
            for j in 0..=i {
                let mut s = if i == j { 1.0 } else { 0.0 };
                for p in j..i {
                    s = (-l[i * n + p]).mul_add(y[p * n + j], s);
                }
                y[i * n + j] = s / l[i * n + i];
            }
        }
        for i in 0..n {
            for j in 0..=i {
                let mut s = 0.0;
                for k in i..n {
                    s = y[k * n + i].mul_add(y[k * n + j], s);
                }
                x[i * n + j] = s;
                x[j * n + i] = s;
            }
        }
    });
    check_inverse_diagonal(x, n)
}

/// fdlibm's `s_tanh.c` over glibc's FMA build of `expm1`
/// (`__expm1_fma`), transcribed literally — branches, high-word tests and
/// all — as the bitwise oracle of [`crate::tanh`] and its vectorized row
/// kernels.
pub fn tanh(x: f64) -> f64 {
    let jx = (x.to_bits() >> 32) as u32;
    let ix = jx & 0x7fff_ffff;
    let neg = jx >> 31 == 1;
    if ix >= 0x7ff0_0000 {
        return if neg { 1.0 / x - 1.0 } else { 1.0 / x + 1.0 };
    }
    let z = if ix >= 0x4036_0000 {
        1.0 - 1e-300
    } else if x == 0.0 {
        return x;
    } else if ix < 0x3c80_0000 {
        return x * (1.0 + x);
    } else if ix >= 0x3ff0_0000 {
        1.0 - 2.0 / (expm1(2.0 * x.abs()) + 2.0)
    } else {
        let t = expm1(-2.0 * x.abs());
        -t / (t + 2.0)
    };
    if neg {
        -z
    } else {
        z
    }
}

/// `__expm1_fma` on the arguments [`tanh`] passes, `|a| < 44`: fdlibm's
/// `s_expm1.c` with the fused multiply-adds of glibc's FMA build. (Its
/// overflow, `|a| < 2⁻⁵⁴` and `k = 1` branches are never reached.)
#[allow(clippy::excessive_precision, clippy::approx_constant)]
fn expm1(a: f64) -> f64 {
    // fdlibm's decimal spellings: an independent check of the bit
    // patterns `crate::tanh` spells in hex.
    const Q1: f64 = -3.333_333_333_333_313_164_28e-2;
    const Q2: f64 = 1.587_301_587_254_814_601_65e-3;
    const Q3: f64 = -7.936_507_578_674_879_424_73e-5;
    const Q4: f64 = 4.008_217_827_329_362_395_52e-6;
    const Q5: f64 = -2.010_992_181_836_243_713_26e-7;
    const LN2_HI: f64 = 6.931_471_803_691_238_164_90e-1;
    const LN2_LO: f64 = 1.908_214_929_270_587_700_02e-10;
    const INVLN2: f64 = 1.442_695_040_888_963_387_00;
    let hx = (a.to_bits() >> 32) as u32 & 0x7fff_ffff;
    let (x, c, k) = if hx > 0x3fd6_2e42 {
        let (hi, lo, k) = if hx < 0x3ff0_a2b2 {
            assert!(a < 0.0, "expm1: k = 1 is outside tanh's domain");
            (a + LN2_HI, -LN2_LO, -1)
        } else {
            let k = (INVLN2 * a + if a < 0.0 { -0.5 } else { 0.5 }) as i32;
            let t = f64::from(k);
            ((-t).mul_add(LN2_HI, a), t * LN2_LO, k)
        };
        let x = hi - lo;
        (x, (hi - x) - lo, k)
    } else {
        (a, 0.0, 0)
    };
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = Q1.mul_add(hxs, 1.0);
    let h2 = hxs * hxs;
    let r2 = hxs.mul_add(Q3, Q2);
    let h4 = h2 * h2;
    let r3 = hxs.mul_add(Q5, Q4);
    let r1 = h4.mul_add(r3, h2.mul_add(r2, r1));
    let t = (-r1).mul_add(hfx, 3.0);
    let e = hxs * ((r1 - t) / (-x).mul_add(t, 6.0));
    if k == 0 {
        return x - x.mul_add(e, -hxs);
    }
    let e = x.mul_add(e - c, -c) - hxs;
    if k == -1 {
        return 0.5f64.mul_add(x - e, -0.5);
    }
    // Adding k to the exponent of a positive normal y is y·2^k.
    let two_k = f64::from_bits(((0x3ff + k) as u64) << 52);
    if k <= -2 || k > 56 {
        return (1.0 - (e - x)) * two_k - 1.0;
    }
    let two_minus_k = f64::from_bits(((0x3ff - k) as u64) << 52);
    if k < 20 {
        ((1.0 - two_minus_k) - (e - x)) * two_k
    } else {
        ((x - (e + two_minus_k)) + 1.0) * two_k
    }
}
