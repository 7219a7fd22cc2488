//! Register-tiled micro-kernels: the innermost `C += A·B` on packed panels.
//!
//! # Layout contract (shared by every variant)
//!
//! * `ap` is a packed A panel of `kc` steps, MR elements each:
//!   `ap[p*MR + i] = A(i, p)`.
//! * `bp` is a packed B panel of `kc` steps, NR elements each:
//!   `bp[p*NR + j] = B(p, j)`.
//! * `c` points at an MR×NR output tile with row stride `ldc` elements.
//!
//! # Determinism
//!
//! Every default kernel computes, for each tile element `(i, j)`, the
//! identical update chain
//!
//! ```text
//! c[i][j] = (((c[i][j] + a₀·b₀) + a₁·b₁) + …)   for p = 0..kc ascending
//! ```
//!
//! with one accumulator per element and a **separately rounded** multiply
//! and add. SIMD variants vectorize across output *columns* `j` (never
//! across `k`), so each lane holds exactly one element's accumulator and
//! rounds identically to the scalar kernel — scalar, AVX2, AVX-512, and
//! NEON all agree bitwise. The fused variants (`*_fma`, `FMA = true`) round
//! the multiply–add once; they are faster but *not* bitwise-compatible, and
//! are only reachable through the opt-in `PIPEFISHER_KERNEL=fma`.

/// `fn(kc, ap, bp, c, ldc)` — see the module docs for the layout contract.
///
/// # Safety
///
/// Callers must guarantee `ap` holds `kc*MR` elements, `bp` holds `kc*NR`
/// elements, `c` addresses a full MR×NR tile at row stride `ldc >= NR`, and
/// (for the SIMD variants) that the instruction set the kernel was compiled
/// for is available on the running CPU.
pub(crate) type MicroFn = unsafe fn(usize, *const f64, *const f64, *mut f64, usize);

/// `fn(coef, ldc, x, ldx, rows, width)` — in-block forward substitution,
/// the one kernel under both the Cholesky panel factorization and the
/// triangular inversion. For every column `j < width` and row `i < rows`
/// ascending, in place:
///
/// ```text
/// x[i][j] = (x[i][j] − Σ_{p<i} coef[i][p]·x[p][j]) / coef[i][i]
/// ```
///
/// with `p` ascending, one accumulator per element, and a **separately
/// rounded** multiply and subtract — the scalar substitution chain
/// `s = s - l·x`, bit for bit. Lanes run across *columns* of `x` only
/// ([`tri_sweep_body`] keeps a `W`-wide register tile per row), so the
/// vector width never touches a chain. There is deliberately no FMA
/// variant: the in-block factor kernels never trade the determinism
/// contract for fused rounding.
///
/// # Safety
///
/// `rows <= TRI_BLOCK`; `coef` must address `rows` rows of stride `ldc`
/// with `rows` readable columns each, `x` `rows` rows of stride `ldx` with
/// `width` columns each, and the two must not overlap; SIMD variants
/// additionally require their instruction set.
pub(crate) type TriSweepFn = unsafe fn(*const f64, usize, *mut f64, usize, usize, usize);

/// Most rows a [`TriSweepFn`] call may carry — the factorization block
/// size. Bounds the ragged-edge stack tile of [`tri_sweep_body`].
pub(crate) const TRI_BLOCK: usize = 64;

/// Tile height of the scalar / AVX2 / NEON kernels.
pub(crate) const MR4: usize = 4;
/// Tile width of the scalar / AVX2 / NEON kernels.
pub(crate) const NR8: usize = 8;
/// Tile height of the AVX-512 kernels.
pub(crate) const MR8: usize = 8;
/// Tile width of the AVX-512 kernels.
pub(crate) const NR16: usize = 16;

// ---------------------------------------------------------------- scalar

/// Portable fallback 4×8 kernel. The fixed-bound inner loops carry no
/// reduction across lanes, so LLVM autovectorizes them on whatever baseline
/// ISA the build targets without changing any element's accumulation chain.
pub(crate) unsafe fn micro_4x8_scalar(
    kc: usize,
    ap: *const f64,
    bp: *const f64,
    c: *mut f64,
    ldc: usize,
) {
    let mut acc = [[0.0f64; NR8]; MR4];
    for (i, row) in acc.iter_mut().enumerate() {
        for (j, v) in row.iter_mut().enumerate() {
            *v = *c.add(i * ldc + j);
        }
    }
    for p in 0..kc {
        let a = ap.add(p * MR4);
        let b = bp.add(p * NR8);
        for (i, row) in acc.iter_mut().enumerate() {
            let av = *a.add(i);
            for (j, v) in row.iter_mut().enumerate() {
                *v += av * *b.add(j);
            }
        }
    }
    for (i, row) in acc.iter().enumerate() {
        for (j, v) in row.iter().enumerate() {
            *c.add(i * ldc + j) = *v;
        }
    }
}

// ------------------------------------------------- triangular sweep

/// One `W`-column register tile of a [`TriSweepFn`] sweep: row `i`'s `W`
/// accumulators stay in registers across its whole `p` chain.
#[inline(always)]
unsafe fn tri_sweep_tile<const W: usize>(
    coef: *const f64,
    ldc: usize,
    x: *mut f64,
    ldx: usize,
    rows: usize,
) {
    for i in 0..rows {
        let xi = x.add(i * ldx);
        let ci = coef.add(i * ldc);
        let mut acc = [0.0f64; W];
        for (j, v) in acc.iter_mut().enumerate() {
            *v = *xi.add(j);
        }
        for p in 0..i {
            let m = *ci.add(p);
            let xp = x.add(p * ldx);
            for (j, v) in acc.iter_mut().enumerate() {
                *v -= m * *xp.add(j);
            }
        }
        let d = *ci.add(i);
        for (j, v) in acc.iter().enumerate() {
            *xi.add(j) = *v / d;
        }
    }
}

/// The [`TriSweepFn`] body, generic over the register-tile width. The
/// fixed-bound lane loops carry no cross-lane reduction, so LLVM vectorizes
/// them with whatever ISA the *enclosing* function enables — the per-ISA
/// entry points below are this body inlined under a `target_feature` — and
/// Rust never contracts `a - b·c` into a fused op, so every instantiation
/// rounds identically. A ragged last tile runs full-width on a zero-padded
/// stack copy (padded lanes are computed, never stored), like the GEMM
/// edge tiles.
#[inline(always)]
unsafe fn tri_sweep_body<const W: usize>(
    coef: *const f64,
    ldc: usize,
    x: *mut f64,
    ldx: usize,
    rows: usize,
    width: usize,
) {
    debug_assert!(rows <= TRI_BLOCK);
    let mut j = 0;
    while j + W <= width {
        tri_sweep_tile::<W>(coef, ldc, x.add(j), ldx, rows);
        j += W;
    }
    if j < width {
        let w = width - j;
        let mut tile = [[0.0f64; W]; TRI_BLOCK];
        for (i, row) in tile.iter_mut().take(rows).enumerate() {
            for (c, v) in row.iter_mut().take(w).enumerate() {
                *v = *x.add(i * ldx + j + c);
            }
        }
        tri_sweep_tile::<W>(coef, ldc, tile.as_mut_ptr().cast(), W, rows);
        for (i, row) in tile.iter().take(rows).enumerate() {
            for (c, v) in row.iter().take(w).enumerate() {
                *x.add(i * ldx + j + c) = *v;
            }
        }
    }
}

/// Portable [`TriSweepFn`]: 8-wide tiles on the build's baseline ISA (on
/// aarch64 that baseline already is NEON).
pub(crate) unsafe fn tri_sweep_scalar(
    coef: *const f64,
    ldc: usize,
    x: *mut f64,
    ldx: usize,
    rows: usize,
    width: usize,
) {
    tri_sweep_body::<8>(coef, ldc, x, ldx, rows, width)
}

/// AVX2 [`TriSweepFn`]: 16-wide tiles (four 4-lane accumulators).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn tri_sweep_avx2(
    coef: *const f64,
    ldc: usize,
    x: *mut f64,
    ldx: usize,
    rows: usize,
    width: usize,
) {
    tri_sweep_body::<16>(coef, ldc, x, ldx, rows, width)
}

/// AVX-512F [`TriSweepFn`]: 32-wide tiles (four 8-lane accumulators).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
pub(crate) unsafe fn tri_sweep_avx512(
    coef: *const f64,
    ldc: usize,
    x: *mut f64,
    ldx: usize,
    rows: usize,
    width: usize,
) {
    tri_sweep_body::<32>(coef, ldc, x, ldx, rows, width)
}

// ----------------------------------------------------------------- AVX2

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{MR4, NR8};
    use core::arch::x86_64::*;

    /// 4×8 AVX2 kernel. With `FMA = false`, separate multiply + add
    /// (bitwise == scalar); with `FMA = true`, fused rounding (the opt-in
    /// fast path). The AVX2 tier requires the `fma` extension either way.
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn micro_4x8<const FMA: bool>(
        kc: usize,
        ap: *const f64,
        bp: *const f64,
        c: *mut f64,
        ldc: usize,
    ) {
        let mut acc = [[_mm256_setzero_pd(); 2]; MR4];
        for (i, row) in acc.iter_mut().enumerate() {
            row[0] = _mm256_loadu_pd(c.add(i * ldc));
            row[1] = _mm256_loadu_pd(c.add(i * ldc + 4));
        }
        for p in 0..kc {
            let b0 = _mm256_loadu_pd(bp.add(p * NR8));
            let b1 = _mm256_loadu_pd(bp.add(p * NR8 + 4));
            let a = ap.add(p * MR4);
            for (i, row) in acc.iter_mut().enumerate() {
                let av = _mm256_set1_pd(*a.add(i));
                if FMA {
                    row[0] = _mm256_fmadd_pd(av, b0, row[0]);
                    row[1] = _mm256_fmadd_pd(av, b1, row[1]);
                } else {
                    row[0] = _mm256_add_pd(row[0], _mm256_mul_pd(av, b0));
                    row[1] = _mm256_add_pd(row[1], _mm256_mul_pd(av, b1));
                }
            }
        }
        for (i, row) in acc.iter().enumerate() {
            _mm256_storeu_pd(c.add(i * ldc), row[0]);
            _mm256_storeu_pd(c.add(i * ldc + 4), row[1]);
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) use avx2::micro_4x8 as micro_4x8_avx2;

// --------------------------------------------------------------- AVX-512

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{MR8, NR16};
    use core::arch::x86_64::*;

    /// 8×16 AVX-512F kernel. With `FMA = false`, separate multiply + add
    /// (bitwise == scalar); with `FMA = true`, fused rounding (the opt-in
    /// fast path) — `avx512f` includes the 512-bit FMA forms. 16 zmm
    /// accumulators + 2 B vectors leave broadcasts to the load ports.
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn micro_8x16<const FMA: bool>(
        kc: usize,
        ap: *const f64,
        bp: *const f64,
        c: *mut f64,
        ldc: usize,
    ) {
        let mut acc = [[_mm512_setzero_pd(); 2]; MR8];
        for (i, row) in acc.iter_mut().enumerate() {
            row[0] = _mm512_loadu_pd(c.add(i * ldc));
            row[1] = _mm512_loadu_pd(c.add(i * ldc + 8));
        }
        for p in 0..kc {
            let b0 = _mm512_loadu_pd(bp.add(p * NR16));
            let b1 = _mm512_loadu_pd(bp.add(p * NR16 + 8));
            let a = ap.add(p * MR8);
            for (i, row) in acc.iter_mut().enumerate() {
                let av = _mm512_set1_pd(*a.add(i));
                if FMA {
                    row[0] = _mm512_fmadd_pd(av, b0, row[0]);
                    row[1] = _mm512_fmadd_pd(av, b1, row[1]);
                } else {
                    row[0] = _mm512_add_pd(row[0], _mm512_mul_pd(av, b0));
                    row[1] = _mm512_add_pd(row[1], _mm512_mul_pd(av, b1));
                }
            }
        }
        for (i, row) in acc.iter().enumerate() {
            _mm512_storeu_pd(c.add(i * ldc), row[0]);
            _mm512_storeu_pd(c.add(i * ldc + 8), row[1]);
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) use avx512::micro_8x16 as micro_8x16_avx512;

// ------------------------------------------------------------------ NEON

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::{MR4, NR8};
    use core::arch::aarch64::*;

    /// 4×8 NEON kernel, separate multiply + add (bitwise == scalar).
    #[target_feature(enable = "neon")]
    pub(crate) unsafe fn micro_4x8(
        kc: usize,
        ap: *const f64,
        bp: *const f64,
        c: *mut f64,
        ldc: usize,
    ) {
        let mut acc = [[vdupq_n_f64(0.0); 4]; MR4];
        for (i, row) in acc.iter_mut().enumerate() {
            for (h, v) in row.iter_mut().enumerate() {
                *v = vld1q_f64(c.add(i * ldc + 2 * h));
            }
        }
        for p in 0..kc {
            let mut b = [vdupq_n_f64(0.0); 4];
            for (h, v) in b.iter_mut().enumerate() {
                *v = vld1q_f64(bp.add(p * NR8 + 2 * h));
            }
            let a = ap.add(p * MR4);
            for (i, row) in acc.iter_mut().enumerate() {
                let av = vdupq_n_f64(*a.add(i));
                for (h, v) in row.iter_mut().enumerate() {
                    *v = vaddq_f64(*v, vmulq_f64(av, b[h]));
                }
            }
        }
        for (i, row) in acc.iter().enumerate() {
            for (h, v) in row.iter().enumerate() {
                vst1q_f64(c.add(i * ldc + 2 * h), *v);
            }
        }
    }

    /// 4×8 NEON FMA kernel (fused rounding — opt-in fast path).
    #[target_feature(enable = "neon")]
    pub(crate) unsafe fn micro_4x8_fma(
        kc: usize,
        ap: *const f64,
        bp: *const f64,
        c: *mut f64,
        ldc: usize,
    ) {
        let mut acc = [[vdupq_n_f64(0.0); 4]; MR4];
        for (i, row) in acc.iter_mut().enumerate() {
            for (h, v) in row.iter_mut().enumerate() {
                *v = vld1q_f64(c.add(i * ldc + 2 * h));
            }
        }
        for p in 0..kc {
            let mut b = [vdupq_n_f64(0.0); 4];
            for (h, v) in b.iter_mut().enumerate() {
                *v = vld1q_f64(bp.add(p * NR8 + 2 * h));
            }
            let a = ap.add(p * MR4);
            for (i, row) in acc.iter_mut().enumerate() {
                let av = vdupq_n_f64(*a.add(i));
                for (h, v) in row.iter_mut().enumerate() {
                    *v = vfmaq_f64(*v, av, b[h]);
                }
            }
        }
        for (i, row) in acc.iter().enumerate() {
            for (h, v) in row.iter().enumerate() {
                vst1q_f64(c.add(i * ldc + 2 * h), *v);
            }
        }
    }
}

#[cfg(target_arch = "aarch64")]
pub(crate) use neon::{micro_4x8 as micro_4x8_neon, micro_4x8_fma as micro_4x8_neon_fma};
