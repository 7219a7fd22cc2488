//! Register-tiled micro-kernels: the innermost `C ± A·B` on one MR×NR
//! output tile.
//!
//! # Operand contract (shared by every variant)
//!
//! * `a` reads `A(i, p) = a.ptr[i·a.row + p·a.step]`: a row-major operand
//!   in place is `(lda, 1)`, a column-major one `(1, lda)`, and a packed
//!   panel `(1, MR)`.
//! * `b` reads `B(p, j) = b.ptr[p·b.step + j]`: a row-major operand in
//!   place is `ldb`, a packed panel `NR`.
//! * `c` points at an MR×NR output tile with row stride `ldc` elements.
//!
//! # Determinism
//!
//! Every kernel computes, for each tile element `(i, j)`, the identical
//! update chain
//!
//! ```text
//! c[i][j] = fma(±a_{kc−1}, b_{kc−1}, … fma(±a₁, b₁, fma(±a₀, b₀, c[i][j])))
//! ```
//!
//! for `p = 0..kc` ascending, with one accumulator per element and one
//! **fused** multiply-add (a single rounding) per step; the `NEG`
//! instances negate `a`, which is exact, so each step is the fused
//! multiply-subtract `c − a·b` rounded once. SIMD variants vectorize
//! across output *columns* `j` (never across `k`), so each lane holds
//! exactly one element's accumulator and rounds identically to the
//! portable kernel's `f64::mul_add` — portable, AVX2, AVX-512 and NEON all
//! agree bitwise, and where an operand lies (in place or packed) is only
//! an address.

/// Where a micro-kernel reads A: `A(i, p) = ptr[i·row + p·step]`.
#[derive(Clone, Copy)]
pub(crate) struct AView {
    pub ptr: *const f64,
    pub row: usize,
    pub step: usize,
}

/// Where a micro-kernel reads B: `B(p, j) = ptr[p·step + j]`.
#[derive(Clone, Copy)]
pub(crate) struct BView {
    pub ptr: *const f64,
    pub step: usize,
}

/// `fn(kc, a, b, c, ldc, overwrite)` — see the module docs for the
/// operand contract; a kernel's `NEG` instance subtracts. With
/// `overwrite`, the accumulators start at `+0.0` instead of loading `c`
/// (which may then hold anything): the chain is the same, since
/// `fma(a, b, +0.0)` does not care where the `+0.0` came from.
///
/// # Safety
///
/// Callers must guarantee `a` and `b` address `A(i, p)`, `B(p, j)` for
/// every `i < MR`, `j < NR`, `p < kc`, `c` a full MR×NR tile at row stride
/// `ldc >= NR` that overlaps neither, and that the instruction set the
/// kernel was compiled for is available on the running CPU.
pub(crate) type MicroFn = unsafe fn(usize, AView, BView, *mut f64, usize, bool);

/// `fn(coef, ldc, x, ldx, rows, width)` — in-block forward substitution,
/// the one kernel under both the Cholesky panel factorization and the
/// triangular inversion. For every column `j < width` and row `i < rows`
/// ascending, in place:
///
/// ```text
/// x[i][j] = (x[i][j] − Σ_{p<i} coef[i][p]·x[p][j]) / coef[i][i]
/// ```
///
/// with `p` ascending, one accumulator per element, and each step the
/// fused `s = fma(−coef[i][p], x[p][j], s)` — the scalar substitution
/// chain `s − l·x` rounded once, bit for bit. Lanes run across *columns*
/// of `x` only ([`tri_sweep_body`] keeps a `W`-wide register tile per
/// row), so the vector width never touches a chain.
///
/// # Safety
///
/// `rows <= TRI_BLOCK`; `coef` must address `rows` rows of stride `ldc`
/// with `rows` readable columns each, `x` `rows` rows of stride `ldx` with
/// `width` columns each, and the two must not overlap; the kernel's
/// instruction set must be available.
pub(crate) type TriSweepFn = unsafe fn(*const f64, usize, *mut f64, usize, usize, usize);

/// Most rows a [`TriSweepFn`] call may carry — the factorization block
/// size. Bounds the ragged-edge stack tile of [`tri_sweep_body`].
pub(crate) const TRI_BLOCK: usize = 64;

/// Tile height of the portable / AVX2 / NEON kernels.
pub(crate) const MR4: usize = 4;
/// Tile width of the portable / AVX2 / NEON kernels.
pub(crate) const NR8: usize = 8;
/// Tile height of the AVX-512 kernel.
pub(crate) const MR8: usize = 8;
/// Tile width of the AVX-512 kernel.
pub(crate) const NR16: usize = 16;

// -------------------------------------------------------------- portable

/// Portable 4×8 [`MicroFn`], compiled with FMA where the CPU has it
/// ([`super::with_fma`]; on the x86-64 baseline each `mul_add` would be a
/// libm call). The fixed-bound inner loops carry no reduction across
/// lanes, so LLVM vectorizes them without changing any element's chain.
pub(crate) unsafe fn micro_4x8_portable<const NEG: bool>(
    kc: usize,
    a: AView,
    b: BView,
    c: *mut f64,
    ldc: usize,
    overwrite: bool,
) {
    super::with_fma(move || {
        let mut acc = [[0.0f64; NR8]; MR4];
        if !overwrite {
            for (i, row) in acc.iter_mut().enumerate() {
                for (j, v) in row.iter_mut().enumerate() {
                    *v = *c.add(i * ldc + j);
                }
            }
        }
        for p in 0..kc {
            let ap = a.ptr.add(p * a.step);
            // B's step as one array load: element loads through the
            // runtime stride kept LLVM from vectorizing the tile (~4
            // against ~20 GFLOP/s).
            let bv = b.ptr.add(p * b.step).cast::<[f64; NR8]>().read_unaligned();
            for (i, row) in acc.iter_mut().enumerate() {
                let av = *ap.add(i * a.row);
                let av = if NEG { -av } else { av };
                for (v, bj) in row.iter_mut().zip(bv) {
                    *v = av.mul_add(bj, *v);
                }
            }
        }
        for (i, row) in acc.iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                *c.add(i * ldc + j) = *v;
            }
        }
    })
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
            let m = -*ci.add(p);
            let xp = x.add(p * ldx);
            for (j, v) in acc.iter_mut().enumerate() {
                *v = m.mul_add(*xp.add(j), *v);
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
/// entry points below are this body inlined under a `target_feature` —
/// and every instantiation rounds identically, one `mul_add` per step. A
/// ragged last tile runs full-width on a zero-padded stack copy (padded
/// lanes are computed, never stored), like the GEMM edge tiles.
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

/// Portable [`TriSweepFn`]: 8-wide tiles, compiled with FMA where the CPU
/// has it (on aarch64 the baseline already is NEON with FMA).
pub(crate) unsafe fn tri_sweep_portable(
    coef: *const f64,
    ldc: usize,
    x: *mut f64,
    ldx: usize,
    rows: usize,
    width: usize,
) {
    super::with_fma(|| tri_sweep_body::<8>(coef, ldc, x, ldx, rows, width))
}

/// AVX2 [`TriSweepFn`]: 16-wide tiles (four 4-lane accumulators).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
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
#[target_feature(enable = "avx512f,fma")]
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

/// 4×8 AVX2 + FMA kernel.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn micro_4x8_avx2<const NEG: bool>(
    kc: usize,
    a: AView,
    b: BView,
    c: *mut f64,
    ldc: usize,
    overwrite: bool,
) {
    use core::arch::x86_64::*;
    let mut acc = [[_mm256_setzero_pd(); 2]; MR4];
    if !overwrite {
        for (i, row) in acc.iter_mut().enumerate() {
            row[0] = _mm256_loadu_pd(c.add(i * ldc));
            row[1] = _mm256_loadu_pd(c.add(i * ldc + 4));
        }
    }
    for p in 0..kc {
        let bp = b.ptr.add(p * b.step);
        let (b0, b1) = (_mm256_loadu_pd(bp), _mm256_loadu_pd(bp.add(4)));
        let ap = a.ptr.add(p * a.step);
        for (i, row) in acc.iter_mut().enumerate() {
            let av = _mm256_set1_pd(*ap.add(i * a.row));
            if NEG {
                row[0] = _mm256_fnmadd_pd(av, b0, row[0]);
                row[1] = _mm256_fnmadd_pd(av, b1, row[1]);
            } else {
                row[0] = _mm256_fmadd_pd(av, b0, row[0]);
                row[1] = _mm256_fmadd_pd(av, b1, row[1]);
            }
        }
    }
    for (i, row) in acc.iter().enumerate() {
        _mm256_storeu_pd(c.add(i * ldc), row[0]);
        _mm256_storeu_pd(c.add(i * ldc + 4), row[1]);
    }
}

// --------------------------------------------------------------- AVX-512

/// 8×16 AVX-512F kernel. 16 zmm accumulators + 2 B vectors leave
/// broadcasts to the load ports.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
pub(crate) unsafe fn micro_8x16_avx512<const NEG: bool>(
    kc: usize,
    a: AView,
    b: BView,
    c: *mut f64,
    ldc: usize,
    overwrite: bool,
) {
    use core::arch::x86_64::*;
    let mut acc = [[_mm512_setzero_pd(); 2]; MR8];
    if !overwrite {
        for (i, row) in acc.iter_mut().enumerate() {
            row[0] = _mm512_loadu_pd(c.add(i * ldc));
            row[1] = _mm512_loadu_pd(c.add(i * ldc + 8));
        }
    }
    for p in 0..kc {
        let bp = b.ptr.add(p * b.step);
        let (b0, b1) = (_mm512_loadu_pd(bp), _mm512_loadu_pd(bp.add(8)));
        let ap = a.ptr.add(p * a.step);
        for (i, row) in acc.iter_mut().enumerate() {
            let av = _mm512_set1_pd(*ap.add(i * a.row));
            if NEG {
                row[0] = _mm512_fnmadd_pd(av, b0, row[0]);
                row[1] = _mm512_fnmadd_pd(av, b1, row[1]);
            } else {
                row[0] = _mm512_fmadd_pd(av, b0, row[0]);
                row[1] = _mm512_fmadd_pd(av, b1, row[1]);
            }
        }
    }
    for (i, row) in acc.iter().enumerate() {
        _mm512_storeu_pd(c.add(i * ldc), row[0]);
        _mm512_storeu_pd(c.add(i * ldc + 8), row[1]);
    }
}

// ------------------------------------------------------------------ NEON

/// 4×8 NEON kernel (`vfmaq_f64`, `vfmsq_f64`).
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
pub(crate) unsafe fn micro_4x8_neon<const NEG: bool>(
    kc: usize,
    a: AView,
    b: BView,
    c: *mut f64,
    ldc: usize,
    overwrite: bool,
) {
    use core::arch::aarch64::*;
    let mut acc = [[vdupq_n_f64(0.0); 4]; MR4];
    if !overwrite {
        for (i, row) in acc.iter_mut().enumerate() {
            for (h, v) in row.iter_mut().enumerate() {
                *v = vld1q_f64(c.add(i * ldc + 2 * h));
            }
        }
    }
    for p in 0..kc {
        let bp = b.ptr.add(p * b.step);
        let mut bv = [vdupq_n_f64(0.0); 4];
        for (h, v) in bv.iter_mut().enumerate() {
            *v = vld1q_f64(bp.add(2 * h));
        }
        let ap = a.ptr.add(p * a.step);
        for (i, row) in acc.iter_mut().enumerate() {
            let av = vdupq_n_f64(*ap.add(i * a.row));
            for (h, v) in row.iter_mut().enumerate() {
                *v = if NEG {
                    vfmsq_f64(*v, av, bv[h])
                } else {
                    vfmaq_f64(*v, av, bv[h])
                };
            }
        }
    }
    for (i, row) in acc.iter().enumerate() {
        for (h, v) in row.iter().enumerate() {
            vst1q_f64(c.add(i * ldc + 2 * h), *v);
        }
    }
}
