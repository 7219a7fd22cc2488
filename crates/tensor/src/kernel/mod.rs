//! Runtime-dispatched, register-tiled GEMM engine.
//!
//! Every GEMM flavour in this crate (`matmul`, `matmul_tn`, `matmul_nt`,
//! `gram`, `matvec`) funnels into one cache-blocked macro-kernel: operand
//! blocks are packed into contiguous, zero-padded panels
//! ([`pack`] — drawn from the [`crate::workspace`] arena, so the steady
//! state allocates nothing), and an MR×NR register-tiled micro-kernel
//! ([`micro`]) does all the arithmetic. The micro-kernel implementation is
//! selected **once** per process by runtime CPU detection:
//!
//! * x86_64 — AVX-512F (8×16 tile) when available, else AVX2 (4×8),
//! * aarch64 — NEON (4×8),
//! * anywhere else, or on request — a portable scalar 4×8 kernel.
//!
//! # Dispatch and the `PIPEFISHER_KERNEL` knob
//!
//! `PIPEFISHER_KERNEL=scalar` forces the portable kernel, `simd` the best
//! detected vector kernel (the default when unset), and `fma` an opt-in
//! fused-multiply-add variant. Anything else warns and falls back to auto.
//! [`set_kernel`] overrides the environment at runtime (tests, benches).
//!
//! # Determinism
//!
//! The default (`scalar`/`simd`) kernels are **bitwise identical** to each
//! other, to the pre-tiling serial loops, and across thread counts: SIMD
//! lanes run across output *columns*, so each output element keeps its own
//! single accumulator chain over `k` in ascending order, and multiply and
//! add round separately (never fused). Cache blocking round-trips partial
//! sums through memory, which is exact for `f64`. Only `fma` reassociates
//! rounding — it is never selected implicitly. See `micro` for the
//! per-kernel argument and `crates/tensor/tests/kernel_dispatch.rs` for the
//! property tests enforcing all of this.

mod micro;
mod pack;

use crate::workspace;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

pub(crate) use micro::TRI_BLOCK;
pub(crate) use pack::{ASrc, BSrc};

/// Rows of A packed per cache-block iteration (multiple of every MR).
const MC: usize = 128;
/// Depth (k extent) of one packed panel pair.
const KC: usize = 256;
/// Columns of B packed per cache-block iteration (multiple of every NR).
const NC: usize = 512;
/// Largest MR of any micro-kernel (the AVX-512 tile height).
const MAX_MR: usize = micro::MR8;
/// Largest NR of any micro-kernel (the AVX-512 tile width).
const MAX_NR: usize = micro::NR16;

/// Parallel row chunks should split on multiples of this so lanes never
/// share a micro-panel (the least common multiple of all kernel MRs).
pub const ROW_ALIGN: usize = 8;

/// Which micro-kernel family executes the GEMM hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Portable scalar tile kernel (the fallback, and the reference the
    /// SIMD kernels must match bitwise).
    Scalar,
    /// Best detected vector ISA with separate multiply + add — bitwise
    /// identical to `Scalar`.
    Simd,
    /// Best detected vector ISA with fused multiply-add. Faster, but each
    /// update rounds once instead of twice: **not** bitwise-compatible.
    Fma,
}

/// A parsed `PIPEFISHER_KERNEL` value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelRequest {
    /// Pick the best bitwise-default kernel for this machine.
    Auto,
    /// Force a specific family (clamped to what the CPU supports).
    Force(KernelKind),
}

/// Error for unrecognized `PIPEFISHER_KERNEL` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidKernelRequest;

impl std::fmt::Display for InvalidKernelRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "expected one of: auto, scalar, simd, fma")
    }
}

impl std::error::Error for InvalidKernelRequest {}

/// Parses a `PIPEFISHER_KERNEL` value (case-insensitive, trimmed).
/// The empty string and `auto` mean [`KernelRequest::Auto`].
pub fn parse_kernel_request(s: &str) -> Result<KernelRequest, InvalidKernelRequest> {
    match s.trim().to_ascii_lowercase().as_str() {
        "" | "auto" => Ok(KernelRequest::Auto),
        "scalar" => Ok(KernelRequest::Force(KernelKind::Scalar)),
        "simd" => Ok(KernelRequest::Force(KernelKind::Simd)),
        "fma" => Ok(KernelRequest::Force(KernelKind::Fma)),
        _ => Err(InvalidKernelRequest),
    }
}

/// The vector instruction set the dispatcher found at startup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    None,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
    #[cfg(target_arch = "aarch64")]
    Neon,
}

/// `(best vector ISA, fused multiply-add available)` — detected once.
fn isa() -> (Isa, bool) {
    static DETECTED: OnceLock<(Isa, bool)> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                // avx512f includes 512-bit FMA forms.
                return (Isa::Avx512, true);
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return (Isa::Avx2, std::arch::is_x86_feature_detected!("fma"));
            }
            (Isa::None, false)
        }
        #[cfg(target_arch = "aarch64")]
        {
            if std::arch::is_aarch64_feature_detected!("neon") {
                // NEON on aarch64 always carries vfmaq_f64.
                return (Isa::Neon, true);
            }
            (Isa::None, false)
        }
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        {
            (Isa::None, false)
        }
    })
}

/// Name of the detected vector ISA, for logs and bench artifacts:
/// `"avx512f"`, `"avx2"`, `"neon"`, or `"none"`.
pub fn simd_name() -> &'static str {
    match isa().0 {
        Isa::None => "none",
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => "avx2",
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => "avx512f",
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => "neon",
    }
}

/// Whether any SIMD micro-kernel is available on this CPU.
pub fn simd_available() -> bool {
    isa().0 != Isa::None
}

/// Clamps a requested kind to what the CPU supports: `Simd`/`Fma` without a
/// vector ISA fall back to `Scalar`; `Fma` without fused ops runs `Simd`.
fn clamp(kind: KernelKind) -> KernelKind {
    let (best, fma) = isa();
    match kind {
        KernelKind::Scalar => KernelKind::Scalar,
        _ if best == Isa::None => KernelKind::Scalar,
        KernelKind::Fma if fma => KernelKind::Fma,
        KernelKind::Fma => KernelKind::Simd,
        _ => KernelKind::Simd,
    }
}

/// Runtime override for [`kernel_kind`]; 0 = none, else kind + 1.
static KERNEL_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// The kind resolved from `PIPEFISHER_KERNEL` (parsed once).
fn env_kind() -> KernelKind {
    static FROM_ENV: OnceLock<KernelKind> = OnceLock::new();
    *FROM_ENV.get_or_init(|| {
        let requested = match std::env::var("PIPEFISHER_KERNEL") {
            Ok(v) => parse_kernel_request(&v).unwrap_or_else(|e| {
                eprintln!("warning: ignoring PIPEFISHER_KERNEL={v:?} ({e})");
                KernelRequest::Auto
            }),
            Err(_) => KernelRequest::Auto,
        };
        match requested {
            KernelRequest::Auto => clamp(KernelKind::Simd),
            KernelRequest::Force(kind) => clamp(kind),
        }
    })
}

/// The micro-kernel family currently in use.
///
/// Resolution order: [`set_kernel`] override, then the `PIPEFISHER_KERNEL`
/// environment variable, then auto (best available). The result is always
/// achievable on this CPU — forcing `simd` on a scalar-only host returns
/// `Scalar`.
pub fn kernel_kind() -> KernelKind {
    match KERNEL_OVERRIDE.load(Ordering::Relaxed) {
        1 => clamp(KernelKind::Scalar),
        2 => clamp(KernelKind::Simd),
        3 => clamp(KernelKind::Fma),
        _ => env_kind(),
    }
}

/// Overrides [`kernel_kind`] process-wide; `None` restores the
/// environment/auto default. Intended for tests and benches.
pub fn set_kernel(kind: Option<KernelKind>) {
    let v = match kind {
        None => 0,
        Some(KernelKind::Scalar) => 1,
        Some(KernelKind::Simd) => 2,
        Some(KernelKind::Fma) => 3,
    };
    KERNEL_OVERRIDE.store(v, Ordering::Relaxed);
}

/// A selected micro-kernel: tile shape plus the tile function.
#[derive(Clone, Copy)]
struct Micro {
    mr: usize,
    nr: usize,
    run: micro::MicroFn,
}

/// Picks the micro-kernel for the current [`kernel_kind`].
fn select_micro() -> Micro {
    let scalar = Micro {
        mr: micro::MR4,
        nr: micro::NR8,
        run: micro::micro_4x8_scalar,
    };
    match (kernel_kind(), isa().0) {
        (KernelKind::Scalar, _) => scalar,
        #[cfg(target_arch = "x86_64")]
        (KernelKind::Simd, Isa::Avx512) => Micro {
            mr: micro::MR8,
            nr: micro::NR16,
            run: micro::micro_8x16_avx512,
        },
        #[cfg(target_arch = "x86_64")]
        (KernelKind::Fma, Isa::Avx512) => Micro {
            mr: micro::MR8,
            nr: micro::NR16,
            run: micro::micro_8x16_avx512_fma,
        },
        #[cfg(target_arch = "x86_64")]
        (KernelKind::Simd, Isa::Avx2) => Micro {
            mr: micro::MR4,
            nr: micro::NR8,
            run: micro::micro_4x8_avx2,
        },
        #[cfg(target_arch = "x86_64")]
        (KernelKind::Fma, Isa::Avx2) => Micro {
            mr: micro::MR4,
            nr: micro::NR8,
            run: micro::micro_4x8_avx2_fma,
        },
        #[cfg(target_arch = "aarch64")]
        (KernelKind::Simd, Isa::Neon) => Micro {
            mr: micro::MR4,
            nr: micro::NR8,
            run: micro::micro_4x8_neon,
        },
        #[cfg(target_arch = "aarch64")]
        (KernelKind::Fma, Isa::Neon) => Micro {
            mr: micro::MR4,
            nr: micro::NR8,
            run: micro::micro_4x8_neon_fma,
        },
        // kernel_kind() never returns Simd/Fma when no ISA is detected,
        // but the match must be exhaustive per target.
        _ => scalar,
    }
}

/// Picks the matvec panel kernel for the current [`kernel_kind`].
fn select_matvec() -> micro::MatvecFn {
    match (kernel_kind(), isa().0) {
        (KernelKind::Scalar, _) => micro::matvec_8_scalar,
        #[cfg(target_arch = "x86_64")]
        (KernelKind::Simd, Isa::Avx512) => micro::matvec_8_avx512,
        #[cfg(target_arch = "x86_64")]
        (KernelKind::Fma, Isa::Avx512) => micro::matvec_8_avx512_fma,
        #[cfg(target_arch = "x86_64")]
        (KernelKind::Simd, Isa::Avx2) => micro::matvec_8_avx2,
        #[cfg(target_arch = "x86_64")]
        (KernelKind::Fma, Isa::Avx2) => micro::matvec_8_avx2_fma,
        #[cfg(target_arch = "aarch64")]
        (KernelKind::Simd, Isa::Neon) => micro::matvec_8_neon,
        #[cfg(target_arch = "aarch64")]
        (KernelKind::Fma, Isa::Neon) => micro::matvec_8_neon_fma,
        _ => micro::matvec_8_scalar,
    }
}

/// Picks the in-block triangular sweep for the current [`kernel_kind`].
///
/// The sweep has no fused-rounding variant: `Fma` maps to the same
/// separately-rounded kernel as `Simd`, so in-block factor work is bitwise
/// identical to the scalar substitution under every setting. (On aarch64
/// the portable body already compiles to NEON.)
fn select_tri_sweep() -> micro::TriSweepFn {
    match (kernel_kind(), isa().0) {
        (KernelKind::Scalar, _) => micro::tri_sweep_scalar,
        #[cfg(target_arch = "x86_64")]
        (_, Isa::Avx512) => micro::tri_sweep_avx512,
        #[cfg(target_arch = "x86_64")]
        (_, Isa::Avx2) => micro::tri_sweep_avx2,
        _ => micro::tri_sweep_scalar,
    }
}

/// In-block forward substitution on `width` right-hand-side columns: for
/// each row `i < rows` ascending, `x[i][j] = (x[i][j] − Σ_{p<i}
/// coef[i][p]·x[p][j]) / coef[i][i]` (`coef`, `x` row-major with strides
/// `ldc`, `ldx`). Every element keeps the scalar chain — ascending `p`,
/// separately rounded multiply and subtract, one divide — at any kernel
/// kind; see [`micro::TriSweepFn`].
///
/// # Panics
///
/// Panics if `rows > TRI_BLOCK` or a slice is too short for its shape.
pub(crate) fn tri_sweep(
    coef: &[f64],
    ldc: usize,
    x: &mut [f64],
    ldx: usize,
    rows: usize,
    width: usize,
) {
    if rows == 0 || width == 0 {
        return;
    }
    assert!(rows <= TRI_BLOCK, "tri_sweep: block too tall");
    assert!(coef.len() >= (rows - 1) * ldc + rows, "tri_sweep: coef");
    assert!(
        width <= ldx && x.len() >= (rows - 1) * ldx + width,
        "tri_sweep: x"
    );
    // SAFETY: the asserts above bound every access the kernel makes;
    // `coef` and `x` are distinct borrows, so they cannot overlap;
    // select_tri_sweep only returns ISA kernels the detected CPU supports.
    unsafe { select_tri_sweep()(coef.as_ptr(), ldc, x.as_mut_ptr(), ldx, rows, width) }
}

/// Raw shared pointer to a second full-size output the epilogue writes
/// (the pre-activation stream of the fused bias+activation path). Parallel
/// lanes write disjoint row ranges of it — the same partition as the main
/// output — so sharing the pointer is race-free.
pub(crate) struct SharedOut(pub *mut f64);
// SAFETY: lanes write disjoint regions; see the struct docs.
unsafe impl Send for SharedOut {}
// SAFETY: as above — no two lanes touch the same element.
unsafe impl Sync for SharedOut {}

/// An elementwise transform fused into the GEMM store phase.
///
/// The epilogue runs on each output tile exactly once — after the tile's
/// *final* KC accumulation block — so every element sees
/// `epilogue(full dot product)`, exactly what a separate post-pass over the
/// finished matrix would compute. Because the accumulated value round-trips
/// through memory between KC blocks anyway (exact for `f64`), fusing the
/// transform into the last store changes no intermediate rounding: fused
/// and separate-pass results are bitwise identical for finite inputs.
///
/// Row indices (`res`, the `pre` stream) are *global* matrix rows: parallel
/// chunk callers pass their chunk's first global row as `base`.
pub(crate) enum Epilogue<'a> {
    /// `c[g][j] += bias[j]` — a fused row-broadcast bias add.
    Bias {
        /// Per-column bias, indexed by global output column.
        bias: &'a [f64],
    },
    /// `pre[g][j] = c[g][j] + bias[j]; c[g][j] = act(pre[g][j])` — bias add
    /// plus activation, streaming the pre-activation out for backward.
    BiasAct {
        /// Per-column bias, indexed by global output column.
        bias: &'a [f64],
        /// The activation, applied after the bias add.
        act: fn(f64) -> f64,
        /// Full-size pre-activation output (row-major, same shape as `c`'s
        /// full matrix).
        pre: &'a SharedOut,
    },
    /// `c[g][j] = (c[g][j] + bias[j]) + res[g][j]` — bias add plus residual
    /// connection (IEEE addition commutes, so this matches `res + (c+bias)`
    /// bitwise).
    BiasResidual {
        /// Per-column bias, indexed by global output column.
        bias: &'a [f64],
        /// Full-size residual input (row-major, same shape as `c`'s full
        /// matrix).
        res: &'a [f64],
    },
}

/// Applies `epi` to the `tm × tn` output tile at chunk rows
/// `row0..row0+tm`, global columns `col0..col0+tn` (`base` = the chunk's
/// first global row).
#[allow(clippy::too_many_arguments)]
fn apply_epilogue(
    c: &mut [f64],
    n: usize,
    row0: usize,
    col0: usize,
    tm: usize,
    tn: usize,
    base: usize,
    epi: &Epilogue<'_>,
) {
    for i in 0..tm {
        let row = &mut c[(row0 + i) * n + col0..][..tn];
        let g = base + row0 + i;
        match *epi {
            Epilogue::Bias { bias } => {
                for (j, v) in row.iter_mut().enumerate() {
                    *v += bias[col0 + j];
                }
            }
            Epilogue::BiasAct { bias, act, pre } => {
                for (j, v) in row.iter_mut().enumerate() {
                    let p = *v + bias[col0 + j];
                    // SAFETY: `pre` spans the full matrix; (g, col0+j) is
                    // inside this lane's disjoint row range.
                    unsafe { *pre.0.add(g * n + col0 + j) = p };
                    *v = act(p);
                }
            }
            Epilogue::BiasResidual { bias, res } => {
                for (j, v) in row.iter_mut().enumerate() {
                    *v = (*v + bias[col0 + j]) + res[g * n + col0 + j];
                }
            }
        }
    }
}

/// Computes `c[i][j] += Σ_p A(i,p)·B(p,j)` over one parallel chunk of
/// `rows × n` output (`c` pre-zeroed or mid-accumulation), with cache
/// blocking, panel packing, and the dispatched micro-kernel.
pub(crate) fn gemm_chunk(c: &mut [f64], rows: usize, n: usize, k: usize, a: ASrc<'_>, b: BSrc<'_>) {
    gemm_chunk_inner(c, rows, n, k, a, b, None, false, false, None)
}

/// [`gemm_chunk`] with a *subtracting* accumulation: `c[i][j] -= Σ_p
/// A(i,p)·B(p,j)`, bitwise identical to the scalar chain `c = c - a·b`
/// (ascending `p`, separate multiply and subtract). Implemented by negating
/// the packed A panel — IEEE 754 makes `c + (-a)·b` round exactly like
/// `c - a·b` — so the unmodified accumulate micro-kernels do the work.
/// This is the blocked Cholesky's trailing-update primitive.
pub(crate) fn gemm_chunk_sub(
    c: &mut [f64],
    rows: usize,
    n: usize,
    k: usize,
    a: ASrc<'_>,
    b: BSrc<'_>,
) {
    gemm_chunk_inner(c, rows, n, k, a, b, None, true, false, None)
}

/// [`gemm_chunk`] (or, with `neg`, [`gemm_chunk_sub`]) for a
/// *lower-triangular* `B` — `B(p, j) = +0.0` for `p < j`, stored: each
/// column tile starts its `p` chain at the tile's first column instead of
/// 0. The skipped terms add or subtract `a·(+0.0)` with finite `a`, which
/// leaves any `c ≠ −0.0` unchanged, so for finite `A` and `c` seeded with
/// `+0.0` the result is bitwise that of the dense sweep. The triangular
/// inverse and its Gram product are built on this.
pub(crate) fn gemm_chunk_lower(
    c: &mut [f64],
    rows: usize,
    n: usize,
    k: usize,
    a: ASrc<'_>,
    b: BSrc<'_>,
    neg: bool,
) {
    gemm_chunk_inner(c, rows, n, k, a, b, None, neg, true, None)
}

/// [`gemm_chunk`] with a fused store-phase [`Epilogue`]. `base` is the
/// chunk's first global output row (epilogue operands index global rows).
/// Degenerate `k == 0` inputs return without touching `c` — callers must
/// fall back to separate passes there.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_chunk_fused(
    c: &mut [f64],
    rows: usize,
    n: usize,
    k: usize,
    a: ASrc<'_>,
    b: BSrc<'_>,
    base: usize,
    epi: &Epilogue<'_>,
) {
    gemm_chunk_inner(c, rows, n, k, a, b, None, false, false, Some((base, epi)))
}

/// [`gemm_chunk`] for the Gram kernel: `diag` is the chunk's first global
/// row; micro-tiles lying entirely strictly below the matrix diagonal are
/// skipped (the mirror pass fills them from the upper triangle).
pub(crate) fn gram_chunk(
    c: &mut [f64],
    rows: usize,
    n: usize,
    k: usize,
    a: ASrc<'_>,
    b: BSrc<'_>,
    diag: usize,
) {
    gemm_chunk_inner(c, rows, n, k, a, b, Some(diag), false, false, None)
}

#[allow(clippy::too_many_arguments)]
fn gemm_chunk_inner(
    c: &mut [f64],
    rows: usize,
    n: usize,
    k: usize,
    a: ASrc<'_>,
    b: BSrc<'_>,
    diag: Option<usize>,
    neg: bool,
    b_lower: bool,
    fused: Option<(usize, &Epilogue<'_>)>,
) {
    debug_assert_eq!(c.len(), rows * n);
    if rows == 0 || n == 0 || k == 0 {
        return;
    }
    let mk = select_micro();
    let (mr, nr) = (mk.mr, mk.nr);
    // Fixed-size panel buffers from the workspace arena: one size class
    // each, so steady-state checkouts always hit the per-thread free list.
    let mut abuf = workspace::take_raw(MC * KC);
    let mut bbuf = workspace::take_raw(KC * NC);
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        // Whole column block strictly below the diagonal: nothing to do.
        if diag.is_some_and(|d| jc + nc <= d) {
            continue;
        }
        for kb in (0..k).step_by(KC) {
            let kc = KC.min(k - kb);
            // A tile's accumulation completes on the last KC block of its
            // column sweep; that is the store the epilogue fuses into.
            let last_kb = kb + kc == k;
            pack::pack_b(&mut bbuf, &b, kb, kc, jc, nc, nr, b_lower);
            for ib in (0..rows).step_by(MC) {
                let mc = MC.min(rows - ib);
                // Row blocks only sink further below the diagonal.
                if diag.is_some_and(|d| jc + nc <= d + ib) {
                    break;
                }
                pack::pack_a(&mut abuf, &a, ib, mc, kb, kc, mr, neg);
                for i0 in (0..mc).step_by(mr) {
                    let tm = mr.min(mc - i0);
                    let apanel = &abuf[(i0 / mr) * kc * mr..];
                    for j0 in (0..nc).step_by(nr) {
                        let tn = nr.min(nc - j0);
                        if diag.is_some_and(|d| jc + j0 + tn <= d + ib + i0) {
                            continue;
                        }
                        // Lower-triangular B: the steps before this tile's
                        // first column multiply stored zeros — start past
                        // them (both panels are step-major).
                        let skip = if b_lower {
                            pack::lower_skip(jc + j0, kb, kc)
                        } else {
                            0
                        };
                        if skip == kc {
                            continue;
                        }
                        let steps = kc - skip;
                        let ap = apanel[skip * mr..].as_ptr();
                        let bp = bbuf[(j0 / nr) * kc * nr + skip * nr..].as_ptr();
                        let coff = (ib + i0) * n + jc + j0;
                        if tm == mr && tn == nr {
                            // SAFETY: full tile — `c[coff..]` spans mr rows of
                            // stride n ≥ nr columns each; panels hold `steps` steps;
                            // select_micro only returns ISA kernels the
                            // detected CPU supports.
                            unsafe { (mk.run)(steps, ap, bp, c.as_mut_ptr().add(coff), n) };
                        } else {
                            // Ragged edge: run the full tile against the
                            // zero-padded panels in a local buffer and copy
                            // only the real elements back. Padded lanes are
                            // discarded, so they cannot affect results.
                            let mut tile = [0.0f64; MAX_MR * MAX_NR];
                            for i in 0..tm {
                                tile[i * nr..i * nr + tn]
                                    .copy_from_slice(&c[coff + i * n..coff + i * n + tn]);
                            }
                            // SAFETY: `tile` is MAX_MR×MAX_NR ≥ mr×nr at
                            // stride nr; panel bounds as above.
                            unsafe { (mk.run)(steps, ap, bp, tile.as_mut_ptr(), nr) };
                            for i in 0..tm {
                                c[coff + i * n..coff + i * n + tn]
                                    .copy_from_slice(&tile[i * nr..i * nr + tn]);
                            }
                        }
                        if last_kb {
                            if let Some((base, epi)) = fused {
                                apply_epilogue(c, n, ib + i0, jc + j0, tm, tn, base, epi);
                            }
                        }
                    }
                }
            }
        }
    }
    workspace::put(abuf);
    workspace::put(bbuf);
}

/// Matrix–vector product over one parallel chunk: `out[i] = Σ_p
/// a[i*k+p]·v[p]` for the `out.len()` rows starting at `a` (row-major,
/// stride `k`). Rows are packed into [`micro::MV_MR`]-high panels so the
/// vector kernels run one independent accumulator chain per output row.
pub(crate) fn matvec_chunk(out: &mut [f64], a: &[f64], k: usize, v: &[f64]) {
    let rows = out.len();
    if rows == 0 || k == 0 {
        return;
    }
    let mv = select_matvec();
    const MV: usize = micro::MV_MR;
    let mut abuf = workspace::take_raw(MV * KC);
    for i0 in (0..rows).step_by(MV) {
        let tm = MV.min(rows - i0);
        let mut acc = [0.0f64; MV];
        for kb in (0..k).step_by(KC) {
            let kc = KC.min(k - kb);
            for p in 0..kc {
                for i in 0..MV {
                    abuf[p * MV + i] = if i < tm {
                        a[(i0 + i) * k + kb + p]
                    } else {
                        0.0
                    };
                }
            }
            // SAFETY: abuf holds kc*MV packed elements, v[kb..] holds kc,
            // acc holds MV; select_matvec only returns supported kernels.
            unsafe { mv(kc, abuf.as_ptr(), v.as_ptr().add(kb), acc.as_mut_ptr()) };
        }
        out[i0..i0 + tm].copy_from_slice(&acc[..tm]);
    }
    workspace::put(abuf);
}
