//! Runtime-dispatched, register-tiled GEMM engine.
//!
//! Every GEMM flavour in this crate (`matmul`, `matmul_tn`, `matmul_nt`,
//! `gram`) and every off-block product of the factorization engine funnels
//! into one cache-blocked macro-kernel, [`gemm_chunk`]: operand blocks are
//! packed into contiguous, zero-padded panels ([`pack`] — drawn from the
//! [`crate::workspace`] arena, so the steady state allocates nothing), and
//! an MR×NR register-tiled micro-kernel ([`micro`]) does all the
//! arithmetic. How a call departs from the plain accumulate is one
//! [`Mode`]; which micro-kernel and in-block triangular sweep run is one
//! dispatch table, `kernels`, keyed by the requested family and the
//! instruction set that runtime CPU detection found **once** per process:
//!
//! * x86_64 — AVX-512F (8×16 tile) when available, else AVX2 (4×8),
//! * aarch64 — NEON (4×8),
//! * anywhere else, or on request — a portable scalar 4×8 kernel.
//!
//! The same table picks the activation row kernels ([`ActivationKind`],
//! in `act`): one branch-free body built for AVX-512F, for AVX2 + FMA, or
//! for the baseline ISA.
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
//! other and to the pre-tiling serial loops: SIMD lanes run across output
//! *columns*, so each output element keeps its own
//! single accumulator chain over `k` in ascending order, and multiply and
//! add round separately (never fused). Cache blocking round-trips partial
//! sums through memory, which is exact for `f64`. Only `fma` reassociates
//! rounding — it is never selected implicitly. See `micro` for the
//! per-kernel argument and `crates/tensor/tests/kernel_dispatch.rs` for the
//! property tests enforcing all of this.

mod act;
mod micro;
mod pack;

use crate::workspace;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

pub use act::{tanh, ActivationKind};
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

/// The best vector ISA, detected once. Each one carries fused
/// multiply-add: avx512f has 512-bit FMA forms, the AVX2 tier requires the
/// `fma` extension (every AVX2 CPU since Haswell and Excavator has it), and
/// NEON on aarch64 always has `vfmaq_f64`.
fn isa() -> Isa {
    static DETECTED: OnceLock<Isa> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as detected;
            if detected!("avx512f") {
                return Isa::Avx512;
            }
            if detected!("avx2") && detected!("fma") {
                return Isa::Avx2;
            }
        }
        #[cfg(target_arch = "aarch64")]
        if std::arch::is_aarch64_feature_detected!("neon") {
            return Isa::Neon;
        }
        Isa::None
    })
}

/// Name of the detected vector ISA, for logs and bench artifacts:
/// `"avx512f"`, `"avx2"`, `"neon"`, or `"none"`.
pub fn simd_name() -> &'static str {
    match isa() {
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
    isa() != Isa::None
}

/// Clamps a requested kind to what the CPU supports: `Simd`/`Fma` without a
/// vector ISA fall back to `Scalar`.
fn clamp(kind: KernelKind) -> KernelKind {
    if isa() == Isa::None {
        KernelKind::Scalar
    } else {
        kind
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

/// An activation row kernel: `(v[i], d[i]) ← (act(v[i]), act′(v[i]))`
/// for equal-length `v` and `d`. Unsafe only because it may carry a
/// `target_feature` the caller must have detected.
pub(crate) type ActRowFn = unsafe fn(&mut [f64], &mut [f64]);

/// What one `(kernel kind, instruction set)` pair selects: the GEMM tile
/// shape with its micro-kernel, the in-block triangular sweep, and the
/// activation row kernels.
#[derive(Clone, Copy)]
struct Kernels {
    mr: usize,
    nr: usize,
    micro: micro::MicroFn,
    tri_sweep: micro::TriSweepFn,
    gelu: ActRowFn,
    tanh: ActRowFn,
}

/// The dispatch table: the kernels for the current [`kernel_kind`] on the
/// detected instruction set.
///
/// The sweep and the activations have no fused-rounding variant: `Fma`
/// maps to the same kernels as `Simd`, so in-block factor work is bitwise
/// identical to the scalar substitution, and activations to the portable
/// body, under every setting. (On aarch64 the portable bodies already
/// compile to NEON.)
fn kernels() -> Kernels {
    let scalar = Kernels {
        mr: micro::MR4,
        nr: micro::NR8,
        micro: micro::micro_4x8_scalar,
        tri_sweep: micro::tri_sweep_scalar,
        gelu: act::rows_portable::<true>,
        tanh: act::rows_portable::<false>,
    };
    match (kernel_kind(), isa()) {
        (KernelKind::Scalar, _) => scalar,
        #[cfg(target_arch = "x86_64")]
        (kind, Isa::Avx512) => Kernels {
            mr: micro::MR8,
            nr: micro::NR16,
            micro: if kind == KernelKind::Fma {
                micro::micro_8x16_avx512::<true>
            } else {
                micro::micro_8x16_avx512::<false>
            },
            tri_sweep: micro::tri_sweep_avx512,
            gelu: act::rows_avx512::<true>,
            tanh: act::rows_avx512::<false>,
        },
        #[cfg(target_arch = "x86_64")]
        (kind, Isa::Avx2) => Kernels {
            micro: if kind == KernelKind::Fma {
                micro::micro_4x8_avx2::<true>
            } else {
                micro::micro_4x8_avx2::<false>
            },
            tri_sweep: micro::tri_sweep_avx2,
            gelu: act::rows_avx2::<true>,
            tanh: act::rows_avx2::<false>,
            ..scalar
        },
        #[cfg(target_arch = "aarch64")]
        (KernelKind::Simd, Isa::Neon) => Kernels {
            micro: micro::micro_4x8_neon,
            ..scalar
        },
        #[cfg(target_arch = "aarch64")]
        (KernelKind::Fma, Isa::Neon) => Kernels {
            micro: micro::micro_4x8_neon_fma,
            ..scalar
        },
        // kernel_kind() never returns Simd/Fma when no ISA is detected,
        // but the match must be exhaustive per target.
        _ => scalar,
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
    // `kernels` only returns ISA kernels the detected CPU supports.
    unsafe { (kernels().tri_sweep)(coef.as_ptr(), ldc, x.as_mut_ptr(), ldx, rows, width) }
}

/// An elementwise transform fused into the GEMM store phase.
///
/// The epilogue runs on each output tile exactly once — after the tile's
/// *final* KC accumulation block — so every element sees
/// `epilogue(full dot product)`, exactly what a separate post-pass over the
/// finished matrix would compute. Because the accumulated value round-trips
/// through memory between KC blocks anyway (exact for `f64`), fusing the
/// transform into the last store changes no intermediate rounding: fused
/// and separate-pass results are bitwise identical for finite inputs.
/// When `k == 0` there is no accumulation to finish, and the epilogue runs
/// once over the whole zero product instead.
pub(crate) enum Epilogue<'a> {
    /// `c[g][j] += bias[j]` — a fused row-broadcast bias add.
    Bias {
        /// Per-column bias, indexed by global output column.
        bias: &'a [f64],
    },
    /// `(c[g][j], grad[g][j]) = act(c[g][j] + bias[j])` — bias add plus
    /// activation, streaming the activation's derivative out for backward.
    BiasAct {
        /// Per-column bias, indexed by global output column.
        bias: &'a [f64],
        /// The activation's row kernel, run on each tile row after the
        /// bias add.
        act: ActRowFn,
        /// Full-size derivative output (row-major, same shape as `c`).
        grad: &'a mut [f64],
    },
    /// `c[g][j] = (c[g][j] + bias[j]) + res[g][j]` — bias add plus residual
    /// connection (IEEE addition commutes, so this matches `res + (c+bias)`
    /// bitwise).
    BiasResidual {
        /// Per-column bias, indexed by global output column.
        bias: &'a [f64],
        /// Full-size residual input (row-major, same shape as `c`).
        res: &'a [f64],
    },
}

/// Applies `epi` to the `tm × tn` output tile at rows `row0..row0+tm`,
/// columns `col0..col0+tn`.
fn apply_epilogue(
    c: &mut [f64],
    n: usize,
    (row0, col0): (usize, usize),
    (tm, tn): (usize, usize),
    epi: &mut Epilogue<'_>,
) {
    for g in row0..row0 + tm {
        let row = &mut c[g * n + col0..][..tn];
        match epi {
            Epilogue::Bias { bias } => {
                for (j, v) in row.iter_mut().enumerate() {
                    *v += bias[col0 + j];
                }
            }
            Epilogue::BiasAct { bias, act, grad } => {
                for (v, b) in row.iter_mut().zip(&bias[col0..]) {
                    *v += b;
                }
                // SAFETY: `act` comes from `kernels`, which only returns
                // kernels the detected CPU supports.
                unsafe { (*act)(row, &mut grad[g * n + col0..][..tn]) }
            }
            Epilogue::BiasResidual { bias, res } => {
                for (j, v) in row.iter_mut().enumerate() {
                    *v = (*v + bias[col0 + j]) + res[g * n + col0 + j];
                }
            }
        }
    }
}

/// How one [`gemm_chunk`] call departs from the plain accumulate
/// `c[i][j] += Σ_p A(i,p)·B(p,j)`; `Mode::default()` is that accumulate.
#[derive(Default)]
pub(crate) struct Mode<'a> {
    /// *Subtracting* accumulation, `c[i][j] -= Σ_p A(i,p)·B(p,j)`, bitwise
    /// identical to the scalar chain `c = c - a·b` (ascending `p`, separate
    /// multiply and subtract). Implemented by negating the packed A panel —
    /// IEEE 754 makes `c + (-a)·b` round exactly like `c - a·b` — so the
    /// unmodified accumulate micro-kernels do the work. This is the blocked
    /// Cholesky's trailing-update primitive.
    pub neg: bool,
    /// `B` is *lower-triangular* — `B(p, j) = +0.0` for `p < j`, stored:
    /// each column tile starts its `p` chain at the tile's first column
    /// instead of 0. The skipped terms add or subtract `a·(+0.0)` with
    /// finite `a`, which leaves any `c ≠ −0.0` unchanged, so for finite `A`
    /// and `c` seeded with `+0.0` the result is bitwise that of the dense
    /// sweep. The triangular inverse and its Gram product are built on this.
    pub b_lower: bool,
    /// The Gram kernel's upper triangle: micro-tiles lying entirely
    /// strictly below the diagonal of `c` are skipped (the mirror pass
    /// fills them from the upper triangle).
    pub upper: bool,
    /// A store-phase [`Epilogue`].
    pub fused: Option<Epilogue<'a>>,
}

/// Computes `c[i][j] += Σ_p A(i,p)·B(p,j)` over a `rows × n` output (`c`
/// pre-zeroed or mid-accumulation), with cache blocking, panel packing, and
/// the dispatched micro-kernel, varied as `mode` says.
pub(crate) fn gemm_chunk(
    c: &mut [f64],
    rows: usize,
    n: usize,
    k: usize,
    a: ASrc<'_>,
    b: BSrc<'_>,
    mode: Mode<'_>,
) {
    debug_assert_eq!(c.len(), rows * n);
    let Mode {
        neg,
        b_lower,
        upper,
        mut fused,
    } = mode;
    if rows == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if let Some(epi) = &mut fused {
            apply_epilogue(c, n, (0, 0), (rows, n), epi);
        }
        return;
    }
    let Kernels { mr, nr, micro, .. } = kernels();
    // Fixed-size panel buffers from the workspace arena: one size class
    // each, so steady-state checkouts always hit the per-thread free list.
    let mut abuf = workspace::take_raw(MC * KC);
    let mut bbuf = workspace::take_raw(KC * NC);
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for kb in (0..k).step_by(KC) {
            let kc = KC.min(k - kb);
            // A tile's accumulation completes on the last KC block of its
            // column sweep; that is the store the epilogue fuses into.
            let last_kb = kb + kc == k;
            pack::pack_b(&mut bbuf, &b, kb, kc, jc, nc, nr, b_lower);
            for ib in (0..rows).step_by(MC) {
                let mc = MC.min(rows - ib);
                // Row blocks only sink further below the diagonal.
                if upper && jc + nc <= ib {
                    break;
                }
                pack::pack_a(&mut abuf, &a, ib, mc, kb, kc, mr, neg);
                for (qa, i0) in (0..mc).step_by(mr).enumerate() {
                    let tm = mr.min(mc - i0);
                    let apanel = &abuf[qa * kc * mr..];
                    for (qb, j0) in (0..nc).step_by(nr).enumerate() {
                        let tn = nr.min(nc - j0);
                        if upper && jc + j0 + tn <= ib + i0 {
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
                        let bp = bbuf[qb * kc * nr + skip * nr..].as_ptr();
                        let coff = (ib + i0) * n + jc + j0;
                        if tm == mr && tn == nr {
                            // SAFETY: full tile — `c[coff..]` spans mr rows of
                            // stride n ≥ nr columns each; panels hold `steps` steps;
                            // `kernels` only returns ISA kernels the
                            // detected CPU supports.
                            unsafe { micro(steps, ap, bp, c.as_mut_ptr().add(coff), n) };
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
                            unsafe { micro(steps, ap, bp, tile.as_mut_ptr(), nr) };
                            for i in 0..tm {
                                c[coff + i * n..coff + i * n + tn]
                                    .copy_from_slice(&tile[i * nr..i * nr + tn]);
                            }
                        }
                        if last_kb {
                            if let Some(epi) = &mut fused {
                                apply_epilogue(c, n, (ib + i0, jc + j0), (tm, tn), epi);
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

#[cfg(test)]
mod tests {
    use super::micro::{self, MicroFn, TriSweepFn, MR4, MR8, NR16, NR8};

    /// `(name, mr, nr, fused rounding, kernel)`.
    type Tile = (&'static str, usize, usize, bool, MicroFn);

    /// Every tile kernel and every ISA-specific triangular sweep this CPU
    /// can run — not only the ones [`super::kernels`] picks.
    #[allow(unused_mut)]
    fn runnable() -> (Vec<Tile>, Vec<(&'static str, TriSweepFn)>) {
        let mut tiles: Vec<Tile> = vec![("scalar", MR4, NR8, false, micro::micro_4x8_scalar)];
        let mut sweeps: Vec<(&'static str, TriSweepFn)> = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as detected;
            if detected!("avx2") && detected!("fma") {
                tiles.push(("avx2", MR4, NR8, false, micro::micro_4x8_avx2::<false>));
                tiles.push(("avx2+fma", MR4, NR8, true, micro::micro_4x8_avx2::<true>));
                sweeps.push(("avx2", micro::tri_sweep_avx2));
            }
            if detected!("avx512f") {
                tiles.push((
                    "avx512f",
                    MR8,
                    NR16,
                    false,
                    micro::micro_8x16_avx512::<false>,
                ));
                tiles.push((
                    "avx512f+fma",
                    MR8,
                    NR16,
                    true,
                    micro::micro_8x16_avx512::<true>,
                ));
                sweeps.push(("avx512f", micro::tri_sweep_avx512));
            }
        }
        #[cfg(target_arch = "aarch64")]
        if std::arch::is_aarch64_feature_detected!("neon") {
            tiles.push(("neon", MR4, NR8, false, micro::micro_4x8_neon));
            tiles.push(("neon+fma", MR4, NR8, true, micro::micro_4x8_neon_fma));
        }
        (tiles, sweeps)
    }

    #[test]
    fn every_runnable_kernel_matches_the_scalar_chain() {
        // Uniform values in [-1, 1) from a xorshift stream.
        let mut s = 0x711Eu64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let (tiles, sweeps) = runnable();
        for &(name, mr, nr, fused, kernel) in &tiles {
            let ldc = nr + 3;
            for kc in [0usize, 1, 7, 64, 257] {
                let ap: Vec<f64> = (0..kc * mr).map(|_| next()).collect();
                let bp: Vec<f64> = (0..kc * nr).map(|_| next()).collect();
                let seed: Vec<f64> = (0..mr * ldc).map(|_| next()).collect();
                let mut got = seed.clone();
                // SAFETY: the panels hold kc·mr and kc·nr elements, `got` a
                // full mr×nr tile at stride ldc ≥ nr, and the kernel's
                // instruction set was detected by `runnable`.
                unsafe { kernel(kc, ap.as_ptr(), bp.as_ptr(), got.as_mut_ptr(), ldc) };
                for (i, j) in (0..mr).flat_map(|i| (0..nr).map(move |j| (i, j))) {
                    let mut w = seed[i * ldc + j];
                    for p in 0..kc {
                        w += ap[p * mr + i] * bp[p * nr + j];
                    }
                    let g = got[i * ldc + j];
                    let same = if fused {
                        (g - w).abs() <= 1e-12 * (1.0 + w.abs())
                    } else {
                        g.to_bits() == w.to_bits()
                    };
                    assert!(same, "{name}, kc={kc}, ({i},{j}): {g:?} vs {w:?}");
                }
            }
        }
        for &(name, sweep) in &sweeps {
            // Widths below, at and straddling the 16- and 32-wide tiles.
            for (rows, width) in [1usize, 5, 64]
                .into_iter()
                .flat_map(|r| [1usize, 7, 16, 32, 37, 69].map(|w| (r, w)))
            {
                let (ldc, ldx) = (rows + 2, width + 1);
                let mut coef: Vec<f64> = (0..rows * ldc).map(|_| next()).collect();
                for i in 0..rows {
                    coef[i * ldc + i] = 2.0 + next();
                }
                let mut want: Vec<f64> = (0..rows * ldx).map(|_| next()).collect();
                let mut got = want.clone();
                // SAFETY: rows ≤ TRI_BLOCK; `coef` holds `rows` rows of stride
                // ldc ≥ rows, `want` and `got` `rows` rows of stride
                // ldx ≥ width, all distinct buffers; the ISA was detected.
                unsafe {
                    let c = coef.as_ptr();
                    micro::tri_sweep_scalar(c, ldc, want.as_mut_ptr(), ldx, rows, width);
                    sweep(c, ldc, got.as_mut_ptr(), ldx, rows, width);
                }
                let same = want
                    .iter()
                    .zip(&got)
                    .all(|(w, g)| w.to_bits() == g.to_bits());
                assert!(same, "tri_sweep {name}, rows={rows}, width={width}");
            }
        }
        let tiles: Vec<_> = tiles.iter().map(|t| t.0).collect();
        let sweeps: Vec<_> = sweeps.iter().map(|t| t.0).collect();
        println!("tile kernels run: {tiles:?}; tri_sweep kernels run against scalar: {sweeps:?}");
    }
}
