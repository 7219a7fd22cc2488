//! Runtime-dispatched, register-tiled GEMM engine.
//!
//! Every GEMM flavour in this crate (`matmul`, `matmul_tn`, `matmul_nt`,
//! `gram`) and every off-block product of the factorization engine funnels
//! into one cache-blocked macro-kernel, [`Gemm::run`]: an MR×NR
//! register-tiled micro-kernel ([`micro`]) does all the arithmetic, reading
//! its operands where they lie through strides; only a transposed B, a
//! block too wide for L2 and a ragged edge are packed into zero-padded
//! panels ([`pack`] — drawn from the [`crate::workspace`] arena, so the
//! steady state allocates nothing). How a call departs from the plain accumulate is one
//! [`Mode`]; which micro-kernel and in-block triangular sweep run is one
//! dispatch table, `kernels`, keyed by the requested family and the
//! instruction set that runtime CPU detection found **once** per process:
//!
//! * x86_64 — AVX-512F (8×16 tile) when available, else AVX2 (4×8),
//! * aarch64 — NEON (4×8),
//! * anywhere else, or on request — a portable 4×8 kernel.
//!
//! The same table picks the activation row kernels ([`ActivationKind`],
//! in `act`) and the softmax's exp row kernel (in `exp`): each one
//! branch-free body built for AVX-512F, for AVX2 + FMA, or for the
//! baseline ISA.
//!
//! # Dispatch and the `PIPEFISHER_KERNEL` knob
//!
//! `PIPEFISHER_KERNEL=scalar` forces the portable kernel and `simd` the
//! best detected vector kernel (the default when unset). Anything else
//! warns and falls back to auto. [`set_kernel`] overrides the environment
//! at runtime (tests, benches).
//!
//! # Determinism
//!
//! Every kernel is **bitwise identical** to every other and to the scalar
//! loops of [`crate::reference`]: SIMD lanes run across output *columns*,
//! so each output element keeps its own single accumulator chain over `k`
//! in ascending order, and each step is one fused multiply-add — one
//! rounding, `f64::mul_add` in the portable bodies, the ISA's FMA in the
//! vector ones. Cache blocking round-trips partial sums through memory,
//! which is exact for `f64`. See `micro` for the per-kernel argument and
//! `crates/tensor/tests/kernel_dispatch.rs` for the property tests
//! enforcing all of this.

mod act;
mod exp;
mod micro;
mod pack;

use crate::workspace;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

pub use act::{tanh, ActivationKind};
pub(crate) use exp::exp_rows;
pub(crate) use micro::TRI_BLOCK;
use micro::{AView, BView};
pub(crate) use pack::Operand;

/// Depth (k extent) of one cache block.
const KC: usize = 256;
/// Columns of B per cache block (multiple of every NR).
const NC: usize = 512;
/// Largest MR of any micro-kernel (the AVX-512 tile height).
const MAX_MR: usize = micro::MR8;
/// Largest NR of any micro-kernel (the AVX-512 tile width).
const MAX_NR: usize = micro::NR16;

/// Which micro-kernel family executes the GEMM hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Portable tile kernel (the fallback, and the reference the SIMD
    /// kernels must match bitwise).
    Scalar,
    /// Best detected vector ISA — bitwise identical to `Scalar`.
    Simd,
}

/// Error for unrecognized `PIPEFISHER_KERNEL` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidKernelRequest;

impl std::fmt::Display for InvalidKernelRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "expected one of: auto, scalar, simd")
    }
}

impl std::error::Error for InvalidKernelRequest {}

/// Parses a `PIPEFISHER_KERNEL` value (case-insensitive, trimmed) into the
/// kind it asks for, before clamping to the CPU. The empty string and
/// `auto` ask for the default, [`KernelKind::Simd`].
pub fn parse_kernel_request(s: &str) -> Result<KernelKind, InvalidKernelRequest> {
    match s.trim().to_ascii_lowercase().as_str() {
        "" | "auto" | "simd" => Ok(KernelKind::Simd),
        "scalar" => Ok(KernelKind::Scalar),
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
/// multiply-add: both x86 tiers require the `fma` extension (every AVX2
/// CPU since Haswell and Excavator has it), and NEON on aarch64 always has
/// `vfmaq_f64`.
fn isa() -> Isa {
    static DETECTED: OnceLock<Isa> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if has_fma() {
            use std::arch::is_x86_feature_detected as detected;
            if detected!("avx512f") {
                return Isa::Avx512;
            }
            if detected!("avx2") {
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

/// Whether the x86-64 CPU has the FMA extension (cached by the detection
/// macro). Without it, `f64::mul_add` on the baseline ISA is a libm call.
#[cfg(target_arch = "x86_64")]
fn has_fma() -> bool {
    std::arch::is_x86_feature_detected!("fma")
}

/// Runs `f` compiled with FMA instructions where the CPU has them: a
/// portable `mul_add` chain inlines into this wrapper's FMA instantiation
/// instead of calling libm per step. The bits are the same either way.
#[inline(always)]
pub(crate) fn with_fma<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(test)]
    if tests::BASELINE.with(std::cell::Cell::get) {
        return f();
    }
    #[cfg(target_arch = "x86_64")]
    if has_fma() {
        #[target_feature(enable = "fma")]
        fn fused<R>(f: impl FnOnce() -> R) -> R {
            f()
        }
        // SAFETY: the CPU has the one feature `fused` is compiled for.
        return unsafe { fused(f) };
    }
    f()
}

/// Clamps a requested kind to what the CPU supports: `Simd` without a
/// vector ISA falls back to `Scalar`.
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
                KernelKind::Simd
            }),
            Err(_) => KernelKind::Simd,
        };
        clamp(requested)
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
    };
    KERNEL_OVERRIDE.store(v, Ordering::Relaxed);
}

/// An activation row kernel: `(v[i], d[i]) ← (act(v[i]), act′(v[i]))`
/// for equal-length `v` and `d`. Unsafe only because it may carry a
/// `target_feature` the caller must have detected.
pub(crate) type ActRowFn = unsafe fn(&mut [f64], &mut [f64]);

/// What one `(kernel kind, instruction set)` pair selects: the GEMM tile
/// shape with its micro-kernel, the in-block triangular sweep, and the
/// activation and exp row kernels.
#[derive(Clone, Copy)]
struct Kernels {
    mr: usize,
    nr: usize,
    /// The accumulating and (`[1]`) subtracting instances of one tile
    /// kernel.
    micro: [micro::MicroFn; 2],
    tri_sweep: micro::TriSweepFn,
    gelu: ActRowFn,
    tanh: ActRowFn,
    exp: exp::ExpRowFn,
}

/// The dispatch table: the kernels for the current [`kernel_kind`] on the
/// detected instruction set. The `Scalar` kind gets the portable bodies
/// (on aarch64 those already compile to NEON).
fn kernels() -> Kernels {
    let portable = Kernels {
        mr: micro::MR4,
        nr: micro::NR8,
        micro: [
            micro::micro_4x8_portable::<false>,
            micro::micro_4x8_portable::<true>,
        ],
        tri_sweep: micro::tri_sweep_portable,
        gelu: act::rows_portable::<true>,
        tanh: act::rows_portable::<false>,
        exp: exp::rows_portable,
    };
    match (kernel_kind(), isa()) {
        (KernelKind::Scalar, _) => portable,
        #[cfg(target_arch = "x86_64")]
        (_, Isa::Avx512) => Kernels {
            mr: micro::MR8,
            nr: micro::NR16,
            micro: [
                micro::micro_8x16_avx512::<false>,
                micro::micro_8x16_avx512::<true>,
            ],
            tri_sweep: micro::tri_sweep_avx512,
            gelu: act::rows_avx512::<true>,
            tanh: act::rows_avx512::<false>,
            exp: exp::rows_avx512,
        },
        #[cfg(target_arch = "x86_64")]
        (_, Isa::Avx2) => Kernels {
            micro: [
                micro::micro_4x8_avx2::<false>,
                micro::micro_4x8_avx2::<true>,
            ],
            tri_sweep: micro::tri_sweep_avx2,
            gelu: act::rows_avx2::<true>,
            tanh: act::rows_avx2::<false>,
            exp: exp::rows_avx2,
            ..portable
        },
        #[cfg(target_arch = "aarch64")]
        (_, Isa::Neon) => Kernels {
            micro: [
                micro::micro_4x8_neon::<false>,
                micro::micro_4x8_neon::<true>,
            ],
            ..portable
        },
        // kernel_kind() never returns Simd when no ISA is detected, but
        // the match must be exhaustive per target.
        _ => portable,
    }
}

/// In-block forward substitution on `width` right-hand-side columns: for
/// each row `i < rows` ascending, `x[i][j] = (x[i][j] − Σ_{p<i}
/// coef[i][p]·x[p][j]) / coef[i][i]` (`coef`, `x` row-major with strides
/// `ldc`, `ldx`). Every element keeps the scalar chain — ascending `p`,
/// one fused multiply-subtract per step, one divide — at any kernel kind;
/// see [`micro::TriSweepFn`].
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
/// The epilogue runs on each row panel of the output exactly once — after
/// the panel's *final* KC accumulation block — so every element sees
/// `epilogue(full dot product)`, exactly what a separate post-pass over the
/// finished matrix would compute. Because the accumulated value round-trips
/// through memory between KC blocks anyway (exact for `f64`), fusing the
/// transform into the last store changes no intermediate rounding: fused
/// and separate-pass results are bitwise identical for finite inputs.
/// When `k == 0` there is no accumulation to finish, and the epilogue runs
/// once over the whole zero product instead. Not combined with
/// [`Mode::upper`], whose skipped tiles it would visit too.
pub(crate) enum Epilogue<'a> {
    /// `c[g][j] += bias[j]` — a fused row-broadcast bias add.
    Bias {
        /// Per-column bias, indexed by global output column.
        bias: &'a [f64],
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
/// columns `col0..col0+tn`, of the row-stride-`ldc` `c`.
fn apply_epilogue(
    c: &mut [f64],
    ldc: usize,
    (row0, col0): (usize, usize),
    (tm, tn): (usize, usize),
    epi: &Epilogue<'_>,
) {
    for g in row0..row0 + tm {
        let row = &mut c[g * ldc + col0..][..tn];
        match *epi {
            Epilogue::Bias { bias } => {
                for (v, b) in row.iter_mut().zip(&bias[col0..]) {
                    *v += b;
                }
            }
            Epilogue::BiasResidual { bias, res } => {
                let res = &res[g * ldc + col0..];
                for ((v, b), r) in row.iter_mut().zip(&bias[col0..]).zip(res) {
                    *v = (*v + b) + r;
                }
            }
        }
    }
}

/// How one [`Gemm::run`] call departs from the plain accumulate
/// `c[i][j] += Σ_p A(i,p)·B(p,j)`; `Mode::default()` is that accumulate.
#[derive(Default)]
pub(crate) struct Mode<'a> {
    /// *Subtracting* accumulation, `c[i][j] -= Σ_p A(i,p)·B(p,j)`, bitwise
    /// identical to the scalar chain `c = fma(−a, b, c)` (ascending `p`):
    /// the fused `c − a·b`, rounded once, which the micro-kernels' `NEG`
    /// instances compute in place of the fused add. This is the blocked
    /// Cholesky's trailing-update primitive.
    pub neg: bool,
    /// `B` is *lower-triangular* — `B(p, j) = +0.0` for `p < j`, stored:
    /// each column tile starts its `p` chain at the tile's first column
    /// instead of 0. A skipped step is `fma(±a, +0.0, c)` with finite `a`:
    /// the exact sum `c ± 0` rounds to `c` for any `c ≠ −0.0`, so for
    /// finite `A` and `c` seeded with `+0.0` the result is bitwise that of
    /// the dense sweep. The triangular inverse and its Gram product are
    /// built on this.
    pub b_lower: bool,
    /// `c[i][j] = Σ_p A(i,p)·B(p,j)`: the first KC block starts each
    /// tile's accumulators at `+0.0` in registers instead of loading `c`,
    /// so `c` need not be zeroed first (`k = 0` stores `+0.0`). Bitwise
    /// the accumulate into a zeroed `c`. Not combined with `b_lower`,
    /// whose tiles may skip the whole first block.
    pub overwrite: bool,
    /// The Gram kernel's upper triangle: micro-tiles lying entirely
    /// strictly below the diagonal of `c` are skipped (the mirror pass
    /// fills them from the upper triangle).
    pub upper: bool,
    /// A store-phase [`Epilogue`].
    pub fused: Option<Epilogue<'a>>,
}

/// The GEMM engine: the dispatched kernels and the buffers of the panels
/// still packed ([`pack`]) — one A panel, and one cache block of B panels
/// — checked out once for any number of [`Gemm::run`] calls (a batch of
/// small products pays the set-up once) and returned on drop.
pub(crate) struct Gemm {
    kernels: Kernels,
    abuf: Vec<f64>,
    bbuf: Vec<f64>,
}

impl Gemm {
    pub(crate) fn new() -> Self {
        // Fixed-size panel buffers from the workspace arena: one size class
        // each, so steady-state checkouts always hit the per-thread free
        // list.
        Gemm {
            kernels: kernels(),
            abuf: workspace::take_raw(KC * MAX_MR),
            bbuf: workspace::take_raw(KC * NC),
        }
    }

    /// Computes `c[i][j] += Σ_p A(i,p)·B(p,j)` over a `rows × n` output at
    /// row stride `ldc` (`c` zeroed, mid-accumulation, or anything under
    /// [`Mode::overwrite`]), with cache blocking and the dispatched
    /// micro-kernel, varied as `mode` says. The kernel reads A, and a B
    /// with contiguous rows, where they lie while the block spans less
    /// than 1 MiB ([`in_place`]); it reads a packed panel for any other B,
    /// a wider block and a ragged edge. A fused epilogue reads `res` at
    /// `c`'s layout.
    ///
    /// # Panics
    ///
    /// Panics if `c` cannot hold `rows` rows of `n ≤ ldc` columns, or an
    /// operand is too short for its reads.
    pub(crate) fn run(
        &mut self,
        c: &mut [f64],
        ldc: usize,
        (rows, n, k): (usize, usize, usize),
        (a, b): (Operand<'_>, Operand<'_>),
        mode: Mode<'_>,
    ) {
        let Mode {
            neg,
            b_lower,
            upper,
            overwrite,
            fused,
        } = mode;
        debug_assert!(!(overwrite && b_lower), "gemm: overwrite with b_lower");
        if rows == 0 || n == 0 {
            return;
        }
        // The micro-kernels load and store through raw pointers: these
        // bound them.
        assert!(
            n <= ldc && c.len() >= (rows - 1) * ldc + n,
            "gemm: output {rows}x{n} at stride {ldc} overruns {}",
            c.len()
        );
        if k == 0 {
            if overwrite {
                c.chunks_mut(ldc).take(rows).for_each(|r| r[..n].fill(0.0));
            }
            if let Some(epi) = &fused {
                apply_epilogue(c, ldc, (0, 0), (rows, n), epi);
            }
            return;
        }
        a.check(rows, k);
        b.check(k, n);
        #[cfg(test)]
        let pack_all = tests::PACK_ALL.with(std::cell::Cell::get);
        #[cfg(not(test))]
        let pack_all = false;
        let Kernels { mr, nr, micro, .. } = self.kernels;
        let micro = micro[usize::from(neg)];
        let (abuf, bbuf) = (&mut self.abuf, &mut self.bbuf);
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for kb in (0..k).step_by(KC) {
                let kc = KC.min(k - kb);
                let a_in_place = !pack_all && in_place(a.cs, kc);
                let b_in_place = |tn| !pack_all && tn == nr && b.cs == 1 && in_place(b.rs, kc);
                // Lower-triangular B: the steps before a column tile's
                // first column multiply stored zeros — start past them.
                let skip = |j0| match b_lower {
                    true => pack::lower_skip(jc + j0, kb, kc),
                    false => 0,
                };
                // A row panel's accumulation completes on the last KC
                // block of its column sweep; the epilogue runs on it there,
                // while it is still in cache.
                let last_kb = kb + kc == k;
                let seed = overwrite && kb == 0;
                for (q, j0) in (0..nc).step_by(nr).enumerate() {
                    let tn = nr.min(nc - j0);
                    if !b_in_place(tn) {
                        let steps = (kb, skip(j0), kc);
                        pack::pack(&mut bbuf[q * kc * nr..], b.t(), (jc + j0, tn), steps, nr);
                    }
                }
                for i0 in (0..rows).step_by(mr) {
                    // Row panels only sink further below the diagonal.
                    if upper && jc + nc <= i0 {
                        break;
                    }
                    let tm = mr.min(rows - i0);
                    let (a0, row, step) = match tm == mr && a_in_place {
                        true => (a.at(i0, kb), a.rs, a.cs),
                        false => (pack::pack(abuf, a, (i0, tm), (kb, 0, kc), mr), 1, mr),
                    };
                    for (q, j0) in (0..nc).step_by(nr).enumerate() {
                        let (tn, skip) = (nr.min(nc - j0), skip(j0));
                        if skip == kc || upper && jc + j0 + tn <= i0 {
                            continue;
                        }
                        let ptr = a0.wrapping_add(skip * step);
                        let av = AView { ptr, row, step };
                        let bv = {
                            let (ptr, step) = match b_in_place(tn) {
                                true => (b.at(kb + skip, jc + j0), b.rs),
                                false => (bbuf[(q * kc + skip) * nr..].as_ptr(), nr),
                            };
                            BView { ptr, step }
                        };
                        let (steps, coff) = (kc - skip, i0 * ldc + jc + j0);
                        if tm == mr && tn == nr {
                            let dst = c[coff..].as_mut_ptr();
                            // SAFETY: full tile — `c[coff..]` spans mr rows
                            // of stride ldc ≥ nr columns each, and the
                            // views rows `i0..i0+mr`, columns
                            // `jc+j0..+nr` and `steps` steps, all inside
                            // the operands (the checks above) or a full
                            // panel; `c` is a distinct borrow; `kernels`
                            // only returns ISA kernels the detected CPU
                            // supports.
                            unsafe { micro(steps, av, bv, dst, ldc, seed) };
                        } else {
                            // Ragged edge: run the full tile against the
                            // zero-padded panel in a local buffer and copy
                            // only the real elements back. Padded lanes
                            // are discarded, so they cannot affect results.
                            let mut tile = [0.0f64; MAX_MR * MAX_NR];
                            if !seed {
                                for i in 0..tm {
                                    tile[i * nr..i * nr + tn]
                                        .copy_from_slice(&c[coff + i * ldc..][..tn]);
                                }
                            }
                            // SAFETY: `tile` is MAX_MR×MAX_NR ≥ mr×nr at
                            // stride nr; a ragged side reads its packed
                            // panel, the other side as above.
                            unsafe { micro(steps, av, bv, tile.as_mut_ptr(), nr, seed) };
                            for i in 0..tm {
                                c[coff + i * ldc..][..tn]
                                    .copy_from_slice(&tile[i * nr..i * nr + tn]);
                            }
                        }
                    }
                    if let Some(epi) = fused.as_ref().filter(|_| last_kb) {
                        apply_epilogue(c, ldc, (i0, jc), (tm, nc), epi);
                    }
                }
            }
        }
    }
}

/// Whether an operand whose `kc` steps lie `stride` elements apart is read
/// in place: while they span less than 1 MiB, so the block stays in L2
/// across the row panels that reuse it (EXPERIMENTS.md "GEMM operands read
/// where they lie" has the paired timings behind the bound).
fn in_place(stride: usize, kc: usize) -> bool {
    kc * stride < (1 << 20) / 8
}

impl Drop for Gemm {
    fn drop(&mut self) {
        workspace::put(std::mem::take(&mut self.abuf));
        workspace::put(std::mem::take(&mut self.bbuf));
    }
}

#[cfg(test)]
pub(crate) use act::tests::host_libm_differs;

#[cfg(test)]
mod tests {
    use super::micro::{self, AView, BView, MicroFn, TriSweepFn, MR4, MR8, NR16, NR8};
    use super::{Gemm, Kernels, Mode, Operand};
    use crate::{reference, Matrix, Strided};
    use std::cell::Cell;

    /// `(name, mr, nr, [accumulate, subtract])`.
    type Tile = (&'static str, usize, usize, [MicroFn; 2]);

    /// Both instances of one tile kernel.
    macro_rules! tile {
        ($name:literal, $mr:expr, $nr:expr, $f:ident) => {
            ($name, $mr, $nr, [micro::$f::<false>, micro::$f::<true>])
        };
    }

    /// Every tile kernel and every triangular sweep this CPU can run — not
    /// only the ones [`super::kernels`] picks.
    #[allow(unused_mut)]
    fn runnable() -> (Vec<Tile>, Vec<(&'static str, TriSweepFn)>) {
        let mut tiles: Vec<Tile> = vec![tile!("portable", MR4, NR8, micro_4x8_portable)];
        let mut sweeps: Vec<(&'static str, TriSweepFn)> =
            vec![("portable", micro::tri_sweep_portable)];
        #[cfg(target_arch = "x86_64")]
        if super::has_fma() {
            use std::arch::is_x86_feature_detected as detected;
            if detected!("avx2") {
                tiles.push(tile!("avx2", MR4, NR8, micro_4x8_avx2));
                sweeps.push(("avx2", micro::tri_sweep_avx2));
            }
            if detected!("avx512f") {
                tiles.push(tile!("avx512f", MR8, NR16, micro_8x16_avx512));
                sweeps.push(("avx512f", micro::tri_sweep_avx512));
            }
        }
        #[cfg(target_arch = "aarch64")]
        if std::arch::is_aarch64_feature_detected!("neon") {
            tiles.push(tile!("neon", MR4, NR8, micro_4x8_neon));
        }
        (tiles, sweeps)
    }

    /// Uniform values in [-1, 1) from a xorshift stream.
    fn stream(mut s: u64) -> impl FnMut() -> f64 {
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) * 2.0 - 1.0
        }
    }

    thread_local! {
        /// Makes [`super::with_fma`] on this thread run its closure as
        /// built for the baseline ISA, the path of CPUs without FMA.
        pub(super) static BASELINE: Cell<bool> = const { Cell::new(false) };
        /// Makes [`Gemm::run`] on this thread pack every operand panel,
        /// as it does a transposed B or a ragged edge.
        pub(super) static PACK_ALL: Cell<bool> = const { Cell::new(false) };
    }

    /// Runs `f` once per build of the portable bodies: FMA-compiled where
    /// the CPU has FMA, then the baseline build that CPUs without it run.
    fn each_build(mut f: impl FnMut(&str)) {
        f("fma build");
        BASELINE.with(|b| b.set(true));
        f("baseline build");
        BASELINE.with(|b| b.set(false));
    }

    /// The sweep's chain spelled out: row `i` ascending, `p < i` ascending,
    /// one `mul_add` per step, one divide.
    fn sweep_by_hand(coef: &[f64], ldc: usize, x: &mut [f64], ldx: usize, rows: usize, w: usize) {
        for i in 0..rows {
            for j in 0..w {
                let mut s = x[i * ldx + j];
                for p in 0..i {
                    s = (-coef[i * ldc + p]).mul_add(x[p * ldx + j], s);
                }
                x[i * ldx + j] = s / coef[i * ldc + i];
            }
        }
    }

    #[test]
    fn every_runnable_kernel_matches_the_fused_chain() {
        let mut next = stream(0x711E);
        let (tiles, sweeps) = runnable();
        each_build(|build| {
            for &(name, mr, nr, kernel) in &tiles {
                let ldc = nr + 3;
                // Each instance, on a fresh or a loaded tile, reading A packed
                // `(1, mr)` or row-major in place, and B packed or in place
                // at a stride wider than the tile.
                let cases = [0usize, 1, 7, 64, 257].into_iter().flat_map(|kc| {
                    let lda = kc + 2;
                    [(1, mr), (lda, 1)].into_iter().flat_map(move |a| {
                        [nr, nr + 5].into_iter().flat_map(move |bs| {
                            (0..4).map(move |f| (kc, a, bs, f & 1 == 1, f & 2 == 2))
                        })
                    })
                });
                for (kc, (a_row, a_step), b_step, overwrite, neg) in cases {
                    let ad: Vec<f64> = (0..mr * (kc + 2)).map(|_| next()).collect();
                    let bd: Vec<f64> = (0..kc * b_step).map(|_| next()).collect();
                    let seed: Vec<f64> = (0..mr * ldc)
                        .map(|_| if overwrite { f64::NAN } else { next() })
                        .collect();
                    let mut got = seed.clone();
                    let a = AView {
                        ptr: ad.as_ptr(),
                        row: a_row,
                        step: a_step,
                    };
                    let b = BView {
                        ptr: bd.as_ptr(),
                        step: b_step,
                    };
                    // SAFETY: `ad` holds every `A(i, p)` of both layouts,
                    // `bd` every `B(p, j)`, `got` a full mr×nr tile at
                    // stride ldc ≥ nr, and the kernel's instruction set was
                    // detected by `runnable`.
                    unsafe { kernel[usize::from(neg)](kc, a, b, got.as_mut_ptr(), ldc, overwrite) };
                    for (i, j) in (0..mr).flat_map(|i| (0..nr).map(move |j| (i, j))) {
                        let mut w = if overwrite { 0.0 } else { seed[i * ldc + j] };
                        for p in 0..kc {
                            let x = ad[i * a_row + p * a_step];
                            let x = if neg { -x } else { x };
                            w = x.mul_add(bd[p * b_step + j], w);
                        }
                        let g = got[i * ldc + j];
                        assert!(
                            g.to_bits() == w.to_bits(),
                            "{name} ({build}), kc={kc}, a=({a_row},{a_step}), b={b_step}, \
                             overwrite={overwrite}, neg={neg}, ({i},{j}): {g:?} vs {w:?}"
                        );
                    }
                }
            }
            for &(name, sweep) in &sweeps {
                // Widths below, at and straddling the 8-, 16- and 32-wide tiles.
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
                    sweep_by_hand(&coef, ldc, &mut want, ldx, rows, width);
                    // SAFETY: rows ≤ TRI_BLOCK; `coef` holds `rows` rows of
                    // stride ldc ≥ rows, `got` `rows` rows of stride ldx ≥
                    // width, in distinct buffers; the ISA was detected.
                    unsafe { sweep(coef.as_ptr(), ldc, got.as_mut_ptr(), ldx, rows, width) };
                    let same = want
                        .iter()
                        .zip(&got)
                        .all(|(w, g)| w.to_bits() == g.to_bits());
                    assert!(
                        same,
                        "tri_sweep {name} ({build}), rows={rows}, width={width}"
                    );
                }
            }
        });
        let tiles: Vec<_> = tiles.iter().map(|t| t.0).collect();
        let sweeps: Vec<_> = sweeps.iter().map(|t| t.0).collect();
        println!("tile kernels run: {tiles:?}; tri_sweep kernels run: {sweeps:?}");
    }

    /// `a·b = 1 − 2⁻⁶⁰` exactly, which rounds to `1.0` on its own: the
    /// fused `fma(a, b, −1)` is `−2⁻⁶⁰`, the unfused `(a·b) − 1` is `0`.
    const A: f64 = 1.0 + 1.0 / (1u64 << 30) as f64;
    const B: f64 = 1.0 - 1.0 / (1u64 << 30) as f64;

    /// Every tier fuses, in both builds of the portable bodies: a tile or
    /// sweep that silently rounded its multiply apart from its add would
    /// return `0` here.
    #[test]
    fn every_runnable_kernel_rounds_once_per_step() {
        let fused = -1.0 / (1u64 << 60) as f64;
        assert_eq!(A * B - 1.0, 0.0, "the unfused chain must differ");
        let (tiles, sweeps) = runnable();
        each_build(|build| {
            for &(name, mr, nr, kernel) in &tiles {
                // Two steps per element: fma(−1, 1, +0.0) = −1, then
                // fma(A, B, −1); the subtracting instance negates A.
                for (neg, sign) in [(false, 1.0), (true, -1.0)] {
                    let ap: Vec<f64> = [-sign, sign * A]
                        .iter()
                        .flat_map(|&v| vec![v; mr])
                        .collect();
                    let bp: Vec<f64> = [1.0, B].iter().flat_map(|&v| vec![v; nr]).collect();
                    let mut c = vec![0.0; mr * nr];
                    let (a, b) = (
                        AView {
                            ptr: ap.as_ptr(),
                            row: 1,
                            step: mr,
                        },
                        BView {
                            ptr: bp.as_ptr(),
                            step: nr,
                        },
                    );
                    // SAFETY: two-step panels, a full tile at stride nr, and
                    // the ISA was detected by `runnable`.
                    unsafe { kernel[usize::from(neg)](2, a, b, c.as_mut_ptr(), nr, false) };
                    assert!(
                        c.iter().all(|&v| v == fused),
                        "{name} tile ({build}, neg={neg}): {c:?}"
                    );
                }
            }
            for &(name, sweep) in &sweeps {
                // Row 1 of every column: fma(−A, B, 1) / 1 = 2⁻⁶⁰.
                let coef = [1.0, 0.0, A, 1.0];
                let width = 37;
                let mut x: Vec<f64> = [B, 1.0].iter().flat_map(|&v| vec![v; width]).collect();
                // SAFETY: 2 ≤ TRI_BLOCK rows of stride 2 and of width,
                // distinct buffers, detected ISA.
                unsafe { sweep(coef.as_ptr(), 2, x.as_mut_ptr(), width, 2, width) };
                assert!(
                    x[width..].iter().all(|&v| v == -fused),
                    "{name} sweep ({build})"
                );
            }
        });
    }

    /// The chains outside the dispatch table that run through
    /// [`super::with_fma`] — the factorization's diagonal blocks and the
    /// reference oracles — give the same bits in both builds.
    #[test]
    fn factorization_and_reference_match_across_builds() {
        use crate::{init, reference};
        use rand::SeedableRng;
        // n > TRI_BLOCK, so the factorization runs more than one block.
        let n = 70;
        let g = init::normal(n, n, 1.0, &mut rand::rngs::StdRng::seed_from_u64(5));
        let mut spd = g.matmul_nt(&g);
        (0..n).for_each(|i| spd[(i, i)] += n as f64);
        let run = || {
            let mut outs = vec![reference::matmul(&g, &spd); 5];
            crate::cholesky_into(&spd, &mut outs[1]).expect("spd");
            crate::cholesky_inverse_into(&spd, &mut outs[2]).expect("spd");
            reference::cholesky_into(&spd, &mut outs[3]).expect("spd");
            reference::cholesky_inverse_into(&spd, &mut outs[4]).expect("spd");
            outs
        };
        let mut builds = Vec::new();
        each_build(|_| builds.push(run()));
        for (k, (f, b)) in builds[0].iter().zip(&builds[1]).enumerate() {
            let same = f
                .as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(
                same,
                "output {k} differs between the fma and baseline builds"
            );
        }
    }

    /// How an equivalence case runs [`Gemm::run`]: one [`Mode`] flag each.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Flag {
        Overwrite,
        Neg,
        BLower,
        Upper,
    }

    impl Flag {
        fn mode(self) -> Mode<'static> {
            Mode {
                overwrite: matches!(self, Flag::Overwrite | Flag::Upper),
                neg: self == Flag::Neg,
                b_lower: self == Flag::BLower,
                upper: self == Flag::Upper,
                fused: None,
            }
        }
    }

    /// Runs `f` reading operands in place, then with every panel packed.
    fn in_place_then_packed(mut f: impl FnMut(&str)) {
        f("in place");
        PACK_ALL.with(|p| p.set(true));
        f("packed");
        PACK_ALL.with(|p| p.set(false));
    }

    /// Every tier's engine, reading operands in place and packed, gives the
    /// bits of the scalar chain — and of [`reference::matmul`] for a plain
    /// product — over the four operand layouts at row strides wider than
    /// their widths, every [`Mode`] flag, and ragged M, N and K on both
    /// sides of every tile edge and of the KC block.
    #[test]
    fn every_tier_in_place_and_packed_match_the_reference() {
        let dims = [1usize, 7, 8, 9, 17, 65, 257];
        let mut next = stream(0xE0);
        let (tiles, _) = runnable();
        let triples = dims.into_iter().flat_map(|m| {
            dims.into_iter()
                .flat_map(move |n| dims.into_iter().map(move |k| (m, n, k)))
        });
        let flags = [Flag::Overwrite, Flag::Neg, Flag::BLower, Flag::Upper];
        for (m, n, k) in triples.filter(|&(m, n, k)| (m + n + k) < 2 * 257) {
            for (flag, a_col, b_col) in flags.into_iter().flat_map(|f| {
                [(false, false), (true, false), (false, true), (true, true)].map(|(a, b)| (f, a, b))
            }) {
                // A is m × k, stored as is or transposed; B is k × n, lower
                // triangular under `BLower`. Each row stride is 3 wider than
                // its row.
                let (ar, ac) = if a_col { (k, m) } else { (m, k) };
                let (br, bc) = if b_col { (n, k) } else { (k, n) };
                let (lda, ldb, ldc) = (ac + 3, bc + 3, n + 3);
                let ad: Vec<f64> = (0..ar * lda).map(|_| next()).collect();
                let mut bd: Vec<f64> = (0..br * ldb).map(|_| next()).collect();
                let a_at = |i: usize, p: usize| if a_col { p * lda + i } else { i * lda + p };
                let b_at = |p: usize, j: usize| if b_col { j * ldb + p } else { p * ldb + j };
                if flag == Flag::BLower {
                    for (p, j) in (0..k).flat_map(|p| (p + 1..n).map(move |j| (p, j))) {
                        bd[b_at(p, j)] = 0.0;
                    }
                }
                let loaded = matches!(flag, Flag::Neg | Flag::BLower);
                let seed: Vec<f64> = (0..m * ldc)
                    .map(|_| if loaded { next() } else { f64::NAN })
                    .collect();
                let sign = if flag == Flag::Neg { -1.0 } else { 1.0 };
                let want: Vec<f64> = super::with_fma(|| {
                    (0..m * n)
                        .map(|e| {
                            let (i, j) = (e / n, e % n);
                            let c0 = if loaded { seed[i * ldc + j] } else { 0.0 };
                            (0..k).fold(c0, |c, p| {
                                (sign * ad[a_at(i, p)]).mul_add(bd[b_at(p, j)], c)
                            })
                        })
                        .collect()
                });
                if flag == Flag::Overwrite {
                    let am = Matrix::from_vec(
                        m,
                        k,
                        (0..m * k).map(|e| ad[a_at(e / k, e % k)]).collect(),
                    );
                    let bm = Matrix::from_vec(
                        k,
                        n,
                        (0..k * n).map(|e| bd[b_at(e / n, e % n)]).collect(),
                    );
                    let r = reference::matmul(&am, &bm);
                    assert!(r
                        .as_slice()
                        .iter()
                        .zip(&want)
                        .all(|(r, w)| r.to_bits() == w.to_bits()));
                }
                let ab = (
                    if a_col {
                        Operand::cols(&ad, lda)
                    } else {
                        Operand::rows(&ad, lda)
                    },
                    if b_col {
                        Operand::cols(&bd, ldb)
                    } else {
                        Operand::rows(&bd, ldb)
                    },
                );
                for &(name, mr, nr, micro) in &tiles {
                    let mut outs = Vec::new();
                    in_place_then_packed(|how| {
                        let mut gemm = Gemm::new();
                        gemm.kernels = Kernels {
                            mr,
                            nr,
                            micro,
                            ..gemm.kernels
                        };
                        let mut got = seed.clone();
                        gemm.run(&mut got, ldc, (m, n, k), ab, flag.mode());
                        for (i, j) in (0..m).flat_map(|i| (0..n).map(move |j| (i, j))) {
                            if flag == Flag::Upper && j < i {
                                continue;
                            }
                            let (g, w) = (got[i * ldc + j], want[i * n + j]);
                            assert!(
                                g.to_bits() == w.to_bits(),
                                "{name} {how}, {flag:?}, a_col={a_col}, b_col={b_col}, \
                                 {m}x{n}x{k} ({i},{j}): {g:?} vs {w:?}"
                            );
                        }
                        outs.push(got);
                    });
                    let same = outs[0]
                        .iter()
                        .zip(&outs[1])
                        .all(|(x, y)| x.to_bits() == y.to_bits());
                    assert!(
                        same,
                        "{name}, {flag:?}: in place and packed differ at {m}x{n}x{k}"
                    );
                }
            }
        }
    }

    /// [`crate::gemm_batched`] items read in place and packed — the
    /// attention core's head blocks among them — match the reference
    /// product of each item, bit for bit.
    #[test]
    fn batched_items_in_place_and_packed_match_the_reference() {
        let mut next = stream(0xBA7);
        // A 2 × 3 grid of items, each a block of a wider matrix.
        let shapes = [
            (32, 32, 16),
            (32, 32, 24),
            (32, 16, 32),
            (32, 24, 32),
            (5, 7, 9),
        ];
        for ((m, n, k), (ta, tb)) in shapes.into_iter().flat_map(|s| {
            [(false, false), (true, false), (false, true), (true, true)].map(|t| (s, t))
        }) {
            let sa = if ta { (k, m) } else { (m, k) };
            let sb = if tb { (n, k) } else { (k, n) };
            let random = |(r, c): (usize, usize), next: &mut dyn FnMut() -> f64| {
                Matrix::from_vec(r, c, (0..r * c).map(|_| next()).collect())
            };
            let a = random((2 * sa.0, 3 * sa.1 + 1), &mut next);
            let b = random((2 * sb.0, 3 * sb.1 + 1), &mut next);
            let item = |x: &Matrix, (i, j): (usize, usize), (r, c): (usize, usize), t: bool| {
                let blk = Matrix::from_vec(
                    r,
                    c,
                    (0..r * c)
                        .map(|e| x[(i * r + e / c, j * c + e % c)])
                        .collect(),
                );
                if t {
                    blk.transpose()
                } else {
                    blk
                }
            };
            fn operand(x: &Matrix, t: bool, (r, c): (usize, usize)) -> Strided<'_> {
                Strided {
                    data: x.as_slice(),
                    ld: x.cols(),
                    trans: t,
                    step: (r * x.cols(), c),
                }
            }
            let ldc = 3 * n + 2;
            let mut outs = Vec::new();
            in_place_then_packed(|how| {
                let mut c = vec![f64::NAN; 2 * m * ldc];
                let (pa, pb) = (operand(&a, ta, sa), operand(&b, tb, sb));
                crate::gemm_batched((2, 3), (m, n, k), pa, pb, &mut c, ldc, (m * ldc, n));
                for ij in (0..2).flat_map(|i| (0..3).map(move |j| (i, j))) {
                    let want = reference::matmul(&item(&a, ij, sa, ta), &item(&b, ij, sb, tb));
                    for (r, w) in want.as_slice().chunks(n).enumerate() {
                        let got = &c[(ij.0 * m + r) * ldc + ij.1 * n..][..n];
                        let same = got.iter().zip(w).all(|(g, w)| g.to_bits() == w.to_bits());
                        assert!(same, "{how} item {ij:?} of {m}x{n}x{k}, ta={ta}, tb={tb}");
                    }
                }
                outs.push(c);
            });
            let same = outs[0]
                .iter()
                .zip(&outs[1])
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "in place and packed differ at {m}x{n}x{k}");
        }
    }
}
